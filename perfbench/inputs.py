"""Seeded inputs for the benchmark workloads, each with its truth.

Every input is built so that its answer is known without running the
program:

* rotations f(z1, z2) -> f(zeta z1, eta z2) with |zeta| = |eta| = 1 keep the
  weighted norms, the approximant distances and the torus class of f;
* ``1 - z1`` and ``1 - z1 z2`` have closed-form distances;
* a polynomial whose constant term outweighs the sum of all other
  coefficient moduli has no zero on the closed bidisk, so its torus set is
  empty and it is cyclic at every alpha;
* ``2 - z1 - z2`` vanishes on the closed bidisk only at (1, 1), ``1 - z1 z2``
  on the whole curve z1 z2 = 1 of the torus, and ``(1 - z1)(1 - z2)`` on two
  circles of the torus; the cyclicity verdict then follows from the alpha
  rule of Beneteau, Knese, Kosinski, Liaw, Seco and Sola (2016).

A workload is a cycle of operations that is repeated; the sizes of the
operations in a cycle are fixed and the seed only draws rotations,
coefficients and alphas, so a cycle costs the same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ALPHAS = (0.5, 1.0, 2.0, 3.0)

# coefficient grids c[k, l] of z1^k z2^l for the model polynomials
MODELS = {
    "one_minus_z1": [[1.0], [-1.0]],
    "one_minus_z2": [[1.0, -1.0]],
    "one_minus_z1z2": [[1.0, 0.0], [0.0, -1.0]],
    "two_minus_z1_z2": [[2.0, -1.0], [-1.0, 0.0]],
    "product": [[1.0, -1.0], [-1.0, 1.0]],
    "one_plus_z1_z2": [[1.0, 1.0], [1.0, 0.0]],
}

TORUS_KIND = {
    "one_minus_z1": "infinite",
    "one_minus_z2": "infinite",
    "one_minus_z1z2": "infinite",
    "two_minus_z1_z2": "finite",
    "product": "infinite",
    "zero_free": "empty",
}


def verdict(alpha: float, torus: str) -> str:
    """Cyclicity of a polynomial without zeros in the open bidisk."""
    if alpha <= 1.0:
        return "cyclic"
    if alpha <= 2.0:
        return "cyclic" if torus in ("empty", "finite") else "not_cyclic"
    return "cyclic" if torus == "empty" else "not_cyclic"


@dataclass(frozen=True, eq=False)
class Op:
    """One operation of a workload and what its answer must be.

    ``closed_form`` names the exact distance formula that applies to the
    scan ("one_minus_z1" indexed by n, "one_minus_z1z2" indexed by n for the
    diagonal family and by n // 2 for the total family).  CLI operations
    carry their arguments and the name of the check for their output.
    """

    name: str
    coeffs: Optional[np.ndarray] = None
    alpha: float = 1.0
    nmax: int = 0
    family: str = "total"
    closed_form: Optional[str] = None
    torus: Optional[str] = None
    torus_point: Optional[tuple[complex, complex]] = None
    verdict: Optional[str] = None
    argv: tuple[str, ...] = ()
    files: dict = field(default_factory=dict)


def rotation(rng: np.random.Generator) -> tuple[complex, complex]:
    zeta, eta = np.exp(2j * np.pi * rng.random(2))
    return complex(zeta), complex(eta)


def rotate(coeffs, zeta: complex, eta: complex) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    k = np.arange(c.shape[0])[:, None]
    l = np.arange(c.shape[1])[None, :]
    return c * zeta**k * eta**l


def zero_free(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Dense bidegree (m, n) polynomial whose constant term dominates."""
    c = rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))
    c[0, 0] = 0.0
    c[0, 0] = 1.5 * np.abs(c).sum() * np.exp(2j * np.pi * rng.random())
    return c


def _model_op(name, rng, alpha, nmax, family) -> Op:
    zeta, eta = rotation(rng)
    closed = None
    if name == "one_minus_z1" and family == "total":
        closed = "one_minus_z1"
    elif name == "one_minus_z1z2":
        closed = "one_minus_z1z2"
    point = (zeta.conjugate(), eta.conjugate()) if name == "two_minus_z1_z2" else None
    return Op(
        name=name,
        coeffs=rotate(MODELS[name], zeta, eta),
        alpha=alpha,
        nmax=nmax,
        family=family,
        closed_form=closed,
        torus=TORUS_KIND[name],
        torus_point=point,
        verdict=verdict(alpha, TORUS_KIND[name]),
    )


def _zero_free_op(rng, degree, alpha, nmax) -> Op:
    return Op(
        name=f"zero_free_{degree}",
        coeffs=zero_free(rng, degree, degree),
        alpha=alpha,
        nmax=nmax,
        torus="empty",
        verdict="cyclic",
    )


# ---------------------------------------------------------------------------
# scan_total: distance_scan on the total-degree family.  The dense Cholesky
# factor and the per-row triangular solves carry nearly all of the time;
# assembly of these sparse f is cheap and no zero search runs.  Three sizes
# per model give the median and the tail their own groups of operations.
# ---------------------------------------------------------------------------

SCAN_MODELS = ("one_minus_z1", "two_minus_z1_z2", "product", "zero_free")
SCAN_NMAX = (24, 36, 44)


def scan_total_cycle(rng: np.random.Generator, cycle: int) -> list[Op]:
    ops = []
    for j, nmax in enumerate(SCAN_NMAX):
        for i, name in enumerate(SCAN_MODELS):
            alpha = ALPHAS[(i + j + cycle) % len(ALPHAS)]
            if name == "zero_free":
                ops.append(_zero_free_op(rng, 2, alpha, nmax))
            else:
                ops.append(_model_op(name, rng, alpha, nmax, "total"))
    return ops


# ---------------------------------------------------------------------------
# classify_mix: corroborate end to end.  The dense zero-free inputs drive the
# interior grid search, Gauss-Newton and dense Gram assembly; the rotated
# models drive the resultant, the circle root finder and the decay fits; the
# long diagonal scans are many small systems, where the per-row self-check
# is about half of the scan.  (1 - z1)(1 - z2) has its torus zeros on the
# boundary of the search region and is refused at the seed.
# ---------------------------------------------------------------------------


def classify_mix_cycle(rng: np.random.Generator, cycle: int) -> list[Op]:
    def pick(values):
        return float(values[rng.integers(len(values))])

    return [
        _zero_free_op(rng, 2, pick(ALPHAS), 24),
        _zero_free_op(rng, 4, pick(ALPHAS), 16),
        _zero_free_op(rng, 8, pick(ALPHAS), 12),
        _zero_free_op(rng, 12, pick(ALPHAS), 10),
        _model_op("two_minus_z1_z2", rng, pick((0.5, 1.0, 1.5, 2.0)), 28, "total"),
        _model_op("two_minus_z1_z2", rng, pick((2.5, 3.0)), 28, "total"),
        _model_op("one_minus_z1z2", rng, pick(ALPHAS), 28, "total"),
        _model_op("one_minus_z1z2", rng, pick(ALPHAS), 120, "diagonal"),
        _model_op("one_minus_z1z2", rng, pick(ALPHAS), 280, "diagonal"),
        _model_op("product", rng, pick((1.5, 2.0, 3.0)), 16, "total"),
    ]


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per operation, so every operation pays the
# interpreter start, the package import and the first BLAS call, as a user
# of the command line does.  The operations are the README examples on
# rotated inputs plus edge inputs whose documented outcome is an exit code.
# ---------------------------------------------------------------------------


def _cnum(z: complex) -> str:
    z = complex(z)
    sign = "-" if np.signbit(z.imag) else "+"
    return f"({z.real!r}{sign}{abs(z.imag)!r}i)"


def expression(coeffs) -> str:
    """Text for the expression parser, exact to the last bit of each float."""
    c = np.asarray(coeffs, dtype=np.complex128)
    terms = []
    for k in range(c.shape[0]):
        for l in range(c.shape[1]):
            if c[k, l] != 0:
                mono = "".join(
                    f"*z{v}^{e}" for v, e in ((1, k), (2, l)) if e > 0
                )
                terms.append(_cnum(c[k, l]) + mono)
    return " + ".join(terms)


def poly_json(coeffs) -> str:
    c = np.asarray(coeffs, dtype=np.complex128)
    entries = [
        {"k": k, "l": l, "re": float(c[k, l].real), "im": float(c[k, l].imag)}
        for k in range(c.shape[0])
        for l in range(c.shape[1])
        if c[k, l] != 0
    ]
    return json.dumps({"bidegree": [c.shape[0] - 1, c.shape[1] - 1], "coeffs": entries})


def cli_cycle(rng: np.random.Generator, cycle: int) -> list[Op]:
    def rot(name):
        zeta, eta = rotation(rng)
        return rotate(MODELS[name], zeta, eta), (zeta.conjugate(), eta.conjugate())

    norm_c, _ = rot("one_plus_z1_z2")
    opa_c, _ = rot("one_minus_z1z2")
    scan_c, _ = rot("two_minus_z1_z2")
    zeros_c, _ = rot("product")
    cls_c, _ = rot("one_minus_z1z2")
    f1_c, _ = rot("one_minus_z1")
    f2_c, _ = rot("one_minus_z2")
    qs_c, qs_zero = rot("two_minus_z1_z2")
    dz_c, dz_zero = rot("two_minus_z1_z2")
    uni_c, _ = rot("one_minus_z1")
    opa_json = "opa.json"
    return [
        Op("norm", coeffs=norm_c, argv=("norm", "-p", expression(norm_c), "--alpha", "0.5,1,2")),
        Op(
            "opa",
            coeffs=opa_c,
            alpha=1.0,
            nmax=6,
            family="diagonal",
            closed_form="one_minus_z1z2",
            argv=("opa", "--poly-json", opa_json, "--alpha", "1", "--nmax", "6", "--family", "diagonal"),
            files={opa_json: poly_json(opa_c)},
        ),
        Op(
            "scan",
            coeffs=scan_c,
            nmax=40,
            argv=("scan", "-p", expression(scan_c), "--alpha", "1,3", "--nmax", "40", "--family", "total"),
        ),
        Op("zeros", torus="infinite", argv=("zeros", "-p", expression(zeros_c))),
        Op(
            "classify",
            coeffs=cls_c,
            alpha=1.0,
            nmax=30,
            family="diagonal",
            closed_form="one_minus_z1z2",
            torus="infinite",
            verdict=verdict(1.0, "infinite"),
            argv=(
                "classify", "-p", expression(cls_c), "--alpha", "1", "--nmax", "30", "--family", "diagonal",
            ),
        ),
        Op(
            "factors",
            alpha=1.0,
            torus="infinite",
            verdict=verdict(1.0, "infinite"),
            argv=("classify", "--factors", f"{expression(f1_c)}; {expression(f2_c)}", "--alpha", "1"),
        ),
        Op("recurrence", argv=("recurrence", "-p", "1", "--kmax", "10", "--lmax", "10")),
        Op(
            "qsmooth",
            argv=(
                "qsmooth", "-p", expression(qs_c), "--zeros", f"{_cnum(qs_zero[0])},{_cnum(qs_zero[1])}",
                "--exponent", "6", "--grid", "512", "--qhat-csv", "qhat.csv",
            ),
        ),
        Op(
            "delta_2",
            torus="finite",
            torus_point=dz_zero,
            argv=("zeros", "-p", expression(dz_c), "--set", "delta=2"),
        ),
        Op(
            "space_uni",
            coeffs=uni_c,
            alpha=1.0,
            nmax=4,
            closed_form="one_minus_z1",
            argv=("opa", "-p", expression(uni_c), "--alpha", "1", "--nmax", "4", "--space", "uni"),
        ),
    ]


def cli_known_defects(rng: np.random.Generator) -> list[Op]:
    """Inputs that the program is known to mishandle.

    They are run once per run, outside the timed loop, and reported on
    their own: a constant f is cyclic (exit 0), and an empty coarse grid is
    a configuration error that must end in exit 1 or 2, not a traceback.
    """
    zeta, eta = rotation(rng)
    c = rotate(MODELS["two_minus_z1_z2"], zeta, eta)
    return [
        Op(
            "constant",
            coeffs=np.ones((1, 1), dtype=np.complex128),
            alpha=1.0,
            nmax=40,
            torus="empty",
            verdict="cyclic",
            argv=("classify", "-p", "1", "--alpha", "1"),
        ),
        Op("coarse_radii_0", argv=("zeros", "-p", expression(c), "--set", "coarse_radii=0")),
    ]


CYCLES = {
    "scan_total": scan_total_cycle,
    "classify_mix": classify_mix_cycle,
    "cli": cli_cycle,
}


def cycles(workload: str, seed: int, count: int) -> list[list[Op]]:
    """The first ``count`` cycles of a workload; the same seed gives the same ops."""
    make = CYCLES[workload]
    return [make(np.random.default_rng([seed, c]), c) for c in range(count)]


def warmup_op(workload: str, seed: int) -> Op:
    """The untimed operation an in-process workload runs during set-up."""
    rng = np.random.default_rng([seed, 1 << 20])
    if workload == "scan_total":
        return _model_op("one_minus_z1", rng, 1.0, 36, "total")
    return _model_op("two_minus_z1_z2", rng, 1.0, 24, "total")
