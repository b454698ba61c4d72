"""Optimal polynomial approximants to 1/f in weighted coefficient norms.

For a polynomial f and a finite monomial basis e_1..e_N, the optimal
approximant p minimizes ||p*f - 1|| over span{e_i}.  Everything here is
built on one operator, A = W^{1/2} M_f: a sparse matrix with one column per
basis monomial and one row per product monomial it reaches, holding the
coefficients of e_j * f scaled by the square roots of their weights.  The
normal equations G c = v have G = A^H A and v = A^H e_0.

Every solve goes through one prefix solver.  In graded order every smaller
basis is a prefix of the largest one, and G is banded, with bandwidth about
deg(f) * (n+1).  G is written straight into LAPACK band storage and
factored once (banded Cholesky); one forward solve y = L^-1 v serves every
prefix, because the factor of a prefix basis is the leading block of the
full factor.  Each prefix then costs one banded back substitution for its
coefficients; the prefixes are solved one by one.  This is the
orthogonal-polynomial form of the problem: d_n^2 = 1 - sum_{i < N_n}
|y_i|^2.  ``optimal_approximant`` asks for the full basis,
``distance_scan`` for every prefix of the nested bases, all in one call.

Strongly negative alpha spreads the pivots of G over many decades.  That
spread is diagonal scaling, and Cholesky's rounding error is governed by
the condition of the diagonally scaled G (Demmel 1989), so the banded
factor serves every alpha.  Every reported distance is ||A c - e_0||^2,
the weighted norm of the residual p*f - 1, and it must agree with the
solver's value 1 - Re(v^H c) to one part in 1e9, which catches silent
cancellation.  The prefixes' coefficients are gathered as the columns of
blocks C whose residuals fill at most ``CHECK_BLOCK_BYTES``, and each block
is checked with one sparse product A C.

``closed_form_distance`` carries the two families with exact distance
formulas (f = 1 - z1 and f = 1 - z1*z2), used as oracles in the tests.

``decay_diagnostic`` fits decay models to a distance-squared sequence and
labels it Decaying, Plateau, or Inconclusive.  The labels are advisory:
they corroborate, never replace, the zero-set classification.  Each model
is linear in its scale parameters once its one nonlinear parameter is
fixed, so the fits are variable projection on numpy: the scales are solved
in closed form (nonnegative) for a whole grid of the nonlinear parameter at
once, and a fixed number of zooms around the best node finish the 1-D
search.  A new model is one more entry in ``_DECAY_MODELS``: its name, the
bounds of its nonlinear parameter and its closed-form linear part.

scipy is imported on first use, inside the function that calls it: the
solver loads ``scipy.sparse`` and ``scipy.linalg``, the certificate
``scipy.special``.  Importing the package, and the commands that need only
numpy (norms, torus zeros, recurrences), then start without paying for
scipy's import, which takes several times longer than numpy's.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, NumericalError
from .poly import Poly2
from .spaces import SpaceSpec, monomial_weights

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "BasisSpec",
    "ApproximantResult",
    "basis_monomials",
    "optimal_approximant",
    "distance_scan",
    "ScanRow",
    "closed_form_distance",
    "DecayVerdict",
    "decay_diagnostic",
    "evaluation_bound_certificate",
]

AGREE_TOL = 1e-9
# bytes of the residuals of one block of prefixes, checked by one sparse
# product.  A total-degree scan to nmax 44 takes three or four blocks.
# Blocks of 256 KiB to 1 MiB ran equally fast; the smaller one keeps the
# peak RSS of a benchmark process within 0.5 MiB of the per-row loop's.
CHECK_BLOCK_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """Monomial basis shape: total degree <= n, a bidegree box, or the
    diagonal powers (z1*z2)^m for m <= n."""

    kind: Literal["total", "box", "diagonal"]
    n: int
    n2: int = 0

    def __post_init__(self):
        if self.kind not in ("total", "box", "diagonal"):
            raise DegenerateInputError(f"unknown basis kind {self.kind!r}")
        if self.n < 0 or self.n2 < 0:
            raise DegenerateInputError("basis degree bounds must be nonnegative")

    @staticmethod
    def total(n: int) -> "BasisSpec":
        return BasisSpec("total", n)

    @staticmethod
    def box(n1: int, n2: int) -> "BasisSpec":
        return BasisSpec("box", n1, n2)

    @staticmethod
    def diagonal(n: int) -> "BasisSpec":
        return BasisSpec("diagonal", n)


def basis_monomials(spec: BasisSpec) -> list[tuple[int, int]]:
    """Monomial exponents in graded lexicographic order.

    Graded order makes the basis for a smaller bound a prefix of the basis
    for a larger one (within the same kind), which distance_scan exploits.
    """
    if spec.kind == "total":
        out = [
            (k, d - k)
            for d in range(spec.n + 1)
            for k in range(d + 1)
        ]
    elif spec.kind == "box":
        out = sorted(
            ((k, l) for k in range(spec.n + 1) for l in range(spec.n2 + 1)),
            key=lambda kl: (kl[0] + kl[1], kl[0]),
        )
    else:
        out = [(m, m) for m in range(spec.n + 1)]
    return out


# ---------------------------------------------------------------------------
# the weighted operator and the prefix solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximantResult:
    p: Poly2
    distance_squared: float
    residual: Poly2
    basis_spec: BasisSpec

    @property
    def distance(self) -> float:
        return float(np.sqrt(self.distance_squared))


def _graded_exponents(spec: BasisSpec) -> np.ndarray:
    """The exponents of ``basis_monomials(spec)``, in its order, as an
    (N, 2) integer array."""
    if spec.kind == "total":
        d = np.repeat(np.arange(spec.n + 1), np.arange(1, spec.n + 2))
        k = np.arange(d.size) - d * (d + 1) // 2
        return np.column_stack((k, d - k))
    if spec.kind == "box":
        k, l = np.divmod(np.arange((spec.n + 1) * (spec.n2 + 1)), spec.n2 + 1)
        order = np.lexsort((k, k + l))
        return np.column_stack((k[order], l[order]))
    m = np.arange(spec.n + 1)
    return np.column_stack((m, m))


def _renumber(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of keys, all in [0, size), and 0, in increasing
    order, and the index of each key among them.

    A mask over [0, size) and its cumulative sum win when the keys fill a
    good part of the range (total-degree and box bases), np.unique's sort
    when they are sparse in it (the diagonal family fills about 1/n of its
    range).  On a 2-vCPU VM the mask took 64 us against 342 us for
    np.unique on a total-degree basis at nmax 44 with 9 support terms (9,315
    keys in 2,209 slots), and 1,051 us against 46 us on the diagonal family
    at nmax 280 (562 keys in 79,524 slots).
    """
    if size <= 4 * keys.size:
        kept = np.zeros(size, dtype=bool)
        kept[keys] = True
        kept[0] = True
        return np.flatnonzero(kept), (np.cumsum(kept) - 1)[keys]
    reached, index = np.unique(np.append(keys, 0), return_inverse=True)
    return reached, index.ravel()[:-1].reshape(keys.shape)


def _weighted_operator(f: Poly2, exps: np.ndarray, space: SpaceSpec) -> sparse.csc_matrix:
    """A = W^{1/2} M_f: column j holds the coefficients of e_j * f, each
    scaled by the square root of the weight of its monomial.

    Rows run over the product monomials that some e_j * f reaches, and the
    constant one, in row-major order, so row 0 is the constant monomial,
    whose weight is 1 in every space.  Hence G = A^H A and
    ||p*f - 1||^2 = ||A c - e_0||^2.  Weights are computed at the reached
    monomials alone, so the set-up grows with the basis, not with the box
    of exponents around it.

    Raises ``NumericalError`` when an entry of A is past the double range.
    """
    from scipy import sparse

    if f.is_zero:
        raise DegenerateInputError("approximants to 1/f need a nonzero f")
    m, n = f.bidegree
    width = int(exps[:, 1].max()) + n + 1
    fk, fl = np.nonzero(f.coeffs)
    # the support comes in row-major order, so each column's rows are sorted
    keys = (exps[:, :1] + fk) * width + (exps[:, 1:] + fl)
    # keep the rows reached and row 0 (the target), renumbered in order
    reached, rows = _renumber(keys, (int(exps[:, 0].max()) + m + 1) * width)
    with np.errstate(over="ignore", invalid="ignore"):
        sqw = np.sqrt(monomial_weights(space, *np.divmod(reached, width)))
        data = f.coeffs[fk, fl] * sqw[rows]
    if not np.all(np.isfinite(data)):
        raise NumericalError("weighted operator overflows the double range")
    indptr = np.arange(0, rows.size + 1, fk.size)
    return sparse.csc_matrix((data.ravel(), rows.ravel(), indptr), shape=(reached.size, len(exps)))


def _gram_lower(a: sparse.csc_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries G[i, j], i >= j, of G = A^H A as (i - j, j, G[i, j]),
    read straight from the CSR product.

    Raises ``NumericalError`` when an entry of G is past the double range:
    the factorization would take an infinite pivot and return zeros.
    """
    g = (a.conj().T @ a).tocsr()
    if not np.all(np.isfinite(g.data)):
        raise NumericalError("Gram matrix overflows the double range")
    offset = np.repeat(np.arange(g.shape[0], dtype=g.indices.dtype), np.diff(g.indptr)) - g.indices
    lower = offset >= 0
    return offset[lower], g.indices[lower], g.data[lower]


def _gram_band(a: sparse.csc_matrix) -> np.ndarray:
    """G = A^H A in LAPACK lower band storage: band[i - j, j] = G[i, j].

    When every entry of G underflows the band is one zero row, which the
    factorization's positive-definite test then reports.  The full product
    is freed before the band is written.
    """
    offset, col, data = _gram_lower(a)
    band = np.zeros((int(offset.max(initial=0)) + 1, a.shape[1]), dtype=np.complex128, order="F")
    band[offset, col] = data
    return band


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with scipy,
    or None where its wheel bundles none.
    """
    import ctypes
    import glob
    import os

    import scipy

    pkg = os.path.dirname(scipy.__file__)
    for path in glob.glob(os.path.join(pkg + ".libs", "*openblas*")) + glob.glob(
        os.path.join(pkg, ".dylibs", "*openblas*")
    ):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of scipy's bundled OpenBLAS.

    The first threaded call after an idle spell can stall for about a
    second while the second thread wakes.
    """
    get, put = _openblas_thread_calls() or (lambda: None, lambda threads: None)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _band_cholesky(band: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor in band storage, computed in place.

    The factorization runs on one OpenBLAS thread.  Its unblocked kernel
    hands every column's rank-one update to the thread pool: at the
    bandwidths used here (kd 17-25) two threads are several times slower
    than one.
    """
    from scipy.linalg import lapack

    with _one_blas_thread():
        low, info = lapack.zpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"Gram matrix is not positive definite (leading minor {info})")
    return low


def _band_solve(low: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """L x = b (trans "N") or L^H x = b (trans "C") for a banded factor."""
    from scipy.linalg import lapack

    x, info = lapack.ztbtrs(low, b, uplo="L", trans=trans)
    if info != 0:
        raise NumericalError(f"banded triangular solve failed (info {info})")
    return x


def _poly_from_basis(exps: np.ndarray, c: np.ndarray) -> Poly2:
    grid = np.zeros((exps[:, 0].max() + 1, exps[:, 1].max() + 1), dtype=np.complex128)
    grid[exps[:, 0], exps[:, 1]] = c
    return Poly2(grid)


def _check_block_width(a: sparse.csc_matrix) -> int:
    """How many prefixes one self-check product takes: their residuals,
    one column of A's row count each, fill at most ``CHECK_BLOCK_BYTES``.
    A has at least as many rows as columns, so their coefficients fit too.
    """
    return max(1, CHECK_BLOCK_BYTES // (16 * a.shape[0]))


def _self_check(a: sparse.csc_matrix, a00: complex, block: np.ndarray) -> np.ndarray:
    """The distances squared ||A c - e_0||^2 of the columns c of block,
    each checked against the solver's value 1 - Re(v^H c).

    Each column is zero-padded to A's column count, and v = A^H e_0 =
    conj(a00) e_0.
    """
    residual = a @ block
    residual[0] -= 1.0
    # |r|^2 = re^2 + im^2 laid out one residual per row, then numpy's
    # pairwise sum along each, not BLAS: threaded BLAS dots stalled later
    # factorizations
    parts = residual.view(np.float64)
    np.square(parts, out=parts)
    d2 = np.add(parts[:, 0::2].T, parts[:, 1::2].T, order="C").sum(axis=1)
    d2_solver = 1.0 - np.real(a00 * block[0])
    # written so that a NaN fails the check too
    agree = np.abs(d2 - d2_solver) <= AGREE_TOL * np.maximum(1.0, np.maximum(np.abs(d2), np.abs(d2_solver)))
    if not agree.all():
        j = int(np.argmin(agree))
        raise NumericalError(
            "distance self-check failed: residual norm "
            f"{d2[j]:.15e} vs solver value {d2_solver[j]:.15e}"
        )
    return np.clip(d2, 0.0, 1.0)


def _prefix_solver(f: Poly2, exps: np.ndarray, space: SpaceSpec, sizes: Sequence[int]):
    """Solve the approximant problem on the leading size monomials of the
    basis exps, for every size in sizes.

    Returns the distances squared, one per size, and the coefficients c of
    the last size.  G is factored once: the banded Cholesky factor of a
    leading block of G is the leading block of the factor, so each size
    costs one banded back substitution of its own.  Each distance is
    ||A c - e_0||^2, which must agree with the solver's own value
    1 - Re(v^H c) before it is returned; one sparse product checks a
    whole block of sizes (``_check_block_width``).
    """
    a = _weighted_operator(f, exps, space)
    low = _band_cholesky(_gram_band(a))
    # only e_0 * f_00 reaches the constant monomial, so v = A^H e_0 is
    # conj(a00) e_0, with a00 column 0's first entry when that is in row 0
    a00 = a.data[0] if a.indices[0] == 0 else 0.0
    v = np.zeros(len(exps), dtype=np.complex128)
    v[0] = np.conj(a00)
    y = _band_solve(low, v, "N")
    d2 = np.empty(len(sizes))
    step = _check_block_width(a)
    for start in range(0, len(sizes), step):
        chunk = sizes[start : start + step]
        block = np.zeros((len(exps), len(chunk)), dtype=np.complex128)
        for j, size in enumerate(chunk):
            block[:size, j] = _band_solve(low[:, :size], y[:size], "C")
        d2[start : start + len(chunk)] = _self_check(a, a00, block)
    return d2, block[: sizes[-1], -1]


def optimal_approximant(f: Poly2, spec: BasisSpec, space: SpaceSpec) -> ApproximantResult:
    """Best approximant to 1/f on the basis spec.

    The distance reported is ||A c - e_0||^2, the weighted norm of the
    residual p*f - 1, checked against the solver's algebraic value.
    """
    exps = _graded_exponents(spec)
    d2, c = _prefix_solver(f, exps, space, [len(exps)])
    p = _poly_from_basis(exps, c)
    return ApproximantResult(p=p, distance_squared=float(d2[0]), residual=p * f - 1.0, basis_spec=spec)


# ---------------------------------------------------------------------------
# distance sequences over nested bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    n: int
    basis_size: int
    distance_squared: float
    distance: float


def distance_scan(
    f: Poly2,
    space: SpaceSpec,
    n_max: int,
    family: Literal["total", "diagonal"] = "total",
) -> list[ScanRow]:
    """Distances from 1 to the approximant spaces for n = 0..n_max.

    family picks the nested basis sequence: "total" for total degree <= n,
    "diagonal" for diagonal powers up to (z1*z2)^n.  One factorization for
    the largest basis serves every row.  The rows are then solved one by
    one, each with one back substitution, and the residual self-check takes
    one sparse product per block of rows.
    """
    if n_max < 0:
        raise DegenerateInputError("n_max must be nonnegative")
    if family not in ("total", "diagonal"):
        raise DegenerateInputError(f"unknown scan family {family!r}")
    exps = _graded_exponents(BasisSpec(family, n_max))
    n = np.arange(n_max + 1)
    sizes = ((n + 1) * (n + 2) // 2 if family == "total" else n + 1).tolist()
    d2 = _prefix_solver(f, exps, space, sizes)[0]
    return [
        ScanRow(i, size, d, distance)
        for i, (size, d, distance) in enumerate(zip(sizes, d2.tolist(), np.sqrt(d2).tolist()))
    ]


# ---------------------------------------------------------------------------
# closed forms and certificates
# ---------------------------------------------------------------------------


def closed_form_distance(family: Literal["one_minus_z1", "one_minus_z1z2"], alpha: float, n: int) -> float:
    """Exact distance_squared for the two model polynomials.

    one_minus_z1:   d_n^2 = 1 / sum_{j=0}^{n+1} (j+1)^(-alpha)
    one_minus_z1z2: d_n^2 = 1 / sum_{m=0}^{n+1} (2m+1)^(-alpha)
                    (diagonal basis index n)

    Both follow from telescoping the residual orthogonality conditions:
    multiples of f shift coefficients along one line of the grid, so the
    optimal residual has coefficients proportional to the reciprocal
    weights along that line, normalized to hit -1 at the matching root.
    """
    if n < 0:
        raise DegenerateInputError("n must be nonnegative")
    j = np.arange(n + 2, dtype=np.float64)
    if family == "one_minus_z1":
        s = np.sum((j + 1.0) ** (-alpha))
    elif family == "one_minus_z1z2":
        s = np.sum((2.0 * j + 1.0) ** (-alpha))
    else:
        raise DegenerateInputError(f"no closed form for {family!r}")
    return float(1.0 / s)


def evaluation_bound_certificate(alpha: float) -> float:
    """Unconditional lower bound on every d_n when f vanishes on the torus.

    For alpha > 2 point evaluation at a torus point w is bounded on the
    space with norm constant sqrt(sum_j (j+1)^(1-alpha)) = sqrt(zeta(alpha-1)),
    so |p f - 1|(w) = 1 forces ||p f - 1|| >= 1/sqrt(zeta(alpha-1)).
    """
    from scipy.special import zeta

    if not alpha > 2.0:
        raise DegenerateInputError("the evaluation bound needs alpha > 2")
    return float(1.0 / np.sqrt(zeta(alpha - 1.0)))


# ---------------------------------------------------------------------------
# decay diagnostics
# ---------------------------------------------------------------------------


# Fixed thresholds of the decay label.  A plateau needs a good fit
# (relative residual below FIT_TOL) whose limit exceeds PLATEAU_FLOOR and
# accounts for at least PLATEAU_CREDIBILITY of the final value: log-slow
# decays otherwise masquerade as plateaus over finite windows.  "decaying"
# needs a good zero-limit fit and a final value below DROP_RATIO times the
# first.
PLATEAU_FLOOR = 1e-3
FIT_TOL = 5e-2
DROP_RATIO = 0.5
PLATEAU_CREDIBILITY = 0.8


@dataclass(frozen=True)
class DecayVerdict:
    label: Literal["decaying", "plateau", "inconclusive"]
    limit_estimate: Optional[float]
    fit_model: str
    fit_params: tuple[float, ...]
    fit_residual: float


def _rel_residual(data: np.ndarray, model_vals: np.ndarray) -> float:
    return float(np.linalg.norm(model_vals - data) / np.linalg.norm(data))


def _one_column(g: np.ndarray, y: np.ndarray):
    """Nonnegative least-squares scale c of each row g_i of g against y."""
    c = np.maximum(g @ y / np.einsum("ij,ij->i", g, g), 0.0)
    return (c,), c[:, None] * g


def _power(beta: np.ndarray, n: np.ndarray) -> np.ndarray:
    return n[None, :] ** -beta[:, None]


def _log_decay(c0: np.ndarray, n: np.ndarray, y: np.ndarray):
    return _one_column(1.0 / np.log(n[None, :] + c0[:, None]), y)


def _power_decay(beta: np.ndarray, n: np.ndarray, y: np.ndarray):
    return _one_column(_power(beta, n), y)


def _power_plateau(beta: np.ndarray, n: np.ndarray, y: np.ndarray):
    """dinf + c*n^-beta with dinf, c >= 0: the unconstrained two-column
    solution where both entries are nonnegative, else the better face."""
    g = _power(beta, n)
    (c_face,), vals_face = _one_column(g, y)  # dinf = 0
    y_mean = y.mean()
    dinf_face = max(y_mean, 0.0)  # c = 0
    use_dinf = ((y - dinf_face) ** 2).sum() < ((vals_face - y) ** 2).sum(axis=1)
    dinf = np.where(use_dinf, dinf_face, 0.0)
    c = np.where(use_dinf, 0.0, c_face)
    g_mean = g.mean(axis=1)
    gc = g - g_mean[:, None]
    c_free = gc @ (y - y_mean) / np.einsum("ij,ij->i", gc, gc)
    dinf_free = y_mean - c_free * g_mean
    free = (c_free >= 0.0) & (dinf_free >= 0.0)
    dinf = np.where(free, dinf_free, dinf)
    c = np.where(free, c_free, c)
    return (dinf, c), dinf[:, None] + c[:, None] * g


# Each model is linear in its scale parameters once its one nonlinear
# parameter t is fixed: (name, bounds of t, search t on a log scale,
# linear(t, n, y) -> (scale parameters, model values), one row per t).
# Two zero-asymptote models, then the positive-limit model; every model's
# parameters are its scale parameters followed by t.
_DECAY_MODELS = (
    ("c/log(n+c0)", (1.05, 1e6), True, _log_decay),
    ("c*n^-beta", (1e-3, 20.0), False, _power_decay),
    ("dinf+c*n^-beta", (1e-3, 20.0), False, _power_plateau),
)
# the 1-D search over t: a grid of FIT_GRID nodes, then FIT_ZOOMS grids of
# as many nodes between the neighbours of the best node so far
FIT_GRID = 32
FIT_ZOOMS = 10


def _fit(model, n: np.ndarray, y: np.ndarray):
    """(name, params, relative residual) of one least-squares fit, or None.

    Variable projection (Golub-Pereyra 1973): the scale parameters are
    solved in closed form for every t, so only the profiled residual
    min over scales of ||model - y||^2 is searched, over t alone.  A
    non-finite profile (a non-finite y) gives no fit.
    """
    name, (t_lo, t_hi), log_scale, linear = model
    lo, hi = (np.log(t_lo), np.log(t_hi)) if log_scale else (t_lo, t_hi)
    for _ in range(FIT_ZOOMS + 1):
        s = np.linspace(lo, hi, FIT_GRID)
        t = np.clip(np.exp(s), t_lo, t_hi) if log_scale else s
        scales, vals = linear(t, n, y)
        profile = ((vals - y) ** 2).sum(axis=1)
        if not np.all(np.isfinite(profile)):
            return None
        i = int(np.argmin(profile))
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, FIT_GRID - 1)]
    params = tuple(float(a[i]) for a in scales) + (float(t[i]),)
    return (name, params, _rel_residual(y, vals[i]))


def decay_diagnostic(ds: Sequence[float]) -> DecayVerdict:
    """Label a distance-squared sequence by its apparent asymptotics.

    The sequence must be non-increasing (up to 1e-10 slack) with at least 8
    entries.  Two zero-asymptote models and one positive-limit model are
    fitted; the positive limit is reported only when its fit is good and the
    limit is a credible floor for the observed tail.  A sequence that starts
    at zero (a constant f) is decaying with the exact limit 0 and no fit.

    An inconclusive label reports the fit with the smallest residual.  A
    positive-limit fit whose limit is exactly 0 is the c*n^-beta fit, so it
    is never reported in that fit's place, whatever the last bits of the
    two residuals say.
    """
    y = np.asarray(ds, dtype=np.float64)
    if y.size < 8:
        raise DegenerateInputError("decay diagnostic needs at least 8 values")
    if np.any(np.diff(y) > 1e-10):
        raise DegenerateInputError("distance sequence must be non-increasing")
    if y[0] <= 1e-14:
        # d_0^2 = 1 - |f(0)|^2 / ||f||^2 vanishes only for a constant f,
        # whose approximants reach 1/f exactly
        return DecayVerdict("decaying", 0.0, "exact", (), 0.0)
    if np.any(y <= 0):
        raise DegenerateInputError("distance sequence must be positive")
    n = np.arange(1.0, y.size + 1.0)  # shift away from zero for the models
    fits = [f for f in (_fit(model, n, y) for model in _DECAY_MODELS) if f is not None]
    if not fits:
        return DecayVerdict("inconclusive", None, "none", (), float("inf"))
    zero_fits = [f for f in fits if f[0] != "dinf+c*n^-beta"]
    plateau_fit = next((f for f in fits if f[0] == "dinf+c*n^-beta"), None)
    best_zero = min(zero_fits, key=lambda f: f[2]) if zero_fits else None

    last = float(y[-1])
    first = float(y[0])
    if plateau_fit is not None:
        dinf = plateau_fit[1][0]
        if (
            plateau_fit[2] < FIT_TOL
            and dinf > PLATEAU_FLOOR
            and dinf >= PLATEAU_CREDIBILITY * last
        ):
            return DecayVerdict("plateau", float(dinf), plateau_fit[0], plateau_fit[1], plateau_fit[2])
    if best_zero is not None and best_zero[2] < FIT_TOL and last < first * DROP_RATIO:
        return DecayVerdict("decaying", 0.0, best_zero[0], best_zero[1], best_zero[2])
    ref = min((f for f in fits if not (f is plateau_fit and f[1][0] == 0.0)), key=lambda f: f[2])
    return DecayVerdict("inconclusive", None, ref[0], ref[1], ref[2])
