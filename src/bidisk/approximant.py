"""Optimal polynomial approximants to 1/f in weighted coefficient norms.

For a polynomial f and a finite monomial basis e_1..e_N, the optimal
approximant p minimizes ||p*f - 1|| over span{e_i}.  Everything here is
built on one operator, A = W^{1/2} M_f: a sparse matrix with one column per
basis monomial and one row per monomial of the product grid, holding the
coefficients of e_j * f scaled by the square roots of their weights.  The
normal equations G c = v have G = A^H A and v = A^H e_0.

``distance_scan`` produces the distance sequence over nested bases.  In
graded order every smaller basis is a prefix of the largest one and G is
banded, with bandwidth about deg(f) * (n+1).  G is written straight into
LAPACK band storage and factored once (banded Cholesky); one forward solve
y = L^-1 v serves every row, because the factor of a prefix basis is the
leading block of the full factor.  Each row then costs one banded back
substitution for its coefficients.  This is the orthogonal-polynomial form
of the problem: d_n^2 = 1 - sum_{i < N_n} |y_i|^2.

Badly conditioned factors send the whole scan (or a single solve) to a QR
least squares solve on the leading columns of A.  On either route the
reported distance is recomputed from the reconstructed residual p*f - 1 and
must agree with the solver's 1 - Re(v^H c) to one part in 1e9, which
catches silent cancellation.

``closed_form_distance`` carries the two families with exact distance
formulas (f = 1 - z1 and f = 1 - z1*z2), used as oracles in the tests.

``decay_diagnostic`` fits decay models to a distance-squared sequence and
labels it Decaying, Plateau, or Inconclusive.  The labels are advisory:
they corroborate, never replace, the zero-set classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import least_squares
from scipy.special import zeta

from .errors import DegenerateInputError, NumericalError
from .poly import Poly2
from .spaces import SpaceSpec, norm_squared, weight_grid

__all__ = [
    "BasisSpec",
    "GramSystem",
    "ApproximantResult",
    "basis_monomials",
    "assemble_gram",
    "solve_normal_equations",
    "distance_scan",
    "ScanRow",
    "closed_form_distance",
    "DecayConfig",
    "DecayVerdict",
    "decay_diagnostic",
    "evaluation_bound_certificate",
]

AGREE_TOL = 1e-9
PIVOT_REL_TOL = 1e-12
CONDITION_LIMIT = 1e12


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
# the weighted operator, Gram assembly and solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramSystem:
    f: Poly2
    space: SpaceSpec
    basis_spec: BasisSpec
    basis: list[tuple[int, int]]
    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class ApproximantResult:
    p: Poly2
    distance_squared: float
    residual: Poly2
    basis_spec: BasisSpec
    method: str = "cholesky"

    @property
    def distance(self) -> float:
        return float(np.sqrt(self.distance_squared))


def _exponents(basis: Sequence[tuple[int, int]]) -> np.ndarray:
    return np.array(basis, dtype=np.int64).reshape(-1, 2)


def _weighted_operator(f: Poly2, exps: np.ndarray, space: SpaceSpec) -> sparse.csc_matrix:
    """A = W^{1/2} M_f: column j holds the coefficients of e_j * f, each
    scaled by the square root of the weight of its monomial.

    Rows run over the product grid in row-major order, so row 0 is the
    constant monomial, whose weight is 1 in every space.  Hence
    G = A^H A and ||p*f - 1||^2 = ||A c - e_0||^2.
    """
    if f.is_zero:
        raise DegenerateInputError("approximants to 1/f need a nonzero f")
    m, n = f.bidegree
    width = int(exps[:, 1].max()) + n + 1
    sqw = np.sqrt(weight_grid(space, int(exps[:, 0].max()) + m, width - 1)).ravel()
    fk, fl = np.nonzero(f.coeffs)
    # the support comes in row-major order, so each column's rows are sorted
    rows = (exps[:, :1] + fk) * width + (exps[:, 1:] + fl)
    data = f.coeffs[fk, fl] * sqw[rows]
    indptr = np.arange(0, rows.size + 1, fk.size)
    return sparse.csc_matrix((data.ravel(), rows.ravel(), indptr), shape=(sqw.size, len(exps)))


def _rhs(f: Poly2, size: int) -> np.ndarray:
    """v[i] = <1, e_i f>; only the constant monomial, first in every basis
    kind, reaches the target 1."""
    v = np.zeros(size, dtype=np.complex128)
    v[0] = np.conj(f[0, 0])
    return v


def assemble_gram(f: Poly2, spec: BasisSpec, space: SpaceSpec) -> GramSystem:
    basis = basis_monomials(spec)
    a = _weighted_operator(f, _exponents(basis), space)
    g = (a.conj().T @ a).toarray()
    # the sparse product need not round mirrored entries alike
    g = 0.5 * (g + g.conj().T)
    return GramSystem(f=f, space=space, basis_spec=spec, basis=basis, matrix=g, rhs=_rhs(f, len(basis)))


def _gram_band(a: sparse.csc_matrix) -> np.ndarray:
    """G = A^H A in LAPACK lower band storage: band[i - j, j] = G[i, j]."""
    low = sparse.tril(a.conj().T @ a, format="coo")
    offset = low.row - low.col
    band = np.zeros((int(offset.max()) + 1, a.shape[1]), dtype=np.complex128, order="F")
    band[offset, low.col] = low.data
    return band


def _band_cholesky(band: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor in band storage, computed in place."""
    low, info = lapack.zpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"Gram matrix is not positive definite (leading minor {info})")
    return low


def _band_solve(low: np.ndarray, b: np.ndarray, trans: str) -> np.ndarray:
    """L x = b (trans "N") or L^H x = b (trans "C") for a banded factor."""
    x, info = lapack.ztbtrs(low, b, uplo="L", trans=trans)
    if info != 0:
        raise NumericalError(f"banded triangular solve failed (info {info})")
    return x


def _poly_from_basis(exps: np.ndarray, c: np.ndarray) -> Poly2:
    grid = np.zeros((exps[:, 0].max() + 1, exps[:, 1].max() + 1), dtype=np.complex128)
    grid[exps[:, 0], exps[:, 1]] = c
    return Poly2(grid)


def _cholesky_factor(g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram matrix is not positive definite: {exc}") from exc


def _too_ill_conditioned(diag: np.ndarray, trace: float) -> bool:
    """True when back substitution through a factor with this diagonal
    cannot be trusted.

    Either a pivot has collapsed relative to the trace of G or the squared
    pivot ratio exceeds the condition limit; both call for the least
    squares route.
    """
    pivots = np.real(diag) ** 2
    if pivots.min() < PIVOT_REL_TOL * trace:
        return True
    return bool(pivots.max() / pivots.min() > CONDITION_LIMIT)


def _solve_qr(a: sparse.csc_matrix, size: int):
    """Least squares min ||A c - e_0|| over the leading size columns of A.

    Only the rows those columns reach (and row 0, where the target sits)
    enter the dense problem.  Returns (c, d2) where d2 is the squared
    least squares residual, which is the distance value along this route.
    """
    sub = a[:, :size].tocoo()
    rows, at = np.unique(np.append(sub.row, 0), return_inverse=True)
    dense = np.zeros((rows.size, size), dtype=np.complex128)
    dense[at[:-1], sub.col] = sub.data
    t = np.zeros(rows.size, dtype=np.complex128)
    t[0] = 1.0
    c, *_ = np.linalg.lstsq(dense, t, rcond=None)
    d2 = float(np.linalg.norm(dense @ c - t) ** 2)
    return c, d2


def _finalize(
    f: Poly2,
    space: SpaceSpec,
    exps: np.ndarray,
    spec: BasisSpec,
    c: np.ndarray,
    d2_formula: float,
    method: str,
) -> ApproximantResult:
    p = _poly_from_basis(exps, c)
    residual = p * f - 1.0
    d2 = norm_squared(residual, space)
    if abs(d2 - d2_formula) > AGREE_TOL * max(1.0, abs(d2), abs(d2_formula)):
        raise NumericalError(
            "distance self-check failed: residual norm "
            f"{d2:.15e} vs solver value {d2_formula:.15e}"
        )
    d2 = min(max(d2, 0.0), 1.0)
    return ApproximantResult(
        p=p, distance_squared=d2, residual=residual, basis_spec=spec, method=method
    )


def solve_normal_equations(system: GramSystem) -> ApproximantResult:
    """Best approximant for the assembled system.

    The distance reported is the norm of the reconstructed residual; the
    solver's algebraic value serves as a cross-check only.
    """
    g, v = system.matrix, system.rhs
    exps = _exponents(system.basis)
    low = _cholesky_factor(g)
    if _too_ill_conditioned(np.diag(low), float(np.real(np.trace(g)))):
        a = _weighted_operator(system.f, exps, system.space)
        c, d2_formula = _solve_qr(a, len(system.basis))
        method = "qr"
    else:
        y = solve_triangular(low, v, lower=True)
        c = solve_triangular(low, y, lower=True, trans="C")
        method = "cholesky"
        d2_formula = 1.0 - float(np.real(np.vdot(v, c)))
    return _finalize(system.f, system.space, exps, system.basis_spec, c, d2_formula, method)


# ---------------------------------------------------------------------------
# distance sequences over nested bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    n: int
    basis_size: int
    distance_squared: float
    distance: float
    approximant: Optional[Poly2] = None
    method: str = "cholesky"


def distance_scan(
    f: Poly2,
    space: SpaceSpec,
    n_max: int,
    family: Literal["total", "diagonal"] = "total",
    keep_approximants: bool = False,
) -> list[ScanRow]:
    """Distances from 1 to the approximant spaces for n = 0..n_max.

    family picks the nested basis sequence: "total" for total degree <= n,
    "diagonal" for diagonal powers up to (z1*z2)^n.  One banded factor of
    the largest Gram matrix and one forward solve serve every row; each row
    then costs one banded back substitution and its residual self-check.
    """
    if n_max < 0:
        raise DegenerateInputError("n_max must be nonnegative")
    if family == "total":
        full = BasisSpec.total(n_max)
        sizes = [(n + 1) * (n + 2) // 2 for n in range(n_max + 1)]
    elif family == "diagonal":
        full = BasisSpec.diagonal(n_max)
        sizes = [n + 1 for n in range(n_max + 1)]
    else:
        raise DegenerateInputError(f"unknown scan family {family!r}")
    exps = _exponents(basis_monomials(full))
    a = _weighted_operator(f, exps, space)
    band = _gram_band(a)
    trace = float(np.sum(band[0].real))
    low = _band_cholesky(band)
    use_qr = _too_ill_conditioned(low[0], trace)
    v = _rhs(f, len(exps))
    if not use_qr:
        y = _band_solve(low, v, "N")
    rows = []
    for n, size in enumerate(sizes):
        sub_spec = BasisSpec.total(n) if family == "total" else BasisSpec.diagonal(n)
        if use_qr:
            c, d2_formula = _solve_qr(a, size)
            method = "qr"
        else:
            c = _band_solve(low[:, :size], y[:size], "C")
            method = "cholesky"
            d2_formula = 1.0 - float(np.real(np.vdot(v[:size], c)))
        result = _finalize(f, space, exps[:size], sub_spec, c, d2_formula, method)
        rows.append(
            ScanRow(
                n=n,
                basis_size=size,
                distance_squared=result.distance_squared,
                distance=result.distance,
                approximant=result.p if keep_approximants else None,
                method=method,
            )
        )
    return rows


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


def evaluation_bound_certificate(alpha: float, torus_zero: Optional[tuple[complex, complex]] = None) -> float:
    """Unconditional lower bound on every d_n when f vanishes on the torus.

    For alpha > 2 point evaluation at a torus point w is bounded on the
    space with norm constant sqrt(sum_j (j+1)^(1-alpha)) = sqrt(zeta(alpha-1)),
    so |p f - 1|(w) = 1 forces ||p f - 1|| >= 1/sqrt(zeta(alpha-1)).
    """
    if not alpha > 2.0:
        raise DegenerateInputError("the evaluation bound needs alpha > 2")
    if torus_zero is not None:
        w1, w2 = torus_zero
        if abs(abs(complex(w1)) - 1.0) > 1e-9 or abs(abs(complex(w2)) - 1.0) > 1e-9:
            raise DegenerateInputError("certificate point must lie on the unit torus")
    return float(1.0 / np.sqrt(zeta(alpha - 1.0)))


# ---------------------------------------------------------------------------
# decay diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayConfig:
    plateau_floor: float = 1e-3
    fit_tol: float = 5e-2
    drop_ratio: float = 0.5
    # a fitted positive limit is only believed when it accounts for most of
    # the final sequence value; log-slow decays otherwise masquerade as
    # plateaus over finite windows
    plateau_credibility: float = 0.8


@dataclass(frozen=True)
class DecayVerdict:
    label: Literal["decaying", "plateau", "inconclusive"]
    limit_estimate: Optional[float]
    fit_model: str
    fit_params: tuple[float, ...]
    fit_residual: float


def _rel_residual(data: np.ndarray, model_vals: np.ndarray) -> float:
    return float(np.linalg.norm(model_vals - data) / np.linalg.norm(data))


def _fit_log(n: np.ndarray, y: np.ndarray):
    def resid(theta):
        c, c0 = theta
        return c / np.log(n + c0) - y

    try:
        sol = least_squares(resid, x0=[y[0] * np.log(n[0] + 2.0), 2.0], bounds=([0.0, 1.05], [np.inf, 1e6]))
    except Exception:
        return None
    return ("c/log(n+c0)", tuple(sol.x), _rel_residual(y, resid(sol.x) + y))


def _fit_power(n: np.ndarray, y: np.ndarray):
    def resid(theta):
        c, beta = theta
        return c * n ** (-beta) - y

    try:
        sol = least_squares(resid, x0=[y[0], 0.5], bounds=([0.0, 1e-3], [np.inf, 20.0]))
    except Exception:
        return None
    return ("c*n^-beta", tuple(sol.x), _rel_residual(y, resid(sol.x) + y))


def _fit_plateau(n: np.ndarray, y: np.ndarray):
    def resid(theta):
        dinf, c, beta = theta
        return dinf + c * n ** (-beta) - y

    x0 = [max(y[-1] * 0.9, 1e-12), max(y[0] - y[-1], 1e-12), 0.7]
    try:
        sol = least_squares(
            resid, x0=x0, bounds=([0.0, 0.0, 1e-3], [np.inf, np.inf, 20.0])
        )
    except Exception:
        return None
    return ("dinf+c*n^-beta", tuple(sol.x), _rel_residual(y, resid(sol.x) + y))


def decay_diagnostic(ds: Sequence[float], config: DecayConfig = DecayConfig()) -> DecayVerdict:
    """Label a distance-squared sequence by its apparent asymptotics.

    The sequence must be non-increasing (up to 1e-10 slack) with at least 8
    entries.  Two zero-asymptote models and one positive-limit model are
    fitted; the positive limit is reported only when its fit is good and the
    limit is a credible floor for the observed tail.  A sequence that starts
    at zero (a constant f) is decaying with the exact limit 0 and no fit.
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
    fits = [f for f in (_fit_log(n, y), _fit_power(n, y), _fit_plateau(n, y)) if f is not None]
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
            plateau_fit[2] < config.fit_tol
            and dinf > config.plateau_floor
            and dinf >= config.plateau_credibility * last
        ):
            return DecayVerdict("plateau", float(dinf), plateau_fit[0], plateau_fit[1], plateau_fit[2])
    if best_zero is not None and best_zero[2] < config.fit_tol and last < first * config.drop_ratio:
        return DecayVerdict("decaying", 0.0, best_zero[0], best_zero[1], best_zero[2])
    ref = min(fits, key=lambda f: f[2])
    return DecayVerdict("inconclusive", None, ref[0], ref[1], ref[2])
