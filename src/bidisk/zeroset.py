"""Location of polynomial zeros on the unit torus and in the open bidisk.

Torus classification: the zero set of p on the two-torus is empty, finite,
or infinite.  The decision procedure works with the reflection p~ (same
modulus as p on the torus):

1. monomial factors z1^a z2^b never vanish on the torus and are stripped;
2. a polynomial in one variable only has zeros {rho} x T per circle root,
   so the verdict is Empty or Infinite outright;
3. p proportional to p~ signals a curve of torus zeros (Infinite);
4. otherwise every torus zero is a common root of p and p~, so its first
   coordinate is a unit-circle root of Res_z2(p, p~); slicing p there and
   taking unit-circle roots in z2 yields finitely many verified candidates.

The bidisk search is an honest heuristic: a coarse-to-fine polar grid over
the closed polydisk of radius 1-delta followed by damped Gauss-Newton on
the modulus.  It reports either a certified zero (residual below tolerance,
point inside the search region) or the smallest modulus seen.

The coarse grid is one matrix product per 64-row chunk: the Vandermonde
matrix of the z1 points times the q_k(z2) of p = sum_k z1^k q_k(z2).  BLAS
sums those products in its own order, so grid values match Horner's only to
roundoff, and near-ties can rank differently.  Candidates are ordered by
(value, grid index), so equal values go to the lower index on every run.

The refinement advances its starts (at most 8) together.  Each zoom
evaluates the cloud products of every start in one call, and each
Gauss-Newton step evaluates all 20 damped trials z - 2^-j step of every
live start in one call and takes the first that lowers |p|: where a
one-trial-at-a-time halving would stop, since each 2^-j is exact.  That
call is one stacked Horner of p and its gradient, so the accepted trial's
gradient is the next step's, with the bits of separate evaluations.  The
moduli in that loop are libm's hypot, the bits of Python's abs: numpy's
array abs differs from it in the last bit for about a third of values, and
those bits decide the comparisons that pick each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .approximant import _one_blas_thread
from .errors import DegenerateInputError, InconclusiveError
from .operators import reflect, slice_z1
from .poly import Poly1, Poly2, _horner, _z1_coeffs, coeff_norm, proportional
from .resultant import INCONCLUSIVE_BAND, resultant_z2_detail
from .rootfind import roots_on_unit_circle

__all__ = [
    "TorusZeroClass",
    "torus_zeros",
    "BidiskZeroReport",
    "bidisk_zero_search",
]

# Fixed tolerances: a certified verdict ("zero_found", a torus class) rests
# on them, so they are not open to callers.  RESID_TOL, relative to the
# coefficient norm, certifies a zero both on the torus and in the bidisk.
CIRCLE_TOL = 1e-6
CLUSTER_TOL = 1e-5
PROPORTIONAL_TOL = 1e-8
RESID_TOL = 1e-8

# The bidisk search: polar grids over the polydisk of radius 1 - DELTA, the
# coarse one searched as its own product, then zoom and Gauss-Newton from
# the best REFINE_TOP points.
DELTA = 1e-3
RADII = 64
ANGLES = 256
COARSE_RADII = 16
COARSE_ANGLES = 64
REFINE_TOP = 48
NEWTON_STEPS = 60


@dataclass(frozen=True)
class TorusZeroClass:
    """Classification of Z(p) on the unit torus.

    kind "finite" carries the points; kind "infinite" carries a witness for
    why the set is infinite:

    * proportional_reflection: p~ = lambda p, so |p| vanishes on a curve
      (data: lambda);
    * vanishing_resultant: p and p~ share a z2-involving factor
      (Bezout: two curves with infinitely many common points share one);
    * univariate_circle_roots: p depends on one variable with roots on the
      circle, each giving a line of torus zeros (data: the roots);
    * line_factor: a slice of p at a circle root vanished identically, so
      p contains the line z_i = rho (data: rho).
    """

    kind: Literal["empty", "finite", "infinite"]
    points: tuple[tuple[complex, complex], ...] = ()
    witness: Optional[str] = None
    witness_data: Optional[object] = None

    def to_json_dict(self) -> dict:
        if self.kind == "empty":
            return {"torus": "empty"}
        if self.kind == "finite":
            return {
                "torus": "finite",
                "points": [[z1.real, z1.imag, z2.real, z2.imag] for z1, z2 in self.points],
            }
        out = {"torus": "infinite", "witness": self.witness}
        if self.witness == "proportional_reflection":
            lam = complex(self.witness_data)
            out["lambda"] = [lam.real, lam.imag]
        elif self.witness == "univariate_circle_roots":
            variable, roots = self.witness_data
            out["variable"] = variable
            out["roots"] = [[r.real, r.imag] for r in roots]
        elif self.witness == "line_factor":
            variable, value = self.witness_data
            out["variable"] = variable
            out["value"] = [value.real, value.imag]
        return out


def _strip_monomial(p: Poly2) -> Poly2:
    """Divide out the largest monomial factor z1^a z2^b."""
    c = p.coeffs
    rows = np.nonzero(c.any(axis=1))[0]
    cols = np.nonzero(c.any(axis=0))[0]
    a, b = rows[0], cols[0]
    if a == 0 and b == 0:
        return p
    return Poly2(c[a:, b:])


def _univariate_torus(coeffs: Poly1, variable: str) -> TorusZeroClass:
    roots = roots_on_unit_circle(coeffs, circle_tol=CIRCLE_TOL, cluster_tol=CLUSTER_TOL)
    if not roots:
        return TorusZeroClass("empty")
    return TorusZeroClass(
        "infinite",
        witness="univariate_circle_roots",
        witness_data=(variable, tuple(roots)),
    )


def torus_zeros(p: Poly2) -> TorusZeroClass:
    """Classify the zero set of p on the unit torus.

    Raises InconclusiveError when the resultant's zero test lands too close
    to its threshold to commit, and DegenerateInputError for constant p.
    """
    if p.is_zero:
        raise DegenerateInputError("the zero polynomial vanishes everywhere")
    core = _strip_monomial(p)
    m, n = core.bidegree
    if m == 0 and n == 0:
        # a pure monomial times a constant never vanishes on the torus
        return TorusZeroClass("empty")
    if n == 0:
        return _univariate_torus(Poly1(core.coeffs[:, 0]), "z1")
    if m == 0:
        return _univariate_torus(Poly1(core.coeffs[0, :]), "z2")

    mirror = reflect(core)
    lam = proportional(core, mirror, PROPORTIONAL_TOL)
    if lam is not None:
        return TorusZeroClass("infinite", witness="proportional_reflection", witness_data=lam)

    detail = resultant_z2_detail(core, mirror)
    if detail.is_zero:
        return TorusZeroClass("infinite", witness="vanishing_resultant")
    if detail.near_threshold:
        raise InconclusiveError(
            "torus classification refused: resultant within "
            f"{INCONCLUSIVE_BAND:.0f}x of its zero threshold"
        )
    res = detail.trimmed()
    scale = coeff_norm(core)
    points: list[tuple[complex, complex]] = []
    for rho in roots_on_unit_circle(res, circle_tol=CIRCLE_TOL, cluster_tol=CLUSTER_TOL):
        sl = slice_z1(core, rho)
        if np.abs(sl.coeffs).max() <= RESID_TOL * scale:
            return TorusZeroClass(
                "infinite", witness="line_factor", witness_data=("z1", rho)
            )
        for sigma in roots_on_unit_circle(sl, circle_tol=CIRCLE_TOL, cluster_tol=CLUSTER_TOL):
            if abs(core.evaluate(rho, sigma)) <= RESID_TOL * scale:
                points.append((rho, sigma))
    if not points:
        return TorusZeroClass("empty")
    points.sort(key=lambda zz: (np.angle(zz[0]) % (2.0 * np.pi), np.angle(zz[1]) % (2.0 * np.pi)))
    return TorusZeroClass("finite", points=tuple(points))


# ---------------------------------------------------------------------------
# bidisk search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidiskZeroReport:
    kind: Literal["zero_found", "none_found_heuristic"]
    point: Optional[tuple[complex, complex]]
    min_modulus: float

    def to_json_dict(self) -> dict:
        if self.kind == "zero_found":
            z1, z2 = self.point
            return {
                "bidisk": "zero_found",
                "point": [z1.real, z1.imag, z2.real, z2.imag],
                "modulus": self.min_modulus,
            }
        return {
            "bidisk": "none_found_heuristic",
            "min_modulus": self.min_modulus,
            "grid": {
                "delta": DELTA,
                "radii": RADII,
                "angles": ANGLES,
                "coarse_radii": COARSE_RADII,
                "coarse_angles": COARSE_ANGLES,
            },
        }


def _polar_points(rmax: float, nr: int, na: int) -> np.ndarray:
    radii = np.linspace(0.0, rmax, nr)
    angles = np.linspace(0.0, 2.0 * np.pi, na, endpoint=False)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _topk_product(p: Poly2, pts1: np.ndarray, pts2: np.ndarray, k: int, chunk: int = 64):
    """The k smallest |p| values over the product grid pts1 x pts2, as a
    list of (value, z1, z2) sorted by value, ties by grid index (pts1 major).

    One matrix product per ``chunk`` points of pts1 into a reused buffer,
    and each chunk keeps every value at or below its own k-th smallest.
    """
    rows = _z1_coeffs(p.coeffs, pts2)
    vander = np.vander(pts1, rows.shape[0], increasing=True)
    n2 = pts2.size
    grid = np.empty((min(chunk, pts1.size), n2), dtype=np.complex128)
    mods = np.empty(grid.shape)
    vals, index = [], []
    with _one_blas_thread("numpy"):
        for start in range(0, pts1.size, chunk):
            block = vander[start : start + chunk]
            mod = np.abs(np.matmul(block, rows, out=grid[: len(block)]), out=mods[: len(block)]).ravel()
            take = min(k, mod.size)
            sel = np.flatnonzero(mod <= np.partition(mod, take - 1)[take - 1])
            vals.append(mod[sel])
            index.append(sel + start * n2)
    vals, index = np.concatenate(vals), np.concatenate(index)
    order = np.lexsort((index, vals))[:k]
    return [(float(v), complex(pts1[b // n2]), complex(pts2[b % n2])) for v, b in zip(vals[order], index[order])]


def _distinct_candidates(tops, min_sep: float, limit: int):
    """Thin a value-sorted candidate list to representatives of separate basins."""
    kept = []
    for val, z1, z2 in tops:
        if any(abs(z1 - a) < min_sep and abs(z2 - b) < min_sep for _, a, b in kept):
            continue
        kept.append((val, z1, z2))
        if len(kept) >= limit:
            break
    return kept


def _local_cloud(centre: complex, rstep: float, astep: float, rmax: float) -> np.ndarray:
    """Small polar neighbourhood of a point, clipped to radius rmax."""
    r0 = abs(centre)
    a0 = np.angle(centre)
    rs = np.clip(np.linspace(r0 - rstep, r0 + rstep, 7), 0.0, rmax)
    as_ = np.linspace(a0 - astep, a0 + astep, 9)
    return (rs[:, None] * np.exp(1j * as_)[None, :]).ravel()


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as libm's hypot, the bits of Python's scalar abs."""
    return np.hypot(z.real, z.imag)


def _zoom(p: Poly2, z1c: np.ndarray, z2c: np.ndarray, rstep: float, astep: float, rmax: float):
    """One zoom of every start: the product of the polar clouds around z1c[i]
    and z2c[i], all starts in one evaluation.

    Returns the best point of each product and |p| there.
    """
    cloud1 = np.array([_local_cloud(complex(z), rstep, astep, rmax) for z in z1c])
    cloud2 = np.array([_local_cloud(complex(z), rstep, astep, rmax) for z in z2c])
    vals = np.abs(p.evaluate(cloud1[:, :, None], cloud2[:, None, :])).reshape(len(z1c), -1)
    pick = np.argpartition(vals, 0, axis=1)[:, 0]
    starts = np.arange(len(z1c))
    n2 = cloud2.shape[1]
    return cloud1[starts, pick // n2], cloud2[starts, pick % n2], vals[starts, pick]


def _clip(z: np.ndarray, rmax: float) -> np.ndarray:
    """z with every point outside radius rmax pulled radially onto it."""
    r = _modulus(z)
    out = ~(r <= rmax)
    z[out] *= rmax / r[out]
    return z


# the damped step sizes 1, 1/2, ..., 2^-19, each an exact power of two
_DAMPING = 0.5 ** np.arange(20)


def _gauss_newton(p: Poly2, z1: np.ndarray, z2: np.ndarray, rmax: float):
    """Damped Gauss-Newton on |p| from every start (z1[i], z2[i]) at once.

    A step moves a start by the first damped Gauss-Newton step that lowers
    |p|, and the value and gradient there are the next step's: p, d1 p and
    d2 p come from one stacked Horner, the derivative grids zero-padded to
    p's shape.  A start stops when p vanishes, when its gradient does, or
    when no damping lowers |p|.  Returns the final points and |p| there.
    """
    m, n = p.bidegree
    stack = np.stack([p.coeffs, p.derivative(1).padded(m, n), p.derivative(2).padded(m, n)])
    z1, z2 = z1.copy(), z2.copy()
    out = _horner(stack, z1, z2)
    val, grad = out[0], out[1:].T.copy()
    live = np.ones(val.shape, dtype=bool)
    for _ in range(NEWTON_STEPS):
        live &= val != 0
        i = np.flatnonzero(live)
        if i.size == 0:
            break
        g = grad[i]
        # one vdot per start: a batched sum of squares rounds differently
        g2 = np.array([np.real(np.vdot(row, row)) for row in g])
        flat = g2 < 1e-300
        live[i[flat]] = False
        i, g, g2 = i[~flat], g[~flat], g2[~flat]
        # part by part: numpy's complex-by-real division is not Python's
        q = val[i]
        q.real /= g2
        q.imag /= g2
        step = np.conj(g) * q[:, None]
        t1 = _clip(z1[i, None] - _DAMPING * step[:, :1], rmax)
        t2 = _clip(z2[i, None] - _DAMPING * step[:, 1:], rmax)
        tv = _horner(stack, t1, t2)
        lower = _modulus(tv[0]) < _modulus(val[i])[:, None]
        moved = lower.any(axis=1)
        live[i[~moved]] = False
        first = lower.argmax(axis=1)[moved]
        i = i[moved]
        z1[i] = t1[moved, first]
        z2[i] = t2[moved, first]
        val[i] = tv[0, moved, first]
        grad[i] = tv[1:, moved, first].T
    return z1, z2, _modulus(val)


def bidisk_zero_search(p: Poly2) -> BidiskZeroReport:
    """Heuristic zero search on the closed polydisk of radius 1 - delta.

    "zero_found" is certified (modulus below RESID_TOL times the coefficient
    norm at a point inside the region); "none_found_heuristic" only reports
    the smallest modulus encountered and is not a proof of nonvanishing.
    """
    if p.is_zero:
        raise DegenerateInputError("the zero polynomial vanishes everywhere")
    rmax = 1.0 - DELTA
    tol = RESID_TOL * coeff_norm(p)

    coarse = _polar_points(rmax, COARSE_RADII, COARSE_ANGLES)
    rstep = rmax / (COARSE_RADII - 1)
    astep = 2.0 * np.pi / COARSE_ANGLES
    fine_r = rmax / (RADII - 1)
    fine_a = 2.0 * np.pi / ANGLES

    tops = _topk_product(p, coarse, coarse, REFINE_TOP)
    starts = _distinct_candidates(tops, min_sep=2.5 * rstep, limit=8)

    z1 = np.array([z1c for _, z1c, _ in starts])
    z2 = np.array([z2c for _, _, z2c in starts])
    z1, z2, _ = _zoom(p, z1, z2, rstep, astep, rmax)
    z1, z2, zoomed = _zoom(p, z1, z2, fine_r, fine_a, rmax)
    n1, n2, newton = _gauss_newton(p, z1, z2, rmax)

    best = tops[0][0]
    best_pt = (tops[0][1], tops[0][2])
    for i in range(len(starts)):
        val, pt = float(zoomed[i]), (z1[i], z2[i])
        if newton[i] < val:
            val, pt = float(newton[i]), (n1[i], n2[i])
        if val < best:
            best, best_pt = val, pt

    z1b, z2b = best_pt
    if best <= tol and abs(z1b) <= rmax + 1e-12 and abs(z2b) <= rmax + 1e-12:
        return BidiskZeroReport("zero_found", (complex(z1b), complex(z2b)), best)
    return BidiskZeroReport("none_found_heuristic", None, best)
