"""Location of polynomial zeros on the unit torus and in the open bidisk.

Torus classification: the zero set of p on the two-torus is empty, finite,
or infinite.  The decision procedure works with the reflection p~ (same
modulus as p on the torus):

1. monomial factors z1^a z2^b never vanish on the torus and are stripped;
2. a polynomial in one variable only has zeros {rho} x T per circle root,
   so the verdict is Empty or Infinite outright;
3. the set is Empty when |p| at every node of the N x N grid of T^2
   exceeds what p can lose on the way to any torus point: each lies within
   pi/N of a node in both angles, so by the mean-value theorem |p| drops by
   at most (pi/N) sum (k + l)|c_kl| there, and N eps sum |c_kl| covers the
   FFT's rounding;
4. p proportional to p~ signals a curve of torus zeros (Infinite);
5. otherwise every torus zero is a common root of p and p~, so its first
   coordinate is a unit-circle root of Res_z2(p, p~); slicing p there and
   taking unit-circle roots in z2 yields finitely many verified candidates.

The bidisk search covers the closed polydisk of radius r = 1 - delta and
rests on two classical facts.

* A zero in the closed r-polydisk puts one on the face rT x D_r or on the
  slice D_r x {0} (DeCarlo, Strintzis, Murray and Saeks 1977): when no
  fibre p(zeta, .) with |zeta| = r vanishes on the closed disk D_r, the
  number of zeros of p(., z2) inside D_r is the same for every z2 in D_r,
  and it is that of the slice p(., 0).  So the search flags, by the
  Schur-Cohn recursion, the fibres over N ring points that have a zero in
  D_r, and takes the roots of a few flagged fibres and of the slice.  A
  computed root inside the region whose |p| passes RESID_TOL is the only
  witness of "zero_found".
* A zero-free p takes its smallest modulus on the polydisk on the torus
  rT^2 (the minimum modulus principle, once per variable).  So
  "min_modulus" is the least |p| of a Gauss-Newton descent in the two
  angles, started from the smallest values of one FFT of p on the N x N
  grid of rT^2, and of p at the computed roots inside the region.

N, here and in step 3, is ANGLES or, for higher degree, the power of two
at least four times the larger partial degree.  The search works on
p / ||p||, so its tolerance is RESID_TOL itself, and reports moduli in p's
own scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import DegenerateInputError
from .operators import reflect, slice_z1
from .poly import Poly1, Poly2, _horner, _torus_samples, coeff_norm, proportional
from .resultant import resultant_z2_detail
from .rootfind import _significant, roots_on_unit_circle

__all__ = [
    "TorusZeroClass",
    "torus_zeros",
    "BidiskZeroReport",
    "bidisk_zero_search",
]

# Fixed tolerances: a certified verdict ("zero_found", a torus class) rests
# on them, so they are not open to callers.  RESID_TOL, relative to the
# coefficient norm, certifies a zero both on the torus and in the bidisk.
# The circle root tolerances are rootfind's, the reflection test's is poly's.
RESID_TOL = 1e-8

# The bidisk search: the polydisk of radius 1 - DELTA, at least ANGLES
# points per circle, NEWTON_STEPS Gauss-Newton steps on the torus.
DELTA = 1e-3
ANGLES = 256
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


def _strip_monomial(p: Poly2) -> Poly2:
    """Divide out the largest monomial factor z1^a z2^b."""
    c = p.coeffs
    rows = np.nonzero(c.any(axis=1))[0]
    cols = np.nonzero(c.any(axis=0))[0]
    a, b = rows[0], cols[0]
    if a == 0 and b == 0:
        return p
    return Poly2(c[a:, b:])


def _grid_size(m: int, n: int) -> int:
    """Points per circle of the torus grid for bidegree (m, n)."""
    return max(ANGLES, 1 << (4 * max(m, n) - 1).bit_length())


def _torus_bounded_away(core: Poly2) -> bool:
    """Whether one FFT grid of core proves that it has no zero on T^2.

    Every torus point lies within pi/N of a node in both angles, where |p|
    can drop by at most (pi/N) sum (k + l)|c_kl|; the inverse FFT's
    rounding is far below N eps sum |c_kl|.  Works on p / ||p||, so
    neither side can overflow.
    """
    c = core.coeffs / coeff_norm(core)
    m, n = core.bidegree
    size = _grid_size(m, n)
    mod = np.abs(c)
    slope = np.pi / size * np.sum(mod * np.add.outer(np.arange(m + 1), np.arange(n + 1)))
    rounding = size * np.finfo(np.float64).eps * mod.sum()
    return np.abs(_torus_samples(c, size)).min() > slope + rounding


def _univariate_torus(coeffs: Poly1, variable: str) -> TorusZeroClass:
    roots = roots_on_unit_circle(coeffs)
    if not roots:
        return TorusZeroClass("empty")
    return TorusZeroClass(
        "infinite",
        witness="univariate_circle_roots",
        witness_data=(variable, tuple(roots)),
    )


def torus_zeros(p: Poly2) -> TorusZeroClass:
    """Classify the zero set of p on the unit torus.

    An input whose modulus on one FFT grid of the torus proves it
    zero-free there reads "empty" without the resultant.  Raises
    InconclusiveError when the resultant's zero test lands too close to its
    threshold to commit or the resultant is too large to compute, and
    DegenerateInputError for the zero polynomial.
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

    if _torus_bounded_away(core):
        return TorusZeroClass("empty")
    mirror = reflect(core)
    lam = proportional(core, mirror)
    if lam is not None:
        return TorusZeroClass("infinite", witness="proportional_reflection", witness_data=lam)

    detail = resultant_z2_detail(core, mirror)
    if detail.is_zero:
        return TorusZeroClass("infinite", witness="vanishing_resultant")
    res = detail.trimmed()
    scale = coeff_norm(core)
    points: list[tuple[complex, complex]] = []
    for rho in roots_on_unit_circle(res):
        sl = slice_z1(core, rho)
        if np.abs(sl.coeffs).max() <= RESID_TOL * scale:
            return TorusZeroClass(
                "infinite", witness="line_factor", witness_data=("z1", rho)
            )
        for sigma in roots_on_unit_circle(sl):
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
    angles: int = ANGLES


def _disk_flags(f: np.ndarray) -> np.ndarray:
    """Whether each column of f, ascending coefficients down the rows, has a
    zero in the closed unit disk, by the Schur-Cohn recursion on every
    column at once.

    With a and b the end coefficients of f of formal degree d, |a| <= |b|
    puts a zero in the closed disk: f(0) = 0, or the roots' product has
    modulus at most 1.  Otherwise conj(a) f - b f*, with f*(z) =
    z^d conj(f(1/conj z)), has formal degree d - 1 and the same zeros in the
    closed disk (Rouche: |f*| = |f| on the circle).  Each step applies it
    to f / max|f|, which moves no zero and keeps every coefficient below 2.
    """
    hit = np.zeros(f.shape[1], dtype=bool)
    for _ in range(f.shape[0] - 1):
        a, b = f[0], f[-1]
        hit |= np.abs(a) <= np.abs(b)
        s = np.abs(f).max(axis=0)
        s[s == 0] = 1.0
        g = np.conj(f[:0:-1])
        g *= b / s / s
        f = np.multiply(f[:-1], np.conj(a) / s / s)
        f -= g
    return hit


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of the ascending coefficients c.

    Negligible top coefficients are dropped as for circle roots: their
    roots lie far outside the disk.  The small bottom ones stay, since
    their roots lie near 0.  A vanishing c has 0 for its root.
    """
    if not c.any():
        return np.zeros(1, dtype=np.complex128)
    return np.roots(c[_significant(c)[-1] :: -1])


# the damped step sizes 1, 1/2, ..., 2^-19
_DAMPING = 0.5 ** np.arange(20)


def _torus_descent(c: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton on |p| over the torus of radius 1 - DELTA, in the
    angles theta (starts x 2) of every start at once.  Returns |p| at the
    final points.

    A step solves the 2 x 2 real least-squares problem of p's linearisation
    in the two angles and moves a start by the first damped step that
    lowers |p|; p and its angle gradient come from one stacked Horner.  A
    start stops when its gradient vanishes (its square underflows) or no
    damping lowers |p|.
    """
    m, n = c.shape[0] - 1, c.shape[1] - 1
    p = Poly2(c)
    stack = np.stack([c, p.derivative(1).padded(m, n), p.derivative(2).padded(m, n)])
    rmax = 1.0 - DELTA

    def at(angles):
        z = rmax * np.exp(1j * angles)
        val, d1, d2 = _horner(stack, z[..., 0], z[..., 1])
        return val, np.stack([1j * z[..., 0] * d1, 1j * z[..., 1] * d2], axis=-1)

    val, grad = at(theta)
    live = np.ones(len(theta), dtype=bool)
    for _ in range(NEWTON_STEPS):
        live &= np.abs(grad).max(axis=1) > 1e-150
        i = np.flatnonzero(live)
        if i.size == 0:
            break
        jac = np.stack([grad[i].real, grad[i].imag], axis=-2)
        res = np.stack([val[i].real, val[i].imag], axis=-1)
        step = (np.linalg.pinv(jac) @ res[:, :, None])[:, :, 0]
        trial = theta[i, None] - _DAMPING[:, None] * step[:, None]
        tv, tg = at(trial)
        lower = np.abs(tv) < np.abs(val[i])[:, None]
        moved = lower.any(axis=1)
        live[i[~moved]] = False
        first = lower.argmax(axis=1)[moved]
        i = i[moved]
        theta[i], val[i], grad[i] = trial[moved, first], tv[moved, first], tg[moved, first]
    return np.abs(val)


def bidisk_zero_search(p: Poly2) -> BidiskZeroReport:
    """Zero search on the closed polydisk of radius 1 - delta.

    "zero_found" is certified: a computed root of a boundary fibre or of
    the slice p(., 0), inside the region, where |p| is at most RESID_TOL
    times the coefficient norm.  "none_found_heuristic" reports the
    smallest modulus seen and is not a proof of nonvanishing.
    """
    if p.is_zero:
        raise DegenerateInputError("the zero polynomial vanishes everywhere")
    rmax = 1.0 - DELTA
    scale = coeff_norm(p)
    c = p.coeffs / scale
    m, n = p.bidegree
    size = _grid_size(m, n)
    # p(r z1, r z2): its fibres over the roots of unity are p's over the
    # ring rT, rescaled to the unit disk, and its torus values are p's on rT^2
    shrunk = c * rmax ** np.add.outer(np.arange(m + 1), np.arange(n + 1))

    # fibre j, column j, is p(rmax w^j, rmax z2) for w = exp(2 pi i / size)
    fibres = np.fft.ifft(shrunk.T, n=size, norm="forward")
    flagged = np.flatnonzero(_disk_flags(fibres))
    step = max(1, -(-flagged.size // 8))
    roots = _roots(c[:, 0])
    z1, z2 = [roots], [np.zeros_like(roots)]
    for j in flagged[step // 2 :: step]:
        roots = rmax * _roots(fibres[:, j])
        # complex even where np.roots returns a real array (a monomial fibre)
        z1.append(np.full(roots.shape, rmax * np.exp(2j * np.pi * j / size)))
        z2.append(roots)
    z1, z2 = np.concatenate(z1), np.concatenate(z2)
    inside = (np.abs(z1) <= rmax + 1e-12) & (np.abs(z2) <= rmax + 1e-12)
    z1, z2 = z1[inside], z2[inside]
    vals = np.abs(_horner(c, z1, z2))
    if vals.size and vals.min() <= RESID_TOL:
        w = vals.argmin()
        return BidiskZeroReport("zero_found", (complex(z1[w]), complex(z2[w])), float(vals[w] * scale), size)

    # the torus values: the fibres' z2 transform, back in (z1, z2) order
    grid = np.abs(np.fft.ifft(fibres, n=size, axis=0, norm="forward").T).ravel()
    starts = np.argpartition(grid, 7)[:8]
    theta = 2.0 * np.pi * np.stack([starts // size, starts % size], axis=-1) / size
    best = min(_torus_descent(c, theta).min(), vals.min(initial=np.inf))
    return BidiskZeroReport("none_found_heuristic", None, float(best * scale), size)
