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
4. p~ = lambda p, read off at p's largest coefficient and accepted within
   2 (m + n + 4) eps of the larger coefficient, signals a curve (Infinite);
5. p and p~ share a factor involving z2 exactly when Res_z2(p, p~) vanishes,
   that is when their Sylvester matrix in z2 is singular at every z1: at
   every node below its smallest singular value is within 2 (max(m1, m2) +
   n1 + n2 + 2) eps of its largest, a test no scaling of p moves.  That
   signals a curve (Infinite) unless step 3's grid with a second-order
   Taylor bound proves the set Empty;
6. otherwise every torus zero is a common root of p and p~, so its first
   coordinate rho is a circle root of the resultant.  A Gauss-Newton
   descent on T^2 from rho and each root cluster of the slice p(rho, .)
   ends at a zero when |p| there is within the rounding of evaluating it,
   2 (m + n + 2) eps sum |c_kl| for ||p|| = 1; it is a zero already kept
   when |p| at their angular midpoint is within that bound too.

   The resultant is interpolated from Sylvester determinants (LAPACK LU) at
   the (D+1)-th roots of unity, D the bound on its degree, by a discrete
   Fourier transform.  Inputs whose Sylvester matrices would take more than
   STACK_BYTES are refused (InconclusiveError); determinants that all over-
   or underflow the double range raise NumericalError.  Roots come from
   ``np.roots``: a circle root is a cluster of their overlapping Carstensen
   inclusion discs that meets T, at its mean projected onto T, so a
   multiple root, typical of these resultants, counts once.

The bidisk search covers the closed polydisk of radius r = 1 - delta and
rests on two classical facts.

* A zero in the closed r-polydisk puts one on the face rT x D_r or on the
  slice D_r x {0} (DeCarlo, Strintzis, Murray and Saeks 1977): when no
  fibre p(zeta, .) with |zeta| = r vanishes on the closed disk D_r, the
  number of zeros of p(., z2) inside D_r is the same for every z2 in D_r,
  and it is that of the slice p(., 0).  So the search flags, by the
  Schur-Cohn recursion, the fibres over N ring points that have a zero in
  D_r, and takes the roots of a few flagged fibres and of both axis
  slices p(., 0) and p(0, .).  A computed root inside the region whose |p|
  passes RESID_TOL witnesses "zero_found", and so does an axis root
  cluster beyond r whose inclusion discs lie in the open unit disk.
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

from .errors import DegenerateInputError, InconclusiveError, NumericalError
from .operators import reflect, slice_z1
from .poly import Poly1, Poly2, _horner, _horner1, _torus_samples, coeff_norm

__all__ = [
    "TorusZeroClass",
    "torus_zeros",
    "BidiskZeroReport",
    "bidisk_zero_search",
    "proportional",
    "resultant_z2",
    "resultant_z2_detail",
    "ResultantDetail",
    "roots_on_unit_circle",
]

# Fixed tolerances and budgets: a certified verdict ("zero_found", a torus
# class) rests on them, so they are not open to callers.  Residuals are
# relative to the coefficient norm.  A resultant that is not zero has its
# coefficients at most 1e-10 times its largest trimmed to 0; whether p and
# p~ are proportional or share a factor is decided at rounding level.
RESID_TOL = 1e-8  # |p| at a certified bidisk zero; a smaller slice is a line factor
STACK_BYTES = 1 << 29  # a resultant whose Sylvester matrices take more is refused

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

    * proportional_reflection: p~ = lambda p (data: lambda);
    * vanishing_resultant: p and p~ share a z2-involving factor that the
      torus grid cannot prove zero-free there;
    * univariate_circle_roots: p depends on one variable with roots on the
      circle, each giving a line of torus zeros (data: the roots);
    * line_factor: a slice of p at a circle root vanished identically, so
      p contains the line z_i = rho (data: rho).

    The first two prove a curve of torus zeros only when p has no zeros in
    the open bidisk: a shared factor such as (z1 z2 - 2)(1 - 2 z1 z2) misses
    the torus.
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
    size = _grid_size(*core.bidegree)
    k, l = np.ogrid[: c.shape[0], : c.shape[1]]
    mod = np.abs(c)
    slope = np.pi / size * np.sum(mod * (k + l))
    rounding = size * np.finfo(np.float64).eps * mod.sum()
    return np.abs(_torus_samples(c, size)).min() > slope + rounding


def _torus_bounded_away_to_second_order(core: Poly2) -> bool:
    """Whether the grid of _torus_bounded_away and the angle derivatives p_1,
    p_2 at its nodes prove that core has no zero on T^2: within pi/N of a
    node |p| drops by at most (pi/N)(|p_1| + |p_2|) + (pi/N)^2 / 2 sum
    (k + l)^2 |c_kl| (Taylor), and N eps sum (1 + k + l)|c_kl| covers the
    three FFTs' rounding."""
    c = core.coeffs / coeff_norm(core)
    size = _grid_size(*core.bidegree)
    k, l = np.ogrid[: c.shape[0], : c.shape[1]]
    h, mod = np.pi / size, np.abs(c)
    val, d1, d2 = (np.abs(_torus_samples(a, size)) for a in (c, k * c, l * c))
    curvature = h * h / 2 * np.sum(mod * (k + l) ** 2)
    rounding = size * np.finfo(np.float64).eps * np.sum(mod * (1 + k + l))
    return (val - h * (d1 + d2)).min() > curvature + rounding


def proportional(p: Poly2, q: Poly2) -> Optional[complex]:
    """Return lambda with q = lambda * p, within rounding, else None.

    The scale is read off at p's largest coefficient; the match is accepted
    when the worst deviation of q - lambda*p stays within 2 (m + n + 4) eps
    of the larger coefficient of the two sides, p of bidegree (m, n).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("proportionality test requires nonzero polynomials")
    if p.bidegree != q.bidegree:
        return None
    a, b = p.coeffs, q.coeffs
    anchor = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    lam = b[anchor] / a[anchor]
    scale = max(float(np.abs(b).max()), abs(lam) * float(np.abs(a).max()))
    if float(np.abs(b - lam * a).max()) <= 2 * (sum(p.bidegree) + 4) * np.finfo(np.float64).eps * scale:
        return complex(lam)
    return None


@dataclass(frozen=True)
class ResultantDetail:
    """Raw interpolation output and whether the inputs share a factor."""

    coeffs: np.ndarray  # ascending in z1, untrimmed
    is_zero: bool  # every node's Sylvester matrix is singular to rounding

    def trimmed(self) -> Poly1:
        """The resultant, its coefficients at most 1e-10 times the largest zeroed."""
        c = self.coeffs.copy()
        c[np.abs(c) <= 1e-10 * np.abs(c).max()] = 0.0
        return Poly1(c)


def _sylvester_stack(pvals: np.ndarray, qvals: np.ndarray) -> np.ndarray:
    """Stack of Sylvester matrices, one per evaluation node.

    pvals, qvals: (nodes, n1+1) and (nodes, n2+1) slice coefficients in z2,
    ascending.  Rows hold descending coefficients in the classical layout:
    n2 rows of p, then n1 rows of q.
    """
    n1, n2 = pvals.shape[1] - 1, qvals.shape[1] - 1
    s = np.zeros((pvals.shape[0], n1 + n2, n1 + n2), dtype=np.complex128)
    for r in range(n2):
        s[:, r, r : r + n1 + 1] = pvals[:, ::-1]
    for r in range(n1):
        s[:, n2 + r, r : r + n2 + 1] = qvals[:, ::-1]
    return s


def resultant_z2_detail(p: Poly2, q: Poly2) -> ResultantDetail:
    """Res_{z2}(p, q) by interpolation, untrimmed, with its zero test: a
    shared z2-involving factor when every node's Sylvester matrix has its
    smallest singular value within 2 (max(m1, m2) + n1 + n2 + 2) eps of its
    largest, taken 8 nodes at a time up to the first nonsingular block.
    Raises InconclusiveError past STACK_BYTES, and NumericalError when no
    factor is shared but the determinants over- or underflow.
    """
    m1, n1 = p.bidegree
    m2, n2 = q.bidegree
    if n1 == 0 or n2 == 0:
        raise DegenerateInputError("resultant in z2 needs both inputs to involve z2")
    nodes = m1 * n2 + m2 * n1 + 1
    need = nodes * (n1 + n2) ** 2 * np.dtype(np.complex128).itemsize
    if need > STACK_BYTES:
        raise InconclusiveError(
            f"resultant refused: its {nodes} Sylvester matrices of size {n1 + n2} "
            f"take {need / 2**30:.3g} GiB, above the {STACK_BYTES / 2**30:g} GiB budget"
        )
    omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    # z2-slice coefficients at each node: node x (n+1) arrays
    pvals = np.power(omega[:, None], np.arange(m1 + 1)[None, :]) @ p.coeffs
    qvals = np.power(omega[:, None], np.arange(m2 + 1)[None, :]) @ q.coeffs
    stack = _sylvester_stack(pvals, qvals)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(stack)
        coeffs = np.fft.fft(dets) / nodes
    tol = 2 * (max(m1, m2) + n1 + n2 + 2) * np.finfo(np.float64).eps
    blocks = (np.linalg.svd(stack[k : k + 8], compute_uv=False) for k in range(0, nodes, 8))
    is_zero = np.isfinite(stack).all() and all((sv[:, -1] <= tol * sv[:, 0]).all() for sv in blocks)
    finite = np.isfinite(coeffs).all()
    if not is_zero and not (finite and coeffs.any()):
        raise NumericalError(
            f"resultant {'underflows' if finite else 'overflows'} the double range: its {nodes} "
            f"Sylvester determinants of size {n1 + n2} are {'all 0' if finite else 'not all finite'}"
        )
    return ResultantDetail(coeffs=coeffs, is_zero=is_zero)


def resultant_z2(p: Poly2, q: Poly2) -> Poly1:
    """Res_{z2}(p, q) as a polynomial in z1.

    Returns the zero polynomial when the inputs share a z2-involving factor;
    refuses as resultant_z2_detail does.
    """
    detail = resultant_z2_detail(p, q)
    if detail.is_zero:
        return Poly1.zero()
    return detail.trimmed()


def _significant(c: np.ndarray) -> np.ndarray:
    """Indices of the coefficients c_k with |c_k| > eps * max|c|."""
    mags = np.abs(c)
    return np.nonzero(mags > np.finfo(np.float64).eps * mags.max())[0]


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of the ascending coefficients c, negligible top ones dropped
    (their roots lie far out), but not bottom ones (their roots lie near 0).
    A vanishing c has 0 for its root.
    """
    if not c.any():
        return np.zeros(1, dtype=np.complex128)
    return np.roots(c[_significant(c)[-1] :: -1])


def _clusters(c: np.ndarray) -> list[tuple[complex, np.ndarray, np.ndarray]]:
    """Groups of the roots of the ascending coefficients c, its negligible
    ends (at most eps * max|c|) dropped: each group's mean of the np.roots
    estimates, and its disc centres and radii.

    Estimate z_i of a root of degree d gets radius d |W_i|, with Weierstrass
    correction W_i = c(z_i) / (lc prod_{j != i} (z_i - z_j)) and |c(z_i)|
    widened by Horner's rounding bound 2 d eps sum |c_k| |z_i|^k.  For
    distinct z_i, a connected union of k discs that misses the others holds
    exactly k roots (Carstensen, Numer. Math. 1991); the groups are those
    unions.  np.roots may return a k-fold root as k estimates far closer
    than rounding splits it, so each group of k is spread over the circle
    on which k roots leave its residual, for the discs.  Beyond the unit
    circle c is evaluated reversed at 1 / z_i, in logarithms.
    """
    keep = _significant(c)
    c = c[keep[0] : keep[-1] + 1]
    d = c.size - 1

    def discs(z):  # the discs of the estimates z, and their groups
        out = np.abs(z) > 1.0
        w = np.where(out, 1.0 / np.where(out, z, 1.0), z)
        a = np.where(out[:, None], c[::-1], c).T
        r = np.abs(_horner1(a, w)) + 2 * d * np.finfo(np.float64).eps * _horner1(np.abs(a), np.abs(w)).real
        log_r = np.log(r) + d * np.log(np.maximum(np.abs(z), 1.0)) - np.log(np.abs(c[-1]))
        gap = np.abs(np.subtract.outer(z, z))
        radii = d * np.exp(log_r - np.log(gap + np.eye(d)).sum(axis=1))
        label, touch = np.arange(d), gap <= np.add.outer(radii, radii)
        while (label != (label := np.where(touch, label, d).min(axis=1, initial=d))).any():
            pass
        return log_r, gap, radii, label[:, None] == label

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = centres = np.roots(c[::-1])
        log_r, gap, radii, same = discs(z)
        k = same.sum(axis=1)
        if (k > 1).any():
            log_s = (log_r - np.log(np.where(same, 1.0, gap)).sum(axis=1)) / k
            turn = np.exp(log_s + 2j * np.pi * np.tril(same, -1).sum(axis=1) / k)
            centres = np.where(k > 1, same @ z / k + turn, z)
            log_r, gap, radii, same = discs(centres)
    return [(z[g].mean(), centres[g], radii[g]) for g in np.unique(same, axis=0)]


def roots_on_unit_circle(r: Poly1) -> list[complex]:
    """The root clusters of r whose inclusion discs meet the unit circle, as
    their means projected onto it, sorted by angle; a constant has none."""
    if r.is_zero:
        raise DegenerateInputError("root finding needs a nonzero polynomial")
    means = [complex(m / abs(m)) for m, z, rad in _clusters(r.coeffs) if (np.abs(np.abs(z) - 1) <= rad).any()]
    return sorted(means, key=lambda v: np.angle(v) % (2.0 * np.pi))


def torus_zeros(p: Poly2) -> TorusZeroClass:
    """Classify the zero set of p on the unit torus.

    An input whose modulus on one FFT grid of the torus proves it
    zero-free there reads "empty" without the resultant.  A tangent torus
    point, where |p| grows like the squared distance, is located to about
    sqrt(eps): the descent stops there.  Raises InconclusiveError when the
    resultant is too large to compute, NumericalError when it over- or
    underflows, and DegenerateInputError for the zero polynomial.
    """
    if p.is_zero:
        raise DegenerateInputError("the zero polynomial vanishes everywhere")
    core = _strip_monomial(p)
    m, n = core.bidegree
    if m == 0 or n == 0:  # a constant has no circle roots
        variable, coeffs = ("z1", core.coeffs[:, 0]) if n == 0 else ("z2", core.coeffs[0, :])
        roots = tuple(roots_on_unit_circle(Poly1(coeffs)))
        if not roots:
            return TorusZeroClass("empty")
        return TorusZeroClass("infinite", witness="univariate_circle_roots", witness_data=(variable, roots))

    if _torus_bounded_away(core):
        return TorusZeroClass("empty")
    mirror = reflect(core)
    lam = proportional(core, mirror)
    if lam is not None:
        return TorusZeroClass("infinite", witness="proportional_reflection", witness_data=lam)

    detail = resultant_z2_detail(core, mirror)
    if detail.is_zero:
        bounded = _torus_bounded_away_to_second_order(core)
        return TorusZeroClass("empty") if bounded else TorusZeroClass("infinite", witness="vanishing_resultant")
    scale = coeff_norm(core)
    starts = []
    for rho in roots_on_unit_circle(detail.trimmed()):
        sl = slice_z1(core, rho)
        if np.abs(sl.coeffs).max() <= RESID_TOL * scale:
            return TorusZeroClass("infinite", witness="line_factor", witness_data=("z1", rho))
        starts += [(rho, mean) for mean, _, _ in _clusters(sl.coeffs)]
    c = core.coeffs / scale
    bound = 2 * sum(c.shape) * np.finfo(np.float64).eps * np.abs(c).sum()
    theta = np.angle(np.array(starts, dtype=np.complex128).reshape(-1, 2))
    end = _torus_descent(c, theta, 1.0)
    points: list[np.ndarray] = []
    for z, v in zip(np.exp(1j * theta), end):
        mids = [k * np.exp(0.5j * np.angle(z * np.conj(k))) for k in points]
        if v <= bound and not any(abs(_horner(c, *h)) <= bound for h in mids):
            points.append(z)
    if not points:
        return TorusZeroClass("empty")
    points.sort(key=lambda zz: tuple(np.angle(zz) % (2.0 * np.pi)))
    return TorusZeroClass("finite", points=tuple((complex(a), complex(b)) for a, b in points))


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


# the damped step sizes 1, 1/2, ..., 2^-19
_DAMPING = 0.5 ** np.arange(20)


def _torus_descent(c: np.ndarray, theta: np.ndarray, radius: float) -> np.ndarray:
    """Damped Gauss-Newton on |p| over the torus of the given radius, in the
    angles theta (starts x 2) of every start at once, which it moves to the
    final points.  Returns |p| there.

    A step solves the 2 x 2 real least-squares problem of p's linearisation
    in the two angles and moves a start by the first damped step that
    lowers |p|, tried on p alone; p and its angle gradient at the new point
    come from one stacked Horner.  A start stops when its gradient vanishes
    (its square underflows) or no damping lowers |p|.
    """
    m, n = c.shape[0] - 1, c.shape[1] - 1
    p = Poly2(c)
    stack = np.stack([c, p.derivative(1).padded(m, n), p.derivative(2).padded(m, n)])

    def at(angles):
        z = radius * np.exp(1j * angles)
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
        tv = _horner(c, *np.moveaxis(radius * np.exp(1j * trial), -1, 0))
        lower = np.abs(tv) < np.abs(val[i])[:, None]
        moved = lower.any(axis=1)
        live[i[~moved]] = False
        i, first = i[moved], lower.argmax(axis=1)[moved]
        theta[i] = trial[moved, first]
        val[i], grad[i] = at(theta[i])
    return np.abs(val)


def bidisk_zero_search(p: Poly2) -> BidiskZeroReport:
    """Zero search on the closed polydisk of radius 1 - delta.

    "zero_found" is certified: a computed root of a boundary fibre or of an
    axis slice, inside the region, where |p| is at most RESID_TOL times the
    coefficient norm, or the mean of an axis root cluster whose inclusion
    discs lie in the open unit disk.  "none_found_heuristic" reports the
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
    axes = _roots(c[:, 0]), _roots(c[0, :])
    z1, z2 = [axes[0], np.zeros_like(axes[1])], [np.zeros_like(axes[0]), axes[1]]
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
    for k, (a, roots) in enumerate(zip((c[:, 0], c[0, :]), axes)):
        if np.any((np.abs(roots) > rmax) & (np.abs(roots) < 1.0)):
            for mean, z, rad in _clusters(a):
                if np.any(np.abs(z) > rmax) and np.max(np.abs(z) + rad) < 1.0:
                    point = (complex(mean), 0j)[:: 1 - 2 * k]
                    return BidiskZeroReport("zero_found", point, abs(p.evaluate(*point)), size)

    # the torus values: the fibres' z2 transform, back in (z1, z2) order
    grid = np.abs(np.fft.ifft(fibres, n=size, axis=0, norm="forward").T).ravel()
    starts = np.argpartition(grid, 7)[:8]
    theta = 2.0 * np.pi * np.stack([starts // size, starts % size], axis=-1) / size
    best = min(_torus_descent(c, theta, rmax).min(), vals.min(initial=np.inf))
    return BidiskZeroReport("none_found_heuristic", None, float(best * scale), size)
