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
4. p proportional to p~, read off at p's largest coefficient and accepted
   within PROPORTIONAL_TOL, signals a curve of torus zeros (Infinite);
5. otherwise every torus zero is a common root of p and p~, so its first
   coordinate is a unit-circle root of Res_z2(p, p~); slicing p there and
   taking unit-circle roots in z2 yields finitely many verified candidates.

   The resultant is computed by evaluation and interpolation: z1 is fixed
   at the (D+1)-th roots of unity, where D bounds the z1-degree of the
   Sylvester determinant, the numeric determinant of the Sylvester matrix
   of the two z2-slices is taken at each node (LAPACK LU), and a discrete
   Fourier transform recovers the coefficients.  It vanishes identically
   exactly when p and p~ share a factor involving z2, which is declared
   when every coefficient is below ZERO_REL_EPS times the product of the
   input coefficient norms (Infinite).  Verdicts within INCONCLUSIVE_BAND
   of that threshold are refused (InconclusiveError) rather than guessed,
   and so are inputs whose Sylvester matrices would take more than
   STACK_BYTES; determinants past the double range raise NumericalError.

   Circle roots are the eigenvalues of the companion matrix (``np.roots``),
   the exact roots of a polynomial whose coefficients differ from the
   given ones by a small multiple of eps times their norm (Edelman and
   Murakami 1995).  A multiple root, the typical case for resultants of
   torus-zero polynomials, comes back as a tight cluster around it; the
   roots within CIRCLE_TOL of the circle are merged within CLUSTER_TOL to
   their means, and a mean is kept when its residual passes
   CIRCLE_RESID_TOL.

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
# coefficients at most 1e-10 times its largest trimmed to 0.
RESID_TOL = 1e-8  # |p| at a certified zero, on the torus and in the bidisk
PROPORTIONAL_TOL = 1e-8  # p~ = lambda p within this share of the larger coefficient
ZERO_REL_EPS = 1e-8  # the resultant is zero at most this times ||p|| ||p~||
INCONCLUSIVE_BAND = 10.0  # a resultant above that threshold by less is refused
STACK_BYTES = 1 << 29  # a resultant whose Sylvester matrices take more is refused
CIRCLE_TOL = 1e-6  # a root this close to the unit circle is a candidate
CLUSTER_TOL = 1e-5  # candidates this close to a cluster's mean join it
CIRCLE_RESID_TOL = 1e-10  # a cluster mean with this residual is a circle root

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


def proportional(p: Poly2, q: Poly2) -> Optional[complex]:
    """Return lambda with q = lambda * p (within PROPORTIONAL_TOL, relative),
    else None.

    The scale is read off at p's largest coefficient; the match is accepted
    when the worst deviation of q - lambda*p stays below PROPORTIONAL_TOL
    times the larger coefficient magnitude of the two sides.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("proportionality test requires nonzero polynomials")
    if p.bidegree != q.bidegree:
        return None
    a, b = p.coeffs, q.coeffs
    anchor = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    lam = b[anchor] / a[anchor]
    scale = max(float(np.abs(b).max()), abs(lam) * float(np.abs(a).max()), 1e-300)
    if float(np.abs(b - lam * a).max()) <= PROPORTIONAL_TOL * scale:
        return complex(lam)
    return None


@dataclass(frozen=True)
class ResultantDetail:
    """Raw interpolation output plus the zero-test bookkeeping."""

    coeffs: np.ndarray  # ascending in z1, untrimmed
    max_coeff: float
    zero_threshold: float

    @property
    def is_zero(self) -> bool:
        return self.max_coeff <= self.zero_threshold

    def trimmed(self) -> Poly1:
        """The resultant with coefficients at most 1e-10 * max_coeff zeroed."""
        c = self.coeffs.copy()
        c[np.abs(c) <= 1e-10 * self.max_coeff] = 0.0
        return Poly1(c)


def _sylvester_stack(pvals: np.ndarray, qvals: np.ndarray) -> np.ndarray:
    """Stack of Sylvester matrices, one per evaluation node.

    pvals, qvals: (nodes, n1+1) and (nodes, n2+1) slice coefficients in z2,
    ascending.  Rows hold descending coefficients in the classical layout:
    n2 rows of p, then n1 rows of q.
    """
    nodes = pvals.shape[0]
    n1 = pvals.shape[1] - 1
    n2 = qvals.shape[1] - 1
    size = n1 + n2
    s = np.zeros((nodes, size, size), dtype=np.complex128)
    pdesc = pvals[:, ::-1]
    qdesc = qvals[:, ::-1]
    for r in range(n2):
        s[:, r, r : r + n1 + 1] = pdesc
    for r in range(n1):
        s[:, n2 + r, r : r + n2 + 1] = qdesc
    return s


def resultant_z2_detail(p: Poly2, q: Poly2) -> ResultantDetail:
    """Res_{z2}(p, q) by interpolation, untrimmed, with its zero test.

    Raises InconclusiveError when the largest coefficient lands above the
    zero threshold but within INCONCLUSIVE_BAND of it, where neither
    verdict would be trustworthy, or when the Sylvester matrices would take
    more than STACK_BYTES.
    """
    m1, n1 = p.bidegree
    m2, n2 = q.bidegree
    if n1 == 0 or n2 == 0:
        raise DegenerateInputError("resultant in z2 needs both inputs to involve z2")
    bound = m1 * n2 + m2 * n1
    nodes = bound + 1
    need = nodes * (n1 + n2) ** 2 * np.dtype(np.complex128).itemsize
    if need > STACK_BYTES:
        raise InconclusiveError(
            f"resultant refused: its {nodes} Sylvester matrices of size {n1 + n2} "
            f"take {need / 2**30:.3g} GiB, above the {STACK_BYTES / 2**30:g} GiB budget"
        )
    omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    # z2-slice coefficients at each node: node x (n+1) arrays
    v1 = np.power(omega[:, None], np.arange(m1 + 1)[None, :])
    v2 = np.power(omega[:, None], np.arange(m2 + 1)[None, :])
    pvals = v1 @ p.coeffs
    qvals = v2 @ q.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(_sylvester_stack(pvals, qvals))
        coeffs = np.fft.fft(dets) / nodes
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError(
            f"resultant overflows the double range: its {nodes} Sylvester determinants "
            f"of size {n1 + n2} are not all finite"
        )
    threshold = float(ZERO_REL_EPS * coeff_norm(p) * coeff_norm(q))
    max_coeff = float(np.abs(coeffs).max())
    if threshold < max_coeff <= INCONCLUSIVE_BAND * threshold:
        raise InconclusiveError(
            f"resultant refused: its largest coefficient {max_coeff:.3e} sits within "
            f"{INCONCLUSIVE_BAND:g}x of the zero threshold {threshold:.3e}"
        )
    return ResultantDetail(coeffs=coeffs, max_coeff=max_coeff, zero_threshold=threshold)


def resultant_z2(p: Poly2, q: Poly2) -> Poly1:
    """Res_{z2}(p, q) as a polynomial in z1.

    Returns the zero polynomial when the inputs share a z2-involving factor;
    refuses as resultant_z2_detail does.
    """
    detail = resultant_z2_detail(p, q)
    if detail.is_zero:
        return Poly1.zero()
    return detail.trimmed()


def _collapse_clusters(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy merge of points closer than radius; clusters become their mean."""
    remaining = list(points)
    out = []
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        changed = True
        while changed:
            changed = False
            keep = []
            centre = np.mean(cluster)
            for q in remaining:
                if abs(q - centre) <= radius:
                    cluster.append(q)
                    changed = True
                else:
                    keep.append(q)
            remaining = keep
        out.append(np.mean(cluster))
    return np.asarray(out, dtype=np.complex128)


def _significant(c: np.ndarray) -> np.ndarray:
    """Indices of the coefficients c_k with |c_k| > eps * max|c|."""
    mags = np.abs(c)
    return np.nonzero(mags > np.finfo(np.float64).eps * mags.max())[0]


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of the ascending coefficients c.

    Negligible top coefficients are dropped as for circle roots: their
    roots lie far outside the disk.  The small bottom ones stay, since
    their roots lie near 0.  A vanishing c has 0 for its root.
    """
    if not c.any():
        return np.zeros(1, dtype=np.complex128)
    return np.roots(c[_significant(c)[-1] :: -1])


def roots_on_unit_circle(r: Poly1) -> list[complex]:
    """Distinct roots rho of r with | |rho| - 1 | <= CIRCLE_TOL.

    Each reported root satisfies |r(rho)| <= CIRCLE_RESID_TOL * ||r||_coeff
    after cluster collapsing.  Degree-zero polynomials have no roots.

    Trailing coefficients with |c_k| <= eps * max|c| are dropped here,
    leading ones by _roots: on the circle they move r by far less than
    CIRCLE_RESID_TOL, and the roots they add lie far from it: near 0
    (trailing) or far out (leading).
    """
    if r.is_zero:
        raise DegenerateInputError("root finding needs a nonzero polynomial")
    roots = _roots(r.coeffs[_significant(r.coeffs)[0] :])
    near = roots[np.abs(np.abs(roots) - 1.0) <= CIRCLE_TOL]
    if near.size == 0:
        return []
    merged = _collapse_clusters(near, CLUSTER_TOL)
    scale = coeff_norm(r)
    vals = np.abs(_horner1(r.coeffs, merged))
    good = merged[vals <= CIRCLE_RESID_TOL * scale]
    order = np.argsort(np.angle(good) % (2.0 * np.pi))
    return [complex(v) for v in good[order]]


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
