"""Numerical experiments behind the alpha = 2 threshold.

Two computations make the threshold mechanism tangible:

* ``recurrence_residuals``: a polynomial g is orthogonal to all monomial
  multiples of 2 - z1 - z2 in the iso(2) space exactly when the rescaled
  coefficients b[k,l] = (k+l+1)^2 a[k,l] satisfy 2b[k,l] = b[k+1,l] +
  b[k,l+1].  The residual grid r[k,l] = 2b[k,l] - b[k+1,l] - b[k,l+1]
  equals the inner products <g, z1^k z2^l (2-z1-z2)> entry by entry.
  Truncations of the constant-b series (a[k,l] = 1/(k+l+1)^2) have zero
  residual grids while their iso(2) norms grow without bound, which is the
  obstruction at alpha = 2 in coefficient form.

* ``q_smoothness``: for p with finitely many torus zeros and the numerator
  g = prod (2 - z1/zeta_i - z2/eta_i)^N, the quotient Q = g/p sampled on a
  torus grid should look like a holomorphic function with summable
  (k+1)^2 (l+1)^2 weighted spectrum once N is large enough.  The report
  carries the negative-frequency energy fraction of the DFT, the weighted
  tail ratio S(2s)/S(s) with s = grid/4, and the relative iso(2) error of
  reconstructing g as p times the truncated spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError
from .poly import Poly2, _torus_samples, coeff_norm
from .spaces import iso, norm_squared
from .zeroset import RESID_TOL

__all__ = [
    "RecurrenceResidualGrid",
    "recurrence_residuals",
    "build_numerator_g",
    "QExperimentReport",
    "q_smoothness",
]


@dataclass(frozen=True)
class RecurrenceResidualGrid:
    kmax: int
    lmax: int
    residuals: np.ndarray  # (kmax+1, lmax+1) complex

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.residuals).max())


def recurrence_residuals(g: Poly2, kmax: int, lmax: int) -> RecurrenceResidualGrid:
    """Residuals r[k,l] = 2b[k,l] - b[k+1,l] - b[k,l+1] on 0..kmax x 0..lmax.

    g must fit inside the padded window, i.e. bidegree at most
    (kmax+1, lmax+1), so every coefficient of g is covered by the grid.
    """
    if kmax < 0 or lmax < 0:
        raise DegenerateInputError("grid bounds must be nonnegative")
    m, n = g.bidegree
    if m > kmax + 1 or n > lmax + 1:
        raise DegenerateInputError(
            f"bidegree ({m},{n}) exceeds the padded window ({kmax + 1},{lmax + 1})"
        )
    a = g.padded(kmax + 1, lmax + 1)
    k = np.arange(kmax + 2, dtype=np.float64)[:, None]
    l = np.arange(lmax + 2, dtype=np.float64)[None, :]
    b = (k + l + 1.0) ** 2 * a
    r = 2.0 * b[: kmax + 1, : lmax + 1] - b[1:, : lmax + 1] - b[: kmax + 1, 1:]
    return RecurrenceResidualGrid(kmax=kmax, lmax=lmax, residuals=r)


def _check_torus_point(z: complex, name: str) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise DegenerateInputError(f"{name} must lie on the unit circle, got modulus {abs(z)!r}")
    return z


def build_numerator_g(zeros: Sequence[tuple[complex, complex]], n: int) -> Poly2:
    """prod over declared zeros of (2 - z1/zeta - z2/eta)^n.

    n = 0 gives the constant 1 (the control experiment with no smoothing).
    """
    if n < 0:
        raise DegenerateInputError("the exponent must be nonnegative")
    out = Poly2.const(1.0)
    for zeta, eta in zeros:
        zeta = _check_torus_point(zeta, "zeta")
        eta = _check_torus_point(eta, "eta")
        factor = Poly2.from_terms([(0, 0, 2.0), (1, 0, -1.0 / zeta), (0, 1, -1.0 / eta)])
        out = out * factor**n
    return out


@dataclass(frozen=True)
class QExperimentReport:
    p: Poly2
    zeros: tuple[tuple[complex, complex], ...]
    n: int
    grid_size: int
    neg_freq_energy_fraction: float
    weighted_tail_ratio: float
    reconstruction_error: float
    qhat_abs: np.ndarray = field(repr=False)  # (grid, grid) DFT magnitudes


def q_smoothness(
    p: Poly2,
    zeros: Sequence[tuple[complex, complex]],
    n: int,
    grid_size: int = 512,
) -> QExperimentReport:
    """Spectral smoothness report for Q = g/p on the torus grid.

    Q is set to 0 at grid points where |p| falls below RESID_TOL times the
    coefficient norm; such points must sit next to a declared zero,
    otherwise the declared zero list cannot be trusted and a
    DegenerateInputError is raised.  grid_size must be a power of two no
    smaller than four times the total degree of either polynomial.
    """
    if grid_size < 2 or grid_size & (grid_size - 1):
        raise DegenerateInputError("grid_size must be a power of two")
    zeros = tuple((_check_torus_point(a, "zeta"), _check_torus_point(b, "eta")) for a, b in zeros)
    g = build_numerator_g(zeros, n)
    mp, np_ = p.bidegree
    mg, ng = g.bidegree
    needed = 4 * max(mp + np_, mg + ng, 1)
    if grid_size < needed:
        raise DegenerateInputError(f"grid_size {grid_size} below the resolution floor {needed}")

    pvals = _torus_samples(p.coeffs, grid_size)
    gvals = _torus_samples(g.coeffs, grid_size)
    small = np.abs(pvals) <= RESID_TOL * coeff_norm(p)
    if small.any():
        w = np.exp(2j * np.pi / grid_size)
        us, vs = np.nonzero(small)
        pts1 = w**us
        pts2 = w**vs
        radius = 8.0 * np.pi / grid_size
        for a, b in zip(pts1, pts2):
            near = any(
                max(abs(a - zz[0]), abs(b - zz[1])) <= radius for zz in zeros
            )
            if not near:
                raise DegenerateInputError(
                    "p nearly vanishes on the grid away from every declared zero; "
                    "the zero list is incomplete"
                )
    q = np.zeros_like(pvals)
    np.divide(gvals, pvals, out=q, where=~small)
    qhat = np.fft.fft2(q) / (grid_size * grid_size)

    power = np.abs(qhat) ** 2
    freqs = np.fft.fftfreq(grid_size, d=1.0 / grid_size).astype(int)
    negmask = (freqs[:, None] < 0) | (freqs[None, :] < 0)
    total = float(power.sum())
    neg_fraction = float(power[negmask].sum() / total) if total > 0 else 0.0

    s = grid_size // 4
    wk = (np.arange(2 * s, dtype=np.float64) + 1.0) ** 2
    weighted = power[: 2 * s, : 2 * s] * wk[:, None] * wk[None, :]
    s_small = float(weighted[:s, :s].sum())
    s_large = float(weighted.sum())
    ratio = s_large / s_small if s_small > 0 else 1.0

    half = grid_size // 2
    qtrunc = Poly2(qhat[:half, :half])
    err = norm_squared(g - p * qtrunc, iso(2.0))
    denom = norm_squared(g, iso(2.0))
    recon = float(np.sqrt(err / denom))

    return QExperimentReport(
        p=p,
        zeros=zeros,
        n=int(n),
        grid_size=int(grid_size),
        neg_freq_energy_fraction=neg_fraction,
        weighted_tail_ratio=ratio,
        reconstruction_error=recon,
        qhat_abs=np.abs(qhat),
    )
