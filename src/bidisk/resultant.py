"""Resultant in z2 of two bivariate polynomials, as a polynomial in z1.

Computed by evaluation and interpolation: fix z1 at the (D+1)-th roots of
unity, where D bounds the z1-degree of the Sylvester determinant, take the
numeric determinant of the Sylvester matrix of the two z2-slices at each
node (LAPACK LU under the hood), and recover the coefficients with a
discrete Fourier transform.  This avoids symbolic determinant expansion and
keeps the cost at D+1 small dense determinants.

The resultant vanishes identically exactly when the inputs share a factor
involving z2; numerically this is declared when every interpolated
coefficient is below ``ZERO_REL_EPS`` times the product of the input
coefficient norms.  Verdicts within a factor of 10 of that threshold are
refused (InconclusiveError) rather than guessed, and so are inputs whose
Sylvester matrices would take more than STACK_BYTES.  Determinants past the
double range raise NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InconclusiveError, NumericalError
from .poly import Poly1, Poly2, coeff_norm

__all__ = ["resultant_z2", "resultant_z2_detail", "ResultantDetail"]

ZERO_REL_EPS = 1e-8
INCONCLUSIVE_BAND = 10.0
STACK_BYTES = 1 << 29


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
