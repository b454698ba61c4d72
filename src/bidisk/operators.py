"""Coefficient-level operators used by the cyclicity analysis.

All of these act on the dense coefficient grid and come with norm
inequalities against the weighted spaces (exercised in the test suite):

* ``slice_z1``: fix z1 at a point of the disk, leaving a polynomial in z2.
* ``diagonal``: f(z1, z2) -> sum over n of (sum_{k+l=n} a_{k,l}) z^n, the
  restriction to z1 = z2 read off the coefficients.
* ``reflect``: f~(z1, z2) = z1^m z2^n conj(f(1/conj(z1), 1/conj(z2))) for
  bidegree (m, n); same modulus as f on the unit torus.
* ``rotate``: f(zeta*z1, eta*z2) for unimodular zeta, eta; an isometry of
  every space here.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .poly import Poly1, Poly2

__all__ = [
    "slice_z1",
    "diagonal",
    "reflect",
    "rotate",
]


def slice_z1(f: Poly2, w: complex) -> Poly1:
    """The one-variable polynomial z2 -> f(w, z2)."""
    m, _ = f.bidegree
    powers = np.power(complex(w), np.arange(m + 1))
    return Poly1(powers @ f.coeffs)


def diagonal(f: Poly2) -> Poly1:
    """Antidiagonal coefficient sums: coefficient n is sum of a[k, n-k]."""
    m, n = f.bidegree
    out = np.zeros(m + n + 1, dtype=np.complex128)
    for k in range(m + 1):
        out[k : k + n + 1] += f.coeffs[k]
    return Poly1(out)


def reflect(f: Poly2) -> Poly2:
    """Reverse the coefficient grid and conjugate.

    On the unit torus the reflection has the same modulus as f, which is
    what makes it useful for locating torus zeros.
    """
    if f.is_zero:
        raise DegenerateInputError("reflection of the zero polynomial is undefined")
    return Poly2(np.conj(f.coeffs[::-1, ::-1]))


def rotate(f: Poly2, zeta: complex, eta: complex) -> Poly2:
    """Coefficients a[k, l] -> zeta^k eta^l a[k, l] for unimodular zeta, eta."""
    zeta = complex(zeta)
    eta = complex(eta)
    if abs(abs(zeta) - 1.0) > 1e-12 or abs(abs(eta) - 1.0) > 1e-12:
        raise DegenerateInputError("rotation factors must be unimodular")
    m, n = f.bidegree
    zk = np.power(zeta, np.arange(m + 1))[:, None]
    el = np.power(eta, np.arange(n + 1))[None, :]
    return Poly2(f.coeffs * zk * el)

