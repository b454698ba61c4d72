"""Weighted coefficient norms on the bidisk.

Two families, each indexed by a real parameter alpha:

* ``iso``:   weight (k+l+1)^alpha on the monomial z1^k z2^l
* ``aniso``: weight ((k+1)(l+1))^alpha

On a polynomial in z1 alone the ``iso`` weight is (k+1)^alpha, the
one-variable weight, so a ``Poly1`` is normed as the z1-only ``Poly2`` it
embeds as.

``norm_squared(f, space)`` is the weighted sum of squared coefficient
magnitudes; ``inner_product`` the matching sesquilinear form (conjugate
linear in the second slot).

Weights for integer alpha in [-8, 8] are computed by repeated
multiplication so small cases stay exactly representable; other alphas go
through the usual power function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateInputError, NumericalError
from .poly import Poly1, Poly2

__all__ = [
    "SpaceSpec",
    "iso",
    "aniso",
    "weight_grid",
    "norm_squared",
    "inner_product",
    "compare_norms",
    "NormTriple",
]

_KINDS = ("iso", "aniso")


@dataclass(frozen=True)
class SpaceSpec:
    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DegenerateInputError(f"unknown space kind {self.kind!r}")
        if not np.isfinite(self.alpha):
            raise DegenerateInputError("alpha must be finite")


def iso(alpha: float) -> SpaceSpec:
    return SpaceSpec("iso", float(alpha))


def aniso(alpha: float) -> SpaceSpec:
    return SpaceSpec("aniso", float(alpha))


def _pow_alpha(base: np.ndarray, alpha: float) -> np.ndarray:
    """base**alpha with an exact repeated-product path for small integer alpha."""
    if float(alpha).is_integer() and -8 <= alpha <= 8:
        e = int(abs(alpha))
        out = np.ones_like(base)
        for _ in range(e):
            out = out * base
        if alpha < 0:
            out = 1.0 / out
        return out
    return np.power(base, alpha)


def monomial_weights(space: SpaceSpec, k: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Weights of the monomials z1^k z2^l, elementwise over k and l."""
    base = (k + l + 1.0) if space.kind == "iso" else (k + 1.0) * (l + 1.0)
    return _pow_alpha(base, space.alpha)


def weight_grid(space: SpaceSpec, kmax: int, lmax: int) -> np.ndarray:
    """Grid of weights for exponents 0..kmax times 0..lmax."""
    k = np.arange(kmax + 1, dtype=np.float64)[:, None]
    l = np.arange(lmax + 1, dtype=np.float64)[None, :]
    return monomial_weights(space, k, l)


def _coeff_grid(f: Union[Poly1, Poly2]) -> np.ndarray:
    if isinstance(f, Poly2):
        return f.coeffs
    if isinstance(f, Poly1):
        return f.as_poly2(1).coeffs
    raise TypeError("expected Poly1 or Poly2")


def norm_squared(f: Union[Poly1, Poly2], space: SpaceSpec) -> float:
    """Weighted sum of squared coefficient magnitudes.

    Raises ``NumericalError`` when the sum, or a weight it needs, exceeds
    the double range: an infinite norm is no result.
    """
    c = _coeff_grid(f)
    with np.errstate(over="ignore", invalid="ignore"):
        w = weight_grid(space, c.shape[0] - 1, c.shape[1] - 1)
        mag2 = c.real**2 + c.imag**2
        # a zero coefficient adds nothing, even where its weight overflows
        total = float(np.sum(np.where(mag2 == 0.0, 0.0, w * mag2)))
    if not np.isfinite(total):
        raise NumericalError(
            f"squared norm in {space.kind}({space.alpha:g}) overflows the double range"
        )
    return total


def inner_product(f: Union[Poly1, Poly2], g: Union[Poly1, Poly2], space: SpaceSpec) -> complex:
    """Weighted coefficient pairing, conjugate linear in g."""
    a = _coeff_grid(f)
    b = _coeff_grid(g)
    m = max(a.shape[0], b.shape[0])
    n = max(a.shape[1], b.shape[1])
    pa = np.zeros((m, n), dtype=np.complex128)
    pb = np.zeros((m, n), dtype=np.complex128)
    pa[: a.shape[0], : a.shape[1]] = a
    pb[: b.shape[0], : b.shape[1]] = b
    w = weight_grid(space, m - 1, n - 1)
    return complex(np.sum(w * pa * np.conj(pb)))


class NormTriple(NamedTuple):
    iso: float
    aniso: float
    iso2x: float


def compare_norms(f: Poly2, alpha: float) -> NormTriple:
    """Squared norms of f in the iso(alpha), aniso(alpha), iso(2*alpha) spaces.

    Coefficientwise k+l+1 <= (k+1)(l+1) <= (k+l+1)^2, so the triple is
    nondecreasing for alpha >= 0 and nonincreasing for alpha <= 0.
    """
    return NormTriple(
        norm_squared(f, iso(alpha)),
        norm_squared(f, aniso(alpha)),
        norm_squared(f, iso(2.0 * alpha)),
    )
