"""Dense polynomial types in one and two complex variables.

A two-variable polynomial is stored as a dense complex coefficient grid
``c[k, l]`` for the monomial ``z1^k z2^l``, trimmed so that the last row and
the last column each contain a nonzero entry (the grid shape is then exactly
``(m+1, n+1)`` for bidegree ``(m, n)``).  The zero polynomial is the 1x1 grid
``[[0]]`` with bidegree ``(0, 0)``.  Only exact zeros are trimmed; arithmetic
never drops small coefficients on its own.

One-variable polynomials use the same convention with an ascending 1-D
coefficient vector.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

import numpy as np

from ._kernels import eval_points
from .errors import DegenerateInputError

__all__ = [
    "Poly1",
    "Poly2",
    "proportional",
    "coeff_norm",
    "poly2_from_json_dict",
    "poly2_to_json_dict",
]


def _as_grid(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != 2:
        raise ValueError("coefficient grid must be 2-dimensional")
    if arr.size == 0:
        arr = np.zeros((1, 1), dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError("coefficients must be finite")
    return arr


def _trim_grid(arr: np.ndarray) -> np.ndarray:
    rows = np.nonzero(arr.any(axis=1))[0]
    cols = np.nonzero(arr.any(axis=0))[0]
    if rows.size == 0:
        return np.zeros((1, 1), dtype=np.complex128)
    return np.ascontiguousarray(arr[: rows[-1] + 1, : cols[-1] + 1])


def _eval_one(c: np.ndarray, z1: complex, z2: complex) -> complex:
    """c at one point in m + n array steps instead of the m * n of
    ``eval_points``: Horner in z2 runs over every row of c at once, then
    Horner in z1 over the row values.  Each value goes through the same
    numpy operations, in the same order, as in the numpy kernel."""
    row = np.zeros(c.shape[0], dtype=np.complex128)
    for l in range(c.shape[1] - 1, -1, -1):
        row = row * z2 + c[:, l]
    acc = np.zeros(1, dtype=np.complex128)
    for k in range(c.shape[0] - 1, -1, -1):
        acc = acc * z1 + row[k]
    return complex(acc[0])


class Poly2:
    """Polynomial in z1 and z2 with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        grid = _trim_grid(_as_grid(coeffs))
        grid.setflags(write=False)
        object.__setattr__(self, "coeffs", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly2":
        return Poly2([[0.0]])

    @staticmethod
    def const(value: complex) -> "Poly2":
        return Poly2([[value]])

    @staticmethod
    def monomial(k: int, l: int, value: complex = 1.0) -> "Poly2":
        if k < 0 or l < 0:
            raise ValueError("monomial exponents must be nonnegative")
        grid = np.zeros((k + 1, l + 1), dtype=np.complex128)
        grid[k, l] = value
        return Poly2(grid)

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, int, complex]]) -> "Poly2":
        terms = list(terms)
        if not terms:
            return Poly2.zero()
        m = max(t[0] for t in terms)
        n = max(t[1] for t in terms)
        grid = np.zeros((m + 1, n + 1), dtype=np.complex128)
        for k, l, v in terms:
            grid[k, l] += v
        return Poly2(grid)

    # -- basic queries ------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape == (1, 1) and self.coeffs[0, 0] == 0

    def __getitem__(self, kl: tuple[int, int]) -> complex:
        k, l = kl
        m, n = self.bidegree
        if 0 <= k <= m and 0 <= l <= n:
            return complex(self.coeffs[k, l])
        return 0j

    def terms(self) -> Iterator[tuple[int, int, complex]]:
        """Nonzero terms in graded lexicographic order (total degree, then k)."""
        m, n = self.bidegree
        order = sorted(
            ((k, l) for k in range(m + 1) for l in range(n + 1) if self.coeffs[k, l] != 0),
            key=lambda kl: (kl[0] + kl[1], kl[0], kl[1]),
        )
        for k, l in order:
            yield k, l, complex(self.coeffs[k, l])

    def padded(self, m: int, n: int) -> np.ndarray:
        """Coefficient grid zero-padded to shape (m+1, n+1)."""
        dm, dn = self.bidegree
        if m < dm or n < dn:
            raise ValueError("padding target smaller than bidegree")
        out = np.zeros((m + 1, n + 1), dtype=np.complex128)
        out[: dm + 1, : dn + 1] = self.coeffs
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly2":
        other = _coerce2(other)
        m = max(self.coeffs.shape[0], other.coeffs.shape[0])
        n = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((m, n), dtype=np.complex128)
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        out[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2(-self.coeffs)

    def __sub__(self, other) -> "Poly2":
        return self + (-_coerce2(other))

    def __rsub__(self, other) -> "Poly2":
        return _coerce2(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        other = _coerce2(other)
        if self.is_zero or other.is_zero:
            return Poly2.zero()
        a, b = self.coeffs, other.coeffs
        if a.size > b.size:
            a, b = b, a
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=np.complex128)
        for k in range(a.shape[0]):
            for l in range(a.shape[1]):
                v = a[k, l]
                if v != 0:
                    out[k : k + b.shape[0], l : l + b.shape[1]] += v * b
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, (int, np.integer)) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly2.const(1.0)
        base = self
        e = int(exponent)
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def conj_coeffs(self) -> "Poly2":
        """Polynomial with conjugated coefficients."""
        return Poly2(np.conj(self.coeffs))

    def derivative(self, variable: int) -> "Poly2":
        """Partial derivative with respect to z1 (variable=1) or z2 (variable=2)."""
        c = self.coeffs
        if variable == 1:
            if c.shape[0] == 1:
                return Poly2.zero()
            k = np.arange(1, c.shape[0], dtype=np.complex128)
            return Poly2(c[1:, :] * k[:, None])
        if variable == 2:
            if c.shape[1] == 1:
                return Poly2.zero()
            l = np.arange(1, c.shape[1], dtype=np.complex128)
            return Poly2(c[:, 1:] * l[None, :])
        raise ValueError("variable must be 1 or 2")

    # -- evaluation ---------------------------------------------------

    def evaluate(self, z1, z2):
        """Evaluate at scalars or broadcastable arrays of points."""
        z1a = np.asarray(z1, dtype=np.complex128)
        z2a = np.asarray(z2, dtype=np.complex128)
        if z1a.ndim == 0 and z2a.ndim == 0:
            return _eval_one(self.coeffs, complex(z1a), complex(z2a))
        z1b, z2b = np.broadcast_arrays(z1a, z2a)
        shape = z1b.shape
        flat1 = np.ascontiguousarray(z1b).ravel()
        flat2 = np.ascontiguousarray(z2b).ravel()
        out = np.empty(flat1.shape, dtype=np.complex128)
        eval_points(self.coeffs, flat1, flat2, out)
        return out.reshape(shape)

    # -- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.coeffs.shape, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        m, n = self.bidegree
        return f"Poly2(bidegree=({m},{n}), terms={sum(1 for _ in self.terms())})"


def _coerce2(value) -> Poly2:
    if isinstance(value, Poly2):
        return value
    if isinstance(value, (int, float, complex, np.number)):
        return Poly2.const(complex(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as Poly2")


class Poly1:
    """Polynomial in one variable, ascending complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.array(coeffs, dtype=np.complex128, copy=True))
        if arr.ndim != 1:
            raise ValueError("coefficients must be 1-dimensional")
        if arr.size == 0:
            arr = np.zeros(1, dtype=np.complex128)
        if not np.all(np.isfinite(arr)):
            raise DegenerateInputError("coefficients must be finite")
        nz = np.nonzero(arr)[0]
        arr = np.ascontiguousarray(arr[: nz[-1] + 1]) if nz.size else np.zeros(1, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Poly1 is immutable")

    @staticmethod
    def zero() -> "Poly1":
        return Poly1([0.0])

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __getitem__(self, k: int) -> complex:
        if 0 <= k < self.coeffs.size:
            return complex(self.coeffs[k])
        return 0j

    def __add__(self, other) -> "Poly1":
        other = _coerce1(other)
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n, dtype=np.complex128)
        out[: self.coeffs.size] = self.coeffs
        out[: other.coeffs.size] += other.coeffs
        return Poly1(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly1":
        return Poly1(-self.coeffs)

    def __sub__(self, other) -> "Poly1":
        return self + (-_coerce1(other))

    def __rsub__(self, other) -> "Poly1":
        return _coerce1(other) + (-self)

    def __mul__(self, other) -> "Poly1":
        other = _coerce1(other)
        if self.is_zero or other.is_zero:
            return Poly1.zero()
        return Poly1(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def evaluate(self, z):
        za = np.asarray(z, dtype=np.complex128)
        scalar = za.ndim == 0
        acc = np.zeros_like(za, dtype=np.complex128)
        for c in self.coeffs[::-1]:
            acc = acc * za + c
        if scalar:
            return complex(acc)
        return acc

    def as_poly2(self, variable: int = 1) -> Poly2:
        """Embed as a polynomial in z1 (variable=1) or z2 (variable=2)."""
        if variable == 1:
            return Poly2(self.coeffs[:, None])
        if variable == 2:
            return Poly2(self.coeffs[None, :])
        raise ValueError("variable must be 1 or 2")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly1):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Poly1(degree={self.degree})"


def _coerce1(value) -> Poly1:
    if isinstance(value, Poly1):
        return value
    if isinstance(value, (int, float, complex, np.number)):
        return Poly1([complex(value)])
    raise TypeError(f"cannot interpret {type(value).__name__} as Poly1")


def coeff_norm(p) -> float:
    """Euclidean norm of the coefficient grid."""
    return float(np.linalg.norm(p.coeffs))


def proportional(p: Poly2, q: Poly2, tol: float = 1e-8) -> Optional[complex]:
    """Return lambda with q = lambda * p (within tol, relative), else None.

    The scale is read off at p's largest coefficient; the match is accepted
    when the worst deviation of q - lambda*p stays below tol times the
    larger coefficient magnitude of the two sides.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("proportionality test requires nonzero polynomials")
    if p.bidegree != q.bidegree:
        return None
    a, b = p.coeffs, q.coeffs
    anchor = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    lam = b[anchor] / a[anchor]
    scale = max(float(np.abs(b).max()), abs(lam) * float(np.abs(a).max()), 1e-300)
    if float(np.abs(b - lam * a).max()) <= tol * scale:
        return complex(lam)
    return None


# ---------------------------------------------------------------------------
# JSON form: {"bidegree": [m, n], "coeffs": [{"k":., "l":., "re":., "im":.}]}
# Entries omitted from "coeffs" are zero.
# ---------------------------------------------------------------------------


def poly2_to_json_dict(p: Poly2) -> dict:
    m, n = p.bidegree
    return {
        "bidegree": [m, n],
        "coeffs": [
            {"k": k, "l": l, "re": v.real, "im": v.imag} for k, l, v in p.terms()
        ],
    }


def poly2_from_json_dict(data: dict) -> Poly2:
    try:
        m, n = (int(x) for x in data["bidegree"])
        entries = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DegenerateInputError(f"malformed polynomial JSON: {exc}") from exc
    grid = np.zeros((m + 1, n + 1), dtype=np.complex128)
    for e in entries:
        k, l = int(e["k"]), int(e["l"])
        if not (0 <= k <= m and 0 <= l <= n):
            raise DegenerateInputError(
                f"coefficient index ({k},{l}) outside bidegree ({m},{n})"
            )
        grid[k, l] = complex(float(e["re"]), float(e.get("im", 0.0)))
    return Poly2(grid)


def poly2_to_json(p: Poly2) -> str:
    return json.dumps(poly2_to_json_dict(p))


def poly2_from_json(text: str) -> Poly2:
    return poly2_from_json_dict(json.loads(text))
