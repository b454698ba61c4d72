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

from typing import Iterable, Iterator

import numpy as np

from .errors import DegenerateInputError

__all__ = [
    "Poly1",
    "Poly2",
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


def _horner(c: np.ndarray, z1: np.ndarray, z2: np.ndarray):
    """c at the points (z1, z2), broadcast against each other.

    c is one coefficient grid or a stack of grids of one shape, whose values
    come out along the leading axes.  Horner in z2 gives every row value
    q_k(z2) of p = sum_k z1^k q_k(z2); Horner in z1 then runs over them.
    Every value goes through the same numpy operations, in the same order,
    as in a per-point Horner in z2 inside Horner in z1, so it does not
    depend on the shapes of z1 and z2 or on the stack: a product grid
    ``z1[:, None], z2`` computes each row value once per z2 point and gives
    the same bits.

    That needs care with numpy's complex multiply, which rounds twice
    instead of fusing when the product has one element and its operands
    differ in ndim.  So z2 and z1 get the ndim of the arrays they multiply.
    """
    shape = np.broadcast_shapes(z1.shape, z2.shape)
    z2 = z2.reshape((1,) * (len(shape) - z2.ndim) + z2.shape)
    cols = np.moveaxis(c, (-1, -2), (0, 1))
    rows = np.zeros(cols.shape[1:] + z2.shape, dtype=np.complex128)
    cols = cols.reshape(cols.shape + (1,) * z2.ndim)
    lead = z2.reshape((1,) * (rows.ndim - z2.ndim) + z2.shape)
    for l in range(cols.shape[0] - 1, -1, -1):
        rows = rows * lead + cols[l]
    acc = np.zeros(c.shape[:-2] + shape, dtype=np.complex128)
    z1 = z1.reshape((1,) * (acc.ndim - z1.ndim) + z1.shape)
    for k in range(rows.shape[0] - 1, -1, -1):
        acc = acc * z1 + rows[k]
    return acc


def _torus_samples(c: np.ndarray, size: int) -> np.ndarray:
    """The coefficient grid c at (w^u, w^v) for w = exp(2 pi i / size) and
    0 <= u, v < size: the unscaled inverse FFT of c zero-padded to size x
    size, one axis at a time, so that the first pass runs over c's columns
    only."""
    rows = np.fft.ifft(c, n=size, axis=0, norm="forward")
    return np.fft.ifft(rows, n=size, axis=1, norm="forward")


def _horner1(c: np.ndarray, z: np.ndarray):
    """The ascending coefficients c as a polynomial at the points z."""
    acc = np.zeros(z.shape, dtype=np.complex128)
    for coeff in c[::-1]:
        acc = acc * z + coeff
    return acc


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
        out = _horner(
            self.coeffs,
            np.asarray(z1, dtype=np.complex128),
            np.asarray(z2, dtype=np.complex128),
        )
        if np.ndim(out) == 0:
            return complex(out)
        return out

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

    def evaluate(self, z):
        out = _horner1(self.coeffs, np.asarray(z, dtype=np.complex128))
        if np.ndim(out) == 0:
            return complex(out)
        return out

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


def coeff_norm(p) -> float:
    """Euclidean norm of the coefficient grid.

    Taken of c 2^-e, where 2^e is the power of two of max|c|, then scaled
    back: exact, and its squares cannot overflow where the norm does not.
    """
    parts = p.coeffs.view(np.float64)
    _, e = np.frexp(np.abs(parts).max())
    return float(np.ldexp(np.linalg.norm(np.ldexp(parts, -e).view(np.complex128)), e))


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


def _malformed(what: str) -> DegenerateInputError:
    return DegenerateInputError(f"malformed polynomial JSON: {what}")


def _json_index(value, name: str) -> int:
    """A nonnegative integer field; 2.0 reads as 2, while 0.5 and true are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _malformed(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the double range
            pass
    raise _malformed(f"{name} must be a finite number, got {value!r}")


def poly2_from_json_dict(data: dict) -> Poly2:
    """The polynomial of the JSON form above.  Any other shape, a missing
    field or a field of the wrong type raises DegenerateInputError."""
    if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
        raise _malformed('expected an object with "bidegree" and a "coeffs" list')
    bidegree = data.get("bidegree")
    if not isinstance(bidegree, list) or len(bidegree) != 2:
        raise _malformed(f"bidegree must be a list [m, n], got {bidegree!r}")
    m, n = (_json_index(x, "bidegree") for x in bidegree)
    grid = np.zeros((m + 1, n + 1), dtype=np.complex128)
    for e in data["coeffs"]:
        if not isinstance(e, dict) or not {"k", "l", "re"} <= e.keys():
            raise _malformed(f'a coefficient needs "k", "l" and "re", got {e!r}')
        k, l = _json_index(e["k"], "k"), _json_index(e["l"], "l")
        if not (k <= m and l <= n):
            raise DegenerateInputError(
                f"coefficient index ({k},{l}) outside bidegree ({m},{n})"
            )
        re, im = _json_number(e["re"], "re"), _json_number(e.get("im", 0.0), "im")
        grid[k, l] = complex(re, im)
    return Poly2(grid)
