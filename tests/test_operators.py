"""Structural maps and the norm inequalities they must satisfy."""

import numpy as np
import pytest

from bidisk.errors import DegenerateInputError
from bidisk.expr import parse_polynomial as P
from bidisk.operators import diagonal, reflect, rotate, slice_z1
from bidisk.poly import Poly1, Poly2
from bidisk.spaces import iso, norm_squared
from conftest import random_poly


def test_slice_hand_values():
    assert np.allclose(slice_z1(P("2 - z1 - z2"), 1.0).coeffs, [1.0, -1.0])
    assert np.allclose(slice_z1(P("1 - z1*z2"), 0.0).coeffs, [1.0])
    assert np.allclose(slice_z1(P("z1^2*z2"), 1j).coeffs, [0.0, -1.0])


def test_slice_matches_evaluation(rng):
    f = random_poly(rng, max_deg=6)
    w = 0.45 * np.exp(0.7j)
    s = slice_z1(f, w)
    for z in (0.2, -0.5j, 0.1 + 0.6j):
        assert s.evaluate(z) == pytest.approx(f.evaluate(w, z))


def test_diagonal_hand_values():
    assert np.allclose(diagonal(P("2 - z1 - z2")).coeffs, [2.0, -2.0])
    assert np.allclose(diagonal(P("1 - z1*z2")).coeffs, [1.0, 0.0, -1.0])
    assert diagonal(P("z1 - z2")) == Poly1(np.zeros(1))


def test_diagonal_matches_evaluation(rng):
    f = random_poly(rng, max_deg=7)
    d = diagonal(f)
    for z in (0.3, -0.4 + 0.2j, 0.8j):
        assert d.evaluate(z) == pytest.approx(f.evaluate(z, z))


def test_reflect_hand_values():
    assert reflect(P("2 - z1 - z2")) == P("2*z1*z2 - z2 - z1")
    assert reflect(P("1 - z1*z2")) == P("z1*z2 - 1")
    assert reflect(P("z1 - 1")) == P("1 - z1")


def test_reflect_conjugates_coefficients():
    p = P("i - z1")
    r = reflect(p)
    # reflection of i - z1 is z1*conj(i - 1/z1) = -1 - i z1
    assert r == P("-1 - i*z1")


def test_reflect_double_is_identity_when_bidegree_preserved(rng):
    for _ in range(20):
        f = random_poly(rng, max_deg=5)
        r = reflect(f)
        if r.bidegree == f.bidegree:
            assert reflect(r) == f


def test_reflect_torus_modulus(rng):
    f = random_poly(rng, max_deg=6)
    r = reflect(f)
    theta = rng.uniform(0, 2 * np.pi, 100)
    phi = rng.uniform(0, 2 * np.pi, 100)
    z1 = np.exp(1j * theta)
    z2 = np.exp(1j * phi)
    np.testing.assert_allclose(
        np.abs(r.evaluate(z1, z2)), np.abs(f.evaluate(z1, z2)), rtol=1e-10, atol=1e-12
    )


def test_reflect_rejects_zero():
    with pytest.raises(DegenerateInputError):
        reflect(Poly2.zero())


def test_rotate_hand_values(rng):
    assert rotate(P("2 - z1 - z2"), -1.0, -1.0) == P("2 + z1 + z2")
    f = random_poly(rng, max_deg=5)
    assert rotate(f, 1.0, 1.0) == f
    assert rotate(P("1 - z1*z2"), 1j, -1j) == P("1 - z1*z2")


def test_rotate_requires_unimodular():
    with pytest.raises(DegenerateInputError):
        rotate(P("1 - z1"), 0.5, 1.0)


def test_rotate_isometry(rng):
    for alpha in (0.0, 1.0, 2.5):
        f = random_poly(rng, max_deg=6)
        zeta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        eta = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = rotate(f, zeta, eta)
        for sp in (iso(alpha), iso(-alpha)):
            assert norm_squared(g, sp) == pytest.approx(norm_squared(f, sp), rel=1e-13)


def _embed_diagonal(f: Poly1) -> Poly2:
    """f(z) -> f(z1*z2): the coefficients on the grid diagonal."""
    return Poly2(np.diag(f.coeffs))


def test_embed_sandwich_hand_value():
    f = Poly1(np.array([1.0, -1.0]))
    F = _embed_diagonal(f)
    assert norm_squared(F, iso(1.0)) == pytest.approx(4.0)
    assert norm_squared(f, iso(1.0)) == pytest.approx(3.0)
    assert 3.0 <= 4.0 <= 2.0 * 3.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0])
def test_embed_sandwich_random(rng, alpha):
    for _ in range(30):
        deg = int(rng.integers(0, 9))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = Poly1(c)
        F = _embed_diagonal(f)
        lo = norm_squared(f, iso(alpha))
        mid = norm_squared(F, iso(alpha))
        hi = (2.0**alpha) * lo
        assert lo <= mid * (1 + 1e-12)
        assert mid <= hi * (1 + 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0])
def test_diagonal_contraction(rng, alpha):
    for _ in range(75):
        f = random_poly(rng, max_deg=8)
        lhs = norm_squared(diagonal(f), iso(alpha - 1.0))
        rhs = norm_squared(f, iso(alpha))
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_slice_norm_bound(rng, alpha):
    for _ in range(40):
        f = random_poly(rng, max_deg=7)
        w = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs = norm_squared(slice_z1(f, w), iso(alpha))
        rhs = norm_squared(f, iso(alpha)) / (1 - abs(w) ** 2)
        assert lhs <= rhs * (1 + 1e-10)
