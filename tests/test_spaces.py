import numpy as np
import pytest

from bidisk.errors import DegenerateInputError, NumericalError
from bidisk.expr import parse_polynomial as P
from bidisk.poly import Poly1, Poly2
from bidisk.spaces import SpaceSpec, aniso, compare_norms, inner_product, iso, norm_squared, weight_grid
from conftest import random_poly


def test_weight_values():
    assert weight_grid(iso(2.0), 1, 1)[1, 1] == pytest.approx(9.0)
    assert weight_grid(aniso(2.0), 1, 1)[1, 1] == pytest.approx(16.0)
    for sp in (iso(0.7), aniso(-2.3), iso(5.0)):
        assert weight_grid(sp, 0, 0)[0, 0] == pytest.approx(1.0)


def test_weight_integer_alpha_exact():
    # integer alpha uses repeated multiplication, so these are exact
    assert weight_grid(iso(3.0), 2, 1)[2, 1] == 64.0
    assert weight_grid(iso(-2.0), 1, 1)[1, 1] == 1.0 / 9.0
    assert weight_grid(aniso(2.0), 3, 4)[3, 4] == 400.0


def test_monomial_orthogonality(rng):
    for _ in range(20):
        a, b, c, d = rng.integers(0, 6, 4)
        if (a, b) == (c, d):
            continue
        v = inner_product(Poly2.monomial(a, b), Poly2.monomial(c, d), iso(1.3))
        assert v == 0


def test_inner_product_hand_values():
    assert inner_product(P("z1"), P("z2"), iso(2.0)) == 0
    assert inner_product(P("z1"), P("z1"), iso(2.0)) == pytest.approx(4.0)
    p = P("2 - z1 - z2")
    assert inner_product(p, p, iso(2.0)) == pytest.approx(12.0)


def test_inner_product_conjugate_symmetry(rng):
    f = random_poly(rng, max_deg=6)
    g = random_poly(rng, max_deg=6)
    a = inner_product(f, g, iso(1.5))
    b = inner_product(g, f, iso(1.5))
    assert a == pytest.approx(np.conj(b))


def test_norm_squared_hand_values():
    assert norm_squared(P("1 - z1*z2"), iso(1.5)) == pytest.approx(1 + 3**1.5)
    for alpha in (-1.0, 0.0, 0.5, 2.0):
        assert norm_squared(P("z1"), iso(alpha)) == pytest.approx(2.0**alpha)
    assert norm_squared(Poly2.zero(), iso(1.0)) == 0.0


def test_norm_zero_iff_zero(rng):
    p = random_poly(rng, max_deg=4)
    assert norm_squared(p, aniso(0.5)) > 0


def test_compare_norms_single_monomial():
    assert compare_norms(P("z1*z2"), 1.0) == pytest.approx((3.0, 4.0, 9.0))
    assert compare_norms(P("z1*z2"), -1.0) == pytest.approx((1 / 3, 1 / 4, 1 / 9))
    assert compare_norms(Poly2.const(1.0), 0.37) == pytest.approx((1.0, 1.0, 1.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_compare_norms_ordering_positive_alpha(rng, alpha):
    for _ in range(60):
        f = random_poly(rng, max_deg=8)
        t = compare_norms(f, alpha)
        assert t.iso <= t.aniso * (1 + 1e-12)
        assert t.aniso <= t.iso2x * (1 + 1e-12)


@pytest.mark.parametrize("alpha", [-0.5, -1.0])
def test_compare_norms_ordering_negative_alpha(rng, alpha):
    for _ in range(60):
        f = random_poly(rng, max_deg=8)
        t = compare_norms(f, alpha)
        assert t.iso2x <= t.aniso * (1 + 1e-12)
        assert t.aniso <= t.iso * (1 + 1e-12)


def test_cauchy_schwarz(rng):
    for _ in range(50):
        f = random_poly(rng, max_deg=7)
        g = random_poly(rng, max_deg=7)
        sp = iso(float(rng.uniform(-1, 3)))
        lhs = abs(inner_product(f, g, sp)) ** 2
        rhs = norm_squared(f, sp) * norm_squared(g, sp)
        assert lhs <= rhs + 1e-10 * max(rhs, 1.0)


def test_iso_norm_on_univariate_inputs():
    # on a polynomial in z1 alone the iso weight (k+l+1)^a is (k+1)^a
    f = Poly1(np.array([1.0, -1.0]))
    assert norm_squared(f, iso(1.0)) == pytest.approx(3.0)
    assert norm_squared(P("1 - z1"), iso(1.0)) == pytest.approx(3.0)
    assert inner_product(f, P("1 - z1"), iso(1.0)) == pytest.approx(3.0)


def test_space_spec_validation():
    with pytest.raises(DegenerateInputError):
        iso(float("nan"))
    with pytest.raises(DegenerateInputError):
        SpaceSpec("uni", 1.0)


def test_norm_squared_overflow_is_an_error():
    with pytest.raises(NumericalError, match="overflows"):
        norm_squared(P("1e200 z1 + 1"), iso(1.0))
    with pytest.raises(NumericalError, match="overflows"):
        norm_squared(P("1 + z1"), iso(2000.0))


def test_norm_squared_skips_zero_coefficients_with_overflowing_weights():
    # 9^330 overflows at z1^4 z2^4, whose coefficient is zero
    assert norm_squared(P("1 + z1^4 + z2^4"), iso(330.0)) == pytest.approx(1 + 2 * 5.0**330, rel=1e-12)
