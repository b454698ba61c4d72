import numpy as np
import pytest

from bidisk.errors import DegenerateInputError
from bidisk.poly import (
    Poly1,
    Poly2,
    coeff_norm,
    poly2_from_json_dict,
    poly2_to_json_dict,
    proportional,
)
from conftest import random_bidisk_points, random_poly


def P(text):
    from bidisk.expr import parse_polynomial

    return parse_polynomial(text)


def test_add_cancellation():
    assert P("2 - z1") + P("z1 - z2") == P("2 - z2")


def test_add_zero_identity(rng):
    p = random_poly(rng)
    assert p + Poly2.zero() == p


def test_add_conjugate_cancellation():
    assert P("1 + i*z1") + P("1 - i*z1") == Poly2.const(2.0)


def test_mul_difference_of_squares():
    assert P("(1 - z1*z2)") * P("(1 + z1*z2)") == P("1 - z1^2*z2^2")


def test_mul_shift():
    assert P("z1") * P("2 - z1 - z2") == P("2*z1 - z1^2 - z1*z2")


def test_mul_expansion():
    assert P("1 - z1") * P("1 - z2") == P("1 - z1 - z2 + z1*z2")


def test_bidegree_is_tight():
    p = P("1 + z1*z2") + P("-z1*z2")
    assert p.bidegree == (0, 0)
    assert p.coeffs.shape == (1, 1)


def test_zero_polynomial_shape():
    z = Poly2.zero()
    assert z.bidegree == (0, 0)
    assert z.coeffs[0, 0] == 0


def test_coeffs_read_only():
    p = P("1 - z1")
    with pytest.raises((ValueError, RuntimeError)):
        p.coeffs[0, 0] = 5.0


def test_constructor_copies_input():
    arr = np.array([[1.0, 2.0]], dtype=np.complex128)
    p = Poly2(arr)
    arr[0, 0] = 99.0
    assert p.coeffs[0, 0] == 1.0


def test_nonfinite_rejected():
    with pytest.raises(DegenerateInputError):
        Poly2(np.array([[np.nan]]))
    with pytest.raises(DegenerateInputError):
        Poly2(np.array([[np.inf + 0j]]))


def test_evaluate_designed_zeros():
    assert P("2 - z1 - z2").evaluate(1.0, 1.0) == pytest.approx(0.0)
    assert P("1 - z1*z2").evaluate(1j, -1j) == pytest.approx(0.0)
    assert P("2 - z1 - z2").evaluate(0.0, 0.0) == pytest.approx(2.0)


def test_evaluate_broadcasts(rng):
    p = random_poly(rng, max_deg=5)
    z1, z2 = random_bidisk_points(rng, 17)
    vals = p.evaluate(z1, z2)
    assert vals.shape == (17,)
    for i in range(17):
        assert vals[i] == pytest.approx(p.evaluate(z1[i], z2[i]))


def test_evaluate_scalar_matches_numpy_kernel_exactly(rng):
    # the one-point route reorders the loops, not the arithmetic
    from bidisk._kernels import _eval_points_numpy

    for _ in range(30):
        p = random_poly(rng, max_deg=12)
        z1, z2 = random_bidisk_points(rng, 5)
        out = np.empty(5, dtype=np.complex128)
        _eval_points_numpy(p.coeffs, z1, z2, out)
        for i in range(5):
            val = p.evaluate(complex(z1[i]), complex(z2[i]))
            assert isinstance(val, complex)
            assert val == out[i]


def test_mul_commutative_associative(rng):
    for _ in range(25):
        a = random_poly(rng, max_deg=6)
        b = random_poly(rng, max_deg=6)
        c = random_poly(rng, max_deg=4)
        ab = a * b
        ba = b * a
        scale = coeff_norm(ab)
        assert coeff_norm(ab + (-1.0) * ba) <= 1e-12 * max(scale, 1.0)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert coeff_norm(lhs + (-1.0) * rhs) <= 1e-12 * max(coeff_norm(lhs), 1.0)


def test_evaluate_multiplicative_at_points(rng):
    p = random_poly(rng, max_deg=5)
    q = random_poly(rng, max_deg=5)
    z1, z2 = random_bidisk_points(rng, 100)
    lhs = (p * q).evaluate(z1, z2)
    rhs = p.evaluate(z1, z2) * q.evaluate(z1, z2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_power_matches_repeated_mul(rng):
    p = random_poly(rng, max_deg=3)
    q = p * p * p
    assert coeff_norm(p**3 + (-1.0) * q) <= 1e-12 * max(coeff_norm(q), 1.0)
    assert p**0 == Poly2.const(1.0)


def test_derivative():
    p = P("2 - z1^2 - 3*z1*z2")
    assert p.derivative(1) == P("-2*z1 - 3*z2")
    assert p.derivative(2) == P("-3*z1")


def test_proportional_negation():
    lam = proportional(P("1 - z1*z2"), P("z1*z2 - 1"))
    assert lam == pytest.approx(-1.0)


def test_proportional_absent():
    assert proportional(P("2 - z1 - z2"), P("2*z1*z2 - z1 - z2")) is None


def test_proportional_complex_scale(rng):
    p = random_poly(rng, max_deg=4)
    lam = proportional(p, 3j * p)
    assert lam == pytest.approx(3j)


def test_terms_graded_order():
    p = P("1 + z1 + z2 + z1*z2 + z2^2")
    order = [(k, l) for k, l, _ in p.terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]


def test_poly1_evaluate_and_conversion():
    f = Poly1(np.array([1.0, -1.0]))
    assert f.evaluate(0.5) == pytest.approx(0.5)
    g = f.as_poly2(1)
    assert g == P("1 - z1")
    h = f.as_poly2(2)
    assert h == P("1 - z2")


def test_json_round_trip(rng):
    for _ in range(10):
        p = random_poly(rng, max_deg=6, sparsity=0.4)
        d = poly2_to_json_dict(p)
        q = poly2_from_json_dict(d)
        assert p == q


def test_json_rejects_out_of_range():
    with pytest.raises(DegenerateInputError):
        poly2_from_json_dict(
            {"bidegree": [1, 1], "coeffs": [{"k": 5, "l": 0, "re": 1.0, "im": 0.0}]}
        )
