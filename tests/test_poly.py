import json
import warnings

import numpy as np
import pytest

from bidisk.errors import DegenerateInputError
from bidisk.poly import (
    Poly1,
    Poly2,
    coeff_norm,
    poly2_from_json_dict,
    poly2_to_json_dict,
)
from bidisk.zeroset import proportional
from conftest import MALFORMED_POLY_JSON, random_bidisk_points, random_poly


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


def _reference_horner(c, z1, z2):
    """Horner in z2 inside Horner in z1, over flat arrays of points: the
    numpy kernel that Poly2.evaluate replaced, kept as the exact reference."""
    acc = np.zeros_like(z1, dtype=np.complex128)
    for k in range(c.shape[0] - 1, -1, -1):
        row = np.zeros_like(z2, dtype=np.complex128)
        for l in range(c.shape[1] - 1, -1, -1):
            row = row * z2 + c[k, l]
        acc = acc * z1 + row
    return acc


def _reference_grid(c, z1, z2):
    """The reference on the flattened product grid z1 x z2, z1 major."""
    return _reference_horner(c, np.repeat(z1, z2.size), np.tile(z2, z1.size))


def test_evaluate_scalar_matches_numpy_kernel_exactly(rng):
    # broadcasting reorders the loops, not the arithmetic
    for _ in range(30):
        p = random_poly(rng, max_deg=12)
        z1, z2 = random_bidisk_points(rng, 5)
        ref = _reference_horner(p.coeffs, z1, z2)
        for i in range(5):
            val = p.evaluate(complex(z1[i]), complex(z2[i]))
            assert isinstance(val, complex)
            assert val == ref[i]


def test_evaluate_arrays_match_reference_exactly(rng):
    for _ in range(30):
        p = random_poly(rng, max_deg=12)
        z1, z2 = random_bidisk_points(rng, 40)
        assert np.array_equal(p.evaluate(z1, z2), _reference_horner(p.coeffs, z1, z2))


def test_evaluate_product_grid_matches_reference_exactly(rng):
    for _ in range(30):
        p = random_poly(rng, max_deg=12)
        z1, _ = random_bidisk_points(rng, 23)
        _, z2 = random_bidisk_points(rng, 31)
        grid = p.evaluate(z1[:, None], z2)
        assert grid.shape == (23, 31)
        assert np.array_equal(grid.ravel(), _reference_grid(p.coeffs, z1, z2))



def test_evaluate_search_chunk_matches_reference_exactly(rng):
    # the interior search's coarse chunk: 64 z1 points against 1024 z2
    # points, at bidegree 12
    c = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    z1, _ = random_bidisk_points(rng, 64)
    _, z2 = random_bidisk_points(rng, 1024)
    grid = Poly2(c).evaluate(z1[:, None], z2)
    assert grid.shape == (64, 1024)
    assert np.array_equal(grid.ravel(), _reference_grid(c, z1, z2))


def test_evaluate_one_point_arrays_match_scalar_exactly(rng):
    # one-element arrays of any shape give the scalar's bits: numpy's
    # complex multiply skips FMA on some one-element products
    for m in (0, 0, 1, 3):
        n = int(rng.integers(0, 9))
        p = Poly2(rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1)))
        z1, z2 = random_bidisk_points(rng, 40)
        for a, b in zip(z1, z2):
            val = p.evaluate(complex(a), complex(b))
            for s1 in ((), (1,), (1, 1)):
                for s2 in ((), (1,), (1, 1)):
                    got = p.evaluate(np.full(s1, a), np.full(s2, b))
                    assert complex(np.asarray(got).ravel()[0]) == val, (s1, s2)


def test_stacked_horner_matches_separate_evaluations(rng):
    # p and its gradient from one stacked call, the derivative grids
    # zero-padded to p's shape, have the bits of three evaluate calls
    from bidisk.poly import _horner

    for size in (2, 3, 20, 160):
        p = random_poly(rng, max_deg=12)
        m, n = p.bidegree
        d1, d2 = p.derivative(1), p.derivative(2)
        stack = np.stack([p.coeffs, d1.padded(m, n), d2.padded(m, n)])
        z1, z2 = random_bidisk_points(rng, size)
        for a, b in ((z1, z2), (z1[:, None], z2)):
            val, g1, g2 = _horner(stack, a, b)
            assert np.array_equal(val, p.evaluate(a, b))
            assert np.array_equal(g1, d1.evaluate(a, b))
            assert np.array_equal(g2, d2.evaluate(a, b))


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


def test_coeff_norm_scales_out_overflow(rng):
    # the norm is taken of c 2^-e and scaled back: the bits of the plain
    # 2-norm wherever its squares stay in range, and finite where they do not
    for _ in range(20):
        p = random_poly(rng, max_deg=8)
        assert coeff_norm(p) == float(np.linalg.norm(p.coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coeff_norm(P("1e200 z1^2 z2^2 + 1e200")) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert coeff_norm(Poly1([1e308, 1.0])) == 1e308
        assert coeff_norm(Poly1([5e-324])) == 5e-324
        assert coeff_norm(Poly2.zero()) == 0.0


def test_proportional_negation():
    lam = proportional(P("1 - z1*z2"), P("z1*z2 - 1"))
    assert lam == pytest.approx(-1.0)


def test_proportional_absent():
    assert proportional(P("2 - z1 - z2"), P("2*z1*z2 - z1 - z2")) is None


def test_proportional_complex_scale(rng):
    p = random_poly(rng, max_deg=4)
    lam = proportional(p, 3j * p)
    assert lam == pytest.approx(3j)


def test_proportional_rejects_tolerance_keyword():
    # the tolerance is fixed at rounding level
    with pytest.raises(TypeError, match="tol"):
        proportional(P("1 - z1*z2"), P("z1*z2 - 1"), tol=1.0)


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


@pytest.mark.parametrize("case", MALFORMED_POLY_JSON)
def test_json_rejects_malformed(case):
    with pytest.raises(DegenerateInputError, match="^malformed polynomial JSON: "):
        poly2_from_json_dict(json.loads(MALFORMED_POLY_JSON[case]))


def test_json_reads_integral_floats_and_high_degree():
    d = {"bidegree": [2.0, 300], "coeffs": [{"k": 2.0, "l": 300, "re": 1, "im": -1}]}
    assert poly2_from_json_dict(d) == Poly2.monomial(2, 300, 1 - 1j)
