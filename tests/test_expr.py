import numpy as np
import pytest

from bidisk.errors import ParseError
from bidisk.expr import parse_polynomial, to_expression
from bidisk.poly import Poly2
from conftest import random_poly


@pytest.mark.parametrize(
    "text,grid",
    [
        ("2 - z1 - z2", [[2, -1], [-1, 0]]),
        ("1 - z1*z2", [[1, 0], [0, -1]]),
        ("3", [[3]]),
        ("z2^3", [[0, 0, 0, 1]]),
        ("z1 z2", [[0, 0], [0, 1]]),  # juxtaposition multiplies
        ("2(1 - z1)", [[2], [-2]]),
        ("-z1", [[0], [-1]]),
    ],
)
def test_parse_grids(text, grid):
    assert parse_polynomial(text) == Poly2(np.array(grid, dtype=complex))


def test_parse_binomial_expansion():
    p = parse_polynomial("(1 - z1*z2)^2")
    assert p == parse_polynomial("1 - 2*z1*z2 + z1^2*z2^2")


def test_parse_imaginary_unit():
    p = parse_polynomial("i*z1")
    assert p.coeffs[1, 0] == 1j


def test_z_is_alias_for_z1():
    assert parse_polynomial("1 - z") == parse_polynomial("1 - z1")


def test_parse_scientific_notation():
    p = parse_polynomial("1.5e-3 + 2E2*z2")
    assert p.coeffs[0, 0] == pytest.approx(1.5e-3)
    assert p.coeffs[0, 1] == pytest.approx(200.0)


def test_precedence_power_before_product():
    assert parse_polynomial("2*z1^2") == parse_polynomial("2*(z1^2)")
    assert parse_polynomial("-z1^2").coeffs[2, 0] == -1


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_polynomial("2 - z1 +")
    assert info.value.position == 8

    with pytest.raises(ParseError) as info:
        parse_polynomial("1 + $")
    assert info.value.position == 4


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("1 + z1) ")
    with pytest.raises(ParseError):
        parse_polynomial("")


def test_exponent_must_be_plain_integer():
    with pytest.raises(ParseError):
        parse_polynomial("z1^(2)")
    with pytest.raises(ParseError):
        parse_polynomial("z1^-2")


def test_degree_overflow_guard():
    with pytest.raises(ParseError):
        parse_polynomial("z1^100000")
    with pytest.raises(ParseError):
        parse_polynomial("(z1^200)^200")
    # right at the cap is fine
    parse_polynomial("z1^256")


def test_parse_rejects_degree_cap_keyword():
    # the cap is fixed at DEFAULT_MAX_DEGREE
    with pytest.raises(TypeError, match="max_degree"):
        parse_polynomial("z1^300", max_degree=400)


def test_serialize_round_trip_random(rng):
    for _ in range(40):
        p = random_poly(rng, max_deg=7, sparsity=0.5)
        text = to_expression(p)
        q = parse_polynomial(text)
        assert p == q, text


def test_serialize_round_trip_real_coeffs(rng):
    for _ in range(10):
        p = random_poly(rng, max_deg=5, complex_coeffs=False)
        assert parse_polynomial(to_expression(p)) == p


def test_serialize_zero():
    assert parse_polynomial(to_expression(Poly2.zero())) == Poly2.zero()
