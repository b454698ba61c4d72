import warnings

import numpy as np
import pytest

from bidisk.errors import DegenerateInputError
from bidisk.poly import Poly1
from bidisk.zeroset import roots_on_unit_circle


def test_double_root_collapsed():
    r = Poly1(np.array([2.0, -4.0, 2.0]))  # 2(z-1)^2
    roots = roots_on_unit_circle(r)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-6)


def test_off_circle_root_excluded():
    r = Poly1(np.array([-2.0, 1.0]))  # z - 2
    assert roots_on_unit_circle(r) == []


def test_plus_minus_i():
    r = Poly1(np.array([1.0, 0.0, 1.0]))  # z^2 + 1
    roots = roots_on_unit_circle(r)
    assert len(roots) == 2
    # sorted by angle in [0, 2pi): +i first
    assert roots[0] == pytest.approx(1j, abs=1e-9)
    assert roots[1] == pytest.approx(-1j, abs=1e-9)


def test_trailing_zeros_drop_the_origin_roots():
    # z^3 (z - 1): the origin roots are dropped with the trailing zeros
    r = Poly1(np.array([0.0, 0.0, 0.0, -1.0, 1.0]))
    assert roots_on_unit_circle(r) == [1.0]


def test_eighth_roots_of_unity_sorted_by_angle():
    # z^8 - 1, all roots on the circle
    c = np.zeros(9)
    c[0] = -1.0
    c[8] = 1.0
    roots = roots_on_unit_circle(Poly1(c))
    assert len(roots) == 8
    angles = np.sort(np.angle(roots) % (2 * np.pi))
    np.testing.assert_allclose(angles, np.arange(8) * np.pi / 4, atol=1e-9)


def test_degenerate_inputs():
    assert roots_on_unit_circle(Poly1(np.array([3.0]))) == []
    with pytest.raises(DegenerateInputError):
        roots_on_unit_circle(Poly1(np.array([0.0])))


def test_residual_certification(rng):
    # certified roots must actually be roots at the advertised tolerance:
    # a random factor times (z - 1)(z + i)^2
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    c[-1] += 2.0
    c = np.convolve(np.convolve(c, [-1.0, 1.0]), np.convolve([1j, 1.0], [1j, 1.0]))
    r = Poly1(c)
    scale = float(np.linalg.norm(c))
    roots = roots_on_unit_circle(r)
    assert any(abs(rho - 1.0) <= 1e-6 for rho in roots)
    assert any(abs(rho + 1j) <= 1e-5 for rho in roots)
    for rho in roots:
        assert abs(r.evaluate(rho)) <= 1e-10 * scale


def test_near_circle_tolerance():
    # the root 1 + 5e-7 is known to rounding, so its inclusion disc misses
    # the circle; the root of 1 - z lies on it, once
    assert roots_on_unit_circle(Poly1(np.array([-(1.0 + 5e-7), 1.0]))) == []
    assert roots_on_unit_circle(Poly1(np.array([1.0, -1.0]))) == [1.0]
    # and radius 1 + 1e-4 is not on it either
    rho = 1.0 + 1e-4
    assert roots_on_unit_circle(Poly1(np.array([-rho, 1.0]))) == []


@pytest.mark.parametrize("root, power", [(-3.0, 2), (-2 - 4j, 2), (2.0, 3), (0.5j, 4)])
def test_multiple_root_off_circle_is_not_on_it(root, power):
    # np.roots returns these multiple roots as equal or nearly equal
    # estimates, whose inclusion discs are spread before they are taken
    c = np.array([1.0 + 0j])
    for _ in range(power):
        c = np.convolve(c, [-root, 1.0])
    assert roots_on_unit_circle(Poly1(c)) == []
    roots = roots_on_unit_circle(Poly1(np.convolve(c, [1.0, -2.0, 1.0])))
    assert len(roots) == 1 and abs(roots[0] - 1.0) <= 1e-12


def test_negligible_leading_coefficients_are_dropped():
    # |1e-320 z| is far below eps on the circle; its root at -1e320 is not
    # sought, so the companion matrix cannot overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert roots_on_unit_circle(Poly1([1.0, 1e-320])) == []
        assert roots_on_unit_circle(Poly1([-1.0, 1.0, 1e-18])) == [1.0]
        # and trailing ones: the root -1e-308 of 1e308 z + 1 is not sought
        assert roots_on_unit_circle(Poly1([1.0, 1e308])) == []
        assert roots_on_unit_circle(Poly1([1e-18, -1.0, 1.0])) == [1.0]


def test_degree_218_resultant_has_no_circle_roots():
    # the resultant of this zero-free dense polynomial of bidegree 12 with
    # its reflection has degree 218, coefficients up to 1e59 and roots far
    # out; none of them is on the circle, and none raises a warning
    from bidisk.operators import reflect
    from bidisk.poly import Poly2
    from bidisk.zeroset import resultant_z2_detail, torus_zeros

    rng = np.random.default_rng(897)
    c = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    c[0, 0] = 0.0
    c[0, 0] = 1.5 * np.abs(c).sum() * np.exp(2j * np.pi * rng.random())
    p = Poly2(c)
    res = resultant_z2_detail(p, reflect(p)).trimmed()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert roots_on_unit_circle(res) == []
        assert torus_zeros(p).kind == "empty"


# The root finder's tolerances are fixed: it takes no keyword for them.
@pytest.mark.parametrize(
    "override",
    [{"circle_tol": 0.5}, {"resid_tol": 1.0}, {"cluster_tol": 0.1}],
)
def test_circle_roots_reject_tolerance_keywords(override):
    with pytest.raises(TypeError, match=next(iter(override))):
        roots_on_unit_circle(Poly1([-1.0, 1.0]), **override)
