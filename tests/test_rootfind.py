import warnings

import numpy as np
import pytest

from bidisk.errors import ConvergenceError, DegenerateInputError
from bidisk.poly import Poly1
from bidisk.rootfind import aberth_roots, roots_on_unit_circle


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


def test_aberth_matches_numpy_roots(rng):
    for _ in range(30):
        deg = int(rng.integers(1, 12))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c[-1] += 3.0  # keep leading coefficient away from zero
        mine = np.sort_complex(aberth_roots(Poly1(c)))
        ref = np.sort_complex(np.roots(c[::-1]))
        np.testing.assert_allclose(mine, ref, rtol=1e-6, atol=1e-6)


def test_aberth_handles_origin_roots():
    # z^3 (z - 1): origin roots are stripped exactly
    r = Poly1(np.array([0.0, 0.0, 0.0, -1.0, 1.0]))
    roots = np.sort_complex(aberth_roots(r))
    np.testing.assert_allclose(roots, [0, 0, 0, 1], atol=1e-9)


def test_aberth_roots_of_unity():
    # z^8 - 1, all roots on the circle
    c = np.zeros(9)
    c[0] = -1.0
    c[8] = 1.0
    roots = roots_on_unit_circle(Poly1(c))
    assert len(roots) == 8
    angles = np.sort(np.angle(roots) % (2 * np.pi))
    np.testing.assert_allclose(angles, np.arange(8) * np.pi / 4, atol=1e-9)


def test_degenerate_inputs():
    assert aberth_roots(Poly1(np.array([3.0]))).size == 0
    assert roots_on_unit_circle(Poly1(np.array([3.0]))) == []
    with pytest.raises(DegenerateInputError):
        aberth_roots(Poly1(np.array([0.0])))
    with pytest.raises(DegenerateInputError):
        roots_on_unit_circle(Poly1(np.array([0.0])))


def test_residual_certification(rng):
    # certified roots must actually be roots at the advertised tolerance
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c[-1] += 2.0
    r = Poly1(c)
    scale = float(np.sum(np.abs(c)))
    for rho in aberth_roots(r):
        assert abs(r.evaluate(rho)) <= 1e-10 * scale


def test_near_circle_tolerance():
    # root at radius 1 + 5e-7 is inside the default circle tolerance 1e-6
    rho = 1.0 + 5e-7
    r = Poly1(np.array([-rho, 1.0]))
    roots = roots_on_unit_circle(r)
    assert len(roots) == 1
    # and radius 1 + 1e-4 is not
    rho = 1.0 + 1e-4
    assert roots_on_unit_circle(Poly1(np.array([-rho, 1.0]))) == []


def test_negligible_leading_coefficients_are_dropped():
    # |1e-320 z| is far below eps on the circle; its root at -1e320 is not
    # sought, so the iteration cannot overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert roots_on_unit_circle(Poly1([1.0, 1e-320])) == []
        assert roots_on_unit_circle(Poly1([-1.0, 1.0, 1e-18])) == [1.0]
        # and trailing ones: the root -1e-308 of 1e308 z + 1 is not sought
        assert roots_on_unit_circle(Poly1([1.0, 1e308])) == []
        assert roots_on_unit_circle(Poly1([1e-18, -1.0, 1.0])) == [1.0]


def test_nan_estimates_fail_convergence():
    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError):
            aberth_roots(Poly1([1.0, 1e-320]))


def test_estimate_far_out_converges():
    # the resultant of this zero-free dense polynomial of bidegree 12 with
    # its reflection has degree 218 and coefficients up to 1e59; an Aberth
    # estimate strays to where p and p' overflow, and once it is NaN the
    # repulsion terms make every other estimate NaN too
    from bidisk.operators import reflect
    from bidisk.poly import Poly2
    from bidisk.resultant import resultant_z2_detail
    from bidisk.zeroset import torus_zeros

    rng = np.random.default_rng(897)
    c = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    c[0, 0] = 0.0
    c[0, 0] = 1.5 * np.abs(c).sum() * np.exp(2j * np.pi * rng.random())
    p = Poly2(c)
    res = resultant_z2_detail(p, reflect(p)).trimmed()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = aberth_roots(res)
        assert torus_zeros(p).kind == "empty"
    assert roots.size == res.degree
    ref = np.roots(res.coeffs[::-1])
    assert np.sort(np.abs(roots)) == pytest.approx(np.sort(np.abs(ref)), abs=1e-8)


# The root finder's tolerances are fixed: neither function takes a keyword.
@pytest.mark.parametrize(
    "override",
    [{"circle_tol": 0.5}, {"resid_tol": 1.0}, {"cluster_tol": 0.1}, {"max_iter": 1}],
)
def test_circle_roots_reject_tolerance_keywords(override):
    with pytest.raises(TypeError, match=next(iter(override))):
        roots_on_unit_circle(Poly1([-1.0, 1.0]), **override)


def test_aberth_rejects_iteration_keyword():
    with pytest.raises(TypeError, match="max_iter"):
        aberth_roots(Poly1([-1.0, 1.0]), max_iter=1)
