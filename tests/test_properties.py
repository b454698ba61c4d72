"""Property tests of distance scans over generated polynomials, and of the
torus class under rotation.

Each f has bidegree at most (2, 2) and a constant term larger than the sum
of the other coefficient moduli, so it has no zero on the closed bidisk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidisk import parse_polynomial, torus_zeros
from bidisk.approximant import BasisSpec, basis_monomials, distance_scan, optimal_approximant
from bidisk.operators import rotate
from bidisk.poly import Poly2
from bidisk.spaces import iso
from test_approximant import dense_lstsq_distance_sq, per_row_distances_sq

unit = st.floats(-1.0, 1.0, allow_nan=False)
angle = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


@st.composite
def dominant_constant_polys(draw):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(0, 2))
    re = draw(st.lists(unit, min_size=(m + 1) * (n + 1), max_size=(m + 1) * (n + 1)))
    im = draw(st.lists(unit, min_size=(m + 1) * (n + 1), max_size=(m + 1) * (n + 1)))
    c = (np.array(re) + 1j * np.array(im)).reshape(m + 1, n + 1)
    c[0, 0] = 0.0
    c[0, 0] = np.abs(c).sum() + draw(st.floats(0.1, 2.0))
    return Poly2(c)


scan_args = dict(
    f=dominant_constant_polys(),
    alpha=st.floats(-2.0, 3.0, allow_nan=False),
    n_max=st.integers(0, 8),
    family=st.sampled_from(["total", "diagonal"]),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**scan_args)
def test_scan_in_unit_interval_and_non_increasing(f, alpha, n_max, family):
    d2 = [r.distance_squared for r in distance_scan(f, iso(alpha), n_max, family=family)]
    assert all(-1e-12 <= d <= 1.0 + 1e-12 for d in d2)
    assert all(b <= a + 1e-12 for a, b in zip(d2, d2[1:]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(theta=angle, phi=angle, **scan_args)
def test_scan_unchanged_by_rotation(f, alpha, n_max, family, theta, phi):
    a = distance_scan(f, iso(alpha), n_max, family=family)
    b = distance_scan(rotate(f, np.exp(1j * theta), np.exp(1j * phi)), iso(alpha), n_max, family=family)
    for ra, rb in zip(a, b):
        assert rb.distance_squared == pytest.approx(ra.distance_squared, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    f=dominant_constant_polys(),
    alpha=st.floats(-12.0, 3.0, allow_nan=False),
    n_max=st.integers(0, 10),
    family=st.sampled_from(["total", "diagonal"]),
)
def test_scan_matches_dense_least_squares(f, alpha, n_max, family):
    # negative alpha spreads the Gram pivots over many decades; every row
    # must still match one SVD least squares solve for its basis alone.  A
    # constant f has d = 0 exactly, hence the absolute floor.
    sp = iso(alpha)
    for row in distance_scan(f, sp, n_max, family=family):
        basis = basis_monomials(BasisSpec(family, row.n))
        want = dense_lstsq_distance_sq(f, sp, basis)
        assert row.distance_squared == pytest.approx(want, rel=1e-9, abs=1e-15)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    f=dominant_constant_polys(),
    alpha=st.floats(-12.0, 3.0, allow_nan=False),
    n_max=st.integers(0, 10),
    n2=st.integers(0, 6),
)
def test_blocked_rows_match_per_row_solves(f, alpha, n_max, n2):
    # every row of a scan, and the box approximant, equals the prefix
    # solver run one row at a time.  A constant f has d = 0 up to rounding.
    sp = iso(alpha)
    tol = dict(rel=1e-13, abs=0.0) if f.bidegree != (0, 0) else dict(abs=1e-15)
    for family in ("total", "diagonal"):
        rows = distance_scan(f, sp, n_max, family=family)
        basis = basis_monomials(BasisSpec(family, n_max))
        want = per_row_distances_sq(f, sp, basis, [row.basis_size for row in rows])
        assert [row.distance_squared for row in rows] == pytest.approx(want, **tol)
    spec = BasisSpec.box(n_max, n2)
    basis = basis_monomials(spec)
    got = optimal_approximant(f, spec, sp).distance_squared
    assert got == pytest.approx(per_row_distances_sq(f, sp, basis, [len(basis)])[0], **tol)


# each touches the torus at (1, 1) only, the square and the product with a
# zero-free factor at a multiple root of the resultant
TANGENT = ["2 - z1 - z2", "(2 - z1 - z2)^2", "(2 - z1 - z2)*(3 - z1 - z2)"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(theta=angle, phi=angle, text=st.sampled_from(TANGENT))
def test_rotated_tangent_point_found_once(theta, phi, text):
    zeta, eta = np.exp(1j * theta), np.exp(1j * phi)
    cls = torus_zeros(rotate(parse_polynomial(text), zeta, eta))
    assert cls.kind == "finite"
    assert len(cls.points) == 1
    (z1, z2), = cls.points
    assert max(abs(z1 - np.conj(zeta)), abs(z2 - np.conj(eta))) <= 1e-6
