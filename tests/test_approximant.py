"""Optimal approximant solver against brute-force and closed-form oracles.

The closed forms for 1 - z1 and 1 - z1*z2 are validated here against a
brute-force path that shares no code with the production solver: Gram
matrices assembled entry by entry from direct inner products and solved
with numpy's generic solver.
"""

import numpy as np
import pytest
import scipy.special

from bidisk.approximant import (
    BasisSpec,
    DecayConfig,
    DecayVerdict,
    assemble_gram,
    basis_monomials,
    closed_form_distance,
    decay_diagnostic,
    distance_scan,
    evaluation_bound_certificate,
    solve_normal_equations,
)
from bidisk.errors import DegenerateInputError, NumericalError
from bidisk.expr import parse_polynomial as P
from bidisk.operators import rotate
from bidisk.poly import Poly2
from bidisk.spaces import inner_product, iso, norm_squared
from conftest import random_poly


def brute_distance_sq(f, space, basis):
    """Independent least-squares distance: direct inner products + np.linalg.solve."""
    mults = [Poly2.monomial(k, l) * f for (k, l) in basis]
    nb = len(basis)
    G = np.empty((nb, nb), dtype=np.complex128)
    v = np.empty(nb, dtype=np.complex128)
    one = Poly2.const(1.0)
    for i in range(nb):
        v[i] = inner_product(one, mults[i], space)
        for j in range(nb):
            G[i, j] = inner_product(mults[j], mults[i], space)
    c = np.linalg.solve(G, v)
    p = Poly2.zero()
    for (k, l), ci in zip(basis, c):
        p = p + Poly2.monomial(k, l) * complex(ci)
    return norm_squared(p * f - one, space)


# --------------------------------------------------------------- basis order


def test_basis_total_degree_order():
    assert basis_monomials(BasisSpec.total(1)) == [(0, 0), (0, 1), (1, 0)]


def test_basis_diagonal_order():
    assert basis_monomials(BasisSpec.diagonal(2)) == [(0, 0), (1, 1), (2, 2)]


def test_basis_box_order():
    assert basis_monomials(BasisSpec.box(1, 0)) == [(0, 0), (1, 0)]


def test_basis_prefix_property():
    # graded order makes smaller total-degree bases prefixes of larger ones
    small = basis_monomials(BasisSpec.total(3))
    big = basis_monomials(BasisSpec.total(6))
    assert big[: len(small)] == small


# --------------------------------------------------------------- hand values


def test_hand_gram_alpha0():
    sys = assemble_gram(P("2 - z1 - z2"), BasisSpec.total(0), iso(0.0))
    np.testing.assert_allclose(sys.matrix, [[6.0]], atol=1e-14)
    np.testing.assert_allclose(sys.rhs, [2.0], atol=1e-14)
    res = solve_normal_equations(sys)
    assert abs(res.p.coeffs[0, 0] - 1.0 / 3.0) <= 1e-12
    assert abs(res.distance_squared - 1.0 / 3.0) <= 1e-12


def test_hand_gram_one_minus_z1():
    sys = assemble_gram(P("1 - z1"), BasisSpec.total(0), iso(1.0))
    np.testing.assert_allclose(sys.matrix, [[3.0]], atol=1e-14)
    np.testing.assert_allclose(sys.rhs, [1.0], atol=1e-14)
    res = solve_normal_equations(sys)
    assert res.distance_squared == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_hand_gram_diagonal():
    sys = assemble_gram(P("1 - z1*z2"), BasisSpec.diagonal(0), iso(1.5))
    np.testing.assert_allclose(sys.matrix, [[1 + 3**1.5]], rtol=1e-14)
    np.testing.assert_allclose(sys.rhs, [1.0], atol=1e-14)


def test_vanishing_constant_term_gives_distance_one():
    res = solve_normal_equations(assemble_gram(P("z1"), BasisSpec.total(2), iso(1.0)))
    assert res.distance_squared == pytest.approx(1.0, abs=1e-12)
    assert res.p == Poly2.zero()


def test_gram_rejects_zero_polynomial():
    with pytest.raises(DegenerateInputError):
        assemble_gram(Poly2.zero(), BasisSpec.total(1), iso(1.0))


def test_gram_hermitian(rng):
    f = random_poly(rng, max_deg=4)
    sys = assemble_gram(f, BasisSpec.total(3), iso(1.3))
    g = sys.matrix
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12 * np.max(np.abs(g))


# ------------------------------------------------------------------- oracles


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0])
def test_closed_form_one_minus_z1_vs_brute_force(alpha):
    f = P("1 - z1")
    sp = iso(alpha)
    for n in range(7):
        want = closed_form_distance("one_minus_z1", alpha, n)
        brute = brute_distance_sq(f, sp, basis_monomials(BasisSpec.total(n)))
        prod = solve_normal_equations(assemble_gram(f, BasisSpec.total(n), sp)).distance_squared
        assert abs(brute - want) <= 1e-9 * want
        assert abs(prod - want) <= 1e-9 * want


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0])
def test_closed_form_diagonal_vs_brute_force(alpha):
    f = P("1 - z1*z2")
    sp = iso(alpha)
    for n in range(7):
        want = closed_form_distance("one_minus_z1z2", alpha, n)
        brute = brute_distance_sq(f, sp, basis_monomials(BasisSpec.diagonal(n)))
        prod = solve_normal_equations(
            assemble_gram(f, BasisSpec.diagonal(n), sp)
        ).distance_squared
        assert abs(brute - want) <= 1e-9 * want
        assert abs(prod - want) <= 1e-9 * want


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_total_degree_solve_collapses_to_diagonal(alpha):
    # off-diagonal multiples never help for 1 - z1*z2, so the full bivariate
    # solve at total degree n equals the diagonal closed form at floor(n/2)
    f = P("1 - z1*z2")
    sp = iso(alpha)
    for n in range(5):
        got = brute_distance_sq(f, sp, basis_monomials(BasisSpec.total(n)))
        want = closed_form_distance("one_minus_z1z2", alpha, n // 2)
        assert abs(got - want) <= 1e-9 * want


def test_closed_form_spot_values():
    assert closed_form_distance("one_minus_z1", 1.0, 1) == pytest.approx(6.0 / 11.0)
    assert closed_form_distance("one_minus_z1z2", 1.5, 0) == pytest.approx(
        1.0 / (1.0 + 3.0**-1.5)
    )
    for alpha in (-1.0, 0.0, 0.7, 2.0):
        assert closed_form_distance("one_minus_z1", alpha, 0) == pytest.approx(
            1.0 / (1.0 + 2.0**-alpha)
        )


# ---------------------------------------------------------------- invariants


def test_residual_orthogonality(rng):
    f = P("2 - z1 - z2")
    sp = iso(1.5)
    res = solve_normal_equations(assemble_gram(f, BasisSpec.total(4), sp))
    fn = np.sqrt(norm_squared(f, sp))
    for k, l in basis_monomials(BasisSpec.total(4)):
        ip = inner_product(res.residual, Poly2.monomial(k, l) * f, sp)
        assert abs(ip) <= 1e-9 * max(fn, 1.0)


def test_distance_in_unit_interval(rng):
    for _ in range(10):
        f = random_poly(rng, max_deg=3)
        if abs(f.coeffs[0, 0]) < 1e-9:
            continue
        f = Poly2(f.coeffs / np.linalg.norm(f.coeffs))
        res = solve_normal_equations(assemble_gram(f, BasisSpec.total(3), iso(0.8)))
        assert -1e-12 <= res.distance_squared <= 1.0 + 1e-12


def test_scan_matches_individual_solves():
    f = P("2 - z1 - z2")
    sp = iso(1.5)
    rows = distance_scan(f, sp, 6)
    assert [r.n for r in rows] == list(range(7))
    for row in rows:
        single = solve_normal_equations(assemble_gram(f, BasisSpec.total(row.n), sp))
        assert row.distance_squared == pytest.approx(single.distance_squared, abs=1e-11)
        assert row.basis_size == len(basis_monomials(BasisSpec.total(row.n)))


def test_scan_monotone(rng):
    f = random_poly(rng, max_deg=2)
    if abs(f.coeffs[0, 0]) < 1e-6:
        f = f + Poly2.const(1.0)
    rows = distance_scan(f, iso(0.5), 8)
    d = [r.distance for r in rows]
    for a, b in zip(d, d[1:]):
        assert b <= a + 1e-10


def test_scan_rotation_invariant(rng):
    f = P("2 - z1 - z2")
    zeta = np.exp(1j * 0.9)
    eta = np.exp(-1j * 1.7)
    a = distance_scan(f, iso(1.5), 5)
    b = distance_scan(rotate(f, zeta, eta), iso(1.5), 5)
    for ra, rb in zip(a, b):
        assert rb.distance_squared == pytest.approx(ra.distance_squared, abs=1e-10)


@pytest.mark.parametrize("family", ["total", "diagonal"])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.5, 3.0])
def test_banded_scan_matches_dense_solves(rng, family, alpha):
    # the banded scan against one dense factorization per row
    sp = iso(alpha)
    n_max = 6 if family == "total" else 8
    spec = BasisSpec.total if family == "total" else BasisSpec.diagonal
    for _ in range(3):
        f = random_poly(rng, max_deg=3) + Poly2.const(2.0)
        rows = distance_scan(f, sp, n_max, family=family)
        for row in rows:
            dense = solve_normal_equations(assemble_gram(f, spec(row.n), sp))
            assert row.method == dense.method == "cholesky"
            assert row.distance_squared == pytest.approx(dense.distance_squared, rel=1e-12)


def test_scan_at_total_degree_150_matches_closed_form():
    rows = distance_scan(P("1 - z1"), iso(1.0), 150)
    assert rows[-1].basis_size == 151 * 152 // 2
    for row in rows:
        want = closed_form_distance("one_minus_z1", 1.0, row.n)
        assert row.distance_squared == pytest.approx(want, rel=1e-9)


def test_diagonal_family_scan():
    f = P("1 - z1*z2")
    rows = distance_scan(f, iso(1.0), 10, family="diagonal")
    for row in rows:
        want = closed_form_distance("one_minus_z1z2", 1.0, row.n)
        assert row.distance_squared == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------------ decay


def harmonic_reciprocal(nmax):
    j = np.arange(1, nmax + 3, dtype=float)
    h = np.cumsum(1.0 / j)
    return [1.0 / h[n + 1] for n in range(nmax + 1)]


def partial_zeta_reciprocal(alpha, nmax):
    j = np.arange(1, nmax + 3, dtype=float)
    s = np.cumsum(j**-alpha)
    return [1.0 / s[n + 1] for n in range(nmax + 1)]


def test_decay_harmonic_is_decaying():
    v = decay_diagnostic(harmonic_reciprocal(200))
    assert v.label == "decaying"


def test_decay_partial_zeta_is_plateau():
    v = decay_diagnostic(partial_zeta_reciprocal(2.0, 50))
    assert v.label == "plateau"
    assert v.limit_estimate == pytest.approx(6.0 / np.pi**2, rel=0.02)


def test_decay_constant_is_plateau():
    v = decay_diagnostic([0.5] * 12)
    assert v.label == "plateau"
    assert v.limit_estimate == pytest.approx(0.5, abs=1e-9)


def test_decay_preconditions():
    with pytest.raises(DegenerateInputError):
        decay_diagnostic([1.0, 0.5, 0.25])  # too short
    with pytest.raises(DegenerateInputError):
        decay_diagnostic([0.5, 0.6] + [0.4] * 8)  # increasing step


def test_decay_zero_sequence_is_exact():
    v = decay_diagnostic([0.0] * 10)
    assert v == DecayVerdict("decaying", 0.0, "exact", (), 0.0)


def test_decay_plateau_floor_config():
    # a long window that has genuinely flattened at 5e-4, which sits below
    # the default plateau floor but above a lowered one
    vals = [5e-4 + 0.3 / (n + 1.0) ** 1.5 for n in range(2000)]
    v = decay_diagnostic(vals)
    assert v.label != "plateau"
    v2 = decay_diagnostic(vals, DecayConfig(plateau_floor=1e-5))
    assert v2.label == "plateau"
    assert v2.limit_estimate == pytest.approx(5e-4, rel=0.05)


# ------------------------------------------------------------- certificates


def test_certificate_values():
    assert evaluation_bound_certificate(3.0) == pytest.approx(np.sqrt(6.0) / np.pi, rel=1e-12)
    assert evaluation_bound_certificate(4.0) == pytest.approx(
        1.0 / np.sqrt(scipy.special.zeta(3.0)), rel=1e-12
    )
    assert evaluation_bound_certificate(2.5) == pytest.approx(
        1.0 / np.sqrt(scipy.special.zeta(1.5)), rel=1e-12
    )


def test_certificate_domain_and_point_check():
    with pytest.raises(DegenerateInputError):
        evaluation_bound_certificate(2.0)
    with pytest.raises(DegenerateInputError):
        evaluation_bound_certificate(3.0, torus_zero=(0.5, 1.0))
    assert evaluation_bound_certificate(3.0, torus_zero=(1.0, 1.0)) > 0


def test_certificate_respected_by_scan():
    f = P("2 - z1 - z2")
    cert = evaluation_bound_certificate(3.0)
    rows = distance_scan(f, iso(3.0), 12)
    for row in rows:
        assert row.distance >= cert - 1e-6


# ------------------------------------------------------------ QR fallback


def test_qr_fallback_on_ill_conditioned_system():
    # strongly negative alpha crushes the high-degree weights, so the Gram
    # pivots collapse relative to the trace and the least squares route
    # must take over
    f = P("1 - z1")
    sys = assemble_gram(f, BasisSpec.box(40, 0), iso(-8.0))
    res = solve_normal_equations(sys)
    assert res.method == "qr"
    assert 0.0 <= res.distance_squared <= 1.0
    # the ill conditioned route still matches the closed form
    assert res.distance_squared == pytest.approx(
        closed_form_distance("one_minus_z1", -8.0, 40), rel=1e-6
    )


def test_scan_qr_route_matches_closed_form():
    # at alpha = -8 the nmax 40 factor trips the pivot gate, so every row
    # of the scan takes the least squares route on the weighted operator
    rows = distance_scan(P("1 - z1"), iso(-8.0), 40)
    assert len(rows) == 41
    for row in rows:
        assert row.method == "qr"
        want = closed_form_distance("one_minus_z1", -8.0, row.n)
        assert row.distance_squared == pytest.approx(want, rel=1e-6)


def test_solver_rejects_singular_system():
    from bidisk.approximant import GramSystem

    g = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
    v = np.array([1.0, 1.0], dtype=np.complex128)
    sys = GramSystem(
        f=P("1 - z1"),
        space=iso(0.0),
        basis_spec=BasisSpec.box(1, 0),
        basis=[(0, 0), (1, 0)],
        matrix=g,
        rhs=v,
    )
    with pytest.raises(NumericalError):
        solve_normal_equations(sys)
