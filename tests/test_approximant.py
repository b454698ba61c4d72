"""Optimal approximant solver against brute-force and closed-form oracles.

The closed forms for 1 - z1 and 1 - z1*z2 are validated here against a
brute-force path that shares no code with the production solver: Gram
matrices assembled entry by entry from direct inner products and solved
with numpy's generic solver.  The production solver is also checked row
by row against dense solves for each basis alone, kept in this module:
one dense Cholesky factorization and one SVD least squares.  The decay
fits are checked against bounded ``scipy.optimize.least_squares`` fits of
the same models, also kept here.
"""

import re
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.linalg import solve_triangular
from scipy.optimize import least_squares

from bidisk import approximant
from bidisk.approximant import (
    BasisSpec,
    DecayVerdict,
    _band_cholesky,
    _check_block_width,
    _graded_exponents,
    _gram_band,
    _renumber,
    _weighted_operator,
    basis_monomials,
    closed_form_distance,
    decay_diagnostic,
    distance_scan,
    evaluation_bound_certificate,
    optimal_approximant,
)
from bidisk.errors import DegenerateInputError, NumericalError
from bidisk.expr import parse_polynomial as P
from bidisk.operators import rotate
from bidisk.poly import Poly2
from bidisk.spaces import inner_product, iso, norm_squared
from conftest import random_poly


def _exponents(basis):
    return np.array(basis, dtype=np.int64).reshape(-1, 2)


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


def _operator(f, spec, space):
    return _weighted_operator(f, _exponents(basis_monomials(spec)), space)


def _residual_norm(f, space, basis, c):
    p = Poly2.zero()
    for (k, l), ci in zip(basis, c):
        p = p + Poly2.monomial(k, l) * complex(ci)
    return norm_squared(p * f - Poly2.const(1.0), space)


def dense_cholesky_distance_sq(f, space, basis):
    """One dense Cholesky factorization of G = A^H A for this basis alone."""
    a = _weighted_operator(f, _exponents(basis), space)
    g = (a.conj().T @ a).toarray()
    g = 0.5 * (g + g.conj().T)
    v = a[0].conj().toarray().ravel()
    low = np.linalg.cholesky(g)
    c = solve_triangular(low, solve_triangular(low, v, lower=True), lower=True, trans="C")
    return _residual_norm(f, space, basis, c)


def per_row_distances_sq(f, space, basis, sizes):
    """The prefix solver one row at a time: one banded back substitution
    and one sparse residual product A c - e_0 per prefix size."""
    a = _weighted_operator(f, _exponents(basis), space)
    low = _band_cholesky(_gram_band(a))
    v = a[0].conj().toarray().ravel()  # v = A^H e_0
    y = approximant._band_solve(low, v, "N")
    out = []
    for size in sizes:
        padded = np.zeros(len(basis), dtype=np.complex128)
        padded[:size] = approximant._band_solve(low[:, :size], y[:size], "C")
        residual = a @ padded
        residual[0] -= 1.0
        out.append(min(max(float(np.sum(residual.real**2 + residual.imag**2)), 0.0), 1.0))
    return out


def dense_lstsq_distance_sq(f, space, basis):
    """SVD least squares min ||A c - e_0|| on the rows A reaches, for this
    basis alone."""
    a = _weighted_operator(f, _exponents(basis), space).toarray()
    rows = np.union1d(np.nonzero(np.any(a != 0, axis=1))[0], 0)
    t = np.zeros(rows.size, dtype=np.complex128)
    t[0] = 1.0
    c, *_ = np.linalg.lstsq(a[rows], t, rcond=None)
    return _residual_norm(f, space, basis, c)


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


def test_graded_exponents_match_basis_monomials():
    for n in range(61):
        specs = [BasisSpec.total(n), BasisSpec.diagonal(n)]
        specs += [BasisSpec.box(n, n2) for n2 in sorted({0, 1, 7, n, 60 - n})]
        for spec in specs:
            assert _graded_exponents(spec).tolist() == [list(e) for e in basis_monomials(spec)]


def test_renumber_routes_agree():
    # the same keys through the mask (a small range) and through np.unique
    # (a range far larger than the keys)
    rng = np.random.default_rng(5)
    keys = rng.integers(1, 100, size=(40, 3))
    masked = _renumber(keys, 100)
    sorted_ = _renumber(keys, 10**6)
    for reached, index in (masked, sorted_):
        assert reached.tolist() == sorted({0, *keys.ravel().tolist()})
        assert np.array_equal(reached[index], keys)
    assert np.array_equal(masked[1], sorted_[1])


# --------------------------------------------------------------- hand values


def test_hand_gram_alpha0():
    a = _operator(P("2 - z1 - z2"), BasisSpec.total(0), iso(0.0))
    np.testing.assert_allclose((a.conj().T @ a).toarray(), [[6.0]], atol=1e-14)
    np.testing.assert_allclose(a[0].conj().toarray().ravel(), [2.0], atol=1e-14)
    res = optimal_approximant(P("2 - z1 - z2"), BasisSpec.total(0), iso(0.0))
    assert abs(res.p.coeffs[0, 0] - 1.0 / 3.0) <= 1e-12
    assert abs(res.distance_squared - 1.0 / 3.0) <= 1e-12


def test_hand_gram_one_minus_z1():
    a = _operator(P("1 - z1"), BasisSpec.total(0), iso(1.0))
    np.testing.assert_allclose((a.conj().T @ a).toarray(), [[3.0]], atol=1e-14)
    np.testing.assert_allclose(a[0].conj().toarray().ravel(), [1.0], atol=1e-14)
    res = optimal_approximant(P("1 - z1"), BasisSpec.total(0), iso(1.0))
    assert res.distance_squared == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_hand_gram_diagonal():
    a = _operator(P("1 - z1*z2"), BasisSpec.diagonal(0), iso(1.5))
    np.testing.assert_allclose((a.conj().T @ a).toarray(), [[1 + 3**1.5]], rtol=1e-14)
    np.testing.assert_allclose(a[0].conj().toarray().ravel(), [1.0], atol=1e-14)


def test_vanishing_constant_term_gives_distance_one():
    res = optimal_approximant(P("z1"), BasisSpec.total(2), iso(1.0))
    assert res.distance_squared == pytest.approx(1.0, abs=1e-12)
    assert res.p == Poly2.zero()


def test_gram_rejects_zero_polynomial():
    with pytest.raises(DegenerateInputError):
        _operator(Poly2.zero(), BasisSpec.total(1), iso(1.0))
    with pytest.raises(DegenerateInputError):
        optimal_approximant(Poly2.zero(), BasisSpec.total(1), iso(1.0))


def test_gram_hermitian(rng):
    # the band holds the lower triangle of G; mirrored, it must be the
    # Hermitian matrix of direct inner products
    f = random_poly(rng, max_deg=4)
    sp = iso(1.3)
    basis = basis_monomials(BasisSpec.total(3))
    band = _gram_band(_weighted_operator(f, _exponents(basis), sp))
    nb = len(basis)
    g = np.zeros((nb, nb), dtype=np.complex128)
    for d in range(band.shape[0]):
        idx = np.arange(nb - d)
        g[idx + d, idx] = band[d, : nb - d]
        g[idx, idx + d] = np.conj(band[d, : nb - d])
    mults = [Poly2.monomial(k, l) * f for (k, l) in basis]
    want = np.array([[inner_product(mj, mi, sp) for mj in mults] for mi in mults])
    assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------------- oracles


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0])
def test_closed_form_one_minus_z1_vs_brute_force(alpha):
    f = P("1 - z1")
    sp = iso(alpha)
    for n in range(7):
        want = closed_form_distance("one_minus_z1", alpha, n)
        brute = brute_distance_sq(f, sp, basis_monomials(BasisSpec.total(n)))
        prod = optimal_approximant(f, BasisSpec.total(n), sp).distance_squared
        assert abs(brute - want) <= 1e-9 * want
        assert abs(prod - want) <= 1e-9 * want


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.0])
def test_closed_form_diagonal_vs_brute_force(alpha):
    f = P("1 - z1*z2")
    sp = iso(alpha)
    for n in range(7):
        want = closed_form_distance("one_minus_z1z2", alpha, n)
        brute = brute_distance_sq(f, sp, basis_monomials(BasisSpec.diagonal(n)))
        prod = optimal_approximant(f, BasisSpec.diagonal(n), sp).distance_squared
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
    res = optimal_approximant(f, BasisSpec.total(4), sp)
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
        res = optimal_approximant(f, BasisSpec.total(3), iso(0.8))
        assert -1e-12 <= res.distance_squared <= 1.0 + 1e-12


def test_scan_matches_individual_solves():
    f = P("2 - z1 - z2")
    sp = iso(1.5)
    rows = distance_scan(f, sp, 6)
    assert [r.n for r in rows] == list(range(7))
    for row in rows:
        single = optimal_approximant(f, BasisSpec.total(row.n), sp)
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
            dense = dense_cholesky_distance_sq(f, sp, basis_monomials(spec(row.n)))
            assert row.distance_squared == pytest.approx(dense, rel=1e-12, abs=0.0)


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


def test_decay_nan_sequence_is_inconclusive():
    # every model's profiled residual is non-finite, so no fit survives and
    # nothing is guessed
    v = decay_diagnostic([float("nan")] * 10)
    assert v.label == "inconclusive"
    assert v.fit_model == "none"
    assert v.limit_estimate is None


def test_decay_plateau_floor_config():
    # a long window that has genuinely flattened at 5e-4, which sits below
    # the plateau floor
    vals = [5e-4 + 0.3 / (n + 1.0) ** 1.5 for n in range(2000)]
    v = decay_diagnostic(vals)
    assert v.label != "plateau"


# Reference decay fits: each model by bounded least_squares from a fixed
# start, as (model(theta, n), x0(n, y), bounds).  Its default tolerances
# stop up to 1e-4 short of the minimiser in the parameters, so the reference
# runs them at 1e-15.
_REFERENCE_MODELS = {
    "c/log(n+c0)": (
        lambda t, n: t[0] / np.log(n + t[1]),
        lambda n, y: [y[0] * np.log(n[0] + 2.0), 2.0],
        ([0.0, 1.05], [np.inf, 1e6]),
    ),
    "c*n^-beta": (
        lambda t, n: t[0] * n ** (-t[1]),
        lambda n, y: [y[0], 0.5],
        ([0.0, 1e-3], [np.inf, 20.0]),
    ),
    "dinf+c*n^-beta": (
        lambda t, n: t[0] + t[1] * n ** (-t[2]),
        lambda n, y: [max(y[-1] * 0.9, 1e-12), max(y[0] - y[-1], 1e-12), 0.7],
        ([0.0, 0.0, 1e-3], [np.inf, np.inf, 20.0]),
    ),
}


def reference_fit(model, n, y):
    name = model[0]
    curve, x0, bounds = _REFERENCE_MODELS[name]
    try:
        sol = least_squares(
            lambda t: curve(t, n) - y, x0=x0(n, y), bounds=bounds, ftol=1e-15, xtol=1e-15, gtol=1e-15
        )
    except (ValueError, np.linalg.LinAlgError):
        return None
    return (name, tuple(sol.x), approximant._rel_residual(y, curve(sol.x, n)))


def decay_corpus():
    """Distance-squared sequences of every kind the label sees."""
    rng = np.random.default_rng(1713)
    seqs = []
    for degree, nmax in ((2, 24), (4, 16), (8, 12)):
        c = rng.standard_normal((degree + 1, degree + 1)) + 1j * rng.standard_normal((degree + 1, degree + 1))
        c[0, 0] = 0.0
        c[0, 0] = 1.5 * np.abs(c).sum()
        for alpha in (0.5, 3.0):
            seqs.append([r.distance_squared for r in distance_scan(Poly2(c), iso(alpha), nmax)])
    for text, nmax, family in (
        ("2 - z1 - z2", 28, "total"),
        ("1 - z1*z2", 28, "total"),
        ("1 - z1*z2", 120, "diagonal"),
        ("(1 - z1)*(1 - z2)", 16, "total"),
    ):
        zeta, eta = np.exp(2j * np.pi * rng.random(2))
        f = rotate(P(text), zeta, eta)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            seqs.append([r.distance_squared for r in distance_scan(f, iso(alpha), nmax, family=family)])
    seqs.append(harmonic_reciprocal(200))
    seqs.append(partial_zeta_reciprocal(2.0, 50))
    seqs.append([5e-4 + 0.3 / (n + 1.0) ** 1.5 for n in range(2000)])
    return seqs


def test_decay_fits_match_least_squares_reference(monkeypatch):
    seqs = decay_corpus()
    verdicts = [decay_diagnostic(y) for y in seqs]
    monkeypatch.setattr(approximant, "_fit", reference_fit)
    references = [decay_diagnostic(y) for y in seqs]
    monkeypatch.undo()
    ties = 0
    for y, got, want in zip(seqs, verdicts, references):
        assert got.label == want.label
        y = np.asarray(y)
        n = np.arange(1.0, y.size + 1.0)
        for model in approximant._DECAY_MODELS:
            fit, ref = approximant._fit(model, n, y), reference_fit(model, n, y)
            # 1e-14: the floor sequence is fitted exactly, to roundoff
            assert fit[2] <= ref[2] * (1 + 1e-9) + 1e-14
            got_params, want_params = fit[1], ref[1]
            if model[0] == "dinf+c*n^-beta" and got_params[0] == 0.0:
                # a tie with the c*n^-beta fit: the reference lands on a
                # limit at roundoff, the rest must still agree
                assert want_params[0] <= 1e-12 * y[0]
                got_params, want_params = got_params[1:], want_params[1:]
                ties += 1
            assert got_params == pytest.approx(want_params, rel=1e-6, abs=0)
        if got.fit_model != want.fit_model:
            assert (got.fit_model, want.fit_model) == ("c*n^-beta", "dinf+c*n^-beta")
            assert want.fit_params[0] <= 1e-12 * y[0]
        else:
            assert got.fit_params == pytest.approx(want.fit_params, rel=1e-6, abs=0)
    assert ties > 0  # the tie rule is exercised


def test_decay_plateau_fit_keeps_both_parameters_nonnegative():
    # data that want c < 0 (rising) or dinf < 0 (falling below zero at the
    # end of the window) land on a face of the bounds, as the reference does
    plateau = approximant._DECAY_MODELS[2]
    n = np.arange(1.0, 11.0)
    rising = 0.5 + 1e-3 * n
    falling = 2.0 / n - 0.1
    for y, face in ((rising, 1), (falling, 0)):
        fit, ref = approximant._fit(plateau, n, y), reference_fit(plateau, n, y)
        assert fit[1][face] == 0.0
        assert fit[2] <= ref[2] * (1 + 1e-9)
    assert approximant._fit(plateau, n, rising)[1][0] == pytest.approx(rising.mean(), rel=1e-12)


def test_decay_tie_is_reported_as_the_power_fit(monkeypatch):
    # a zero limit whose residual is lower in the last bit: the reference is
    # still the c*n^-beta fit
    def fit(model, n, y):
        params = {"c/log(n+c0)": (1.0, 2.0), "c*n^-beta": (1.0, 0.5), "dinf+c*n^-beta": (0.0, 1.0, 0.5)}
        residual = {"c/log(n+c0)": 0.5, "c*n^-beta": 0.2, "dinf+c*n^-beta": np.nextafter(0.2, 0.0)}
        return (model[0], params[model[0]], residual[model[0]])

    monkeypatch.setattr(approximant, "_fit", fit)
    v = decay_diagnostic([1.0 - 0.01 * k for k in range(10)])
    assert (v.label, v.fit_model, v.fit_params) == ("inconclusive", "c*n^-beta", (1.0, 0.5))


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


def test_certificate_respected_by_scan():
    f = P("2 - z1 - z2")
    cert = evaluation_bound_certificate(3.0)
    rows = distance_scan(f, iso(3.0), 12)
    for row in rows:
        assert row.distance >= cert - 1e-6


# ------------------------------------------------------------ negative alpha


def test_opa_at_negative_alpha_matches_closed_form():
    # strongly negative alpha crushes the high-degree weights, so the Gram
    # pivots span many decades; that is diagonal scaling, which the banded
    # Cholesky factor absorbs
    f = P("1 - z1")
    res = optimal_approximant(f, BasisSpec.box(40, 0), iso(-8.0))
    assert 0.0 <= res.distance_squared <= 1.0
    assert res.distance_squared == pytest.approx(
        closed_form_distance("one_minus_z1", -8.0, 40), rel=1e-6
    )


def test_scan_at_negative_alpha_matches_closed_form():
    rows = distance_scan(P("1 - z1"), iso(-8.0), 40)
    assert len(rows) == 41
    for row in rows:
        want = closed_form_distance("one_minus_z1", -8.0, row.n)
        assert row.distance_squared == pytest.approx(want, rel=1e-6)


def test_scan_at_negative_alpha_matches_dense_least_squares():
    # 2 - z1 - z2 has no closed form; at alpha = -8 every row is checked
    # against one SVD least squares solve per row
    f = P("2 - z1 - z2")
    sp = iso(-8.0)
    rows = distance_scan(f, sp, 40)
    assert len(rows) == 41
    for row in rows:
        want = dense_lstsq_distance_sq(f, sp, basis_monomials(BasisSpec.total(row.n)))
        assert row.distance_squared == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "text, name, alpha, n_max, family, rel",
    [
        ("1 - z1", "one_minus_z1", -16.0, 40, "total", 1e-9),
        ("1 - z1*z2", "one_minus_z1z2", -12.0, 120, "diagonal", 1e-6),
    ],
    ids=["one_minus_z1", "one_minus_z1z2"],
)
def test_scan_at_strongly_negative_alpha_matches_closed_form(text, name, alpha, n_max, family, rel):
    # the weights of the product monomials span 26 and 29 decades, and the
    # last distances squared are about 4e-27 and 2e-30
    rows = distance_scan(P(text), iso(alpha), n_max, family=family)
    assert len(rows) == n_max + 1
    for row in rows:
        want = closed_form_distance(name, alpha, row.n)
        assert row.distance_squared == pytest.approx(want, rel=rel, abs=0.0)


# ------------------------------------------------------------- self-check


def test_self_check_trips_on_cholesky_route(monkeypatch):
    # coefficients off by one part in 1e7 move the residual norm by about
    # 5e-8 from the solver's value, far past AGREE_TOL
    band_solve = approximant._band_solve

    def perturbed(low, b, trans):
        x = band_solve(low, b, trans)
        return x * (1.0 + 1e-7) if trans == "C" else x

    monkeypatch.setattr("bidisk.approximant._band_solve", perturbed)
    with pytest.raises(NumericalError, match="self-check failed"):
        distance_scan(P("2 - z1 - z2"), iso(1.0), 20)


@pytest.mark.parametrize("text, family, n_max", [("2 - z1 - z2", "total", 60), ("1 - z1*z2", "diagonal", 300)])
def test_scan_over_several_blocks_matches_per_row_solves(text, family, n_max):
    f, sp = P(text), iso(1.5)
    assert n_max + 1 > 2 * _check_block_width(_operator(f, BasisSpec(family, n_max), sp))
    rows = distance_scan(f, sp, n_max, family=family)
    want = per_row_distances_sq(f, sp, basis_monomials(BasisSpec(family, n_max)), [r.basis_size for r in rows])
    assert [r.distance_squared for r in rows] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("block", [0, 1])
def test_self_check_names_the_perturbed_row(monkeypatch, block):
    # one middle row of the first or the second block of rows is perturbed;
    # the message carries that row's residual norm and solver value
    f, sp = P("2 - z1 - z2"), iso(1.0)
    n_max = 0
    while True:
        a = _operator(f, BasisSpec.total(n_max), sp)
        width = _check_block_width(a)
        if n_max + 1 > width:
            break
        n_max += 1
    start, stop = block * width, min((block + 1) * width, n_max + 1)
    n = (start + stop) // 2
    target = (n + 1) * (n + 2) // 2
    band_solve = approximant._band_solve

    def perturbed(low, b, trans):
        x = band_solve(low, b, trans)
        return x * (1.0 + 1e-7) if trans == "C" and b.size == target else x

    low = _band_cholesky(_gram_band(a))
    v = a[0].conj().toarray().ravel()
    c = perturbed(low[:, :target], band_solve(low, v, "N")[:target], "C")
    residual = a[:, :target] @ c
    residual[0] -= 1.0
    want = (float(np.sum(np.abs(residual) ** 2)), 1.0 - float(np.real(np.vdot(v[:target], c))))

    monkeypatch.setattr("bidisk.approximant._band_solve", perturbed)
    with pytest.raises(NumericalError, match="self-check failed") as err:
        distance_scan(f, sp, n_max)
    got = re.search(r"residual norm (\S+) vs solver value (\S+)$", str(err.value)).groups()
    assert [float(x) for x in got] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gram_overflow_is_refused():
    # 1e160^2 is past the double range: the Gram matrix is refused, where
    # the factorization's infinite pivot gave c = 0 and d^2 = 1 on every row
    for f in (P("1e160*(1 - z1)"), P("1e160*(1 - z1*z2)")):
        with pytest.raises(NumericalError, match="Gram matrix overflows the double range"):
            distance_scan(f, iso(1.0), 3)
        with pytest.raises(NumericalError, match="Gram matrix overflows the double range"):
            optimal_approximant(f, BasisSpec.total(3), iso(1.0))
    # 1e150^2 is not, and the scale of f leaves the distances alone
    for row in distance_scan(P("1e150*(1 - z1)"), iso(1.0), 3):
        assert row.distance_squared == pytest.approx(closed_form_distance("one_minus_z1", 1.0, row.n), rel=1e-12)


def test_self_check_trips_on_overflow():
    # the weighted coefficients overflow to inf: the operator refuses them,
    # named as such and without a numpy warning, before any solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="weighted operator overflows the double range"):
            optimal_approximant(P("1e308 z1 + 1"), BasisSpec.total(2), iso(1.0))


def test_solver_rejects_singular_system():
    # G = [[1, 1], [1, 1]] in lower band storage
    band = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=np.complex128, order="F")
    with pytest.raises(NumericalError):
        _band_cholesky(band)


def test_band_factorization_runs_on_one_openblas_thread(monkeypatch):
    # scipy is loaded on first use, so the thread calls are found then
    from scipy.linalg import lapack

    optimal_approximant(P("1 - z1"), BasisSpec.total(1), iso(1.0))
    calls = approximant._openblas_thread_calls()
    if calls is None:
        pytest.skip("scipy's LAPACK is not its bundled OpenBLAS")
    get, put = calls
    zpbtrf = lapack.zpbtrf
    seen = []

    def counted(*args, **kwargs):
        seen.append(get())
        return zpbtrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "zpbtrf", counted)
    before = get()
    put(2)
    try:
        caller = get()
        distance_scan(P("2 - z1 - z2"), iso(1.0), 6)
        assert get() == caller
    finally:
        put(before)
    assert seen == [1]
