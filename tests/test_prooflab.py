"""Recurrence residual grids and the spectral smoothness experiment."""

import json

import numpy as np
import pytest

from bidisk import (
    Poly2,
    build_numerator_g,
    inner_product,
    iso,
    norm_squared,
    parse_polynomial,
    q_smoothness,
    recurrence_residuals,
)
from bidisk.errors import DegenerateInputError

P = parse_polynomial


# ------------------------------------------------------------- residual grid


def test_residuals_equal_inner_products(rng):
    # r[k,l] must equal <g, z1^k z2^l (2 - z1 - z2)> in the alpha = 2 space
    f = P("2 - z1 - z2")
    space = iso(2.0)
    for _ in range(3):
        coeffs = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        g = Poly2(coeffs)
        grid = recurrence_residuals(g, 6, 6)
        for k in range(7):
            for l in range(7):
                mono = Poly2.from_terms([(k, l, 1.0)])
                want = inner_product(g, mono * f, space)
                assert abs(grid.residuals[k, l] - want) < 1e-10 * max(1.0, abs(want))


def test_residuals_constant_one():
    grid = recurrence_residuals(Poly2.const(1.0), 3, 3)
    assert grid.residuals[0, 0] == pytest.approx(2.0)
    rest = grid.residuals.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() == 0.0


def test_constant_b_series_has_zero_residuals_but_growing_norm():
    # a[k,l] = 1/(k+l+1)^2 makes b identically 1, killing every residual,
    # while the iso(2) norms of the truncations grow without bound
    norms = []
    for size in (10, 20, 40):
        k = np.arange(size + 1, dtype=np.float64)[:, None]
        l = np.arange(size + 1, dtype=np.float64)[None, :]
        g = Poly2(1.0 / (k + l + 1.0) ** 2)
        grid = recurrence_residuals(g, size - 1, size - 1)
        assert grid.max_abs < 1e-12
        norms.append(norm_squared(g, iso(2.0)))
    assert norms[0] < norms[1] < norms[2]


def test_residual_rows_iteration(cli):
    header, *rows = cli("recurrence", "-p", "1 + z1", "--kmax", "1", "--lmax", "1").splitlines()
    rows = [r.split(",") for r in rows]
    assert len(rows) == 4
    assert rows[0][:2] == ["0", "0"]
    assert all(len(r) == 4 for r in rows)


def test_residual_window_validation():
    with pytest.raises(DegenerateInputError):
        recurrence_residuals(P("z1^3"), 1, 1)
    with pytest.raises(DegenerateInputError):
        recurrence_residuals(P("1"), -1, 0)


# ---------------------------------------------------------------- numerators


def test_numerator_single_zero():
    g = build_numerator_g([(1.0, 1.0)], 1)
    np.testing.assert_allclose(g.coeffs, P("2 - z1 - z2").coeffs)


def test_numerator_square_and_product():
    g2 = build_numerator_g([(1.0, 1.0)], 2)
    np.testing.assert_allclose(g2.coeffs, (P("2 - z1 - z2") ** 2).coeffs)
    g11 = build_numerator_g([(1.0, 1.0), (-1.0, -1.0)], 1)
    np.testing.assert_allclose(g11.coeffs, (P("(2 - z1 - z2)(2 + z1 + z2)")).coeffs)


def test_numerator_rotated_zero():
    g = build_numerator_g([(1j, -1.0)], 1)
    # 2 - z1/i - z2/(-1) = 2 + i z1 + z2
    np.testing.assert_allclose(g.coeffs, P("2 + i z1 + z2").coeffs)


def test_numerator_exponent_zero_is_one():
    g = build_numerator_g([(1.0, 1.0)], 0)
    assert g.bidegree == (0, 0)
    assert g[0, 0] == pytest.approx(1.0)


def test_numerator_validation():
    with pytest.raises(DegenerateInputError):
        build_numerator_g([(0.5, 1.0)], 1)
    with pytest.raises(DegenerateInputError):
        build_numerator_g([(1.0, 1.0)], -1)


# ------------------------------------------------------------- q smoothness


def test_q_polynomial_quotient_is_flagged_smooth():
    # g = (2 - z1 - z2)^4 over p = 2 - z1 - z2 leaves a polynomial quotient:
    # no negative frequencies, flat weighted tail, exact reconstruction
    rep = q_smoothness(P("2 - z1 - z2"), [(1.0, 1.0)], 4, grid_size=256)
    assert rep.neg_freq_energy_fraction < 1e-20
    assert rep.weighted_tail_ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.reconstruction_error < 1e-10


def test_q_control_without_smoothing_diverges():
    # N = 0 pits 1/p against the torus zero: the weighted tail ratio is far
    # from 1 and grows with the grid, the signature of a non-member of the
    # weighted space
    small = q_smoothness(P("2 - z1 - z2"), [(1.0, 1.0)], 0, grid_size=256)
    large = q_smoothness(P("2 - z1 - z2"), [(1.0, 1.0)], 0, grid_size=512)
    assert small.weighted_tail_ratio > 10.0
    assert large.weighted_tail_ratio > small.weighted_tail_ratio


def test_q_smooth_quotient_without_torus_zeros():
    # 1/(3 - z1 - z2) is holomorphic past the closed bidisk: spectrum decays
    # geometrically, so every indicator is clean even with N = 0
    rep = q_smoothness(P("3 - z1 - z2"), [], 0, grid_size=128)
    assert rep.neg_freq_energy_fraction < 1e-10
    assert rep.weighted_tail_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.reconstruction_error < 1e-9


def test_q_quotient_spectrum_values(cli, tmp_path):
    # g/p = 2 - z1 - z2 exactly; the spectrum has three lines
    path = tmp_path / "qhat.csv"
    argv = ["-p", "2 - z1 - z2", "--zeros", "1,1", "--exponent", "2", "--grid", "32"]
    cli("qsmooth", *argv, "--qhat-csv", str(path))
    header, *rows = path.read_text().splitlines()
    table = {(int(k), int(l)): float(v) for k, l, v in (r.split(",") for r in rows)}
    assert len(table) == 32 * 32
    assert table[(0, 0)] == pytest.approx(2.0, abs=1e-10)
    assert table[(1, 0)] == pytest.approx(1.0, abs=1e-10)
    assert table[(0, 1)] == pytest.approx(1.0, abs=1e-10)
    assert table[(2, 2)] == pytest.approx(0.0, abs=1e-10)
    assert min(k for k, _ in table) == -16


def test_q_report_json(cli):
    argv = ["-p", "2 - z1 - z2", "--zeros", "1,1", "--exponent", "2", "--grid", "64"]
    d = json.loads(cli("qsmooth", *argv))
    assert d["N"] == 2
    assert d["grid_size"] == 64
    assert d["zeros"] == [[1.0, 0.0, 1.0, 0.0]]
    assert set(d) >= {
        "polynomial",
        "neg_freq_energy_fraction",
        "weighted_tail_ratio",
        "reconstruction_error",
    }


def test_q_incomplete_zero_list_rejected():
    # p vanishes at (1, 1), which is not declared, so the quotient cannot
    # be trusted
    with pytest.raises(DegenerateInputError):
        q_smoothness(P("2 - z1 - z2"), [(-1.0, -1.0)], 1, grid_size=64)


def test_q_grid_validation():
    p = P("2 - z1 - z2")
    with pytest.raises(DegenerateInputError):
        q_smoothness(p, [(1.0, 1.0)], 2, grid_size=100)
    with pytest.raises(DegenerateInputError):
        q_smoothness(p, [(1.0, 1.0)], 8, grid_size=16)
    with pytest.raises(DegenerateInputError):
        q_smoothness(p, [(0.5, 1.0)], 2, grid_size=64)
