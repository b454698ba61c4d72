"""Torus zero classification and the bidisk zero search."""

import warnings

import numpy as np
import pytest

from bidisk import (
    Poly2,
    bidisk_zero_search,
    parse_polynomial,
    rotate,
    torus_zeros,
)
from bidisk import zeroset
from bidisk.errors import DegenerateInputError
from bidisk.poly import coeff_norm
from bidisk.zeroset import CIRCLE_TOL, DELTA, RESID_TOL

P = parse_polynomial


# ------------------------------------------------------------ torus: classes


def test_torus_single_point():
    cls = torus_zeros(P("2 - z1 - z2"))
    assert cls.kind == "finite"
    assert len(cls.points) == 1
    z1, z2 = cls.points[0]
    assert abs(z1 - 1.0) < 1e-8
    assert abs(z2 - 1.0) < 1e-8


def test_torus_two_points_sorted_by_angle():
    # 4 - (z1 + z2)^2 vanishes on the torus exactly at (1, 1) and (-1, -1)
    cls = torus_zeros(P("4 - (z1 + z2)^2"))
    assert cls.kind == "finite"
    assert len(cls.points) == 2
    (a1, a2), (b1, b2) = cls.points
    assert abs(a1 - 1.0) < 1e-8 and abs(a2 - 1.0) < 1e-8
    assert abs(b1 + 1.0) < 1e-8 and abs(b2 + 1.0) < 1e-8


def test_torus_proportional_reflection():
    cls = torus_zeros(P("1 - z1 z2"))
    assert cls.kind == "infinite"
    assert cls.witness == "proportional_reflection"
    assert complex(cls.witness_data) == pytest.approx(-1.0)


def test_torus_proportional_reflection_mixed_degrees():
    cls = torus_zeros(P("z2 - z1^2"))
    assert cls.kind == "infinite"
    assert cls.witness == "proportional_reflection"


def test_torus_univariate_circle_roots():
    cls = torus_zeros(P("z1 - 1"))
    assert cls.kind == "infinite"
    assert cls.witness == "univariate_circle_roots"
    variable, roots = cls.witness_data
    assert variable == "z1"
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-10


def test_torus_univariate_other_variable():
    cls = torus_zeros(P("z2^2 + 1"))
    assert cls.kind == "infinite"
    variable, roots = cls.witness_data
    assert variable == "z2"
    assert len(roots) == 2


def test_torus_empty_off_circle():
    assert torus_zeros(P("z1 - 2")).kind == "empty"
    assert torus_zeros(P("4 + z1 + z2")).kind == "empty"


def test_torus_line_factor():
    # (z1 - 1)(z2 - 3): the slice at z1 = 1 vanishes identically
    cls = torus_zeros(P("(z1 - 1)(z2 - 3)"))
    assert cls.kind == "infinite"
    assert cls.witness == "line_factor"
    variable, value = cls.witness_data
    assert variable == "z1"
    assert abs(value - 1.0) < 1e-8


def test_torus_monomial_factors_stripped():
    assert torus_zeros(P("z1^2 z2")).kind == "empty"
    cls = torus_zeros(P("z1^2 z2 (2 - z1 - z2)"))
    assert cls.kind == "finite"
    z1, z2 = cls.points[0]
    assert abs(z1 - 1.0) < 1e-8 and abs(z2 - 1.0) < 1e-8


def test_torus_constant_and_zero():
    assert torus_zeros(P("5")).kind == "empty"
    with pytest.raises(DegenerateInputError):
        torus_zeros(Poly2(np.zeros((1, 1))))


def test_torus_rotation_equivariance():
    # zeros of p(zeta z1, eta z2) are the rotated zeros of p
    base = P("4 - (z1 + z2)^2")
    cls = torus_zeros(rotate(base, 1j, -1j))
    assert cls.kind == "finite"
    got = sorted(cls.points, key=lambda zz: np.angle(zz[0]) % (2 * np.pi))
    expect = [(1j, -1j), (-1j, 1j)]
    for (g1, g2), (e1, e2) in zip(got, expect):
        assert abs(g1 - e1) < 1e-8
        assert abs(g2 - e2) < 1e-8


def test_torus_empty_verdicts_hold_on_grid():
    # corroborate "empty" against a dense modulus scan of the torus
    th = 2.0 * np.pi * np.arange(64) / 64
    w = np.exp(1j * th)
    z1 = np.repeat(w, 64)
    z2 = np.tile(w, 64)
    for text in ("z1 - 2", "4 + z1 + z2", "5"):
        p = P(text)
        assert torus_zeros(p).kind == "empty"
        assert np.abs(p.evaluate(z1, z2)).min() > 1e-2


def test_torus_finite_points_vanish():
    for text in ("2 - z1 - z2", "4 - (z1 + z2)^2"):
        p = P(text)
        cls = torus_zeros(p)
        for z1, z2 in cls.points:
            assert abs(abs(z1) - 1.0) < 1e-9
            assert abs(abs(z2) - 1.0) < 1e-9
            assert abs(p.evaluate(z1, z2)) < 1e-8


# ------------------------------------------------------------- torus: JSON


def test_torus_json_shapes():
    assert torus_zeros(P("z1 - 2")).to_json_dict() == {"torus": "empty"}

    d = torus_zeros(P("2 - z1 - z2")).to_json_dict()
    assert d["torus"] == "finite"
    assert len(d["points"]) == 1
    assert d["points"][0] == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-8)

    d = torus_zeros(P("1 - z1 z2")).to_json_dict()
    assert d["torus"] == "infinite"
    assert d["witness"] == "proportional_reflection"
    assert d["lambda"] == pytest.approx([-1.0, 0.0])

    d = torus_zeros(P("z1 - 1")).to_json_dict()
    assert d["witness"] == "univariate_circle_roots"
    assert d["variable"] == "z1"
    assert d["roots"][0] == pytest.approx([1.0, 0.0], abs=1e-10)

    d = torus_zeros(P("(z1 - 1)(z2 - 3)")).to_json_dict()
    assert d["witness"] == "line_factor"
    assert d["variable"] == "z1"
    assert d["value"] == pytest.approx([1.0, 0.0], abs=1e-8)


# --------------------------------------------------------------- bidisk


def test_bidisk_finds_interior_zero():
    p = P("z1 z2 - 0.25")
    rep = bidisk_zero_search(p)
    assert rep.kind == "zero_found"
    z1, z2 = rep.point
    assert abs(z1 * z2 - 0.25) < 1e-6
    rmax = 1.0 - DELTA
    assert abs(z1) <= rmax + 1e-9
    assert abs(z2) <= rmax + 1e-9
    assert abs(p.evaluate(z1, z2)) <= RESID_TOL * 0.25 * np.sqrt(17.0)


def test_bidisk_boundary_zero_reports_margin():
    # |2 - z1 - z2| >= 2 delta on the search region, attained near (1, 1)
    rep = bidisk_zero_search(P("2 - z1 - z2"))
    assert rep.kind == "none_found_heuristic"
    assert rep.point is None
    assert rep.min_modulus == pytest.approx(2e-3, rel=1e-2)


def test_bidisk_diagonal_margin():
    # |1 - z1 z2| >= 1 - (1 - delta)^2 on the search region
    rep = bidisk_zero_search(P("1 - z1 z2"))
    assert rep.kind == "none_found_heuristic"
    expect = 1.0 - (1.0 - 1e-3) ** 2
    assert rep.min_modulus == pytest.approx(expect, rel=1e-2)


def test_bidisk_squared_factor_stays_heuristic():
    # (1 - z1)^2 dips to delta^2 = 1e-6, above the certification tolerance,
    # so the verdict must stay heuristic
    rep = bidisk_zero_search(P("(1 - z1)^2"))
    assert rep.kind == "none_found_heuristic"
    assert rep.min_modulus == pytest.approx(1e-6, rel=0.2)


# ------------------------------------------------- bidisk: batched vs scalar


def _sequential_search(p):
    """The search as it ran one start and one point at a time, kept as the
    reference for the batched zooms and Gauss-Newton: (kind, point, modulus)."""
    rmax = 1.0 - DELTA
    rstep = rmax / (zeroset.COARSE_RADII - 1)
    astep = 2.0 * np.pi / zeroset.COARSE_ANGLES
    fine_r = rmax / (zeroset.RADII - 1)
    fine_a = 2.0 * np.pi / zeroset.ANGLES
    d1, d2 = p.derivative(1), p.derivative(2)

    def zoom(z1c, z2c, rs, as_):
        cloud1 = zeroset._local_cloud(z1c, rs, as_, rmax)
        cloud2 = zeroset._local_cloud(z2c, rs, as_, rmax)
        val, z1, z2 = zeroset._topk_product(p, cloud1, cloud2, 1)[0]
        return z1, z2, val

    def gauss_newton(z1, z2):
        z = np.array([z1, z2], dtype=np.complex128)
        for _ in range(zeroset.NEWTON_STEPS):
            val = p.evaluate(z[0], z[1])
            if val == 0:
                break
            g = np.array([d1.evaluate(z[0], z[1]), d2.evaluate(z[0], z[1])], dtype=np.complex128)
            g2 = float(np.real(np.vdot(g, g)))
            if g2 < 1e-300:
                break
            step = np.conj(g) * (val / g2)
            damp = 1.0
            for _ in range(20):
                trial = z - damp * step
                trial = np.array(
                    [t if abs(t) <= rmax else t * (rmax / abs(t)) for t in trial],
                    dtype=np.complex128,
                )
                if abs(p.evaluate(trial[0], trial[1])) < abs(val):
                    z = trial
                    break
                damp *= 0.5
            else:
                break
        return complex(z[0]), complex(z[1]), abs(p.evaluate(z[0], z[1]))

    coarse = zeroset._polar_points(rmax, zeroset.COARSE_RADII, zeroset.COARSE_ANGLES)
    tops = zeroset._topk_product(p, coarse, coarse, zeroset.REFINE_TOP)
    best, best_pt = tops[0][0], (tops[0][1], tops[0][2])
    for _, z1c, z2c in zeroset._distinct_candidates(tops, min_sep=2.5 * rstep, limit=8):
        z1c, z2c, val = zoom(z1c, z2c, rstep, astep)
        z1c, z2c, val = zoom(z1c, z2c, fine_r, fine_a)
        z1n, z2n, vn = gauss_newton(complex(z1c), complex(z2c))
        if vn < val:
            z1c, z2c, val = z1n, z2n, vn
        if val < best:
            best, best_pt = val, (z1c, z2c)
    tol = RESID_TOL * coeff_norm(p)
    if best <= tol and abs(best_pt[0]) <= rmax + 1e-12 and abs(best_pt[1]) <= rmax + 1e-12:
        return "zero_found", best_pt, best
    return "none_found_heuristic", None, best


def _rotated(c, rng):
    zeta, eta = np.exp(2j * np.pi * rng.random(2))
    c = np.asarray(c, dtype=np.complex128)
    return Poly2(c * zeta ** np.arange(c.shape[0])[:, None] * eta ** np.arange(c.shape[1]))


def _search_corpus():
    """The classify benchmark's inputs (zero-free dense of bidegree 2 to 12
    and rotated models), the models, constants, z1-only and random inputs."""
    rng = np.random.default_rng(1207)
    models = [
        [[1.0], [-1.0]],
        [[1.0, -1.0]],
        [[1.0, 0.0], [0.0, -1.0]],
        [[2.0, -1.0], [-1.0, 0.0]],
        [[1.0, -1.0], [-1.0, 1.0]],
        [[1.0, 1.0], [1.0, 0.0]],
    ]
    polys = [Poly2(c) for c in models]
    for _ in range(2):
        for degree in (2, 4, 8, 12):
            c = rng.standard_normal((degree + 1,) * 2) + 1j * rng.standard_normal((degree + 1,) * 2)
            c[0, 0] = 0.0
            c[0, 0] = 1.5 * np.abs(c).sum() * np.exp(2j * np.pi * rng.random())
            polys.append(Poly2(c))
        polys += [_rotated(models[i], rng) for i in (3, 3, 2, 4)]
    polys += [Poly2([[v]]) for v in (1.0, -2.5, 3j)]
    for _ in range(10):
        c = rng.standard_normal(int(rng.integers(2, 7)))
        polys.append(Poly2(c[:, None] + 1j * rng.standard_normal(c.size)[:, None]))
    for _ in range(70):
        m, n = rng.integers(0, 9, 2)
        polys.append(Poly2(rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))))
    return polys


def test_bidisk_search_matches_sequential_reference():
    polys = _search_corpus()
    assert len(polys) >= 100
    kinds = set()
    for p in polys:
        rep = bidisk_zero_search(p)
        kind, _, modulus = _sequential_search(p)
        assert rep.kind == kind, p
        kinds.add(kind)
        if kind == "none_found_heuristic":
            assert rep.min_modulus == pytest.approx(modulus, rel=1e-12, abs=0), p
        else:
            z1, z2 = rep.point
            assert abs(p.evaluate(z1, z2)) <= RESID_TOL * coeff_norm(p)
            assert max(abs(z1), abs(z2)) <= 1.0 - DELTA + 1e-12
    assert kinds == {"zero_found", "none_found_heuristic"}


@pytest.mark.parametrize(
    "text", ["1 - z1", "1 - z2", "1 - z1 z2", "2 - z1 - z2", "(1 - z1)(1 - z2)", "1 + z1 + z2", "z1 - 0.5", "3"]
)
def test_bidisk_search_raises_no_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bidisk_zero_search(P(text))


# The search grid is fixed: bidisk_zero_search takes no grid keyword, so none
# of the values a range check once rejected can reach it.
@pytest.mark.parametrize(
    "override",
    [
        {"delta": 0.0},
        {"delta": 1.0},
        {"delta": 2.0},
        {"delta": -1.0},
        {"delta": float("nan")},
        {"radii": 0},
        {"angles": 0},
        {"coarse_radii": 0},
        {"coarse_angles": 0},
        {"refine_top": 0},
        {"newton_steps": -1},
        {"newton_steps": 1001},
        {"refine_top": 4097},
        {"coarse_radii": 4096, "coarse_angles": 4096},
        {"coarse_angles": 4097, "coarse_radii": 1},
        {"coarse_radii": 65},
        {"resid_tol": 0.0},
        {"resid_tol": -1e-8},
    ],
)
def test_grid_config_rejects_out_of_range(override):
    with pytest.raises(TypeError, match=next(iter(override))):
        bidisk_zero_search(P("2 - z1 - z2"), **override)


def test_coarse_grid_runs_on_one_openblas_thread(monkeypatch):
    # a threaded product stalls while the second thread wakes after idling
    from bidisk.approximant import _openblas_thread_calls

    calls = _openblas_thread_calls("numpy")
    if calls is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get, put = calls
    matmul, seen = np.matmul, []

    def counted(*args, **kwargs):
        seen.append(get())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    before = get()
    put(2)
    try:
        bidisk_zero_search(P("2 - z1 - z2 + 0.1 z1^4 z2^4"))
        assert get() == 2
    finally:
        put(before)
    assert seen and set(seen) == {1}


def test_bidisk_nonvanishing_constant():
    rep = bidisk_zero_search(P("1"))
    assert rep.kind == "none_found_heuristic"
    assert rep.min_modulus == pytest.approx(1.0)


def test_bidisk_zero_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        bidisk_zero_search(Poly2(np.zeros((2, 2))))


def test_bidisk_json_shapes():
    d = bidisk_zero_search(P("z1 z2 - 0.25")).to_json_dict()
    assert d["bidisk"] == "zero_found"
    assert len(d["point"]) == 4
    assert d["modulus"] <= 1e-8 * 0.25 * np.sqrt(17.0)

    d = bidisk_zero_search(P("2 - z1 - z2")).to_json_dict()
    assert d["bidisk"] == "none_found_heuristic"
    assert d["min_modulus"] > 0
    assert d["grid"]["delta"] == 1e-3


def test_tolconfig_defaults():
    assert CIRCLE_TOL == 1e-6
    assert RESID_TOL == 1e-8


# The torus tolerances are fixed: torus_zeros takes no tolerance keyword.
@pytest.mark.parametrize(
    "override",
    [
        {"circle_tol": -1.0},
        {"circle_tol": 0.0},
        {"resid_tol": float("inf")},
        {"proportional_tol": float("nan")},
        {"cluster_tol": -1e-5},
    ],
)
def test_tolconfig_rejects_out_of_range(override):
    with pytest.raises(TypeError, match=next(iter(override))):
        torus_zeros(P("3 - z1 - z2"), **override)
