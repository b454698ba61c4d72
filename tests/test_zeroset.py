"""Torus zero classification and the bidisk zero search."""

import json
import warnings

import numpy as np
import pytest

from bidisk import (
    Poly2,
    bidisk_zero_search,
    parse_polynomial,
    predict,
    rotate,
    torus_zeros,
)
from bidisk import zeroset
from bidisk.errors import DegenerateInputError
from bidisk.poly import coeff_norm
from bidisk.zeroset import DELTA, RESID_TOL

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


@pytest.mark.parametrize("text", ["(1 - z1*z2)*(3 - z1 - z2)", "(2 - z1 - z2)*(1 - z1*z2)"])
def test_torus_vanishing_resultant(text, cli):
    # p shares the factor 1 - z1 z2 with its reflection without being
    # proportional to it, so Res_z2(p, p~) vanishes identically
    assert json.loads(cli("zeros", "-p", text))["torus"] == {
        "torus": "infinite",
        "witness": "vanishing_resultant",
    }


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


def test_torus_json_shapes(cli):
    def torus(text):
        return json.loads(cli("zeros", "-p", text))["torus"]

    assert torus("z1 - 2") == {"torus": "empty"}

    d = torus("2 - z1 - z2")
    assert d["torus"] == "finite"
    assert len(d["points"]) == 1
    assert d["points"][0] == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-8)

    d = torus("1 - z1 z2")
    assert d["torus"] == "infinite"
    assert d["witness"] == "proportional_reflection"
    assert d["lambda"] == pytest.approx([-1.0, 0.0])

    d = torus("z1 - 1")
    assert d["witness"] == "univariate_circle_roots"
    assert d["variable"] == "z1"
    assert d["roots"][0] == pytest.approx([1.0, 0.0], abs=1e-10)

    d = torus("(z1 - 1)(z2 - 3)")
    assert d["witness"] == "line_factor"
    assert d["variable"] == "z1"
    assert d["value"] == pytest.approx([1.0, 0.0], abs=1e-8)


# ------------------------------------------------- torus: the grid check


def _grid_check_corpus():
    """Dense inputs whose constant term outweighs the rest by 0.1 to 1.5
    (zero-free above 1), random dense inputs and rotated models."""
    rng = np.random.default_rng(1818)
    polys = []
    for _ in range(60):
        m, n = rng.integers(1, 13, 2)
        c = rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))
        c[0, 0] = 0.0
        c[0, 0] = rng.uniform(0.1, 1.5) * np.abs(c).sum() * np.exp(2j * np.pi * rng.random())
        polys.append(Poly2(c))
    for _ in range(60):
        m, n = rng.integers(1, 8, 2)
        polys.append(Poly2(rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))))
    models = ([[2.0, -1.0], [-1.0, 0.0]], [[3.0, -1.0], [-1.0, 0.0]], [[1.0, 0.5], [0.5, 0.0]])
    polys += [_rotated(models[i % 3], rng) for i in range(15)]
    return polys


def test_torus_grid_check_is_sound(monkeypatch):
    # wherever the grid proves the torus empty, the resultant route finds
    # no torus point either
    fired = [p for p in _grid_check_corpus() if zeroset._torus_bounded_away(zeroset._strip_monomial(p))]
    assert 40 <= len(fired) <= 100
    monkeypatch.setattr(zeroset, "_torus_bounded_away", lambda core: False)
    for p in fired:
        assert torus_zeros(p).kind == "empty", p


def _planted_zeros():
    """q - q(zeta, eta), which vanishes at a torus point however small q's
    slope."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        m, n = rng.integers(1, 13, 2)
        c = rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))
        c[0, 0] = 0.0
        c[0, 0] = rng.uniform(0.5, 3.0) * np.abs(c).sum()
        zeta, eta = np.exp(2j * np.pi * rng.random(2))
        c[0, 0] -= Poly2(c).evaluate(zeta, eta)
        yield zeroset._strip_monomial(Poly2(c))


def test_torus_grid_check_never_passes_a_planted_zero():
    for core in _planted_zeros():
        assert not zeroset._torus_bounded_away(core)


def test_torus_second_order_check_never_passes_a_planted_zero():
    for core in _planted_zeros():
        assert not zeroset._torus_bounded_away_to_second_order(core)


@pytest.mark.parametrize("power", [1, 2])
def test_torus_shared_factor_off_the_torus_reads_empty(power):
    # p and p~ share (z1 z2 - 2)(1 - 2 z1 z2), which misses the torus: the
    # slope bound falls through, and the second-order bound proves |p| > 0
    p = P(f"(z1*z2 - 2)*(1 - 2*z1*z2)*(3 - z1 - z2)^{power}")
    assert not zeroset._torus_bounded_away(p)
    assert zeroset._torus_bounded_away_to_second_order(p)
    assert torus_zeros(p).kind == "empty"


def _no_resultant(*args):
    raise AssertionError("resultant built")


def test_torus_grid_check_answers_without_resultant(monkeypatch):
    rng = np.random.default_rng(12)
    c = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
    c[0, 0] = 0.0
    c[0, 0] = 1.5 * np.abs(c).sum()
    monkeypatch.setattr(zeroset, "resultant_z2_detail", _no_resultant)
    for p in (Poly2(c), P("3 - z1 - z2"), P("z1^40*z2^40 + 2"), P("z1^3 z2 (4 + z1 + z2)")):
        assert torus_zeros(p).kind == "empty", p


@pytest.mark.parametrize(
    "text",
    [
        "2 - z1 - z2",
        "(3 - z1 - z2)^13",
        # slope (pi / 1024) 512 = 1.57 against min |p| = 1
        "z1^256*z2^256 + 2",
        # slope (pi / 256) 80 = 0.98 against min |p| = 0.5
        "z1^40*z2^40 + 1.5",
        # slope 1.84e-6 against min |p| = 1e-6
        "1e-6*(3 - z1 - z2)^3",
    ],
)
def test_torus_grid_check_falls_through(text):
    assert not zeroset._torus_bounded_away(zeroset._strip_monomial(P(text)))


@pytest.mark.parametrize("scale", ["1e-6", "1e-3", "1", "1e3"])
def test_torus_scaled_square_reads_empty(scale, cli):
    # the resultant's zero test called 1e-6 (3 - z1 - z2)^2 "infinite"
    # (vanishing_resultant); the grid proves |p| >= 1e-6 on the torus
    report = json.loads(cli("zeros", "-p", f"{scale}*(3 - z1 - z2)^2"))
    assert report["torus"] == {"torus": "empty"}


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


# ------------------------------------------------- bidisk: by construction


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


def _assert_certified(p, rep):
    z1, z2 = rep.point
    assert max(abs(z1), abs(z2)) <= 1.0 - DELTA + 1e-12
    assert abs(p.evaluate(z1, z2)) <= RESID_TOL * coeff_norm(p)
    assert rep.min_modulus <= RESID_TOL * coeff_norm(p)


def test_bidisk_corpus_zeros_are_certified():
    kinds = set()
    for p in _search_corpus():
        rep = bidisk_zero_search(p)
        kinds.add(rep.kind)
        if rep.kind == "zero_found":
            _assert_certified(p, rep)
        else:
            assert rep.point is None and rep.min_modulus > 0, p
    assert kinds == {"zero_found", "none_found_heuristic"}


def test_bidisk_planted_zeros_are_found():
    # q - q(a) vanishes at a, inside the search region
    rng = np.random.default_rng(99)
    for _ in range(40):
        m, n = rng.integers(1, 7, 2)
        c = rng.standard_normal((m + 1, n + 1)) + 1j * rng.standard_normal((m + 1, n + 1))
        a = 0.95 * rng.random(2) ** 0.5 * np.exp(2j * np.pi * rng.random(2))
        c[0, 0] -= Poly2(c).evaluate(a[0], a[1])
        p = Poly2(c)
        rep = bidisk_zero_search(p)
        assert rep.kind == "zero_found", p
        _assert_certified(p, rep)


def test_bidisk_constant_dominant_modulus_is_bounded_below():
    # |p| >= |c00| - sum of the other |c_kl| r^(k+l) on the closed r-polydisk
    rng = np.random.default_rng(31)
    rmax = 1.0 - DELTA
    for degree in (1, 2, 4, 8, 12):
        c = rng.standard_normal((degree + 1,) * 2) + 1j * rng.standard_normal((degree + 1,) * 2)
        powers = rmax ** np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
        c[0, 0] = 0.0
        bound = np.sum(np.abs(c) * powers)
        c[0, 0] = 1.2 * bound
        rep = bidisk_zero_search(Poly2(c))
        assert rep.kind == "none_found_heuristic"
        assert rep.min_modulus >= 0.2 * bound


def test_bidisk_rotated_boundary_zero_margin():
    # the minimum of |2 - z1 - z2| over the region is 2 delta, off the grid
    # once the zero (1, 1) is rotated
    rng = np.random.default_rng(4)
    for _ in range(5):
        rep = bidisk_zero_search(_rotated([[2.0, -1.0], [-1.0, 0.0]], rng))
        assert rep.kind == "none_found_heuristic"
        assert rep.min_modulus == pytest.approx(2.0 * DELTA, rel=1e-4)


def test_bidisk_rotated_product_stays_not_applicable():
    # the minimum delta^2 of (1 - z1)(1 - z2) is below the noise floor, so
    # no rotation may turn the refusal into a verdict
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = _rotated([[1.0, -1.0], [-1.0, 1.0]], rng)
        rep = bidisk_zero_search(p)
        assert rep.kind == "none_found_heuristic"
        assert predict(p, 1.0, torus_zeros(p), rep).verdict == "not_applicable"


def test_bidisk_high_degree_minimum_is_not_aliased():
    # the grid resolves z1^128 z2^128: its minimum 2 - r^256 on the torus
    rep = bidisk_zero_search(P("z1^128*z2^128 + 2"))
    assert rep.kind == "none_found_heuristic"
    assert rep.angles == 512
    assert rep.min_modulus == pytest.approx(2.0 - (1.0 - DELTA) ** 256, abs=1e-6)


def test_bidisk_zero_free_power_is_not_certified():
    # |z1 + z2| <= 2 < 3 keeps (3 - z1 - z2)^13 zero-free, though its
    # modulus near (1, 1) is far below RESID_TOL times its coefficient norm
    p = P("(3 - z1 - z2)^13")
    rep = bidisk_zero_search(p)
    assert rep.kind == "none_found_heuristic"
    assert rep.min_modulus == pytest.approx((1.0 + 2.0 * DELTA) ** 13, rel=1e-6)


def test_bidisk_disk_flags_match_roots():
    # Schur-Cohn against the moduli of numpy's roots, away from the circle
    rng = np.random.default_rng(8)
    f = rng.standard_normal((6, 400)) + 1j * rng.standard_normal((6, 400))
    f[0] *= rng.uniform(0.2, 8.0, 400)
    inner = np.array([np.abs(np.roots(col[::-1])).min() for col in f.T])
    clear = np.abs(inner - 1.0) > 1e-6
    flags = zeroset._disk_flags(f)
    assert np.array_equal(flags[clear], inner[clear] <= 1.0)
    assert flags.any() and not flags.all()


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


def test_bidisk_nonvanishing_constant():
    rep = bidisk_zero_search(P("1"))
    assert rep.kind == "none_found_heuristic"
    assert rep.min_modulus == pytest.approx(1.0)


def test_bidisk_zero_polynomial_rejected():
    with pytest.raises(DegenerateInputError):
        bidisk_zero_search(Poly2(np.zeros((2, 2))))


def test_bidisk_json_shapes(cli):
    def bidisk(text):
        return json.loads(cli("zeros", "-p", text))["bidisk"]

    d = bidisk("z1 z2 - 0.25")
    assert d["bidisk"] == "zero_found"
    assert len(d["point"]) == 4
    assert d["modulus"] <= 1e-8 * 0.25 * np.sqrt(17.0)

    d = bidisk("2 - z1 - z2")
    assert d["bidisk"] == "none_found_heuristic"
    assert d["min_modulus"] > 0
    assert d["grid"]["delta"] == 1e-3


def test_tolconfig_defaults():
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
