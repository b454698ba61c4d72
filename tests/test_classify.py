"""Cyclicity prediction, the product rule, and the corroborating pipeline."""

import json

import numpy as np
import pytest

from bidisk import (
    BidiskZeroReport,
    Prediction,
    TorusZeroClass,
    corroborate,
    parse_polynomial,
    predict,
    product_rule,
    rotate,
    torus_zeros,
    bidisk_zero_search,
)
from bidisk.approximant import ScanRow, distance_scan, evaluation_bound_certificate
from bidisk.cli import main
from bidisk.errors import DegenerateInputError, NumericalError

P = parse_polynomial

CLEAN = BidiskZeroReport("none_found_heuristic", None, 0.5)
ZERO_HIT = BidiskZeroReport("zero_found", (0.1 + 0j, 0.2 + 0j), 1e-12)
LOW_MARGIN = BidiskZeroReport("none_found_heuristic", None, 1e-7)

EMPTY = TorusZeroClass("empty")
FINITE = TorusZeroClass("finite", points=((1 + 0j, 1 + 0j),))
INFINITE = TorusZeroClass(
    "infinite", witness="proportional_reflection", witness_data=-1.0
)


# ----------------------------------------------------------------- predict


def test_interior_zero_defeats_cyclicity():
    p = P("2 - z1 - z2")
    for alpha in (0.0, 1.0, 2.5):
        for torus in (EMPTY, FINITE, INFINITE):
            v = predict(p, alpha, torus, ZERO_HIT)
            assert v.verdict == "not_cyclic"


def test_small_margin_is_not_applicable():
    v = predict(P("2 - z1 - z2"), 1.0, EMPTY, LOW_MARGIN)
    assert v.verdict == "not_applicable"
    assert "inconclusive" in v.reason


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_small_alpha_always_cyclic(alpha):
    for torus in (EMPTY, FINITE, INFINITE):
        assert predict(P("2 - z1 - z2"), alpha, torus, CLEAN).verdict == "cyclic"


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_middle_range_splits_on_finiteness(alpha):
    p = P("2 - z1 - z2")
    assert predict(p, alpha, EMPTY, CLEAN).verdict == "cyclic"
    assert predict(p, alpha, FINITE, CLEAN).verdict == "cyclic"
    assert predict(p, alpha, INFINITE, CLEAN).verdict == "not_cyclic"


def test_large_alpha_needs_empty_torus():
    p = P("2 - z1 - z2")
    assert predict(p, 2.5, EMPTY, CLEAN).verdict == "cyclic"
    assert predict(p, 2.5, FINITE, CLEAN).verdict == "not_cyclic"
    assert predict(p, 2.5, INFINITE, CLEAN).verdict == "not_cyclic"


def test_verdict_monotone_in_alpha():
    # once a polynomial stops being cyclic it never comes back
    for text in ("2 - z1 - z2", "1 - z1 z2", "z1 - 1", "z1 - 2"):
        p = P(text)
        torus = torus_zeros(p)
        bidisk = bidisk_zero_search(p)
        seen_not_cyclic = False
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            v = predict(p, alpha, torus, bidisk).verdict
            assert v in ("cyclic", "not_cyclic")
            if seen_not_cyclic:
                assert v == "not_cyclic"
            seen_not_cyclic = v == "not_cyclic"


def test_predict_rotation_invariant():
    for text, alpha in (("1 - z1 z2", 1.5), ("2 - z1 - z2", 3.0)):
        p = P(text)
        q = rotate(p, 1j, -1.0)
        vp = predict(p, alpha, torus_zeros(p), bidisk_zero_search(p)).verdict
        vq = predict(q, alpha, torus_zeros(q), bidisk_zero_search(q)).verdict
        assert vp == vq


def test_noise_floor_from_real_search():
    # a squared factor grazes the boundary too closely to certify either way
    p = P("(1 - z1)^2")
    v = predict(p, 1.0, torus_zeros(p), bidisk_zero_search(p))
    assert v.verdict == "not_applicable"


# ------------------------------------------------------------ product rule


def test_product_rule_combinations():
    cyc = Prediction("cyclic", "")
    ncy = Prediction("not_cyclic", "")
    na = Prediction("not_applicable", "")
    assert product_rule([cyc, cyc]).verdict == "cyclic"
    assert product_rule([cyc, ncy]).verdict == "not_cyclic"
    assert product_rule([na, ncy]).verdict == "not_cyclic"
    assert product_rule([cyc, na]).verdict == "not_applicable"
    assert product_rule([cyc]).verdict == "cyclic"


def test_product_rule_rejects_empty():
    with pytest.raises(DegenerateInputError):
        product_rule([])


# ------------------------------------------------------------- corroborate


def test_corroborate_slow_decay_is_cyclic():
    rep = corroborate(P("1 - z1 z2"), 1.0, n_max=120, family="diagonal")
    assert rep.predicted.verdict == "cyclic"
    assert rep.empirical is not None
    assert rep.empirical.label == "decaying"
    assert rep.consistent is True
    assert rep.certificate is None
    d2 = [r.distance_squared for r in rep.scan]
    assert d2[0] == pytest.approx(0.75, rel=1e-9)
    assert all(a >= b - 1e-12 for a, b in zip(d2, d2[1:]))


def test_corroborate_plateau_with_certificate():
    rep = corroborate(P("2 - z1 - z2"), 3.0, n_max=40)
    assert rep.predicted.verdict == "not_cyclic"
    assert rep.empirical is not None
    assert rep.empirical.label == "plateau"
    assert rep.consistent is True
    assert rep.certificate == pytest.approx(np.sqrt(6.0) / np.pi, rel=1e-12)
    # every observed distance respects the lower bound
    assert min(r.distance for r in rep.scan) >= rep.certificate - 1e-9


def _scan_with_low_row(f, space, n_max, family="total"):
    # the real scan with row 5 pushed just below the evaluation bound at 3
    rows = distance_scan(f, space, n_max, family=family)
    d = 0.999 * evaluation_bound_certificate(3.0)
    rows[5] = ScanRow(rows[5].n, rows[5].basis_size, d * d, d)
    return rows


def test_corroborate_certificate_gate_rejects_row_below_bound(monkeypatch, capsys):
    monkeypatch.setattr("bidisk.classify.distance_scan", _scan_with_low_row)
    with pytest.raises(NumericalError, match="certificate violated: d_5"):
        corroborate(P("2 - z1 - z2"), 3.0, n_max=12)
    code = main(["classify", "-p", "2 - z1 - z2", "--alpha", "3", "--nmax", "12"])
    assert code == 3
    assert "evaluation-bound certificate violated" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [3.0, 40.0])
def test_corroborate_certificate_gate_passes_real_scan(alpha):
    # at alpha = 40 the smallest distance meets the bound to the last digit,
    # the tightest case the gate's 1e-9 relative slack is there for
    rep = corroborate(P("2 - z1 - z2"), alpha, n_max=20)
    assert rep.certificate == pytest.approx(evaluation_bound_certificate(alpha), rel=1e-12)
    assert min(r.distance for r in rep.scan) >= rep.certificate * (1.0 - 1e-9)


def test_corroborate_certificate_only_past_two():
    rep = corroborate(P("2 - z1 - z2"), 1.5, n_max=12)
    assert rep.certificate is None


def test_corroborate_geometric_decay_never_plateaus():
    rep = corroborate(P("z1 - 2"), 3.0, n_max=24)
    assert rep.predicted.verdict == "cyclic"
    assert rep.certificate is None
    assert rep.empirical is not None
    assert rep.empirical.label != "plateau"
    assert rep.consistent is True


def test_corroborate_not_applicable_has_no_consistency():
    rep = corroborate(P("(1 - z1)^2"), 1.0, n_max=10)
    assert rep.predicted.verdict == "not_applicable"
    assert rep.consistent is None


def test_corroborate_short_scan_skips_empirics():
    rep = corroborate(P("2 - z1 - z2"), 1.0, n_max=5)
    assert rep.empirical is None
    assert rep.consistent is None
    assert len(rep.scan) == 6


def test_report_json_shape(cli):
    d = json.loads(cli("classify", "-p", "2 - z1 - z2", "--alpha", "3", "--nmax", "12"))
    assert d["alpha"] == 3.0
    assert d["predicted"] == "not_cyclic"
    assert d["torus"]["torus"] == "finite"
    assert d["bidisk"]["bidisk"] == "none_found_heuristic"
    assert d["empirical"]["label"] in ("plateau", "inconclusive")
    assert len(d["scan"]) == 13
    assert d["scan"][0]["basis_size"] == 1
    assert d["scan"][3]["basis_size"] == 10
    assert d["consistent"] in (True, None)
