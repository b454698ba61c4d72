"""End-to-end checks of the command line interface, run in process; the
closed-pipe check runs it in a child process, which owns its stdout."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bidisk import closed_form_distance, parse_polynomial, poly2_to_json_dict
from bidisk.cli import main
from bidisk.errors import NumericalError
from conftest import MALFORMED_POLY_JSON

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- norm


def test_norm_single_alpha(capsys):
    code, out, _ = run(capsys, "norm", "-p", "2 z1 z2", "--alpha", "2")
    assert code == 0
    assert out.strip() == "alpha=2 iso=36 aniso=64 iso2x=324"


def test_norm_multiple_alphas(capsys):
    code, out, _ = run(capsys, "norm", "-p", "1 + z1", "--alpha", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha=0 iso=2 aniso=2 iso2x=2"
    assert lines[1] == "alpha=1 iso=3 aniso=3 iso2x=5"


def test_norm_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "norm", "-p", "z1 + z2", "--alpha", "1.5")
    assert code == 0
    # 2 * 2^1.5 printed at 12 significant digits
    assert "iso=5.65685424949" in out


# ------------------------------------------------------------------ opa


def test_opa_known_solution(capsys):
    code, out, _ = run(
        capsys,
        "opa",
        "-p",
        "1 - z1",
        "--alpha",
        "1",
        "--nmax",
        "1",
        "--family",
        "box",
        "--n2",
        "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cholesky"
    assert doc["distance_sq"] == pytest.approx(6.0 / 11.0, rel=1e-11)
    assert doc["space"] == {"kind": "iso", "alpha": 1.0}
    assert "z1" in doc["approximant_expr"]
    coeffs = {(c["k"], c["l"]): complex(c["re"], c["im"]) for c in doc["approximant"]["coeffs"]}
    assert coeffs[(0, 0)] == pytest.approx(5.0 / 11.0, rel=1e-9)
    assert coeffs[(1, 0)] == pytest.approx(2.0 / 11.0, rel=1e-9)


def test_opa_single_alpha_required(capsys):
    code, _, err = run(
        capsys, "opa", "-p", "1 - z1", "--alpha", "1,2", "--nmax", "1"
    )
    assert code == 1
    assert "single alpha" in err


def test_opa_univariate_space_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "opa", "-p", "1 - z1", "--alpha", "1", "--nmax", "4", "--space", "uni"
    )
    assert code == 1
    assert out == ""
    assert "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["total", "diagonal"])
def test_opa_n2_without_box_is_a_usage_error(capsys, family):
    code, out, err = run(
        capsys, "opa", "-p", "1 - z1*z2", "--alpha", "1", "--nmax", "3",
        "--family", family, "--n2", "7",
    )
    assert code == 1
    assert out == ""
    assert err == "usage error: --n2 needs --family box\n"


# ----------------------------------------------------------------- scan


def test_scan_csv_structure(capsys):
    code, out, _ = run(
        capsys, "scan", "-p", "1 - z1", "--alpha", "2,1", "--nmax", "6"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 14
    # sorted by alpha, then n
    assert [r["alpha"] for r in rows] == ["1"] * 7 + ["2"] * 7
    assert [int(r["n"]) for r in rows[:7]] == list(range(7))
    assert int(rows[3]["basis_size"]) == 10
    for r in rows:
        alpha = float(r["alpha"])
        want = closed_form_distance("one_minus_z1", alpha, int(r["n"]))
        assert float(r["distance_sq"]) == pytest.approx(want, rel=1e-9)
        assert float(r["distance"]) == pytest.approx(np.sqrt(want), rel=1e-9)
    for block in (rows[:7], rows[7:]):
        d = [float(r["distance_sq"]) for r in block]
        assert all(a >= b - 1e-12 for a, b in zip(d, d[1:]))


def test_scan_negative_alpha_list_after_a_space(capsys):
    args = ("scan", "-p", "1 - z1*z2", "--nmax", "60", "--family", "diagonal")
    glued = run(capsys, *args, "--alpha=-8,-2")
    spaced = run(capsys, *args, "--alpha", "-8,-2")
    assert glued[0] == 0
    assert spaced == glued


def test_norm_negative_alpha_list_after_a_space(capsys):
    code, out, _ = run(capsys, "norm", "-p", "1 + z1", "--alpha", "-1,-.5")
    assert code == 0
    assert out.splitlines()[0].startswith("alpha=-1 iso=1.5 ")


# ---------------------------------------------------------------- zeros


def test_zeros_finite_point(capsys):
    code, out, _ = run(capsys, "zeros", "-p", "2 - z1 - z2")
    assert code == 0
    doc = json.loads(out)
    assert doc["torus"]["torus"] == "finite"
    assert doc["torus"]["points"][0] == pytest.approx([1, 0, 1, 0], abs=1e-8)
    assert doc["bidisk"]["bidisk"] == "none_found_heuristic"
    assert doc["bidisk"]["min_modulus"] == pytest.approx(2e-3, rel=1e-2)


def test_zeros_interior_zero(capsys):
    code, out, _ = run(capsys, "zeros", "-p", "z1 z2 - 0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["bidisk"]["bidisk"] == "zero_found"

    # z2 (2 - z1) vanishes on the slice z2 = 0, where the search's first
    # column is all zeros; 0 is taken for its root
    code, out, _ = run(capsys, "zeros", "-p", "z2*(2 - z1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["bidisk"] == {"bidisk": "zero_found", "point": [0.0, 0.0, 0.0, 0.0], "modulus": 0.0}


def test_zeros_large_resultant_is_refused_without_traceback(capsys):
    # its Sylvester stack would take 512 GiB; the bidisk block is still written
    code, out, err = run(capsys, "zeros", "-p", "z1^256*z2^256 + 2")
    assert code == 4
    doc = json.loads(out)
    assert doc["torus"] is None
    assert "budget" in doc["inconclusive"]
    assert doc["bidisk"]["bidisk"] == "none_found_heuristic"
    assert doc["bidisk"]["grid"] == {"delta": 0.001, "angles": 1024}
    code, out, _ = run(capsys, "classify", "-p", "z1^256*z2^256 + 2", "--alpha", "1")
    assert code == 4
    assert "budget" in json.loads(out)["inconclusive"]


def test_zeros_resultant_within_budget_answers(capsys):
    # a 328 MB Sylvester stack, under the budget: min |p| = 0.5 on the
    # torus is below the grid check's slope 0.98, so the resultant decides
    code, out, _ = run(capsys, "zeros", "-p", "z1^40*z2^40 + 1.5")
    assert code == 0
    assert json.loads(out)["torus"] == {"torus": "empty"}


def test_zero_free_power_is_never_certified_a_zero(capsys):
    # (3 - z1 - z2)^13 has no zeros on the closed bidisk; its modulus near
    # (1, 1) is below the certification tolerance, so classify refuses
    code, out, _ = run(capsys, "zeros", "-p", "(3 - z1 - z2)^13")
    assert json.loads(out)["bidisk"]["bidisk"] == "none_found_heuristic"
    code, out, _ = run(capsys, "classify", "-p", "(3 - z1 - z2)^13", "--alpha", "1", "--nmax", "10")
    assert code == 4
    assert json.loads(out)["predicted"] == "not_applicable"


def test_zeros_zero_free_reports_its_search_grid(capsys):
    code, out, _ = run(capsys, "zeros", "-p", "3 - z1 - z2")
    assert code == 0
    doc = json.loads(out)
    assert doc["torus"] == {"torus": "empty"}
    assert doc["bidisk"] == {
        "bidisk": "none_found_heuristic",
        "min_modulus": pytest.approx(1.002, rel=1e-9),
        "grid": {"delta": 0.001, "angles": 256},
    }


# every subcommand once with each form of the removed tolerance options
_SUBCOMMANDS = [
    ("zeros", "-p", "3 - z1 - z2"),
    ("classify", "-p", "3 - z1 - z2", "--alpha", "3"),
    ("qsmooth", "-p", "3 - z1 - z2", "--exponent", "0", "--grid", "64"),
    ("norm", "-p", "3 - z1 - z2", "--alpha", "1"),
    ("opa", "-p", "3 - z1 - z2", "--alpha", "1", "--nmax", "2"),
    ("scan", "-p", "3 - z1 - z2", "--alpha", "1", "--nmax", "2"),
    ("recurrence", "-p", "1", "--kmax", "1", "--lmax", "1"),
]
_REMOVED_OPTIONS = [("--set", "resid_tol=10"), ("--config", "f.json"), ("--resid-tol", "1")]


@pytest.mark.parametrize(
    "argv", [command + option for command in _SUBCOMMANDS for option in _REMOVED_OPTIONS]
)
def test_tolerance_override_is_refused(capsys, argv):
    # a loosened tolerance once certified a zero of this zero-free polynomial;
    # the flag is refused before any value or file is read
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


# The cases below are the out-of-range settings a range check once answered
# with exit 2 and `message`. The tolerances are now fixed, so the same
# attempt is refused as an unknown flag (exit 1) before any value is read,
# and nothing reaches stdout.


@pytest.mark.parametrize("setting", ["delta=2", "delta=-1", "coarse_radii=0", "coarse_angles=0", "refine_top=0"])
def test_zeros_out_of_range_grid_is_an_input_error(capsys, setting):
    code, out, err = run(capsys, "zeros", "-p", "2 - z1 - z2", "--set", setting)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --set {setting}" in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("radii=abc", "config value for 'radii' must be a number, got 'abc'"),
        ("delta=abc", "config value for 'delta' must be a number, got 'abc'"),
        ("radii=inf", "'radii' must be an integer"),
        ("radii=1.5", "'radii' must be an integer"),
        ("newton_steps=nan", "'newton_steps' must be an integer"),
        ("delta=nan", "delta must lie in (0, 1)"),
        ("circle_tol=-1", "circle_tol must be finite and positive"),
        ("resid_tol=inf", "resid_tol must be finite and positive"),
        ("cluster_tol=nan", "cluster_tol must be finite and positive"),
        ("fit_tol=nan", "fit_tol must be finite and positive"),
        ("plateau_floor=-1", "plateau_floor must be finite and nonnegative"),
        ("drop_ratio=0", "drop_ratio must lie in (0, 1]"),
        ("plateau_credibility=1.5", "plateau_credibility must lie in (0, 1]"),
    ],
)
def test_set_out_of_range_config_is_an_input_error(capsys, setting, message):
    code, out, err = run(capsys, "zeros", "-p", "2 - z1 - z2", "--set", setting)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --set {setting}" in err
    assert message not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"delta": [1]}', "'delta' must be a number"),
        ('{"delta": "0.01"}', "'delta' must be a number"),
        ('{"radii": "abc"}', "config value for 'radii' must be a number, got 'abc'"),
        ('{"radii": true}', "'radii' must be a number"),
        ('{"radii": 1.5}', "'radii' must be an integer"),
        ('{"radii": Infinity}', "'radii' must be an integer"),
        ('{"fit_tol": NaN}', "fit_tol must be finite and positive"),
    ],
)
def test_config_file_bad_value_is_an_input_error(capsys, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "zeros", "-p", "2 - z1 - z2", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: --config {cfg}" in err
    assert message not in err


def test_zeros_inconclusive_exit4(capsys, monkeypatch):
    # a budget of 0 bytes refuses the resultant's three 2 x 2 Sylvester matrices
    monkeypatch.setattr("bidisk.zeroset.STACK_BYTES", 0)
    code, out, _ = run(capsys, "zeros", "-p", "2 - z1 - z2")
    assert code == 4
    doc = json.loads(out)
    assert doc["torus"] is None
    assert "above the 0 GiB budget" in doc["inconclusive"]
    assert doc["bidisk"]["bidisk"] == "none_found_heuristic"


def test_zeros_vanishing_resultant(capsys):
    code, out, _ = run(capsys, "zeros", "-p", "(1 - z1*z2)*(3 - z1 - z2)")
    assert code == 0
    assert json.loads(out)["torus"] == {"torus": "infinite", "witness": "vanishing_resultant"}


# ------------------------------------------------------------- classify


def test_classify_plateau_case(capsys):
    code, out, _ = run(
        capsys, "classify", "-p", "2 - z1 - z2", "--alpha", "3", "--nmax", "12"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == "not_cyclic"
    assert doc["certificate"] == pytest.approx(np.sqrt(6.0) / np.pi, rel=1e-11)
    assert len(doc["scan"]) == 13


# roots just off the circle are known to rounding, so their torus sets are
# empty; an axis root beyond 1 - delta but inside the disk is a zero
@pytest.mark.parametrize("alpha", ["1.5", "3"])
@pytest.mark.parametrize(
    "text, verdict, bidisk",
    [
        ("1.0000005 - z1", "cyclic", "none_found_heuristic"),
        ("2.000000000001 - z1 - z2", "cyclic", "none_found_heuristic"),
        ("(1.0000005 - z1)*(3 - z2)", "cyclic", "none_found_heuristic"),
        ("0.9999995 - z1", "not_cyclic", "zero_found"),
        ("0.9995 - z1", "not_cyclic", "zero_found"),
    ],
)
def test_classify_near_circle_roots(capsys, text, verdict, bidisk, alpha):
    code, out, _ = run(capsys, "classify", "-p", text, "--alpha", alpha, "--nmax", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["torus"]["torus"] == "empty"
    assert doc["bidisk"]["bidisk"] == bidisk
    assert doc["predicted"] == verdict


def test_classify_inconclusive_exit4_report_written(capsys):
    code, out, _ = run(
        capsys, "classify", "-p", "(1 - z1)^2", "--alpha", "1", "--nmax", "8"
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["predicted"] == "not_applicable"
    assert "noise floor" in doc["reason"]


def test_classify_constant_is_cyclic(capsys):
    # every d_n is 0 for a constant, so the decay fit has nothing to fit
    code, out, err = run(capsys, "classify", "-p", "1", "--alpha", "1")
    assert code == 0
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["predicted"] == "cyclic"
    assert doc["empirical"]["label"] == "decaying"
    assert doc["consistent"] is True


def test_classify_factors_product(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--factors",
        "1 - z1; 1 - z2",
        "--alpha",
        "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == "cyclic"
    assert len(doc["factors"]) == 2
    assert all(f["predicted"] == "cyclic" for f in doc["factors"])


def test_classify_factors_not_cyclic(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--factors",
        "1 - z1; 2 - z1 - z2",
        "--alpha",
        "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == "not_cyclic"


def test_classify_factors_inconclusive_exit4(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--factors",
        "(1 - z1)^2; 2 - z1",
        "--alpha",
        "1",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["predicted"] == "not_applicable"


def test_classify_factors_torus_refused_exit4(capsys, monkeypatch):
    # as in test_zeros_inconclusive_exit4: the first factor's resultant is
    # refused, which ends the run before the second factor; the refused
    # factor is not searched
    monkeypatch.setattr("bidisk.zeroset.STACK_BYTES", 0)
    searched = []
    monkeypatch.setattr("bidisk.cli.bidisk_zero_search", searched.append)
    code, out, _ = run(
        capsys, "classify", "--factors", "2 - z1 - z2; 3 - z1 - z2", "--alpha", "1"
    )
    assert searched == []
    assert code == 4
    doc = json.loads(out)
    assert doc["predicted"] is None
    [factor] = doc["factors"]
    assert set(factor) == {"polynomial", "inconclusive"}
    assert factor["polynomial"] == poly2_to_json_dict(parse_polynomial("2 - z1 - z2"))
    assert "above the 0 GiB budget" in factor["inconclusive"]


def test_classify_torus_refused_exit4(capsys, monkeypatch):
    # as above, for one polynomial: the refused torus class ends the run
    # before the search
    monkeypatch.setattr("bidisk.zeroset.STACK_BYTES", 0)
    searched = []
    monkeypatch.setattr("bidisk.classify.bidisk_zero_search", searched.append)
    code, out, _ = run(capsys, "classify", "-p", "2 - z1 - z2", "--alpha", "1")
    assert searched == []
    assert code == 4
    doc = json.loads(out)
    assert set(doc) == {"polynomial", "alpha", "inconclusive"}
    assert "above the 0 GiB budget" in doc["inconclusive"]


# ----------------------------------------------------- recurrence, qsmooth


def test_recurrence_csv(capsys):
    code, out, _ = run(capsys, "recurrence", "-p", "1", "--kmax", "1", "--lmax", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "l", "residual_re", "residual_im"]
    table = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows[1:]}
    assert table[("0", "0")] == (2.0, 0.0)
    assert table[("1", "0")] == (0.0, 0.0)
    assert table[("0", "1")] == (0.0, 0.0)


def test_qsmooth_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "qhat.csv"
    code, out, _ = run(
        capsys,
        "qsmooth",
        "-p",
        "2 - z1 - z2",
        "--zeros",
        "1,1",
        "--exponent",
        "2",
        "--grid",
        "32",
        "--qhat-csv",
        str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 2
    assert doc["grid_size"] == 32
    assert doc["weighted_tail_ratio"] == pytest.approx(1.0, abs=1e-9)
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["k", "l", "abs_qhat"]
    assert len(rows) == 1 + 32 * 32
    table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert table[("0", "0")] == pytest.approx(2.0, abs=1e-9)
    assert table[("1", "0")] == pytest.approx(1.0, abs=1e-9)


def test_qsmooth_complex_zero_syntax(capsys):
    code, out, _ = run(
        capsys,
        "qsmooth",
        "-p",
        "2 + i z1 + z2",
        "--zeros",
        "i,-1",
        "--exponent",
        "2",
        "--grid",
        "32",
    )
    assert code == 0
    assert json.loads(out)["weighted_tail_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_qsmooth_negative_zero_after_a_space(capsys):
    # argparse reads "-1,-1" as an option unless it is glued to --zeros
    args = ("qsmooth", "-p", "2 + z1 + z2", "--exponent", "1", "--grid", "64")
    glued = run(capsys, *args, "--zeros=-1,-1")
    spaced = run(capsys, *args, "--zeros", "-1,-1")
    assert glued[0] == 0
    assert spaced == glued
    assert json.loads(spaced[1])["zeros"] == [[-1.0, 0.0, -1.0, 0.0]]


# ------------------------------------------------------------- I/O wiring


def test_out_file_and_poly_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "opa",
        "-p",
        "1 - z1",
        "--alpha",
        "1",
        "--nmax",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert stdout == ""
    doc = json.loads(out_path.read_text())

    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(doc["approximant"]))
    code, out, _ = run(capsys, "norm", "--poly-json", str(poly_path), "--alpha", "1")
    assert code == 0
    assert out.startswith("alpha=1 iso=")


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "-p", "1 + z1", "--alpha", "1,2"],
        ["opa", "-p", "z1", "--alpha", "1", "--nmax", "2"],
        ["scan", "-p", "2 - z1 - z2", "--alpha", "1", "--nmax", "5"],
        ["zeros", "-p", "2 - z1 - z2"],
        ["classify", "-p", "2 - z1 - z2", "--alpha", "1", "--nmax", "10"],
        ["recurrence", "-p", "1 - z1", "--kmax", "3", "--lmax", "3"],
        ["qsmooth", "-p", "2 - z1 - z2", "--zeros", "1,1", "--exponent", "2", "--grid", "32"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_bytes() == stdout.encode("utf-8")


def test_exit_unwritable_out(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "norm", "-p", "1 + z1", "--alpha", "1", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot write {path}: ")


def test_exit_unwritable_qhat_csv(capsys, tmp_path):
    path = tmp_path / "missing" / "qhat.csv"
    code, out, err = run(
        capsys, "qsmooth", "-p", "2 - z1 - z2", "--zeros", "1,1",
        "--exponent", "2", "--grid", "32", "--qhat-csv", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: cannot write {path}: ")


# ------------------------------------------------------------- exit codes


def test_exit_usage_no_command(capsys):
    assert run(capsys, )[0] == 1


def test_exit_usage_unknown_config_key(capsys):
    code, _, err = run(
        capsys, "zeros", "-p", "1 - z1", "--set", "bogus=1"
    )
    assert code == 1
    assert "unrecognized arguments: --set bogus=1" in err


def test_exit_usage_set_without_value(capsys):
    code, out, err = run(capsys, "zeros", "-p", "1 - z1", "--set", "radii")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --set radii" in err


def test_exit_usage_poly_conflict(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly2_to_json_dict(parse_polynomial("1"))))
    code, _, err = run(
        capsys, "norm", "-p", "1", "--poly-json", str(path), "--alpha", "1"
    )
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize(
    "source, factors", [("-p", "1 - z1; 1 - z2"), ("--poly-json", "1 - z1; 1 - z2"), ("-p", "")]
)
def test_exit_usage_poly_with_factors(capsys, tmp_path, source, factors):
    # a second source is refused even when one of them is empty
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly2_to_json_dict(parse_polynomial("2 - z1"))))
    value = "2 - z1" if source == "-p" else str(path)
    code, out, err = run(capsys, "classify", source, value, "--factors", factors, "--alpha", "1")
    assert code == 1
    assert out == ""
    assert err == "usage error: give either --factors or a polynomial, not both\n"


@pytest.mark.parametrize("case", MALFORMED_POLY_JSON)
def test_exit_malformed_poly_json(capsys, tmp_path, case):
    path = tmp_path / "p.json"
    path.write_text(MALFORMED_POLY_JSON[case])
    code, out, err = run(capsys, "norm", "--poly-json", str(path), "--alpha", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: malformed polynomial JSON: ")


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "-p", "1 + z1"],
        ["opa", "-p", "1 - z1", "--nmax", "2"],
        ["scan", "-p", "1 - z1", "--nmax", "2"],
        ["classify", "-p", "1 - z1", "--nmax", "4"],
        ["classify", "--factors", "1 - z1; 1 - z2"],
    ],
)
def test_non_finite_alpha_is_an_input_error(capsys, argv, alpha):
    # no strict JSON parser reads NaN or Infinity, so no report may carry one
    code, out, err = run(capsys, *argv, "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert err == "input error: alpha must be finite\n"


def test_classify_reads_the_polynomial_before_its_alpha(capsys):
    # every subcommand reads its polynomial first, so a bad polynomial is
    # reported ahead of a bad --alpha
    code, out, err = run(capsys, "classify", "--alpha", "1,2", "-p", "1 - (")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: unexpected end of input")


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "norm", "-p", "1 + $", "--alpha", "1")
    assert code == 2
    assert "input error" in err


def test_exit_degenerate_input(capsys):
    code, _, err = run(capsys, "zeros", "-p", "0")
    assert code == 2


def test_exit_missing_poly_json(capsys):
    code, _, err = run(capsys, "norm", "--poly-json", "/nonexistent.json", "--alpha", "1")
    assert code == 2


def test_exit_numerical_failure(capsys, monkeypatch):
    def blow_up(*args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("bidisk.cli.optimal_approximant", blow_up)
    code, _, err = run(capsys, "opa", "-p", "1 - z1", "--alpha", "1", "--nmax", "1")
    assert code == 3
    assert "numerical failure" in err


def test_memory_error_is_refused_without_traceback(capsys, monkeypatch):
    # numpy raises MemoryError when a scan's arrays cannot be allocated
    def too_large(*a, **k):
        raise MemoryError("Unable to allocate 37.3 GiB for an array")

    monkeypatch.setattr("bidisk.cli.distance_scan", too_large)
    code, out, err = run(capsys, "scan", "-p", "1 - z1", "--alpha", "1", "--nmax", "100000")
    assert code == 4
    assert out == ""
    assert err == "refused: Unable to allocate 37.3 GiB for an array\n"


@pytest.mark.parametrize("command", ["opa", "scan", "classify"])
def test_underflowing_gram_is_a_numerical_failure(capsys, command):
    # every entry of A^H A underflows to zero: the factorization reports it
    code, out, err = run(
        capsys, command, "-p", "1e-300 z1 z2 + 1e-300", "--alpha", "1", "--nmax", "6"
    )
    assert code == 3
    assert out == ""
    assert err == "numerical failure: Gram matrix is not positive definite (leading minor 1)\n"


def test_norm_overflow_is_a_numerical_failure(capsys):
    # |1e308|^2 * 2 is past the double range: an error, not an inf result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "norm", "-p", "1e308 z1 + 1", "--alpha", "1")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: squared norm in iso(1) overflows the double range\n"


def test_operator_overflow_is_a_numerical_failure(capsys):
    # 1e308 times the weight sqrt(2) is past the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "opa", "-p", "1e308 z1 + 1", "--alpha", "1", "--nmax", "2")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: weighted operator overflows the double range\n"


@pytest.mark.parametrize("n_max", ["3", "10"])
def test_gram_overflow_is_a_numerical_failure(capsys, n_max):
    # A's entries are finite, but its squares overflow in A^H A: refused
    # before the factorization, whose infinite pivot would give c = 0 and
    # d^2 = 1 on every row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "scan", "-p", "1e160*(1 - z1)", "--alpha", "1", "--nmax", n_max)
    assert code == 3
    assert out == ""
    assert err == "numerical failure: Gram matrix overflows the double range\n"


def test_resultant_overflow_is_a_numerical_failure(capsys):
    # (3 - z1 - z2)^20 is a valid input; its resultant overflowing is the
    # program's failure (exit 3), not an input error (exit 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", "-p", "(3 - z1 - z2)^20", "--alpha", "1", "--nmax", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: resultant overflows the double range")


def test_closed_pipe_ends_quietly(tmp_path):
    # the reader is gone before the report is written: no traceback, exit 0
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bidisk.cli", "zeros", "-p", "(2 - z1 - z2)*(3 - z1 - z2)"],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


def test_zeros_with_negligible_trailing_coefficient(capsys):
    # the root -1e-308 of 1e308 z1 + 1 is dropped before the circle roots
    # are taken; the search certifies a zero within 1e-308 of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "zeros", "-p", "1e308 z1 + 1")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["torus"] == {"torus": "empty"}
    assert report["bidisk"]["bidisk"] == "zero_found"
    assert abs(complex(*report["bidisk"]["point"][:2]) + 1e-308) <= 1e-300


def test_zeros_with_overflowing_coefficient_norm(capsys):
    # the coefficient norm 1.41e200 has a square past the double range; an
    # inf norm would certify |p| = 4e197 as a zero, but |z1 z2| = 1 on Z(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "zeros", "-p", "1e200*z1^2*z2^2 + 1e200")
    assert code == 0
    assert err == ""
    assert json.loads(out)["bidisk"]["bidisk"] == "none_found_heuristic"


def test_zeros_with_negligible_leading_coefficient(capsys):
    # the root -1e320 of 1e-320 z1 + 1 is dropped before any roots are taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "zeros", "-p", "1e-320 z1 + 1")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["torus"] == {"torus": "empty"}
    assert report["bidisk"]["min_modulus"] == 1.0
