"""End-to-end checks of the command line interface, run in process."""

import csv
import io
import json

import numpy as np
import pytest

from bidisk import closed_form_distance, parse_polynomial, poly2_to_json_dict
from bidisk.cli import main
from bidisk.errors import InconclusiveError, NumericalError


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


def test_zeros_inconclusive_exit4(capsys, monkeypatch):
    def refuse(*a, **k):
        raise InconclusiveError("borderline resultant")

    monkeypatch.setattr("bidisk.cli.torus_zeros", refuse)
    code, out, _ = run(capsys, "zeros", "-p", "2 - z1 - z2")
    assert code == 4
    doc = json.loads(out)
    assert doc["torus"] is None
    assert "borderline" in doc["inconclusive"]
    assert doc["bidisk"]["bidisk"] == "none_found_heuristic"


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


def test_classify_inconclusive_exit4_report_written(capsys):
    code, out, _ = run(
        capsys, "classify", "-p", "(1 - z1)^2", "--alpha", "1", "--nmax", "8"
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["predicted"] == "not_applicable"
    assert "noise floor" in doc["reason"]


def test_classify_override_recovers(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "-p",
        "(1 - z1)^2",
        "--alpha",
        "1",
        "--nmax",
        "8",
        "--set",
        "delta=0.05",
    )
    assert code == 0
    assert json.loads(out)["predicted"] == "cyclic"


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


def test_config_file_and_set_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.001}))
    code, out, _ = run(
        capsys,
        "classify",
        "-p",
        "(1 - z1)^2",
        "--alpha",
        "1",
        "--nmax",
        "8",
        "--config",
        str(cfg),
        "--set",
        "delta=0.05",
    )
    assert code == 0
    assert json.loads(out)["predicted"] == "cyclic"


# ------------------------------------------------------------- exit codes


def test_exit_usage_no_command(capsys):
    assert run(capsys, )[0] == 1


def test_exit_usage_unknown_config_key(capsys):
    code, _, err = run(
        capsys, "zeros", "-p", "1 - z1", "--set", "bogus=1"
    )
    assert code == 1
    assert "unknown config key" in err


def test_exit_usage_poly_conflict(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly2_to_json_dict(parse_polynomial("1"))))
    code, _, err = run(
        capsys, "norm", "-p", "1", "--poly-json", str(path), "--alpha", "1"
    )
    assert code == 1
    assert "not both" in err


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
    def blow_up(system):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("bidisk.cli.solve_normal_equations", blow_up)
    code, _, err = run(capsys, "opa", "-p", "1 - z1", "--alpha", "1", "--nmax", "1")
    assert code == 3
    assert "numerical failure" in err
