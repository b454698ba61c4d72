"""Per-operation checks against truth known by construction.

Nothing here uses the program's own output as a reference: distances are
checked against their invariants, the analytic first distance and the
closed forms, verdicts and torus kinds against the alpha rule applied to
the construction, and CLI output against its documented format and exit
codes.  The decay label is heuristic and is not checked.

Each check returns ``(status, detail)`` with status "ok", "refused" (an
honest refusal: a not-applicable verdict, an inconclusive classification or
exit 4) or "failed".
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import replace

import numpy as np

MONOTONE_SLACK = 1e-10
REL_TOL = 1e-9
ABS_TOL = 1e-15
POINT_TOL = 1e-6
TRACEBACK = "Traceback (most recent call last)"


def iso_weights(shape, alpha: float) -> np.ndarray:
    k = np.arange(shape[0], dtype=np.float64)[:, None]
    l = np.arange(shape[1], dtype=np.float64)[None, :]
    return (k + l + 1.0) ** alpha


def d0_squared(coeffs: np.ndarray, alpha: float) -> float:
    """Distance from 1 to the multiples c*f: 1 - |f(0)|^2 / ||f||^2."""
    c = np.asarray(coeffs, dtype=np.complex128)
    norm2 = float(np.sum(iso_weights(c.shape, alpha) * np.abs(c) ** 2))
    return 1.0 - abs(c[0, 0]) ** 2 / norm2


def closed_form(name: str, alpha: float, n: int, family: str) -> float:
    """Exact distance squared for 1 - z1 (total) and 1 - z1 z2.

    Multiplication by these f preserves the lines of the exponent grid, so
    only the monomials on the line through the origin help: powers of z1
    for 1 - z1 and of z1 z2 for 1 - z1 z2, of which a total-degree-n basis
    holds n // 2 + 1.  Telescoping then gives 1 / sum_{j <= m+1} w_j^-1.
    """
    if name == "one_minus_z1":
        j = np.arange(n + 2, dtype=np.float64)
        return float(1.0 / np.sum((j + 1.0) ** (-alpha)))
    m = n // 2 if family == "total" else n
    j = np.arange(m + 2, dtype=np.float64)
    return float(1.0 / np.sum((2.0 * j + 1.0) ** (-alpha)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b) + ABS_TOL


def distance_problems(op, rows) -> list[str]:
    """Invariants of a distance sequence; rows are (n, basis_size, d2)."""
    problems = []
    if len(rows) != op.nmax + 1:
        return [f"{len(rows)} rows for nmax {op.nmax}"]
    d2 = np.array([r[2] for r in rows], dtype=np.float64)
    for n, (rn, size, _) in enumerate(rows):
        want = (n + 1) * (n + 2) // 2 if op.family == "total" else n + 1
        if rn != n or size != want:
            problems.append(f"row {n} has n={rn} basis_size={size}")
            break
    if not np.all(np.isfinite(d2)) or d2.min() < 0.0 or d2.max() > 1.0:
        problems.append("distance outside [0, 1]")
    if np.any(np.diff(d2) > MONOTONE_SLACK):
        problems.append("distances increase")
    want0 = d0_squared(op.coeffs, op.alpha)
    if not _close(d2[0], want0):
        problems.append(f"d0^2 {d2[0]!r} != {want0!r}")
    if op.closed_form:
        bad = [n for n, v in enumerate(d2) if not _close(v, closed_form(op.closed_form, op.alpha, n, op.family))]
        if bad:
            problems.append(f"closed form fails at n = {bad[:5]}")
    return problems


def _status(problems: list[str], refused: str = "") -> tuple[str, str]:
    if problems:
        return "failed", "; ".join(problems)
    if refused:
        return "refused", refused
    return "ok", ""


def check_scan(op, scan_rows) -> tuple[str, str]:
    rows = [(r.n, r.basis_size, r.distance_squared) for r in scan_rows]
    return _status(distance_problems(op, rows))


def _torus_problems(op, kind: str, points) -> list[str]:
    if kind != op.torus:
        return [f"torus {kind} != {op.torus}"]
    if op.torus_point is not None:
        w1, w2 = op.torus_point
        if len(points) != 1 or max(abs(points[0][0] - w1), abs(points[0][1] - w2)) > POINT_TOL:
            return [f"torus points {points} != [{op.torus_point}]"]
    return []


def check_report(op, report) -> tuple[str, str]:
    """A ClassificationReport from corroborate."""
    rows = [(r.n, r.basis_size, r.distance_squared) for r in report.scan]
    problems = distance_problems(op, rows)
    problems += _torus_problems(op, report.torus.kind, list(report.torus.points))
    verdict = report.predicted.verdict
    if verdict == "not_applicable":
        return _status(problems, "not_applicable")
    if verdict != op.verdict:
        problems.append(f"verdict {verdict} != {op.verdict}")
    return _status(problems)


# ---------------------------------------------------------------------------
# command line output
# ---------------------------------------------------------------------------


def _json_points(torus: dict) -> list[tuple[complex, complex]]:
    return [(complex(a, b), complex(c, d)) for a, b, c, d in torus.get("points", [])]


def _cli_norm(op, out, workdir):
    c = np.asarray(op.coeffs)
    k = np.arange(c.shape[0], dtype=np.float64)[:, None]
    l = np.arange(c.shape[1], dtype=np.float64)[None, :]
    mod2 = np.abs(c) ** 2
    problems = []
    lines = out.strip().splitlines()
    if len(lines) != 3:
        return [f"{len(lines)} norm lines"]
    for line, alpha in zip(lines, (0.5, 1.0, 2.0)):
        fields = dict(item.split("=", 1) for item in line.split())
        want = {
            "iso": np.sum((k + l + 1.0) ** alpha * mod2),
            "aniso": np.sum(((k + 1.0) * (l + 1.0)) ** alpha * mod2),
            "iso2x": np.sum((k + l + 1.0) ** (2.0 * alpha) * mod2),
        }
        if float(fields["alpha"]) != alpha:
            problems.append(f"alpha {fields['alpha']}")
        for key, value in want.items():
            if not _close(float(fields[key]), float(value)):
                problems.append(f"{key} {fields[key]} != {value!r} at alpha {alpha}")
    return problems


def _cli_opa(op, out, workdir):
    report = json.loads(out)
    d2 = float(report["distance_sq"])
    want = closed_form(op.closed_form, op.alpha, op.nmax, op.family)
    if not _close(d2, want):
        return [f"distance_sq {d2!r} != {want!r}"]
    return []


def _cli_scan(op, out, workdir):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["alpha", "n", "basis_size", "distance_sq", "distance"]:
        return [f"CSV header {rows[0]}"]
    problems = []
    by_alpha: dict[float, list] = {}
    for alpha, n, size, d2, d in rows[1:]:
        by_alpha.setdefault(float(alpha), []).append((int(n), int(size), float(d2)))
        if not _close(float(d) ** 2, float(d2)):
            problems.append(f"distance {d} is not sqrt({d2})")
    if sorted(by_alpha) != [1.0, 3.0]:
        return [f"alphas {sorted(by_alpha)}"]
    for alpha, alpha_rows in by_alpha.items():
        problems += distance_problems(replace(op, alpha=alpha), alpha_rows)
    return problems


def _cli_zeros(op, out, workdir):
    report = json.loads(out)
    torus = report["torus"]
    problems = _torus_problems(op, torus["torus"], _json_points(torus))
    if report["bidisk"]["bidisk"] not in ("zero_found", "none_found_heuristic"):
        problems.append(f"bidisk {report['bidisk']}")
    return problems


def _cli_classify(op, out, workdir):
    report = json.loads(out)
    rows = [(r["n"], r["basis_size"], r["distance_sq"]) for r in report["scan"]]
    problems = distance_problems(op, rows)
    problems += _torus_problems(op, report["torus"]["torus"], _json_points(report["torus"]))
    if report["predicted"] not in (op.verdict, "not_applicable"):
        problems.append(f"verdict {report['predicted']} != {op.verdict}")
    return problems


def _cli_factors(op, out, workdir):
    report = json.loads(out)
    problems = []
    if len(report["factors"]) != 2:
        problems.append(f"{len(report['factors'])} factors")
    for factor in report["factors"]:
        if factor["torus"]["torus"] != op.torus:
            problems.append(f"factor torus {factor['torus']['torus']} != {op.torus}")
    if report["predicted"] not in (op.verdict, "not_applicable"):
        problems.append(f"verdict {report['predicted']} != {op.verdict}")
    return problems


def _cli_recurrence(op, out, workdir):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["k", "l", "residual_re", "residual_im"]:
        return [f"CSV header {rows[0]}"]
    cells = {(int(k), int(l)) for k, l, re, im in rows[1:] if np.isfinite(float(re) + float(im))}
    if cells != {(k, l) for k in range(11) for l in range(11)}:
        return [f"{len(rows) - 1} residual rows, {len(cells)} distinct finite cells"]
    return []


def _cli_qsmooth(op, out, workdir):
    report = json.loads(out)
    problems = []
    if report["grid_size"] != 512 or report["N"] != 6:
        problems.append(f"grid {report['grid_size']} N {report['N']}")
    for key in ("neg_freq_energy_fraction", "weighted_tail_ratio", "reconstruction_error"):
        if not np.isfinite(float(report[key])):
            problems.append(f"{key} {report[key]}")
    path = os.path.join(workdir, op.argv[-1])
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
        count = 2 + sum(1 for _ in fh)
    os.remove(path)
    if header != "k,l,abs_qhat" or count != 512 * 512 + 1 or len(first) != 3:
        problems.append(f"qhat CSV header {header!r}, {count} lines")
    return problems


CLI_CHECKS = {
    "norm": _cli_norm,
    "opa": _cli_opa,
    "scan": _cli_scan,
    "zeros": _cli_zeros,
    "classify": _cli_classify,
    "factors": _cli_factors,
    "recurrence": _cli_recurrence,
    "qsmooth": _cli_qsmooth,
    "delta_2": _cli_zeros,
    "space_uni": _cli_opa,
    "constant": _cli_classify,
}

# Exit codes the documented behaviour allows for each input, beyond 0.  An
# out-of-range search radius and the univariate space on a two-variable
# basis may be rejected as usage (1) or input (2) errors; an empty coarse
# grid must be.
REJECT_OK = {"delta_2": {1, 2}, "space_uni": {1, 2}, "coarse_radii_0": {1, 2}}
MUST_REJECT = {"coarse_radii_0"}
MAY_REFUSE = {"zeros", "classify", "factors", "delta_2"}


def check_cli(op, code: int, out: str, err: str, workdir: str) -> tuple[str, str]:
    if TRACEBACK in err or TRACEBACK in out:
        return "failed", f"traceback, exit {code}: {err.strip().splitlines()[-1:]}"
    if code in REJECT_OK.get(op.name, ()):
        return _status([] if err.strip() else [f"exit {code} without a message"])
    if op.name in MUST_REJECT:
        return "failed", f"exit {code}, expected 1 or 2"
    if code == 4 and op.name in MAY_REFUSE:
        return "refused", "exit 4"
    if code != 0:
        return "failed", f"exit {code}: {err.strip()[-200:]}"
    try:
        problems = CLI_CHECKS[op.name](op, out, workdir)
    except (ValueError, KeyError, IndexError, TypeError, OSError, csv.Error) as exc:
        problems = [f"missing or unparsable output: {exc!r}"]
    return _status(problems)
