"""The eight README commands, run in process, against saved outputs.

The goldens in ``tests/data/readme/`` are the commands' stdout.  Keys,
strings, ints and CSV headers must match exactly; floats must agree to
1e-9 relative, so that another numpy, scipy or BLAS build still passes.
Roundoff-level values (below 1e-12 in magnitude on both sides, such as the
quotient experiment's reconstruction error) only have to stay there.
Numbers printed inside a string, like the approximant expression, are
compared as floats and the text around them exactly.
"""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from bidisk.cli import main

GOLDEN = Path(__file__).parent / "data" / "readme"
REL_TOL = 1e-9
ROUNDOFF = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

README_COMMANDS = {
    "norm.txt": ["norm", "-p", "1 + z1 + z2", "--alpha", "0.5,1,2"],
    "opa.json": ["opa", "-p", "1 - z1*z2", "--alpha", "1", "--nmax", "6", "--family", "diagonal"],
    "scan.csv": ["scan", "-p", "2 - z1 - z2", "--alpha", "1,3", "--nmax", "40", "--family", "total"],
    "zeros.json": ["zeros", "-p", "(1 - z1)*(1 - z2)"],
    "classify.json": ["classify", "-p", "1 - z1*z2", "--alpha", "1", "--nmax", "30", "--family", "diagonal"],
    "classify_factors.json": ["classify", "--factors", "1 - z1; 1 - z2", "--alpha", "1"],
    "recurrence.csv": ["recurrence", "-p", "1", "--kmax", "10", "--lmax", "10"],
    "qsmooth.json": [
        "qsmooth", "-p", "2 - z1 - z2", "--zeros", "1,1", "--exponent", "6", "--grid", "512",
    ],
}


def _close(got: float, want: float) -> bool:
    if abs(got) < ROUNDOFF and abs(want) < ROUNDOFF:
        return True
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _same_text(got: str, want: str, where: str) -> None:
    """Text equal outside its numbers, numbers equal as floats."""
    assert _NUMBER.split(got) == _NUMBER.split(want), where
    pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    for i, (a, b) in enumerate(pairs):
        assert _close(float(a), float(b)), f"{where}: number {i}: {a} != {b}"


def _same_json(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _same_json(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, str):
        _same_text(got, want, where)
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _same_csv(got: str, want: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for i, (a, b) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        assert len(a) == len(b), f"row {i}"
        for x, y in zip(a, b):
            assert _close(float(x), float(y)), f"row {i}: {a} != {b}"


@pytest.mark.parametrize("golden", sorted(README_COMMANDS))
def test_readme_command_output(golden, capsys, tmp_path):
    argv = list(README_COMMANDS[golden])
    qhat = tmp_path / "qhat.csv"
    if golden == "qsmooth.json":
        argv += ["--qhat-csv", str(qhat)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    if golden.endswith(".json"):
        _same_json(json.loads(out), json.loads(want), golden)
    elif golden.endswith(".csv"):
        _same_csv(out, want)
    else:
        assert out.count("\n") == want.count("\n")
        _same_text(out, want, golden)
    if golden == "qsmooth.json":
        rows = qhat.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "k,l,abs_qhat"
        assert len(rows) == 1 + 512 * 512
