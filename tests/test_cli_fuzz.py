"""Fuzzed command lines: every argv ends in a documented exit code (0-4).

Argument vectors are built across all seven subcommands from small values,
junk tokens, the removed override flags, negative and comma-list alphas,
malformed polynomial JSON files and unwritable output paths.  No exception
may escape ``main``; a SystemExit from ``--help`` counts as its code.  A JSON
report written to stdout must be strict JSON: no NaN, no Infinity.  Sizes
are bounded so that one run stays fast.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidisk.cli import main
from conftest import MALFORMED_POLY_JSON

POLYS = [
    "1", "0", "z1", "2 - z1 - z2", "3 - z1 - z2", "1 - z1*z2", "(1 - z1)^2",
    "(1 - z1)*(1 - z2)", "z1 z2 - 0.25", "2 + i z1 + z2", "z1^3 - z2^2",
    "1e308 z1 + 1", "1e-320 z1 + 1", "1e400", "0 z1", "1 + $", "", "((", "z3",
    "z1^-1", "- - 1",
]
ALPHAS = [
    "1", "3", "-8", "-8,-2", "-.5,2", "1,2,3", "0", "1e3", "-1e3", "1e400",
    "nan", "inf", "-inf", ",", "", "abc", "2,,3", "-",
]
SIZES = ["-1", "0", "1", "2", "3", "4", "5", "6", "1.5", "abc", ""]
ZEROS = ["1,1", "i,-1", "1,1;-1,-1", "2,1", "1", "a,b", "", ";", "0,0"]
FACTORS = ["1 - z1; 1 - z2", "2 - z1 - z2", "0", ";", "", "1 + $; z1", "z1 z2 - 0.25"]
JUNK = [
    "--bogus", "-x", "junk", "--", "--help", "-h", "--alpha", "--nmax", "--out",
    "--set", "delta=2", "resid_tol=10", "--config", "f.json", "--resid-tol", "1",
    "-8,-2", "--poly-json", "/nonexistent/p.json", "-p",
]
FAMILIES = ["total", "box", "diagonal", "tri"]
SPACES = ["iso", "aniso", "uni"]

# per subcommand: flag -> values (None marks a path filled in by the test)
COMMANDS = {
    "norm": {"-p": POLYS, "--alpha": ALPHAS, "--out": None},
    "opa": {
        "-p": POLYS, "--alpha": ALPHAS, "--nmax": SIZES, "--family": FAMILIES,
        "--n2": SIZES, "--space": SPACES, "--out": None,
    },
    "scan": {
        "-p": POLYS, "--alpha": ALPHAS, "--nmax": SIZES, "--family": FAMILIES,
        "--space": SPACES, "--out": None,
    },
    "zeros": {"-p": POLYS, "--out": None},
    "classify": {
        "-p": POLYS, "--alpha": ALPHAS, "--nmax": SIZES, "--family": FAMILIES,
        "--factors": FACTORS, "--out": None,
    },
    "recurrence": {"-p": POLYS, "--kmax": SIZES, "--lmax": SIZES, "--out": None},
    "qsmooth": {
        "-p": POLYS, "--zeros": ZEROS, "--exponent": ["-1", "0", "1", "2", "3", "x"],
        "--grid": ["0", "1", "3", "4", "8", "16", "32", "64", "x"],
        "--qhat-csv": None, "--out": None,
    },
}

JSON_COMMANDS = {"opa", "zeros", "classify", "qsmooth"}  # subcommands whose report is JSON


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return [str(base / "out.txt"), str(base / "missing" / "out.txt"), str(base)]


@pytest.fixture(scope="module")
def poly_jsons(tmp_path_factory):
    base = tmp_path_factory.mktemp("poly_json")
    for name, text in MALFORMED_POLY_JSON.items():
        (base / f"{name}.json").write_text(text)
    return [str(base / f"{name}.json") for name in MALFORMED_POLY_JSON]


@st.composite
def argvs(draw, paths, poly_jsons):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    argv = [command]
    for flag in draw(st.permutations(sorted(options))):
        # most runs should get past the parser, so a flag is usually given
        if draw(st.integers(0, 4)) == 0:
            continue
        value = draw(st.sampled_from(options[flag] or paths))
        if flag == "-p" and draw(st.integers(0, 3)) == 0:
            flag, value = "--poly-json", draw(st.sampled_from(poly_jsons))
        if flag == "--alpha" and draw(st.booleans()):
            argv.append(f"--alpha={value}")
        else:
            argv += [flag, value]
    if draw(st.integers(0, 3)) == 0:
        for token in draw(st.lists(st.sampled_from(JUNK), min_size=1, max_size=3)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(paths, poly_jsons, data):
    argv = data.draw(argvs(paths, poly_jsons))
    stdout, json_report = io.StringIO(), False
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
            json_report = argv[0] in JSON_COMMANDS and code in (0, 4)
        except SystemExit as exc:
            code = exc.code
    assert isinstance(code, int) and 0 <= code <= 4, (argv, code)
    if json_report and stdout.getvalue():
        json.loads(stdout.getvalue(), parse_constant=_not_json)
