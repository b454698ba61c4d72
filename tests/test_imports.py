"""Which parts of scipy each entry point loads, each case in a fresh interpreter.

scipy is imported on first use inside ``bidisk.approximant``, so importing
the package and running the commands that need only numpy load none of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the child runs BODY, then writes (exit code, loaded scipy modules) to argv[1]
_CHILD = """
import json, sys
code = None
{body}
with open(sys.argv[1], "w") as fh:
    json.dump([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")], fh)
"""

_MAIN = "from bidisk.cli import main\ncode = main(sys.argv[2:])"


def loaded(tmp_path, body, *argv):
    """(exit code, set of scipy modules) after running body in a new process."""
    report = tmp_path / "loaded.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run(
        [sys.executable, "-c", _CHILD.format(body=body), str(report), *argv],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
    )
    code, modules = json.loads(report.read_text())
    return code, set(modules)


@pytest.mark.parametrize("body", ["import bidisk", "import bidisk.cli"])
def test_import_loads_no_scipy(tmp_path, body):
    assert loaded(tmp_path, body) == (None, set())


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["norm", "-p", "1 + z1 + z2", "--alpha", "0.5,1,2"], 0),
        (["zeros", "-p", "(1 - z1)*(1 - z2)"], 0),
        (["recurrence", "-p", "1", "--kmax", "10", "--lmax", "10"], 0),
        (["qsmooth", "-p", "2 - z1 - z2", "--zeros", "1,1", "--exponent", "6", "--grid", "64"], 0),
        (["classify", "--factors", "1 - z1; 1 - z2", "--alpha", "1"], 0),
        (["norm", "-p", "1 + z1"], 1),
    ],
    ids=["norm", "zeros", "recurrence", "qsmooth", "factors", "usage_error"],
)
def test_numpy_only_commands_load_no_scipy(tmp_path, argv, exit_code):
    assert loaded(tmp_path, _MAIN, *argv) == (exit_code, set())


@pytest.mark.parametrize(
    "argv",
    [
        ["opa", "-p", "1 - z1*z2", "--alpha", "1", "--nmax", "6", "--family", "diagonal"],
        ["scan", "-p", "2 - z1 - z2", "--alpha", "1,3", "--nmax", "10"],
    ],
    ids=["opa", "scan"],
)
def test_solver_commands_load_no_fitting_modules(tmp_path, argv):
    code, modules = loaded(tmp_path, _MAIN, *argv)
    assert code == 0
    assert {"scipy.linalg", "scipy.sparse"} <= modules
    assert not modules & {"scipy.optimize", "scipy.special"}


def test_no_command_loads_scipy_optimize(tmp_path):
    # the decay fits need only numpy
    code, modules = loaded(
        tmp_path, _MAIN, "classify", "-p", "1 - z1*z2", "--alpha", "1", "--nmax", "10", "--family", "diagonal"
    )
    assert code == 0
    assert "scipy.optimize" not in modules
    assert "scipy.special" not in modules  # the certificate is not needed at alpha <= 2


def test_classify_loads_the_certificate_module(tmp_path):
    # the checks above can see a load when one happens: the evaluation-bound
    # certificate of a torus zero at alpha > 2 needs scipy.special
    code, modules = loaded(tmp_path, _MAIN, "classify", "-p", "1 - z1*z2", "--alpha", "3", "--nmax", "10")
    assert code == 0
    assert "scipy.special" in modules
    assert "scipy.optimize" not in modules



def test_package_exports_each_module_name_once():
    # the package's names are the union of its modules' __all__ lists (the
    # command line module aside); a name exported by two modules would let
    # one shadow the other
    import importlib
    import pkgutil

    import bidisk

    exported = {}
    for info in pkgutil.iter_modules(bidisk.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"bidisk.{info.name}")
        for name in module.__all__:
            assert name not in exported, (name, exported.get(name), info.name)
            exported[name] = info.name
            assert getattr(bidisk, name) is getattr(module, name)
    assert bidisk.__all__ == sorted(exported)
