import numpy as np
import pytest

from bidisk.cli import main
from bidisk.poly import Poly2


# polynomial JSON files that must be refused as malformed input
MALFORMED_POLY_JSON = {
    "missing_k": '{"bidegree": [1, 1], "coeffs": [{"l": 0, "re": 1}]}',
    "missing_re": '{"bidegree": [1, 1], "coeffs": [{"k": 0, "l": 0}]}',
    "coeffs_not_a_list": '{"bidegree": [1, 1], "coeffs": 5}',
    "entry_not_an_object": '{"bidegree": [1, 1], "coeffs": [null]}',
    "negative_bidegree": '{"bidegree": [-1, 1], "coeffs": []}',
    "fractional_index": '{"bidegree": [1, 1], "coeffs": [{"k": 0.5, "l": 0, "re": 1}]}',
    "bidegree_not_a_pair": '{"bidegree": [1], "coeffs": []}',
    "re_not_a_number": '{"bidegree": [1, 1], "coeffs": [{"k": 0, "l": 0, "re": "1"}]}',
    "re_past_double_range": '{"bidegree": [1, 1], "coeffs": [{"k": 0, "l": 0, "re": 1%s}]}' % ("0" * 400),
}


@pytest.fixture
def cli(capsys):
    """A runner of bidisk.cli.main: checks that argv exits 0 and returns stdout."""

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, (argv, code)
        return out

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_poly(rng, max_deg=10, complex_coeffs=True, sparsity=0.0):
    """Dense random polynomial with bidegree up to (max_deg, max_deg)."""
    m = int(rng.integers(0, max_deg + 1))
    n = int(rng.integers(0, max_deg + 1))
    c = rng.standard_normal((m + 1, n + 1))
    if complex_coeffs:
        c = c + 1j * rng.standard_normal((m + 1, n + 1))
    if sparsity > 0:
        mask = rng.uniform(size=c.shape) < sparsity
        c = np.where(mask, 0.0, c)
    if not np.any(c):
        c[0, 0] = 1.0
    return Poly2(c)


def random_bidisk_points(rng, count):
    r1 = np.sqrt(rng.uniform(0, 1, count))
    r2 = np.sqrt(rng.uniform(0, 1, count))
    t1 = rng.uniform(0, 2 * np.pi, count)
    t2 = rng.uniform(0, 2 * np.pi, count)
    return r1 * np.exp(1j * t1), r2 * np.exp(1j * t2)
