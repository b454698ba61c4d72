"""Batched point evaluation with numba and pure-numpy implementations.

Evaluating a polynomial on large batches of points has a loop version
(compiled with numba when available) and a vectorized numpy version.
``eval_points`` is the selected alias; the ``*_loops`` / ``*_numpy`` names
stay importable so the benchmark can compare both paths directly.
"""

from __future__ import annotations

import numpy as np

from ._backend import USE_NUMBA, njit

# ---------------------------------------------------------------------------
# Pointwise evaluation (Horner in z2 inside Horner in z1)
# ---------------------------------------------------------------------------


def _eval_points_loops(c, z1, z2, out):
    m1 = c.shape[0]
    n1 = c.shape[1]
    npts = z1.shape[0]
    for p in range(npts):
        a = z1[p]
        b = z2[p]
        acc = 0j
        for k in range(m1 - 1, -1, -1):
            row = 0j
            for l in range(n1 - 1, -1, -1):
                row = row * b + c[k, l]
            acc = acc * a + row
        out[p] = acc


def _eval_points_numpy(c, z1, z2, out):
    acc = np.zeros_like(z1, dtype=np.complex128)
    for k in range(c.shape[0] - 1, -1, -1):
        row = np.zeros_like(z2, dtype=np.complex128)
        for l in range(c.shape[1] - 1, -1, -1):
            row = row * z2 + c[k, l]
        acc = acc * z1 + row
    out[:] = acc


if USE_NUMBA:
    eval_points = njit(cache=True)(_eval_points_loops)
else:
    eval_points = _eval_points_numpy


def eval_points_numba():
    if njit is None:
        return None
    return njit(cache=True)(_eval_points_loops)
