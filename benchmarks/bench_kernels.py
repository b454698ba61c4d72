"""Timing comparison of the numba and numpy kernel paths.

Run with:  python benchmarks/bench_kernels.py [--points 200000]

The evaluation benchmark evaluates a dense random degree-12 polynomial on a
batch of bidisk points.  The first numba call includes compilation and is
reported separately from the warm timings.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from bidisk._backend import HAS_NUMBA, backend_name
from bidisk._kernels import _eval_points_numpy, eval_points_numba


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_eval(points: int) -> None:
    rng = np.random.default_rng(7)
    c = (rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))).astype(
        np.complex128
    )
    r = np.sqrt(rng.uniform(0, 1, points))
    z1 = r * np.exp(2j * np.pi * rng.uniform(0, 1, points))
    r = np.sqrt(rng.uniform(0, 1, points))
    z2 = r * np.exp(2j * np.pi * rng.uniform(0, 1, points))
    out = np.empty(points, dtype=np.complex128)
    print(f"eval points: degree (12,12) on {points} points")

    t_numpy = _time(lambda: _eval_points_numpy(c, z1, z2, out))
    print(f"  numpy  : {t_numpy * 1e3:9.2f} ms")

    kern = eval_points_numba()
    if kern is None:
        print("  numba  : unavailable")
        return
    t0 = time.perf_counter()
    kern(c, z1, z2, out)
    t_compile = time.perf_counter() - t0
    t_numba = _time(lambda: kern(c, z1, z2, out))
    print(f"  numba  : {t_numba * 1e3:9.2f} ms  (first call {t_compile * 1e3:.0f} ms)")
    print(f"  speedup: {t_numpy / t_numba:9.2f}x")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=200_000)
    args = ap.parse_args()
    print(f"backend selected at import: {backend_name()} (numba present: {HAS_NUMBA})")
    bench_eval(args.points)


if __name__ == "__main__":
    main()
