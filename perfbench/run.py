"""Benchmark of the bidisk package: seeded workloads, checked answers, metrics.

    python3 perfbench/run.py --workload scan_total --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Run from the root of a checkout; the package is imported from ``src``.
Each workload runs in processes of its own (``worker.py``).  Set-up is
timed from process start to the first timed operation and repeated
``SETUP_REPEATS`` times; the median is reported.  The last line of the
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics and the tracing overhead with ``--trace 1``.  The lines before it
hold the details: percentiles and sample counts, failures and refusals,
known-defect probes and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_total", "classify_mix", "cli")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170.0
WORKDIR = ".perfbench_work"


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env(root: str) -> dict:
    """Environment of every measured process: the package from ``src`` and
    no more BLAS threads than processors."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = _nproc()
    try:
        threads = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    return env


def environment() -> dict:
    """Versions, processors and the BLAS in use, read in this process under
    the same environment the measured processes get."""
    import ctypes
    import importlib.util
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {}
    maps = "/proc/self/maps"
    libs = set()
    if os.path.exists(maps):
        with open(maps, encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": _nproc(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Worker:
    """A worker process; ``setup_s`` is the time from start to READY."""

    def __init__(self, args, role: str, root: str, workdir: str, env: dict):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--workdir", workdir,
        ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            self.finish()
            raise RuntimeError(f"{args.workload} worker failed during set-up")

    def finish(self) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    """Every operation of a cycle is a fixed kind of input, so the median
    latency is taken over the kinds' own medians and the throughput over the
    median cycle: a kind on the edge between fast and slow kinds, or one
    disturbed cycle, does not move them."""
    slots = raw["slot_latencies"]
    lat = [x for slot in slots for x in slot]
    attempted = raw["attempted"]
    value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(slots) / statistics.median(raw["cycle_s"]), "1/s"),
        "op_p50_s": (statistics.median(statistics.median(slot) for slot in slots), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "ok_ratio": (1.0 - raw["failed"] / attempted, "ratio"),
        "answered_ratio": (1.0 - raw["refused"] / attempted, "ratio"),
    }
    details = {
        "op_tail_percentile": pct,
        "op_samples": len(lat),
        "op_p50_by_kind_s": [statistics.median(slot) for slot in slots],
        "cycle_s": raw["cycle_s"],
        "fail_ratio": raw["failed"] / attempted,
        "refused_ratio": raw["refused"] / attempted,
        "setup_samples_s": setups,
    }
    return metrics, details


def per_layer(raw: dict) -> tuple[dict, dict]:
    import tracer  # imports numpy, which must not load before OPENBLAS_NUM_THREADS is set

    layers = raw["layers"]
    metrics = tracer.per_layer(layers, raw["cycles"]["traced"])
    metrics["cli.import_s"] = (raw.get("import_s", 0.0), "s")
    metrics["trace.overhead_ratio"] = (raw["overhead_ratio"], "ratio")
    details = {
        "absent_layers": layers.get("absent", []),
        "busy_s_per_cycle": {k: v / raw["cycles"]["traced"] for k, v in sorted(layers.get("busy", {}).items())},
        "self_s_per_cycle": {k: v / raw["cycles"]["traced"] for k, v in sorted(layers.get("self", {}).items())},
    }
    return metrics, details


def run_workload(args, root: str) -> dict:
    env = child_env(root)
    workdir = os.path.join(root, WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                worker = Worker(args, "setup", root, workdir, env)
                worker.finish()
                setups.append(worker.setup_s)
        worker = Worker(args, "main", root, workdir, env)
        setups.append(worker.setup_s)
        raw = worker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:
            pass
    metrics, details = per_layer(raw) if args.trace else end_to_end(raw, setups)
    details.update(
        workload=args.workload,
        seed=args.seed,
        cycles=raw["cycles"],
        attempted=raw["attempted"],
        failed=raw["failed"],
        refused=raw["refused"],
        problems=raw["problems"],
        known_defects=raw.get("known_defects"),
        warmup=raw.get("warmup"),
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12}  {name:<32} {value:>14.6g} {unit}")
    print(json.dumps({"details": details}, sort_keys=True))
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bidisk", "__init__.py")):
        print("perfbench: run from the root of a bidisk checkout (src/bidisk not found)", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = child_env(root)["OPENBLAS_NUM_THREADS"]
    print(json.dumps({"environment": environment()}, sort_keys=True))

    if args.workload != "all":
        result = run_workload(args, root)
    else:
        result = {}
        for workload in WORKLOADS:
            result[workload] = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
