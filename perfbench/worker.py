"""One benchmark process: set a workload up, run it closed loop, report.

Started by ``run.py``.  After set-up (import, input generation and, for the
in-process workloads, one untimed warm-up operation) it prints ``READY``;
with ``--role setup`` it stops there, otherwise it runs whole cycles of the
workload until ``--seconds`` have passed, one operation at a time, and
prints one JSON line with the raw results.

With ``--trace 1`` the cycles alternate between untraced and traced; the
per-layer totals come from the traced cycles and the tracing overhead is
the ratio of the median traced to the median untraced cycle time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import checks
import inputs
import tracer

CYCLE_CAP = 64
OP_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


class InProcess:
    """scan_total and classify_mix: calls into the imported package."""

    def __init__(self, workload: str, seed: int):
        import bidisk.approximant
        import bidisk.classify
        import bidisk.errors
        import bidisk.poly
        import bidisk.spaces

        self.workload = workload
        self.approximant = bidisk.approximant
        self.classify = bidisk.classify
        self.spaces = bidisk.spaces
        self.inconclusive = bidisk.errors.InconclusiveError
        self.cycles = [
            [(op, bidisk.poly.Poly2(op.coeffs)) for op in cycle]
            for cycle in inputs.cycles(workload, seed, CYCLE_CAP)
        ]
        warm = inputs.warmup_op(workload, seed)
        _, status, detail = self.run((warm, bidisk.poly.Poly2(warm.coeffs)))
        self.warmup = {"status": status, "detail": detail}
        self.spans: tracer.Tracer | None = None

    def cycle(self, index: int):
        return self.cycles[index % CYCLE_CAP]

    def run(self, item, traced: bool = False):
        op, poly = item
        start = time.perf_counter()
        try:
            if self.workload == "scan_total":
                out = self.approximant.distance_scan(
                    poly, self.spaces.iso(op.alpha), op.nmax, family=op.family
                )
            else:
                out = self.classify.corroborate(poly, op.alpha, n_max=op.nmax, family=op.family)
        except self.inconclusive as exc:
            return time.perf_counter() - start, "refused", f"{op.name}: {exc}"
        except Exception as exc:  # every other exception is a failed operation
            return time.perf_counter() - start, "failed", f"{op.name}: {exc!r}"
        latency = time.perf_counter() - start
        if self.workload == "scan_total":
            status, detail = checks.check_scan(op, out)
        else:
            status, detail = checks.check_report(op, out)
        return latency, status, f"{op.name} alpha={op.alpha}: {detail}" if detail else ""

    def begin_trace(self):
        self.spans = self.spans or tracer.Tracer()
        self.spans.install()

    def end_trace(self):
        self.spans.uninstall()

    def trace_totals(self) -> dict:
        return self.spans.totals()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cli:
    """cli: every operation is a fresh interpreter running the command line."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.cycles = inputs.cycles("cli", seed, CYCLE_CAP)
        self.defects = inputs.cli_known_defects(np.random.default_rng([seed, 1 << 21]))
        self.totals: dict = {}
        self.import_s: list[float] = []
        # byte-compile the package and load it from disk once, as any
        # installed copy would have been before its first real use
        subprocess.run(
            [sys.executable, "-c", "import bidisk.cli"], check=True, cwd=workdir, timeout=OP_TIMEOUT_S
        )

    def cycle(self, index: int):
        return self.cycles[index % CYCLE_CAP]

    def run(self, op, traced: bool = False):
        for name, text in op.files.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        trace_path = os.path.join(self.workdir, "trace.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_path, *op.argv]
        else:
            cmd = [sys.executable, "-m", "bidisk.cli", *op.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=self.workdir, timeout=OP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, "failed", f"{op.name}: timed out"
        latency = time.perf_counter() - start
        status, detail = checks.check_cli(op, proc.returncode, proc.stdout, proc.stderr, self.workdir)
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(trace_path)
            self.import_s.append(part.pop("import_s"))
            tracer.merge(self.totals, part)
        return latency, status, f"{op.name}: {detail}" if detail else ""

    def begin_trace(self):
        pass

    def end_trace(self):
        pass

    def trace_totals(self) -> dict:
        return self.totals

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def known_defects(self) -> dict:
        out = {}
        for op in self.defects:
            _, status, detail = self.run(op)
            out[op.name] = {"status": status, "detail": detail}
        return out


def timed_loop(runner, seconds: float, trace: bool) -> dict:
    slots: list[list[float]] = []  # untraced latencies by position in the cycle
    outcomes: Counter = Counter()
    problems: list[str] = []
    cycle_s = {False: [], True: []}
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            runner.begin_trace()
        cycle_start = time.perf_counter()
        for slot, op in enumerate(runner.cycle(index)):
            latency, status, detail = runner.run(op, traced)
            outcomes[status] += 1
            if not traced:
                if slot == len(slots):
                    slots.append([])
                slots[slot].append(latency)
            if detail and len(problems) < 20:
                problems.append(f"{status}: {detail}")
        cycle_s[traced].append(time.perf_counter() - cycle_start)
        if traced:
            runner.end_trace()
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or cycle_s[True]):
            break
    result = {
        "slot_latencies": slots,
        "cycle_s": cycle_s[False],
        "cycles": {"untraced": len(cycle_s[False]), "traced": len(cycle_s[True])},
        "attempted": sum(outcomes.values()),
        "failed": outcomes["failed"],
        "refused": outcomes["refused"],
        "problems": problems,
    }
    if trace:
        result["layers"] = runner.trace_totals()
        result["overhead_ratio"] = statistics.median(cycle_s[True]) / statistics.median(cycle_s[False]) - 1.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    if args.workload == "cli":
        runner = Cli(args.seed, args.workdir)
    else:
        runner = InProcess(args.workload, args.seed)
    print("READY", flush=True)
    if args.role == "setup":
        return 0

    result = timed_loop(runner, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = runner.peak_rss_mb()
    if isinstance(runner, Cli):
        result["known_defects"] = runner.known_defects()
        if runner.import_s:
            result["import_s"] = statistics.median(runner.import_s)
    else:
        result["warmup"] = runner.warmup
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
