"""Layer spans recorded from outside the program.

The tracer replaces the public names that each layer's caller looks up at
call time (a module attribute such as ``bidisk.classify.distance_scan``, a
``numpy.linalg`` function, or a ``Poly2`` method) with a wrapper that
records a span around the call.  Spans nest on a stack, so a layer's self
time is its busy time minus the time of the spans it caused.  Totals are
kept in memory and read out when the run ends.

Names that no longer exist are reported as absent layers rather than
failing, so the tracer keeps working while the program is restructured.  It
imports no private module of the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

SCAN = "approximant.scan"
SEARCH = "zeroset.search"
GRAM_MB = "approximant.assemble.gram_mb"  # a peak, not a sum


def _rows(tracer, args, out):
    tracer.add("approximant.rows", len(out) if isinstance(out, list) else 1)


def _gram(tracer, args, out):
    n = len(out.basis)
    tracer.add(GRAM_MB, 16.0 * n * n / 2**20)


def _grid_points(tracer, args, out):
    tracer.add("zeroset.grid_points", len(args[1]))


def _point_evals(tracer, args, out):
    tracer.add("zeroset.point_evals", np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _nodes(tracer, args, out):
    tracer.add("resultant.nodes", len(out.coeffs))


def _degree(tracer, args, out):
    tracer.add("rootfind.degree_sum", args[0].degree)


# (module, attribute, layer, counter, only inside these parent layers)
SPECS = [
    ("bidisk.cli", "main", "cli", None, None),
    ("bidisk.cli", "parse_polynomial", "expr", None, None),
    ("bidisk.cli", "to_expression", "expr", None, None),
    ("bidisk.cli", "q_smoothness", "prooflab", None, None),
    ("bidisk.cli", "recurrence_residuals", "prooflab", None, None),
    ("bidisk.cli", "corroborate", "classify", None, None),
    ("bidisk.classify", "corroborate", "classify", None, None),
    ("bidisk.cli", "bidisk_zero_search", SEARCH, None, None),
    ("bidisk.classify", "bidisk_zero_search", SEARCH, None, None),
    ("bidisk.cli", "torus_zeros", "zeroset.torus", None, None),
    ("bidisk.classify", "torus_zeros", "zeroset.torus", None, None),
    ("bidisk.cli", "distance_scan", SCAN, _rows, None),
    ("bidisk.cli", "solve_normal_equations", SCAN, _rows, None),
    ("bidisk.classify", "distance_scan", SCAN, _rows, None),
    ("bidisk.approximant", "distance_scan", SCAN, _rows, None),
    ("bidisk.classify", "decay_diagnostic", "approximant.decay", None, None),
    ("bidisk.cli", "assemble_gram", "approximant.assemble", _gram, None),
    ("bidisk.approximant", "assemble_gram", "approximant.assemble", _gram, None),
    ("numpy.linalg", "cholesky", "approximant.factor", None, {SCAN}),
    ("numpy.linalg", "solve", "approximant.solve", None, {SCAN}),
    ("numpy.linalg", "lstsq", "approximant.qr", None, {SCAN}),
    ("bidisk.approximant", "norm_squared", "approximant.selfcheck", None, {SCAN}),
    ("bidisk.poly", "Poly2.__mul__", "approximant.selfcheck", None, {SCAN}),
    ("bidisk.zeroset", "eval_points", "zeroset.grid_eval", _grid_points, None),
    ("bidisk.poly", "Poly2.evaluate", "zeroset.point_eval", _point_evals, {SEARCH}),
    ("bidisk.zeroset", "resultant_z2_detail", "resultant", _nodes, None),
    ("bidisk.zeroset", "roots_on_unit_circle", "rootfind", _degree, None),
]


def _accumulate(counts: dict, name: str, value: float) -> None:
    old = counts.get(name, 0.0)
    counts[name] = max(old, value) if name == GRAM_MB else old + value


class Tracer:
    """Span stack plus per-layer totals: busy, self time, calls, failures."""

    def __init__(self):
        self.stack: list[list] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        _accumulate(self.counts, name, value)

    def _wrap(self, fn, layer, counter, parents):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if parents is not None and (not stack or stack[-1][0] not in parents):
                return fn(*args, **kwargs)
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                self.busy[layer] += duration
                self.self_s[layer] += duration - frame[2]
                self.calls[layer] += 1
                if not ok:
                    self.failures[layer] += 1
                if stack:
                    stack[-1][2] += duration
            if counter is not None:
                counter(self, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every name whose module is already imported."""
        present = set()
        for module_name, attr, layer, counter, parents in SPECS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, _, name = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            fn = getattr(target, name, None) if target is not None else None
            if fn is None:
                continue
            self._saved.append((target, name, fn))
            setattr(target, name, self._wrap(fn, layer, counter, parents))
            present.add(layer)
        self.absent = {spec[2] for spec in SPECS if spec[0] in sys.modules} - present

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._saved):
            setattr(target, name, fn)
        self._saved.clear()

    def totals(self) -> dict:
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "failures": dict(self.failures),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def merge(into: dict, part: dict) -> dict:
    """Add the totals of one traced process to another's."""
    for key in ("busy", "self", "calls", "failures"):
        for layer, value in part[key].items():
            into.setdefault(key, {})[layer] = into.get(key, {}).get(layer, 0) + value
    counts = into.setdefault("counts", {})
    for name, value in part["counts"].items():
        _accumulate(counts, name, value)
    into["absent"] = sorted(set(into.get("absent", [])) | set(part["absent"]))
    return into


def _busy(layer):
    return lambda t: t["busy"].get(layer, 0.0)


def _self(layer):
    return lambda t: t["self"].get(layer, 0.0)


def _calls(layer):
    return lambda t: t["calls"].get(layer, 0)


def _count(name):
    return lambda t: t["counts"].get(name, 0.0)


def _qr_ratio(t):
    rows = t["counts"].get("approximant.rows", 0.0)
    return t["calls"].get("approximant.qr", 0) / rows if rows else 0.0


# per-layer metric -> (unit, how to read its value from the totals)
PER_CYCLE = {
    "approximant.factor.busy_s": ("s", _busy("approximant.factor")),
    "approximant.factor.calls": ("count", _calls("approximant.factor")),
    "approximant.solve.busy_s": ("s", _busy("approximant.solve")),
    "approximant.solve.calls": ("count", _calls("approximant.solve")),
    "approximant.assemble.busy_s": ("s", _busy("approximant.assemble")),
    "approximant.assemble.calls": ("count", _calls("approximant.assemble")),
    "approximant.selfcheck.busy_s": ("s", _busy("approximant.selfcheck")),
    "approximant.rows": ("count", _count("approximant.rows")),
    "approximant.qr.busy_s": ("s", _busy("approximant.qr")),
    "approximant.qr.calls": ("count", _calls("approximant.qr")),
    "approximant.scan.self_s": ("s", _self(SCAN)),
    "approximant.decay.busy_s": ("s", _busy("approximant.decay")),
    "approximant.decay.calls": ("count", _calls("approximant.decay")),
    "zeroset.search.self_s": ("s", _self(SEARCH)),
    "zeroset.search.calls": ("count", _calls(SEARCH)),
    "zeroset.grid_points": ("count", _count("zeroset.grid_points")),
    "zeroset.grid_eval.busy_s": ("s", _busy("zeroset.grid_eval")),
    "zeroset.point_evals": ("count", _count("zeroset.point_evals")),
    "zeroset.point_eval.busy_s": ("s", _busy("zeroset.point_eval")),
    "zeroset.torus.self_s": ("s", _self("zeroset.torus")),
    "resultant.busy_s": ("s", _busy("resultant")),
    "resultant.calls": ("count", _calls("resultant")),
    "resultant.nodes": ("count", _count("resultant.nodes")),
    "rootfind.busy_s": ("s", _busy("rootfind")),
    "rootfind.calls": ("count", _calls("rootfind")),
    "rootfind.degree_sum": ("count", _count("rootfind.degree_sum")),
    "rootfind.failures": ("count", lambda t: t["failures"].get("rootfind", 0)),
    "classify.self_s": ("s", _self("classify")),
    "expr.busy_s": ("s", _busy("expr")),
    "expr.calls": ("count", _calls("expr")),
    "prooflab.busy_s": ("s", _busy("prooflab")),
    "cli.self_s": ("s", _self("cli")),
}


def per_layer(totals: dict, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one pass over the workload's inputs."""
    totals = {key: totals.get(key, {}) for key in ("busy", "self", "calls", "failures", "counts")}
    out = {name: (read(totals) / cycles, unit) for name, (unit, read) in PER_CYCLE.items()}
    out[GRAM_MB] = (totals["counts"].get(GRAM_MB, 0.0), "MiB")
    out["approximant.qr_route_ratio"] = (_qr_ratio(totals), "ratio")
    return out
