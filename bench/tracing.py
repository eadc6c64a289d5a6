"""Span wrappers around the public functions of each hazardrisk module.

The wrappers are installed from outside the package: every module-level name
that is bound to a traced function is rebound to its wrapper, so the program
calls the wrapper wherever it calls the function. Spans stay in memory and
are written out when the workload ends; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) -> span name. Several functions may share one span name.
SPANS = {
    ("bands", "classify"): "bands.classify",
    ("bands", "EnvironmentReading"): "bands.reading",
    ("probability", "normalize_marginals"): "probability.build",
    ("probability", "joint_probability"): "probability.build",
    ("severity", "speed_profile"): "severity.speed_profile",
    ("severity", "score_severity"): "severity.score",
    ("risk", "assess"): "risk.assess",
    ("risk", "composite_risk"): "risk.compose",
    ("risk", "risk_level"): "risk.compose",
    ("sampler", "generate_dataset"): "sampler.generate",
    ("sampler", "scenario_statistics"): "sampler.stats",
    ("reporting", "write_samples"): "reporting.write",
    ("reporting", "write_scenario_stats"): "reporting.write",
    ("reporting", "write_heatmap"): "reporting.write",
    ("reporting", "write_marginals"): "reporting.write",
    ("reporting", "write_joint"): "reporting.write",
    ("reporting", "write_manifest"): "reporting.write",
    ("cli", "main"): "cli",
}
# Called hundreds of thousands of times inside one span: counted, not timed.
COUNTED = {("sampler", "truncated_normal"): "sampler.truncated_normal.calls"}
METHOD_SPANS = {("probability", "JointProbabilityTable", "lookup"): "probability.lookup"}


class Tracer:
    """In-memory span store: one row per span, parents by row index."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, on_return=None):
        """fn wrapped so each call records a span; on_return(args, result)
        may add counts once the span has ended."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layers(self) -> dict[str, float]:
        """calls and self seconds per span name, plus the counts."""
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64))
        nested = parent >= 0
        children = np.zeros(len(duration), dtype=np.int64)
        np.add.at(children, parent[nested], duration[nested])
        self_ns = np.bincount(name, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for i, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = int(calls[i])
            out[f"{span_name}.self_s"] = float(self_ns[i]) / 1e9
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start_ns=np.asarray(self.start),
                 end_ns=np.asarray(self.end))


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_samples(tracer: Tracer):
    def on_return(args, samples):
        tracer.counts["sampler.samples"] += len(samples.records)
    return on_return


def _count_written(tracer: Tracer):
    def on_return(args, rows):
        tracer.counts["reporting.rows"] += rows if isinstance(rows, int) else 0
        tracer.counts["reporting.bytes"] += os.path.getsize(args[0])
    return on_return


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the hazardrisk modules imported so far."""
    package = [m for n, m in sys.modules.items()
               if n == "hazardrisk" or n.startswith("hazardrisk.")]
    hooks = {"sampler.generate": _count_samples(tracer),
             "reporting.write": _count_written(tracer)}
    for (module, attr), span_name in SPANS.items():
        original = getattr(sys.modules.get(f"hazardrisk.{module}"), attr, None)
        if original is not None:
            _rebind(package, original,
                    tracer.span(span_name, original, hooks.get(span_name)))
    for (module, attr), count_name in COUNTED.items():
        original = getattr(sys.modules.get(f"hazardrisk.{module}"), attr, None)
        if original is not None:
            _rebind(package, original, tracer.counted(count_name, original))
    for (module, cls, attr), span_name in METHOD_SPANS.items():
        owner = getattr(sys.modules.get(f"hazardrisk.{module}"), cls, None)
        if owner is not None:
            setattr(owner, attr, tracer.span(span_name, getattr(owner, attr)))
