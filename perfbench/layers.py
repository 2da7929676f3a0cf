"""Per-layer spans and counts for the traced run.

Each layer's public functions are wrapped at the module attribute through
which ``servesim.runner`` and ``servesim.cli`` call them, so spans sit at the
module boundaries without touching the package.  A span records its layer,
the span that caused it, and its start and end; spans stay in memory for one
pass and are folded into per-layer self times when the pass ends.

The root spans are the calls a user makes (``run_experiment``,
``capacity_search``, ``cli.main``).  A root's self time is its duration
minus its child spans: the runner's or the CLI's own work.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

from workloads import CheckError

ROOT_LAYERS = {
    "runner.self_s": [("servesim.runner", "run_experiment"),
                      ("servesim.runner", "capacity_search")],
    "cli.self_s": [("servesim.cli", "main")],
}

LAYERS = {
    "workload.generate_s": [("servesim.runner", "generate")],
    "engine.run_s": [("servesim.engine", "run")],
    "delivery.delay_trace_s": [("servesim.runner", "delay_trace")],
    "metrics.window_s": [("servesim.runner", "trimmed_window"),
                         ("servesim.cli", "trimmed_window")],
    "metrics.build_report_s": [("servesim.runner", "build_report"),
                               ("servesim.cli", "build_report")],
    "metrics.write_report_s": [("servesim.runner", "write_report_json"),
                               ("servesim.runner", "write_report_csv"),
                               ("servesim.cli", "write_report_json"),
                               ("servesim.cli", "write_report_csv")],
    "traces.read_trace_s": [("servesim.cli", "read_trace")],
    "traces.write_trace_s": [("servesim.runner", "write_trace")],
    "traces.write_iterations_s": [("servesim.runner", "write_iterations_csv")],
    "runner.tbt_cdf_s": [("servesim.runner", "_write_tbt_cdf")],
    "runner.timeline_plot_s": [("servesim.runner", "_write_token_timeline")],
}

# deadlines_for as the metric functions reach it (meets_slo looks it up in
# servesim.deadlines); the plot writer's call in runner is not scoring.
DEADLINE_CALLS = [("servesim.metrics", "deadlines_for"),
                  ("servesim.deadlines", "deadlines_for")]


def _count_engine(counts, args, trace):
    counts["engine.iterations"] += len(trace.iterations)
    counts["engine.tokens"] += trace.total_tokens()


def _count_scored(counts, args, report):
    window = args[0]
    counts["metrics.requests_scored"] += len(window.requests)
    counts["metrics.tokens_scored"] += sum(tl.num_tokens for tl in window.requests)


def _count_read(counts, args, records):
    counts["traces.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, result):
    counts["traces.bytes_written"] += os.path.getsize(args[0])


COUNTERS = {
    "engine.run_s": _count_engine,
    "metrics.build_report_s": _count_scored,
    "traces.read_trace_s": _count_read,
    "traces.write_trace_s": _count_written,
    "traces.write_iterations_s": _count_written,
}

# Every per-layer metric with its unit, in report order.  Layers a workload
# bypasses read 0.
PER_LAYER_UNITS = {
    "workload.generate_s": "s",
    "engine.run_s": "s",
    "engine.iterations": "count",
    "engine.tokens": "count",
    "engine.us_per_iteration": "us",
    "delivery.delay_trace_s": "s",
    "metrics.window_s": "s",
    "metrics.build_report_s": "s",
    "metrics.ns_per_token_scored": "ns",
    "metrics.write_report_s": "s",
    "deadlines.calls_per_request": "calls/request",
    "traces.read_trace_s": "s",
    "traces.bytes_read": "bytes",
    "traces.write_trace_s": "s",
    "traces.write_iterations_s": "s",
    "traces.bytes_written": "bytes",
    "runner.tbt_cdf_s": "s",
    "runner.timeline_plot_s": "s",
    "runner.artifact_files": "count",
    "runner.artifact_bytes": "bytes",
    "runner.capacity_probes": "count",
    "runner.self_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}

# Counts that must repeat exactly on every traced pass of a run.
EXACT_COUNTS = ("engine.iterations", "engine.tokens", "deadlines.calls",
                "metrics.requests_scored", "metrics.tokens_scored",
                "traces.bytes_read", "traces.bytes_written")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _span(self, layer, fn, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([layer, parent, time.perf_counter(), None])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def _tally(self, fn):
        def counted(*args, **kwargs):
            self.counts["deadlines.calls"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every layer's functions for the duration of one pass."""
        saved = []
        try:
            for table in (ROOT_LAYERS, LAYERS):
                for layer, targets in table.items():
                    for module, attr in targets:
                        mod = importlib.import_module(module)
                        fn = getattr(mod, attr)
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, self._span(layer, fn, COUNTERS.get(layer)))
            for module, attr in DEADLINE_CALLS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._tally(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def layer_times(self, wall: float) -> dict[str, float]:
        """Self time per layer; checks that the spans account for ``wall``.

        Every layer span must lie inside a root span, and the root spans must
        cover the pass wall time measured around them, up to the harness's
        own loop overhead.
        """
        child = Counter()
        for layer, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
            elif layer not in ROOT_LAYERS:
                raise CheckError(f"{layer} span outside a runner or cli call")
        times = {name: 0.0 for name in (*ROOT_LAYERS, *LAYERS)}
        rooted = 0.0
        for index, (layer, parent, start, end) in enumerate(self.spans):
            times[layer] += end - start - child[index]
            if parent is None:
                rooted += end - start
        gap = wall - rooted
        if not 0.0 <= gap <= max(0.01 * wall, 0.005):
            raise CheckError(f"spans account for {rooted:.4f} s of a "
                             f"{wall:.4f} s pass")
        return times


def layer_metrics(tracer: Tracer, wall: float, derived: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self times and rates come from the spans and counts; ``derived`` holds
    the counts the workload read off its outputs (artifacts, probes).
    """
    out = dict.fromkeys(PER_LAYER_UNITS, 0)
    out.update(tracer.layer_times(wall))
    out.update(derived)
    c = tracer.counts
    out["engine.iterations"] = c["engine.iterations"]
    out["engine.tokens"] = c["engine.tokens"]
    out["engine.us_per_iteration"] = (
        out["engine.run_s"] / c["engine.iterations"] * 1e6
        if c["engine.iterations"] else 0.0)
    out["metrics.ns_per_token_scored"] = (
        out["metrics.build_report_s"] / c["metrics.tokens_scored"] * 1e9
        if c["metrics.tokens_scored"] else 0.0)
    out["deadlines.calls_per_request"] = (
        c["deadlines.calls"] / c["metrics.requests_scored"]
        if c["metrics.requests_scored"] else 0.0)
    out["traces.bytes_read"] = c["traces.bytes_read"]
    out["traces.bytes_written"] = c["traces.bytes_written"]
    del out["bench.trace_overhead_s"]  # set from the whole run
    return out
