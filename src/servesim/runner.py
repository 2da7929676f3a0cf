"""Experiment orchestration: single runs, rate sweeps, and capacity search.

An experiment is one JSON config describing a workload, an engine, a deadline
policy with benefit parameters, and a list of (scheduler, delivery) variants
evaluated over one or more request rates.  All variants at a given rate share
the identical workload (same seed), so differences in the summary table are
attributable to the policies alone.

Per rate the runner simulates each distinct scheduler once; per cell it
takes its scheduler's trace, optionally applies the delivery transform,
trims a warm-up/drain margin off the time axis, computes a metrics report,
and persists the trace and report; a failing cell is recorded as an error row
without aborting its neighbours.  Everything written is byte-reproducible for
a fixed config.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from . import engine as engine_mod
from .config import (
    ConfigError,
    ExperimentConfig,
    Variant,
    experiment_to_config,
    load_experiment,  # noqa: F401 - perfbench calls runner.load_experiment
)
from .deadlines import DeadlinePolicy, deadlines_for
from .delivery import delay_trace
from .metrics import (
    MetricsReport,
    _nearest_ranks,
    _sorted_gaps,
    build_report,
    window_from_traces,
    write_report_csv,
    write_report_json,
)
from .traces import (
    RequestTrace,
    SimTrace,
    TraceRecords,
    write_csv,
    write_iterations_csv,
    write_trace,
)
from .workload import generate, save_workload


# ---------------------------------------------------------------------------
# Windows and summary rows.


def trimmed_window(records: Sequence[RequestTrace], trim_start: float,
                   trim_end: float, use_delivery: bool):
    """Evaluation window over the trace with warm-up/drain margins dropped.

    The time axis runs from 0 to the generation makespan; the window keeps
    [trim_start, 1 - trim_end] of it.  ``records`` may be a read trace's
    :class:`~servesim.traces.TraceRecords`, taken as columns.
    """
    if isinstance(records, TraceRecords):
        lasts = records.token_times[
            np.cumsum(records.counts)[records.counts > 0] - 1].tolist()
    else:
        lasts = [rec.token_times[-1] for rec in records if rec.token_times]
    makespan = max(lasts, default=None)
    if makespan is None:
        raise ValueError("no request in the trace has a token, so it has no "
                         "makespan to trim a window from")
    if makespan == 0.0:
        raise ValueError("every token in the trace is at 0.0 s, so its "
                         "makespan is zero and has no window to trim")
    start = trim_start * makespan
    end = (1.0 - trim_end) * makespan
    if not end > start:
        raise ValueError(f"the trace's makespan {makespan!r} s is too short "
                         f"to trim by {trim_start!r} and {trim_end!r}: the "
                         f"window's start and end round to the same instant")
    return window_from_traces(records, start, end, use_delivery=use_delivery)


@dataclass
class CellResult:
    variant: str
    rate: float
    report: MetricsReport | None = None
    error: str | None = None


SUMMARY_HEADER = [
    "variant", "rate", "error", "n_requests", "throughput_tokens_per_s",
    "goodput_tokens_per_s", "goodput_requests_per_s", "smooth_goodput_per_s",
    "slo_attainment", "mean_ttft_s", "p99_tbt_s", "mean_idle_latency_s",
]


def _write_summary(path, cells: list[CellResult]) -> None:
    """One row per cell; a failed cell holds its error and empty cells, and
    a missing mean TTFT or p99 TBT is an empty cell, as in report.csv."""
    rows = []
    for cell in cells:
        if cell.report is None:
            rows.append([cell.variant, cell.rate, cell.error or "error",
                         *[None] * 9])
            continue
        agg = cell.report.aggregates()
        agg["p99_tbt_s"] = agg["tbt_percentiles_s"].get("p99")
        rows.append([cell.variant, cell.rate, "", len(cell.report.per_request),
                     *(agg[name] for name in SUMMARY_HEADER[4:])])
    write_csv(path, SUMMARY_HEADER, [list(zip(*rows))])


@dataclass
class SweepResult:
    cells: list[CellResult]

    def cell(self, variant: str, rate: float) -> CellResult:
        for c in self.cells:
            if c.variant == variant and c.rate == rate:
                return c
        raise KeyError((variant, rate))


# ---------------------------------------------------------------------------
# Plot-ready data tables.


TBT_CDF_GRID = 1000


# Each grid row's q, and its text.
_CDF_QS = np.arange(TBT_CDF_GRID + 1) / TBT_CDF_GRID
_CDF_Q_TEXTS = list(map(repr, _CDF_QS.tolist()))


def _write_tbt_cdf(path, records: list[RequestTrace]) -> None:
    """TBT CDF on a fixed quantile grid, generation and delivery side.

    Each timeline with at least one token gap gets TBT_CDF_GRID + 1 rows:
    the nearest-rank quantile of the gap pool at q = k/TBT_CDF_GRID, by the
    pool, gap and rank rules of every TBT number in ``metrics``, so the
    file size does not grow with the tokens.
    The times are read as floats.  With no records, or none with two
    tokens, the file holds the header only.  Written by ``write_csv``.
    """
    generation = _sorted_gaps([rec.token_times for rec in records])
    if all(rec.delivery_times is None for rec in records):
        delivery = generation
    else:
        delivery = _sorted_gaps([rec.token_times if rec.delivery_times is None
                                 else rec.delivery_times for rec in records])
    write_csv(path, ["timeline", "tbt_s", "cdf"], (
        [[label] * len(_CDF_Q_TEXTS),
         _nearest_ranks(gaps, _CDF_QS).tolist(), _CDF_Q_TEXTS]
        for label, gaps in (("generation", generation),
                            ("delivery", delivery)) if gaps.size))


def _write_token_timeline(path, rec: RequestTrace, policy: DeadlinePolicy,
                          use_delivery: bool) -> None:
    """Token-by-token table for one request: generation, delivery, deadline.

    Deadlines chain on the timeline the report scored, so a TTFT/TBT
    deadline follows the delivery instants when delivery was scored.
    Written by ``write_csv``.
    """
    delivery = rec.delivery_timeline()
    scored = delivery if use_delivery else rec.generation_timeline()
    # arrival + deadline, the float sum, as one numpy addition.
    deadlines = np.add(rec.arrival, deadlines_for(
        policy, np.subtract(scored.token_times, scored.arrival))).tolist()
    n = len(rec.token_times)
    write_csv(path, ["token_index", "generated_s", "delivered_s",
                     "deadline_s", "arrival_s"],
              [[list(range(1, n + 1)), rec.token_times, delivery.token_times,
                deadlines, [rec.arrival] * n]])


# ---------------------------------------------------------------------------
# Experiment execution.


def run_cell(trace: SimTrace, config: ExperimentConfig, variant: Variant,
             ) -> tuple[list[RequestTrace], MetricsReport]:
    """Evaluate one variant on the engine's trace of its scheduler."""
    records = trace.requests
    if variant.delivery is not None:
        records = delay_trace(records, variant.delivery)
    window = trimmed_window(records, config.trim_start_frac,
                            config.trim_end_frac, config.use_delivery)
    report = build_report(window, config.policy, config.benefit)
    return records, report


def run_experiment(config: ExperimentConfig,
                   out_dir: str | None = None) -> SweepResult:
    """Run every (variant, rate) cell; write artifacts when ``out_dir`` set."""
    cells: list[CellResult] = []
    artifacts: list[str] = []

    def track(path) -> str:
        rel = os.path.relpath(path, out_dir)
        artifacts.append(rel)
        return path

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)

    # The last variant of each scheduler.
    last_use = {variant.scheduler: variant for variant in config.variants}
    for rate in config.rates:
        wl_config = config.workload.with_rate(rate)
        specs = generate(wl_config)
        if out_dir:
            save_workload(track(os.path.join(
                out_dir, f"workload_rate{rate:g}.jsonl")), specs)
        # Variants that share a scheduler share its trace: one simulation,
        # kept once it succeeds and until its last variant takes it.
        traces: dict = {}
        for variant in config.variants:
            cell = CellResult(variant=variant.name, rate=rate)
            try:
                trace = traces.pop(variant.scheduler, None)
                if trace is None:
                    trace = engine_mod.run(specs, config.engine,
                                           variant.scheduler)
                if last_use[variant.scheduler] is not variant:
                    traces[variant.scheduler] = trace
                records, report = run_cell(trace, config, variant)
                cell.report = report
            except Exception as exc:  # noqa: BLE001 - cell isolation
                cell.error = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
                continue
            if out_dir:
                stem = f"{variant.name}_rate{rate:g}"
                cell_dir = os.path.join(out_dir, "cells", stem)
                os.makedirs(cell_dir, exist_ok=True)
                write_trace(track(os.path.join(cell_dir, "trace.jsonl")),
                            records)
                write_iterations_csv(
                    track(os.path.join(cell_dir, "iterations.csv")),
                    trace.iterations)
                write_report_json(
                    track(os.path.join(cell_dir, "report.json")), report)
                write_report_csv(
                    track(os.path.join(cell_dir, "report.csv")), report)
                _write_tbt_cdf(track(os.path.join(
                    out_dir, "plots", f"tbt_cdf_{stem}.csv")), records)
                # Ties pick the first, as max keeps it.
                worst = max(report.per_request, default=None,
                            key=attrgetter("idle_latency"))
                if worst is not None:
                    rid = worst.request_id
                    rec = next(r for r in records if r.request_id == rid)
                    _write_token_timeline(track(os.path.join(
                        out_dir, "plots", f"timeline_{stem}_{rid}.csv")),
                        rec, config.policy, config.use_delivery)
            cells.append(cell)

    if out_dir:
        _write_summary(track(os.path.join(out_dir, "summary.csv")), cells)
        for variant in config.variants:
            _write_summary(track(os.path.join(
                out_dir, "plots", f"rate_sweep_{variant.name}.csv")),
                [cell for cell in cells if cell.variant == variant.name])
        manifest = {
            "config": experiment_to_config(config),
            "artifacts": sorted(artifacts),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")

    return SweepResult(cells=cells)


# ---------------------------------------------------------------------------
# Capacity search.


def capacity_search(config: ExperimentConfig, attainment_threshold: float,
                    bracket: tuple[float, float], resolution: float = 0.05,
                    variant: Variant | None = None,
                    ) -> tuple[float, list[tuple[float, float]]]:
    """Largest rate sustaining the attainment threshold, by bisection.

    Every probe is a full seeded simulation.  Returns the capacity estimate
    and the probe log as (rate, attainment) pairs.  Raises when the bracket
    minimum already misses the threshold, or when attainment is not
    non-increasing across the bracket endpoints.
    """
    if not 0 < attainment_threshold <= 1:
        raise ConfigError("attainment threshold must lie in (0, 1]")
    lo, hi = bracket
    if not (0 < lo < hi < math.inf):  # NaN fails too
        raise ConfigError(f"bracket ({lo:g}, {hi:g}): need 0 < bracket_lo "
                          f"< bracket_hi < inf")
    if not (0 < resolution < math.inf):  # NaN fails too
        raise ConfigError("resolution must be positive and finite")
    chosen = variant or config.variants[0]
    probes: list[tuple[float, float]] = []

    def probe(rate: float) -> float:
        specs = generate(config.workload.with_rate(rate))
        trace = engine_mod.run(specs, config.engine, chosen.scheduler)
        _, report = run_cell(trace, config, chosen)
        probes.append((rate, report.slo_attainment))
        return report.slo_attainment

    att_lo = probe(lo)
    if att_lo < attainment_threshold:
        raise RuntimeError(
            f"infeasible bracket: attainment {att_lo:.4f} at rate {lo:g} "
            f"is already below the threshold {attainment_threshold:g}")
    att_hi = probe(hi)
    if att_lo < att_hi:
        raise RuntimeError(
            "attainment is not non-increasing across the bracket endpoints")
    if att_hi >= attainment_threshold:
        return hi, probes
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if probe(mid) >= attainment_threshold:
            lo = mid
        else:
            hi = mid
    return lo, probes
