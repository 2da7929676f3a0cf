"""Experiment orchestration: single runs, rate sweeps, and capacity search.

An experiment is one JSON config describing a workload, an engine, a deadline
policy with benefit parameters, and a list of (scheduler, delivery) variants
evaluated over one or more request rates.  All variants at a given rate share
the identical workload (same seed), so differences in the summary table are
attributable to the policies alone.

Per cell the runner simulates, optionally applies the delivery transform,
trims a warm-up/drain margin off the time axis, computes a metrics report,
and persists the trace and report; a failing cell is recorded as an error row
without aborting its neighbours.  Everything written is byte-reproducible for
a fixed config.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

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
    _nearest_rank,
    build_report,
    window_from_traces,
    write_report_csv,
    write_report_json,
)
from .traces import RequestTrace, SimTrace, write_iterations_csv, write_trace
from .workload import generate, save_workload


# ---------------------------------------------------------------------------
# Windows and summary rows.


def trimmed_window(records: list[RequestTrace], trim_start: float,
                   trim_end: float, use_delivery: bool):
    """Evaluation window over the trace with warm-up/drain margins dropped.

    The time axis runs from 0 to the generation makespan; the window keeps
    [trim_start, 1 - trim_end] of it.
    """
    makespan = max(rec.token_times[-1] for rec in records if rec.token_times)
    start = trim_start * makespan
    end = (1.0 - trim_end) * makespan
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


def _summary_row(cell: CellResult) -> list[str]:
    if cell.report is None:
        return [cell.variant, repr(cell.rate), cell.error or "error"] + [""] * 9
    rep = cell.report
    return [
        cell.variant, repr(cell.rate), "",
        str(len(rep.per_request)),
        repr(rep.throughput_tokens_per_s),
        repr(rep.goodput_tokens_per_s),
        repr(rep.goodput_requests_per_s),
        repr(rep.smooth_goodput_per_s),
        repr(rep.slo_attainment),
        repr(rep.mean_ttft),
        repr(rep.tbt_percentiles.get("p99", float("nan"))),
        repr(rep.mean_idle_latency),
    ]


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


def _write_tbt_cdf(path, records: list[RequestTrace]) -> None:
    """TBT CDF on a fixed quantile grid, generation and delivery side.

    Each timeline with at least one token gap gets TBT_CDF_GRID + 1 rows:
    the nearest-rank quantile of every gap (``metrics.percentile``'s rule)
    at q = k/TBT_CDF_GRID, so the file size does not grow with the tokens.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["timeline", "tbt_s", "cdf"])
        for label, pick in (("generation", lambda r: r.token_times),
                            ("delivery", lambda r: r.token_times
                             if r.delivery_times is None
                             else r.delivery_times)):
            gaps = np.concatenate([np.diff(pick(rec)) for rec in records])
            if not gaps.size:
                continue
            gaps.sort()
            for k in range(TBT_CDF_GRID + 1):
                q = k / TBT_CDF_GRID
                writer.writerow([label, repr(float(_nearest_rank(gaps, q))),
                                 repr(q)])


def _write_token_timeline(path, rec: RequestTrace, policy: DeadlinePolicy,
                          use_delivery: bool) -> None:
    """Token-by-token table for one request: generation, delivery, deadline.

    Deadlines chain on the timeline the report scored, so a TTFT/TBT
    deadline follows the delivery instants when delivery was scored.
    """
    delivery = rec.delivery_timeline()
    scored = delivery if use_delivery else rec.generation_timeline()
    deadlines = deadlines_for(policy, scored).tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["token_index", "generated_s", "delivered_s",
                         "deadline_s", "arrival_s"])
        for i, (g, d, dl) in enumerate(zip(rec.token_times,
                                           delivery.token_times, deadlines),
                                       start=1):
            writer.writerow([i, repr(g), repr(d), repr(rec.arrival + dl),
                             repr(rec.arrival)])


def _worst_idle_request(report: MetricsReport) -> str | None:
    worst = None
    for r in report.per_request:
        if worst is None or r.idle_latency > worst.idle_latency:
            worst = r
    return worst.request_id if worst else None


# ---------------------------------------------------------------------------
# Experiment execution.


def run_cell(workload_specs, config: ExperimentConfig, variant: Variant,
             ) -> tuple[list[RequestTrace], MetricsReport, SimTrace]:
    """Simulate one (variant, workload) cell and evaluate it."""
    trace = engine_mod.run(workload_specs, config.engine, variant.scheduler)
    records = trace.requests
    if variant.delivery is not None:
        records = delay_trace(records, variant.delivery)
    window = trimmed_window(records, config.trim_start_frac,
                            config.trim_end_frac, config.use_delivery)
    report = build_report(window, config.policy, config.benefit)
    return records, report, trace


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

    for rate in config.rates:
        wl_config = config.workload.with_rate(rate)
        specs = generate(wl_config)
        if out_dir:
            save_workload(track(os.path.join(
                out_dir, f"workload_rate{rate:g}.jsonl")), specs)
        for variant in config.variants:
            cell = CellResult(variant=variant.name, rate=rate)
            try:
                records, report, trace = run_cell(specs, config, variant)
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
                worst = _worst_idle_request(report)
                if worst is not None:
                    rec = next(r for r in records if r.request_id == worst)
                    _write_token_timeline(track(os.path.join(
                        out_dir, "plots", f"timeline_{stem}_{worst}.csv")),
                        rec, config.policy, config.use_delivery)
            cells.append(cell)

    if out_dir:
        summary_path = os.path.join(out_dir, "summary.csv")
        with open(summary_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(SUMMARY_HEADER)
            for cell in cells:
                writer.writerow(_summary_row(cell))
        track(summary_path)
        for variant in config.variants:
            path = os.path.join(out_dir, "plots",
                                f"rate_sweep_{variant.name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as f:
                writer = csv.writer(f)
                writer.writerow(SUMMARY_HEADER)
                for cell in cells:
                    if cell.variant == variant.name:
                        writer.writerow(_summary_row(cell))
            track(path)
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
    if not (0 < lo < hi):
        raise ConfigError("need 0 < bracket_lo < bracket_hi")
    if resolution <= 0:
        raise ConfigError("resolution must be positive")
    chosen = variant or config.variants[0]
    probes: list[tuple[float, float]] = []

    def probe(rate: float) -> float:
        specs = generate(config.workload.with_rate(rate))
        _, report, _ = run_cell(specs, config, chosen)
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
