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

from . import engine as engine_mod
from .deadlines import (
    DeadlinePolicy,
    ReadingSpeed,
    deadlines_for,
    policy_from_config,
    policy_to_config,
)
from .delivery import DelayConfig, delay_from_config, delay_to_config, delay_trace
from .engine import EngineConfig, engine_from_config, engine_to_config
from .metrics import (
    BenefitParams,
    LinearSeconds,
    MetricsReport,
    TokensEquivalent,
    build_report,
    penalty_from_config,
    penalty_to_config,
    window_from_traces,
    write_report_csv,
    write_report_json,
)
from .schedulers import (
    SchedulerPolicy,
    scheduler_from_config,
    scheduler_tag,
    scheduler_to_config,
)
from .traces import RequestTrace, write_iterations_csv, write_trace
from .workload import WorkloadConfig, generate, save_workload, workload_from_config


class ConfigError(ValueError):
    """An experiment config is malformed or inconsistent."""


@dataclass(frozen=True)
class Variant:
    name: str
    scheduler: SchedulerPolicy
    delivery: DelayConfig | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    workload: WorkloadConfig
    engine: EngineConfig
    variants: tuple[Variant, ...]
    policy: DeadlinePolicy
    benefit: BenefitParams
    rates: tuple[float, ...]
    trim_start_frac: float = 0.05
    trim_end_frac: float = 0.05
    use_delivery: bool = True

    def __post_init__(self):
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigError("variant names must be unique")
        if not self.rates:
            raise ConfigError("at least one rate is required")
        if any(r <= 0 for r in self.rates):
            raise ConfigError("rates must be positive")
        if list(self.rates) != sorted(self.rates):
            raise ConfigError("rates must be sorted ascending")
        if not (0 <= self.trim_start_frac < 1 and 0 <= self.trim_end_frac < 1
                and self.trim_start_frac + self.trim_end_frac < 1):
            raise ConfigError("trim fractions must leave a non-empty window")


def _default_benefit(policy: DeadlinePolicy, obj: dict | None) -> BenefitParams:
    obj = obj or {}
    alpha = float(obj.get("alpha", 5.0))
    if "penalty" in obj:
        penalty = penalty_from_config(obj["penalty"])
    elif isinstance(policy, ReadingSpeed):
        # Idle seconds expressed as tokens of reading lost, so alpha is
        # dimensionless against the token count.
        penalty = TokensEquivalent(policy.per_token_budget)
    else:
        penalty = LinearSeconds(1.0)
    return BenefitParams(alpha=alpha, penalty=penalty)


def experiment_from_config(obj: dict, seed_override: int | None = None,
                           ) -> ExperimentConfig:
    try:
        workload = workload_from_config(obj["workload"])
        engine = engine_from_config(obj.get("engine", {}))
        policy = policy_from_config(obj["deadline_policy"])
        benefit = _default_benefit(policy, obj.get("benefit"))
        variants = []
        for v in obj["variants"]:
            scheduler = scheduler_from_config(v["scheduler"])
            delivery = v.get("delivery")
            variants.append(Variant(
                name=str(v.get("name") or scheduler_tag(scheduler)),
                scheduler=scheduler,
                delivery=None if delivery is None else delay_from_config(delivery)))
        rates = obj.get("rates")
        if rates is None:
            rates = [workload.rate]
        trim = obj.get("trim", {})
        evaluate = obj.get("evaluate", {})
        timeline = evaluate.get("timeline", "delivery")
        if timeline not in ("delivery", "generation"):
            raise ConfigError(f"evaluate.timeline must be delivery or "
                              f"generation, got {timeline!r}")
        if seed_override is not None:
            workload = WorkloadConfig(workload.rate, workload.count,
                                      seed_override, workload.length_source)
        elif "seed" in obj:
            workload = WorkloadConfig(workload.rate, workload.count,
                                      int(obj["seed"]), workload.length_source)
        return ExperimentConfig(
            workload=workload,
            engine=engine,
            variants=tuple(variants),
            policy=policy,
            benefit=benefit,
            rates=tuple(float(r) for r in rates),
            trim_start_frac=float(trim.get("start_frac", 0.05)),
            trim_end_frac=float(trim.get("end_frac", 0.05)),
            use_delivery=(timeline == "delivery"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def experiment_to_config(config: ExperimentConfig) -> dict:
    wl = config.workload
    src = wl.length_source
    from .workload import Concatenated, DatasetFile, Synthetic
    if isinstance(src, Synthetic):
        def dist(d):
            from .workload import Constant, LogNormalInt, UniformInt
            if isinstance(d, Constant):
                return {"type": "constant", "value": d.value}
            if isinstance(d, UniformInt):
                return {"type": "uniform_int", "low": d.low, "high": d.high}
            if isinstance(d, LogNormalInt):
                return {"type": "lognormal_int", "mean_tokens": d.mean_tokens,
                        "sigma": d.sigma}
            raise TypeError(repr(d))
        src_obj = {"type": "synthetic", "prompt_dist": dist(src.prompt_dist),
                   "output_dist": dist(src.output_dist)}
    elif isinstance(src, DatasetFile):
        src_obj = {"type": "dataset_file", "path": src.path}
    elif isinstance(src, Concatenated):
        src_obj = {"type": "concatenated", "path": src.path,
                   "target_mean_prompt_len": src.target_mean_prompt_len}
    else:
        raise TypeError(repr(src))
    return {
        "workload": {"rate": wl.rate, "count": wl.count, "seed": wl.seed,
                     "length_source": src_obj},
        "engine": engine_to_config(config.engine),
        "deadline_policy": policy_to_config(config.policy),
        "benefit": {"alpha": config.benefit.alpha,
                    "penalty": penalty_to_config(config.benefit.penalty)},
        "variants": [
            {"name": v.name, "scheduler": scheduler_to_config(v.scheduler),
             "delivery": None if v.delivery is None
             else delay_to_config(v.delivery)}
            for v in config.variants],
        "rates": list(config.rates),
        "trim": {"start_frac": config.trim_start_frac,
                 "end_frac": config.trim_end_frac},
        "evaluate": {"timeline": "delivery" if config.use_delivery
                     else "generation"},
    }


def load_experiment(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return experiment_from_config(obj, seed_override)


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
    out_dir: str | None = None
    artifacts: list[str] | None = None

    def cell(self, variant: str, rate: float) -> CellResult:
        for c in self.cells:
            if c.variant == variant and c.rate == rate:
                return c
        raise KeyError((variant, rate))


# ---------------------------------------------------------------------------
# Plot-ready data tables.


def _write_tbt_cdf(path, records: list[RequestTrace]) -> None:
    """Empirical CDF of every token gap, generation and delivery side."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["timeline", "tbt_s", "cdf"])
        for label, pick in (("generation", lambda r: r.token_times),
                            ("delivery", lambda r: r.delivery_timeline().token_times)):
            gaps = []
            for rec in records:
                ts = pick(rec)
                gaps.extend(float(b - a) for a, b in zip(ts, ts[1:]))
            gaps.sort()
            n = len(gaps)
            for i, g in enumerate(gaps, start=1):
                writer.writerow([label, repr(g), repr(i / n)])


def _write_token_timeline(path, rec: RequestTrace, policy: DeadlinePolicy,
                          use_delivery: bool) -> None:
    """Token-by-token table for one request: generation, delivery, deadline.

    Deadlines chain on the timeline the report scored, so a TTFT/TBT
    deadline follows the delivery instants when delivery was scored.
    """
    delivery = rec.delivery_timeline()
    scored = delivery if use_delivery else rec.generation_timeline()
    deadlines = deadlines_for(policy, scored).deadlines
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
             backend: str | None = None,
             ) -> tuple[list[RequestTrace], MetricsReport, "engine_mod.SimTrace"]:
    """Simulate one (variant, workload) cell and evaluate it."""
    trace = engine_mod.run(workload_specs, config.engine, variant.scheduler,
                           backend=backend)
    records = trace.requests
    if variant.delivery is not None:
        records = delay_trace(records, variant.delivery)
    window = trimmed_window(records, config.trim_start_frac,
                            config.trim_end_frac, config.use_delivery)
    report = build_report(window, config.policy, config.benefit)
    return records, report, trace


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   backend: str | None = None) -> SweepResult:
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
                records, report, trace = run_cell(specs, config, variant,
                                                  backend=backend)
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
            "engine_backend": backend or engine_mod.default_backend(),
            "artifacts": sorted(artifacts),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w",
                  encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")

    return SweepResult(cells=cells, out_dir=out_dir, artifacts=sorted(artifacts))


# ---------------------------------------------------------------------------
# Capacity search.


def capacity_search(config: ExperimentConfig, attainment_threshold: float,
                    bracket: tuple[float, float], resolution: float = 0.05,
                    variant: Variant | None = None,
                    backend: str | None = None) -> tuple[float, list[tuple[float, float]]]:
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
        _, report, _ = run_cell(specs, config, chosen, backend=backend)
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
