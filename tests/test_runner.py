import csv
import dataclasses
import gc
import json
import math
import os
import typing

import numpy as np
import pytest

from servesim import engine
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt, deadlines_for
from servesim.delivery import DelayConfig, delay_trace
from servesim.engine import EngineConfig
from servesim.metrics import (
    BenefitParams,
    RequestMetrics,
    TokensEquivalent,
    build_report,
    write_report_csv,
    write_report_json,
)
from servesim.config import (
    ConfigError,
    ExperimentConfig,
    Variant,
    experiment_from_config,
    experiment_to_config,
    load_experiment,
)
from servesim.runner import (
    capacity_search,
    run_cell,
    run_experiment,
    trimmed_window,
    _write_token_timeline,
)
from servesim.schedulers import ChunkedPrefill, VllmLike
from servesim.traces import RequestTrace, TraceRecords, read_trace
from servesim.workload import (
    Constant,
    Synthetic,
    UniformInt,
    WorkloadConfig,
    generate,
)


def fixture_config(fixtures_dir):
    return load_experiment(os.path.join(fixtures_dir, "experiment.json"))


def small_config(rates=(1.0, 3.0), count=40, **engine_kw) -> ExperimentConfig:
    return ExperimentConfig(
        workload=WorkloadConfig(rates[0], count, 3, Synthetic(
            Constant(100), UniformInt(5, 40))),
        engine=EngineConfig(**engine_kw) if engine_kw else EngineConfig(),
        variants=(Variant("vllm", VllmLike()),),
        policy=ReadingSpeed(0.05, 2.0),
        benefit=BenefitParams(5.0, TokensEquivalent(0.05)),
        rates=tuple(rates),
    )


def test_config_parsing_and_roundtrip(fixtures_dir):
    config = fixture_config(fixtures_dir)
    assert [v.name for v in config.variants] == ["vllm", "chunked",
                                                 "vllm_delayed"]
    assert config.policy == ReadingSpeed(0.05, 2.0)
    # Default benefit penalty derives from the reading-speed budget.
    assert config.benefit.penalty == TokensEquivalent(0.05)
    again = experiment_from_config(experiment_to_config(config))
    assert again == config


def test_config_validation_errors(fixtures_dir):
    base = experiment_to_config(fixture_config(fixtures_dir))
    empty_rates = json.loads(json.dumps(base))
    empty_rates["rates"] = []
    with pytest.raises(ConfigError):
        experiment_from_config(empty_rates)
    unsorted = json.loads(json.dumps(base))
    unsorted["rates"] = [3.0, 1.0]
    with pytest.raises(ConfigError):
        experiment_from_config(unsorted)
    no_variants = json.loads(json.dumps(base))
    no_variants["variants"] = []
    with pytest.raises(ConfigError):
        experiment_from_config(no_variants)
    bad_rate = json.loads(json.dumps(base))
    bad_rate["rates"] = [0.0, 1.0]
    with pytest.raises(ConfigError):
        experiment_from_config(bad_rate)


def test_experiment_config_type_hints_resolve():
    hints = typing.get_type_hints(ExperimentConfig)
    assert hints["engine"] is EngineConfig


def test_seed_override(fixtures_dir):
    path = os.path.join(fixtures_dir, "experiment.json")
    a = load_experiment(path)
    b = load_experiment(path, seed_override=99)
    assert a.workload.seed == 11 and b.workload.seed == 99


def test_sweep_produces_all_cells_and_artifacts(fixtures_dir, tmp_path):
    config = fixture_config(fixtures_dir)
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    assert len(result.cells) == 9
    assert all(c.error is None for c in result.cells)
    out = tmp_path / "out"
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    for rate in (1.0, 3.0, 6.0):
        assert (out / f"workload_rate{rate:g}.jsonl").exists()
    cell_dir = out / "cells" / "vllm_rate3"
    for name in ("trace.jsonl", "iterations.csv", "report.json", "report.csv"):
        assert (cell_dir / name).exists()
    assert list((out / "plots").glob("tbt_cdf_*.csv"))
    assert list((out / "plots").glob("rate_sweep_*.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rates"] == [1.0, 3.0, 6.0]
    for rel in manifest["artifacts"]:
        assert (out / rel).exists()


def test_variants_share_identical_arrivals(fixtures_dir, tmp_path):
    config = fixture_config(fixtures_dir)
    run_experiment(config, out_dir=str(tmp_path / "out"))
    vllm = read_trace(tmp_path / "out" / "cells" / "vllm_rate3" / "trace.jsonl")
    chunked = read_trace(tmp_path / "out" / "cells" / "chunked_rate3"
                         / "trace.jsonl")
    assert [(r.request_id, r.arrival, r.prompt_len) for r in vllm] == \
        [(r.request_id, r.arrival, r.prompt_len) for r in chunked]


def test_throughput_monotone_up_to_saturation(fixtures_dir, tmp_path):
    config = fixture_config(fixtures_dir)
    result = run_experiment(config)
    thr = [result.cell("vllm", r).report.throughput_tokens_per_s
           for r in (1.0, 3.0, 6.0)]
    assert thr[0] <= thr[1] * 1.05 and thr[1] <= thr[2] * 1.05


def test_sweep_is_byte_reproducible(fixtures_dir, tmp_path):
    config = fixture_config(fixtures_dir)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out_dir=str(dir_a))
    run_experiment(config, out_dir=str(dir_b))
    for rel in ("summary.csv", "workload_rate3.jsonl",
                "cells/vllm_rate3/trace.jsonl",
                "cells/vllm_delayed_rate6/trace.jsonl",
                "cells/chunked_rate1/report.csv"):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


def test_failed_cell_becomes_error_row(tmp_path):
    # A 300-token constant prompt cannot fit a 256-token batch under the
    # full-prompt policy but chunks fine, so exactly one variant errors.
    config = ExperimentConfig(
        workload=WorkloadConfig(2.0, 10, 5, Synthetic(
            Constant(300), Constant(10))),
        engine=EngineConfig(max_batch_tokens=256, max_running_seqs=16,
                            kv_capacity_tokens=50_000),
        variants=(
            Variant("vllm", VllmLike()),
            Variant("chunked",
                    __import__("servesim").ChunkedPrefill(chunk_tokens=64)),
            Variant("vllm_delayed", VllmLike(), DelayConfig(0.1)),
        ),
        policy=ReadingSpeed(0.05, 2.0),
        benefit=BenefitParams(5.0, TokensEquivalent(0.05)),
        rates=(2.0,),
    )
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    errors = {c.variant: c.error for c in result.cells}
    assert errors["vllm"] is not None and "cannot fit" in errors["vllm"]
    assert errors["chunked"] is None
    # A failed simulation is not kept: the variant that shares its
    # scheduler fails with the same message.
    assert errors["vllm_delayed"] == errors["vllm"]
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert any("cannot fit" in line for line in summary)


def test_variants_that_share_a_scheduler_simulate_once(monkeypatch,
                                                      tmp_path):
    config = dataclasses.replace(small_config(), variants=(
        Variant("vllm", VllmLike()),
        Variant("vllm_delayed", VllmLike(), DelayConfig(0.1)),
        Variant("chunked", ChunkedPrefill(64))))
    schedulers = []
    run = engine.run

    def counted(specs, engine_config, scheduler):
        schedulers.append(scheduler)
        return run(specs, engine_config, scheduler)

    monkeypatch.setattr(engine, "run", counted)
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    assert all(c.error is None for c in result.cells)
    assert schedulers == [VllmLike(), ChunkedPrefill(64)] * 2
    # Each variant still writes its own trace: the delayed one is paced.
    cells = tmp_path / "out" / "cells"
    plain = read_trace(cells / "vllm_rate1" / "trace.jsonl")
    paced = read_trace(cells / "vllm_delayed_rate1" / "trace.jsonl")
    assert [r.token_times for r in plain] == [r.token_times for r in paced]
    assert all(r.delivery_times is None for r in plain)
    assert any(r.delivery_times is not None for r in paced)


def _live(cls) -> int:
    gc.collect()
    return sum(type(obj) is cls for obj in gc.get_objects())


def test_a_delayed_cell_builds_no_record():
    # The engine and delay_trace return columns, and a cell scores them as
    # they are: a record is built only when one is read.
    config = small_config(rates=(3.0,))
    variant = Variant("held", VllmLike(), DelayConfig(0.05))
    specs = generate(config.workload.with_rate(3.0))
    before = _live(RequestTrace)
    trace = engine.run(specs, config.engine, variant.scheduler)
    records, report = run_cell(trace, config, variant)
    assert _live(RequestTrace) == before
    assert type(trace.requests) is TraceRecords
    assert type(records) is TraceRecords
    assert type(delay_trace(list(trace.requests), variant.delivery)) \
        is TraceRecords
    assert records == delay_trace(list(trace.requests), variant.delivery)
    assert len(report.per_request) > 0


def test_a_report_is_scored_and_written_as_columns(tmp_path):
    # build_report, both report writers and a sweep hold and read the
    # report's columns: no RequestMetrics is built until per_request is read.
    config = small_config(rates=(3.0,))
    specs = generate(config.workload.with_rate(3.0))
    trace = engine.run(specs, config.engine, config.variants[0].scheduler)
    window = trimmed_window(trace.requests, config.trim_start_frac,
                            config.trim_end_frac, config.use_delivery)
    before = _live(RequestMetrics)
    report = build_report(window, config.policy, config.benefit)
    write_report_json(tmp_path / "report.json", report)
    write_report_csv(tmp_path / "report.csv", report)
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    assert _live(RequestMetrics) == before
    for report in [report, *(cell.report for cell in result.cells)]:
        assert "per_request" not in report.__dict__
        assert len(report.per_request) == len(report.columns["request_id"])
    assert _live(RequestMetrics) > before


@pytest.mark.parametrize("policy", [TtftTbt(0.01, 0.001), EndToEnd(1e9)],
                         ids=["some_late", "none_late"])
def test_timeline_plot_is_of_the_first_request_idle_the_longest(tmp_path,
                                                               policy):
    # Under a budget no request misses, every idle latency is 0.0 and the
    # tie picks the first request of the window.
    config = dataclasses.replace(small_config(), policy=policy)
    out = tmp_path / "out"
    run_experiment(config, out_dir=str(out))
    expected = set()
    for rate in config.rates:
        stem = f"vllm_rate{rate:g}"
        report = json.loads(
            (out / "cells" / stem / "report.json").read_text())
        idle = [r["idle_latency_s"] for r in report["requests"]]
        assert (max(idle) > 0.0) != isinstance(policy, EndToEnd)
        worst = report["requests"][idle.index(max(idle))]["request_id"]
        expected.add(f"timeline_{stem}_{worst}.csv")
    plotted = {path.name for path in (out / "plots").glob("timeline_*.csv")}
    assert plotted == expected


def test_timeline_plot_deadlines_follow_the_scored_timeline(fixtures_dir,
                                                           tmp_path):
    # TTFT/TBT deadlines chain on actual token times, so with a delivery
    # variant the plotted deadlines must chain on delivery, as scored.
    with open(os.path.join(fixtures_dir, "experiment.json")) as f:
        obj = json.load(f)
    obj["deadline_policy"] = {"type": "ttft_tbt", "ttft_s": 1.0, "tbt_s": 0.03}
    obj["variants"] = [{"name": "held", "scheduler": {"type": "vllm_like"},
                        "delivery": {"mode": "tbt_cap", "tbt_target_s": 0.05}}]
    obj["rates"] = [3.0]
    config = experiment_from_config(obj)
    assert config.use_delivery
    out = tmp_path / "out"
    run_experiment(config, out_dir=str(out))
    cell = out / "cells" / "held_rate3"
    records = {r.request_id: r for r in read_trace(cell / "trace.jsonl")}
    report = json.loads((cell / "report.json").read_text())

    def plotted(path):
        with open(path, newline="") as f:
            return list(csv.DictReader(f))

    [plot] = (out / "plots").glob("timeline_held_rate3_*.csv")
    rec = records[plot.stem[len("timeline_held_rate3_"):]]
    chained = {
        timeline: [repr(rec.arrival + d)
                   for d in deadlines_for(
                       config.policy,
                       np.subtract(tl.token_times, tl.arrival)).tolist()]
        for timeline, tl in (("delivery", rec.delivery_timeline()),
                             ("generation", rec.generation_timeline()))}
    assert chained["delivery"] != chained["generation"]
    assert [row["deadline_s"] for row in plotted(plot)] == chained["delivery"]

    complete = [r for r in report["requests"] if r["complete"]]
    assert complete
    for r in complete:
        path = tmp_path / f"{r['request_id']}.csv"
        _write_token_timeline(str(path), records[r["request_id"]],
                              config.policy, config.use_delivery)
        worst = max(float(row["delivered_s"]) - float(row["deadline_s"])
                    for row in plotted(path))
        assert worst == pytest.approx(r["peak_lateness_s"], abs=1e-9)


# ---------------------------------------------------------------------------
# Capacity search.


def test_capacity_unconstrained_engine_returns_bracket_max():
    config = small_config(rates=(1.0,), base_s=1e-6, prefill_per_token_s=0.0,
                          decode_per_seq_s=0.0)
    capacity, probes = capacity_search(config, 1.0, (1.0, 16.0))
    assert capacity == 16.0
    assert len(probes) == 2  # both endpoints only


def test_capacity_bisects_inside_bracket():
    # A small engine saturating near 5 req/s for this workload.
    config = ExperimentConfig(
        workload=WorkloadConfig(1.0, 120, 3, Synthetic(
            Constant(100), UniformInt(20, 80))),
        engine=EngineConfig(
            base_s=0.01, prefill_per_token_s=0.0005, decode_per_seq_s=0.003,
            max_batch_tokens=512, max_running_seqs=8,
            kv_capacity_tokens=20_000),
        variants=(Variant("vllm", VllmLike()),),
        policy=ReadingSpeed(0.05, 2.0),
        benefit=BenefitParams(5.0, TokensEquivalent(0.05)),
        rates=(1.0,))
    capacity, probes = capacity_search(config, 0.9, (0.2, 8.0),
                                       resolution=0.05)
    assert 0.2 < capacity < 8.0
    looked_up = dict(probes)
    assert looked_up[capacity] >= 0.9
    # Every probe was a full simulation; bisection needs ~log2(range/res).
    assert len(probes) >= 7


@pytest.mark.parametrize("threshold", [0.5, 0.9, 0.99])
def test_capacity_bisection_keeps_passing_probes_below_failing(threshold):
    # Attainment need not fall monotonically with rate, so the probe log's
    # attainments may rise again; what bisection guarantees is that every
    # passing probe lies below every failing one, and the capacity is the
    # highest passing rate, within the resolution of the lowest failing one.
    config = small_config(rates=(1.0,), count=60, max_running_seqs=4,
                          decode_per_seq_s=0.01)
    bracket, resolution = (0.2, 8.0), 0.1
    capacity, probes = capacity_search(config, threshold, bracket,
                                       resolution=resolution)
    passing = [rate for rate, att in probes if att >= threshold]
    failing = [rate for rate, att in probes if att < threshold]
    assert capacity == max(passing)
    if capacity == bracket[1]:
        assert not failing
    else:
        assert capacity < min(failing) <= capacity + resolution


def test_capacity_infeasible_bracket():
    config = small_config(rates=(1.0,), count=120)
    with pytest.raises(RuntimeError, match="infeasible bracket"):
        capacity_search(config, 1.0, (6.0, 12.0))


def test_capacity_threshold_validation():
    config = small_config(rates=(1.0,))
    with pytest.raises(ConfigError):
        capacity_search(config, 0.0, (1.0, 2.0))
    # An infinite bracket_hi used to be probed, and failed only after the
    # bracket-minimum simulation, on an empty window.
    for bracket in ((0.5, math.inf), (0.0, 1.0), (2.0, 1.0), (1.0, 1.0),
                    (math.nan, 2.0), (1.0, math.nan)):
        with pytest.raises(ConfigError, match=r"^bracket \("):
            capacity_search(config, 0.9, bracket)
    # A NaN resolution ends bisection at once (hi - lo > nan is False), and
    # would report the bracket minimum after its two endpoint probes.
    for resolution in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="resolution must be positive "
                                              "and finite"):
            capacity_search(config, 0.9, (1.0, 2.0), resolution=resolution)


# ---------------------------------------------------------------------------
# CLI.


def run_cli(argv):
    from servesim.cli import main
    return main(argv)


def test_cli_simulate_and_metrics(fixtures_dir, tmp_path, capsys):
    config_path = os.path.join(fixtures_dir, "experiment.json")
    out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", config_path, "--rate", "2.0",
                    "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "throughput=" in captured.out
    trace = out / "cells" / "vllm_rate2" / "trace.jsonl"
    assert trace.exists()

    assert run_cli(["metrics", "--config", config_path, "--trace", str(trace),
                    "--out", str(tmp_path / "m")]) == 0
    agg = json.loads(capsys.readouterr().out)
    assert "smooth_goodput_per_s" in agg
    assert (tmp_path / "m" / "report.json").exists()


def test_cli_metrics_scores_the_configured_timeline(fixtures_dir, tmp_path,
                                                    capsys):
    # Without --timeline, metrics scores the config's evaluate.timeline, as
    # the sweep did; the flag still overrides it.
    with open(os.path.join(fixtures_dir, "experiment.json")) as f:
        obj = json.load(f)
    obj["deadline_policy"] = {"type": "ttft_tbt", "ttft_s": 1.0, "tbt_s": 0.03}
    obj["variants"] = [{"name": "held", "scheduler": {"type": "vllm_like"},
                        "delivery": {"mode": "tbt_cap", "tbt_target_s": 0.2}}]
    obj["rates"] = [3.0]
    obj["evaluate"] = {"timeline": "generation"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(config_path),
                    "--out", str(out)]) == 0
    capsys.readouterr()
    cell = out / "cells" / "held_rate3"
    swept = json.loads((cell / "report.json").read_text())["aggregates"]

    def scored(*flags):
        assert run_cli(["metrics", "--config", str(config_path), "--trace",
                        str(cell / "trace.jsonl"), *flags]) == 0
        return json.loads(capsys.readouterr().out)

    assert scored() == swept == scored("--timeline", "generation")
    delivered = scored("--timeline", "delivery")
    assert (delivered["tbt_percentiles_s"]["p50"]
            > swept["tbt_percentiles_s"]["p50"])


def test_cli_delay_roundtrip(fixtures_dir, tmp_path, capsys):
    src = os.path.join(fixtures_dir, "three_req.jsonl")
    out = tmp_path / "delayed.jsonl"
    assert run_cli(["delay", "--trace", src, "--hold", "0.2",
                    "--out", str(out)]) == 0
    records = read_trace(out)
    assert all(r.delivery_times is not None for r in records)


@pytest.mark.parametrize("hold", ["nan", "inf", "0"])
def test_cli_delay_rejects_a_hold_that_paces_nothing(fixtures_dir, tmp_path,
                                                      capsys, hold):
    src = os.path.join(fixtures_dir, "three_req.jsonl")
    out = tmp_path / "delayed.jsonl"
    assert run_cli(["delay", "--trace", src, "--hold", hold,
                    "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == {"type": "ValueError", "message":
                              "hold budget must be positive and finite"}
    assert not out.exists()


def test_cli_metrics_rejects_an_unscorable_trace(fixtures_dir, tmp_path,
                                                  capsys):
    # r3 sets the makespan to 10.0, so the trimmed window ends at 9.5: the
    # bad records arrive after it, where no timeline check would reach them.
    records = [
        ("r1", 0.0, [0.3, 0.6]), ("r2", 1.0, [1.4, 2.0]),
        ("b1", 9.5, [9.8, 9.6]), ("r3", 4.0, [4.5, 10.0]),
        ("b2", 9.6, [9.5, 9.9]), ("b3", 9.7, []),
    ]
    trace = tmp_path / "bad.jsonl"
    trace.write_text("".join(
        json.dumps({"request_id": rid, "arrival_s": arrival,
                    "token_times_s": times, "prompt_len": 4,
                    "completed": True}) + "\n"
        for rid, arrival, times in records))
    config_path = os.path.join(fixtures_dir, "experiment.json")
    assert run_cli(["metrics", "--config", config_path,
                    "--trace", str(trace)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"]["type"] == "TraceFormatError"
    assert "line 3: b1: " in error["error"]["message"]


def test_cli_metrics_names_the_line_that_is_not_utf8(fixtures_dir, tmp_path,
                                                    capsys):
    line = json.dumps({"request_id": "r1", "arrival_s": 0.0,
                       "token_times_s": [0.3, 0.6], "prompt_len": 4,
                       "completed": True}).encode() + b"\n"
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(line + line.replace(b"r1", b"r\xff"))
    config_path = os.path.join(fixtures_dir, "experiment.json")
    assert run_cli(["metrics", "--config", config_path,
                    "--trace", str(trace)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"]["type"] == "TraceFormatError"
    assert f"{trace}: line 2: " in error["error"]["message"]
    assert "utf-8" in error["error"]["message"]


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_metrics_writes_strict_json_for_a_window_with_no_token(
        fixtures_dir, tmp_path, capsys):
    # r1's last token sets the makespan to 10.0, so the trimmed window is
    # [0.5, 9.5): it holds r2 alone, whose token comes after it.
    lines = [{"request_id": "r1", "arrival_s": 0.0, "token_times_s": [10.0],
              "prompt_len": 4, "completed": True},
             {"request_id": "r2", "arrival_s": 1.0, "token_times_s": [9.8],
              "prompt_len": 4, "completed": True}]
    trace = tmp_path / "late.jsonl"
    trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
    config_path = os.path.join(fixtures_dir, "experiment.json")
    assert run_cli(["metrics", "--config", config_path, "--trace", str(trace),
                    "--out", str(tmp_path / "m")]) == 0
    agg = _strict_json(capsys.readouterr().out)
    report = _strict_json((tmp_path / "m" / "report.json").read_text())
    assert agg == report["aggregates"]
    assert agg["mean_ttft_s"] is None
    assert [r["ttft_s"] for r in report["requests"]] == [None]


NO_TOKEN = "no request in the trace has a token"
ZERO_MAKESPAN = "every token in the trace is at 0.0 s"


@pytest.mark.parametrize("lines, message", [
    ([], NO_TOKEN),
    ([{"request_id": "a", "arrival_s": 0.0, "token_times_s": [],
       "prompt_len": 4, "completed": False}], NO_TOKEN),
    ([{"request_id": "a", "arrival_s": 0.0, "token_times_s": [0.0, 0.0],
       "prompt_len": 4, "completed": True},
      {"request_id": "b", "arrival_s": 0.0, "token_times_s": [],
       "prompt_len": 4, "completed": False}], ZERO_MAKESPAN),
], ids=["empty", "no_tokens", "zero_makespan"])
def test_cli_metrics_names_a_trace_with_no_tokens(fixtures_dir, tmp_path,
                                                  capsys, lines, message):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
    config_path = os.path.join(fixtures_dir, "experiment.json")
    assert run_cli(["metrics", "--config", config_path,
                    "--trace", str(trace)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"]["type"] == "ValueError"
    assert error["error"]["message"].startswith(message)


def test_trimmed_window_names_a_makespan_too_short_to_trim(tmp_path):
    # Trims that ExperimentConfig accepts round a subnormal makespan's
    # window start and end to the same instant.
    p = tmp_path / "tiny.jsonl"
    p.write_text(json.dumps({"request_id": "a", "arrival_s": 0.0,
                             "token_times_s": [5e-324], "prompt_len": 4,
                             "completed": True}) + "\n")
    trim = (0.25, 0.5)
    dataclasses.replace(small_config(), trim_start_frac=trim[0],
                        trim_end_frac=trim[1])
    for records in (read_trace(p), list(read_trace(p))):
        with pytest.raises(ValueError,
                           match=r"makespan 5e-324 s .* by 0\.25 and 0\.5"):
            trimmed_window(records, *trim, False)


def test_cli_capacity(tmp_path, capsys, monkeypatch):
    config = {
        "workload": {"count": 40, "seed": 3, "rate": 1.0,
                     "length_source": {"type": "synthetic",
                                       "prompt_dist": {"type": "constant",
                                                       "value": 100},
                                       "output_dist": {"type": "uniform_int",
                                                       "low": 5, "high": 40}}},
        "engine": {"base_s": 1e-06, "prefill_per_token_s": 0.0,
                   "decode_per_seq_s": 0.0},
        "deadline_policy": {"type": "reading_speed", "tokens_per_second": 20,
                            "first_token_allowance_s": 2.0},
        "variants": [{"scheduler": {"type": "vllm_like"}}],
        "rates": [1.0],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["capacity", "--config", str(path), "--threshold", "1.0",
                    "--bracket-lo", "1.0", "--bracket-hi", "4.0",
                    "--out", str(tmp_path / "cap")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["capacity_req_per_s"] == 4.0
    assert (tmp_path / "cap" / "capacity.json").exists()
    assert run_cli(["capacity", "--config", str(path), "--threshold", "1.0",
                    "--bracket-lo", "1.0", "--bracket-hi", "4.0",
                    "--resolution", "nan"]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == {"type": "ConfigError", "message":
                              "resolution must be positive and finite"}
    assert run_cli(["capacity", "--config", str(path), "--threshold", "1.0",
                    "--bracket-lo", "1.0", "--bracket-hi", "inf"]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == {"type": "ConfigError", "message":
                              "bracket (1, inf): need 0 < bracket_lo < "
                              "bracket_hi < inf"}
    # capacity.json and stdout are strict JSON: a NaN is an error, and
    # nothing is written.
    monkeypatch.setattr("servesim.cli.capacity_search",
                        lambda *args, **kwargs: (4.0, [(4.0, math.nan)]))
    assert run_cli(["capacity", "--config", str(path), "--threshold", "1.0",
                    "--bracket-lo", "1.0", "--bracket-hi", "4.0",
                    "--out", str(tmp_path / "nan")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == (
        "ValueError")
    assert not (tmp_path / "nan" / "capacity.json").exists()


def test_cli_error_is_machine_readable(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["sweep", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and payload["error"]["type"]
