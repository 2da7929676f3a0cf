import csv
import json
import os
import typing

import pytest

from servesim.deadlines import ReadingSpeed, deadlines_for
from servesim.engine import EngineConfig
from servesim.metrics import BenefitParams, TokensEquivalent
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
    run_experiment,
    _write_token_timeline,
)
from servesim.schedulers import VllmLike
from servesim.traces import read_trace
from servesim.workload import Constant, Synthetic, UniformInt, WorkloadConfig


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
        ),
        policy=ReadingSpeed(0.05, 2.0),
        benefit=BenefitParams(5.0, TokensEquivalent(0.05)),
        rates=(2.0,),
    )
    result = run_experiment(config, out_dir=str(tmp_path / "out"))
    errors = {c.variant: c.error for c in result.cells}
    assert errors["vllm"] is not None and "cannot fit" in errors["vllm"]
    assert errors["chunked"] is None
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert any("cannot fit" in line for line in summary)


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
                   for d in deadlines_for(config.policy, tl).tolist()]
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
    with pytest.raises(ConfigError):
        capacity_search(config, 0.9, (2.0, 1.0))


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


def test_cli_delay_roundtrip(fixtures_dir, tmp_path, capsys):
    src = os.path.join(fixtures_dir, "three_req.jsonl")
    out = tmp_path / "delayed.jsonl"
    assert run_cli(["delay", "--trace", src, "--hold", "0.2",
                    "--out", str(out)]) == 0
    records = read_trace(out)
    assert all(r.delivery_times is not None for r in records)


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


def test_cli_capacity(tmp_path, capsys):
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


def test_cli_error_is_machine_readable(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["sweep", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and payload["error"]["type"]
