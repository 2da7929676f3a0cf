"""Byte-identity gate for report.json and report.csv.

The golden files under ``fixtures/golden/`` were written by an earlier
implementation of ``build_report`` from ``fixtures/golden_trace.jsonl``.  Any
change to how records are scored or aggregates are summed (operand order
included) changes the bytes and fails here.  Regenerate them only for an
intended change of results, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import os

import pytest

import oracles
from servesim import cli
from servesim.config import load_experiment
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.metrics import (
    BenefitParams,
    IndicatorPenalty,
    LinearSeconds,
    TokensEquivalent,
    build_report,
    window_from_traces,
    write_report_csv,
    write_report_json,
)
from servesim.traces import read_trace

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")
EXPERIMENT = os.path.join(FIXTURES, "experiment.json")
WINDOW = (1.0, 9.0)

# name: (policy, benefit, score the delivery timeline).  Budgets are tight
# enough that most benefits are not whole numbers, so a change in the order
# of the benefit sum changes its bits.
CASES = {
    "ttft_tbt": (TtftTbt(0.25, 0.04), BenefitParams(3.0, LinearSeconds(1.0)),
                 True),
    "reading_speed": (ReadingSpeed(0.035, 0.4),
                      BenefitParams(2.0, TokensEquivalent(0.035)), False),
    "end_to_end": (EndToEnd(1.5),
                   BenefitParams(1.3, IndicatorPenalty(0.25, 0.7)), False),
}


def golden_window(name):
    _, _, use_delivery = CASES[name]
    records = read_trace(os.path.join(FIXTURES, "golden_trace.jsonl"))
    return window_from_traces(records, *WINDOW, use_delivery=use_delivery)


def write_reports(name, out_dir):
    policy, params, _ = CASES[name]
    report = build_report(golden_window(name), policy, params)
    write_report_json(os.path.join(out_dir, f"{name}.json"), report)
    write_report_csv(os.path.join(out_dir, f"{name}.csv"), report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_window_covers_the_edge_cases(name):
    window = golden_window(name)
    counts = [tl.num_tokens for tl in window.requests]
    clipped = [tl for tl in window.requests if not tl.complete]
    arrivals = [tl.arrival for tl in window.requests]
    assert 1 in counts and 0 in counts
    assert any(tl.num_tokens > 0 for tl in clipped)
    assert len(set(arrivals)) < len(arrivals)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("ext", ["json", "csv"])
def test_report_bytes_match_golden(name, ext, tmp_path):
    write_reports(name, str(tmp_path))
    got = (tmp_path / f"{name}.{ext}").read_bytes()
    with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as f:
        assert got == f.read()


@pytest.mark.parametrize("timeline", ["delivery", "generation"])
def test_servesim_metrics_writes_the_reports_of_the_reference_reader(
        timeline, tmp_path, capsys):
    # `servesim metrics --out` reads the trace as columns; the reference
    # reads it with the stdlib and windows its list of records.
    trace = os.path.join(FIXTURES, "golden_trace.jsonl")
    out = tmp_path / "cli"
    assert cli.main(["metrics", "--config", EXPERIMENT, "--trace", trace,
                     "--timeline", timeline, "--out", str(out)]) == 0
    config = load_experiment(EXPERIMENT)
    records = oracles.read_trace(trace)
    makespan = max(rec.token_times[-1] for rec in records if rec.token_times)
    window = window_from_traces(records, config.trim_start_frac * makespan,
                                (1.0 - config.trim_end_frac) * makespan,
                                use_delivery=timeline == "delivery")
    report = build_report(window, config.policy, config.benefit)
    write_report_json(tmp_path / "report.json", report)
    write_report_csv(tmp_path / "report.csv", report)
    for name in ("report.json", "report.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert json.loads(capsys.readouterr().out) == report.aggregates()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in CASES:
        write_reports(case, GOLDEN)
