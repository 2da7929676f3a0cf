import os
import tracemalloc

import numpy as np
import pytest

import oracles
import servesim.metrics
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt, deadlines_for
from servesim.metrics import (
    PERCENTILE_LABELS,
    BenefitParams,
    EvalWindow,
    IndicatorPenalty,
    LinearSeconds,
    TokensEquivalent,
    _Columns,
    build_report,
    percentile,
    score,
    window_from_traces,
)
from servesim.runner import TBT_CDF_GRID
from servesim.traces import TokenTimeline, read_trace


def timeline(arrival, rel_times, rid="t", complete=True):
    return TokenTimeline(rid, arrival,
                         tuple(arrival + t for t in rel_times), complete)


@pytest.fixture(scope="module")
def fixture_records():
    here = os.path.join(os.path.dirname(__file__), "fixtures", "three_req.jsonl")
    return read_trace(here)


# ---------------------------------------------------------------------------
# Scalar metrics.

# The latency fields of a record do not depend on the deadline policy.
POLICY = EndToEnd(100.0)


def test_ttft_basic():
    assert score(TokenTimeline("a", 10.0, (10.4, 11.0)),
                 POLICY).ttft == pytest.approx(0.4)
    assert score(TokenTimeline("b", 0.0, (0.0,)), POLICY).ttft == 0.0


def test_tbt_series_basic():
    tl = TokenTimeline("a", 0.0, (1.0, 1.1, 1.4))
    report = build_report(EvalWindow(0.0, 2.0, (tl,)), POLICY,
                          BenefitParams())
    assert report.tbt_percentiles["p50"] == pytest.approx(0.1)
    assert report.tbt_percentiles["p99"] == pytest.approx(0.3)
    assert report.per_request[0].max_tbt == pytest.approx(0.3)
    one = TokenTimeline("b", 0.0, (1.5,))
    report = build_report(EvalWindow(0.0, 2.0, (one,)), POLICY,
                          BenefitParams())
    assert report.tbt_percentiles == {}
    assert report.per_request[0].max_tbt is None


def test_tpot_basic():
    assert score(TokenTimeline("a", 0.0, (0.0, 0.2, 0.4)),
                 POLICY).tpot == pytest.approx(0.2)
    assert score(TokenTimeline("b", 0.0, (1.0, 1.5)),
                 POLICY).tpot == pytest.approx(0.5)
    assert score(TokenTimeline("c", 0.0, (1.0,)), POLICY).tpot is None


def test_e2e_basic():
    assert score(TokenTimeline("a", 10.0, (10.4, 12.0)),
                 POLICY).e2e == pytest.approx(2.0)
    assert score(TokenTimeline("b", 0.0, (0.0,)), POLICY).e2e == 0.0


def test_scalar_metrics_match_fixture_oracle(fixture_records):
    for rec in fixture_records:
        tl = rec.generation_timeline()
        times = list(tl.token_times)
        r = score(tl, POLICY)
        assert r.ttft == pytest.approx(
            oracles.ttft(tl.arrival, times), rel=1e-12)
        assert r.e2e == pytest.approx(
            oracles.e2e(tl.arrival, times), rel=1e-12)
        assert len(times) >= 2
        assert r.tpot == pytest.approx(oracles.tpot(times), rel=1e-12)
        assert r.tpot == pytest.approx(np.mean(oracles.tbt(times)), rel=1e-12)
        assert r.max_tbt == pytest.approx(max(oracles.tbt(times)), rel=1e-12)


# ---------------------------------------------------------------------------
# Idle latency and benefit.


def test_idle_latency_clamps_early_requests():
    tl = timeline(0.0, [0.04, 0.09, 0.14])
    record = score(tl, ReadingSpeed(0.05, 0.05))
    assert record.idle_latency == 0.0
    assert record.peak_lateness < 0


def test_idle_latency_max_of_lateness():
    tl = timeline(0.0, [0.5, 0.6, 0.7])
    policy = ReadingSpeed(0.1, 0.1)  # deadlines 0.1, 0.2, 0.3
    assert score(tl, policy).idle_latency == pytest.approx(0.4, abs=1e-12)


def test_idle_latency_matches_loop_oracle():
    rng = np.random.default_rng(11)
    policy = ReadingSpeed(0.05, 0.05)
    rel = np.cumsum(rng.uniform(0.0, 0.15, size=50))
    tl = timeline(0.0, rel.tolist())
    expected = oracles.idle_latency("reading_speed", (0.05, 0.05), 0.0,
                                    list(tl.token_times))
    assert score(tl, policy).idle_latency == pytest.approx(expected, rel=1e-12)


def test_benefit_examples():
    policy = ReadingSpeed(0.05, 0.05)
    early = timeline(0.0, [0.04 * (i + 1) for i in range(100)])
    linear = BenefitParams(5.0, LinearSeconds(1.0))
    assert score(early, policy, linear).benefit == 100.0

    # Last token 3 s after its pace point, i.e. 2 s past its deadline.
    late = timeline(0.0, [0.04 * (i + 1) + (3.0 if i == 99 else 0.0)
                          for i in range(100)])
    assert score(late, policy, linear).benefit == pytest.approx(90.0)
    # Tokens-equivalent penalty: one second idle is 20 tokens of reading lost.
    one_second_late = timeline(0.0, [0.05 * (i + 1) + (1.0 if i == 99 else 0.0)
                                     for i in range(100)])
    got = score(one_second_late, policy,
                BenefitParams(5.0, TokensEquivalent(0.05))).benefit
    idle = oracles.idle_latency("reading_speed", (0.05, 0.05), 0.0,
                                list(one_second_late.token_times))
    assert got == pytest.approx(100 - 5.0 * (idle / 0.05), rel=1e-12)
    assert got == pytest.approx(0.0, abs=1e-9)


def test_benefit_may_go_negative():
    policy = ReadingSpeed(0.05, 0.05)
    tl = timeline(0.0, [10.0, 10.05])
    params = BenefitParams(5.0, TokensEquivalent(0.05))
    assert score(tl, policy, params).benefit < 0


def test_penalties_zero_at_or_below_zero_idle():
    for fn in (LinearSeconds(2.0), TokensEquivalent(0.05),
               IndicatorPenalty(0.5, 3.0)):
        assert fn(0.0) == 0.0
        assert fn(-1.0) == 0.0
        assert fn(2.0) >= fn(1.0) >= 0.0


# ---------------------------------------------------------------------------
# Windows and aggregates.


def test_goodput_examples():
    policy = ReadingSpeed(0.05, 0.05)
    meets = timeline(0.0, [0.04 * (i + 1) for i in range(10)], rid="ok")
    misses = timeline(1.0, [3.0 + 0.05 * i for i in range(10)], rid="late")
    report = build_report(EvalWindow(0.0, 5.0, (meets, misses)), policy,
                          BenefitParams())
    assert report.goodput_tokens_per_s == pytest.approx(2.0)
    assert report.goodput_requests_per_s == pytest.approx(0.2)
    none_meet = build_report(EvalWindow(0.0, 5.0, (misses,)), policy,
                             BenefitParams())
    assert none_meet.goodput_tokens_per_s == 0.0


def test_window_validation():
    with pytest.raises(ValueError):
        EvalWindow(1.0, 1.0, ())
    with pytest.raises(ValueError, match="outside window"):
        EvalWindow(0.0, 1.0, (timeline(2.0, [0.1]),))


def test_attainment_examples():
    policy = ReadingSpeed(0.05, 0.05)
    meets = timeline(0.0, [0.04], rid="ok")
    misses = timeline(0.0, [0.5], rid="late")
    window = EvalWindow(0.0, 1.0, (meets, misses))
    assert build_report(window, policy, BenefitParams()).slo_attainment == 0.5


def test_smooth_goodput_alpha_zero_is_throughput():
    rng = np.random.default_rng(5)
    tls = []
    for i in range(20):
        n = int(rng.integers(1, 40))
        arrival = float(rng.uniform(0, 9))
        rel = np.cumsum(rng.uniform(0.01, 0.3, size=n))
        tls.append(timeline(arrival, rel.tolist(), rid=f"r{i}"))
    window = EvalWindow(0.0, 10.0, tuple(tls))
    params = BenefitParams(0.0, TokensEquivalent(0.05))
    tokens_per_s = sum(tl.num_tokens for tl in tls) / window.length
    for policy in (ReadingSpeed(0.05), EndToEnd(2.0), TtftTbt(0.5, 0.1)):
        report = build_report(window, policy, params)
        assert report.throughput_tokens_per_s == tokens_per_s
        assert report.smooth_goodput_per_s == pytest.approx(
            tokens_per_s, rel=1e-12)


def test_smooth_goodput_fixture_oracle(fixture_records):
    window = window_from_traces(fixture_records, 0.0, 2.0)
    policy = ReadingSpeed(0.05, 0.05)
    params = BenefitParams(5.0, TokensEquivalent(0.05))
    reqs = [(tl.arrival, list(tl.token_times), tl.complete)
            for tl in window.requests]
    penalty = lambda idle: idle / 0.05  # noqa: E731
    report = build_report(window, policy, params)
    assert report.smooth_goodput_per_s == pytest.approx(
        oracles.smooth_goodput(reqs, "reading_speed", (0.05, 0.05), 2.0,
                               5.0, penalty), rel=1e-12)
    assert report.goodput_tokens_per_s == pytest.approx(
        oracles.goodput(reqs, "reading_speed", (0.05, 0.05), 2.0), rel=1e-12)
    assert report.slo_attainment == pytest.approx(
        oracles.attainment(reqs, "reading_speed", (0.05, 0.05)), rel=1e-12)


def test_smooth_goodput_monotone_in_alpha():
    rng = np.random.default_rng(17)
    policy = ReadingSpeed(0.05, 0.05)
    tls = []
    for i in range(30):
        n = int(rng.integers(1, 30))
        rel = np.cumsum(rng.uniform(0.01, 0.2, size=n))
        tls.append(timeline(float(rng.uniform(0, 4)), rel.tolist(), rid=f"r{i}"))
    window = EvalWindow(0.0, 5.0, tuple(tls))
    values = [build_report(window, policy, BenefitParams(
                  a, TokensEquivalent(0.05))).smooth_goodput_per_s
              for a in (0.0, 1.0, 2.0, 5.0, 10.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_translation_covariance_of_lateness():
    rng = np.random.default_rng(23)
    for policy in (ReadingSpeed(0.05, 0.1), EndToEnd(1.5)):
        rel = np.cumsum(rng.uniform(0.01, 0.2, size=25))
        base = timeline(0.0, rel.tolist())
        delta = 0.7
        shifted = timeline(0.0, (rel + delta).tolist())
        assert score(shifted, policy).peak_lateness == pytest.approx(
            score(base, policy).peak_lateness + delta, rel=1e-12)


def test_window_clipping_gives_partial_credit():
    # Second request keeps only tokens generated before the window end.
    full = timeline(0.5, [0.1, 0.2, 0.3], rid="full")
    spill = timeline(4.0, [0.5, 1.5, 2.5, 3.5], rid="spill")
    window = EvalWindow(0.0, 6.0, (full, spill.clipped(6.0)))
    policy = EndToEnd(100.0)
    clipped = window.requests[1]
    assert clipped.num_tokens == 2 and not clipped.complete
    # Clipped requests are excluded from goodput but count in smooth goodput.
    report = build_report(window, policy,
                          BenefitParams(5.0, LinearSeconds(1.0)))
    assert report.goodput_tokens_per_s == pytest.approx(3 / 6.0)
    assert report.smooth_goodput_per_s == pytest.approx((3 + 2) / 6.0)
    assert report.slo_attainment == 0.5


def test_percentile_nearest_rank():
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([1, 2, 3, 4], 1.0) == 4
    assert percentile([3, 1, 2], 0.0) == 1
    assert percentile(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0
    # The report's labels and the TBT CDF's grid share this rank; on 1000
    # values, every grid point's q * n is a whole number.
    qs = [0.1, 0.5, 0.9, 0.99, *(q for _, q in PERCENTILE_LABELS),
          *(k / TBT_CDF_GRID for k in range(TBT_CDF_GRID + 1))]
    rng = np.random.default_rng(2)
    for size in (137, 1000):
        values = list(rng.uniform(0, 1, size=size))
        for q in qs:
            assert percentile(values, q) == oracles.nearest_rank(values, q)
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(np.empty(0), 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ---------------------------------------------------------------------------
# Reports.


def test_report_consistent_with_per_request_records(fixture_records):
    window = window_from_traces(fixture_records, 0.0, 2.0)
    policy = ReadingSpeed(0.05, 0.05)
    params = BenefitParams(5.0, TokensEquivalent(0.05))
    report = build_report(window, policy, params)

    assert len(report.per_request) == 3
    total_tokens = sum(r.n_tokens for r in report.per_request)
    assert report.throughput_tokens_per_s == pytest.approx(
        total_tokens / window.length, rel=1e-12)
    assert report.goodput_tokens_per_s == pytest.approx(
        sum(r.n_tokens for r in report.per_request if r.met_slo)
        / window.length, rel=1e-12)
    assert report.smooth_goodput_per_s == pytest.approx(
        sum(r.benefit for r in report.per_request) / window.length, rel=1e-12)
    assert report.slo_attainment == pytest.approx(
        sum(1 for r in report.per_request if r.met_slo)
        / len(report.per_request), rel=1e-12)
    assert report.mean_ttft == pytest.approx(
        np.mean([r.ttft for r in report.per_request]), rel=1e-12)

    gaps = []
    for rec in fixture_records:
        gaps.extend(oracles.tbt(list(rec.token_times)))
    assert report.tbt_percentiles["p99"] == pytest.approx(
        oracles.nearest_rank(gaps, 0.99), rel=1e-12)

    # SLO-meeting requests have zero idle latency by clamping, so they
    # contribute exactly their token count to the smooth-goodput numerator.
    for r in report.per_request:
        if r.met_slo:
            assert r.idle_latency == 0.0 and r.benefit == r.n_tokens


def test_report_derives_one_deadline_series_per_request(fixture_records,
                                                       monkeypatch):
    # One series covers a window of fewer than _BLOCK_TOKENS tokens: one
    # call, one segment per request with tokens, and none for the request
    # that has no token.
    called = []

    def counted(policy, rel, starts):
        called.append((len(rel), list(starts)))
        return deadlines_for(policy, rel, starts)

    monkeypatch.setattr(servesim.metrics, "deadlines_for", counted)
    late = timeline(1.9, [0.5], rid="spill").clipped(2.0)
    window = window_from_traces(fixture_records, 0.0, 2.0)
    window = EvalWindow(0.0, 2.0, window.requests[:1] + (late,)
                        + window.requests[1:])
    assert late.num_tokens == 0
    build_report(window, TtftTbt(0.5, 0.1), BenefitParams())
    counts = [tl.num_tokens for tl in window.requests if tl.num_tokens]
    assert called == [(sum(counts), [0, counts[0], counts[0] + counts[1]])]


@pytest.mark.parametrize("policy", [ReadingSpeed(0.05), EndToEnd(5.0),
                                    TtftTbt(1.0, 0.1)])
def test_report_holds_one_token_length_array(policy):
    # 120 requests of up to 10,000 tokens, some of none or one: beside the
    # window's own times, scoring holds one array as long as them, the
    # gaps, and per request its record.
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 10_000, 120)
    counts[::7], counts[1::7] = 0, 1
    arrivals = np.sort(rng.uniform(0.0, 10.0, len(counts)))
    times = np.repeat(arrivals, counts) + np.concatenate(
        [0.01 + 0.02 * np.arange(k) for k in counts])
    window = EvalWindow._of(0.0, 10.5, _Columns(
        [f"r{i}" for i in range(len(counts))], arrivals, counts > 0, counts,
        times))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_report(window, policy, BenefitParams())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= times.nbytes + 1024 * len(counts)


def test_deadline_series_is_a_read_only_array():
    values = deadlines_for(TtftTbt(1.0, 0.2), [0.1, 0.4, 0.45])
    assert values.dtype == float and not values.flags.writeable


def test_report_single_request_window():
    window = EvalWindow(0.0, 1.0, (timeline(0.0, [0.1], rid="solo"),))
    report = build_report(window, EndToEnd(5.0),
                          BenefitParams(5.0, LinearSeconds(1.0)))
    rec = report.per_request[0]
    assert rec.n_tokens == 1 and rec.tpot is None and rec.max_tbt is None
    assert rec.met_slo


def test_report_empty_window_errors():
    with pytest.raises(ValueError):
        build_report(EvalWindow(0.0, 1.0, ()), EndToEnd(5.0),
                     BenefitParams())


def test_report_csv_and_json(tmp_path, fixture_records):
    from servesim.metrics import write_report_csv, write_report_json
    window = window_from_traces(fixture_records, 0.0, 2.0)
    report = build_report(window, ReadingSpeed(0.05, 0.05),
                          BenefitParams(5.0, TokensEquivalent(0.05)))
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(csv_path, report)
    write_report_json(json_path, report)
    lines = csv_path.read_text().strip().splitlines()
    body = [l for l in lines[1:] if not l.startswith("#agg")]
    aggs = [l for l in lines[1:] if l.startswith("#agg")]
    assert len(body) == 3
    assert any("smooth_goodput_per_s" in l for l in aggs)
    import json as _json
    doc = _json.loads(json_path.read_text())
    assert doc["aggregates"]["slo_attainment"] == report.slo_attainment
