"""build_report against the brute-force oracles on random windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.metrics import (
    BenefitParams,
    EvalWindow,
    IndicatorPenalty,
    LinearSeconds,
    TokensEquivalent,
    build_report,
    goodput,
    slo_attainment,
    smooth_goodput,
)
from servesim.traces import TokenTimeline

START, END = 1.0, 6.0

budgets = st.floats(0.01, 1.0)

# (package policy, oracle kind, oracle params)
policies = st.one_of(
    st.tuples(budgets, budgets).map(
        lambda p: (ReadingSpeed(*p), "reading_speed", p)),
    budgets.map(lambda b: (EndToEnd(b * 5), "e2e", (b * 5,))),
    st.tuples(budgets, budgets).map(
        lambda p: (TtftTbt(*p), "ttft_tbt", p)),
)

# (package penalty, the same penalty written out for the oracle)
penalties = st.one_of(
    st.floats(0.0, 3.0).map(
        lambda s: (LinearSeconds(s), lambda idle: s * max(0.0, idle))),
    budgets.map(
        lambda b: (TokensEquivalent(b), lambda idle: max(0.0, idle) / b)),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 5.0)).map(
        lambda p: (IndicatorPenalty(*p),
                   lambda idle: p[1] if idle > p[0] else 0.0)),
)

# Arrivals from a coarse grid so that ties are common; gaps include 0.
arrivals = st.integers(0, 19).map(lambda k: START + k * (END - START) / 20)
gaps = st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.7, 1.3]),
                min_size=0, max_size=12)


@st.composite
def timelines(draw, index):
    """A request's timeline clipped at the window end: complete, clipped,
    single-token, or empty (nothing generated before the end)."""
    arrival = draw(arrivals)
    first = draw(st.sampled_from([0.0, 0.02, 0.3, 1.5, 6.0]))
    times = [arrival + first]
    for gap in draw(gaps):
        times.append(times[-1] + gap)
    full = TokenTimeline(f"r{index:02d}", arrival, tuple(times))
    return full.clipped(END)


@st.composite
def windows(draw):
    n = draw(st.integers(1, 12))
    return EvalWindow(START, END, tuple(draw(timelines(i)) for i in range(n)))


close = lambda value: pytest.approx(value, rel=1e-12)  # noqa: E731


@settings(max_examples=300, deadline=None)
@given(windows(), policies, st.floats(0.0, 10.0), penalties)
def test_build_report_matches_oracles(window, policy_case, alpha, penalty_case):
    policy, kind, params = policy_case
    penalty, oracle_penalty = penalty_case
    benefit_params = BenefitParams(alpha, penalty)
    report = build_report(window, policy, benefit_params)

    assert len(report.per_request) == len(window.requests)
    for tl, r in zip(window.requests, report.per_request):
        times = list(tl.token_times)
        assert (r.request_id, r.arrival) == (tl.request_id, tl.arrival)
        assert r.n_tokens == len(times)
        assert r.complete is tl.complete
        if not times:
            assert r.met_slo is False
            assert (r.ttft, r.tpot, r.e2e, r.max_tbt, r.peak_lateness) == \
                (None,) * 5
            assert r.idle_latency == 0.0 and r.benefit == 0.0
            continue
        assert r.met_slo == (tl.complete and oracles.meets(
            kind, params, tl.arrival, times))
        assert r.ttft == close(oracles.ttft(tl.arrival, times))
        assert r.e2e == close(oracles.e2e(tl.arrival, times))
        if len(times) >= 2:
            assert r.tpot == close(oracles.tpot(times))
            assert r.max_tbt == close(max(oracles.tbt(times)))
        else:
            assert r.tpot is None and r.max_tbt is None
        assert r.peak_lateness == close(
            oracles.peak_lateness(kind, params, tl.arrival, times))
        assert r.idle_latency == close(
            oracles.idle_latency(kind, params, tl.arrival, times))
        assert r.benefit == close(oracles.benefit(
            kind, params, tl.arrival, times, alpha, oracle_penalty))

    reqs = [(tl.arrival, list(tl.token_times), tl.complete)
            for tl in window.requests]
    length = window.length
    assert report.throughput_tokens_per_s == close(
        sum(len(times) for _, times, _ in reqs) / length)
    assert report.goodput_tokens_per_s == close(
        oracles.goodput(reqs, kind, params, length))
    assert report.goodput_requests_per_s == close(
        oracles.goodput(reqs, kind, params, length, per_request=True))
    assert report.smooth_goodput_per_s == close(oracles.smooth_goodput(
        reqs, kind, params, length, alpha, oracle_penalty))
    assert report.slo_attainment == close(
        oracles.attainment(reqs, kind, params))

    ttfts = [oracles.ttft(a, times) for a, times, _ in reqs if times]
    tbts = [g for _, times, _ in reqs for g in oracles.tbt(times)]
    for pool, got in ((ttfts, report.ttft_percentiles),
                      (tbts, report.tbt_percentiles)):
        if not pool:
            assert got == {}
            continue
        for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            assert got[label] == close(oracles.nearest_rank(pool, q))
    if ttfts:
        assert report.mean_ttft == close(sum(ttfts) / len(ttfts))
    idles = [oracles.idle_latency(kind, params, a, times) if times else 0.0
             for a, times, _ in reqs]
    assert report.mean_idle_latency == close(sum(idles) / len(idles))

    # The public aggregates are the report's, bit for bit.
    assert goodput(window, policy) == report.goodput_tokens_per_s
    assert goodput(window, policy, per_request=True) == \
        report.goodput_requests_per_s
    assert smooth_goodput(window, policy, benefit_params) == \
        report.smooth_goodput_per_s
    assert slo_attainment(window, policy) == report.slo_attainment
