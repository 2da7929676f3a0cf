"""build_report and score against the brute-force oracles on random
windows, and bit for bit against the per-request reference scorer."""

import os
import tempfile
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from servesim import metrics
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.metrics import (
    BenefitParams,
    EvalWindow,
    IndicatorPenalty,
    LinearSeconds,
    RequestMetrics,
    TokensEquivalent,
    build_report,
    score,
    window_from_traces,
)
from servesim.traces import RequestTrace, TokenTimeline, read_trace, write_trace

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


# Arbitrary arrivals, offsets and gaps next to exact ties, so that any
# rounding the window pass does differently from the reference shows.
rough_gaps = st.lists(st.one_of(st.sampled_from([0.0, 0.05]),
                                st.floats(0.0, 1.5)), max_size=12)


@st.composite
def rough_windows(draw):
    requests = []
    for i in range(draw(st.integers(1, 12))):
        arrival = draw(st.one_of(arrivals,
                                 st.floats(START, END, exclude_max=True)))
        times = [arrival + draw(st.floats(0.0, 6.0))]
        for gap in draw(rough_gaps):
            times.append(times[-1] + gap)
        requests.append(
            TokenTimeline(f"r{i:02d}", arrival, tuple(times)).clipped(END))
    return EvalWindow(START, END, tuple(requests))


FIELDS = [f.name for f in fields(RequestMetrics)]


def field_reprs(record):
    """Each field's repr: -0.0 and 0.0, or two NaNs, differ here."""
    return {name: repr(getattr(record, name)) for name in FIELDS}


# Empty (first token past the end), one-token and clipped requests.
_EDGES = EvalWindow(START, END, (
    TokenTimeline("empty", 5.0, (6.5,)).clipped(END),
    TokenTimeline("one", 2.0, (2.3,)),
    TokenTimeline("clipped", 4.0, (4.5, 5.5, 6.5)).clipped(END)))


@settings(max_examples=300, deadline=None)
@given(rough_windows(), st.tuples(budgets, budgets), st.floats(0.0, 10.0),
       penalties)
@example(_EDGES, (0.1, 0.2), 5.0, (LinearSeconds(1.0), None))
@example(_EDGES, (0.1, 0.2), 5.0, (TokensEquivalent(0.05), None))
@example(_EDGES, (0.1, 0.2), 5.0, (IndicatorPenalty(0.1, 2.0), None))
def test_a_request_scores_the_same_alone_and_in_a_window(
        window, budget_pair, alpha, penalty_case):
    """Under every policy, each record and the TBT percentiles equal the
    per-request reference scorer bit for bit, and ``score`` gives a request
    the record its window gives it."""
    params = BenefitParams(alpha, penalty_case[0])
    for policy in (ReadingSpeed(*budget_pair), EndToEnd(budget_pair[0] * 5),
                   TtftTbt(*budget_pair)):
        report = build_report(window, policy, params)
        expected, gaps = zip(*[oracles.score_timeline(tl, policy, params)
                               for tl in window.requests])
        for tl, got, want in zip(window.requests, report.per_request,
                                 expected):
            assert field_reprs(got) == {k: repr(v) for k, v in want.items()}
            # Built without the constructor, the record still equals its
            # constructor-built twin.
            assert got == RequestMetrics(**want)
            assert field_reprs(score(tl, policy, params)) == field_reprs(got)
        assert (repr(report.tbt_percentiles)
                == repr(oracles.tbt_percentiles(gaps)))


@st.composite
def mixed_windows(draw):
    """Requests of no, one and several tokens side by side, in any order:
    the gaps that span two timelines are masked, and lateness blocks end,
    at each of their boundaries."""
    requests = []
    for i in range(draw(st.integers(1, 16))):
        arrival = draw(st.one_of(arrivals,
                                 st.floats(START, END, exclude_max=True)))
        size = draw(st.sampled_from(["none", "one", "several"]))
        if size == "none":
            requests.append(TokenTimeline(f"r{i:02d}", arrival, (), False))
            continue
        times = [arrival + draw(st.floats(0.0, 1.0))]
        if size == "several":
            for gap in draw(st.lists(st.one_of(st.just(0.0),
                                               st.floats(0.0, 0.5)),
                                     min_size=1, max_size=8)):
                times.append(times[-1] + gap)
        requests.append(TokenTimeline(f"r{i:02d}", arrival, tuple(times),
                                      draw(st.booleans())))
    return EvalWindow(START, END, tuple(requests))


_MIXED = EvalWindow(START, END, (
    TokenTimeline("several", 1.0, (1.5, 1.5, 2.0)),
    TokenTimeline("none", 1.0, (), False),
    TokenTimeline("one", 1.25, (1.25,)),
    TokenTimeline("one again", 2.0, (2.1,), False),
    TokenTimeline("several again", 2.0, (2.5, 3.0)),
    TokenTimeline("none again", 3.0, (), False)))


@settings(max_examples=300, deadline=None)
@given(mixed_windows(), st.sampled_from([1, 2, 3, 5, metrics._BLOCK_TOKENS]),
       st.tuples(budgets, budgets))
@example(_MIXED, 1, (0.1, 0.2))
@example(_MIXED, 2, (0.1, 0.2))
def test_mixed_token_counts_score_as_each_request_alone(window, block,
                                                         budget_pair):
    """Bit for bit the per-request reference, with lateness blocks of
    ``block`` tokens: a block holds whole timelines, so it may end at any
    request."""
    params = BenefitParams(5.0, LinearSeconds(1.0))
    with mock.patch.object(metrics, "_BLOCK_TOKENS", block):
        for policy in (ReadingSpeed(*budget_pair),
                       EndToEnd(budget_pair[0] * 5), TtftTbt(*budget_pair)):
            report = build_report(window, policy, params)
            expected, gaps = zip(*[oracles.score_timeline(tl, policy, params)
                                   for tl in window.requests])
            for got, want in zip(report.per_request, expected):
                assert field_reprs(got) == {k: repr(v)
                                            for k, v in want.items()}
            assert (repr(report.tbt_percentiles)
                    == repr(oracles.tbt_percentiles(gaps)))


@st.composite
def trace_records(draw):
    """Records arriving before, in and after [START, END), some with
    delivery times, some incomplete or without tokens."""
    records = []
    for i in range(draw(st.integers(0, 8))):
        arrival = draw(st.integers(0, 28).map(lambda k: k * 0.25))
        times = []
        if draw(st.booleans()):
            times.append(arrival + draw(st.sampled_from([0.0, 0.1, 1.0])))
            for gap in draw(gaps):
                times.append(times[-1] + gap)
        delivery = draw(st.sampled_from([None, 0.0, 0.5]))
        records.append(RequestTrace(
            f"r{i}", arrival, tuple(times), 4,
            bool(times) and draw(st.booleans()),
            None if delivery is None else tuple(t + delivery for t in times)))
    return records


@settings(max_examples=300, deadline=None)
@given(trace_records(), st.booleans())
def test_a_window_holds_each_picked_timeline_clipped(records, use_delivery):
    """From a list of records or from the columns of their file, the window
    holds each timeline arriving in it, clipped at its end."""
    expected = tuple(
        (rec.delivery_timeline() if use_delivery
         else rec.generation_timeline()).clipped(END)
        for rec in records if START <= rec.arrival < END)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(path, records)
        for source in (records, read_trace(path)):
            window = window_from_traces(source, START, END, use_delivery)
            assert window.requests == expected
