import numpy as np
import pytest

import oracles
from servesim.config import from_config
from servesim.deadlines import (
    DeadlinePolicy,
    EndToEnd,
    ReadingSpeed,
    TtftTbt,
    deadlines_for,
)
from servesim.metrics import RequestMetrics, score
from servesim.traces import TokenTimeline


def timeline(arrival, rel_times, rid="t"):
    return TokenTimeline(rid, arrival, tuple(arrival + t for t in rel_times))


def series_for(policy, tl):
    """The one-request deadline series of ``tl``."""
    return deadlines_for(policy, np.subtract(tl.token_times, tl.arrival))


def test_reading_speed_ramp():
    series = deadlines_for(ReadingSpeed(0.05, 0.05), [0.01, 0.02, 0.03])
    assert series.tolist() == pytest.approx([0.05, 0.10, 0.15], abs=1e-12)


def test_reading_speed_defaults_allowance_to_budget():
    policy = ReadingSpeed(0.05)
    assert policy.first_token_allowance == 0.05


def test_end_to_end_constant():
    series = deadlines_for(EndToEnd(10.0), [1.0, 2.0, 3.0, 4.0])
    assert series.tolist() == [10.0, 10.0, 10.0, 10.0]


def test_ttft_tbt_chains_off_previous_token():
    series = deadlines_for(TtftTbt(1.0, 0.2), [0.5, 0.9, 2.0])
    assert series.tolist() == pytest.approx([1.0, 0.7, 1.1], abs=1e-12)


def test_empty_timeline_errors():
    empty = TokenTimeline("e", 0.0, (), complete=False)
    with pytest.raises(ValueError, match="no output tokens"):
        deadlines_for(EndToEnd(1.0), [])
    # A request with no tokens scores as the no-token record.
    assert score(empty, EndToEnd(1.0)) == RequestMetrics("e", 0.0, 0, False)


def test_a_window_series_is_its_requests_series_end_to_end():
    rng = np.random.default_rng(5)
    parts = [np.cumsum(rng.uniform(0.0, 0.3, size=k)) for k in (3, 1, 6, 2)]
    starts = np.cumsum([0] + [len(p) for p in parts[:-1]])
    for policy in (ReadingSpeed(0.07, 0.2), EndToEnd(6.0), TtftTbt(0.8, 0.1)):
        whole = deadlines_for(policy, np.concatenate(parts), starts)
        alone = np.concatenate([deadlines_for(policy, p) for p in parts])
        assert whole.tobytes() == alone.tobytes()
        # Every request needs a token, and every token a request.
        for bad in ([0, 3, 3, 4, 10], [1, 4, 10], [0, 3, 12], []):
            with pytest.raises(ValueError, match="no output tokens"):
                deadlines_for(policy, np.concatenate(parts), bad)


def test_meets_slo_examples():
    policy = ReadingSpeed(0.05, 0.05)
    assert score(timeline(0.0, [0.04, 0.09]), policy).met_slo
    assert not score(timeline(0.0, [0.06, 0.09]), policy).met_slo
    assert score(timeline(0.0, [0.5]), EndToEnd(10.0)).met_slo


def test_incomplete_timeline_never_meets_slo():
    # Every token is on time, but the request was cut short: goodput and
    # attainment do not count it, and neither does its record.
    cut = TokenTimeline("t", 0.0, (0.04, 0.09), complete=False)
    record = score(cut, ReadingSpeed(0.05, 0.05))
    assert record.idle_latency == 0.0
    assert not record.met_slo


def test_deadlines_match_oracle_on_random_timelines():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        arrival = float(rng.uniform(0, 5))
        rel = np.cumsum(rng.uniform(0.001, 0.4, size=n))
        tl = timeline(arrival, rel.tolist())
        times = list(tl.token_times)
        cases = [
            (ReadingSpeed(0.05, 0.3), "reading_speed", (0.05, 0.3)),
            (EndToEnd(4.0), "e2e", (4.0,)),
            (TtftTbt(0.8, 0.1), "ttft_tbt", (0.8, 0.1)),
        ]
        for policy, kind, params in cases:
            expected = oracles.deadlines(kind, params, arrival, times)
            got = series_for(policy, tl).tolist()
            assert got == pytest.approx(expected, rel=1e-12)
            assert score(tl, policy).met_slo == oracles.meets(
                kind, params, arrival, times)


def test_index_deadlines_ignore_generation_times():
    # ReadingSpeed and EndToEnd depend only on the token index.
    fast = timeline(1.0, [0.01, 0.02, 0.03])
    slow = timeline(1.0, [1.0, 5.0, 9.0])
    for policy in (ReadingSpeed(0.07, 0.2), EndToEnd(6.0)):
        assert (series_for(policy, fast).tolist()
                == series_for(policy, slow).tolist())


def test_meets_slo_equivalent_to_zero_idle_latency():
    rng = np.random.default_rng(7)
    policy = ReadingSpeed(0.05, 0.1)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        rel = np.cumsum(rng.uniform(0.001, 0.12, size=n))
        tl = timeline(0.0, rel.tolist())
        record = score(tl, policy)
        assert record.met_slo == (record.peak_lateness <= 0)
        assert record.met_slo == (record.idle_latency == 0.0)


def test_shifting_later_never_fixes_a_miss():
    rng = np.random.default_rng(3)
    for policy in (ReadingSpeed(0.04, 0.04), EndToEnd(0.5)):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            rel = np.cumsum(rng.uniform(0.001, 0.2, size=n))
            tl = timeline(0.0, rel.tolist())
            if score(tl, policy).met_slo:
                continue
            delta = float(rng.uniform(0.01, 2.0))
            shifted = timeline(0.0, (rel + delta).tolist())
            assert not score(shifted, policy).met_slo


def test_policy_config_accepts_tokens_per_second():
    policy = from_config(
        {"type": "reading_speed", "tokens_per_second": 20,
         "first_token_allowance_s": 0.05}, DeadlinePolicy)
    assert policy == ReadingSpeed(0.05, 0.05)


def test_budgets_must_be_positive():
    with pytest.raises(ValueError):
        ReadingSpeed(0.0)
    with pytest.raises(ValueError):
        TtftTbt(1.0, -0.1)
    with pytest.raises(ValueError):
        EndToEnd(0.0)
