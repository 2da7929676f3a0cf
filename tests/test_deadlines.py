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
from servesim.metrics import meets_slo, peak_lateness, user_idle_latency
from servesim.traces import TokenTimeline


def timeline(arrival, rel_times, rid="t"):
    return TokenTimeline(rid, arrival, tuple(arrival + t for t in rel_times))


def test_reading_speed_ramp():
    tl = timeline(0.0, [0.01, 0.02, 0.03])
    series = deadlines_for(ReadingSpeed(0.05, 0.05), tl)
    assert series.tolist() == pytest.approx([0.05, 0.10, 0.15], abs=1e-12)


def test_reading_speed_defaults_allowance_to_budget():
    policy = ReadingSpeed(0.05)
    assert policy.first_token_allowance == 0.05


def test_end_to_end_constant():
    tl = timeline(3.0, [1.0, 2.0, 3.0, 4.0])
    series = deadlines_for(EndToEnd(10.0), tl)
    assert series.tolist() == [10.0, 10.0, 10.0, 10.0]


def test_ttft_tbt_chains_off_previous_token():
    tl = timeline(0.0, [0.5, 0.9, 2.0])
    series = deadlines_for(TtftTbt(1.0, 0.2), tl)
    assert series.tolist() == pytest.approx([1.0, 0.7, 1.1], abs=1e-12)


def test_empty_timeline_errors():
    empty = TokenTimeline("e", 0.0, (), complete=False)
    with pytest.raises(ValueError, match="no output tokens"):
        deadlines_for(EndToEnd(1.0), empty)
    with pytest.raises(ValueError):
        meets_slo(empty, EndToEnd(1.0))


def test_meets_slo_examples():
    policy = ReadingSpeed(0.05, 0.05)
    assert meets_slo(timeline(0.0, [0.04, 0.09]), policy)
    assert not meets_slo(timeline(0.0, [0.06, 0.09]), policy)
    assert meets_slo(timeline(0.0, [0.5]), EndToEnd(10.0))


def test_incomplete_timeline_never_meets_slo():
    # Every token is on time, but the request was cut short: goodput and
    # attainment do not count it, and neither does meets_slo.
    cut = TokenTimeline("t", 0.0, (0.04, 0.09), complete=False)
    policy = ReadingSpeed(0.05, 0.05)
    assert user_idle_latency(cut, policy) == 0.0
    assert not meets_slo(cut, policy)


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
            got = deadlines_for(policy, tl).tolist()
            assert got == pytest.approx(expected, rel=1e-12)
            assert meets_slo(tl, policy) == oracles.meets(kind, params,
                                                          arrival, times)


def test_index_deadlines_ignore_generation_times():
    # ReadingSpeed and EndToEnd depend only on the token index.
    fast = timeline(1.0, [0.01, 0.02, 0.03])
    slow = timeline(1.0, [1.0, 5.0, 9.0])
    for policy in (ReadingSpeed(0.07, 0.2), EndToEnd(6.0)):
        assert (deadlines_for(policy, fast).tolist()
                == deadlines_for(policy, slow).tolist())


def test_meets_slo_equivalent_to_zero_idle_latency():
    rng = np.random.default_rng(7)
    policy = ReadingSpeed(0.05, 0.1)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        rel = np.cumsum(rng.uniform(0.001, 0.12, size=n))
        tl = timeline(0.0, rel.tolist())
        met = meets_slo(tl, policy)
        assert met == (peak_lateness(tl, policy) <= 0)
        assert met == (user_idle_latency(tl, policy) == 0.0)


def test_shifting_later_never_fixes_a_miss():
    rng = np.random.default_rng(3)
    for policy in (ReadingSpeed(0.04, 0.04), EndToEnd(0.5)):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            rel = np.cumsum(rng.uniform(0.001, 0.2, size=n))
            tl = timeline(0.0, rel.tolist())
            if meets_slo(tl, policy):
                continue
            delta = float(rng.uniform(0.01, 2.0))
            shifted = timeline(0.0, (rel + delta).tolist())
            assert not meets_slo(shifted, policy)


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
