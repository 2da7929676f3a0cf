import numpy as np
import pytest

from servesim.deadlines import ReadingSpeed, TtftTbt
from servesim.delivery import (
    DelayConfig,
    apply_output_delay,
    delay_trace,
)
from servesim.metrics import meets_slo, tbt_series, ttft, user_idle_latency
from servesim.traces import RequestTrace, TokenTimeline


def timeline(times, arrival=0.0, rid="t"):
    return TokenTimeline(rid, arrival, tuple(times))


def random_timeline(rng, rid="t"):
    n = int(rng.integers(1, 60))
    gaps = rng.uniform(0.005, 0.5, size=n)
    arrival = float(rng.uniform(0, 3))
    return timeline(list(arrival + np.cumsum(gaps)), arrival, rid)


def test_hand_evaluated_example():
    tl = timeline([0.1, 0.12, 0.14, 1.0])
    out = apply_output_delay(tl, DelayConfig(0.2))
    assert out.token_times == pytest.approx((0.1, 0.3, 0.5, 1.0), abs=1e-12)


def test_identity_when_gaps_exceed_hold():
    tl = timeline([0.1, 0.4, 0.8, 1.3])
    out = apply_output_delay(tl, DelayConfig(0.2))
    assert out.token_times == tl.token_times


def test_single_token_passthrough():
    tl = timeline([0.7])
    out = apply_output_delay(tl, DelayConfig(0.5))
    assert out.token_times == (0.7,)


def test_first_token_delayed_paces_from_arrival():
    tl = timeline([0.1, 0.15], arrival=0.0)
    out = apply_output_delay(tl, DelayConfig(0.3, first_token_delayed=True))
    assert out.token_times == pytest.approx((0.3, 0.6), abs=1e-12)


def test_postconditions_on_random_timelines():
    rng = np.random.default_rng(77)
    for _ in range(200):
        tl = random_timeline(rng)
        hold = float(rng.uniform(0.01, 0.4))
        out = apply_output_delay(tl, DelayConfig(hold))
        orig = tl.token_times
        rel = out.token_times
        # Never deliver before generation; never reorder.
        assert all(r >= t for r, t in zip(rel, orig))
        assert all(b >= a for a, b in zip(rel, rel[1:]))
        # Held tokens sit exactly on the cadence; late tokens pass through.
        for i in range(1, len(orig)):
            if orig[i] <= rel[i - 1] + hold:
                assert rel[i] == pytest.approx(rel[i - 1] + hold, abs=1e-12)
            else:
                assert rel[i] == orig[i]


def test_ttft_unchanged_without_first_token_delay():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tl = random_timeline(rng)
        out = apply_output_delay(tl, DelayConfig(0.2))
        assert ttft(out) == ttft(tl)


def test_delivered_tbt_above_hold_implies_generation_stall():
    rng = np.random.default_rng(6)
    for _ in range(100):
        tl = random_timeline(rng)
        hold = 0.25
        out = apply_output_delay(tl, DelayConfig(hold))
        gen_gaps = tbt_series(tl)
        for i, gap in enumerate(tbt_series(out)):
            if gap > hold + 1e-12:
                assert gen_gaps[i] > hold


def test_delay_never_reduces_idle_latency():
    rng = np.random.default_rng(8)
    policy = ReadingSpeed(0.05, 0.2)
    for _ in range(100):
        tl = random_timeline(rng)
        out = apply_output_delay(tl, DelayConfig(0.1))
        assert user_idle_latency(out, policy) >= \
            user_idle_latency(tl, policy) - 1e-12


def test_delay_never_hurts_ttft_tbt_attainment():
    # The trick games chained TBT deadlines whenever hold <= tbt budget:
    # a request meeting the SLO before still meets it after.  hold is kept
    # strictly below the budget; at exact equality a held token sits on its
    # deadline and one ulp of float non-associativity can tip the comparison.
    rng = np.random.default_rng(9)
    policy = TtftTbt(ttft_budget=1.0, tbt_budget=0.3)
    flips = 0
    for _ in range(200):
        tl = random_timeline(rng)
        out = apply_output_delay(tl, DelayConfig(0.25))
        before = meets_slo(tl, policy)
        after = meets_slo(out, policy)
        assert after >= before
        flips += int(after and not before)
    assert flips > 0  # the trick actually flips some requests to "meeting"


def test_trace_record_transform_and_stacking(tmp_path):
    rec = RequestTrace("a", 0.0, (0.1, 0.12, 0.9), 10, True)
    out = delay_trace([rec], DelayConfig(0.2))[0]
    assert out.token_times == rec.token_times  # generation preserved
    assert out.delivery_times == pytest.approx((0.1, 0.3, 0.9), abs=1e-12)
    # Applying a second, looser cadence operates on the delivered timeline.
    stacked = delay_trace([out], DelayConfig(0.5))[0]
    assert stacked.delivery_times == pytest.approx((0.1, 0.6, 1.1), abs=1e-12)
    assert delay_trace([rec], DelayConfig(0.2))[0] == out


def test_config_validation():
    with pytest.raises(ValueError):
        DelayConfig(0.0)
    with pytest.raises(ValueError):
        DelayConfig(-0.1, True)
