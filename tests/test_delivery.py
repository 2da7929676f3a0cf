import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servesim.deadlines import ReadingSpeed, TtftTbt
from servesim.delivery import (
    DelayConfig,
    apply_output_delay,
    delay_trace,
)
from servesim.metrics import score
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


@st.composite
def timelines(draw):
    """Token timelines with ties, zero gaps and empty, incomplete ones."""
    arrival = draw(st.floats(0.0, 100.0))
    times, t = [], arrival
    gaps = st.sampled_from([0.0, 0.05]) | st.floats(0.0, 10.0)
    for gap in draw(st.lists(gaps, max_size=12)):
        t += gap
        times.append(t)
    complete = bool(times) and draw(st.booleans())
    return TokenTimeline("t", arrival, tuple(times), complete)


@settings(max_examples=300, deadline=None)
@given(timelines(), st.sampled_from([0.05, 0.2]) | st.floats(1e-3, 10.0),
       st.booleans())
def test_output_delay_properties(tl, hold, first_token_delayed):
    config = DelayConfig(hold, first_token_delayed)
    out = apply_output_delay(tl, config)
    gen, rel = tl.token_times, out.token_times
    assert len(rel) == len(gen)
    # Never released before generation, and in generation order.
    assert all(r >= t for r, t in zip(rel, gen))
    assert all(b >= a for a, b in zip(rel, rel[1:]))
    if gen and not first_token_delayed:
        policy = TtftTbt(1.0, 0.1)
        assert score(out, policy).ttft == score(tl, policy).ttft
    # After one pass r_i >= r_{i-1} + hold holds, so a second changes nothing.
    assert apply_output_delay(out, config) == out


def test_ttft_unchanged_without_first_token_delay():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tl = random_timeline(rng)
        out = apply_output_delay(tl, DelayConfig(0.2))
        policy = TtftTbt(1.0, 0.1)
        assert score(out, policy).ttft == score(tl, policy).ttft


def test_delivered_tbt_above_hold_implies_generation_stall():
    rng = np.random.default_rng(6)
    for _ in range(100):
        tl = random_timeline(rng)
        hold = 0.25
        out = apply_output_delay(tl, DelayConfig(hold))
        gen_gaps = np.diff(tl.token_times)
        for i, gap in enumerate(np.diff(out.token_times)):
            if gap > hold + 1e-12:
                assert gen_gaps[i] > hold


def test_delay_never_reduces_idle_latency():
    rng = np.random.default_rng(8)
    policy = ReadingSpeed(0.05, 0.2)
    for _ in range(100):
        tl = random_timeline(rng)
        out = apply_output_delay(tl, DelayConfig(0.1))
        assert score(out, policy).idle_latency >= \
            score(tl, policy).idle_latency - 1e-12


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
        before = score(tl, policy).met_slo
        after = score(out, policy).met_slo
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
    assert out == RequestTrace("a", 0.0, (0.1, 0.12, 0.9), 10, True,
                               (0.1, 0.1 + 0.2, 0.9))


@pytest.mark.parametrize("first_token_delayed", [False, True])
def test_a_cadence_that_overflows_is_refused(first_token_delayed):
    # delay_trace builds its records unchecked; paced times only grow, so an
    # overflow shows in the last release, which it checks.
    rec = RequestTrace("a", 1.6e308, (1.7e308, 1.75e308), 4, True)
    with pytest.raises(ValueError, match="^a: times must be finite"):
        delay_trace([rec], DelayConfig(1e308, first_token_delayed))


def test_config_validation():
    # NaN must fail too: max(t, prev + nan) is t, so it would pace nothing.
    for hold in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="hold budget must be positive "
                                             "and finite"):
            DelayConfig(hold, True)


def test_hold_is_held_as_a_float():
    # A float subclass converts as the records' values do, so the paced
    # delivery times are floats; a bool or a string is refused.
    config = DelayConfig(np.float64(0.1))
    assert type(config.hold_s) is float and DelayConfig(1).hold_s == 1.0
    rec = RequestTrace("a", 0.0, (0.1, 0.12, 0.9), 10, True)
    out = delay_trace([rec], config)[0]
    assert {type(t) for t in out.delivery_times} == {float}
    assert out == delay_trace([rec], DelayConfig(0.1))[0]
    for hold in (True, "0.1"):
        with pytest.raises(ValueError, match="^hold_s: expected real numbers"):
            DelayConfig(hold)
