import math

import numpy as np
import pytest

import oracles
from servesim.engine import EngineConfig, iteration_time, run
from servesim.schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    Phase,
    PrefillItem,
    RequestState,
    SchedulerViolation,
    VllmLike,
    next_batch,
)
from servesim.traces import read_trace, write_iterations_csv, write_trace
from servesim.workload import RequestSpec, Synthetic, UniformInt, WorkloadConfig, generate
from test_engine_properties import assert_same_run

ENG = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                   decode_per_seq_s=0.02, max_batch_tokens=2048,
                   max_running_seqs=64, kv_capacity_tokens=100_000)

TWO_REQ = [RequestSpec("a", 0.0, 100, 50), RequestSpec("b", 0.34, 300, 5)]


def iterations(trace):
    """The trace's iteration records, one per iteration, by the oracle."""
    return oracles.iteration_records(trace.iterations.runs)


def random_workload(seed, count=40, rate=4.0, prompt=(20, 400), output=(1, 60)):
    return generate(WorkloadConfig(rate, count, seed, Synthetic(
        UniformInt(*prompt), UniformInt(*output))))


def test_iteration_time_examples():
    assert iteration_time(0, 0, ENG) == pytest.approx(0.01)
    assert iteration_time(100, 0, ENG) == pytest.approx(0.01 + 100 * 0.001)
    assert iteration_time(37, 5, ENG) == pytest.approx(
        0.01 + 37 * 0.001 + 5 * 0.02)
    with pytest.raises(ValueError):
        iteration_time(-1, 0, ENG)


def test_single_request_hand_oracle():
    # prompt 10 at cost 0.001/token over base 0.01: prefill ends at 0.02 and
    # emits the first token; each following decode iteration adds 0.03.
    trace = run([RequestSpec("r0", 0.0, 10, 3)], ENG, VllmLike())
    assert trace.requests[0].token_times == pytest.approx(
        (0.02, 0.05, 0.08), abs=1e-12)
    durations = [it.duration for it in iterations(trace)]
    assert durations == pytest.approx([0.02, 0.03, 0.03], abs=1e-12)


def test_epsilon_cost_iteration_count():
    # With only the epsilon base cost, a lone request takes exactly
    # output_len iterations: the prefill emits token 1, then one decode
    # iteration per remaining token.
    eng = EngineConfig(base_s=1e-6, prefill_per_token_s=0.0,
                       decode_per_seq_s=0.0, max_batch_tokens=2048,
                       max_running_seqs=64, kv_capacity_tokens=100_000)
    trace = run([RequestSpec("r0", 0.0, 10, 7)], eng, VllmLike())
    assert len(trace.iterations) == 7
    assert len(trace.requests[0].token_times) == 7


def test_two_request_stall_oracle():
    # Hand-traced: a decodes alone every 0.03 s until b arrives; b's prefill
    # (0.01 + 0.3) stalls a; the next joint decode costs 0.01 + 2*0.02.
    trace = run(TWO_REQ, ENG, VllmLike())
    a, b = trace.requests
    gaps = np.diff(a.token_times)
    assert max(gaps) == pytest.approx(0.31 + 0.05, abs=1e-12)
    assert b.token_times[0] == pytest.approx(0.66, abs=1e-12)
    # Everything before the preemption ticks at the solo decode cadence.
    assert gaps[:7] == pytest.approx([0.03] * 7, abs=1e-12)


def test_chunked_reduces_stall_to_chunk_time():
    trace = run(TWO_REQ, ENG, ChunkedPrefill(chunk_tokens=100))
    a = trace.requests[0]
    gaps = np.diff(a.token_times)
    # Hybrid batch: base + 100 prefill tokens + one decode seq.
    assert max(gaps) == pytest.approx(0.01 + 0.1 + 0.02, abs=1e-12)


def test_prepone_releases_inside_prefill_window():
    trace = run(TWO_REQ, ENG, DecodePrepone(n=2))
    a, b = trace.requests
    assert a.delivery_times is not None
    # b admitted at the 0.35 boundary after two prepone decodes at 0.38, 0.41.
    prefill_start = 0.41
    prefill_end = 0.41 + 0.31
    preponed = [(g, r) for g, r in zip(a.token_times, a.delivery_times)
                if r != g]
    assert len(preponed) == 2
    for g, r in preponed:
        assert r > g
        assert prefill_start < r < prefill_end
    # Deferred releases never reorder the request's tokens.
    assert list(a.delivery_times) == sorted(a.delivery_times)
    assert b.token_times[0] == pytest.approx(prefill_end, abs=1e-12)


def test_prepone_shifts_b_by_n_decode_iterations():
    base = run(TWO_REQ, ENG, VllmLike())
    prep = run(TWO_REQ, ENG, DecodePrepone(n=2))
    delta = 2 * (0.01 + 0.02)  # two extra single-seq decode iterations
    for t_base, t_prep in zip(base.requests[1].token_times,
                              prep.requests[1].token_times):
        assert t_prep - t_base == pytest.approx(delta, abs=1e-9)


def test_conservation_and_causality():
    workload = random_workload(31)
    trace = run(workload, ENG, VllmLike())
    assert sum(len(r.token_times) for r in trace.requests) == \
        sum(s.output_len for s in workload)
    by_id = {s.request_id: s for s in workload}
    for rec in trace.requests:
        spec = by_id[rec.request_id]
        assert len(rec.token_times) == spec.output_len
        assert rec.completed
        # First token cannot precede arrival plus the prompt's prefill work.
        assert rec.token_times[0] >= spec.arrival + iteration_time(
            spec.prompt_len, 0, ENG) - 1e-12
        assert all(t2 > t1 for t1, t2 in zip(rec.token_times,
                                             rec.token_times[1:]))


@pytest.mark.parametrize("scheduler", [
    VllmLike(), ChunkedPrefill(chunk_tokens=64), DecodePrepone(n=3)])
def test_determinism(scheduler):
    workload = random_workload(97)
    first = run(workload, ENG, scheduler)
    second = run(workload, ENG, scheduler)
    assert first == second


def test_limits_respected_throughout():
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=512,
                       max_running_seqs=3, kv_capacity_tokens=900)
    workload = random_workload(5, count=30, rate=10.0, prompt=(10, 200),
                               output=(1, 30))
    policy = VllmLike()
    observed = []

    def spy(state):
        observed.append((len(state.running), state.kv_reserved))
        assert state.kv_reserved <= eng.kv_capacity_tokens
        assert len(state.running) <= eng.max_running_seqs
        return next_batch(policy, state)

    trace = run(workload, eng, spy)
    assert trace.requests and max(r for r, _ in observed) == 3
    for it in iterations(trace):
        assert it.prefill_tokens + it.decode_seqs <= eng.max_batch_tokens


def test_violating_scheduler_aborts_with_diagnostic():
    workload = [RequestSpec("a", 0.0, 100, 5)]

    def rogue(state):
        return BatchPlan(prefill_items=(
            PrefillItem("a", 0, 100), PrefillItem("a", 0, 100)))

    with pytest.raises(SchedulerViolation, match="appears twice"):
        run(workload, ENG, rogue)

    def oversized(state):
        return BatchPlan(prefill_items=(PrefillItem("a", 0, 100),),
                         decode_ids=tuple(f"ghost{i}" for i in range(5000)))

    with pytest.raises(SchedulerViolation):
        run(workload, ENG, oversized)


def _prefill_a_and_b(state):
    return BatchPlan(prefill_items=(PrefillItem("a", 0, 60),
                                    PrefillItem("b", 0, 60)))


def _release_before_the_batch_end(state):
    if not state.decoding:
        return next_batch(VllmLike(), state)
    # a and b are prefilled together by 0.13 and decode at 0.05 a batch; a
    # release 0.01 s early would deliver tokens before they exist.
    return BatchPlan(decode_ids=("a", "b"), release_s=state.clock + 0.04)


def _reprefill_once_decoding(state):
    if not state.decoding:
        return next_batch(VllmLike(), state)
    return BatchPlan(prefill_items=(PrefillItem("a", 0, 60),))


def _decode_a_past_its_last_token(state):
    # a decodes alone until its last token, then once more beside b, so the
    # engine's decodable set has just dropped a and still holds b.
    if "a" in state.decode_ids:
        return BatchPlan(decode_ids=("a",))
    if "b" in state.decode_ids:
        return BatchPlan(decode_ids=("b", "a"))
    return next_batch(VllmLike(), state)


def _decode_a_twice(state):
    if not state.decoding:
        return next_batch(VllmLike(), state)
    return BatchPlan(decode_ids=("a", "b", "a"))


def _decode_a_ghost_published_by_the_callable(state):
    # The callable publishes a decode set of its own, with an unknown
    # request, and decodes that tuple: it is not the engine's, so it is
    # checked.
    if not state.decoding:
        return next_batch(VllmLike(), state)
    ghost = RequestState(RequestSpec("ghost", 0.0, 1, 2), Phase.DECODING)
    state.set_decoding([*state.decoding, ghost])
    return BatchPlan(decode_ids=state.decode_ids)


def _decode_a_finished_request_published_by_the_callable():
    # As above with a finished request: a and b finish together, and c
    # decodes after them beside a.
    seen = {}

    def schedule(state):
        seen.update((r.spec.request_id, r) for r in state.running)
        gone = [r for r in seen.values() if r.phase == Phase.FINISHED]
        if not (state.decoding and gone):
            return next_batch(VllmLike(), state)
        state.set_decoding([*state.decoding, gone[0]])
        return BatchPlan(decode_ids=state.decode_ids)
    return schedule


def _hold_the_first_decode_past_the_next(state):
    # a's second token is held until 1.13 s, long after its third is
    # generated and delivered at 0.23 s.
    if not state.decoding:
        return next_batch(VllmLike(), state)
    if state.decoding[0].emitted == 1:
        return BatchPlan(decode_ids=state.decode_ids,
                         release_s=state.clock + 1.0)
    return BatchPlan(decode_ids=state.decode_ids)


def _hold_a_and_b_then_finish_b_first(state):
    # a and b decode twice together, the first decode held past the second,
    # so both reorder their tokens; then b decodes alone to its last token
    # and finishes first.  The run names a, the first in workload order.
    if not state.decoding:
        return next_batch(VllmLike(), state)
    emitted = {r.spec.request_id: r.emitted for r in state.decoding}
    if emitted.get("a") == 1:
        return BatchPlan(decode_ids=state.decode_ids,
                         release_s=state.clock + 1.0)
    if emitted.get("a") == 3 and "b" in emitted:
        return BatchPlan(decode_ids=("b",))
    return BatchPlan(decode_ids=state.decode_ids)


def _hold_forever(state):
    if not state.decoding:
        return next_batch(VllmLike(), state)
    return BatchPlan(decode_ids=state.decode_ids, release_s=math.inf)


@pytest.mark.parametrize("engine, rogue, message", [
    (ENG, lambda s: BatchPlan(prefill_items=(PrefillItem("c", 0, 60),)),
     "c: scheduled before arrival"),
    (ENG, _reprefill_once_decoding, "a: not prefillable"),
    (ENG, lambda s: BatchPlan(prefill_items=(PrefillItem("a", 0, 61),)),
     "a: prefill span 0:61 inconsistent"),
    (ENG, lambda s: BatchPlan(decode_ids=("a",)), "a: not decodable"),
    (EngineConfig(max_batch_tokens=100, max_running_seqs=4),
     _prefill_a_and_b, "batch tokens 120 exceed max_batch_tokens 100"),
    (EngineConfig(max_running_seqs=1), _prefill_a_and_b,
     "exceeds max_running_seqs"),
    (EngineConfig(kv_capacity_tokens=200), _prefill_a_and_b,
     "exceeds kv_capacity_tokens"),
    (ENG, _release_before_the_batch_end,
     "release at 0.17 precedes batch end 0.18"),
    (ENG, _decode_a_past_its_last_token, "a: not decodable"),
    (ENG, _decode_a_twice, "a: appears twice in batch"),
    (ENG, lambda s: BatchPlan(prefill_items=(PrefillItem("a", 0, 60),),
                              decode_ids=("a",)),
     "a: appears twice in batch"),
    (ENG, _decode_a_ghost_published_by_the_callable, "ghost: not decodable"),
    (ENG, _decode_a_finished_request_published_by_the_callable(),
     "a: not decodable"),
    (ENG, _hold_the_first_decode_past_the_next,
     "a: a held release reorders its tokens"),
    (ENG, _hold_a_and_b_then_finish_b_first,
     "^a: a held release reorders its tokens"),
    (ENG, _hold_forever, "release at inf is not finite"),
    (ENG, lambda s: None, "scheduler returned NoneType, not a BatchPlan"),
], ids=["before_arrival", "not_prefillable", "prefill_span", "not_decodable",
        "batch_tokens", "running_seqs", "kv_capacity", "early_release",
        "finished_decode", "duplicate_decode", "prefill_and_decode",
        "published_ghost", "published_finished", "reordering_release",
        "first_reorder_in_workload_order", "infinite_release", "not_a_plan"])
def test_rogue_plan_diagnostics(engine, rogue, message):
    # Each request alone fits every engine above; only the plan breaks a rule.
    workload = [RequestSpec("a", 0.0, 60, 50), RequestSpec("b", 0.0, 60, 50),
                RequestSpec("c", 5.0, 60, 50)]
    with pytest.raises(SchedulerViolation, match=message):
        run(workload, engine, rogue)


def _decode_released_at(release):
    """VllmLike, with each decode-only batch released at ``release(clock)``."""
    def schedule(state):
        plan = next_batch(VllmLike(), state)
        if plan.prefill_items:
            return plan
        return BatchPlan(decode_ids=plan.decode_ids,
                         release_s=release(state.clock))
    return schedule


def test_an_int_release_is_held_as_a_float(tmp_path):
    # Each decode batch of a callable is released at a whole second, an int
    # past its end.
    trace = run(TWO_REQ, ENG, _decode_released_at(
        lambda clock: math.ceil(clock + 1)))
    records = trace.requests
    delivery = [t for rec in records for t in rec.delivery_times]
    assert 2 in delivery and {type(t) for t in delivery} == {float}
    # The log holds each applied release as the records do.
    releases = [it.release_s for it in iterations(trace)
                if it.release_s is not None]
    assert 2 in releases and {type(t) for t in releases} == {float}
    path = tmp_path / "trace.jsonl"
    write_trace(path, records)
    assert read_trace(path) == records


def test_a_bool_release_is_refused():
    with pytest.raises(ValueError, match="^release_s: expected real numbers"):
        run(TWO_REQ, ENG, _decode_released_at(lambda clock: True))


@pytest.mark.parametrize("costs, message", [
    ({"base_s": 0.0}, "base_s must be positive and finite"),
    ({"base_s": math.nan}, "base_s must be positive and finite"),
    ({"base_s": math.inf}, "base_s must be positive and finite"),
    ({"prefill_per_token_s": -1e-3}, "cost coefficients must be"),
    ({"prefill_per_token_s": math.nan}, "cost coefficients must be"),
    ({"decode_per_seq_s": math.nan}, "cost coefficients must be"),
    ({"decode_per_seq_s": math.inf}, "cost coefficients must be"),
])
def test_engine_config_rejects_non_finite_costs(costs, message):
    # NaN fails every check written `not (lo < x < inf)`; `x <= 0` let it in.
    with pytest.raises(ValueError, match=message):
        EngineConfig(**costs)


def test_engine_config_holds_its_costs_as_floats(tmp_path):
    # A float subclass or an int converts as the records' values do, so the
    # clock, the token times and the iteration log hold floats, and the
    # log's CSV is that of the equal float config.
    costs = ("base_s", "prefill_per_token_s", "decode_per_seq_s")
    odd = EngineConfig(base_s=np.float64(0.01), prefill_per_token_s=0)
    assert [type(getattr(odd, name)) for name in costs] == [float] * 3
    trace = run(TWO_REQ, odd, VllmLike())
    plain = run(TWO_REQ, EngineConfig(base_s=0.01, prefill_per_token_s=0.0),
                VllmLike())
    assert trace == plain
    assert {type(t) for rec in trace.requests for t in rec.token_times} == \
        {float}
    write_iterations_csv(tmp_path / "odd.csv", trace.iterations)
    write_iterations_csv(tmp_path / "plain.csv", plain.iterations)
    text = (tmp_path / "odd.csv").read_text()
    assert "np." not in text
    assert text == (tmp_path / "plain.csv").read_text()
    for name in costs:
        for value in (True, "0.01"):
            with pytest.raises(ValueError,
                               match=f"^{name}: expected real numbers"):
                EngineConfig(**{name: value})


def test_the_log_holds_the_engine_state_each_plan_saw():
    # a prefills alone, then decodes alone until b arrives at 0.34; b's
    # prefill stalls a's decode, then both decode.
    trace = run(TWO_REQ, ENG, VllmLike())
    state = [(it.queue_depth, it.running, it.kv_reserved, it.release_s)
             for it in iterations(trace)]
    a, b = 150, 305
    assert state[0] == (1, 0, 0, None)
    first_b = next(k for k, it in enumerate(iterations(trace))
                   if it.prefill_ids == ("b",))
    assert set(state[1:first_b]) == {(0, 1, a, None)}
    assert state[first_b] == (1, 1, a, None)
    assert state[first_b + 1] == (0, 2, a + b, None)
    # Prepone holds its decode tokens until the prefill's projected end.
    held = [it.release_s
            for it in iterations(run(TWO_REQ, ENG, DecodePrepone(n=2)))
            if it.release_s is not None]
    assert held and all(type(t) is float for t in held)


@pytest.mark.parametrize("prompt_len", [4, 100], ids=["prefill", "decode_run"])
def test_a_clock_an_iteration_cannot_advance_is_named(prompt_len):
    # Past about 7e13 s a default iteration of 6 ms is less than half the
    # clock's float spacing (1/64 s), so adding it leaves the clock where it
    # was and every token would land at the arrival.  A 100-token prefill
    # (35 ms) still advances it; then the decode run stalls.
    with pytest.raises(ValueError,
                       match="engine clock stalls at 71000000000000"):
        run([RequestSpec("a", 7.1e13, prompt_len, 3)], EngineConfig(),
            VllmLike())
    # At half that clock the spacing is 1/128 s, and the times advance.
    (rec,) = run([RequestSpec("a", 3.5e13, prompt_len, 3)], EngineConfig(),
                 VllmLike()).requests
    assert 3.5e13 < rec.token_times[0] < rec.token_times[1] \
        < rec.token_times[2]


@pytest.mark.parametrize("output_len", [3, 1], ids=["decoding", "one_token"])
def test_a_clock_that_overflows_is_named(output_len):
    # The prefill ending past the largest double took the clock to inf: the
    # admission scan then ran past the arrivals' inf sentinel (IndexError),
    # and a one-token request got the time inf.
    engine = EngineConfig(base_s=1e308, prefill_per_token_s=0,
                          decode_per_seq_s=0, max_batch_tokens=10,
                          max_running_seqs=4, kv_capacity_tokens=100)
    with pytest.raises(ValueError, match=r"engine clock overflows at 1e\+308"):
        run([RequestSpec("a", 1e308, 2, output_len)], engine, VllmLike())


def test_workload_validation_errors():
    with pytest.raises(ValueError, match="sorted"):
        run([RequestSpec("a", 1.0, 10, 2), RequestSpec("b", 0.5, 10, 2)],
            ENG, VllmLike())
    with pytest.raises(ValueError, match="duplicate"):
        run([RequestSpec("a", 0.0, 10, 2), RequestSpec("a", 1.0, 10, 2)],
            ENG, VllmLike())
    with pytest.raises(ValueError, match="KV footprint"):
        eng = EngineConfig(kv_capacity_tokens=64, max_batch_tokens=64,
                           max_running_seqs=4)
        run([RequestSpec("a", 0.0, 60, 10)], eng, VllmLike())
    with pytest.raises(ValueError, match="empty"):
        run([], ENG, VllmLike())


@pytest.mark.parametrize("policy", [VllmLike(), DecodePrepone(n=2)])
def test_full_prompt_policies_reject_prompts_beyond_batch_limit(policy):
    eng = EngineConfig(max_batch_tokens=16, max_running_seqs=4)
    with pytest.raises(ValueError, match="cannot fit one batch under this "
                                         "scheduler \\(needs chunked prefill\\)"):
        run([RequestSpec("a", 0.0, 40, 3)], eng, policy)


def test_callable_may_chunk_prompts_beyond_batch_limit():
    # Only the policy records are known to take whole prompts; a callable's
    # plans are checked one by one, and chunked ones are valid.
    eng = EngineConfig(max_batch_tokens=16, max_running_seqs=4)
    workload = [RequestSpec("a", 0.0, 40, 3)]
    policy = ChunkedPrefill(chunk_tokens=8)
    trace = run(workload, eng, lambda qs: next_batch(policy, qs))
    assert_same_run(trace, run(workload, eng, policy))
    assert len(trace.iterations) == 5 + 2


def test_chunked_serves_prompts_beyond_batch_limit():
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=64,
                       max_running_seqs=4, kv_capacity_tokens=100_000)
    workload = [RequestSpec("a", 0.0, 500, 4)]
    trace = run(workload, eng, ChunkedPrefill(chunk_tokens=64))
    assert len(trace.requests[0].token_times) == 4
    # ceil(500/64) chunk batches before the first token, then 3 decodes.
    assert len(trace.iterations) == 8 + 3


@pytest.mark.parametrize("policy, first_token", [
    (VllmLike(), 1.5), (ChunkedPrefill(chunk_tokens=16), 1.75),
    (DecodePrepone(n=1), 2.0)], ids=["vllm", "chunked", "prepone"])
def test_arrival_at_a_decode_run_end_is_admitted(policy, first_token):
    # Dyadic costs end every iteration exactly: a's prefill ends at 0.25 and
    # its solo decodes at 0.75 and 1.25, the instant b arrives.  The decode
    # run must stop there so that the next plan sees b waiting.
    eng = EngineConfig(base_s=0.25, prefill_per_token_s=0.0,
                       decode_per_seq_s=0.25)
    workload = [RequestSpec("a", 0.0, 10, 10), RequestSpec("b", 1.25, 10, 3)]
    trace = run(workload, eng, policy)
    records = iterations(trace)
    assert [it.start for it in records[:4]] == [0.0, 0.25, 0.75, 1.25]
    assert records[3].queue_depth == 1
    assert trace.requests[1].token_times[0] == first_token


def test_work_monotonicity_under_replay():
    # Record the decisions once, then replay them under a costlier engine:
    # no timestamp may move earlier.
    workload = random_workload(13, count=25, rate=5.0)
    policy = ChunkedPrefill(chunk_tokens=80)
    recorded = []

    def recorder(state):
        plan = next_batch(policy, state)
        recorded.append(plan)
        return plan

    base_trace = run(workload, ENG, recorder)

    def replayer_factory(plans):
        it = iter(plans)

        def replay(state):
            return next(it)

        return replay

    costlier = EngineConfig(base_s=0.02, prefill_per_token_s=0.001,
                            decode_per_seq_s=0.02,
                            max_batch_tokens=ENG.max_batch_tokens,
                            max_running_seqs=ENG.max_running_seqs,
                            kv_capacity_tokens=ENG.kv_capacity_tokens)
    slow_trace = run(workload, costlier, replayer_factory(recorded))
    for fast, slow in zip(base_trace.requests, slow_trace.requests):
        for t_fast, t_slow in zip(fast.token_times, slow.token_times):
            assert t_slow >= t_fast - 1e-12


def test_iteration_log_consistency():
    trace = run(TWO_REQ, ENG, ChunkedPrefill(chunk_tokens=100))
    records = iterations(trace)
    for it in records:
        assert it.duration == pytest.approx(iteration_time(
            it.prefill_tokens, it.decode_seqs, ENG), abs=1e-12)
        assert it.queue_depth >= 0
    starts = [it.start for it in records]
    assert starts == sorted(starts)
