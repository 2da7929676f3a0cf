"""Engine invariants on random small workloads, re-derived from the trace."""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from servesim.engine import EngineConfig, run
from servesim.schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    Phase,
    PrefillItem,
    VllmLike,
    next_batch,
)
from servesim.workload import RequestSpec

MAX_PROMPT, MAX_OUTPUT = 120, 20

policies = st.one_of(
    st.just(VllmLike()),
    st.builds(ChunkedPrefill, st.integers(1, 160)),
    st.builds(DecodePrepone, st.integers(1, 3),
              st.sampled_from([None, 0.0, 0.01, 0.04])),
)

# Limits go down to one running request, a batch smaller than a prompt and a
# KV budget that holds one largest request, so admission blocks on every axis.
# The dyadic costs end every iteration on a multiple of 0.25 exactly, where
# every fifth arrival of the grid below lands, so arrivals tie iteration ends.
engines = st.sampled_from([(0.01, 0.001, 0.02), (0.25, 0.0, 0.25)]).flatmap(
    lambda costs: st.builds(
        EngineConfig,
        base_s=st.just(costs[0]), prefill_per_token_s=st.just(costs[1]),
        decode_per_seq_s=st.just(costs[2]),
        max_batch_tokens=st.integers(16, 256),
        max_running_seqs=st.integers(1, 8),
        kv_capacity_tokens=st.integers(MAX_PROMPT + MAX_OUTPUT, 1000),
    ))


@st.composite
def cases(draw):
    """A workload with an engine and a policy that can serve all of it."""
    engine, policy = draw(engines), draw(policies)
    max_prompt = MAX_PROMPT
    if not isinstance(policy, ChunkedPrefill):
        # Only chunked prefill splits a prompt over several batches.
        max_prompt = min(max_prompt, engine.max_batch_tokens)
    # Arrivals on a coarse grid so ties are common; ids break ties in order.
    n = draw(st.integers(1, 12))
    arrivals = sorted(draw(st.lists(st.integers(0, 20), min_size=n,
                                    max_size=n)))
    outputs = st.one_of(st.just(1), st.integers(1, MAX_OUTPUT))
    workload = [RequestSpec(f"r{i:02d}", k * 0.05,
                            draw(st.integers(1, max_prompt)), draw(outputs))
                for i, k in enumerate(arrivals)]
    return workload, engine, policy


def check_limits(trace, specs, engine):
    """Re-derive admissions and completions from the iteration log alone.

    A request is admitted by the first batch that prefills it and leaves with
    its last token: its last prefill chunk when it has one output token, else
    its (output_len - 1)-th decode.
    """
    admit, leave, decodes = {}, {}, dict.fromkeys(specs, 0)
    for k, it in enumerate(trace.iterations):
        assert it.prefill_tokens + it.decode_seqs <= engine.max_batch_tokens
        for rid in it.prefill_ids:
            admit.setdefault(rid, k)
            if specs[rid].output_len == 1:
                leave[rid] = k
        for rid in it.decode_ids:
            decodes[rid] += 1
            if decodes[rid] == specs[rid].output_len - 1:
                leave[rid] = k
    assert all(decodes[rid] == s.output_len - 1 for rid, s in specs.items())
    # The clock, bit for bit: an iteration starts where the previous one
    # ended (start + duration, one addition), unless every request that had
    # arrived by then has left; then it starts at the next arrival.
    arrivals = sorted(s.arrival for s in specs.values())
    left = sorted(leave.values())
    prev_end = 0.0
    for k, it in enumerate(trace.iterations):
        arrived = bisect_right(arrivals, prev_end)
        queued = arrived - bisect_left(left, k)
        assert it.start == (prev_end if queued else arrivals[arrived])
        prev_end = it.start + it.duration
    for k in range(len(trace.iterations)):
        live = [s for rid, s in specs.items() if admit[rid] <= k <= leave[rid]]
        assert len(live) <= engine.max_running_seqs
        assert sum(s.prompt_len + s.output_len for s in live) \
            <= engine.kv_capacity_tokens


@settings(max_examples=200, deadline=None)
@given(cases())
def test_engine_invariants(case):
    workload, engine, policy = case
    trace = run(workload, engine, policy)
    specs = {s.request_id: s for s in workload}
    assert [r.request_id for r in trace.requests] == list(specs)
    for rec in trace.requests:
        spec = specs[rec.request_id]
        times = rec.token_times
        assert rec.completed and len(times) == spec.output_len
        assert times[0] > spec.arrival
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
        if rec.delivery_times is not None:
            delivery = rec.delivery_times
            assert all(d >= g for g, d in zip(times, delivery))
            assert list(delivery) == sorted(delivery)
    check_limits(trace, specs, engine)
    assert run(workload, engine, policy) == trace


@settings(max_examples=200, deadline=None)
@given(cases())
def test_decode_runs_match_the_per_iteration_loop(case):
    # The engine steps a built-in policy's plain decode batches a run at a
    # time; a callable is asked for every iteration.  Wrapping the policy in
    # a callable therefore gives the per-iteration loop as the reference,
    # token, delivery and iteration records alike.
    workload, engine, policy = case
    assert run(workload, engine, policy) == \
        run(workload, engine, lambda qs: next_batch(policy, qs))


def checking_decode_set(schedule):
    """``schedule``, asserting at every call that the decode set the engine
    keeps is the DECODING filter of ``running``, in order."""
    def wrapped(state):
        decoding = [r for r in state.running if r.phase == Phase.DECODING]
        assert list(state.decoding) == decoding
        assert state.decode_ids == tuple(r.spec.request_id for r in decoding)
        return schedule(state)
    return wrapped


@settings(max_examples=200, deadline=None)
@given(cases())
def test_the_engine_keeps_the_decode_set(case):
    workload, engine, policy = case
    run(workload, engine,
        checking_decode_set(lambda qs: next_batch(policy, qs)))


def _chunk_every_prompt(state):
    # Every admitted or waiting prompt gets a chunk of up to 20 tokens in the
    # same batch, so a short prompt admitted second completes first.
    items = tuple(
        PrefillItem(r.spec.request_id, r.prefill_done,
                    r.prefill_done + min(20, r.remaining_prompt))
        for r in [*state.running, *state.waiting]
        if r.phase in (Phase.WAITING, Phase.PREFILLING))
    return BatchPlan(prefill_items=items, decode_ids=state.decode_ids)


def test_decode_set_keeps_running_order_when_prefills_complete_out_of_order():
    engine = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                          decode_per_seq_s=0.02)
    workload = [RequestSpec("a", 0.0, 100, 10), RequestSpec("b", 0.0, 20, 10)]
    trace = run(workload, engine, checking_decode_set(_chunk_every_prompt))
    # b's prompt is done after one chunk and a's after five; from then on
    # both decode, a first as it was admitted first.
    assert [it.decode_ids for it in trace.iterations[:6]] == [
        (), ("b",), ("b",), ("b",), ("b",), ("a", "b")]
    assert [it.prefill_ids for it in trace.iterations[:5]] == [
        ("a", "b"), ("a",), ("a",), ("a",), ("a",)]
