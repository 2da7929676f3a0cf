"""Engine invariants on random small workloads, re-derived from the trace."""

import dataclasses
from bisect import bisect_left, bisect_right
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from servesim.delivery import DelayConfig, delay_trace
from servesim.engine import EngineConfig, iteration_time, pyloop, run
from servesim.schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    Phase,
    PrefillItem,
    VllmLike,
    next_batch,
)
from servesim.traces import RequestTrace
from servesim.workload import RequestSpec

MAX_PROMPT, MAX_OUTPUT = 120, 20

schedulers = {
    "vllm_like": st.just(VllmLike()),
    "chunked_prefill": st.builds(ChunkedPrefill, st.integers(1, 160)),
    "decode_prepone": st.builds(DecodePrepone, st.integers(1, 3),
                                st.sampled_from([None, 0.0, 0.01, 0.04])),
}
policies = st.one_of(*schedulers.values())

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
def cases(draw, policies=policies):
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
    its (output_len - 1)-th decode.  The engine state each entry logs is
    re-derived from them too.
    """
    records = oracles.iteration_records(trace.iterations.runs)
    admit, leave, decodes = {}, {}, dict.fromkeys(specs, 0)
    for k, it in enumerate(records):
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
    for k, it in enumerate(records):
        arrived = bisect_right(arrivals, prev_end)
        queued = arrived - bisect_left(left, k)
        assert it.start == (prev_end if queued else arrivals[arrived])
        prev_end = it.start + it.duration
    for k, it in enumerate(records):
        live = [s for rid, s in specs.items() if admit[rid] <= k <= leave[rid]]
        assert len(live) <= engine.max_running_seqs
        assert sum(s.prompt_len + s.output_len for s in live) \
            <= engine.kv_capacity_tokens
        # As the plan saw it: admitted by an earlier batch, not yet left.
        running = [s for rid, s in specs.items()
                   if admit[rid] < k <= leave[rid]]
        assert it.running == len(running)
        assert it.kv_reserved == sum(s.prompt_len + s.output_len
                                     for s in running)
        assert it.queue_depth == bisect_right(arrivals, it.start) - sum(
            a < k for a in admit.values())


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
@given(cases(), st.builds(DelayConfig, st.sampled_from([0.01, 0.05, 0.3]),
                          st.booleans()))
def test_trusted_records_pass_the_public_checks(case, delay):
    # The engine and delay_trace build their records without the
    # constructor's checks; each one passes them when rebuilt.
    workload, engine, policy = case
    records = run(workload, engine, policy).requests
    for rec in [*records, *delay_trace(records, delay)]:
        assert RequestTrace(rec.request_id, rec.arrival, rec.token_times,
                            rec.prompt_len, rec.completed,
                            rec.delivery_times) == rec


def assert_same_run(a, b):
    """``a`` and ``b`` are the same run: equal requests, and logs that expand
    to the same iterations, whether a plan run is one entry or several."""
    assert a.requests == b.requests
    assert oracles.iteration_records(a.iterations.runs) == \
        oracles.iteration_records(b.iterations.runs)


@pytest.mark.parametrize("scheduler", schedulers)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_len_counts_the_iterations(scheduler, data):
    # perfbench reads len(trace.iterations) as its engine.iterations count.
    log = run(*data.draw(cases(schedulers[scheduler]))).iterations
    assert all(entry[1] >= 1 for entry in log.runs)
    assert len(log) == len(oracles.iteration_records(log.runs))


def _copied(plan):
    """``plan`` with an equal decode tuple that is not the published one."""
    return dataclasses.replace(plan, decode_ids=tuple(list(plan.decode_ids)))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_decode_runs_match_the_per_iteration_loop(case):
    # The engine steps a built-in policy's plain decode batches a run at a
    # time on its decode clock; a callable is asked for every iteration, and
    # a copied decode tuple is not the published one, so each of its members
    # is checked and it decodes as a subset that skips no one.  Wrapping the
    # policy in such a callable therefore gives the per-iteration, checked
    # subset loop as the reference, token, delivery and iteration records
    # alike.
    workload, engine, policy = case
    assert_same_run(
        run(workload, engine, policy),
        run(workload, engine, lambda qs: _copied(next_batch(policy, qs))))


def alternating_halves(policy, engine, pattern, holds, log):
    """``policy``'s plans, with the decode set cut by ``pattern`` and held.

    Call ``k`` decodes per ``pattern[k % len(pattern)]``: the whole
    published tuple (``"all"``), an equal copy, or its even or odd half (the
    whole tuple if that half is empty).  A decoding plan from
    ``holds[k % len(holds)]`` ``h`` is released ``h * base_s`` after its
    end; less than one iteration, so no later token overtakes it.  Each
    call's clock and plan are appended to ``log``.
    """
    def schedule(state):
        plan = next_batch(policy, state)
        k = len(log)
        ids, how = plan.decode_ids, pattern[k % len(pattern)]
        if how == "copy":
            ids = tuple(list(ids))
        elif how != "all":
            ids = ids[how == "odd"::2] or ids
        hold, release = holds[k % len(holds)], None
        if hold is not None and ids:
            release = state.clock + iteration_time(
                plan.prefill_tokens, len(ids), engine) + hold * engine.base_s
        plan = BatchPlan(plan.prefill_items, ids, release)
        log.append((state.clock, plan))
        return plan
    return schedule


def held_release(clock, plan, engine):
    """The release the engine logs for ``plan``: None unless it holds the
    plan's decode tokens past the batch end."""
    end = clock + iteration_time(plan.prefill_tokens, len(plan.decode_ids),
                                 engine)
    return None if plan.release_s in (None, end) else plan.release_s


def replayed_requests(workload, engine, log):
    """Each request's record, replayed from the plans one iteration each."""
    specs = {s.request_id: s for s in workload}
    gen = {rid: [] for rid in specs}
    delivery = {rid: [] for rid in specs}
    for clock, plan in log:
        end = clock + iteration_time(plan.prefill_tokens,
                                     len(plan.decode_ids), engine)
        for item in plan.prefill_items:
            if item.end == specs[item.request_id].prompt_len:
                gen[item.request_id].append(end)
                delivery[item.request_id].append(end)
        for rid in plan.decode_ids:
            gen[rid].append(end)
            delivery[rid].append(end if plan.release_s is None
                                 else plan.release_s)
    return [RequestTrace(rid, s.arrival, tuple(gen[rid]), s.prompt_len, True,
                         None if delivery[rid] == gen[rid]
                         else tuple(delivery[rid]))
            for rid, s in specs.items()]


@settings(max_examples=200, deadline=None)
@given(cases().filter(lambda case: not isinstance(case[2], DecodePrepone)),
       st.lists(st.sampled_from(["all", "copy", "even", "odd"]),
                min_size=1, max_size=6),
       st.lists(st.sampled_from([None, 0.0, 0.5]), min_size=1, max_size=4))
# One plan decodes r01 alone and closes r02's slice, so r02's first finish
# entry (clock length 3) goes stale.  It pops when r02 has emitted 2 of its 3
# tokens; taken as a finish, it would end r02 a token early.
@example(case=([RequestSpec("r00", 0.0, 1, 1), RequestSpec("r01", 0.0, 1, 3),
                RequestSpec("r02", 0.30000000000000004, 1, 3)],
               EngineConfig(0.25, 0.0, 0.25, 16, 2, 140), VllmLike()),
         pattern=["even"], holds=[None])
def test_alternating_halves_match_a_replay_of_their_plans(case, pattern,
                                                           holds):
    # A callable that decodes part of the set closes the skipped members'
    # slices of the decode clock and reopens them; the expected trace is
    # replayed from its plans alone.
    workload, engine, policy = case
    log = []
    trace = run(workload, engine,
                alternating_halves(policy, engine, pattern, holds, log))
    assert trace.requests == replayed_requests(workload, engine, log)
    assert [(it.start, it.prefill_ids, it.decode_ids, it.release_s)
            for it in oracles.iteration_records(trace.iterations.runs)] == [
        (clock, tuple(i.request_id for i in plan.prefill_items),
         plan.decode_ids, held_release(clock, plan, engine))
        for clock, plan in log]
    check_limits(trace, {s.request_id: s for s in workload}, engine)
    run(workload, engine, checking_emitted(
        alternating_halves(policy, engine, pattern, holds, []), trace))


def checking_decode_set(schedule):
    """``schedule``, asserting at every call that the decode set the engine
    keeps is the DECODING filter of ``running``, in order."""
    def wrapped(state):
        decoding = [r for r in state.running if r.phase == Phase.DECODING]
        assert list(state.decoding) == decoding
        assert state.decode_ids == tuple(r.spec.request_id for r in decoding)
        return schedule(state)
    return wrapped


def checking_emitted(schedule, trace):
    """``schedule``, asserting at every call that each running request's
    ``emitted`` counts its tokens that ``trace`` generates by the clock."""
    times = {rec.request_id: rec.token_times for rec in trace.requests}

    def wrapped(state):
        for r in state.running:
            assert r.emitted == bisect_right(times[r.spec.request_id],
                                             state.clock)
        return schedule(state)
    return wrapped


@settings(max_examples=200, deadline=None)
@given(cases())
def test_emitted_is_exact_at_every_scheduler_call(case):
    workload, engine, policy = case
    trace = run(workload, engine, policy)
    # A built-in policy keeps its decode runs when the engine's next_batch
    # is wrapped; a callable is asked for every iteration.
    check = checking_emitted(lambda qs: next_batch(policy, qs), trace)
    calls = []

    def counted(policy, state):
        calls.append(state.clock)
        return check(state)
    with mock.patch.object(pyloop, "next_batch", counted):
        assert run(workload, engine, policy) == trace
    assert calls
    run(workload, engine, check)


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
    records = oracles.iteration_records(trace.iterations.runs)
    # b's prompt is done after one chunk and a's after five; from then on
    # both decode, a first as it was admitted first.
    assert [it.decode_ids for it in records[:6]] == [
        (), ("b",), ("b",), ("b",), ("b",), ("a", "b")]
    assert [it.prefill_ids for it in records[:5]] == [
        ("a", "b"), ("a",), ("a",), ("a",), ("a",)]
