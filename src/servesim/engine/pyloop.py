"""The engine's iteration loop.

The loop alternates: admit arrivals up to the clock, ask the scheduler for the
next batch, advance the clock by the batch's cost-model duration, then emit
one token per decoding member and the first token of any request whose prefill
just completed.  Admission reserves the request's full final KV footprint, so
a running request can never run out of cache (there is no preemption).

A plan's ``release_s`` holds its decode tokens back until that instant, which
may not precede the batch's end.  The loop keeps one ``(decode_ids, end,
release)`` entry per held batch and builds the delivery times from them once
the run is over; a request with no held token has none.

Decode runs: when a built-in policy plans a plain decode batch (no prefill,
no release instant; a prepone phase in flight always plans one or the
other), the same batch would be planned again at every iteration until a
member emits its last token or the clock reaches the next arrival.  The loop
runs such a batch for that many iterations from one policy call and one plan
check: it advances the clock by the same sequential additions, emits each
member's tokens with one ``list.extend`` and logs one record per iteration.
Every other batch, and every batch of a custom callable, is a run of one
iteration.

The decode set: the loop keeps the DECODING members of ``running`` (in
``running`` order) and publishes them with their ids on the ``QueueState``
whenever they change.  A last token removes its request with ``list.remove``;
a completed prefill rebuilds the set from ``running``, whose order holds even
when a callable's prefills complete out of admission order.  Between changes
the built-in planners return the published id tuple itself, and the plan
check tests the members against the set of decodable ids with set
operations, walking them one by one only to name a culprit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Sequence

from ..schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    Phase,
    QueueState,
    RequestState,
    SchedulerPolicy,
    SchedulerViolation,
    VllmLike,
    next_batch,
)
from ..traces import IterationRecord, RequestTrace, SimTrace
from ..workload import RequestSpec
from .config import EngineConfig, iteration_time


def validate_workload(workload: Sequence[RequestSpec], engine: EngineConfig,
                      scheduler) -> None:
    """Reject workloads the engine could never finish."""
    if not workload:
        raise ValueError("empty workload")
    seen = set()
    prev = (-1.0, "")
    # Only chunked prefill splits a prompt; a custom callable's plans are
    # checked one by one in _validate_plan.
    full_prompt = isinstance(scheduler, (VllmLike, DecodePrepone))
    for spec in workload:
        key = (spec.arrival, spec.request_id)
        if key < prev:
            raise ValueError("workload must be sorted by (arrival, request_id)")
        prev = key
        if spec.request_id in seen:
            raise ValueError(f"duplicate request_id {spec.request_id!r}")
        seen.add(spec.request_id)
        if spec.prompt_len + spec.output_len > engine.kv_capacity_tokens:
            raise ValueError(
                f"{spec.request_id}: KV footprint exceeds kv_capacity_tokens")
        if full_prompt and spec.prompt_len > engine.max_batch_tokens:
            raise ValueError(
                f"{spec.request_id}: prompt cannot fit one batch under this "
                f"scheduler (needs chunked prefill)")


def _validate_plan(plan: BatchPlan, state: QueueState,
                   by_id: dict[str, RequestState], decodable: set[str],
                   prefill_tokens: int) -> None:
    eng = state.engine
    seen: set[str] = set()
    admitted = 0
    kv_needed = 0
    for item in plan.prefill_items:
        if item.request_id in seen:
            raise SchedulerViolation(f"{item.request_id}: appears twice in batch")
        seen.add(item.request_id)
        req = by_id.get(item.request_id)
        if req is None or req.phase in (Phase.DECODING, Phase.FINISHED):
            raise SchedulerViolation(f"{item.request_id}: not prefillable")
        # The loop admits every arrival up to the clock before it asks the
        # scheduler, so a waiting request past the clock is not queued yet.
        if req.phase == Phase.WAITING and req.spec.arrival > state.clock:
            raise SchedulerViolation(
                f"{item.request_id}: scheduled before arrival")
        if item.start != req.prefill_done or not (
                0 < item.end - item.start <= req.remaining_prompt):
            raise SchedulerViolation(
                f"{item.request_id}: prefill span {item.start}:{item.end} "
                f"inconsistent with progress {req.prefill_done}")
        if req.phase == Phase.WAITING:
            admitted += 1
            kv_needed += req.kv_reservation
    ids = plan.decode_ids
    # Set operations check every member at once; only a plan that fails them
    # walks its members, to name the first culprit.  The superset test
    # already implies disjointness, as no prefill item passed above is
    # decoding; the disjointness test keeps this check independent of that.
    if not (len(set(ids)) == len(ids) and decodable.issuperset(ids)
            and seen.isdisjoint(ids)):
        for rid in ids:
            if rid in seen:
                raise SchedulerViolation(f"{rid}: appears twice in batch")
            seen.add(rid)
            if rid not in decodable:
                raise SchedulerViolation(f"{rid}: not decodable")
    batch_tokens = prefill_tokens + len(ids)
    if batch_tokens > eng.max_batch_tokens:
        raise SchedulerViolation(
            f"batch tokens {batch_tokens} exceed "
            f"max_batch_tokens {eng.max_batch_tokens}")
    if len(state.running) + admitted > eng.max_running_seqs:
        raise SchedulerViolation("batch exceeds max_running_seqs")
    if state.kv_reserved + kv_needed > eng.kv_capacity_tokens:
        raise SchedulerViolation("batch exceeds kv_capacity_tokens")


def run(workload: Sequence[RequestSpec], engine: EngineConfig,
        scheduler: SchedulerPolicy | Callable[[QueueState], BatchPlan],
        ) -> SimTrace:
    """Simulate ``workload`` to completion and return the full trace.

    ``scheduler`` may be one of the built-in policy records or any callable
    mapping a :class:`QueueState` to a :class:`BatchPlan`.  Every plan is
    checked against the queue and the engine limits before it runs.
    """
    validate_workload(workload, engine, scheduler)
    states = [RequestState(spec) for spec in workload]
    by_id = {s.spec.request_id: s for s in states}
    gen: dict[str, list[float]] = {s.spec.request_id: [] for s in states}
    held: list[tuple[tuple[str, ...], float, float]] = []

    builtin = isinstance(scheduler, (VllmLike, ChunkedPrefill, DecodePrepone))
    if builtin:
        schedule = lambda qs: next_batch(scheduler, qs)  # noqa: E731
    elif callable(scheduler):
        schedule = scheduler
    else:
        raise TypeError(f"unsupported scheduler: {scheduler!r}")

    waiting: list[RequestState] = []
    running: list[RequestState] = []
    # The DECODING members of running, in running order, and their ids.
    decoding: list[RequestState] = []
    decodable: set[str] = set()
    iterations: list[IterationRecord] = []
    clock = 0.0
    kv_reserved = 0
    arrive_idx = 0
    finished = 0
    n = len(states)
    # The inf sentinel ends the admission scan and is the next arrival once
    # every request has arrived.
    arrivals = [s.spec.arrival for s in states] + [math.inf]
    qstate = QueueState(clock, waiting, running, kv_reserved, engine)

    while finished < n:
        while arrivals[arrive_idx] <= clock:
            waiting.append(states[arrive_idx])
            arrive_idx += 1
        next_arrival = arrivals[arrive_idx]
        if not waiting and not running:
            clock = next_arrival
            continue

        qstate.clock = clock
        qstate.kv_reserved = kv_reserved
        plan = schedule(qstate)
        if plan.is_empty:
            raise SchedulerViolation(
                f"scheduler idle at t={clock} with work pending")
        prefill_tokens = plan.prefill_tokens
        _validate_plan(plan, qstate, by_id, decodable, prefill_tokens)

        decode_seqs = len(plan.decode_ids)
        duration = iteration_time(prefill_tokens, decode_seqs, engine)
        queue_depth = len(waiting)
        # A built-in policy's plain decode batch depends only on the queue,
        # which stays the same until a member runs out of output or the next
        # arrival is admitted, so it runs for up to m iterations at once.
        members = list(map(by_id.__getitem__, plan.decode_ids))
        release = plan.release_s
        m = 1
        if builtin and not plan.prefill_items and release is None:
            m = min([r.remaining_output for r in members])
        # Iteration ends by sequential addition, exactly as one iteration at
        # a time would advance the clock; the run stops at the first end that
        # admits the next arrival.
        end = clock + duration
        if release is not None and release != end:
            if not (release >= end):  # NaN fails too
                raise SchedulerViolation(
                    f"release at {release} precedes batch end {end}")
            held.append((plan.decode_ids, end, release))
        ends = [end]
        while end < next_arrival and len(ends) < m:
            end = end + duration
            ends.append(end)
        m = len(ends)

        grew = shrank = False
        for item in plan.prefill_items:
            req = by_id[item.request_id]
            if req.phase == Phase.WAITING:
                req.phase = Phase.PREFILLING
                kv_reserved += req.kv_reservation
                waiting.remove(req)
                running.append(req)
            req.prefill_done = item.end
            if req.prefill_done == req.spec.prompt_len:
                # Prefill produces the request's first output token.
                gen[item.request_id].append(end)
                req.emitted = 1
                if req.emitted == req.spec.output_len:
                    req.phase = Phase.FINISHED
                    kv_reserved -= req.kv_reservation
                    running.remove(req)
                    finished += 1
                else:
                    req.phase = Phase.DECODING
                    grew = True

        for rid, req in zip(plan.decode_ids, members):
            gen[rid].extend(ends)
            req.emitted += m
            if req.emitted == req.spec.output_len:
                req.phase = Phase.FINISHED
                kv_reserved -= req.kv_reservation
                running.remove(req)
                decoding.remove(req)
                finished += 1
                shrank = True
        if grew:
            # Rebuilt from running, whose order holds even when a callable's
            # prefills complete out of admission order.
            decoding = [r for r in running if r.phase == Phase.DECODING]
        if grew or shrank:
            qstate.set_decoding(decoding)
            decodable = set(qstate.decode_ids)

        # One record per iteration, all sharing the plan's decode_ids tuple;
        # tuple.__new__ skips the named tuple's Python-level __new__.
        prefill_ids = tuple(i.request_id for i in plan.prefill_items)
        decode_ids = plan.decode_ids
        iterations.extend([
            tuple.__new__(IterationRecord, (
                start, duration, prefill_tokens, decode_seqs, prefill_ids,
                decode_ids, queue_depth))
            for start in [clock, *ends[:-1]]])
        clock = end

    # A request's token times strictly increase (base_s > 0), so bisect
    # finds the token a held batch generated at its end.
    delivery: dict[str, list[float]] = {}
    for decode_ids, end, release in held:
        for rid in decode_ids:
            times = delivery.get(rid)
            if times is None:
                times = delivery[rid] = gen[rid][:]
            times[bisect_left(gen[rid], end)] = release
    records = []
    for s in states:
        rid = s.spec.request_id
        d = delivery.get(rid)
        records.append(RequestTrace(
            request_id=rid, arrival=s.spec.arrival, token_times=tuple(gen[rid]),
            prompt_len=s.spec.prompt_len, completed=True,
            delivery_times=None if d is None else tuple(d)))
    return SimTrace(requests=records, iterations=iterations)
