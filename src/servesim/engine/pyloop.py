"""The engine's iteration loop.

The loop alternates: admit arrivals up to the clock, ask the scheduler for the
next batch, advance the clock by the batch's cost-model duration, then emit
one token per decoding member and the first token of any request whose prefill
just completed.  Admission reserves the request's full final KV footprint, so
a running request can never run out of cache (there is no preemption).
"""

from __future__ import annotations

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
    full_prompt = not isinstance(scheduler, ChunkedPrefill)
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
                   by_id: dict[str, RequestState]) -> None:
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
    for rid in plan.decode_ids:
        if rid in seen:
            raise SchedulerViolation(f"{rid}: appears twice in batch")
        seen.add(rid)
        req = by_id.get(rid)
        if req is None or req.phase != Phase.DECODING:
            raise SchedulerViolation(f"{rid}: not decodable")
    if plan.prefill_tokens + plan.decode_seqs > eng.max_batch_tokens:
        raise SchedulerViolation(
            f"batch tokens {plan.prefill_tokens + plan.decode_seqs} exceed "
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
    rel: dict[str, list[float]] = {s.spec.request_id: [] for s in states}

    if isinstance(scheduler, (VllmLike, ChunkedPrefill, DecodePrepone)):
        schedule = lambda qs: next_batch(scheduler, qs)  # noqa: E731
    elif callable(scheduler):
        schedule = scheduler
    else:
        raise TypeError(f"unsupported scheduler: {scheduler!r}")

    waiting: list[RequestState] = []
    running: list[RequestState] = []
    iterations: list[IterationRecord] = []
    clock = 0.0
    kv_reserved = 0
    arrive_idx = 0
    finished = 0
    n = len(states)
    qstate = QueueState(clock, waiting, running, kv_reserved, engine)

    while finished < n:
        while arrive_idx < n and states[arrive_idx].spec.arrival <= clock:
            waiting.append(states[arrive_idx])
            arrive_idx += 1
        if not waiting and not running:
            clock = states[arrive_idx].spec.arrival
            continue

        qstate.clock = clock
        qstate.kv_reserved = kv_reserved
        plan = schedule(qstate)
        if plan.is_empty:
            raise SchedulerViolation(
                f"scheduler idle at t={clock} with work pending")
        _validate_plan(plan, qstate, by_id)

        duration = iteration_time(plan.prefill_tokens, plan.decode_seqs,
                                  engine, plan.overhead_s)
        end = clock + duration
        queue_depth = len(waiting)

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
                rel[item.request_id].append(end)
                req.emitted = 1
                if req.emitted == req.spec.output_len:
                    req.phase = Phase.FINISHED
                    kv_reserved -= req.kv_reservation
                    running.remove(req)
                    finished += 1
                else:
                    req.phase = Phase.DECODING

        for rid in plan.decode_ids:
            req = by_id[rid]
            gen[rid].append(end)
            if plan.prepone_k > 0:
                release = end + plan.prepone_k * plan.release_t_delay
                if release > plan.release_cap:
                    release = plan.release_cap
                if release < end:
                    release = end
                rel[rid].append(release)
            else:
                rel[rid].append(end)
            req.emitted += 1
            if req.emitted == req.spec.output_len:
                req.phase = Phase.FINISHED
                kv_reserved -= req.kv_reservation
                running.remove(req)
                finished += 1

        iterations.append(IterationRecord(
            start=clock, duration=duration,
            prefill_tokens=plan.prefill_tokens, decode_seqs=plan.decode_seqs,
            prefill_ids=tuple(i.request_id for i in plan.prefill_items),
            decode_ids=plan.decode_ids, queue_depth=queue_depth))
        clock = end

    records = []
    for s in states:
        rid = s.spec.request_id
        g, r = gen[rid], rel[rid]
        delivery = tuple(r) if r != g else None
        records.append(RequestTrace(
            request_id=rid, arrival=s.spec.arrival, token_times=tuple(g),
            prompt_len=s.spec.prompt_len, completed=True,
            delivery_times=delivery))
    return SimTrace(requests=records, iterations=iterations)
