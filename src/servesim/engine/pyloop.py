"""The engine's iteration loop.

The loop alternates: admit arrivals up to the clock, ask the scheduler for the
next batch, advance the clock by the batch's cost-model duration, then emit
one token per decoding member and the first token of any request whose prefill
just completed.  Admission reserves the request's full final KV footprint, so
a running request can never run out of cache (there is no preemption).

The decode set: the loop keeps the DECODING members of ``running`` (in
``running`` order) and a parallel list of their ids, and publishes both as
tuples on the ``QueueState`` whenever they change.  A last token deletes its
request at the same index of both.  Requests whose prefill completes are
appended when they are the last admitted, as under every built-in policy;
otherwise the set is rebuilt from ``running``, whose order holds even when a
callable's prefills complete out of admission order.  Between changes the
built-in planners return the published id tuple itself.  The loop also keeps
the state's PREFILLING members, in ``running`` order: a request joins them
at admission and leaves when its prefill completes.

The decode clock: every batch that decodes appends its end to one list of
decode-step ends, and its delivery instant to a parallel list: the plan's
``release_s``, which may not precede the end, or else the end.  A decoding
request keeps its slices of these lists, the runs of steps at which it
decodes; the last slice stays open while it decodes at every step.  A plan
decodes the whole set when its ``decode_ids`` is the tuple the engine last
published; every built-in plan that decodes does.  Such a plan needs no
member check; any other, an equal copy included, has each member checked.
A plan that decodes a subset closes the slices of the members it skips,
and a member's slice reopens when it decodes again.

An open slice fixes the step at which its request emits its last token, and
a heap of these finish indices gives the next finish without a per-member
scan.  The entry of a slice that has since closed is smaller than its
request's live one, so it pops first and is dropped: its request has not
finished.  When a request finishes, its token times are built once: its
first token followed by its slices of the end list, and its delivery times
from the same slices of the delivery list, kept only where they differ.
``RequestState.emitted`` is still exact at every scheduler call, since
schedulers read it.

Decode runs: when a built-in policy plans a plain decode batch (no prefill,
no release instant; a prepone phase in flight always plans one or the
other), the same batch would be planned again at every iteration until a
member emits its last token or the clock reaches the next arrival.  The loop
runs such a batch for that many iterations from one policy call and one plan
check.  ``itertools.accumulate`` adds the duration sequentially, exactly as
one iteration at a time would advance the clock, and the run's ends are
built at C level.  Every other batch, and every batch of a custom callable,
is a run of one iteration.  The iteration log gets one entry per run, its
first start and its length, with the queue, running and KV state the plan
saw and the release instant applied to its decode tokens.  A reader
rebuilds the run's later starts by the same additions.

Records: the clock check refuses a plan whose end does not exceed its last
start or is not finite, so every request's token times strictly increase
from its arrival and its records are built unchecked.  Only a held delivery
timeline is checked, against its token times; a held release that is not a
float, a callable's int say, is converted by the records' rule first.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, repeat, takewhile
from operator import gt
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
from ..traces import (
    IterationLog,
    RequestTrace,
    SimTrace,
    _check_timeline,
    _floats,
    _unchecked,
)
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
                   by_id: dict[str, RequestState],
                   decodable: tuple[str, ...] | None,
                   prefill_tokens: int) -> None:
    """Raise SchedulerViolation unless ``plan`` can run on ``state``.

    ``decodable`` is the decode set's id tuple as the engine last published
    it, or ``None`` for a plan that decodes that whole set, which needs no
    member check.
    """
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
    if decodable is not None and ids:
        members = set(decodable)
        for rid in ids:
            if rid in seen:
                raise SchedulerViolation(f"{rid}: appears twice in batch")
            seen.add(rid)
            if rid not in members:
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


def _slices(series: list[float], first: float,
            spans: Sequence[int]) -> tuple[float, ...]:
    """``first``, then ``series[a:b]`` for each span ``a, b`` of ``spans``."""
    times = [first]
    for i in range(0, len(spans), 2):
        times += series[spans[i]:spans[i + 1]]
    return tuple(times)


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
    # Workload position: a request's slot in the trace, and the tie-break
    # between equal finish indices.
    rank = {rid: i for i, rid in enumerate(by_id)}

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
    decoding_ids: list[str] = []
    # One entry per plan run: (start, count, duration, prefill_tokens,
    # decode_seqs, prefill_ids, decode_ids, queue_depth, running,
    # kv_reserved, release_s).
    runs: list[tuple] = []
    records: list[RequestTrace | None] = [None] * len(states)
    clock = 0.0
    kv_reserved = 0
    arrive_idx = 0
    finished = 0
    n = len(states)
    # The inf sentinel ends the admission scan and is the next arrival once
    # every request has arrived.
    arrivals = [s.spec.arrival for s in states] + [math.inf]
    qstate = QueueState(clock, waiting, running, kv_reserved, engine)
    prefilling = qstate.prefilling_members
    # The decode set's ids as the engine last published them.
    published = qstate.decode_ids

    # The decode clock, one entry per decode step: its end and its delivery
    # instant; held is set once a release falls after its end.
    step_ends: list[float] = []
    step_deliveries: list[float] = []
    held = False
    # Per started request: its first token time, and its slices of the clock
    # as start, stop, start, ...; an odd length leaves the last slice open.
    first: dict[str, float] = {}
    spans: dict[str, list[int]] = {}
    # (finish index, rank) per slice opened: the clock length at which its
    # request emits its last token if it decodes at every step from then on.
    heap: list[tuple[int, int]] = []
    # How many members of decoding have their last slice closed.
    paused = 0

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
        if not isinstance(plan, BatchPlan):
            raise SchedulerViolation(
                f"scheduler returned {type(plan).__name__}, not a BatchPlan")
        if plan.is_empty:
            raise SchedulerViolation(
                f"scheduler idle at t={clock} with work pending")
        prefill_tokens = plan.prefill_tokens
        ids = plan.decode_ids
        whole = ids is published
        _validate_plan(plan, qstate, by_id, None if whole else published,
                       prefill_tokens)

        step = len(step_ends)
        if ids and (paused or not whole):
            # Close the slices of the members this plan skips, and reopen
            # those of members that decode again, from this step on.
            members = set(ids)
            for r in decoding:
                rid = r.spec.request_id
                sp = spans[rid]
                if rid in members:
                    if not len(sp) & 1:
                        sp.append(step)
                        paused -= 1
                        heappush(heap, (step + r.spec.output_len - r.emitted,
                                        rank[rid]))
                elif len(sp) & 1:
                    sp.append(step)
                    paused += 1

        duration = iteration_time(prefill_tokens, len(ids), engine)
        release = plan.release_s
        # The release instant applied to the plan's decode tokens, if any.
        released = None
        if builtin and whole and not plan.prefill_items and release is None:
            # A built-in policy's plain decode batch depends only on the
            # queue, which stays the same until a member runs out of output
            # or the next arrival is admitted, so it runs for up to
            # heap[0][0] - step iterations at once.  Its starts come by
            # sequential addition, exactly as one iteration at a time would
            # advance the clock; it keeps each iteration that starts before
            # the next arrival, so it stops at the first end that admits it.
            starts = list(takewhile(
                partial(gt, next_arrival),
                accumulate(repeat(duration, heap[0][0] - step - 1),
                           initial=clock)))
            m = len(starts)
            last = starts[-1]
            ends = starts[1:]
            end = last + duration
            ends.append(end)
            step_ends += ends
            step_deliveries += ends
        else:
            m = 1
            last = clock
            end = clock + duration
            hold = release is not None and release != end
            if hold:
                if type(release) is not float:  # a callable's int, say
                    release, = _floats("release_s", (release,))
                if not (release >= end):  # NaN fails too
                    raise SchedulerViolation(
                        f"release at {release} precedes batch end {end}")
                if release == math.inf:
                    raise SchedulerViolation(
                        f"release at {release} is not finite")
            if ids:
                step_ends.append(end)
                if hold:
                    held = True
                    released = release
                    step_deliveries.append(release)
                else:
                    step_deliveries.append(end)
        if not last < end < math.inf:
            # Once an addition leaves a start unchanged, every later start of
            # the run is that start, so the run's last addition is enough;
            # starts only grow, so a finite last end keeps every time finite.
            raise ValueError(
                f"the engine clock stalls at {last} s: an iteration of "
                f"{duration} s does not advance it" if end == last else
                f"the engine clock overflows at {last} s: an iteration of "
                f"{duration} s takes it to {end}")
        runs.append((clock, m, duration, prefill_tokens, len(ids),
                     tuple(i.request_id for i in plan.prefill_items), ids,
                     len(waiting), len(running), kv_reserved, released))
        now = len(step_ends)

        for r in (decoding if whole else map(by_id.__getitem__, ids)):
            r.emitted += m
        done: list[RequestState] = []
        while heap and heap[0][0] <= now:
            r = states[heappop(heap)[1]]
            # An entry of a slice that has since closed is dropped.
            if r.emitted == r.spec.output_len:
                done.append(r)

        started: list[RequestState] = []
        for item in plan.prefill_items:
            rid = item.request_id
            req = by_id[rid]
            if req.phase == Phase.WAITING:
                req.phase = Phase.PREFILLING
                kv_reserved += req.kv_reservation
                waiting.remove(req)
                running.append(req)
                prefilling.append(req)
            req.prefill_done = item.end
            if req.prefill_done == req.spec.prompt_len:
                # Prefill produces the request's first output token.
                prefilling.remove(req)
                first[rid] = end
                req.emitted = 1
                if req.spec.output_len == 1:
                    done.append(req)
                else:
                    req.phase = Phase.DECODING
                    spans[rid] = [now]
                    heappush(heap, (now + req.spec.output_len - 1, rank[rid]))
                    started.append(req)

        shrank = False
        for req in done:
            rid = req.spec.request_id
            sp = spans.pop(rid, ())  # none for a one-token request
            if req.phase == Phase.DECODING:
                sp.append(now)
                i = decoding.index(req)
                del decoding[i]
                del decoding_ids[i]
                shrank = True
            req.phase = Phase.FINISHED
            kv_reserved -= req.kv_reservation
            running.remove(req)
            finished += 1
            # The token and the delivery times are the same slices of the
            # two clock lists.
            t0 = first.pop(rid)
            times = _slices(step_ends, t0, sp)
            delivery = None
            if held:
                delivery = _slices(step_deliveries, t0, sp)
                if delivery == times:
                    delivery = None
                else:
                    try:
                        _check_timeline(rid, req.spec.arrival, delivery, True,
                                        times)
                    except ValueError as exc:
                        raise SchedulerViolation(
                            f"{rid}: a held release reorders its "
                            f"tokens") from exc
            records[rank[rid]] = _unchecked(
                RequestTrace, rid, req.spec.arrival, times,
                req.spec.prompt_len, True, delivery)
        if started:
            if running[-len(started):] == started:
                # The last admitted, as under every built-in policy: they
                # follow every member in running.
                decoding += started
                decoding_ids += [r.spec.request_id for r in started]
            else:
                # Rebuilt from running, whose order holds even when a
                # callable's prefills complete out of admission order.
                decoding = [r for r in running if r.phase == Phase.DECODING]
                decoding_ids = [r.spec.request_id for r in decoding]
        if started or shrank:
            qstate.decoding = tuple(decoding)
            qstate.decode_ids = published = tuple(decoding_ids)
        clock = end

    return SimTrace(requests=records, iterations=IterationLog(tuple(runs)))
