"""Batch-formation policies for the iteration-level engine.

Three policies are provided, all FCFS by arrival with request-id tie-breaks:

* ``VllmLike``: whenever the head of the waiting queue fits the engine limits,
  schedule a prefill-only batch of full prompts (packing further waiting
  requests while they fit), stalling all decodes for that iteration.
* ``ChunkedPrefill``: every batch carries all decoding requests plus at most
  one prompt chunk from the head waiting/prefilling request, so a long prompt
  is consumed over several hybrid batches instead of one stall.
* ``DecodePrepone``: before admitting a waiting request's prefill, run ``n``
  extra decode-only iterations for the currently decoding requests and hold
  back each such batch's tokens until a release instant, staggered by
  ``t_delay`` and capped at the projected completion of the upcoming prefill.
  The buffered tokens are then drip-released while the prefill runs.
  ``VllmLike`` is the same planner with ``n = 0``.

Policies are deterministic functions of the queue state; ``DecodePrepone``
keeps its phase bookkeeping in ``QueueState.prepone`` between iterations.
A :class:`BatchPlan` says only what runs and when its decode tokens are
released, so the engine needs no knowledge of any policy.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Union

from .engine.config import EngineConfig, iteration_time
from .workload import RequestSpec


class SchedulerViolation(RuntimeError):
    """A policy emitted a batch that breaks the engine limits."""


# Policy parameter records -----------------------------------------------------


@dataclass(frozen=True)
class VllmLike:
    pass


@dataclass(frozen=True)
class ChunkedPrefill:
    chunk_tokens: int

    def __post_init__(self):
        if self.chunk_tokens < 1:
            raise ValueError("chunk_tokens must be >= 1")


@dataclass(frozen=True)
class DecodePrepone:
    """Prepone ``n`` decode tokens ahead of each competing prefill.

    ``t_delay`` staggers the release of the preponed tokens; ``None`` selects
    an automatic spacing of prefill_duration / (n + 1), which spreads the
    buffered tokens evenly across the prefill they bridge.
    """

    n: int
    t_delay: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("prepone n must be >= 1")
        if self.t_delay is not None and not (0 <= self.t_delay < math.inf):
            raise ValueError("t_delay must be non-negative and finite")


SchedulerPolicy = Union[VllmLike, ChunkedPrefill, DecodePrepone]


# Queue state ------------------------------------------------------------------


class Phase(enum.IntEnum):
    WAITING = 0
    PREFILLING = 1
    DECODING = 2
    FINISHED = 3


@dataclass(eq=False)
class RequestState:
    # Compared by identity: one state per request, so the engine's
    # list.remove on its queues never calls a field-by-field __eq__.
    spec: RequestSpec
    phase: Phase = Phase.WAITING
    prefill_done: int = 0
    emitted: int = 0

    @property
    def remaining_prompt(self) -> int:
        return self.spec.prompt_len - self.prefill_done

    @property
    def remaining_output(self) -> int:
        return self.spec.output_len - self.emitted

    @property
    def kv_reservation(self) -> int:
        # Full final footprint, reserved at admission so a running request can
        # never be starved of cache mid-decode (no preemption support).
        return self.spec.prompt_len + self.spec.output_len


@dataclass
class PreponeState:
    """Progress of an in-flight prepone phase (DecodePrepone only)."""

    remaining: int
    k_next: int
    planned: list[RequestState]
    release_cap: float
    t_delay: float


_request_id = attrgetter("spec.request_id")


@dataclass
class QueueState:
    """Scheduler-visible snapshot of the engine at an iteration boundary.

    ``decoding`` holds the DECODING members of ``running``, in ``running``
    order, and ``decode_ids`` their ids; ``prefilling_members`` holds the
    PREFILLING members of ``running``, in ``running`` order.  All three are
    derived here, so a hand-built state is consistent.  The engine keeps
    them itself: it republishes the two decode tuples only when the members
    change, so plans that decode the same members share one ``decode_ids``
    tuple, and it appends a request to ``prefilling_members`` at admission
    and removes it when its prefill completes.  Planners only read them.
    """

    clock: float
    waiting: list[RequestState]
    running: list[RequestState]
    kv_reserved: int
    engine: EngineConfig
    prepone: PreponeState | None = None
    decoding: tuple[RequestState, ...] = field(init=False)
    decode_ids: tuple[str, ...] = field(init=False)
    prefilling_members: list[RequestState] = field(init=False)

    def __post_init__(self):
        self.set_decoding(
            [r for r in self.running if r.phase == Phase.DECODING])
        self.prefilling_members = [r for r in self.running
                                   if r.phase == Phase.PREFILLING]

    def set_decoding(self, decoding: Iterable[RequestState]) -> None:
        self.decoding = tuple(decoding)
        self.decode_ids = tuple(map(_request_id, self.decoding))

    def prefilling(self) -> RequestState | None:
        """The first PREFILLING member of ``running``, if any."""
        return self.prefilling_members[0] if self.prefilling_members else None


# Batch plans ------------------------------------------------------------------


@dataclass(frozen=True)
class PrefillItem:
    request_id: str
    start: int
    end: int  # exclusive token index within the prompt


@dataclass(frozen=True)
class BatchPlan:
    """What one iteration runs, and when its decode tokens are released.

    ``release_s`` is the instant at which every token the batch's decode
    members generate is delivered; it may not precede the batch's end.
    ``None`` delivers each token when it is generated.
    """

    prefill_items: tuple[PrefillItem, ...] = ()
    decode_ids: tuple[str, ...] = ()
    release_s: float | None = None

    @property
    def is_empty(self) -> bool:
        return not self.prefill_items and not self.decode_ids

    @property
    def prefill_tokens(self) -> int:
        return sum(item.end - item.start for item in self.prefill_items)

    @property
    def decode_seqs(self) -> int:
        return len(self.decode_ids)


def _admissible_prefix(state: QueueState, full_prompt_in_batch: bool,
                       ) -> list[RequestState]:
    """Waiting requests admissible right now, scanned FCFS from the head.

    Scanning stops at the first request that does not fit, preserving arrival
    order (no overtaking).  With ``full_prompt_in_batch`` the whole prompt
    must fit the remaining batch-token budget, and multiple prompts may pack
    into one batch; otherwise (chunked admission) only a single request is
    taken and one chunk of its prompt will be scheduled by the caller.
    """
    eng = state.engine
    token_budget = eng.max_batch_tokens
    seq_budget = eng.max_running_seqs - len(state.running)
    kv_budget = eng.kv_capacity_tokens - state.kv_reserved
    picked = []
    for req in state.waiting:
        if seq_budget < 1 or req.kv_reservation > kv_budget:
            break
        if full_prompt_in_batch and req.spec.prompt_len > token_budget:
            break
        picked.append(req)
        seq_budget -= 1
        kv_budget -= req.kv_reservation
        if full_prompt_in_batch:
            token_budget -= req.spec.prompt_len
        else:
            break  # chunked admission takes one request at a time
    return picked


def next_batch_chunked(state: QueueState, chunk_tokens: int) -> BatchPlan:
    """Hybrid batching: all decodes plus one prompt chunk from the head."""
    decode_ids = state.decode_ids
    token_budget = state.engine.max_batch_tokens - len(decode_ids)

    head = state.prefilling()
    if head is None:
        admitted = _admissible_prefix(state, full_prompt_in_batch=False)
        head = admitted[0] if admitted else None

    if head is not None:
        span = min(chunk_tokens, head.remaining_prompt, token_budget)
        if span >= 1:
            item = PrefillItem(head.spec.request_id, head.prefill_done,
                               head.prefill_done + span)
            return BatchPlan(prefill_items=(item,), decode_ids=decode_ids)
    return BatchPlan(decode_ids=decode_ids)


def _prepone_projection(state: QueueState, n: int, planned: list[RequestState],
                        ) -> tuple[int, float, float]:
    """Plan a prepone phase: iteration count, prefill duration, projected end.

    The projection replays the upcoming decode iterations exactly (membership
    shrinks as requests run out of output tokens), so the release cap equals
    the true completion time of the planned prefill.
    """
    eng = state.engine
    remaining = sorted(r.remaining_output for r in state.decoding)
    t = state.clock
    iters = 0
    for j in range(1, n + 1):
        # The members with at least j tokens left.
        members = len(remaining) - bisect_left(remaining, j)
        if members == 0:
            break
        t = t + iteration_time(0, members, eng)
        iters += 1
    prefill_dur = iteration_time(sum(r.spec.prompt_len for r in planned), 0,
                                 eng)
    return iters, prefill_dur, t + prefill_dur


def _prefill(requests: list[RequestState]) -> BatchPlan:
    return BatchPlan(prefill_items=tuple(
        PrefillItem(r.spec.request_id, 0, r.spec.prompt_len)
        for r in requests))


def _held_decode(state: QueueState, k: int) -> BatchPlan:
    """The phase's k-th decode batch, released ``k`` delays after its end but
    no later than the planned prefill's end (and never before its own)."""
    ps = state.prepone
    decode_ids = state.decode_ids
    end = state.clock + iteration_time(0, len(decode_ids), state.engine)
    return BatchPlan(decode_ids=decode_ids,
                     release_s=max(end, min(end + k * ps.t_delay,
                                            ps.release_cap)))


def next_batch_prepone(state: QueueState, n: int,
                       t_delay: float | None) -> BatchPlan:
    """Prefill-first batching with ``n`` decodes preponed before each prefill.

    Waiting prompts that fit preempt all decoding; with ``n = 0`` this is
    ``VllmLike``.  Updates ``state.prepone`` as a phase runs.
    """
    ps = state.prepone
    decoding = state.decoding
    if ps is not None:
        if ps.remaining > 0 and decoding:
            k = ps.k_next
            ps.remaining -= 1
            ps.k_next += 1
            return _held_decode(state, k)
        # Phase exhausted (or every decoder finished early): run the prefill
        # that the phase was bridging.  Nothing admits a request while a
        # phase runs, so the planned requests are still waiting.
        state.prepone = None
        return _prefill(ps.planned)

    admissible = _admissible_prefix(state, full_prompt_in_batch=True)
    if admissible and decoding and n > 0:
        iters, prefill_dur, cap = _prepone_projection(state, n, admissible)
        state.prepone = PreponeState(
            remaining=iters - 1, k_next=2, planned=admissible,
            release_cap=cap,
            t_delay=prefill_dur / (n + 1) if t_delay is None else t_delay)
        return _held_decode(state, 1)
    if admissible:
        return _prefill(admissible)
    return BatchPlan(decode_ids=state.decode_ids)


def next_batch(policy: SchedulerPolicy, state: QueueState) -> BatchPlan:
    if isinstance(policy, VllmLike):
        return next_batch_prepone(state, 0, None)
    if isinstance(policy, ChunkedPrefill):
        return next_batch_chunked(state, policy.chunk_tokens)
    if isinstance(policy, DecodePrepone):
        return next_batch_prepone(state, policy.n, policy.t_delay)
    raise TypeError(f"unknown scheduler policy: {policy!r}")


def scheduler_tag(policy: SchedulerPolicy) -> str:
    if isinstance(policy, VllmLike):
        return "vllm_like"
    if isinstance(policy, ChunkedPrefill):
        return f"chunked{policy.chunk_tokens}"
    if isinstance(policy, DecodePrepone):
        return f"prepone{policy.n}"
    raise TypeError(f"unknown scheduler policy: {policy!r}")
