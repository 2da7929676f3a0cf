"""Token timelines and the trace file formats shared by the simulator and the
metrics engine.

A trace is a JSON-lines file with one record per request:

    {"request_id": "r000001", "arrival_s": 1.25, "token_times_s": [...],
     "prompt_len": 180, "completed": true}

``token_times_s`` holds the generation instant of every output token, in
absolute seconds from run start.  A record may additionally carry
``delivery_times_s`` when a delivery transform (or a scheduler with deferred
release) separated delivery from generation; each delivery instant is never
earlier than the matching generation instant.

Timestamps are serialized with Python's shortest round-trip float repr, so a
load/save cycle is byte-stable and value-lossless at full double precision.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


class TraceFormatError(ValueError):
    """A trace or workload file does not match the expected schema."""


@dataclass(frozen=True)
class TokenTimeline:
    """Per-request token instants, the unit every metric consumes.

    ``complete`` is False for a request whose timeline was clipped at an
    evaluation-window boundary (or that had produced no tokens yet); such
    timelines may be empty and never count as SLO-attaining.
    """

    request_id: str
    arrival: float
    token_times: tuple[float, ...]
    complete: bool = True

    def __post_init__(self):
        # Written as not(>=) so that NaN fails the check.
        if not (self.arrival >= 0.0):
            raise ValueError(f"{self.request_id}: negative or NaN arrival time")
        if self.complete and not self.token_times:
            raise ValueError(f"{self.request_id}: complete timeline with no tokens")
        prev = self.arrival
        for t in self.token_times:
            if not (t >= prev):
                raise ValueError(
                    f"{self.request_id}: token times must be non-decreasing, "
                    f"not NaN, and not precede arrival"
                )
            prev = t
        # Every time lies in [arrival, prev], prev being the last token (or
        # the arrival), so one check keeps them all finite.
        if not math.isfinite(prev):
            raise ValueError(f"{self.request_id}: times must be finite")

    @property
    def num_tokens(self) -> int:
        return len(self.token_times)

    def clipped(self, end: float) -> "TokenTimeline":
        """Timeline restricted to tokens at or before ``end``.

        Token times are non-decreasing, so the kept tokens are a prefix;
        a timeline with nothing past ``end`` is returned as it is.
        """
        kept = bisect.bisect_right(self.token_times, end)
        if kept == len(self.token_times):
            return self
        return TokenTimeline(self.request_id, self.arrival,
                             self.token_times[:kept], False)


@dataclass(frozen=True)
class RequestTrace:
    """One request's full record as written to / read from a trace file."""

    request_id: str
    arrival: float
    token_times: tuple[float, ...]
    prompt_len: int
    completed: bool
    delivery_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.delivery_times is not None:
            if len(self.delivery_times) != len(self.token_times):
                raise ValueError(
                    f"{self.request_id}: delivery/generation length mismatch"
                )
            for g, d in zip(self.token_times, self.delivery_times):
                if not (d >= g):
                    raise ValueError(
                        f"{self.request_id}: delivery precedes generation"
                    )

    def generation_timeline(self) -> TokenTimeline:
        return TokenTimeline(
            self.request_id, self.arrival, self.token_times, self.completed
        )

    def delivery_timeline(self) -> TokenTimeline:
        """Delivery-side timeline; falls back to generation instants."""
        times = self.delivery_times if self.delivery_times is not None else self.token_times
        return TokenTimeline(self.request_id, self.arrival, times, self.completed)

    def with_delivery(self, delivery_times: Sequence[float]) -> "RequestTrace":
        return RequestTrace(
            self.request_id,
            self.arrival,
            self.token_times,
            self.prompt_len,
            self.completed,
            tuple(delivery_times),
        )


class IterationRecord(NamedTuple):
    """One engine iteration: timing, batch composition, and queue depth.

    A named tuple, not a dataclass: the engine builds one per iteration, and
    a tuple builds several times faster.  The records of one decode run share
    one ``decode_ids`` tuple.
    """

    start: float
    duration: float
    prefill_tokens: int
    decode_seqs: int
    prefill_ids: tuple[str, ...]
    decode_ids: tuple[str, ...]
    queue_depth: int


@dataclass
class SimTrace:
    """Simulator output: per-request traces plus the iteration log."""

    requests: list[RequestTrace]
    iterations: list[IterationRecord]

    def total_tokens(self) -> int:
        return sum(len(r.token_times) for r in self.requests)

    def makespan(self) -> float:
        return max((r.token_times[-1] for r in self.requests if r.token_times),
                   default=0.0)


def _record_to_obj(rec: RequestTrace) -> dict:
    obj = {
        "request_id": rec.request_id,
        "arrival_s": rec.arrival,
        "token_times_s": list(rec.token_times),
        "prompt_len": rec.prompt_len,
        "completed": rec.completed,
    }
    if rec.delivery_times is not None:
        obj["delivery_times_s"] = list(rec.delivery_times)
    return obj


def write_trace(path, records: Iterable[RequestTrace]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(_record_to_obj(rec)))
            f.write("\n")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


# Trace and workload times must be finite, so NaN and +-Infinity are
# rejected.  One shared decoder: json.loads with arguments builds a new one
# for every line.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


_NUMBER = (float, int)


def _field(obj: dict, key: str, kind: tuple[type, ...]):
    """``obj[key]``, checked to be exactly one of ``kind``: a bool is no int."""
    value = obj[key]
    if type(value) not in kind:
        raise TypeError(f"{key}: expected {kind[0].__name__}, got {value!r}")
    return value


def _times(obj: dict, key: str) -> list:
    """``obj[key]``, checked to be a list of numbers: a bool is no number."""
    times = _field(obj, key, (list,))
    if not set(map(type, times)) <= {float, int}:
        raise TypeError(f"{key}: expected a list of numbers")
    return times


def _all_finite(times: list) -> bool:
    # sum() is one C loop over the raw JSON numbers, finite whenever every
    # time is; a number too large for a double (1e400) parses as inf.  Only
    # a sum that is not finite needs the exact per-time check, as finite
    # times may overflow it.
    return math.isfinite(sum(times)) or all(map(math.isfinite, times))


def _read_jsonl(path, parse) -> list:
    """``parse(obj)`` for the JSON object on each non-blank line of ``path``.

    A line that is not an object, or that ``parse`` rejects with a
    ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError``, raises
    :class:`TraceFormatError` naming the file and the line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = _DECODER.decode(line)
                if type(obj) is not dict:
                    raise TypeError(f"expected object, got {obj!r}")
                out.append(parse(obj))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _parse_trace_record(obj: dict) -> RequestTrace:
    request_id = _field(obj, "request_id", (str,))
    arrival = _field(obj, "arrival_s", _NUMBER)
    token_times = _times(obj, "token_times_s")
    delivery = obj.get("delivery_times_s")
    if delivery is not None:
        delivery = _times(obj, "delivery_times_s")
    if not (math.isfinite(arrival) and _all_finite(token_times)
            and (delivery is None or _all_finite(delivery))):
        raise ValueError(f"{request_id}: arrival, token and "
                         f"delivery times must be finite")
    return RequestTrace(
        request_id=request_id,
        arrival=float(arrival),
        token_times=tuple(map(float, token_times)),
        prompt_len=_field(obj, "prompt_len", (int,)),
        completed=_field(obj, "completed", (bool,)),
        delivery_times=(None if delivery is None
                        else tuple(map(float, delivery))),
    )


def read_trace(path) -> list[RequestTrace]:
    return _read_jsonl(path, _parse_trace_record)


ITERATIONS_CSV_HEADER = [
    "start_s", "duration_s", "prefill_tokens", "decode_seqs",
    "prefill_ids", "decode_ids", "queue_depth",
]


def write_iterations_csv(path, iterations: Iterable[IterationRecord]) -> None:
    """Iteration log for replay and audit of scheduler decisions."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ITERATIONS_CSV_HEADER)
        # The records of a decode run share one decode_ids tuple: join it
        # once per run, not once per iteration.
        decode_ids, joined = None, ""
        for it in iterations:
            if it.decode_ids is not decode_ids:
                decode_ids = it.decode_ids
                joined = "|".join(decode_ids)
            writer.writerow([
                repr(it.start), repr(it.duration),
                it.prefill_tokens, it.decode_seqs,
                "|".join(it.prefill_ids), joined,
                it.queue_depth,
            ])
