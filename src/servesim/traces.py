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
from dataclasses import dataclass
from typing import Iterable, Sequence


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
        if self.arrival < 0.0:
            raise ValueError(f"{self.request_id}: negative arrival time")
        if self.complete and not self.token_times:
            raise ValueError(f"{self.request_id}: complete timeline with no tokens")
        prev = self.arrival
        for t in self.token_times:
            if t < prev:
                raise ValueError(
                    f"{self.request_id}: token times must be non-decreasing "
                    f"and not precede arrival"
                )
            prev = t

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
                if d < g:
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


@dataclass(frozen=True)
class IterationRecord:
    """One engine iteration: timing, batch composition, and queue depth."""

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


def read_trace(path) -> list[RequestTrace]:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                delivery = obj.get("delivery_times_s")
                rec = RequestTrace(
                    request_id=str(obj["request_id"]),
                    arrival=float(obj["arrival_s"]),
                    token_times=tuple(map(float, obj["token_times_s"])),
                    prompt_len=int(obj["prompt_len"]),
                    completed=bool(obj["completed"]),
                    delivery_times=None if delivery is None
                    else tuple(map(float, delivery)),
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
            records.append(rec)
    return records


ITERATIONS_CSV_HEADER = [
    "start_s", "duration_s", "prefill_tokens", "decode_seqs",
    "prefill_ids", "decode_ids", "queue_depth",
]


def write_iterations_csv(path, iterations: Iterable[IterationRecord]) -> None:
    """Iteration log for replay and audit of scheduler decisions."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ITERATIONS_CSV_HEADER)
        for it in iterations:
            writer.writerow([
                repr(it.start), repr(it.duration),
                it.prefill_tokens, it.decode_seqs,
                "|".join(it.prefill_ids), "|".join(it.decode_ids),
                it.queue_depth,
            ])
