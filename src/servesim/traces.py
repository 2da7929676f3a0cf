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

The record constructors, ``TokenTimeline``, ``RequestTrace`` and the
workload's ``RequestSpec``, decide what a time or an arrival may be: each
stores them as floats, by ``_floats``, and checks its timelines with one
rule, ``_check_timeline``.  The readers only decode JSON for them, and
``write_trace`` writes floats only.  A record whose values are good by
construction is built with ``_unchecked`` instead, which skips them:

* a record's timeline views and their clipped prefixes hold its checked
  times;
* the engine builds each request's token times strictly increasing from its
  arrival, and refuses a clock that stops advancing or overflows; only a
  held delivery timeline, which a scheduler's release instants shape, is
  checked, with the token times as its floor;
* ``delivery.delay_trace`` paces a checked timeline, so its delivery times
  never decrease nor precede generation; it checks only that the last one is
  finite.

orjson is the JSON-lines codec.  The readers read lines as bytes and decode
one with the stdlib decoder only when orjson refuses it: the NaN and
Infinity literals, a number past the double range, a lone surrogate; a line
that is not UTF-8 is refused by name.  orjson reads an int outside
[-2**63, 2**64) as a float, so the constructors refuse such an int field.
``write_trace`` writes the bytes of ``json.dumps``, each float its shortest
round-trip repr, so a load/save cycle is byte-stable and lossless.  Every
CSV artifact is written by ``write_csv``, which takes that text from orjson
where it is the repr, a column at a time by ``_number_texts``.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, takewhile
from operator import ge, itemgetter, not_
from typing import Iterable, NamedTuple

import numpy as np
import orjson


class TraceFormatError(ValueError):
    """A trace or workload file does not match the expected schema."""


def _check_scalars(record, kinds: tuple[tuple[str, type], ...]) -> None:
    """Raise TypeError unless each ``(name, kind)`` field of ``record`` is
    exactly of its kind, and ValueError for an int the reader reads as a
    float: the readers' rules, so that a record's file line reads back."""
    fields = record.__dict__
    for name, kind in kinds:
        value = fields[name]
        if type(value) is not kind:
            raise TypeError(f"{name}: expected {kind.__name__}, "
                            f"got {value!r}")
        if kind is int and not -2**63 <= value < 2**64:
            raise ValueError(f"{name}: an int outside [-2**63, 2**64)")


def _floats(request_id, values) -> tuple[float, ...]:
    """``values``, a list or tuple of real numbers, as a tuple of floats.

    An int or a float subclass converts as ``float()`` does.  A bool, a
    string or any other value, and an int past the float range, raise
    ValueError naming the request.
    """
    if type(values) in (list, tuple):
        if set(map(type, values)) <= {float}:
            return tuple(values)
        if all(isinstance(t, float) or type(t) is int for t in values):
            try:
                return tuple(map(float, values))
            except OverflowError:
                raise ValueError(f"{request_id}: an int past the float "
                                 f"range") from None
    raise ValueError(f"{request_id}: expected real numbers")


def _hold_floats(record, *times: str) -> None:
    """Store ``record``'s arrival and its ``times`` fields that are not None
    as ``_floats`` gives them."""
    fields = record.__dict__
    if type(record.arrival) is not float:
        fields["arrival"], = _floats(record.request_id, (record.arrival,))
    for name in times:
        if fields[name] is not None:
            fields[name] = _floats(record.request_id, fields[name])


def _check_timeline(request_id: str, arrival: float,
                    times: tuple[float, ...], complete: bool,
                    floor: tuple[float, ...] | None = None) -> None:
    """Raise ValueError unless ``times`` is a timeline a metric can score.

    The arrival is a finite float ``>= 0``, the times are finite floats
    non-decreasing from it, and a complete timeline holds at least one
    token.  A delivery timeline takes its generation times as ``floor``:
    one delivery per token, none before the token was generated.
    """
    # Written as not(...) so that NaN fails the checks.
    if not (0.0 <= arrival < math.inf):
        raise ValueError(f"{request_id}: arrival must be finite and >= 0")
    if complete and not times:
        raise ValueError(f"{request_id}: complete timeline with no tokens")
    prev = arrival
    for t in times:
        if not (t >= prev):
            prev = math.nan
            break
        prev = t
    # Every time lies in [arrival, prev], prev being the last token or the
    # arrival (NaN once one is out of order), so one check keeps them finite.
    if not math.isfinite(prev):
        raise ValueError(f"{request_id}: times must be finite, non-decreasing "
                         f"and not precede arrival")
    # -0.0 passes the comparisons above as 0.0.  It can only be a zero
    # arrival or one of the zero times that follow it.
    if arrival == 0.0:
        for t in (arrival, *takewhile(not_, times)):
            if math.copysign(1.0, t) < 0:
                raise ValueError(f"{request_id}: arrival and times must not "
                                 f"be -0.0")
    if floor is not None:
        if len(floor) != len(times):
            raise ValueError(f"{request_id}: delivery/generation length mismatch")
        if not all(map(ge, times, floor)):
            raise ValueError(f"{request_id}: delivery precedes generation")


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
        _check_scalars(self, (("request_id", str),))
        _hold_floats(self, "token_times")
        _check_timeline(self.request_id, self.arrival, self.token_times,
                        self.complete)

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
        return _view(self, self.token_times[:kept], False)


def _unchecked(cls, *values):
    """A ``cls`` record holding ``values``, one per field in declaration
    order, built without its checks.

    For values that are good by construction only: the record is frozen, so
    nothing checks them later.
    """
    record = object.__new__(cls)
    # Field by field, as the constructor sets them, so that the record's
    # dict shares its keys with the class's other instances; merging a
    # dict of the fields would give each record its own key table, up to
    # twice the record's size.
    record.__dict__.update(zip(cls.__dataclass_fields__, values))
    return record


def _view(of, times: tuple[float, ...], complete: bool) -> TokenTimeline:
    """A TokenTimeline of ``of``'s checked times, not checked again."""
    return _unchecked(TokenTimeline, of.request_id, of.arrival, times,
                      complete)


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
        _check_scalars(self, (("request_id", str), ("prompt_len", int),
                              ("completed", bool)))
        _hold_floats(self, "token_times", "delivery_times")
        _check_timeline(self.request_id, self.arrival, self.token_times,
                        self.completed)
        if self.delivery_times is not None:
            _check_timeline(self.request_id, self.arrival, self.delivery_times,
                            self.completed, self.token_times)

    def generation_timeline(self) -> TokenTimeline:
        return _view(self, self.token_times, self.completed)

    def delivery_timeline(self) -> TokenTimeline:
        """Delivery-side timeline; falls back to generation instants."""
        times = self.delivery_times if self.delivery_times is not None else self.token_times
        return _view(self, times, self.completed)


class IterationRecord(NamedTuple):
    """One engine iteration: timing, batch composition and engine state.

    ``queue_depth``, ``running`` and ``kv_reserved`` are the waiting
    requests, the running requests and the reserved KV tokens as the plan
    saw them.  ``release_s`` is the instant the plan's decode tokens were
    released at, or None when they were delivered at generation.  The
    records of one plan share its ``decode_ids`` tuple.
    """

    start: float
    duration: float
    prefill_tokens: int
    decode_seqs: int
    prefill_ids: tuple[str, ...]
    decode_ids: tuple[str, ...]
    queue_depth: int
    running: int
    kv_reserved: int
    release_s: float | None


def _expand(run: tuple) -> Iterable[IterationRecord]:
    """The records of one log entry, each start its duration after the one
    before, added as the engine advances its clock."""
    for start in accumulate(repeat(run[2], run[1] - 1), initial=run[0]):
        yield IterationRecord(start, *run[2:])


class IterationLog(Sequence):
    """The engine's iteration log, one entry per plan run.

    An entry is ``(start, count, duration, prefill_tokens, decode_seqs,
    prefill_ids, decode_ids, queue_depth, running, kv_reserved,
    release_s)``: ``count`` iterations of one plan, the first starting at
    ``start``, each later one ``duration`` after the one before, added
    sequentially as the engine advances its clock.  The log reads as one
    :class:`IterationRecord` per iteration.  An int index finds its entry
    by bisection and builds that entry's records only, while slicing builds
    the whole log first.  Two logs are equal when their records are.
    """

    __slots__ = ("_runs", "_ends", "_len")
    __hash__ = None

    def __init__(self, runs: list[tuple]):
        self._runs = runs
        # The number of iterations up to and including each entry.
        self._ends = list(accumulate(map(itemgetter(1), runs)))
        self._len = self._ends[-1] if runs else 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(_expand, self._runs))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("IterationLog index out of range")
        k = bisect.bisect_right(self._ends, i)
        run = self._runs[k]
        return next(islice(_expand(run), i - self._ends[k] + run[1], None))

    def __eq__(self, other):
        if not isinstance(other, IterationLog):
            return NotImplemented
        # Equal entries give equal records; one plan run as one entry or as
        # several gives the same records from different entries.
        return self._runs == other._runs or (
            self._len == other._len and list(self) == list(other))

    def __repr__(self) -> str:
        return (f"IterationLog({self._len} iterations in "
                f"{len(self._runs)} runs)")


@dataclass
class SimTrace:
    """Simulator output: per-request traces plus the iteration log."""

    requests: list[RequestTrace]
    iterations: IterationLog

    def total_tokens(self) -> int:
        return sum(len(r.token_times) for r in self.requests)


# orjson's float text is the repr for +-0.0 and for every magnitude in
# [_REPR_LOW, _REPR_HIGH).  Below it orjson writes 9.999999999999999e-05 in
# positional notation, from its top it writes 1e+16 as 1e16, and it writes
# NaN and the infinities as null.
_REPR_LOW = 1e-4
_REPR_HIGH = 1e16

# The rows an artifact writer formats and holds at once.
_CHUNK_ROWS = 1024


def _times_json(times: tuple[float, ...]) -> bytes:
    """A record's times as ``json.dumps`` writes them: by orjson where its
    float text is the repr.  The times are sorted and ``>= 0``, so the first
    nonzero one and the last decide."""
    nonzero = bisect.bisect_right(times, 0.0)
    if (nonzero == len(times) or times[nonzero] >= _REPR_LOW) and (
            not times or times[-1] < _REPR_HIGH):
        return orjson.dumps(times).replace(b",", b", ")
    return json.dumps(times).encode()


def _number_texts(values: Sequence, none: str = "") -> list[str]:
    """The ``repr`` of each of ``values``, floats and ints, as ``json`` and
    ``csv`` write them, and ``none`` for a None; a str raises TypeError.

    One ``orjson.dumps`` writes the whole column; a value whose orjson text
    is not the repr, a nonzero one outside [_REPR_LOW, _REPR_HIGH), NaN or
    an infinity, takes ``repr``, and so does every value of a column
    holding an int past 64 bits.
    """
    if None in values:
        texts = iter(_number_texts([v for v in values if v is not None]))
        return [none if v is None else next(texts) for v in values]
    if not values:
        return []
    try:
        dumped = orjson.dumps(values)
    except orjson.JSONEncodeError:  # an int past 64 bits
        if any(isinstance(v, str) for v in values):
            raise TypeError("a column of numbers holds a str") from None
        return list(map(repr, values))
    if b'"' in dumped:  # only a str's text holds a quote
        raise TypeError("a column of numbers holds a str")
    texts = dumped[1:-1].decode().split(",")
    magnitudes = np.abs(np.array(values, dtype=float))
    outside = (magnitudes != 0.0) & ~((magnitudes >= _REPR_LOW)
                                      & (magnitudes < _REPR_HIGH))
    for i in np.flatnonzero(outside).tolist():
        texts[i] = repr(values[i])
    return texts


def write_trace(path, records: Iterable[RequestTrace]) -> None:
    """One JSON line per record, the bytes ``json.dumps`` writes of its
    object."""
    with open(path, "wb") as f:
        for rec in records:
            delivery = b"" if rec.delivery_times is None else (
                b', "delivery_times_s": ' + _times_json(rec.delivery_times))
            f.write(b'{"request_id": %b, "arrival_s": %b, "token_times_s": '
                    b'%b, "prompt_len": %d, "completed": %b%b}\n' % (
                        json.dumps(rec.request_id).encode(),
                        float.__repr__(rec.arrival).encode(),
                        _times_json(rec.token_times), rec.prompt_len,
                        b"true" if rec.completed else b"false", delivery))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


# The decoder of a line orjson refuses.  Trace and workload times must be
# finite, so NaN and +-Infinity are rejected.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _field(obj: dict, key: str, kind: tuple[type, ...]):
    """``obj[key]``, checked to be exactly one of ``kind``: a bool is no int."""
    value = obj[key]
    if type(value) not in kind:
        raise TypeError(f"{key}: expected {kind[0].__name__}, got {value!r}")
    return value


def _read_jsonl(path, parse) -> list:
    """``parse(obj)`` for the JSON object on each non-blank line of ``path``.

    Lines end at a line feed.  A line that is not UTF-8 or not an object, or
    that ``parse`` rejects with a ``KeyError``, ``TypeError`` or
    ``ValueError``, raises :class:`TraceFormatError` naming the file and
    the line.
    """
    out = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                try:
                    obj = orjson.loads(line)
                except orjson.JSONDecodeError:
                    # The stdlib reads it, or refuses it by name.
                    text = line.decode("utf-8")
                    if not text.strip():
                        continue  # a line of Unicode white space is blank
                    obj = _DECODER.decode(text)
                if type(obj) is not dict:
                    raise TypeError(f"expected object, got {obj!r}")
                out.append(parse(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _parse_trace_record(obj: dict) -> RequestTrace:
    return RequestTrace(obj["request_id"], obj["arrival_s"],
                        obj["token_times_s"], obj["prompt_len"],
                        obj["completed"], obj.get("delivery_times_s"))


def read_trace(path) -> list[RequestTrace]:
    return _read_jsonl(path, _parse_trace_record)


ITERATIONS_CSV_HEADER = [
    "start_s", "iterations", "duration_s", "prefill_tokens", "decode_seqs",
    "prefill_ids", "decode_ids", "queue_depth", "running", "kv_reserved",
    "release_s",
]


# A field csv.writer quotes, doubling its quotes: one holding a comma, a
# quote or a line break.
_CSV_SPECIALS = (",", '"', "\r", "\n")


def _csv_texts(texts: Sequence[str]) -> Sequence[str]:
    """Each of ``texts`` as ``csv.writer`` writes it as a field."""
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIALS):
        return texts
    return ['"' + text.replace('"', '""') + '"'
            if any(c in text for c in _CSV_SPECIALS) else text
            for text in texts]


def write_csv(path, header: Sequence[str], *tables: Sequence) -> None:
    """``header``, then each table's rows, the bytes ``csv.writer`` writes.

    A table is a list of equal-length columns.  A ``str`` column is quoted
    as ``csv.writer`` quotes it; any other holds numbers, each written as
    its repr, and None, an empty field.  Mixing the two raises TypeError,
    unequal columns ValueError, and a file that cannot be finished is
    removed.  ``_CHUNK_ROWS`` rows are formatted at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        try:
            for table in ([[name] for name in header], *tables):
                strs = [bool(c) and isinstance(c[0], str) for c in table]
                for i in range(0, max(map(len, table), default=0),
                               _CHUNK_ROWS):
                    texts = [_csv_texts(c[i:i + _CHUNK_ROWS]) if is_str
                             else _number_texts(c[i:i + _CHUNK_ROWS])
                             for c, is_str in zip(table, strs)]
                    if len(texts) == 1:  # a lone empty field is quoted
                        texts = [[text or '""' for text in texts[0]]]
                    rows = map(",".join, zip(*texts, strict=True))
                    f.write("\r\n".join(rows) + "\r\n")
        except Exception:
            f.close()
            os.remove(path)
            raise


def write_iterations_csv(path, iterations: IterationLog) -> None:
    """Iteration log for replay and audit of scheduler decisions.

    One row per log entry: its first start, its iteration count and the
    entry's other fields, ids ``|``-joined and no release an empty cell.
    An id reads back unless it is empty or holds ``|``, which the engine's
    ids, those of its ``RequestSpec``s, never are.
    The start of each later iteration of the entry is the one before plus
    ``duration_s``, added sequentially as the engine advanced its clock.
    Written by ``write_csv``.
    """
    write_csv(path, ITERATIONS_CSV_HEADER, [
        list(map("|".join, column)) if name.endswith("_ids") else column
        for name, column in zip(ITERATIONS_CSV_HEADER,
                                zip(*iterations._runs))])
