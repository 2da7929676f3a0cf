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
rule, ``_check_timeline``.  The workload readers only decode JSON for them,
and ``write_trace`` writes floats only.

``read_trace`` holds a trace as columns, a :class:`TraceRecords`, and reads
it ``_READ_LINES`` lines at a time, so that it holds the columns' parts and
one chunk's decoded lines; it joins the parts a column at a time, freeing
each column's parts as it goes.  ``_screened`` passes a chunk only when
orjson reads every line and each value has the exact type a record stores:
a str id, float arrival and times, an int ``prompt_len`` and a bool
``completed``.  ``_timelines_hold`` then states ``_check_timeline``'s rule
once more, over the chunk's flat arrays.  Any chunk in doubt goes line by
line to the constructors, which convert an int time or refuse the first
bad line with their own message, so the reader accepts what they accept.

A record whose values are good by construction is built with
``_unchecked`` instead, which skips the checks:

* a record's timeline views and their clipped prefixes hold its checked
  times, and so do a read trace's records and a window's timelines, built
  from their columns on access;
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
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, takewhile
from operator import attrgetter, ge, itemgetter, not_
from typing import Iterable

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


@dataclass(frozen=True)
class IterationLog:
    """The engine's iteration log, one entry per plan run.

    ``runs`` holds each entry as a tuple in ``ITERATIONS_CSV_HEADER``
    order, ``(start, count, duration, prefill_tokens, decode_seqs,
    prefill_ids, decode_ids, queue_depth, running, kv_reserved,
    release_s)``: ``count`` iterations of one plan, the first starting at
    ``start``, each later one ``duration`` after the one before, added
    sequentially as the engine advances its clock.  ``queue_depth``,
    ``running`` and ``kv_reserved`` are the waiting requests, the running
    requests and the reserved KV tokens as the plan saw them;
    ``release_s`` is the instant the plan's decode tokens were released at,
    or None when they were delivered at generation.  ``len()`` counts
    iterations.
    """

    runs: tuple[tuple, ...]

    def __len__(self) -> int:
        return sum(map(itemgetter(1), self.runs))


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
# The lines read_trace decodes and holds at once: their decoded objects
# take several times their bytes.
_READ_LINES = 128


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


@contextmanager
def _writing(path, mode: str, **kwargs):
    """``path`` opened for writing; a write that raises removes it, so a
    file is either finished or absent."""
    with open(path, mode, **kwargs) as f:
        try:
            yield f
        except Exception:
            f.close()
            os.remove(path)
            raise


def write_trace(path, records: Iterable[RequestTrace]) -> None:
    """One JSON line per record, the bytes ``json.dumps`` writes of its
    object; a trace that cannot be written leaves no file."""
    with _writing(path, "wb") as f:
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


def _parse_lines(path, numbered: Iterable[tuple[int, bytes]], parse) -> list:
    """``parse(obj)`` for the JSON object on each of the ``numbered`` lines
    that is not blank.

    A line that is not UTF-8 or not an object, or that ``parse`` rejects
    with a ``KeyError``, ``TypeError`` or ``ValueError``, raises
    :class:`TraceFormatError` naming the file and the line.
    """
    out = []
    for lineno, line in numbered:
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


def _read_jsonl(path, parse) -> list:
    """``parse(obj)`` for the JSON object on each non-blank line of
    ``path``, as :func:`_parse_lines` reads them.  Lines end at a line
    feed."""
    with open(path, "rb") as f:
        return _parse_lines(path, enumerate(f, start=1), parse)


def _parse_trace_record(obj: dict) -> RequestTrace:
    return RequestTrace(obj["request_id"], obj["arrival_s"],
                        obj["token_times_s"], obj["prompt_len"],
                        obj["completed"], obj.get("delivery_times_s"))


def _flat(timelines: Sequence[Sequence[float]]
          ) -> tuple[np.ndarray, np.ndarray]:
    """Each timeline's token count, and all the times in one float array,
    the timelines end to end."""
    counts = np.fromiter(map(len, timelines), np.intp, len(timelines))
    return counts, np.fromiter(chain.from_iterable(timelines), float,
                               int(counts.sum()))


def _columns(request_ids, arrivals, token_times, prompt_lens, completed,
             delivery_times) -> tuple:
    """The per-request fields of some records, a field each, in
    :class:`TraceRecords`' layout: the times flat, and a record without
    delivery times holding its token times in the delivery array."""
    has_delivery = [d is not None for d in delivery_times]
    counts, times = _flat(token_times)
    delivery = times if not any(has_delivery) else np.fromiter(
        chain.from_iterable(t if d is None else d
                            for t, d in zip(token_times, delivery_times)),
        float, len(times))
    return (list(request_ids), np.array(arrivals, float), list(prompt_lens),
            np.array(completed, bool), counts, times, delivery,
            np.array(has_delivery, bool))


def _timelines_hold(arrivals, completed, counts, times, delivery) -> bool:
    """Whether every request of :func:`_columns`' layout passes
    ``_check_timeline``, its delivery times with its token times as floor.

    The same rule, over the flat arrays at once; the caller has checked
    that each delivery timeline is as long as its tokens.
    """
    # Written so that NaN fails, as in _check_timeline; the sign bits below
    # refuse a negative arrival.
    if not np.all(arrivals < math.inf):
        return False
    if np.any(completed & (counts == 0)):
        return False
    # Each time is at least the one before it, or its arrival when it is
    # its request's first, and below infinity.
    has_tokens = counts > 0
    starts = (np.cumsum(counts) - counts)[has_tokens]
    for flat in (times, delivery):
        before = np.empty_like(flat)
        before[1:] = flat[:-1]
        before[starts] = arrivals[has_tokens]
        if not np.all((flat >= before) & (flat < math.inf)):
            return False
    # A sign bit is a negative arrival or a -0.0: every time is at least
    # its arrival by now.
    if (np.signbit(arrivals).any() or np.signbit(times).any()
            or np.signbit(delivery).any()):
        return False
    return bool(np.all(delivery >= times))


# A trace line's fields, as the screen reads them.
_TRACE_KEYS = itemgetter("request_id", "arrival_s", "token_times_s",
                         "prompt_len", "completed")


def _screened(lines: list[bytes]) -> tuple | None:
    """:func:`_columns` of a chunk of trace lines when orjson reads each
    line and every value passes a screen that accepts only records the
    constructors accept, else None.

    The screen takes exact types only: an int arrival or time, which the
    constructors convert, fails it.  orjson reads an int outside
    [-2**63, 2**64) as a float, so every int it gives is in the
    constructors' range.
    """
    try:
        objs = list(map(orjson.loads, lines))
    except orjson.JSONDecodeError:
        return None
    if set(map(type, objs)) != {dict}:
        return None
    try:
        ids, arrivals, times, prompt_lens, completed = zip(
            *map(_TRACE_KEYS, objs))
    except KeyError:
        return None
    delivery = [obj.get("delivery_times_s") for obj in objs]
    if not (set(map(type, ids)) == {str}
            and set(map(type, arrivals)) == {float}
            and set(map(type, prompt_lens)) == {int}
            and set(map(type, completed)) == {bool}
            and set(map(type, times)) == {list}
            and set(map(type, delivery)) <= {list, type(None)}
            and set(map(type, chain.from_iterable(times))) <= {float}
            and set(map(type, chain.from_iterable(filter(None, delivery))))
            <= {float}
            and all(d is None or len(d) == len(t)
                    for t, d in zip(times, delivery))):
        return None
    columns = _columns(ids, arrivals, times, prompt_lens, completed, delivery)
    _, arrivals, _, completed, counts, times, delivery, _ = columns
    return columns if _timelines_hold(arrivals, completed, counts, times,
                                      delivery) else None


def read_trace(path) -> TraceRecords:
    """The records of a trace file, as columns.

    The file is read ``_READ_LINES`` lines at a time.  A chunk whose
    lines but the blank ones :func:`_screened` passes goes to the columns
    as it is; any other goes line by line through the record constructors,
    which refuse its first bad line by name or convert its values.  The
    chunks' parts are joined a column at a time, each column's parts freed
    as it is joined.
    """
    parts = []
    with open(path, "rb") as f:
        lineno = 1
        while chunk := list(islice(f, _READ_LINES)):
            columns = _screened([line for line in chunk
                                 if not line.isspace()])
            if columns is None:
                columns = _record_columns(_parse_lines(
                    path, enumerate(chunk, start=lineno),
                    _parse_trace_record))
            parts.append(columns)
            lineno += len(chunk)
    *columns, delivery, has_delivery = map(list, zip(
        *(parts or [_record_columns([])])))
    del parts
    columns = list(map(_joined, columns))
    has_delivery = _joined(has_delivery)
    # Without delivery times, the token times stand in for them.
    return TraceRecords(*columns, _joined(delivery) if has_delivery.any()
                        else columns[-1], has_delivery)


def _joined(parts: list):
    """One column of a trace from its chunks' ``parts``, which it empties
    so that each part is freed once joined."""
    column = (np.concatenate(parts) if type(parts[0]) is np.ndarray
              else list(chain.from_iterable(parts)))
    parts.clear()
    return column


_RECORD_FIELDS = attrgetter("request_id", "arrival", "token_times",
                            "prompt_len", "completed", "delivery_times")


def _record_columns(records: list[RequestTrace]) -> tuple:
    """:func:`_columns` of checked records."""
    return _columns(*(zip(*map(_RECORD_FIELDS, records)) if records
                      else [()] * 6))


class TraceRecords(Sequence):
    """Trace records held as columns, each record built on access.

    Per request, in order: ``request_ids``, ``arrivals``, ``prompt_lens``,
    ``completed``, ``counts`` (its tokens) and ``has_delivery``.  The times
    are flat, the requests end to end: ``token_times``, and
    ``delivery_times``, where a request without delivery times holds its
    token times.  The arrays are read-only.  Indexing, iteration and
    equality with a list of records build :class:`RequestTrace` records of
    the columns' checked values.
    """

    __slots__ = ("request_ids", "arrivals", "prompt_lens", "completed",
                 "counts", "token_times", "delivery_times", "has_delivery",
                 "_offsets")
    __hash__ = None

    def __init__(self, request_ids, arrivals, prompt_lens, completed, counts,
                 token_times, delivery_times, has_delivery):
        self.request_ids = tuple(request_ids)
        self.prompt_lens = tuple(prompt_lens)
        for name, array in (("arrivals", arrivals), ("completed", completed),
                            ("counts", counts), ("token_times", token_times),
                            ("delivery_times", delivery_times),
                            ("has_delivery", has_delivery)):
            array.flags.writeable = False
            setattr(self, name, array)
        # Each request's first time and its end, as Python ints.
        self._offsets = [0, *np.cumsum(counts).tolist()]

    def __len__(self) -> int:
        return len(self.request_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("TraceRecords index out of range")
        first, end = self._offsets[i], self._offsets[i + 1]
        times = tuple(self.token_times[first:end].tolist())
        delivery = (tuple(self.delivery_times[first:end].tolist())
                    if self.has_delivery[i] else None)
        return _unchecked(RequestTrace, self.request_ids[i],
                          self.arrivals[i].item(), times, self.prompt_lens[i],
                          self.completed[i].item(), delivery)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (list, TraceRecords)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"TraceRecords({len(self)} records)"


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


def write_csv(path, header: Sequence[str], tables: Iterable[Sequence]) -> None:
    """``header``, then each table's rows, the bytes ``csv.writer`` writes.

    ``tables`` are taken one at a time, each a list of equal-length columns,
    so a caller can pass a long table as a generator of its chunks.  A
    ``str`` column is quoted as ``csv.writer`` quotes it; any other holds
    numbers, each written as its repr, and None, an empty field.  Mixing
    the two in a table raises TypeError, unequal columns ValueError, and a
    file that cannot be finished is removed.  ``_CHUNK_ROWS`` rows are
    formatted at a time.
    """
    with _writing(path, "w", newline="", encoding="utf-8") as f:
        for table in chain([[[name] for name in header]], tables):
            strs = [bool(c) and isinstance(c[0], str) for c in table]
            for i in range(0, max(map(len, table), default=0), _CHUNK_ROWS):
                texts = [_csv_texts(c[i:i + _CHUNK_ROWS]) if is_str
                         else _number_texts(c[i:i + _CHUNK_ROWS])
                         for c, is_str in zip(table, strs)]
                if len(texts) == 1:  # a lone empty field is quoted
                    texts = [[text or '""' for text in texts[0]]]
                rows = map(",".join, zip(*texts, strict=True))
                f.write("\r\n".join(rows) + "\r\n")


def write_iterations_csv(path, iterations: IterationLog) -> None:
    """Iteration log for replay and audit of scheduler decisions.

    One row per log entry: its first start, its iteration count and the
    entry's other fields, ids ``|``-joined and no release an empty cell.
    An id reads back unless it is empty or holds ``|``, which the engine's
    ids, those of its ``RequestSpec``s, never are.
    The start of each later iteration of the entry is the one before plus
    ``duration_s``, added sequentially as the engine advanced its clock.
    Written by ``write_csv``, ``_CHUNK_ROWS`` entries at a time.
    """
    runs = iterations.runs
    write_csv(path, ITERATIONS_CSV_HEADER, (
        [list(map("|".join, column)) if name.endswith("_ids") else column
         for name, column in zip(ITERATIONS_CSV_HEADER,
                                 zip(*runs[i:i + _CHUNK_ROWS]))]
        for i in range(0, len(runs), _CHUNK_ROWS)))
