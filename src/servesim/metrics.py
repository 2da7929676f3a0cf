"""Request-level and system-level serving metrics.

Two entry points: :func:`build_report` scores every request of an
evaluation window and aggregates the records, and :func:`score` gives one
request's :class:`~servesim.traces.TokenTimeline` the record it would get in
a window.  Both run the same pass.

A request's record holds TTFT, TPOT, end-to-end latency, the largest TBT gap
and the peak lateness: the most any token ran past its deadline (negative
when every token had slack).  Clamped at zero it is the user idle latency,
how long the user sat with nothing left to read.  On it rests the benefit,

    benefit = tokens_generated - alpha * penalty(idle_latency)

Smooth goodput is the total benefit of a window's requests divided by the
window length.  Throughput, classic goodput (SLO-meeting output per second)
and SLO attainment are aggregated from the same records.

Window semantics: a window selects requests by arrival in [start, end) and
clips their timelines at ``end``; a clipped timeline is incomplete.  An
incomplete request never counts toward goodput or attainment, and it is
scored on the tokens it received only; with none, its idle latency and
benefit are 0.  Tokens never delivered are not charged, so cutting a late
request short can raise its benefit and smooth goodput (ROADMAP item 1).

Flat layout: a window holds its requests as columns, per request its id,
arrival, completeness and token count, and all its token times in one
float array, the requests end to end; ``starts`` indexes each first token.
:func:`window_from_traces` takes a read trace's columns as they are, or
gathers a list of records' in one pass; it selects requests by arrival
with one mask and clips them at the window end with one pass over the flat
times.  The runner's TBT CDF takes the report's pool, gap rule and nearest
rank.  Each per-request value is one whole-window numpy operation (a
gather at the first and last tokens, or a ``np.maximum.reduceat`` over each
request's slice), not numpy calls per request; the lateness, with its
deadline series, is taken over blocks of whole timelines of about
``_BLOCK_TOKENS`` tokens, so that scoring holds one token-length array at
a time.  The values are bit for bit those of scoring each request alone
(``tests/oracles.py`` keeps that reference), because the element-wise
operations keep their order, ``(times - arrival) - deadline``, and the
aggregates are still taken over the records in window order: ``np.mean``,
the nearest rank, and a left-to-right ``+=`` for the benefit total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import accumulate, compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .deadlines import DeadlinePolicy, deadlines_for
from .traces import (
    RequestTrace,
    TokenTimeline,
    TraceRecords,
    _CHUNK_ROWS,
    _flat,
    _number_texts,
    _unchecked,
    _writing,
    write_csv,
)


# ---------------------------------------------------------------------------
# Benefit and per-request scoring.


@dataclass(frozen=True)
class LinearSeconds:
    """penalty(l) = scale * l, idle seconds weighted directly."""

    scale: float = 1.0

    def __post_init__(self):
        # Each bound check here is written so that NaN fails it too.
        if not (0 <= self.scale < math.inf):
            raise ValueError("scale must be non-negative and finite")

    def __call__(self, idle: float) -> float:
        return self.scale * max(0.0, idle)


@dataclass(frozen=True)
class TokensEquivalent:
    """penalty(l) = l / per_token_budget, idle time as tokens of reading lost.

    Makes the penalty commensurable with the token count in the benefit, so
    alpha stays dimensionless.
    """

    per_token_budget: float

    def __post_init__(self):
        if not (0 < self.per_token_budget < math.inf):
            raise ValueError("per_token_budget must be positive and finite")

    def __call__(self, idle: float) -> float:
        return max(0.0, idle) / self.per_token_budget


@dataclass(frozen=True)
class IndicatorPenalty:
    """penalty(l) = penalty_value once idle latency exceeds a threshold."""

    threshold: float = 0.0
    penalty_value: float = 1.0

    def __post_init__(self):
        if not (0 <= self.threshold < math.inf
                and 0 <= self.penalty_value < math.inf):
            raise ValueError("threshold and penalty_value must be "
                             "non-negative and finite")

    def __call__(self, idle: float) -> float:
        return self.penalty_value if idle > self.threshold else 0.0


PenaltyFn = LinearSeconds | TokensEquivalent | IndicatorPenalty


@dataclass(frozen=True)
class BenefitParams:
    alpha: float = 5.0
    penalty: PenaltyFn = field(default_factory=lambda: LinearSeconds(1.0))

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf):
            raise ValueError("alpha must be non-negative and finite")


@dataclass(frozen=True)
class RequestMetrics:
    """One request's scores; defaults are those of a request with no tokens."""

    request_id: str
    arrival: float
    n_tokens: int
    complete: bool
    ttft: float | None = None
    tpot: float | None = None
    e2e: float | None = None
    max_tbt: float | None = None
    idle_latency: float = 0.0
    peak_lateness: float | None = None
    benefit: float = 0.0
    met_slo: bool = False


def score(timeline: TokenTimeline, policy: DeadlinePolicy,
          params: BenefitParams = BenefitParams()) -> RequestMetrics:
    """One request's record, as :func:`build_report` lists it."""
    return _score_window(_timeline_columns((timeline,)), policy, params)[0][0]


# ---------------------------------------------------------------------------
# Evaluation windows and aggregates.


class _Columns(NamedTuple):
    """Timelines in the flat layout: per request its id, arrival, whether
    it is complete and its token count, and all the token times in one
    float array, the requests end to end."""

    request_ids: Sequence[str]
    arrivals: np.ndarray
    complete: np.ndarray
    counts: np.ndarray
    times: np.ndarray


def _gathered(items: Sequence, complete: Iterable[bool],
              timelines: Sequence[Sequence[float]]) -> _Columns:
    """The ids and arrivals of ``items``, records or timelines, with their
    ``complete`` flags and ``timelines``, in the flat layout."""
    n = len(items)
    return _Columns([item.request_id for item in items],
                    np.fromiter((item.arrival for item in items), float, n),
                    np.fromiter(complete, bool, n), *_flat(timelines))


def _timeline_columns(timelines: Sequence[TokenTimeline]) -> _Columns:
    return _gathered(timelines, (tl.complete for tl in timelines),
                     [tl.token_times for tl in timelines])


class EvalWindow:
    """A set of request timelines observed over [start, end).

    It holds them as ``columns`` in the flat layout; ``requests`` builds
    their :class:`~servesim.traces.TokenTimeline` views on first access.
    """

    __slots__ = ("start", "end", "columns", "_requests")

    def __init__(self, start: float, end: float,
                 requests: Sequence[TokenTimeline]):
        if not end > start:
            raise ValueError("window end must exceed start")
        columns = _timeline_columns(requests)
        arrivals = columns.arrivals
        outside = np.flatnonzero(~((start <= arrivals) & (arrivals < end)))
        if outside.size:
            raise ValueError(f"{columns.request_ids[outside[0]]}: arrival "
                             f"outside window [start, end)")
        self.start, self.end, self.columns, self._requests = (
            start, end, columns, None)

    @classmethod
    def _of(cls, start: float, end: float, columns: _Columns) -> "EvalWindow":
        """The window of ``columns``, whose arrivals lie in [start, end)."""
        window = object.__new__(cls)
        window.start, window.end, window.columns, window._requests = (
            start, end, columns, None)
        return window

    @property
    def requests(self) -> tuple[TokenTimeline, ...]:
        if self._requests is None:
            ids, arrivals, complete, counts, times = self.columns
            times = times.tolist()
            ends = accumulate(counts.tolist())
            self._requests = tuple(
                _unchecked(TokenTimeline, rid, arrival,
                           tuple(times[stop - k:stop]), done)
                for rid, arrival, done, k, stop in zip(
                    ids, arrivals.tolist(), complete.tolist(),
                    counts.tolist(), ends))
        return self._requests

    @property
    def length(self) -> float:
        return self.end - self.start


def _trace_columns(records: Sequence[RequestTrace],
                   use_delivery: bool) -> _Columns:
    """Each record's generation timeline, or its delivery timeline when it
    has one and ``use_delivery`` is set, in the flat layout: a read trace's
    columns as they are, and a list's gathered in one pass."""
    if isinstance(records, TraceRecords):
        return _Columns(records.request_ids, records.arrivals,
                        records.completed, records.counts,
                        records.delivery_times if use_delivery
                        else records.token_times)
    return _gathered(records, (rec.completed for rec in records), [
        rec.delivery_times if use_delivery and rec.delivery_times is not None
        else rec.token_times for rec in records])


def window_from_traces(records: Sequence[RequestTrace], start: float, end: float,
                       use_delivery: bool = False) -> EvalWindow:
    """Build a window from trace records, clipping timelines at ``end``.

    Requests arriving outside [start, end) are dropped; tokens after ``end``
    are clipped and the timeline marked incomplete.  ``records`` may be a
    read trace's :class:`~servesim.traces.TraceRecords`, taken as columns.
    """
    if not end > start:
        raise ValueError("window end must exceed start")
    ids, arrivals, completed, counts, times = _trace_columns(records,
                                                             use_delivery)
    picked = (start <= arrivals) & (arrivals < end)
    # Times never decrease, so the tokens past end are a suffix of each
    # timeline; each is counted against the request whose slice holds it.
    past = np.flatnonzero(times > end)
    kept_counts = counts - np.bincount(
        np.searchsorted(np.cumsum(counts), past, side="right"),
        minlength=len(counts))
    kept = np.repeat(picked, counts)
    kept[past] = False
    return EvalWindow._of(start, end, _Columns(
        list(compress(ids, picked.tolist())), arrivals[picked],
        (completed & (kept_counts == counts))[picked], kept_counts[picked],
        times[kept]))


# The lateness pass starts a block of timelines every this many tokens.
_BLOCK_TOKENS = 1 << 15


def _starts(counts: np.ndarray) -> np.ndarray:
    """The first token's index in the flat layout of each timeline that
    has a token."""
    return (np.cumsum(counts) - counts)[counts > 0]


def _diffs(times: np.ndarray, starts: np.ndarray,
           spanning: float) -> np.ndarray:
    """``np.diff`` of flat times, ``starts`` being :func:`_starts`, with
    each gap that spans two timelines set to ``spanning``.

    The k-th timeline's gaps are ``[starts[k], starts[k] + counts[k] - 1)``;
    the ``len(times) - len(starts)`` gaps within the timelines are the pool.
    """
    gaps = np.diff(times)
    gaps[starts[1:] - 1] = spanning
    return gaps


def _blocks(starts: np.ndarray, total: int) -> Iterator[tuple[int, int]]:
    """Ranges ``[lo, hi)`` of consecutive timelines, ``starts`` being
    :func:`_starts` of ``total`` tokens: a block begins with the first
    timeline starting at or past each multiple of ``_BLOCK_TOKENS``."""
    # Sorted as a set: the first call of np.unique costs a process about
    # 1.3 MiB of resident memory.
    bounds = sorted({len(starts), *np.searchsorted(
        starts, np.arange(0, total, _BLOCK_TOKENS)).tolist()})
    return zip(bounds, bounds[1:])


def _sorted_gaps(timelines: Sequence[Sequence[float]]) -> np.ndarray:
    """Every token gap within each timeline, pooled and sorted."""
    counts, times = _flat(timelines)
    starts = _starts(counts)
    # The spanning gaps, at +inf, sort last and are sliced off.
    gaps = _diffs(times, starts, math.inf)
    gaps.sort()
    return gaps[:len(times) - len(starts)]


def _nearest_ranks(ordered: np.ndarray, qs) -> np.ndarray:
    """The ceil(q*n)-th smallest of the sorted ``ordered`` at each of
    ``qs``, 1-indexed, and the smallest at q = 0."""
    ranks = np.maximum(np.ceil(np.multiply(qs, len(ordered))), 1)
    return ordered[ranks.astype(np.intp) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value, 1-indexed.

    No interpolation, so results are reproducible bit-for-bit across
    implementations.
    """
    if not len(values):
        raise ValueError("percentile of empty list")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return float(_nearest_ranks(np.sort(values), q))


# ---------------------------------------------------------------------------
# Reports.


# report.json names every RequestMetrics field, times with an "_s" suffix.
_UNITLESS = {"request_id", "n_tokens", "complete", "benefit", "met_slo"}
_REQUEST_KEYS = [(f.name, f.name if f.name in _UNITLESS else f"{f.name}_s")
                 for f in fields(RequestMetrics)]


@dataclass(frozen=True)
class MetricsReport:
    window_start: float
    window_end: float
    per_request: tuple[RequestMetrics, ...]
    throughput_tokens_per_s: float
    goodput_tokens_per_s: float
    goodput_requests_per_s: float
    smooth_goodput_per_s: float
    slo_attainment: float
    ttft_percentiles: dict[str, float]
    tbt_percentiles: dict[str, float]
    mean_ttft: float
    mean_idle_latency: float

    def aggregates(self) -> dict:
        """The aggregates of report.json and ``servesim metrics``."""
        return {
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "goodput_requests_per_s": self.goodput_requests_per_s,
            "smooth_goodput_per_s": self.smooth_goodput_per_s,
            "slo_attainment": self.slo_attainment,
            "ttft_percentiles_s": self.ttft_percentiles,
            "tbt_percentiles_s": self.tbt_percentiles,
            # NaN when no request got a token: null, as a request's ttft_s
            # is then.
            "mean_ttft_s": (None if math.isnan(self.mean_ttft)
                            else self.mean_ttft),
            "mean_idle_latency_s": self.mean_idle_latency,
        }

    def to_json_dict(self) -> dict:
        return {
            "window": {"start_s": self.window_start, "end_s": self.window_end},
            "aggregates": self.aggregates(),
            "requests": [{key: getattr(r, name) for name, key in _REQUEST_KEYS}
                         for r in self.per_request],
        }


PERCENTILE_LABELS = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))
_LABELS, _LABEL_QS = zip(*PERCENTILE_LABELS)


def _percentiles(ordered: np.ndarray) -> dict[str, float]:
    """Nearest-rank percentiles of an already sorted pool."""
    return dict(zip(_LABELS, _nearest_ranks(ordered, _LABEL_QS).tolist())
                ) if len(ordered) else {}


def _score_window(columns: _Columns, policy: DeadlinePolicy,
                  params: BenefitParams
                  ) -> tuple[list[RequestMetrics], dict[str, float]]:
    """Every request's record, in order, and the TBT percentiles of them all.

    Each per-request value is a whole-window numpy operation on the flat
    token times, or one per block of requests for the lateness, so that at
    most one token-length array, the gaps, is made at once.
    """
    ids, arrivals, complete, counts, times = columns
    starts = _starts(counts)
    scored = counts > 0
    n = counts[scored]
    arrived = arrivals[scored]
    first, last = times[starts], times[starts + n - 1]
    ttft = (first - arrived).tolist()
    e2e = (last - arrived).tolist()
    several = n >= 2
    tpot = ((last - first)[several] / (n[several] - 1)).tolist()

    # One token-length array at a time: the gaps, a spanning one at -inf
    # for each maximum and at +inf, sorting last, for the pool.
    gaps = _diffs(times, starts, -math.inf)
    max_tbt = np.maximum.reduceat(gaps, starts[several]).tolist()
    gaps[starts[1:] - 1] = math.inf
    gaps.sort()
    tbt_percentiles = _percentiles(gaps[:len(times) - len(starts)])
    del gaps

    # Lateness in place, element-wise (times - arrival) - deadline, a block
    # of whole timelines at a time.
    lateness = np.empty(len(starts))
    for lo, hi in _blocks(starts, len(times)):
        begin, end = starts[lo], starts[hi - 1] + n[hi - 1]
        rel = np.repeat(arrived[lo:hi], n[lo:hi])
        np.subtract(times[begin:end], rel, out=rel)
        at = starts[lo:hi] - begin
        np.subtract(rel, deadlines_for(policy, rel, at), out=rel)
        lateness[lo:hi] = np.maximum.reduceat(rel, at)
    lateness = lateness.tolist()

    records = []
    per_request = zip(ttft, e2e, lateness)
    per_gap = zip(tpot, max_tbt)
    for rid, arrival, done, k in zip(ids, arrivals.tolist(), complete.tolist(),
                                     counts.tolist()):
        if not k:
            records.append(RequestMetrics(rid, arrival, 0, done))
            continue
        ttft_k, e2e_k, late = next(per_request)
        tpot_k, tbt_k = next(per_gap) if k >= 2 else (None, None)
        idle = max(0.0, late)
        # Every field is a value of this pass, so the record skips the
        # frozen __init__.  Its fields: request_id, arrival, n_tokens,
        # complete, ttft, tpot, e2e, max_tbt, idle_latency, peak_lateness,
        # benefit and met_slo.
        records.append(_unchecked(
            RequestMetrics, rid, arrival, k, done,
            ttft_k, tpot_k, e2e_k, tbt_k, idle, late,
            k - params.alpha * params.penalty(idle),
            # For finite doubles, "every token at or before its deadline";
            # only a fully delivered request attains its SLO.
            done and late <= 0.0))
    return records, tbt_percentiles


def build_report(window: EvalWindow, policy: DeadlinePolicy,
                 params: BenefitParams) -> MetricsReport:
    """Score every request in one pass over the window, then aggregate.

    One deadline series covers each block of timelines.  Each record holds
    the values the per-request rule gives, bit for bit: the element-wise order
    is ``(times - arrival) - deadline``, and a peak or a gap maximum is a
    ``np.maximum.reduceat`` over each request's slice.  Throughput, both
    goodputs, smooth goodput and attainment are read off the records.
    """
    if not len(window.columns.request_ids):
        raise ValueError("cannot report on an empty window")
    records, tbt_percentiles = _score_window(window.columns, policy, params)
    # Left to right, as a plain loop: sum() compensates float rounding from
    # Python 3.12 on.  A no-token record adds an exact 0.0.
    total_benefit = 0.0
    for r in records:
        total_benefit += r.benefit
    met = [r.n_tokens for r in records if r.met_slo]
    ttfts = [r.ttft for r in records if r.ttft is not None]
    length = window.length
    return MetricsReport(
        window_start=window.start,
        window_end=window.end,
        per_request=tuple(records),
        throughput_tokens_per_s=sum(r.n_tokens for r in records) / length,
        goodput_tokens_per_s=sum(met) / length,
        goodput_requests_per_s=len(met) / length,
        smooth_goodput_per_s=total_benefit / length,
        slo_attainment=len(met) / len(records),
        ttft_percentiles=_percentiles(np.sort(ttfts)),
        tbt_percentiles=tbt_percentiles,
        mean_ttft=float(np.mean(ttfts)) if ttfts else float("nan"),
        mean_idle_latency=float(np.mean([r.idle_latency for r in records])),
    )


# report.csv has every report.json request column but peak lateness.
_CSV_FIELDS = [name for name, _ in _REQUEST_KEYS if name != "peak_lateness"]
REPORT_CSV_HEADER = [key for name, key in _REQUEST_KEYS if name in _CSV_FIELDS]

_BOOLS = {"complete", "met_slo"}


def _columns(records: Sequence[RequestMetrics], names: list[str]) -> list:
    """The ``names`` fields of ``records``, one column each."""
    return list(zip(*map(attrgetter(*names), records)))


def write_report_csv(path, report: MetricsReport) -> None:
    """Flat CSV: one row per request, aggregate rows prefixed ``#agg``.

    Written by ``write_csv``: each float its repr, None an empty cell and
    a bool 1 or 0.
    """
    agg = report.aggregates()
    # The percentiles follow the other aggregates, one row each.
    for scope in ("ttft", "tbt"):
        for label, value in agg.pop(f"{scope}_percentiles_s").items():
            agg[f"{scope}_{label}_s"] = value
    write_csv(path, REPORT_CSV_HEADER, [[
        list(map(int, column)) if name in _BOOLS else column
        for name, column in zip(_CSV_FIELDS, _columns(report.per_request,
                                                      _CSV_FIELDS))],
        [["#agg"] * len(agg), list(agg), list(agg.values())]])


def _json_texts(name: str, column) -> list:
    """A request field's column as report.json writes it: an id quoted,
    an int as it is, a bool false or true, a number its repr and None
    null.  A NaN or an infinity raises ValueError."""
    if name == "request_id":
        return list(map(encode_basestring_ascii, column))
    if name in _BOOLS:
        return [("false", "true")[v] for v in column]
    if name == "n_tokens":
        return column
    texts = _number_texts(column, "null")
    if not _NOT_JSON.isdisjoint(texts):
        raise ValueError(f"{name}: out of range float values are not JSON "
                         f"compliant")
    return texts


_JSON_FIELDS = [name for name, _ in _REQUEST_KEYS]
# A report.json request row as json.dump(..., indent=2) writes it, one %s
# per field.
_JSON_ROW = ("    {\n      " + ",\n      ".join(
    f'"{key}": %s' for _, key in _REQUEST_KEYS) + "\n    }")
_NOT_JSON = {"nan", "inf", "-inf"}


def write_report_json(path, report: MetricsReport) -> None:
    """``report.to_json_dict()`` as ``json.dump(..., indent=2)`` writes it.

    A NaN or an infinity, which strict JSON has no literal for, raises
    ValueError; a report that cannot be written leaves no file.
    """
    # to_json_dict() up to its requests, which are written a chunk at a time.
    head = json.dumps({"window": {"start_s": report.window_start,
                                  "end_s": report.window_end},
                       "aggregates": report.aggregates()},
                      indent=2, allow_nan=False)[:-len("\n}")]
    with _writing(path, "w", encoding="utf-8") as f:
        f.write(head)
        sep = ',\n  "requests": [\n'
        for i in range(0, len(report.per_request), _CHUNK_ROWS):
            records = report.per_request[i:i + _CHUNK_ROWS]
            columns = list(map(_json_texts, _JSON_FIELDS,
                               _columns(records, _JSON_FIELDS)))
            f.write(sep)
            f.write(",\n".join(map(_JSON_ROW.__mod__, zip(*columns))))
            sep = ",\n"
        f.write('\n  ]\n}\n' if report.per_request
                else ',\n  "requests": []\n}\n')
