"""Request-level and system-level serving metrics.

Per-request metrics are computed from a :class:`~servesim.traces.TokenTimeline`:
TTFT, the TBT series, TPOT, end-to-end latency, and the user idle latency,
which is the largest lateness of any token against its deadline series (how
long the user sat with nothing left to read).  On top of idle latency sits the
benefit of a request,

    benefit = tokens_generated - alpha * penalty(idle_latency)

and the system-level smooth goodput, the total benefit of every request in an
evaluation window divided by the window length.  Classic goodput (SLO-meeting
token output per second) and SLO attainment are provided alongside for
comparison.

Window semantics: a window selects requests by arrival in [start, end) and
clips their timelines at ``end``.  A clipped or empty timeline is marked
incomplete; incomplete requests never count toward goodput or attainment but
still contribute their generated-so-far tokens (and the idle latency of those
tokens) to smooth goodput, so abandoning a request is never rewarded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .deadlines import DeadlinePolicy, deadlines_for
from .traces import RequestTrace, TokenTimeline


# ---------------------------------------------------------------------------
# Per-timeline metrics.


def ttft(timeline: TokenTimeline) -> float:
    """Time from arrival to the first output token, queueing included."""
    if timeline.num_tokens == 0:
        raise ValueError(f"{timeline.request_id}: no output tokens")
    return timeline.token_times[0] - timeline.arrival


def tbt_series(timeline: TokenTimeline) -> list[float]:
    """Intervals between adjacent tokens; empty for single-token requests."""
    if timeline.num_tokens == 0:
        raise ValueError(f"{timeline.request_id}: no output tokens")
    return [float(d) for d in np.diff(timeline.token_times)]


def tpot(timeline: TokenTimeline) -> float:
    """Mean per-token time excluding the first token: (t_n - t_1)/(n - 1)."""
    n = timeline.num_tokens
    if n < 2:
        raise ValueError(f"{timeline.request_id}: tpot undefined for <2 tokens")
    return (timeline.token_times[-1] - timeline.token_times[0]) / (n - 1)


def e2e_latency(timeline: TokenTimeline) -> float:
    if timeline.num_tokens == 0:
        raise ValueError(f"{timeline.request_id}: no output tokens")
    return timeline.token_times[-1] - timeline.arrival


# ---------------------------------------------------------------------------
# Benefit and per-request scoring.


@dataclass(frozen=True)
class LinearSeconds:
    """penalty(l) = scale * l, idle seconds weighted directly."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

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
        if self.per_token_budget <= 0:
            raise ValueError("per_token_budget must be positive")

    def __call__(self, idle: float) -> float:
        return max(0.0, idle) / self.per_token_budget


@dataclass(frozen=True)
class IndicatorPenalty:
    """penalty(l) = penalty_value once idle latency exceeds a threshold."""

    threshold: float = 0.0
    penalty_value: float = 1.0

    def __post_init__(self):
        if self.threshold < 0 or self.penalty_value < 0:
            raise ValueError("threshold and penalty_value must be non-negative")

    def __call__(self, idle: float) -> float:
        return self.penalty_value if idle > self.threshold else 0.0


PenaltyFn = LinearSeconds | TokensEquivalent | IndicatorPenalty


@dataclass(frozen=True)
class BenefitParams:
    alpha: float = 5.0
    penalty: PenaltyFn = field(default_factory=lambda: LinearSeconds(1.0))

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")


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


_UNWEIGHTED = BenefitParams()


def _score(timeline: TokenTimeline, policy: DeadlinePolicy,
           params: BenefitParams = _UNWEIGHTED,
           ) -> tuple[RequestMetrics, np.ndarray]:
    """One request's record and token gaps, from one deadline series.

    Every deadline metric goes through here; an empty timeline raises.
    ``lateness <= 0`` is exactly "every token at or before its deadline"
    for finite doubles; only a fully delivered request attains its SLO.
    """
    n = timeline.num_tokens
    times = timeline.token_times
    array = np.asarray(times)
    lateness = float(np.max(array - timeline.arrival
                            - deadlines_for(policy, timeline)))
    idle = max(0.0, lateness)
    gaps = np.diff(array)
    return RequestMetrics(
        timeline.request_id, timeline.arrival, n, timeline.complete,
        ttft=times[0] - timeline.arrival,
        tpot=(times[-1] - times[0]) / (n - 1) if n >= 2 else None,
        e2e=times[-1] - timeline.arrival,
        max_tbt=float(gaps.max()) if n >= 2 else None,
        idle_latency=idle,
        peak_lateness=lateness,
        benefit=n - params.alpha * params.penalty(idle),
        met_slo=timeline.complete and lateness <= 0.0), gaps


def meets_slo(timeline: TokenTimeline, policy: DeadlinePolicy) -> bool:
    """True iff the timeline is complete and every token met its deadline,
    the rule goodput and attainment count by."""
    return _score(timeline, policy)[0].met_slo


def peak_lateness(timeline: TokenTimeline, policy: DeadlinePolicy) -> float:
    """Signed worst lateness: max over tokens of (relative time - deadline).

    Negative values mean every token beat its deadline with that much slack.
    """
    return _score(timeline, policy)[0].peak_lateness


def user_idle_latency(timeline: TokenTimeline, policy: DeadlinePolicy) -> float:
    """Worst lateness clamped below at zero.

    Zero exactly when the request meets the SLO; a user who always had tokens
    in hand never waited, no matter how much slack there was.
    """
    return _score(timeline, policy)[0].idle_latency


def benefit(timeline: TokenTimeline, policy: DeadlinePolicy,
            params: BenefitParams) -> float:
    """tokens - alpha * penalty(idle latency).  May be negative; no floor."""
    return _score(timeline, policy, params)[0].benefit


# ---------------------------------------------------------------------------
# Evaluation windows and aggregates.


@dataclass(frozen=True)
class EvalWindow:
    """A set of request timelines observed over [start, end)."""

    start: float
    end: float
    requests: tuple[TokenTimeline, ...]

    def __post_init__(self):
        if not self.end > self.start:
            raise ValueError("window end must exceed start")
        for tl in self.requests:
            if not (self.start <= tl.arrival < self.end):
                raise ValueError(
                    f"{tl.request_id}: arrival outside window [start, end)")

    @property
    def length(self) -> float:
        return self.end - self.start


def window_from_traces(records: Sequence[RequestTrace], start: float, end: float,
                       use_delivery: bool = False) -> EvalWindow:
    """Build a window from trace records, clipping timelines at ``end``.

    Requests arriving outside [start, end) are dropped; tokens after ``end``
    are clipped and the timeline marked incomplete.
    """
    picked = []
    for rec in records:
        if not (start <= rec.arrival < end):
            continue
        tl = rec.delivery_timeline() if use_delivery else rec.generation_timeline()
        picked.append(tl.clipped(end))
    return EvalWindow(start, end, tuple(picked))


def goodput(window: EvalWindow, policy: DeadlinePolicy,
            per_request: bool = False) -> float:
    """SLO-meeting completed output per second over the window.

    Token-denominated by default; ``per_request=True`` counts SLO-meeting
    requests per second instead.
    """
    if not window.requests:
        return 0.0
    report = build_report(window, policy, _UNWEIGHTED)
    return (report.goodput_requests_per_s if per_request
            else report.goodput_tokens_per_s)


def throughput(window: EvalWindow) -> float:
    """Tokens generated in the window per second, SLOs ignored."""
    return sum(tl.num_tokens for tl in window.requests) / window.length


def smooth_goodput(window: EvalWindow, policy: DeadlinePolicy,
                   params: BenefitParams) -> float:
    """Total benefit over all requests (SLO violators included) per second."""
    if not window.requests:
        return 0.0
    return build_report(window, policy, params).smooth_goodput_per_s


def slo_attainment(window: EvalWindow, policy: DeadlinePolicy) -> float:
    """Fraction of window requests whose every token met its deadline."""
    if not window.requests:
        raise ValueError("attainment undefined for an empty window")
    return build_report(window, policy, _UNWEIGHTED).slo_attainment


def _nearest_rank(ordered, q: float):
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value, 1-indexed.

    No interpolation, so results are reproducible bit-for-bit across
    implementations.
    """
    if not values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return _nearest_rank(sorted(values), q)


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

    def to_json_dict(self) -> dict:
        return {
            "window": {"start_s": self.window_start, "end_s": self.window_end},
            "aggregates": {
                "throughput_tokens_per_s": self.throughput_tokens_per_s,
                "goodput_tokens_per_s": self.goodput_tokens_per_s,
                "goodput_requests_per_s": self.goodput_requests_per_s,
                "smooth_goodput_per_s": self.smooth_goodput_per_s,
                "slo_attainment": self.slo_attainment,
                "ttft_percentiles_s": self.ttft_percentiles,
                "tbt_percentiles_s": self.tbt_percentiles,
                "mean_ttft_s": self.mean_ttft,
                "mean_idle_latency_s": self.mean_idle_latency,
            },
            "requests": [{key: getattr(r, name) for name, key in _REQUEST_KEYS}
                         for r in self.per_request],
        }


PERCENTILE_LABELS = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


def _percentiles(pool) -> dict[str, float]:
    ordered = np.sort(pool)
    return {label: float(_nearest_rank(ordered, q))
            for label, q in PERCENTILE_LABELS} if len(ordered) else {}


def build_report(window: EvalWindow, policy: DeadlinePolicy,
                 params: BenefitParams) -> MetricsReport:
    """Score every request once, in window order, then aggregate the records.

    Each non-empty request gets one deadline series.  Throughput, both
    goodputs, smooth goodput and attainment are read off the records, and
    the public aggregate functions read them off this report.  Each
    percentile pool is sorted once, the TBT pool as one float array.
    """
    if not window.requests:
        raise ValueError("cannot report on an empty window")
    records, gaps = [], []
    total_benefit = 0.0
    for tl in window.requests:
        if not tl.num_tokens:
            records.append(RequestMetrics(tl.request_id, tl.arrival, 0,
                                          tl.complete))
            continue
        record, request_gaps = _score(tl, policy, params)
        records.append(record)
        gaps.append(request_gaps)
        total_benefit += record.benefit
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
        ttft_percentiles=_percentiles(ttfts),
        tbt_percentiles=_percentiles(np.concatenate(gaps) if gaps else []),
        mean_ttft=float(np.mean(ttfts)) if ttfts else float("nan"),
        mean_idle_latency=float(np.mean([r.idle_latency for r in records])),
    )


# report.csv has every report.json request column but peak lateness.
_CSV_FIELDS = [name for name, _ in _REQUEST_KEYS if name != "peak_lateness"]
REPORT_CSV_HEADER = [key for name, key in _REQUEST_KEYS if name in _CSV_FIELDS]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_report_csv(path, report: MetricsReport) -> None:
    """Flat CSV: one row per request, aggregate rows prefixed ``#agg``."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_CSV_HEADER)
        for r in report.per_request:
            writer.writerow([_cell(getattr(r, name)) for name in _CSV_FIELDS])
        agg = report.to_json_dict()["aggregates"]
        for name, value in agg.items():
            if not isinstance(value, dict):
                writer.writerow(["#agg", name, _cell(value)])
        for scope in ("ttft", "tbt"):
            for label, value in agg[f"{scope}_percentiles_s"].items():
                writer.writerow(["#agg", f"{scope}_{label}_s", _cell(value)])


def write_report_json(path, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_json_dict(), f, indent=2)
        f.write("\n")
