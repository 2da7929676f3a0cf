"""Post-generation delivery transforms.

The output-delay trick buffers generated tokens and releases them on a fixed
cadence: an early token is held until one ``hold`` interval after the previous
release, a late token is released the moment it is generated.  Formally

    release_1 = t_1                      (first token passes through)
    release_i = max(t_i, release_{i-1} + hold)

so delivery never precedes generation, order is preserved, and after a true
stall the cadence restarts from the late token's actual release.  Holding the
first token too (``first_token_delayed=True``) paces it against arrival
instead.

Because this transform games TBT-style metrics without shortening anyone's
real wait, it is applied to a trace's delivery column (``delay_trace``),
never inside the engine: the same code evaluates simulated and ingested
real traces identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .traces import TokenTimeline, TraceRecords, _as_columns, _floats


@dataclass(frozen=True)
class DelayConfig:
    """Release cadence: at most one token per ``hold_s`` (a TBT cap)."""

    hold_s: float
    first_token_delayed: bool = False

    def __post_init__(self):
        # Held as a float, by the records' rule, so that paced times are
        # floats.
        self.__dict__["hold_s"], = _floats("hold_s", (self.hold_s,))
        # Written so that NaN fails too: a NaN hold would pace nothing.
        if not (0 < self.hold_s < math.inf):
            raise ValueError("hold budget must be positive and finite")


def _pace(arrival: float, times, config: DelayConfig) -> list[float]:
    """The release instants of the tokens at ``times`` at the hold cadence."""
    hold = config.hold_s
    # From -inf the first release is max(t_1, -inf) = t_1: it passes through.
    prev = arrival if config.first_token_delayed else -math.inf
    # prev := max(t, prev + hold), without a call per token.
    return [prev := (prev + hold if prev + hold > t else t) for t in times]


def apply_output_delay(timeline: TokenTimeline, config: DelayConfig,
                       ) -> TokenTimeline:
    """Delivery timeline produced by pacing ``timeline`` at the hold cadence."""
    return TokenTimeline(timeline.request_id, timeline.arrival,
                         _pace(timeline.arrival, timeline.token_times, config),
                         timeline.complete)


def delay_trace(records, config: DelayConfig) -> TraceRecords:
    """Each record with paced delivery times; generation times are kept.

    The cadence paces each request's delivery times (its token times when
    it has none), so stacking transforms composes.  Paced times never
    decrease and never precede the checked times they pace, so they are not
    checked again; only an overflow to infinity, which would reach a
    request's last release, is refused.  The result shares every column but
    the delivery times with ``records``, taken as columns.
    """
    records = _as_columns(records)
    times = iter(records.delivery_times.tolist())
    paced: list[float] = []
    for rid, arrival, k in zip(records.request_ids, records.arrivals.tolist(),
                               records.counts.tolist()):
        paced += _pace(arrival, islice(times, k), config)
        if k and not math.isfinite(paced[-1]):
            raise ValueError(f"{rid}: times must be finite, non-decreasing "
                             f"and not precede arrival")
    return TraceRecords(
        records.request_ids, records.arrivals, records.prompt_lens,
        records.completed, records.counts, records.token_times,
        np.array(paced, float), np.ones(len(records), bool))
