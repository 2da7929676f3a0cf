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
real wait, it is applied to trace records (``delay_trace``), never inside the
engine: the same code evaluates simulated and ingested real traces
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .traces import RequestTrace, TokenTimeline


@dataclass(frozen=True)
class DelayConfig:
    """Release cadence: at most one token per ``hold_s`` (a TBT cap)."""

    hold_s: float
    first_token_delayed: bool = False

    def __post_init__(self):
        if self.hold_s <= 0:
            raise ValueError("hold budget must be positive")


def apply_output_delay(timeline: TokenTimeline, config: DelayConfig,
                       ) -> TokenTimeline:
    """Delivery timeline produced by pacing ``timeline`` at the hold cadence."""
    hold = config.hold_s
    releases: list[float] = []
    # From -inf the first release is max(t_1, -inf) = t_1: it passes through.
    prev = timeline.arrival if config.first_token_delayed else -math.inf
    for t in timeline.token_times:
        prev = max(t, prev + hold)
        releases.append(prev)
    return TokenTimeline(timeline.request_id, timeline.arrival,
                         tuple(releases), timeline.complete)


def delay_trace(records, config: DelayConfig) -> list[RequestTrace]:
    """Each record with paced delivery times; generation times are kept.

    The cadence paces the record's delivery timeline (its generation
    timeline when it has none), so stacking transforms composes.
    """
    return [replace(rec, delivery_times=apply_output_delay(
                rec.delivery_timeline(), config).token_times)
            for rec in records]
