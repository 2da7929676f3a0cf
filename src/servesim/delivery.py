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
from dataclasses import dataclass

from .traces import RequestTrace, TokenTimeline, _floats, _unchecked


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


def _pace(timeline: TokenTimeline, config: DelayConfig) -> tuple[float, ...]:
    """The release instants of ``timeline``'s tokens at the hold cadence."""
    hold = config.hold_s
    # From -inf the first release is max(t_1, -inf) = t_1: it passes through.
    prev = timeline.arrival if config.first_token_delayed else -math.inf
    # prev := max(t, prev + hold), without a call per token.
    return tuple([prev := (prev + hold if prev + hold > t else t)
                  for t in timeline.token_times])


def apply_output_delay(timeline: TokenTimeline, config: DelayConfig,
                       ) -> TokenTimeline:
    """Delivery timeline produced by pacing ``timeline`` at the hold cadence."""
    return TokenTimeline(timeline.request_id, timeline.arrival,
                         _pace(timeline, config), timeline.complete)


def delay_trace(records, config: DelayConfig) -> list[RequestTrace]:
    """Each record with paced delivery times; generation times are kept.

    The cadence paces the record's delivery timeline (its generation
    timeline when it has none), so stacking transforms composes.  Paced
    times never decrease and never precede the checked times they pace, so
    the records are built unchecked; only an overflow to infinity, which
    would reach the last release, is refused.
    """
    out = []
    for rec in records:
        paced = _pace(rec.delivery_timeline(), config)
        if paced and not math.isfinite(paced[-1]):
            raise ValueError(f"{rec.request_id}: times must be finite, "
                             f"non-decreasing and not precede arrival")
        out.append(_unchecked(
            RequestTrace, rec.request_id, rec.arrival, rec.token_times,
            rec.prompt_len, rec.completed, paced))
    return out
