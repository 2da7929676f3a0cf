"""Engine cost model and capacity limits.

Iteration latency follows an affine surrogate of GPU batch cost:

    duration = base_s + prefill_per_token_s * prefill_tokens
             + decode_per_seq_s * decode_seqs

The defaults make one 512-token prefill cost about as much as 25 decode-only
iterations, the asymmetry that makes prefill preemption visible in decode
gaps.  Coefficients are configuration, not measurements; calibrate them per
deployment if absolute numbers matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..traces import _floats


@dataclass(frozen=True)
class EngineConfig:
    base_s: float = 0.005
    prefill_per_token_s: float = 0.0003
    decode_per_seq_s: float = 0.001
    max_batch_tokens: int = 2048
    max_running_seqs: int = 64
    kv_capacity_tokens: int = 120_000

    def __post_init__(self):
        # The costs are held as floats, by the records' rule, so that the
        # clock and every time the engine builds from them are floats.
        fields = self.__dict__
        for name in ("base_s", "prefill_per_token_s", "decode_per_seq_s"):
            fields[name], = _floats(name, (fields[name],))
        # Each cost check is written so that NaN fails it too.
        if not (0 < self.base_s < math.inf):
            # Token timestamps must be strictly increasing per request, so
            # every iteration needs a positive floor cost.
            raise ValueError("base_s must be positive and finite")
        if not (0 <= self.prefill_per_token_s < math.inf
                and 0 <= self.decode_per_seq_s < math.inf):
            raise ValueError("cost coefficients must be non-negative and "
                             "finite")
        if min(self.max_batch_tokens, self.max_running_seqs,
               self.kv_capacity_tokens) < 1:
            raise ValueError("limits must be >= 1")
        if self.max_batch_tokens < self.max_running_seqs:
            # Each decode member consumes one token of batch budget, so a full
            # decode batch must always be schedulable.
            raise ValueError("max_batch_tokens must cover max_running_seqs")


def iteration_time(prefill_tokens: int, decode_seqs: int, engine: EngineConfig,
                   ) -> float:
    """Affine iteration latency; an empty batch costs ``base_s``."""
    if prefill_tokens < 0 or decode_seqs < 0:
        raise ValueError("negative batch composition")
    return (engine.base_s + engine.prefill_per_token_s * prefill_tokens
            + engine.decode_per_seq_s * decode_seqs)
