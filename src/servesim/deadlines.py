"""Per-token deadline policies.

Every SLO style in common use can be expressed as one rule: the i-th output
token of a request must be generated no later than a deadline ``d_i`` measured
from the request's arrival.  Three rules are provided:

* ``TtftTbt``: the first token is due within a TTFT budget; each later token
  is due one TBT budget after the *actual* time of the previous token, so the
  deadline chain follows whichever timeline (generation or delivery) is being
  evaluated.
* ``EndToEnd``: every token shares one end-to-end budget, i.e. only the last
  token's time matters.
* ``ReadingSpeed``: token i is due at ``first_token_allowance +
  per_token_budget * (i - 1)``, pacing delivery against the rate at which a
  user consumes output.  With the allowance equal to the per-token budget this
  is exactly ``d_i = per_token_budget * i``.

Deadlines are measured from arrival (commit) time, so queueing delay counts
against the first token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .traces import TokenTimeline


@dataclass(frozen=True)
class TtftTbt:
    ttft_budget: float
    tbt_budget: float

    def __post_init__(self):
        if self.ttft_budget <= 0 or self.tbt_budget <= 0:
            raise ValueError("TTFT and TBT budgets must be positive")


@dataclass(frozen=True)
class EndToEnd:
    e2e_budget: float

    def __post_init__(self):
        if self.e2e_budget <= 0:
            raise ValueError("end-to-end budget must be positive")


@dataclass(frozen=True)
class ReadingSpeed:
    """Deadline cadence in seconds per token (reciprocal of tokens/second).

    ``first_token_allowance`` defaults to the per-token budget, which makes
    the series the pure arithmetic ramp ``budget * i``; set it independently
    to give prefill a different tolerance than the reading cadence.
    """

    per_token_budget: float
    first_token_allowance: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.first_token_allowance is None:
            object.__setattr__(self, "first_token_allowance", self.per_token_budget)
        if self.per_token_budget <= 0 or self.first_token_allowance <= 0:
            raise ValueError("deadline budgets must be positive")

    @classmethod
    def from_tokens_per_second(cls, tokens_per_second: float,
                               first_token_allowance: float | None = None) -> "ReadingSpeed":
        if tokens_per_second <= 0:
            raise ValueError("tokens_per_second must be positive")
        return cls(1.0 / tokens_per_second, first_token_allowance)


DeadlinePolicy = Union[TtftTbt, EndToEnd, ReadingSpeed]


def deadlines_for(policy: DeadlinePolicy, timeline: TokenTimeline) -> np.ndarray:
    """Deadlines in seconds from arrival, one per token of ``timeline``.

    The series is a read-only float array.  Raises ValueError on an empty
    timeline (a request with no output tokens has no deadlines to evaluate).
    """
    n = timeline.num_tokens
    if n == 0:
        raise ValueError(f"{timeline.request_id}: no output tokens")
    if isinstance(policy, ReadingSpeed):
        d = policy.first_token_allowance + policy.per_token_budget * np.arange(n, dtype=float)
    elif isinstance(policy, EndToEnd):
        d = np.full(n, policy.e2e_budget, dtype=float)
    elif isinstance(policy, TtftTbt):
        rel = np.asarray(timeline.token_times) - timeline.arrival
        d = np.empty(n)
        d[0] = policy.ttft_budget
        d[1:] = rel[:-1] + policy.tbt_budget
    else:
        raise TypeError(f"unknown deadline policy: {policy!r}")
    d.flags.writeable = False
    return d
