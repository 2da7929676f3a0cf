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

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class TtftTbt:
    ttft_budget: float
    tbt_budget: float

    def __post_init__(self):
        # Each bound check here is written so that NaN fails it too.
        if not (0 < self.ttft_budget < math.inf
                and 0 < self.tbt_budget < math.inf):
            raise ValueError("TTFT and TBT budgets must be positive and "
                             "finite")


@dataclass(frozen=True)
class EndToEnd:
    e2e_budget: float

    def __post_init__(self):
        if not (0 < self.e2e_budget < math.inf):
            raise ValueError("end-to-end budget must be positive and finite")


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
        if not (0 < self.per_token_budget < math.inf
                and 0 < self.first_token_allowance < math.inf):
            raise ValueError("deadline budgets must be positive and finite")

    @classmethod
    def from_tokens_per_second(cls, tokens_per_second: float,
                               first_token_allowance: float | None = None) -> "ReadingSpeed":
        if not (0 < tokens_per_second < math.inf):
            raise ValueError("tokens_per_second must be positive and finite")
        return cls(1.0 / tokens_per_second, first_token_allowance)


DeadlinePolicy = Union[TtftTbt, EndToEnd, ReadingSpeed]


def deadlines_for(policy: DeadlinePolicy, rel, starts=(0,)) -> np.ndarray:
    """Deadlines in seconds from arrival, one per token of ``rel``.

    ``rel`` holds token times measured from their request's arrival, the
    requests laid end to end; ``starts`` indexes each request's first token
    (the default is one request).  The series is a read-only float array.
    Raises ValueError unless every request has a token: a request with no
    output tokens has no deadlines to evaluate.
    """
    rel = np.asarray(rel, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    n = len(rel)
    bounds = np.append(starts, n)
    counts = np.diff(bounds)
    if bounds[0] != 0 or not (counts > 0).all():
        raise ValueError("a request with no output tokens has no deadlines")
    if isinstance(policy, ReadingSpeed):
        # allowance + budget * k, k the index of the token in its request.
        d = np.arange(n, dtype=float)
        d -= np.repeat(starts, counts)
        d *= policy.per_token_budget
        d += policy.first_token_allowance
    elif isinstance(policy, EndToEnd):
        d = np.full(n, policy.e2e_budget, dtype=float)
    elif isinstance(policy, TtftTbt):
        d = np.empty(n)
        np.add(rel[:-1], policy.tbt_budget, out=d[1:])
        d[starts] = policy.ttft_budget
    else:
        raise TypeError(f"unknown deadline policy: {policy!r}")
    d.flags.writeable = False
    return d
