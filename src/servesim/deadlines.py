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


class DeadlineSeries:
    """Deadlines in seconds from arrival, one per output token.

    Backed by a read-only float array, which scoring reads through
    ``as_array()`` without building Python floats; ``deadlines`` is a tuple
    view built on access.
    """

    __slots__ = ("_array",)

    def __init__(self, deadlines):
        array = np.array(deadlines, dtype=float)
        array.flags.writeable = False
        self._array = array

    @property
    def deadlines(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    def as_array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeadlineSeries):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        return hash(self.deadlines)

    def __repr__(self) -> str:
        return f"DeadlineSeries(deadlines={self.deadlines!r})"


def deadlines_for(policy: DeadlinePolicy, timeline: TokenTimeline) -> DeadlineSeries:
    """Deadline series for each token of ``timeline`` under ``policy``.

    Raises ValueError on an empty timeline (a request with no output tokens
    has no deadlines to evaluate).
    """
    n = timeline.num_tokens
    if n == 0:
        raise ValueError(f"{timeline.request_id}: no output tokens")
    if isinstance(policy, ReadingSpeed):
        d = policy.first_token_allowance + policy.per_token_budget * np.arange(n)
    elif isinstance(policy, EndToEnd):
        d = np.full(n, policy.e2e_budget)
    elif isinstance(policy, TtftTbt):
        rel = np.asarray(timeline.token_times) - timeline.arrival
        d = np.empty(n)
        d[0] = policy.ttft_budget
        d[1:] = rel[:-1] + policy.tbt_budget
    else:
        raise TypeError(f"unknown deadline policy: {policy!r}")
    return DeadlineSeries(d)


def meets_slo(timeline: TokenTimeline, policy: DeadlinePolicy) -> bool:
    """True iff every token was generated at or before its deadline."""
    series = deadlines_for(policy, timeline)
    rel = np.asarray(timeline.token_times) - timeline.arrival
    return bool(np.all(rel <= series.as_array()))


def policy_from_config(obj: dict) -> DeadlinePolicy:
    """Parse the tagged-record form used in experiment config files.

    Accepted shapes::

        {"type": "ttft_tbt", "ttft_s": 1.0, "tbt_s": 0.2}
        {"type": "e2e", "e2e_s": 10.0}
        {"type": "reading_speed", "tokens_per_second": 20,
         "first_token_allowance_s": 0.05}

    ``reading_speed`` also accepts ``per_token_budget_s`` in place of
    ``tokens_per_second``; the allowance is optional.
    """
    kind = obj.get("type")
    if kind == "ttft_tbt":
        return TtftTbt(float(obj["ttft_s"]), float(obj["tbt_s"]))
    if kind == "e2e":
        return EndToEnd(float(obj["e2e_s"]))
    if kind == "reading_speed":
        allowance = obj.get("first_token_allowance_s")
        allowance = None if allowance is None else float(allowance)
        if "per_token_budget_s" in obj:
            return ReadingSpeed(float(obj["per_token_budget_s"]), allowance)
        return ReadingSpeed.from_tokens_per_second(
            float(obj["tokens_per_second"]), allowance)
    raise ValueError(f"unknown deadline policy type: {kind!r}")


def policy_to_config(policy: DeadlinePolicy) -> dict:
    if isinstance(policy, TtftTbt):
        return {"type": "ttft_tbt", "ttft_s": policy.ttft_budget,
                "tbt_s": policy.tbt_budget}
    if isinstance(policy, EndToEnd):
        return {"type": "e2e", "e2e_s": policy.e2e_budget}
    if isinstance(policy, ReadingSpeed):
        return {"type": "reading_speed",
                "per_token_budget_s": policy.per_token_budget,
                "first_token_allowance_s": policy.first_token_allowance}
    raise TypeError(f"unknown deadline policy: {policy!r}")
