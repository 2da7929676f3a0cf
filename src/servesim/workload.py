"""Workload generation: Poisson arrivals plus prompt/output length sources.

Lengths come from synthetic distributions, from a pre-tokenized dataset length
file (JSONL of ``{"prompt_len": int, "output_len": int}``), or from the same
file with items concatenated until a target mean prompt length is reached,
which models long-context conversations assembled from shorter ones.  The
simulator never sees raw text, so producing the length file from a real corpus
is a one-off offline tokenization step outside this package.

Generation is deterministic for a fixed seed: one RNG stream drives arrivals
first, then lengths, so identical configs yield byte-identical workload files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .traces import _NUMBER, TraceFormatError, _field, _read_jsonl


@dataclass(frozen=True)
class RequestSpec:
    """One request to replay: arrival offset plus prompt/output lengths."""

    request_id: str
    arrival: float
    prompt_len: int
    output_len: int

    def __post_init__(self):
        if not 0.0 <= self.arrival < math.inf:  # NaN fails too
            raise ValueError(
                f"{self.request_id}: arrival must be finite and >= 0")
        if self.prompt_len < 1 or self.output_len < 1:
            raise ValueError(f"{self.request_id}: lengths must be >= 1")


# Length distributions --------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: int

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=np.int64)


@dataclass(frozen=True)
class UniformInt:
    """Uniform over the inclusive range [low, high]."""

    low: int
    high: int

    def __post_init__(self):
        if self.low < 1 or self.high < self.low:
            raise ValueError("need 1 <= low <= high")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=size, dtype=np.int64)


@dataclass(frozen=True)
class LogNormalInt:
    """Lognormal with the given arithmetic mean, rounded and clamped to >= 1."""

    mean_tokens: float
    sigma: float = 0.5

    def __post_init__(self):
        if self.mean_tokens < 1 or self.sigma <= 0:
            raise ValueError("need mean_tokens >= 1 and sigma > 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mu = np.log(self.mean_tokens) - 0.5 * self.sigma ** 2
        raw = rng.lognormal(mu, self.sigma, size=size)
        return np.maximum(1, np.rint(raw)).astype(np.int64)


LengthDist = Union[Constant, UniformInt, LogNormalInt]


# Length sources --------------------------------------------------------------


@dataclass(frozen=True)
class Synthetic:
    prompt_dist: LengthDist
    output_dist: LengthDist


@dataclass(frozen=True)
class DatasetFile:
    path: str


@dataclass(frozen=True)
class Concatenated:
    path: str
    target_mean_prompt_len: int


LengthSource = Union[Synthetic, DatasetFile, Concatenated]


@dataclass(frozen=True)
class WorkloadConfig:
    rate: float
    count: int
    seed: int
    length_source: LengthSource

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def with_rate(self, rate: float) -> "WorkloadConfig":
        return WorkloadConfig(rate, self.count, self.seed, self.length_source)


def load_dataset_lengths(path) -> list[tuple[int, int]]:
    """Read a JSONL length file into (prompt_len, output_len) pairs."""
    def parse(obj: dict) -> tuple[int, int]:
        pair = (_field(obj, "prompt_len", (int,)),
                _field(obj, "output_len", (int,)))
        if pair[0] < 1 or pair[1] < 1:
            raise ValueError("lengths must be >= 1")
        return pair

    pairs = _read_jsonl(path, parse)
    if not pairs:
        raise TraceFormatError(f"{path}: empty dataset")
    return pairs


def concatenate_to_length(records: Sequence[tuple[int, int]], target_mean: int,
                          count: int, rng: np.random.Generator,
                          ) -> list[tuple[int, int]]:
    """Build long prompts by summing randomly sampled item lengths.

    Items are accumulated until the running prompt total first reaches
    ``target_mean``; the output length of the composite is taken from the last
    item concatenated.  When every item alone is longer than four times the
    target there is nothing to concatenate, so items are passed through
    unchanged (with a warning).
    """
    if not records:
        raise ValueError("empty dataset")
    if target_mean < 1:
        raise ValueError("target_mean must be >= 1")
    if all(p > 4 * target_mean for p, _ in records):
        warnings.warn(
            "all dataset prompts exceed 4x the concatenation target; "
            "passing items through unconcatenated", stacklevel=2)
        idx = rng.integers(0, len(records), size=count)
        return [records[i] for i in idx]

    out = []
    for _ in range(count):
        total = 0
        output_len = 1
        while total < target_mean:
            p, o = records[int(rng.integers(0, len(records)))]
            total += p
            output_len = o
        out.append((total, output_len))
    return out


def generate(config: WorkloadConfig) -> list[RequestSpec]:
    """Sample a workload: exponential inter-arrival gaps, then lengths.

    Deterministic for a fixed config; arrivals are sorted by construction.
    """
    rng = np.random.default_rng(config.seed)
    gaps = rng.exponential(scale=1.0 / config.rate, size=config.count)
    arrivals = np.cumsum(gaps)

    src = config.length_source
    if isinstance(src, Synthetic):
        prompts = src.prompt_dist.sample(rng, config.count)
        outputs = src.output_dist.sample(rng, config.count)
        pairs = list(zip(prompts.tolist(), outputs.tolist()))
    elif isinstance(src, DatasetFile):
        records = load_dataset_lengths(src.path)
        idx = rng.integers(0, len(records), size=config.count)
        pairs = [records[i] for i in idx]
    elif isinstance(src, Concatenated):
        records = load_dataset_lengths(src.path)
        pairs = concatenate_to_length(
            records, src.target_mean_prompt_len, config.count, rng)
    else:
        raise TypeError(f"unknown length source: {src!r}")

    return [
        RequestSpec(f"r{i:06d}", float(arrivals[i]), int(p), int(o))
        for i, (p, o) in enumerate(pairs)
    ]


# Workload files ---------------------------------------------------------------


def save_workload(path, specs: Sequence[RequestSpec]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in specs:
            f.write(json.dumps({
                "request_id": s.request_id,
                "arrival_s": s.arrival,
                "prompt_len": s.prompt_len,
                "output_len": s.output_len,
            }))
            f.write("\n")


def load_workload(path) -> list[RequestSpec]:
    return _read_jsonl(path, lambda obj: RequestSpec(
        request_id=_field(obj, "request_id", (str,)),
        arrival=float(_field(obj, "arrival_s", _NUMBER)),
        prompt_len=_field(obj, "prompt_len", (int,)),
        output_len=_field(obj, "output_len", (int,)),
    ))
