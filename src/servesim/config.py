"""The experiment config file format, in one place.

Every parameter record in a config is tagged, e.g. ``{"type": "ttft_tbt",
"ttft_s": 1.0, "tbt_s": 0.2}``; delivery records are tagged by ``mode``.
``RECORDS`` maps each tag to its class and the JSON key of each field, and
one generic pair, :func:`from_config` / :func:`to_config`, walks it.  The
untagged sections (``workload``, ``engine``, ``benefit``, each variant) use
the field names as keys.

Values are checked against each field's declared type, never coerced.
Unknown keys, missing required keys and values a class rejects raise
:class:`ConfigError` naming the JSON path, e.g. ``variants[3].delivery.
first_token_delayed: expected bool, got 'false'``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace

from .deadlines import DeadlinePolicy, EndToEnd, ReadingSpeed, TtftTbt
from .delivery import DelayConfig
from .engine.config import EngineConfig
from .metrics import (
    BenefitParams,
    IndicatorPenalty,
    LinearSeconds,
    TokensEquivalent,
)
from .schedulers import (
    ChunkedPrefill,
    DecodePrepone,
    SchedulerPolicy,
    VllmLike,
    scheduler_tag,
)
from .workload import (
    Concatenated,
    Constant,
    DatasetFile,
    LogNormalInt,
    Synthetic,
    UniformInt,
    WorkloadConfig,
)


class ConfigError(ValueError):
    """An experiment config is malformed or inconsistent."""


@dataclass(frozen=True)
class Variant:
    name: str
    scheduler: SchedulerPolicy
    delivery: DelayConfig | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    workload: WorkloadConfig
    engine: EngineConfig
    variants: tuple[Variant, ...]
    policy: DeadlinePolicy
    benefit: BenefitParams
    rates: tuple[float, ...]
    trim_start_frac: float = 0.05
    trim_end_frac: float = 0.05
    use_delivery: bool = True

    def __post_init__(self):
        if not self.variants:
            raise ConfigError("variants: at least one is required")
        if len({v.name for v in self.variants}) != len(self.variants):
            raise ConfigError("variants: names must be unique")
        # A variant's name names its artifacts, which stay in the run's
        # directories.
        for v in self.variants:
            if any(c and c in v.name for c in (os.sep, os.altsep, "\0")):
                raise ConfigError(f"variants: name {v.name!r} must not "
                                  f"hold a path separator or NUL")
        if not self.rates:
            raise ConfigError("rates: at least one is required")
        if not all(0 < r < math.inf for r in self.rates):  # NaN fails too
            raise ConfigError("rates: must be positive and finite")
        if list(self.rates) != sorted(self.rates):
            raise ConfigError("rates: must be sorted ascending")
        # A cell's artifacts are named after its rate as {rate:g}, which
        # rounds monotonically: rates that share a name are neighbours.
        for lo, hi in zip(self.rates, self.rates[1:]):
            if f"{lo:g}" == f"{hi:g}":
                raise ConfigError(f"rates: {lo!r} and {hi!r} share the "
                                  f"artifact name rate{hi:g}")
        if not (0 <= self.trim_start_frac < 1 and 0 <= self.trim_end_frac < 1
                and self.trim_start_frac + self.trim_end_frac < 1):
            raise ConfigError("trim: fractions must leave a non-empty window")


# Tag -> (record class, JSON key of each field in field order).
RECORDS: dict[str, tuple[type, tuple[str, ...]]] = {
    # Length distributions and length sources (workload.length_source).
    "constant": (Constant, ("value",)),
    "uniform_int": (UniformInt, ("low", "high")),
    "lognormal_int": (LogNormalInt, ("mean_tokens", "sigma")),
    "synthetic": (Synthetic, ("prompt_dist", "output_dist")),
    "dataset_file": (DatasetFile, ("path",)),
    "concatenated": (Concatenated, ("path", "target_mean_prompt_len")),
    # Deadline policies (deadline_policy).
    "ttft_tbt": (TtftTbt, ("ttft_s", "tbt_s")),
    "e2e": (EndToEnd, ("e2e_s",)),
    "reading_speed": (ReadingSpeed,
                      ("per_token_budget_s", "first_token_allowance_s")),
    # Benefit penalties (benefit.penalty).
    "linear_seconds": (LinearSeconds, ("scale",)),
    "tokens_equivalent": (TokensEquivalent, ("per_token_budget_s",)),
    "indicator": (IndicatorPenalty, ("threshold_s", "penalty_value")),
    # Schedulers (variants[i].scheduler).
    "vllm_like": (VllmLike, ()),
    "chunked_prefill": (ChunkedPrefill, ("chunk_tokens",)),
    "decode_prepone": (DecodePrepone, ("n", "t_delay_s")),
    # Output delay (variants[i].delivery), tagged by "mode".
    "tbt_cap": (DelayConfig, ("tbt_target_s", "first_token_delayed")),
}
_TAGS = {cls: tag for tag, (cls, _) in RECORDS.items()}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _tag_key(cls: type) -> str:
    return "mode" if cls is DelayConfig else "type"


def _build(path: str, make, /, *args, **kwargs):
    """Call ``make``, reporting a value it rejects as a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _section(obj, path: str, keys=None) -> dict:
    """``obj`` itself, checked to be an object holding only ``keys``."""
    if type(obj) is not dict:
        raise ConfigError(f"{path or 'config'}: expected object, got {obj!r}")
    for key in obj:
        if keys is not None and key not in keys:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    return obj


def _value(raw, kind, path: str):
    """``raw`` checked against the declared type ``kind``, never coerced."""
    members = typing.get_args(kind)
    if type(None) in members:  # X | None
        if raw is None:
            return None
        kind = members[0]
    if kind is float:
        # abs() <= max is False for NaN and infinities, and compares an int
        # too large for a double without converting it.
        if type(raw) in (int, float) and abs(raw) <= sys.float_info.max:
            return float(raw)
    elif kind in (int, bool, str, list, dict):
        if type(raw) is kind:
            return raw
    else:
        return from_config(raw, kind, path)
    expected = {float: "finite number", dict: "object"}.get(kind, kind.__name__)
    raise ConfigError(f"{path}: expected {expected}, got {raw!r}")


def _item(obj: dict, path: str, key: str, kind, default=MISSING):
    """``obj[key]`` checked as ``kind``; ``default`` when the key is absent."""
    if key not in obj:
        if default is MISSING:
            raise ConfigError(f"{_join(path, key)}: missing required key")
        return default
    raw = obj[key]
    if key == "t_delay_s" and raw == "auto":  # automatic spacing
        raw = None
    return _value(raw, kind, _join(path, key))


def _record(obj, path: str, cls: type, keys=None, defaults=None, extra=()):
    """``cls`` built from ``obj``, one JSON key per field.

    ``keys`` defaults to the field names.  A key absent from ``obj`` takes its
    value from ``defaults``, else from the field's own default.
    """
    fs = fields(cls)
    keys = [f.name for f in fs] if keys is None else keys
    _section(obj, path, (*keys, *extra))
    defaults = defaults or {}
    hints = typing.get_type_hints(cls)
    return _build(path, cls, **{
        f.name: _item(obj, path, key, hints[f.name],
                      defaults.get(key, f.default))
        for f, key in zip(fs, keys)})


def from_config(obj, kind, path: str = ""):
    """Decode the tagged record ``obj`` as ``kind``, a record class or a union
    of record classes."""
    members = typing.get_args(kind) or (kind,)
    tag_key = _tag_key(members[0])
    tag = _section(obj, path).get(tag_key)
    entry = RECORDS.get(tag) if type(tag) is str else None
    if entry is None or entry[0] not in members:
        tags = [t for t, (c, _) in RECORDS.items() if c in members]
        raise ConfigError(f"{_join(path, tag_key)}: expected one of {tags}, "
                          f"got {tag!r}")
    cls, keys = entry
    if cls is ReadingSpeed and "tokens_per_second" in obj:  # the rate form
        if "per_token_budget_s" in obj:
            raise ConfigError(f"{path}: give per_token_budget_s or "
                              f"tokens_per_second, not both")
        rate = _build(path, ReadingSpeed.from_tokens_per_second,
                      _item(obj, path, "tokens_per_second", float))
        obj = {**obj, "per_token_budget_s": rate.per_token_budget}
        del obj["tokens_per_second"]
    return _record(obj, path, cls, keys, extra=(tag_key,))


def _encode(key: str, value):
    if key == "t_delay_s" and value is None:
        return "auto"
    return to_config(value) if is_dataclass(value) else value


def _as_dict(value, keys=None) -> dict:
    """One key per field of the dataclass ``value`` (default: field names)."""
    fs = fields(value)
    keys = [f.name for f in fs] if keys is None else keys
    return {key: _encode(key, getattr(value, f.name))
            for f, key in zip(fs, keys)}


def to_config(record) -> dict:
    """The tagged JSON form of ``record``, keys in field order."""
    cls = type(record)
    tag = _TAGS[cls]
    return {_tag_key(cls): tag, **_as_dict(record, RECORDS[tag][1])}


def experiment_from_config(obj, seed_override: int | None = None,
                           ) -> ExperimentConfig:
    _section(obj, "", ("workload", "engine", "deadline_policy", "benefit",
                       "variants", "rates", "trim", "evaluate", "seed"))
    workload = _record(_item(obj, "", "workload", dict), "workload",
                       WorkloadConfig, defaults={"rate": 1.0, "seed": 0})
    engine = _record(obj.get("engine", {}), "engine", EngineConfig)
    policy = _item(obj, "", "deadline_policy", DeadlinePolicy)
    # Reading-speed idle time counts as tokens of reading lost, so alpha is
    # dimensionless against the token count.
    penalty = (TokensEquivalent(policy.per_token_budget)
               if isinstance(policy, ReadingSpeed) else LinearSeconds(1.0))
    benefit = _record(obj.get("benefit", {}), "benefit", BenefitParams,
                      defaults={"penalty": penalty})
    variants = [_record(v, f"variants[{i}]", Variant, defaults={"name": ""})
                for i, v in enumerate(_item(obj, "", "variants", list))]
    rates = _item(obj, "", "rates", list, [workload.rate])
    trim = _section(obj.get("trim", {}), "trim", ("start_frac", "end_frac"))
    evaluate = _section(obj.get("evaluate", {}), "evaluate", ("timeline",))
    timeline = _item(evaluate, "evaluate", "timeline", str, "delivery")
    if timeline not in ("delivery", "generation"):
        raise ConfigError(f"evaluate.timeline: expected delivery or "
                          f"generation, got {timeline!r}")
    seed = _item(obj, "", "seed", int, workload.seed)
    workload = replace(workload, seed=(
        seed if seed_override is None else seed_override))
    return ExperimentConfig(
        workload=workload,
        engine=engine,
        variants=tuple(replace(v, name=v.name or scheduler_tag(v.scheduler))
                       for v in variants),
        policy=policy,
        benefit=benefit,
        rates=tuple(_value(r, float, f"rates[{i}]")
                    for i, r in enumerate(rates)),
        trim_start_frac=_item(trim, "trim", "start_frac", float, 0.05),
        trim_end_frac=_item(trim, "trim", "end_frac", float, 0.05),
        use_delivery=(timeline == "delivery"),
    )


def experiment_to_config(config: ExperimentConfig) -> dict:
    return {
        "workload": _as_dict(config.workload),
        "engine": _as_dict(config.engine),
        "deadline_policy": to_config(config.policy),
        "benefit": _as_dict(config.benefit),
        "variants": [_as_dict(v) for v in config.variants],
        "rates": list(config.rates),
        "trim": {"start_frac": config.trim_start_frac,
                 "end_frac": config.trim_end_frac},
        "evaluate": {"timeline": "delivery" if config.use_delivery
                     else "generation"},
    }


def load_experiment(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return experiment_from_config(obj, seed_override)
