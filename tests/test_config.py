"""The config codec: every record round-trips, every bad value is named."""

import json
import math
import os
import re
import typing
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servesim.config import (
    RECORDS,
    ConfigError,
    experiment_from_config,
    experiment_to_config,
    from_config,
    load_experiment,
    to_config,
)
from servesim.deadlines import DeadlinePolicy, EndToEnd, ReadingSpeed, TtftTbt
from servesim.delivery import DelayConfig
from servesim.metrics import (
    IndicatorPenalty,
    LinearSeconds,
    PenaltyFn,
    TokensEquivalent,
)
from servesim.schedulers import (
    ChunkedPrefill,
    DecodePrepone,
    SchedulerPolicy,
    VllmLike,
)
from servesim.workload import (
    Concatenated,
    Constant,
    DatasetFile,
    LengthDist,
    LengthSource,
    LogNormalInt,
    Synthetic,
    UniformInt,
)

SWEEP_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "default_sweep.json")

# One record per tag, every field away from its default.
SAMPLES = {
    "constant": Constant(64),
    "uniform_int": UniformInt(5, 60),
    "lognormal_int": LogNormalInt(220.0, 0.6),
    "synthetic": Synthetic(Constant(100), LogNormalInt(180.0, 0.7)),
    "dataset_file": DatasetFile("lengths.jsonl"),
    "concatenated": Concatenated("lengths.jsonl", 2048),
    "ttft_tbt": TtftTbt(1.0, 0.2),
    "e2e": EndToEnd(9.5),
    "reading_speed": ReadingSpeed(0.05, 0.3),
    "linear_seconds": LinearSeconds(2.0),
    "tokens_equivalent": TokensEquivalent(0.05),
    "indicator": IndicatorPenalty(0.5, 3.0),
    "vllm_like": VllmLike(),
    "chunked_prefill": ChunkedPrefill(128),
    "decode_prepone": DecodePrepone(4, 0.05),
    "tbt_cap": DelayConfig(0.2, True),
}

UNIONS = (DeadlinePolicy, SchedulerPolicy, PenaltyFn, LengthDist, LengthSource)


def test_samples_cover_every_record():
    assert SAMPLES.keys() == RECORDS.keys()


@pytest.mark.parametrize("tag", sorted(RECORDS))
def test_record_roundtrip(tag):
    record = SAMPLES[tag]
    cls, keys = RECORDS[tag]
    tag_key = "mode" if cls is DelayConfig else "type"
    obj = to_config(record)
    assert obj[tag_key] == tag
    assert list(obj) == list(dict.fromkeys((tag_key, *keys)))
    decoded = from_config(json.loads(json.dumps(obj)), cls)
    assert decoded == record and type(decoded) is cls
    # The same record read as a member of its union.
    kind = next((u for u in UNIONS if cls in typing.get_args(u)), cls)
    assert from_config(obj, kind) == record


def test_every_union_member_has_a_record():
    tagged = {cls for cls, _ in RECORDS.values()}
    for union in UNIONS:
        for cls in typing.get_args(union):
            assert cls in tagged, cls
    modes = {tag for tag, (cls, _) in RECORDS.items() if cls is DelayConfig}
    assert modes == {"tbt_cap"}


def test_special_forms():
    auto = DecodePrepone(2, None)
    assert to_config(auto) == {"type": "decode_prepone", "n": 2,
                               "t_delay_s": "auto"}
    assert from_config(to_config(auto), SchedulerPolicy) == auto
    assert from_config({"type": "decode_prepone", "n": 2},
                       SchedulerPolicy) == auto
    assert from_config({"type": "reading_speed", "tokens_per_second": 20},
                       DeadlinePolicy) == ReadingSpeed(0.05, 0.05)
    # Field defaults fill absent keys.
    assert from_config({"type": "indicator"}, PenaltyFn) == IndicatorPenalty()
    assert from_config({"mode": "tbt_cap", "tbt_target_s": 0.1},
                       DelayConfig) == DelayConfig(0.1)


def test_defaults_of_the_experiment_sections():
    obj = {"workload": {"count": 4, "length_source": to_config(SAMPLES["synthetic"])},
           "deadline_policy": {"type": "ttft_tbt", "ttft_s": 1.0, "tbt_s": 0.2},
           "variants": [{"scheduler": {"type": "chunked_prefill",
                                       "chunk_tokens": 64}}]}
    config = experiment_from_config(obj)
    assert (config.workload.rate, config.workload.seed) == (1.0, 0)
    assert config.rates == (1.0,)
    assert config.variants[0].name == "chunked64"
    assert config.benefit.penalty == LinearSeconds(1.0)
    assert config.use_delivery
    obj["deadline_policy"] = {"type": "reading_speed", "per_token_budget_s": 0.04}
    obj["seed"] = 5
    config = experiment_from_config(obj)
    assert config.benefit.penalty == TokensEquivalent(0.04)
    assert config.workload.seed == 5
    assert experiment_from_config(obj, seed_override=9).workload.seed == 9


def sweep_config() -> dict:
    with open(SWEEP_CONFIG, encoding="utf-8") as f:
        return json.load(f)


def test_sweep_config_reads_with_ints_as_floats():
    config = load_experiment(SWEEP_CONFIG)
    assert config.workload.length_source.prompt_dist == LogNormalInt(220.0, 0.6)
    assert type(config.workload.length_source.prompt_dist.mean_tokens) is float
    assert config.policy == ReadingSpeed(0.05, 2.0)


NAN = float("nan")

# (where in the default sweep config, the value put there, the error)
BAD_VALUES = [
    (("variants", 3, "delivery", "first_token_delayed"), "false",
     "variants[3].delivery.first_token_delayed: expected bool, got 'false'"),
    (("variants", 1, "scheduler", "chunk_tokens"), 256.9,
     "variants[1].scheduler.chunk_tokens: expected int, got 256.9"),
    (("variants", 2, "scheduler", "n"), True,
     "variants[2].scheduler.n: expected int, got True"),
    (("engine", "max_running_seqs"), "8",
     "engine.max_running_seqs: expected int, got '8'"),
    (("deadline_policy",), {"type": "e2e", "e2e_s": NAN},
     "deadline_policy.e2e_s: expected finite number, got nan"),
    (("benefit", "penalty", "per_token_budget_s"), math.inf,
     "benefit.penalty.per_token_budget_s: expected finite number, got inf"),
    (("variants", 1, "scheduler", "chunk_overhead"), 0.01,
     "variants[1].scheduler.chunk_overhead: unknown key"),
    (("workload", "count"), 2.7,
     "workload.count: expected int, got 2.7"),
    (("deadline_policy",), {"type": "ttft_tbt", "tbt_s": 0.2},
     "deadline_policy.ttft_s: missing required key"),
    (("deadline_policy",), {"type": "vllm_like"},
     "deadline_policy.type: expected one of"),
    (("variants", 3, "delivery", "mode"), "tbt",
     "variants[3].delivery.mode: expected one of"),
    (("variants", 1, "scheduler", "chunk_tokens"), 0,
     "variants[1].scheduler: chunk_tokens must be >= 1"),
    (("workload", "length_source"),
     {"type": "concatenated", "path": "lengths.jsonl",
      "target_mean_prompt_len": 0},
     "workload.length_source: target_mean_prompt_len must be >= 1"),
    (("deadline_policy", "per_token_budget_s"), 0.05,
     "deadline_policy: give per_token_budget_s or tokens_per_second"),
    (("deadline_policy", "tokens_per_second"), -20,
     "deadline_policy: tokens_per_second must be positive"),
    (("workload", "length_source", "prompt_dist"), [220],
     "workload.length_source.prompt_dist: expected object, got [220]"),
    (("rates", 2), "2.0", "rates[2]: expected finite number, got '2.0'"),
    (("workload", "rate"), 10**309, "workload.rate: expected finite number"),
    (("rate",), 2.0, "rate: unknown key"),
    (("trim", "start_frac"), None,
     "trim.start_frac: expected finite number, got None"),
    (("evaluate",), {"timeline": "both"},
     "evaluate.timeline: expected delivery or generation, got 'both'"),
    (("variants", 0), {"name": "v"},
     "variants[0].scheduler: missing required key"),
    (("variants", 1, "name"), "vllm", "variants: names must be unique"),
    (("rates",), [2.0, 1.0], "rates: must be sorted ascending"),
]


@pytest.mark.parametrize("where, value, message", BAD_VALUES,
                         ids=[m.split(":")[0] for _, _, m in BAD_VALUES])
def test_bad_value_names_its_path(where, value, message):
    obj = sweep_config()
    target = obj
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        experiment_from_config(obj)


@pytest.mark.parametrize("name", ["../escaped", f"a{os.sep}b", "a\0b"])
def test_a_variant_name_holds_no_path_separator(name):
    """A cell's artifacts are named after its variant; a separator would
    put them outside the run's directories."""
    obj = sweep_config()
    obj["variants"][1]["name"] = name
    with pytest.raises(ConfigError, match=f"^variants: name "
                                          f"{re.escape(repr(name))} must not"):
        experiment_from_config(obj)


def test_nan_read_from_a_file_names_its_path(tmp_path):
    text = json.dumps(sweep_config()).replace('"alpha": 5.0', '"alpha": NaN')
    assert "NaN" in text
    path = tmp_path / "nan.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"^benefit\.alpha: expected finite "
                                          r"number, got nan"):
        load_experiment(path)


def test_manifest_config_is_a_fixed_point():
    config = load_experiment(SWEEP_CONFIG)
    obj = experiment_to_config(config)
    assert experiment_to_config(experiment_from_config(obj)) == obj
    assert experiment_from_config(obj) == config


def _float_fields():
    """(valid record, float field) for every record a config holds."""
    config = load_experiment(SWEEP_CONFIG)
    bases = [SAMPLES[tag] for tag in RECORDS]
    bases += [config.workload, config.engine, config.benefit]
    for base in bases:
        hints = typing.get_type_hints(type(base))
        for f in fields(base):
            if float in (typing.get_args(hints[f.name]) or (hints[f.name],)):
                yield pytest.param(base, f.name,
                                   id=f"{type(base).__name__}.{f.name}")


# Every float field's lower bound is 0 or more, so negatives are out of range.
@pytest.mark.parametrize("base, name", list(_float_fields()))
@settings(max_examples=20, deadline=None)
@given(st.floats(max_value=-1e-9))
def test_every_float_field_rejects_nan_infinities_and_out_of_range(
        base, name, negative):
    for value in (math.nan, math.inf, -math.inf, negative):
        with pytest.raises(ValueError):
            replace(base, **{name: value})


def test_integer_and_rate_bounds():
    with pytest.raises(ValueError, match="need value >= 1"):
        Constant(0)
    for mean in (0, -5):
        with pytest.raises(ValueError, match="target_mean_prompt_len"):
            Concatenated("lengths.jsonl", mean)
    config = load_experiment(SWEEP_CONFIG)
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="rates: must be positive and "
                                              "finite"):
            replace(config, rates=(rate,))


@pytest.mark.parametrize("rates, lo, hi", [
    ((1.0, 2.0000001, 2.0000002), "2.0000001", "2.0000002"),
    ((2.0, 2.0), "2.0", "2.0"),
    ((1e-7, 1.0000001e-7, 3.0), "1e-07", "1.0000001e-07"),
])
def test_rates_that_share_an_artifact_name_are_rejected(rates, lo, hi):
    """Each cell writes files named after its rate as {rate:g}; two rates
    with one name would overwrite each other's."""
    config = load_experiment(SWEEP_CONFIG)
    with pytest.raises(ConfigError, match=f"^rates: {re.escape(lo)} and "
                                          f"{re.escape(hi)} share"):
        replace(config, rates=rates)
    obj = experiment_to_config(config)
    obj["rates"] = list(rates)
    with pytest.raises(ConfigError, match="^rates: "):
        experiment_from_config(obj)
    # Rates whose names differ in the sixth significant digit are kept.
    assert replace(config, rates=(2.00001, 2.00002)).rates == (2.00001,
                                                                2.00002)
