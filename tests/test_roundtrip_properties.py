"""Load/save cycles are byte-stable: traces, workloads and configs."""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servesim.config import (
    ExperimentConfig,
    Variant,
    experiment_from_config,
    experiment_to_config,
)
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.delivery import DelayConfig
from servesim.engine import EngineConfig
from servesim.metrics import (
    BenefitParams,
    IndicatorPenalty,
    LinearSeconds,
    TokensEquivalent,
)
from servesim.schedulers import ChunkedPrefill, DecodePrepone, VllmLike
from servesim.traces import RequestTrace, read_trace, write_trace
from servesim.workload import (
    Concatenated,
    Constant,
    DatasetFile,
    LogNormalInt,
    RequestSpec,
    Synthetic,
    UniformInt,
    WorkloadConfig,
    load_workload,
    save_workload,
)

times = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
non_negative = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
ids = st.text(max_size=8)
# A spec's id is not empty and holds no "|", which joins iterations.csv ids.
spec_ids = ids.filter(lambda i: i and "|" not in i)
counts = st.integers(1, 10**6)


@st.composite
def request_traces(draw):
    arrival = draw(times)
    token_times = []
    t = arrival
    for gap in draw(st.lists(st.floats(0.0, 10.0), max_size=6)):
        t += gap
        token_times.append(t)
    # The reader rejects what no metric can score, so delivery times stay
    # in order and only a record with tokens may be completed.
    delivery = None
    if draw(st.booleans()):
        delivery, prev = [], arrival
        for g in token_times:
            prev = max(prev, g + draw(st.floats(0.0, 1.0)))
            delivery.append(prev)
        delivery = tuple(delivery)
    completed = bool(token_times) and draw(st.booleans())
    return RequestTrace(draw(ids), arrival, tuple(token_times),
                        draw(st.integers(0, 10**6)), completed, delivery)


def _cycle_bytes(write, read, items) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, name) for name in ("a", "b"))
        write(first, items)
        write(second, read(first))
        with open(first, "rb") as f1, open(second, "rb") as f2:
            return f1.read(), f2.read()


@settings(max_examples=60, deadline=None)
@given(st.lists(request_traces(), max_size=5))
def test_trace_cycle_is_byte_stable(records):
    first, second = _cycle_bytes(write_trace, read_trace, records)
    assert first == second


# Arbitrary floats, NaN and infinities included, ints of any size, past the
# float range too, float subclasses and bools, in any order and with strings
# among them; sorted lists of numbers too, so that many records are accepted.
numbers = (st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf,
                            2**53 + 1, 10**400])
           | st.floats() | st.integers() | st.floats().map(np.float64)
           | st.booleans())
# np.float64 compares with an int past the float range by converting it.
any_times = (st.lists(numbers | st.text(max_size=2), max_size=5)
             | st.lists(numbers, max_size=5).map(lambda times: sorted(
                 times, key=lambda t: float(t) if type(t) is np.float64
                 else t)))


@settings(max_examples=300, deadline=None)
@given(st.floats(), any_times, st.booleans(), st.none() | any_times)
@example(0.0, [0.5, 1.0], True, [0.5, 2.0])
def test_record_is_rejected_or_read_back_equal(arrival, token_times,
                                               completed, delivery):
    """Any times at all: the record is refused at construction, or it is
    written and read back equal."""
    try:
        rec = RequestTrace("a", arrival, tuple(token_times), 4, completed,
                           None if delivery is None else tuple(delivery))
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        write_trace(path, [rec])
        assert read_trace(path) == [rec]


# A scalar of any JSON kind.
scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))


def _written_and_read(write, read, items):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.jsonl")
        write(path, items)
        return read(path)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, st.sampled_from([(), (1.0,), (1.0, 2.0)]), scalars,
       scalars)
@example(True, 0.5, (1.0,), True, 1)
@example("a", True, (1.0,), 4, True)
def test_record_scalars_are_rejected_or_read_back_equal(
        request_id, arrival, token_times, prompt_len, completed):
    """Any scalars at all: the record is refused at construction, or it is
    written and read back equal."""
    try:
        rec = RequestTrace(request_id, arrival, token_times, prompt_len,
                           completed)
    except (ValueError, TypeError):
        return
    assert _written_and_read(write_trace, read_trace, [rec]) == [rec]


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, scalars, scalars)
@example("a", 0.5, True, 1.5)
@example("a", True, 1, 1)
def test_spec_scalars_are_rejected_or_read_back_equal(
        request_id, arrival, prompt_len, output_len):
    """Any scalars at all: the spec is refused at construction, or it is
    saved and loaded back equal."""
    try:
        spec = RequestSpec(request_id, arrival, prompt_len, output_len)
    except (ValueError, TypeError):
        return
    assert _written_and_read(save_workload, load_workload, [spec]) == [spec]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(RequestSpec, spec_ids, times, counts, counts),
                max_size=5))
def test_workload_cycle_is_byte_stable(specs):
    first, second = _cycle_bytes(save_workload, load_workload, specs)
    assert first == second


dists = st.one_of(
    counts.map(Constant),
    st.tuples(counts, counts).map(lambda p: UniformInt(min(p), max(p))),
    st.builds(LogNormalInt, st.floats(1.0, 1e4), positive),
)
sources = st.one_of(
    st.builds(Synthetic, dists, dists),
    st.builds(DatasetFile, st.text(max_size=8)),
    st.builds(Concatenated, st.text(max_size=8), counts),
)
policies = st.one_of(
    st.builds(TtftTbt, positive, positive),
    st.builds(EndToEnd, positive),
    st.builds(ReadingSpeed, positive, positive),
)
penalties = st.one_of(
    st.builds(LinearSeconds, non_negative),
    st.builds(TokensEquivalent, positive),
    st.builds(IndicatorPenalty, non_negative, non_negative),
)
schedulers = st.one_of(
    st.just(VllmLike()),
    st.builds(ChunkedPrefill, counts),
    st.builds(DecodePrepone, counts, st.none() | non_negative),
)
deliveries = st.none() | st.builds(DelayConfig, positive, st.booleans())


@st.composite
def engines(draw):
    seqs = draw(counts)
    return EngineConfig(draw(positive), draw(non_negative), draw(non_negative),
                        seqs + draw(st.integers(0, 10**6)), seqs, draw(counts))


@st.composite
def experiments(draw):
    # A variant names its artifacts, so no path separator or NUL.
    name_chars = st.characters(
        exclude_characters=os.sep + (os.altsep or "") + "\0")
    names = draw(st.lists(st.text(name_chars, min_size=1, max_size=8),
                          min_size=1, max_size=4, unique=True))
    variants = tuple(Variant(name, draw(schedulers), draw(deliveries))
                     for name in names)
    # Each rate names its cells' artifacts as {rate:g}; no two may share one.
    rates = sorted(draw(st.lists(positive, min_size=1, max_size=4,
                                 unique_by=lambda rate: f"{rate:g}")))
    return ExperimentConfig(
        workload=WorkloadConfig(draw(positive), draw(counts),
                                draw(st.integers(0, 2**32)), draw(sources)),
        engine=draw(engines()),
        variants=variants,
        policy=draw(policies),
        benefit=BenefitParams(draw(non_negative), draw(penalties)),
        rates=tuple(rates),
        trim_start_frac=draw(st.floats(0.0, 0.45)),
        trim_end_frac=draw(st.floats(0.0, 0.45)),
        use_delivery=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(experiments())
def test_config_is_a_fixed_point(config):
    text = json.dumps(experiment_to_config(config), indent=2)
    again = experiment_from_config(json.loads(text))
    assert again == config
    assert json.dumps(experiment_to_config(again), indent=2) == text
