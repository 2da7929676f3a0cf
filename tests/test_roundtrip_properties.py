"""Load/save cycles are byte-stable: traces, workloads and configs."""

import json
import os
import tempfile

from hypothesis import given, settings
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(RequestSpec, ids, times, counts, counts),
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
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1,
                          max_size=4, unique=True))
    variants = tuple(Variant(name, draw(schedulers), draw(deliveries))
                     for name in names)
    rates = sorted(draw(st.lists(positive, min_size=1, max_size=4)))
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
