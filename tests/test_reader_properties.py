"""Every reader fails closed: arbitrary JSON lines either load or raise
TraceFormatError naming the line, and an experiment config with any one field
replaced either loads or raises ConfigError naming its path; never a bare
Python error.  Every workload that loads runs through the engine under each
built-in policy, or is refused with a ValueError."""

import copy
import json
import math
import os
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from servesim import traces
from servesim.config import ConfigError, load_experiment
from servesim.engine import EngineConfig, run
from servesim.schedulers import ChunkedPrefill, DecodePrepone, VllmLike
from servesim.traces import (
    RequestTrace,
    TraceFormatError,
    read_trace,
    write_trace,
)
from servesim.workload import load_dataset_lengths, load_workload

# Integers past the double range overflow float(); NaN and infinities are
# written as the NaN/Infinity literals.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(-10**400)
    | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8)

# A line every reader loads, with one key set to any JSON value or dropped,
# so each field check is reached and not only the missing-key path.
VALID = {"request_id": "r1", "arrival_s": 0.5, "token_times_s": [1.0, 1.5],
         "delivery_times_s": [1.0, 2.0], "prompt_len": 4, "output_len": 2,
         "completed": True}


# Times that break one clause of the timeline rule each, or that the
# record converts (an int time), set over VALID's arrival of 0.5 and token
# times of [1.0, 1.5].
TIME_MUTATIONS = [
    {"token_times_s": [1.5, 1.0]},  # a decreasing pair
    {"delivery_times_s": [2.0, 1.0]},
    {"arrival_s": -0.0},
    {"arrival_s": 0.0, "token_times_s": [-0.0, 1.5],
     "delivery_times_s": [0.0, 2.0]},
    {"arrival_s": 0.0, "token_times_s": [0.0, 1.5],
     "delivery_times_s": [-0.0, 2.0]},
    {"token_times_s": [0.25, 1.5]},  # a time before the arrival
    {"arrival_s": 1},  # an int arrival, converted
    {"token_times_s": [1, 1.5]},  # an int or a bool among the floats
    {"token_times_s": [True, 1.5]},
    {"delivery_times_s": [1.0, 2]},
    {"delivery_times_s": [1.0, False]},
    {"delivery_times_s": [1.0]},  # a delivery shorter than the tokens
    {"delivery_times_s": [1.0, 1.25]},  # a delivery before its token
    {"delivery_times_s": None},
    {"token_times_s": [], "completed": True},
    {"token_times_s": [], "delivery_times_s": [], "completed": False},
    {"arrival_s": -0.5},
    {"delivery_times_s": [1.0, 2.0, 3.0]},  # or longer
    {"delivery_times_s": 2.0},
    # An empty object is as long as no tokens; only its type refuses it.
    {"token_times_s": [], "delivery_times_s": {}, "completed": False},
]


@st.composite
def mutated_records(draw):
    record = dict(VALID)
    how = draw(st.sampled_from(["set", "drop", "times"]))
    if how == "times":
        record.update(draw(st.sampled_from(TIME_MUTATIONS)))
        return record
    key = draw(st.sampled_from(sorted(VALID)))
    if how == "set":
        record[key] = draw(json_values)
    else:
        del record[key]
    return record


# A KV budget of 64 tokens keeps every workload the engine accepts tiny; a
# 32-token batch lets a prompt fill it and still leaves room for output.
SMALL_ENGINE = EngineConfig(max_batch_tokens=32, max_running_seqs=4,
                            kv_capacity_tokens=64)


@st.composite
def limit_records(draw):
    """A valid line at the engine's limits: an arrival from 1e13 s, where a
    default iteration starts to round away, to 1e308 s; a prompt that fills
    a batch; an output that fills the KV budget."""
    batch, kv = SMALL_ENGINE.max_batch_tokens, SMALL_ENGINE.kv_capacity_tokens
    prompt = draw(st.just(batch) | st.integers(1, batch))
    return {**VALID, "request_id": draw(st.sampled_from(["r1", "r2"])),
            "arrival_s": draw(st.floats(1e13, 1e308)), "prompt_len": prompt,
            "output_len": draw(st.just(kv - prompt)
                               | st.integers(1, kv - prompt))}


lines = st.lists(json_values | mutated_records() | limit_records(),
                 min_size=1, max_size=4)

POLICIES = [VllmLike(), ChunkedPrefill(16), DecodePrepone(2)]


def check_runs_or_refuses(workload):
    """Each built-in policy serves ``workload`` with strictly increasing
    token times per request, or the engine refuses it with a ValueError."""
    for policy in POLICIES:
        try:
            trace = run(workload, SMALL_ENGINE, policy)
        except ValueError:
            continue
        for rec in trace.requests:
            times = rec.token_times
            assert rec.arrival < times[0]
            assert all(a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("reader", [read_trace, load_workload,
                                    load_dataset_lengths])
@settings(max_examples=150, deadline=None)
@given(values=lines)
# A clock past about 7e13 s cannot advance by a 6 ms iteration; the engine
# must say so, not put every token at the arrival.  limit_records reaches
# such arrivals; the case stays pinned here.
@example(values=[{**VALID, "arrival_s": 7.1e13}])
def test_readers_load_or_name_the_line(reader, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for value in values:
                f.write(json.dumps(value) + "\n")
        try:
            loaded = reader(path)
        except TraceFormatError as exc:
            # Every line written is non-blank, so no file is empty.
            assert ": line " in str(exc)
        else:
            assert len(loaded) == len(values)
            if reader is read_trace:
                # Every trace that loads can be written and read back equal.
                again = os.path.join(tmp, "again.jsonl")
                write_trace(again, loaded)
                assert read_trace(again) == loaded
            elif reader is load_workload:
                check_runs_or_refuses(loaded)


def _read_outcome(read, path):
    """What ``read`` gives for ``path``: its records, or the number of the
    line a TraceFormatError names."""
    try:
        return read(path)
    except TraceFormatError as exc:
        return int(re.search(r": line (\d+): ", str(exc)).group(1))


@settings(max_examples=300, deadline=None)
@given(values=lines)
# Lines orjson refuses or reads otherwise than the stdlib: a literal, a
# number past the double range, a lone surrogate, ints past 64 bits.
@example(values=[VALID, {**VALID, "token_times_s": [1.0, float("nan")]}])
@example(values=[{**VALID, "token_times_s": [1.0, 10**400]}])
@example(values=[{**VALID, "request_id": "\ud800"}])
@example(values=[{**VALID, "prompt_len": 2**64}, VALID])
@example(values=[{**VALID, "prompt_len": 2**64 - 1, "arrival_s": -2**63 - 1}])
@example(values=[{**VALID, "token_times_s": [10**30, 2**64 + 1],
                  "delivery_times_s": [10**30, 2**70]}])
def test_read_trace_gives_what_the_stdlib_reference_gives(values):
    """The same records, or a refusal naming the same line."""
    assert_read_as_the_reference(values)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(json_values | mutated_records() | limit_records(),
                       min_size=1, max_size=6))
@example(values=[VALID, VALID, {**VALID, "token_times_s": [1.5, 1.0]}])
@example(values=[VALID, {**VALID, "arrival_s": 1}, {**VALID, "completed": 1}])
def test_read_trace_in_chunks_of_two_gives_what_the_reference_gives(values):
    """As above, with the reader's chunks two lines long, so that a bad line
    can follow a good chunk or a line the screen refuses in its own chunk."""
    with mock.patch.object(traces, "_READ_LINES", 2):
        assert_read_as_the_reference(values)


@pytest.mark.parametrize("chunk_rows", [1, 2])
@pytest.mark.parametrize("mutation", TIME_MUTATIONS)
def test_each_time_mutation_reads_as_the_reference(mutation, chunk_rows):
    # The mutated line alone in its chunk, or after a good line in it.
    with mock.patch.object(traces, "_READ_LINES", chunk_rows):
        assert_read_as_the_reference([VALID, {**VALID, **mutation}, VALID])


def assert_read_as_the_reference(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for value in values:
                f.write(json.dumps(value) + "\n")
        assert (_read_outcome(read_trace, path)
                == _read_outcome(oracles.read_trace, path))


# Arrivals and times around VALID's, with the values the rule singles out.
rule_values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, -1.0, math.inf,
                               -math.inf, math.nan])


@st.composite
def timeline_rows(draw):
    """An arrival, token times, delivery times as long or None, and a
    completed flag."""
    times = draw(st.lists(rule_values, max_size=3).map(sorted)
                 | st.lists(rule_values, max_size=3))
    delivery = draw(st.none() | st.lists(rule_values, min_size=len(times),
                                         max_size=len(times)).map(sorted))
    return draw(rule_values), times, delivery, draw(st.booleans())


def _constructed(row) -> bool:
    arrival, times, delivery, completed = row
    try:
        RequestTrace("r", arrival, times, 1, completed, delivery)
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(timeline_rows(), min_size=1, max_size=3))
def test_the_flat_timeline_rule_is_the_record_rule(rows):
    """``_timelines_hold`` over a chunk's columns passes exactly when every
    record's constructor does."""
    arrivals, times, delivery, completed = zip(*rows)
    (_, arrivals, _, completed, counts, times, delivery,
     _) = traces._columns(["r"] * len(rows), arrivals, times,
                          [1] * len(rows), completed, delivery)
    assert (traces._timelines_hold(arrivals, completed, counts, times,
                                   delivery)
            == all(map(_constructed, rows)))


SWEEP = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                     "default_sweep.json")
with open(SWEEP, encoding="utf-8") as _f:
    SWEEP_CONFIG = json.load(_f)


def _fields(value, path=()):
    """The key path of every value below ``value``, in document order."""
    keys = (range(len(value)) if type(value) is list
            else value if type(value) is dict else ())
    for key in keys:
        yield (*path, key)
        yield from _fields(value[key], (*path, key))


def _path_text(where):
    """``where`` as ConfigError names it, e.g. ``variants[3].delivery``."""
    text = ""
    for key in where:
        text += f"[{key}]" if type(key) is int else (
            f".{key}" if text else key)
    return text


def _related(a, b):
    """Whether path ``a`` is ``b``, inside it or one of its sections."""
    return a == b or any(a.startswith(b + sep) or b.startswith(a + sep)
                         for sep in ".[")


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from(list(_fields(SWEEP_CONFIG))), value=json_values)
def test_load_experiment_loads_or_names_the_path(where, value):
    obj = copy.deepcopy(SWEEP_CONFIG)
    target = obj
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        try:
            load_experiment(path)
        except ConfigError as exc:
            # The error names the replaced field, a field inside it, or a
            # section holding it (a cross-field rule such as unique names).
            named = str(exc).split(": ", 1)[0]
            assert _related(named, _path_text(where)), str(exc)
