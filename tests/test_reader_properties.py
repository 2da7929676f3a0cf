"""Every JSON-lines reader fails closed: arbitrary JSON lines either load or
raise TraceFormatError naming the line, never a bare Python error."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servesim.traces import TraceFormatError, read_trace
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


@st.composite
def mutated_records(draw):
    record = dict(VALID)
    key = draw(st.sampled_from(sorted(VALID)))
    if draw(st.booleans()):
        record[key] = draw(json_values)
    else:
        del record[key]
    return record


lines = st.lists(json_values | mutated_records(), min_size=1, max_size=4)


@pytest.mark.parametrize("reader", [read_trace, load_workload,
                                    load_dataset_lengths])
@settings(max_examples=150, deadline=None)
@given(values=lines)
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
