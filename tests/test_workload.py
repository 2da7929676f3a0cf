import json
import math
import re

import numpy as np
import pytest

from servesim.traces import TraceFormatError
from servesim.workload import (
    Concatenated,
    Constant,
    DatasetFile,
    LogNormalInt,
    RequestSpec,
    Synthetic,
    UniformInt,
    WorkloadConfig,
    concatenate_to_length,
    generate,
    load_dataset_lengths,
    load_workload,
    save_workload,
)

SYN = Synthetic(Constant(100), Constant(20))


def write_dataset(path, pairs):
    with open(path, "w", encoding="utf-8") as f:
        for p, o in pairs:
            f.write(json.dumps({"prompt_len": p, "output_len": o}) + "\n")


def test_poisson_mean_interarrival():
    specs = generate(WorkloadConfig(rate=2.0, count=1000, seed=7,
                                    length_source=SYN))
    arrivals = [s.arrival for s in specs]
    gaps = np.diff([0.0] + arrivals)
    assert abs(np.mean(gaps) - 0.5) / 0.5 < 0.10
    assert arrivals == sorted(arrivals)


def test_single_request_workload():
    specs = generate(WorkloadConfig(rate=1.0, count=1, seed=3,
                                    length_source=SYN))
    assert len(specs) == 1
    assert specs[0].arrival >= 0.0


def test_generation_is_deterministic():
    config = WorkloadConfig(rate=3.0, count=200, seed=11, length_source=Synthetic(
        LogNormalInt(220, 0.6), UniformInt(50, 300)))
    assert generate(config) == generate(config)


def test_different_seeds_differ():
    a = generate(WorkloadConfig(2.0, 50, 1, SYN))
    b = generate(WorkloadConfig(2.0, 50, 2, SYN))
    assert a != b


def test_synthetic_means_converge():
    config = WorkloadConfig(rate=1.0, count=1000, seed=5, length_source=Synthetic(
        LogNormalInt(220, 0.6), LogNormalInt(180, 0.7)))
    specs = generate(config)
    assert abs(np.mean([s.prompt_len for s in specs]) - 220) / 220 < 0.10
    assert abs(np.mean([s.output_len for s in specs]) - 180) / 180 < 0.10


def test_uniform_int_bounds_and_mean():
    rng = np.random.default_rng(0)
    samples = UniformInt(10, 20).sample(rng, 2000)
    assert samples.min() >= 10 and samples.max() <= 20
    assert abs(samples.mean() - 15.0) < 0.5


# ---------------------------------------------------------------------------
# Concatenation.


def test_concat_exact_division():
    rng = np.random.default_rng(1)
    pairs = concatenate_to_length([(800, 55)], 1600, 20, rng)
    assert all(p == 1600 for p, _ in pairs)
    assert all(o == 55 for _, o in pairs)


def test_concat_first_reach_rule():
    rng = np.random.default_rng(1)
    pairs = concatenate_to_length([(2000, 33)], 1600, 5, rng)
    assert all(p == 2000 and o == 33 for p, o in pairs)


def test_concat_mean_within_band(tmp_path):
    rng = np.random.default_rng(9)
    items = [(int(v), int(v // 4) + 1)
             for v in rng.integers(100, 400, size=50)]
    out = concatenate_to_length(items, 1600, 600, np.random.default_rng(2))
    mean = np.mean([p for p, _ in out])
    assert 1360 <= mean <= 1840
    assert all(p >= 1600 for p, _ in out)  # first-reach always lands at/after


def test_concat_output_len_comes_from_last_item():
    rng = np.random.default_rng(4)
    items = [(700, 11), (900, 22)]
    for p, o in concatenate_to_length(items, 1600, 50, rng):
        assert o in (11, 22)


def test_concat_passthrough_when_items_too_long():
    rng = np.random.default_rng(4)
    with pytest.warns(UserWarning, match="unconcatenated"):
        pairs = concatenate_to_length([(9000, 7), (8000, 9)], 1600, 10, rng)
    assert all((p, o) in [(9000, 7), (8000, 9)] for p, o in pairs)


def test_generate_from_dataset_and_concat(tmp_path):
    path = tmp_path / "lengths.jsonl"
    write_dataset(path, [(300, 40), (500, 60), (250, 20)])
    specs = generate(WorkloadConfig(1.0, 50, 3, DatasetFile(str(path))))
    assert all((s.prompt_len, s.output_len) in [(300, 40), (500, 60), (250, 20)]
               for s in specs)
    specs = generate(WorkloadConfig(1.0, 50, 3, Concatenated(str(path), 1000)))
    assert all(s.prompt_len >= 1000 for s in specs)


def test_empty_or_malformed_dataset(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(TraceFormatError, match="empty dataset"):
        load_dataset_lengths(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"prompt_len": 10, "output_len": 5}\n{"prompt_len": 10}\n')
    with pytest.raises(TraceFormatError, match="line 2"):
        load_dataset_lengths(bad)


# ---------------------------------------------------------------------------
# Workload files.


def test_workload_roundtrip(tmp_path):
    specs = generate(WorkloadConfig(2.0, 100, 21, SYN))
    path = tmp_path / "wl.jsonl"
    save_workload(path, specs)
    assert load_workload(path) == specs


def test_workload_file_byte_stable(tmp_path):
    specs = generate(WorkloadConfig(2.5, 10_000, 8, Synthetic(
        LogNormalInt(220, 0.6), LogNormalInt(180, 0.7))))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_workload(p1, specs)
    save_workload(p2, load_workload(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_workload_malformed_line(tmp_path):
    p = tmp_path / "wl.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.5, "prompt_len": 10, '
                 '"output_len": 5}\nnot json\n')
    with pytest.raises(TraceFormatError, match="line 2"):
        load_workload(p)


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(0.0, 10, 1, SYN)
    with pytest.raises(ValueError):
        WorkloadConfig(1.0, 0, 1, SYN)
    with pytest.raises(ValueError):
        RequestSpec("x", -1.0, 10, 10)
    with pytest.raises(ValueError):
        RequestSpec("x", 0.0, 0, 10)


@pytest.mark.parametrize("arrival", [math.nan, math.inf, -0.5])
def test_request_spec_rejects_bad_arrival(arrival):
    # A NaN arrival used to pass (NaN < 0 is False) and hang the engine.
    with pytest.raises(ValueError, match="arrival must be finite"):
        RequestSpec("x", arrival, 10, 10)


def test_request_spec_rejects_a_negative_zero_arrival():
    # The engine's records of it would hold -0.0, which read_trace refuses.
    with pytest.raises(ValueError, match="^x: arrival and times must not "
                       "be -0.0"):
        RequestSpec("x", -0.0, 10, 10)


@pytest.mark.parametrize("field", ["prompt_len", "output_len"])
@pytest.mark.parametrize("length", [2**64, -2**63 - 1])
def test_request_spec_refuses_an_int_the_reader_reads_as_a_float(field,
                                                                 length):
    lengths = {"prompt_len": 10, "output_len": 10, field: length}
    with pytest.raises(ValueError, match=f"^{field}: an int outside"):
        RequestSpec("x", 0.0, **lengths)


@pytest.mark.parametrize("request_id", ["", "a|b", "|"])
def test_request_spec_refuses_an_id_iterations_csv_cannot_give_back(
        tmp_path, request_id):
    # iterations.csv joins a batch's ids with "|".
    with pytest.raises(ValueError, match=re.escape(repr(request_id))):
        RequestSpec(request_id, 0.0, 10, 10)
    p = tmp_path / "wl.jsonl"
    p.write_text(json.dumps({"request_id": request_id, "arrival_s": 0.0,
                             "prompt_len": 4, "output_len": 2}) + "\n")
    with pytest.raises(TraceFormatError, match="line 1: "):
        load_workload(p)


@pytest.mark.parametrize("field, text", [
    ("arrival_s", "NaN"), ("arrival_s", "Infinity"), ("arrival_s", "1e400"),
    ("arrival_s", '"0.1"'), ("prompt_len", "4.9"), ("output_len", "true"),
    ("request_id", "7"),
])
def test_workload_file_values_are_checked(tmp_path, field, text):
    obj = {"request_id": '"b"', "arrival_s": "0.1", "prompt_len": "4",
           "output_len": "2"}
    obj[field] = text
    fields = ", ".join(f'"{k}": {v}' for k, v in obj.items())
    p = tmp_path / "wl.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "prompt_len": 4, '
                 f'"output_len": 2}}\n{{{fields}}}\n')
    with pytest.raises(TraceFormatError, match="line 2: "):
        load_workload(p)


def test_dataset_lengths_are_checked(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"prompt_len": 10, "output_len": 5}\n'
                   '{"prompt_len": 10.5, "output_len": 5}\n')
    with pytest.raises(TraceFormatError, match="line 2: prompt_len: expected int"):
        load_dataset_lengths(bad)
