import json
import math
import os
import tracemalloc

import pytest

import oracles
from servesim import traces
from servesim.delivery import DelayConfig, delay_trace
from servesim.engine import EngineConfig, pyloop, run
from servesim.metrics import window_from_traces
from servesim.schedulers import DecodePrepone
from servesim.traces import (
    RequestTrace,
    TokenTimeline,
    TraceFormatError,
    read_trace,
    write_trace,
)
from servesim.workload import Synthetic, UniformInt, WorkloadConfig, generate


def test_timeline_rejects_decreasing_times():
    with pytest.raises(ValueError):
        TokenTimeline("x", 0.0, (1.0, 0.9))


def test_timeline_rejects_token_before_arrival():
    with pytest.raises(ValueError):
        TokenTimeline("x", 2.0, (1.5,))


def test_timeline_allows_ties():
    # Delivery timelines may tie when a release cap binds.
    tl = TokenTimeline("x", 0.0, (1.0, 1.0, 1.2))
    assert tl.num_tokens == 3


def test_complete_timeline_must_have_tokens():
    with pytest.raises(ValueError):
        TokenTimeline("x", 0.0, ())
    TokenTimeline("x", 0.0, (), complete=False)  # clipped-empty is fine


@pytest.mark.parametrize("request_id", [5, None, b"x", 1.5])
def test_timeline_refuses_an_id_that_is_not_a_str(request_id):
    # The rule of RequestTrace, whose file line holds a JSON string id.
    with pytest.raises(TypeError, match="^request_id: expected str"):
        TokenTimeline(request_id, 0.0, (1.0,))


def test_clipped_marks_incomplete():
    tl = TokenTimeline("x", 0.0, (0.5, 1.5, 2.5))
    cut = tl.clipped(2.0)
    assert cut.token_times == (0.5, 1.5)
    assert not cut.complete
    assert tl.clipped(3.0).complete


@pytest.mark.parametrize("arrival,times", [
    (0.0, (0.1, math.nan, 0.05)),  # the NaN must not hide the decrease
    (0.0, (math.nan,)),
    (math.nan, (0.1, 0.2)),
    (0.0, (0.1, math.inf)),
    (math.inf, ()),
])
def test_timeline_rejects_nan_and_infinite_times(arrival, times):
    with pytest.raises(ValueError):
        TokenTimeline("a", arrival, times, complete=bool(times))


def test_delivery_rejects_nan():
    # The timeline rule is checked before the generation floor.
    with pytest.raises(ValueError, match="must be finite"):
        RequestTrace("x", 0.0, (1.0, 2.0), 8, True,
                     delivery_times=(1.0, math.nan))


def test_delivery_never_precedes_generation():
    with pytest.raises(ValueError):
        RequestTrace("x", 0.0, (1.0, 2.0), 8, True, delivery_times=(1.0, 1.9))
    # One delivery per token.
    for delivery in [(1.0,), (1.0, 2.0, 3.0)]:
        with pytest.raises(ValueError, match="length mismatch"):
            RequestTrace("x", 0.0, (1.0, 2.0), 8, True, delivery)


@pytest.mark.parametrize("arrival,times,completed", [
    (0.0, (2.0, 1.0), True),
    (0.0, (1.0, math.nan), True),
    (math.nan, (1.0, 2.0), True),
    (0.0, (), True),
    (0.0, (10**400,), True),
    (0.0, ("x",), True),
    (-0.0, (1.0,), True),
    (0.0, (0.0, -0.0), True),
], ids=["decreasing", "nan_time", "nan_arrival", "complete_empty",
        "int_past_float_range", "string_time", "negative_zero_arrival",
        "negative_zero_time"])
def test_record_rejects_what_the_reader_rejects(arrival, times, completed):
    # A ValueError that names the request, whatever the bad value's type.
    with pytest.raises(ValueError, match="^a: "):
        RequestTrace("a", arrival, times, 2, completed)


@pytest.fixture
def check_calls(monkeypatch):
    """The arguments of each ``_check_timeline`` call made so far, the
    engine's included."""
    calls = []
    check = traces._check_timeline

    def counted(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(traces, "_check_timeline", counted)
    monkeypatch.setattr(pyloop, "_check_timeline", counted)
    return calls


def _timelines(records) -> int:
    return sum(1 + (rec.delivery_times is not None) for rec in records)


def test_only_untrusted_timelines_are_checked(tmp_path, check_calls):
    # The engine builds token times it has already ordered and delay_trace
    # paces checked times, so only a held delivery timeline, which the
    # scheduler's release instants shape, is checked there.  The reader
    # checks a chunk's timelines at once over its flat arrays, the
    # constructors none of them again, and a window nothing again.
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=2048,
                       max_running_seqs=64, kv_capacity_tokens=100_000)
    specs = generate(WorkloadConfig(6.0, 30, 3, Synthetic(
        UniformInt(20, 400), UniformInt(1, 30))))
    records = run(specs, eng, DecodePrepone(n=2)).requests
    held = [rec for rec in records if rec.delivery_times is not None]
    assert held and len(held) < len(records)
    # Once each, as requests finish.
    assert sorted((args[0], args[2], args[4]) for args in check_calls) == [
        (rec.request_id, rec.delivery_times, rec.token_times) for rec in held]

    del check_calls[:]
    delayed = delay_trace(records, DelayConfig(0.05))
    assert check_calls == []

    path = tmp_path / "t.jsonl"
    write_trace(path, records)
    del check_calls[:]
    assert read_trace(path) == records
    assert check_calls == []

    del check_calls[:]
    end = records[len(records) // 2].token_times[-1]
    for use_delivery in (False, True):
        window = window_from_traces(delayed, 0.0, end, use_delivery)
        assert any(not tl.complete for tl in window.requests)
    assert check_calls == []


def test_trace_roundtrip(tmp_path, fixtures_dir):
    src = os.path.join(fixtures_dir, "three_req.jsonl")
    records = read_trace(src)
    assert [r.request_id for r in records] == ["r1", "r2", "r3"]
    out = tmp_path / "copy.jsonl"
    write_trace(out, records)
    assert read_trace(out) == records


def test_trace_roundtrip_is_byte_stable(tmp_path):
    records = [
        RequestTrace("a", 0.1234567890123, (0.311111111111, 0.52),
                     17, True),
        RequestTrace("b", 1.0, (1.25, 1.5), 9, True,
                     delivery_times=(1.3, 1.5)),
    ]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(p1, records)
    write_trace(p2, read_trace(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_trace_reports_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 ' "prompt_len": 4, "completed": true}\n{"nope": 1}\n')
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(p)


def test_trace_lines_of_white_space_are_blank(tmp_path):
    """Lines of any white space, Unicode's too, are skipped, CRLF endings
    read as LF ones, and a later line is still named by its number."""
    line = ('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
            ' "prompt_len": 4, "completed": true}')
    p = tmp_path / "trace.jsonl"
    p.write_bytes(f"{line}\r\n\u3000\u00a0\n \t\r\n{line}\n".encode())
    assert len(read_trace(p)) == 2
    p.write_bytes(f"{line}\n\u3000\n{{}}\n".encode())
    with pytest.raises(TraceFormatError, match="line 3"):
        read_trace(p)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_trace_number_reports_line(tmp_path, literal):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 ' "prompt_len": 4, "completed": true}\n'
                 '{"request_id": "b", "arrival_s": 0.0, "token_times_s": '
                 f'[0.5, {literal}], "prompt_len": 4, "completed": true}}\n')
    with pytest.raises(TraceFormatError, match=f"line 2: .*{literal}"):
        read_trace(p)


@pytest.mark.parametrize("field", ["arrival_s", "token_times_s",
                                   "delivery_times_s"])
@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_overflowing_trace_number_reports_line(tmp_path, field, number):
    # Such a number parses as an infinity, which no JSON literal check sees.
    obj = {"arrival_s": "0.0", "token_times_s": "[0.5, 0.9]",
           "delivery_times_s": "[0.6, 1.0]"}
    obj[field] = number if field == "arrival_s" else f"[0.6, {number}]"
    fields = ", ".join(f'"{k}": {v}' for k, v in obj.items())
    p = tmp_path / "bad.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 ' "prompt_len": 4, "completed": true}\n'
                 f'{{"request_id": "b", {fields}, "prompt_len": 4, '
                 '"completed": true}\n')
    with pytest.raises(TraceFormatError, match="line 2: b: .*must be finite"):
        read_trace(p)


@pytest.mark.parametrize("fields", [
    '"arrival_s": 9.5, "token_times_s": [9.8, 9.6]',
    '"arrival_s": 9.6, "token_times_s": [9.5, 9.9]',
    '"arrival_s": 9.7, "token_times_s": []',
    '"arrival_s": 9.5, "token_times_s": [9.8, 9.9], '
    '"delivery_times_s": [9.95, 9.9]',
    '"arrival_s": -0.0, "token_times_s": [0.5]',
    '"arrival_s": 0, "token_times_s": [0.0, -0.0, 0.5]',
    '"arrival_s": 0.0, "token_times_s": [0.0], "delivery_times_s": [-0.0]',
], ids=["decreasing", "before_arrival", "complete_empty",
        "decreasing_delivery", "negative_zero_arrival", "negative_zero_time",
        "negative_zero_delivery"])
def test_unscorable_timeline_reports_line(tmp_path, fields):
    # No metric can score these records; each delivery time of the last one
    # still follows its generation time.
    p = tmp_path / "bad.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 ' "prompt_len": 4, "completed": true}\n'
                 f'{{"request_id": "b", {fields}, "prompt_len": 4, '
                 '"completed": true}\n')
    with pytest.raises(TraceFormatError, match="line 2: b: "):
        read_trace(p)


def test_finite_times_whose_sum_overflows_are_read(tmp_path):
    rec = RequestTrace("a", 0.0, (1e308, 1.5e308), 4, True)
    p = tmp_path / "big.jsonl"
    write_trace(p, [rec])
    assert read_trace(p) == [rec]


@pytest.mark.parametrize("field, text", [
    ("completed", '"false"'), ("completed", "1"), ("prompt_len", "4.7"),
    ("prompt_len", "true"), ("arrival_s", '"0.1"'), ("arrival_s", "true"),
    ("token_times_s", '["0.6"]'), ("token_times_s", '"0.6"'),
    ("token_times_s", "[[0.6]]"), ("delivery_times_s", '["0.7"]'),
    ("request_id", "3"),
])
def test_trace_field_types_are_checked(tmp_path, field, text):
    obj = {"request_id": '"b"', "arrival_s": "0.1", "token_times_s": "[0.6]",
           "prompt_len": "4", "completed": "true"}
    obj[field] = text
    fields = ", ".join(f'"{k}": {v}' for k, v in obj.items())
    p = tmp_path / "bad.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 f' "prompt_len": 4, "completed": true}}\n{{{fields}}}\n')
    with pytest.raises(TraceFormatError, match="line 2: "):
        read_trace(p)


def test_trace_reads_integer_times(tmp_path):
    p = tmp_path / "ints.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0, "token_times_s": [1, 2],'
                 ' "prompt_len": 4, "completed": false, "delivery_times_s": [1, 3]}\n')
    [rec] = read_trace(p)
    assert rec == RequestTrace("a", 0.0, (1.0, 2.0), 4, False, (1.0, 3.0))
    assert type(rec.arrival) is float and type(rec.token_times[0]) is float


@pytest.mark.parametrize("field, text", [
    ("token_times_s", "[true, 1.5]"), ("delivery_times_s", "[1.0, false]")])
def test_bools_in_time_lists_are_rejected(tmp_path, field, text):
    # JSON true/false would otherwise read as the times 1.0 and 0.0.
    obj = {"token_times_s": "[0.5, 1.5]", field: text}
    fields = ", ".join(f'"{k}": {v}' for k, v in obj.items())
    p = tmp_path / "bools.jsonl"
    p.write_text(f'{{"request_id": "a", "arrival_s": 0.0, {fields}, '
                 '"prompt_len": 4, "completed": true}\n')
    with pytest.raises(TraceFormatError,
                       match="line 1: a: expected real numbers"):
        read_trace(p)


@pytest.mark.parametrize("prompt_len", [-2**63 - 1, 2**64, 10**400])
def test_record_refuses_an_int_the_reader_reads_as_a_float(prompt_len):
    # The reader holds ints in [-2**63, 2**64) only; it reads one past them
    # as a float, so such a record would be written and then refused.
    with pytest.raises(ValueError, match="^prompt_len: an int outside"):
        RequestTrace("a", 0.0, (), prompt_len, False)


@pytest.mark.parametrize("prompt_len", [-2**63, 2**64 - 1])
def test_ints_at_the_64_bit_ends_read_back(tmp_path, prompt_len):
    rec = RequestTrace("a", 0.0, (0.5,), prompt_len, True)
    p = tmp_path / "t.jsonl"
    write_trace(p, [rec])
    assert read_trace(p) == [rec]
    assert type(read_trace(p)[0].prompt_len) is int


def test_a_prompt_len_past_64_bits_reports_line(tmp_path):
    p = tmp_path / "big.jsonl"
    p.write_text('{"request_id": "a", "arrival_s": 0.0, "token_times_s": [1.0],'
                 ' "prompt_len": 18446744073709551616, "completed": true}\n')
    with pytest.raises(TraceFormatError, match="line 1: prompt_len: "):
        read_trace(p)


def test_a_lone_surrogate_id_loads(tmp_path):
    # orjson refuses the line; the stdlib decoder reads it.
    rec = RequestTrace("\ud800", 0.0, (0.5,), 4, True)
    p = tmp_path / "t.jsonl"
    write_trace(p, [rec])
    assert read_trace(p) == [rec]


LINE = {"request_id": "a", "arrival_s": 0.5, "token_times_s": [1.0, 1.5],
        "prompt_len": 4, "completed": True}


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))


def test_a_bad_timeline_is_named_before_a_later_missing_key(tmp_path):
    # Line 3's missing key would fail the screen first; the constructors
    # refuse the chunk's lines in order.
    p = tmp_path / "bad.jsonl"
    missing = dict(LINE)
    del missing["completed"]
    _write_lines(p, [LINE, {**LINE, "token_times_s": [1.5, 1.0]}, missing])
    with pytest.raises(TraceFormatError,
                       match="line 2: a: times must be finite"):
        read_trace(p)


def test_a_trace_of_several_chunks_reads_as_the_reference(tmp_path):
    # Three chunks: the middle one holds an int time, which the screen
    # leaves to the constructors; the others are read as columns.
    n = 2 * traces._READ_LINES + 1
    objs = [{**LINE, "request_id": f"r{i}", "arrival_s": i / 8,
             "token_times_s": [i / 8 + 0.25 * k for k in range(1, i % 4 + 1)],
             "completed": i % 4 != 0 and i % 5 != 0}
            for i in range(n)]
    for obj in objs[::3]:
        obj["delivery_times_s"] = [t + 0.5 for t in obj["token_times_s"]]
    objs[traces._READ_LINES + 7].update(token_times_s=[n, n + 1],
                                        delivery_times_s=[n + 0.5, n + 1])
    p = tmp_path / "long.jsonl"
    _write_lines(p, objs)
    assert read_trace(p) == oracles.read_trace(p)


def test_read_trace_holds_its_columns_and_one_chunk(tmp_path):
    # Sixteen chunks of 100-token lines, two in three with delivery times.
    # Their columns are held once, the largest once more while its parts
    # are joined, and a chunk's lines as decoded objects, which take less
    # than six times their bytes.
    lines = []
    for i in range(16 * traces._READ_LINES + 5):
        times = [i + 0.001 * k for k in range(1, 101)]
        obj = {**LINE, "request_id": f"r{i:05d}", "arrival_s": float(i),
               "token_times_s": times}
        if i % 3:
            obj["delivery_times_s"] = [t + 0.5 for t in times]
        lines.append(json.dumps(obj) + "\n")
    p = tmp_path / "long.jsonl"
    p.write_text("".join(lines))
    chunk = max(len("".join(lines[i:i + traces._READ_LINES]))
                for i in range(0, len(lines), traces._READ_LINES))
    tracemalloc.start()
    try:
        records = read_trace(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [records.arrivals, records.completed, records.counts,
               records.token_times, records.delivery_times,
               records.has_delivery]
    held = sum(c.nbytes for c in columns) + max(c.nbytes for c in columns)
    assert peak <= held + 6 * chunk


def test_a_chunk_the_screen_refuses_goes_to_the_constructors(tmp_path,
                                                             check_calls):
    p = tmp_path / "t.jsonl"
    _write_lines(p, [LINE, {**LINE, "token_times_s": [1, 1.5],
                            "delivery_times_s": [1.25, 1.5]}])
    records = read_trace(p)
    assert records[1].token_times == (1.0, 1.5)
    assert len(check_calls) == _timelines(records)


def test_read_trace_is_a_sequence_of_its_records(tmp_path):
    records = [RequestTrace("a", 0.0, (0.5, 1.0), 4, True),
               RequestTrace("b", 0.25, (), 2, False),
               RequestTrace("c", 0.5, (0.75,), 3, True, (1.0,))]
    p, again = tmp_path / "t.jsonl", tmp_path / "again.jsonl"
    write_trace(p, records)
    read = read_trace(p)
    assert len(read) == 3
    assert read[-1] == records[2] and read[-3] == records[0]
    assert list(read) == records and read[1:] == records[1:]
    first, second, third = read
    assert (first, second, third) == tuple(records)
    assert read == records and records == read and read != records[:2]
    with pytest.raises(IndexError):
        read[3]
    assert type(read[0].arrival) is float and type(read[2].completed) is bool
    write_trace(again, read)
    assert again.read_bytes() == p.read_bytes()
