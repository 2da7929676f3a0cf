import math
import os

import pytest

from servesim.traces import (
    RequestTrace,
    TokenTimeline,
    TraceFormatError,
    read_trace,
    write_trace,
)


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
    with pytest.raises(ValueError, match="delivery precedes generation"):
        RequestTrace("x", 0.0, (1.0, 2.0), 8, True,
                     delivery_times=(1.0, math.nan))


def test_delivery_never_precedes_generation():
    with pytest.raises(ValueError):
        RequestTrace("x", 0.0, (1.0, 2.0), 8, True, delivery_times=(1.0, 1.9))


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
], ids=["decreasing", "before_arrival", "complete_empty",
        "decreasing_delivery"])
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
                       match=f"line 1: {field}: expected a list of numbers"):
        read_trace(p)
