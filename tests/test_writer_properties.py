"""The artifact writers write the bytes of the reference writers in oracles.

The package writes each trace time list with orjson where its number text
is the repr and with ``json.dumps`` elsewhere.  Every CSV artifact goes
through one writer, ``write_csv``: it takes each column of numbers as text
from one orjson pass, ``_number_texts``, quotes each column of str as
``csv.writer`` does, and joins the rows of a table a chunk at a time.
``report.json`` fills one row template per request from such columns.
These tests hold ``write_csv`` to a ``csv.writer`` row per table row, and
every byte of the artifacts to a plain ``json.dumps`` per record, a
``csv.writer`` row per plan run, an ``np.diff`` per request and a
``csv.writer`` row per CDF point, a strict ``json.dump(indent=2)`` per
report and a ``csv.writer`` row with each float's ``repr`` per report row,
summary cell and token.  A written iteration log also reads back as the
records its entries expand to, and a writer that fails leaves no file.
"""

import dataclasses
import json
import math
import os
import tempfile
from itertools import accumulate
from operator import add, attrgetter
from types import SimpleNamespace

import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from servesim.metrics import (
    MetricsReport,
    RequestMetrics,
    write_report_csv,
    write_report_json,
)
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.runner import (
    CellResult,
    _write_summary,
    _write_tbt_cdf,
    _write_token_timeline,
)
from servesim.traces import (
    _REPR_HIGH,
    _REPR_LOW,
    IterationLog,
    RequestTrace,
    _number_texts,
    _times_json,
    write_csv,
    write_iterations_csv,
    write_trace,
)
from servesim.workload import RequestSpec, save_workload

floats = st.sampled_from([0.0, -0.0, 1.0, 0.5, math.nan, math.inf,
                          -math.inf]) | st.floats()
# Characters that csv quotes, the id separator and non-ASCII text.
ids = st.text(st.sampled_from(',"\n\r|\\ é日')
              | st.characters(codec="utf-8"), max_size=6)


def assert_same_bytes(write, reference, value):
    with tempfile.TemporaryDirectory() as d:
        got, want = os.path.join(d, "got"), os.path.join(d, "want")
        write(got, value)
        reference(want, value)
        with open(got, "rb") as f, open(want, "rb") as g:
            assert f.read() == g.read()


# Each end of orjson's repr range, from both sides, and values of each
# kind outside it.
EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
         9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats() | st.integers(-2**63, 2**64 - 1), max_size=12))
@example(EDGES)
@example([-x for x in EDGES])
@example([0, 1, -1, 2**64 - 1, -2**63, 10**16])
@example([1.5, 2**64])
def test_number_texts_are_the_repr(values):
    assert _number_texts(values) == list(map(repr, values))


def test_number_texts_write_none_as_asked():
    assert _number_texts([None, 0.5, None, 1e16], "null") == [
        "null", "0.5", "null", "1e+16"]
    assert _number_texts((None,)) == [""]
    assert _number_texts([]) == []


# What a column of numbers may hold: ints past 64 bits, floats at and past
# each end of orjson's repr range, NaN, the infinities and None.
csv_numbers = (st.none() | floats | st.integers(-2**70, 2**70)
               | st.sampled_from(EDGES + [-x for x in EDGES]))


@st.composite
def csv_tables(draw):
    """Tables of one to four columns, each of str or of numbers."""
    size = draw(st.integers(0, 6))
    return [draw(st.lists(ids if draw(st.booleans()) else csv_numbers,
                          min_size=size, max_size=size))
            for _ in range(draw(st.integers(1, 4)))]


# Tables past two chunks of rows: ids csv quotes, numbers outside orjson's
# repr range and None, then a narrower table and a lone column of empty
# fields, which csv.writer quotes.
LONG_TABLES = [
    [[f'r{i},"é"' for i in range(2500)],
     [None if i % 3 == 0 else 1e-7 * i for i in range(2500)],
     [2**64 + i if i % 7 == 0 else i for i in range(2500)]],
    [["#agg"] * 2049, [math.nan if i % 2 else 1e16 for i in range(2049)]],
    [[""] * 1030],
    [[None] * 1025],
]


@settings(max_examples=300, deadline=None)
@given(st.lists(ids, min_size=1, max_size=4), st.lists(csv_tables(),
                                                     max_size=3))
@example(["timeline", "tbt_s", "cdf"], LONG_TABLES)
@example([""], [[[""]], [["a", ""]]])
def test_write_csv_bytes_match_reference(header, tables):
    assert_same_bytes(lambda path, t: write_csv(path, header, t),
                      lambda path, t: oracles.write_csv(path, header, *t),
                      tables)


@pytest.mark.parametrize("column", [
    [1.0, "a"], ["a", 1.0], [None, "a,b"], ["a", None], [2**65, "a"],
    ["a"] * 1024 + [0.5], [0.5] * 1024 + ["a"]])
def test_write_csv_refuses_a_column_of_str_and_numbers(tmp_path, column):
    # Either way round: written, the str would shift the row's fields.
    path = tmp_path / "mixed.csv"
    with pytest.raises(TypeError):
        write_csv(path, ["x", "y"], [[list(range(len(column))), column]])
    assert not path.exists()


@pytest.mark.parametrize("lengths", [(2, 3), (3, 2), (1030, 1024)])
def test_write_csv_refuses_columns_of_unequal_lengths(tmp_path, lengths):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["x", "y"], [[[0.5] * n for n in lengths]])
    assert not path.exists()


@pytest.mark.parametrize("bound", [_REPR_LOW, _REPR_HIGH])
def test_orjson_writes_the_repr_inside_the_range_only(bound):
    """orjson's text is the repr from _REPR_LOW up to below _REPR_HIGH and
    not past either end; both writers that rely on it hold at each end."""
    below = math.nextafter(bound, 0.0)
    inside, outside = (bound, below) if bound == _REPR_LOW else (below, bound)
    for x in (inside, -inside):
        assert orjson.dumps(x).decode() == repr(x)
    for x in (outside, -outside):
        assert orjson.dumps(x).decode() != repr(x)
    for x in (below, bound):
        assert _number_texts([x, -x]) == [repr(x), repr(-x)]
        assert _times_json((0.0, x)) == json.dumps([0.0, x]).encode()
    assert _times_json((below, bound)) == json.dumps([below, bound]).encode()


# What a record may be given: non-negative finite numbers other than -0.0,
# equal ints and floats among them, which it holds as floats.
TIMES = [0.0, 0, 1, 1.0, 0.5, 1e-7, 1e16]
times = (st.sampled_from(TIMES) | st.floats(0.0, allow_infinity=False)
         | st.integers(0, 2**70))


@st.composite
def traces(draw):
    # Records draw their times from a shared pool, as batch-mates share
    # their iterations' ends.  Each draws an arrival and its token times in
    # order, so the constructor accepts it.
    pool = draw(st.lists(times, min_size=1, max_size=8))
    values = st.sampled_from(pool) | times
    records = []
    for request_id in draw(st.lists(ids, max_size=6)):
        arrival, *token_times = sorted(draw(st.lists(values, min_size=1,
                                                     max_size=9)))
        delivery = None
        if draw(st.booleans()):
            delivery = tuple(accumulate(
                (t if h is None else t + h
                 for t, h in zip(token_times, draw(st.lists(
                     st.sampled_from([None, 0, 3, 2**60]),
                     min_size=len(token_times), max_size=len(token_times))))),
                max))
        # The reader holds an int in [-2**63, 2**64) as an int.
        records.append(RequestTrace(request_id, arrival, tuple(token_times),
                                    draw(st.integers(-2**63, 2**64 - 1)),
                                    bool(token_times) and draw(st.booleans()),
                                    delivery))
    return records


@settings(max_examples=300, deadline=None)
@given(traces())
@example([RequestTrace("a", 0.0, (0.0, 0.5), 1, True),
          RequestTrace("b", 0, (0, 0.5, 1.0), 2, False, (0.0, 0.5, 1))])
@example([RequestTrace("c", 1, (1.0, 2.0), 1, True),
          RequestTrace("d", 1.0, (1, 1.0, 2), 1, True)])
def test_trace_bytes_match_reference(records):
    # Ints are held, and so written, as floats.
    assert {type(t) for rec in records
            for t in (rec.arrival, *rec.token_times,
                      *(rec.delivery_times or ()))} <= {float}
    assert_same_bytes(write_trace, oracles.write_trace, records)


@settings(max_examples=20, deadline=None)
@given(st.floats(1e-6, 1e6), st.integers(1, 50), st.integers(0, 40))
def test_trace_bytes_of_many_distinct_times(step, size, overlap):
    """Thousands of distinct times, records that share some, then times seen
    before and a zero."""
    times = [i * step for i in range(1, 4096 + 2 * size + 100)]
    records = [RequestTrace(f"r{k}", 0.0,
                            tuple(times[k * size:(k + 1) * size + overlap]),
                            1, True)
               for k in range(len(times) // size)]
    records.append(RequestTrace("again", 0.0, tuple(times[:size]), 1, True))
    records.append(RequestTrace("zero", 0.0, (0.0,), 1, True))
    assert_same_bytes(write_trace, oracles.write_trace, records)


# Times in {0.0} and [1e-4, 1e16), where orjson's number text is the repr,
# and times below and at the ends of that range: orjson writes 1e-07 and
# 1e+16 as 1e-7 and 1e16, so json.dumps writes such a list.
@pytest.mark.parametrize("times, by_orjson", [
    ((), True),
    ((0.0, 0.0), True),
    ((0.0, 1e-4, 0.5, 9999999999999998.0), True),
    ((0.0, 1e-7, 0.5), False),
    ((0.0, 9.999999999999999e-05), False),
    ((0.5, 1e16), False),
    ((5e-324, 1.0), False),
])
def test_trace_time_lists_are_written_as_json_dumps(monkeypatch, times,
                                                    by_orjson):
    lists = []

    def dumps(value):
        lists.append(value)
        return orjson.dumps(value)

    monkeypatch.setattr("servesim.traces.orjson",
                        SimpleNamespace(dumps=dumps))
    rec = RequestTrace("a", 0.0, times, 2**64 - 1, bool(times), times)
    assert_same_bytes(write_trace, oracles.write_trace, [rec])
    # The token and the delivery times.
    assert lists == ([times, times] if by_orjson else [])


@st.composite
def iteration_logs(draw, ints=True, ids=ids):
    """Logs whose times are floats, and ints too if ``ints``."""
    numbers = floats | st.integers(0, 10) if ints else floats
    equal = [0.0, -0.0, 0, 1.0, 1, 2.0, 2] if ints else [0.0, -0.0, 1.0, 2.0]
    counts = st.integers(0, 10**6)
    id_tuples = st.lists(ids, max_size=3).map(tuple)
    tails = draw(st.lists(
        st.tuples(numbers, counts, counts, id_tuples, id_tuples, counts,
                  counts, counts, st.none() | numbers),
        min_size=1, max_size=4))
    runs = []
    # Neighbouring entries may share a tail, or differ only in the sign or
    # type of an equal duration.
    for _ in range(draw(st.integers(0, 12))):
        duration, *rest = draw(st.sampled_from(tails))
        if draw(st.booleans()):
            duration = draw(st.sampled_from(equal))
        start = draw(numbers)
        runs.append((start, draw(st.integers(1, 6)), duration, *rest))
    return IterationLog(tuple(runs))


def write_log_reference(path, log):
    oracles.write_iterations_csv(path, log.runs)


@settings(max_examples=300, deadline=None)
@given(iteration_logs())
@example(IterationLog(((0.0, 1, 0.0, 1, 1, (), ("a",), 0, 1, 5, None),
                       (0.5, 2, 0.0, 1, 1, (), ("a",), 0, 1, 5, None),
                       (1.0, 1, -0.0, 1, 1, (), ("a",), 0, 1, 5, 1.25))))
@example(IterationLog(((0.0, 1, 1.0, 0, 2, ("x,y",), ('"q"', "日"), 3, 2,
                        9, None),
                       (1.0, 3, 1, 0, 2, ("x,y",), ('"q"', "日"), 3, 2, 9,
                        None))))
@example(IterationLog(tuple((i * 0.25, 1 + i % 3, 1e-7 * (i % 2), i, 1, (),
                             ("a",), 0, 1, 5, None if i % 5 else i * 0.3)
                            for i in range(2500))))
def test_iterations_bytes_match_reference(log):
    assert_same_bytes(write_iterations_csv, write_log_reference, log)


# Floats only, as the engine logs them, and ids that neither are empty nor
# hold the "|" that joins them.
@settings(max_examples=300, deadline=None)
@given(iteration_logs(False, ids.filter(lambda i: i and "|" not in i)))
@example(IterationLog(((0.1, 3, 0.2, 0, 1, (), ("a",), 0, 1, 7, None),
                       (0.7000000000000001, 1, -0.0, 4, 0, ("b",), (), 1, 1,
                        7, 0.75))))
def test_written_iterations_read_back_as_the_log(log):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "iterations.csv")
        write_iterations_csv(path, log)
        got = oracles.read_iterations_csv(path)
    # repr is exact for a float and tells -0.0 from 0.0.
    assert [repr(r) for r in got] == [
        repr(tuple(r)) for r in oracles.iteration_records(log.runs)]


# Token times as the engine and read_trace give them, floats, and ints,
# which a record holds as floats.
cdf_times = (st.sampled_from([0.0, 0, 1, 0.5, 0.1, 1e-7, 1e16])
             | st.floats(0.0, 1e9) | st.integers(0, 2**53))


@st.composite
def cdf_records(draw):
    """Records of 0 tokens and up, in any order; in about half of the
    draws none holds delivery times."""
    pool = draw(st.lists(cdf_times, min_size=1, max_size=8))
    values = st.sampled_from(pool) | cdf_times
    delivered = draw(st.booleans())
    records = []
    for i in range(draw(st.integers(0, 8))):
        arrival, *token_times = sorted(draw(st.lists(values, min_size=1,
                                                     max_size=6)))
        delivery = None
        if delivered and draw(st.booleans()):
            holds = draw(st.lists(st.sampled_from([0.0, 0.25, 3.0]),
                                  min_size=len(token_times),
                                  max_size=len(token_times)))
            delivery = tuple(accumulate(map(add, token_times, holds), max))
        records.append(RequestTrace(f"r{i}", arrival, tuple(token_times), 1,
                                    bool(token_times), delivery))
    return records


@settings(max_examples=300, deadline=None)
@given(cdf_records())
@example([])
@example([RequestTrace("a", 0.0, (), 1, False),
          RequestTrace("b", 0.0, (0.5,), 1, True, (0.75,)),
          RequestTrace("c", 0.0, (0.5, 1.0, 2.0), 1, True),
          RequestTrace("d", 1.0, (1.0,), 1, True),
          RequestTrace("e", 1.0, (1.5, 1.75), 1, True, (1.5, 2.0)),
          RequestTrace("f", 2.0, (), 1, False)])
@example([RequestTrace("a", 0.0, (0.5,), 1, True),
          RequestTrace("b", 0.0, (0.5, 1.0, 2.0), 1, True),
          RequestTrace("c", 0.0, (), 1, False)])
def test_tbt_cdf_bytes_match_reference(records):
    assert_same_bytes(_write_tbt_cdf, oracles.write_tbt_cdf, records)


def columns_of(rows):
    """The ``columns`` of a report whose records are ``rows``."""
    return {f.name: [getattr(r, f.name) for r in rows]
            for f in dataclasses.fields(RequestMetrics)}


def report_strategy(values, mean_ttft):
    """Reports whose floats are drawn from ``values``."""
    optional = st.none() | values
    request_rows = st.builds(RequestMetrics, ids, values, st.integers(),
                             st.booleans(), optional, optional, optional,
                             optional, values, optional, values,
                             st.booleans())
    percentiles = st.dictionaries(st.sampled_from(["p50", "p90", "p99"]),
                                  values)
    return st.builds(MetricsReport, values, values,
                     st.lists(request_rows, max_size=40).map(columns_of),
                     values, values, values, values, values, percentiles,
                     percentiles, mean_ttft, values)


reports = report_strategy(floats, floats)
# What report.json can hold: finite numbers, and a NaN mean TTFT, which is
# written as null.
finite = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(
    allow_nan=False, allow_infinity=False)
finite_reports = report_strategy(finite, finite | st.just(math.nan))
EMPTY_REPORT = MetricsReport(0.0, 1.0, columns_of(()), 0.0, 0.0, 0.0, 0.0,
                             0.0, {}, {}, math.nan, 0.0)


def large_report(big, odd, rows=500):
    """Request rows, some with None fields, ids that csv quotes."""
    return MetricsReport(
        0.0, 100.0,
        columns_of([RequestMetrics(f"r{i},\"é\"", i * 0.5, i, i % 2 == 0,
                                   *([None] * 4 if i % 3 == 0
                                     else [0.1 * i, -0.0, big, 0.2]),
                                   float(i), None if i % 3 == 0 else -0.0,
                                   -1.5 * i, i % 5 == 0)
                    for i in range(rows)]),
        1.0, 2.0, 3.0, -4.0, 0.5, {"p50": 0.1, "p90": 0.2, "p99": 0.3},
        {"p50": odd}, 0.25, 0.125)


# Ids that are not all str, which only a hand-built record can hold: every
# record constructor refuses one.
NON_STR_IDS = [(5, "r,1", None), ("r,1", 5), ("a", b"b")]


@pytest.mark.parametrize("write", [write_report_json, write_report_csv])
@pytest.mark.parametrize("request_ids", NON_STR_IDS)
def test_report_writers_refuse_an_id_that_is_not_a_str(tmp_path, write,
                                                       request_ids):
    report = dataclasses.replace(EMPTY_REPORT, columns=columns_of([
        RequestMetrics(rid, 0.5, 1, True) for rid in request_ids]))
    path = tmp_path / "report"
    with pytest.raises(TypeError):
        write(path, report)
    assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(finite_reports)
@example(EMPTY_REPORT)
@example(large_report(1e300, 0.4))
@example(large_report(1e-300, 0.4, rows=2500))
def test_report_json_bytes_match_reference(report):
    assert_same_bytes(write_report_json, oracles.write_report_json, report)


FLOAT_REQUEST_FIELDS = ["arrival", "ttft", "tpot", "e2e", "max_tbt",
                        "idle_latency", "peak_lateness", "benefit"]


@settings(max_examples=100, deadline=None)
@given(finite_reports, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["aggregate", "percentile", *FLOAT_REQUEST_FIELDS]))
def test_report_json_refuses_a_number_strict_json_cannot_hold(report, bad,
                                                              where):
    # Strict JSON has no NaN or Infinity literal, so the writer raises
    # rather than write a file a strict parser refuses.
    if where == "aggregate":
        report = dataclasses.replace(report, smooth_goodput_per_s=bad)
    elif where == "percentile":
        report = dataclasses.replace(report, tbt_percentiles={"p99": bad})
    else:
        row = dataclasses.replace(RequestMetrics("r", 0.0, 1, True),
                                  **{where: bad})
        report = dataclasses.replace(
            report, columns=columns_of((*report.per_request, row)))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "report.json")
        with pytest.raises(ValueError):
            write_report_json(path, report)
        assert not os.path.exists(path)


def test_report_json_refused_past_its_first_rows_leaves_no_file(tmp_path):
    report = large_report(1.0, 0.4, rows=2500)
    bad = RequestMetrics("late", 0.0, 1, True, e2e=math.inf)
    report = dataclasses.replace(
        report, columns=columns_of((*report.per_request, bad)))
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="e2e"):
        write_report_json(path, report)
    assert not path.exists()


@pytest.mark.parametrize("write, record", [
    (write_trace, RequestTrace("a", 0.0, (1.0,), 1, True)),
    (save_workload, RequestSpec("a", 0.0, 1, 1))], ids=["trace", "workload"])
def test_a_line_writer_that_fails_leaves_no_file(tmp_path, write, record):
    # The first line is written before the second record fails.
    path = tmp_path / "lines.jsonl"
    with pytest.raises(AttributeError):
        write(path, [record, object()])
    assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(reports)
@example(EMPTY_REPORT)
@example(large_report(math.inf, math.nan))
@example(large_report(1e-300, 0.4, rows=2500))
def test_report_csv_bytes_match_reference(report):
    assert_same_bytes(write_report_csv, oracles.write_report_csv, report)


positive = st.floats(1e-9, 1e9)
deadline_policies = (st.builds(ReadingSpeed, positive, positive)
                     | st.builds(EndToEnd, positive)
                     | st.builds(TtftTbt, positive, positive))


@settings(max_examples=200, deadline=None)
@given(cdf_records(), deadline_policies, st.booleans())
@example([RequestTrace("a", 0.0, (0.0, 1e-7, 0.5, 1e16), 1, True,
                       (0.0, 0.25, 0.75, 1e16))],
         TtftTbt(1e-5, 0.25), True)
def test_token_timeline_bytes_match_reference(records, policy, use_delivery):
    # The runner plots a scored request, which has a token.
    for rec in filter(attrgetter("token_times"), records):
        assert_same_bytes(
            lambda path, r: _write_token_timeline(path, r, policy,
                                                  use_delivery),
            lambda path, r: oracles.write_token_timeline(path, r, policy,
                                                         use_delivery),
            rec)


cells = st.builds(CellResult, ids, floats | st.integers(0, 10),
                  st.none() | reports, st.none() | ids)


@settings(max_examples=200, deadline=None)
@given(st.lists(cells, max_size=8))
@example([])
@example([CellResult("a", 1.0, EMPTY_REPORT), CellResult("b", 1e-7),
          CellResult("c", 1e16, error="ValueError: x"),
          CellResult("d,\"", 2, large_report(1.0, 0.4, rows=3))])
def test_summary_bytes_match_reference(cells):
    assert_same_bytes(_write_summary, oracles.write_summary, cells)
