"""Independent brute-force recomputation of every metric.

Everything here is written as plain Python loops, deliberately sharing no
code path with the package implementation, so the two can cross-check each
other.  Keep it dumb.

The per-request numpy scorer after ``nearest_rank`` is the bit-exact
reference for ``build_report``, which scores a whole window at once.
``iteration_records`` expands the engine's iteration log, one entry per
plan run, into one record per iteration, which the engine tests walk;
``requests_from_log`` rebuilds each request's token and delivery times
from those records, and ``read_iterations_csv`` rebuilds the records from
a written log.
``read_trace`` decodes a trace with the stdlib ``json`` alone, the
reference for the package's reader, which decodes with orjson.  The artifact writers at the end
are the reference for the package's: one
``json.dumps`` per trace record, one ``csv.writer`` row per plan run, one
``np.diff`` per timeline and one ``csv.writer`` row per TBT CDF grid point,
one strict ``json.dump(indent=2)`` per report, one ``csv.writer`` row per
report row, per summary cell and per token of a plotted timeline, each float
its ``repr``, and ``write_csv`` is one ``csv.writer`` row per table row.
"""

import csv
import dataclasses
import json
import math
from typing import NamedTuple

import numpy as np


def ttft(arrival, times):
    return times[0] - arrival


def tbt(times):
    out = []
    for i in range(1, len(times)):
        out.append(times[i] - times[i - 1])
    return out


def tpot(times):
    return (times[-1] - times[0]) / (len(times) - 1)


def e2e(arrival, times):
    return times[-1] - arrival


def deadlines(policy_kind, params, arrival, times):
    """Deadline list (relative to arrival) for the given policy description.

    policy_kind: "reading_speed" (params: per_token, allowance),
    "e2e" (params: budget), "ttft_tbt" (params: ttft, tbt).
    """
    n = len(times)
    out = []
    if policy_kind == "reading_speed":
        per_token, allowance = params
        for i in range(1, n + 1):
            out.append(allowance + per_token * (i - 1))
    elif policy_kind == "e2e":
        (budget,) = params
        for _ in range(n):
            out.append(budget)
    elif policy_kind == "ttft_tbt":
        ttft_budget, tbt_budget = params
        for i in range(1, n + 1):
            if i == 1:
                out.append(ttft_budget)
            else:
                out.append((times[i - 2] - arrival) + tbt_budget)
    else:
        raise ValueError(policy_kind)
    return out


def peak_lateness(policy_kind, params, arrival, times):
    ds = deadlines(policy_kind, params, arrival, times)
    worst = None
    for i in range(len(times)):
        late = (times[i] - arrival) - ds[i]
        if worst is None or late > worst:
            worst = late
    return worst


def idle_latency(policy_kind, params, arrival, times):
    late = peak_lateness(policy_kind, params, arrival, times)
    return late if late > 0 else 0.0


def meets(policy_kind, params, arrival, times):
    return peak_lateness(policy_kind, params, arrival, times) <= 0


def benefit(policy_kind, params, arrival, times, alpha, penalty):
    return len(times) - alpha * penalty(idle_latency(policy_kind, params,
                                                     arrival, times))


def goodput(requests, policy_kind, params, window_len, per_request=False):
    """requests: list of (arrival, times, complete)."""
    total = 0
    for arrival, times, complete in requests:
        if complete and times and meets(policy_kind, params, arrival, times):
            total += 1 if per_request else len(times)
    return total / window_len


def smooth_goodput(requests, policy_kind, params, window_len, alpha, penalty):
    total = 0.0
    for arrival, times, _complete in requests:
        if not times:
            continue
        total += benefit(policy_kind, params, arrival, times, alpha, penalty)
    return total / window_len


def attainment(requests, policy_kind, params):
    met = 0
    for arrival, times, complete in requests:
        if complete and times and meets(policy_kind, params, arrival, times):
            met += 1
    return met / len(requests)


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1:
        rank = 1
    return ordered[rank - 1]


def deadline_series(policy, arrival, times):
    """One request's deadlines from arrival, as a float array."""
    n = len(times)
    kind = type(policy).__name__
    if kind == "ReadingSpeed":
        return (policy.first_token_allowance
                + policy.per_token_budget * np.arange(n, dtype=float))
    if kind == "EndToEnd":
        return np.full(n, policy.e2e_budget, dtype=float)
    rel = np.asarray(times) - arrival
    d = np.empty(n)
    d[0] = policy.ttft_budget
    d[1:] = rel[:-1] + policy.tbt_budget
    return d


def score_timeline(timeline, policy, params):
    """One request's record as a dict of RequestMetrics fields, and its token
    gaps, each from numpy calls on this request alone."""
    n = timeline.num_tokens
    record = {"request_id": timeline.request_id, "arrival": timeline.arrival,
              "n_tokens": n, "complete": timeline.complete,
              "ttft": None, "tpot": None, "e2e": None, "max_tbt": None,
              "idle_latency": 0.0, "peak_lateness": None, "benefit": 0.0,
              "met_slo": False}
    if not n:
        return record, np.empty(0)
    times = timeline.token_times
    array = np.asarray(times)
    gaps = np.diff(array)
    lateness = float(np.max(array - timeline.arrival
                            - deadline_series(policy, timeline.arrival,
                                              times)))
    idle = max(0.0, lateness)
    record.update(
        ttft=times[0] - timeline.arrival,
        tpot=(times[-1] - times[0]) / (n - 1) if n >= 2 else None,
        e2e=times[-1] - timeline.arrival,
        max_tbt=float(gaps.max()) if n >= 2 else None,
        idle_latency=idle,
        peak_lateness=lateness,
        benefit=n - params.alpha * params.penalty(idle),
        met_slo=timeline.complete and lateness <= 0.0)
    return record, gaps


def tbt_percentiles(gaps):
    """Nearest-rank p50/p90/p99 of the pooled gaps of every request."""
    ordered = np.sort(np.concatenate(gaps))
    if not len(ordered):
        return {}
    return {label: float(ordered[max(1, math.ceil(q * len(ordered))) - 1])
            for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))}


class Iteration(NamedTuple):
    start: float
    duration: float
    prefill_tokens: int
    decode_seqs: int
    prefill_ids: tuple
    decode_ids: tuple
    queue_depth: int
    running: int
    kv_reserved: int
    release_s: float | None


def iteration_records(runs):
    """One ``Iteration`` per iteration of each ``(start, count, duration,
    *rest)`` run, its start one ``duration`` after the one before."""
    out = []
    for start, count, duration, *rest in runs:
        t = start
        for k in range(count):
            if k > 0:
                t = t + duration
            out.append(Iteration(t, duration, *rest))
    return out


def requests_from_log(specs, runs):
    """Each request's ``(request_id, token_times, delivery_times)``, in the
    order of ``specs``, from the iteration log alone.

    Its first token is at the end of the last iteration that prefills it,
    and each later one at the end of an iteration that decodes it; a token
    is delivered at that iteration's ``release_s``, or at its end when that
    is ``None``.  ``delivery_times`` is ``None`` when it equals the token
    times.
    """
    first, tokens, delivered = {}, {}, {}
    for it in iteration_records(runs):
        end = it.start + it.duration
        for rid in it.prefill_ids:
            first[rid] = end
        for rid in it.decode_ids:
            tokens.setdefault(rid, []).append(end)
            delivered.setdefault(rid, []).append(
                end if it.release_s is None else it.release_s)
    out = []
    for spec in specs:
        rid = spec.request_id
        times = (first[rid], *tokens.get(rid, ()))
        delivery = (first[rid], *delivered.get(rid, ()))
        out.append((rid, times, None if delivery == times else delivery))
    return out


def _record_to_obj(rec):
    obj = {
        "request_id": rec.request_id,
        "arrival_s": rec.arrival,
        "token_times_s": list(rec.token_times),
        "prompt_len": rec.prompt_len,
        "completed": rec.completed,
    }
    if rec.delivery_times is not None:
        obj["delivery_times_s"] = list(rec.delivery_times)
    return obj


def _refuse_constant(name):
    raise ValueError(f"{name} is not a finite number")


def read_trace(path):
    """The records of a trace file, each line decoded by ``json.loads`` and
    built by ``RequestTrace``; a line either refuses raises
    TraceFormatError naming the line."""
    from servesim.traces import RequestTrace, TraceFormatError

    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, parse_constant=_refuse_constant)
                if type(obj) is not dict:
                    raise TypeError("not an object")
                records.append(RequestTrace(
                    obj["request_id"], obj["arrival_s"], obj["token_times_s"],
                    obj["prompt_len"], obj["completed"],
                    obj.get("delivery_times_s")))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}")
    return records


def write_trace(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(_record_to_obj(rec)))
            f.write("\n")


ITERATIONS_HEADER = ["start_s", "iterations", "duration_s",
                     "prefill_tokens", "decode_seqs", "prefill_ids",
                     "decode_ids", "queue_depth", "running", "kv_reserved",
                     "release_s"]


def write_iterations_csv(path, runs):
    """One row per ``(start, count, duration, ...)`` run of a log."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ITERATIONS_HEADER)
        for (start, count, duration, prefill_tokens, decode_seqs,
             prefill_ids, decode_ids, queue_depth, running, kv_reserved,
             release) in runs:
            writer.writerow([
                repr(start), str(count), repr(duration), str(prefill_tokens),
                str(decode_seqs), "|".join(prefill_ids),
                "|".join(decode_ids), str(queue_depth), str(running),
                str(kv_reserved), "" if release is None else repr(release),
            ])


def _ids(text):
    return tuple(text.split("|")) if text else ()


def read_iterations_csv(path):
    """The record tuples of a written log: each row's ``iterations``
    records, the first at ``start_s``, each later one ``duration_s`` after
    the one before.  Ids holding ``|``, or an empty id, do not read back."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ITERATIONS_HEADER
    out = []
    for (start, count, duration, prefill_tokens, decode_seqs, prefill_ids,
         decode_ids, queue_depth, running, kv_reserved, release) in rows[1:]:
        t = float(start)
        d = float(duration)
        rest = (int(prefill_tokens), int(decode_seqs), _ids(prefill_ids),
                _ids(decode_ids), int(queue_depth), int(running),
                int(kv_reserved), None if release == "" else float(release))
        for k in range(int(count)):
            if k > 0:
                t = t + d
            out.append((t, d, *rest))
    return out


def write_tbt_cdf(path, records):
    """Generation and delivery TBT CDF: 1001 nearest-rank rows of each
    timeline's pooled gaps, none for a timeline without a gap."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["timeline", "tbt_s", "cdf"])
        for label, pick in (("generation", lambda r: r.token_times),
                            ("delivery", lambda r: r.token_times
                             if r.delivery_times is None
                             else r.delivery_times)):
            gaps = [np.diff(pick(rec)) for rec in records]
            gaps = np.concatenate(gaps) if gaps else np.empty(0)
            if not gaps.size:
                continue
            gaps.sort()
            for k in range(1001):
                q = k / 1000
                rank = max(1, math.ceil(q * len(gaps)))
                writer.writerow([label, repr(float(gaps[rank - 1])),
                                 repr(q)])


# report.json's request keys: each record field, a time with an "_s" suffix.
_UNITLESS = {"request_id", "n_tokens", "complete", "benefit", "met_slo"}


def write_report_json(path, report):
    requests = [{f.name if f.name in _UNITLESS else f"{f.name}_s":
                 getattr(r, f.name) for f in dataclasses.fields(r)}
                for r in report.per_request]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"window": {"start_s": report.window_start,
                              "end_s": report.window_end},
                   "aggregates": report.aggregates(),
                   "requests": requests}, f, indent=2, allow_nan=False)
        f.write("\n")


def _report_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_report_csv(path, report):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["request_id", "arrival_s", "n_tokens", "complete",
                         "ttft_s", "tpot_s", "e2e_s", "max_tbt_s",
                         "idle_latency_s", "benefit", "met_slo"])
        for r in report.per_request:
            writer.writerow([_report_cell(v) for v in (
                r.request_id, r.arrival, r.n_tokens, r.complete, r.ttft,
                r.tpot, r.e2e, r.max_tbt, r.idle_latency, r.benefit,
                r.met_slo)])
        for name, value in (
                ("throughput_tokens_per_s", report.throughput_tokens_per_s),
                ("goodput_tokens_per_s", report.goodput_tokens_per_s),
                ("goodput_requests_per_s", report.goodput_requests_per_s),
                ("smooth_goodput_per_s", report.smooth_goodput_per_s),
                ("slo_attainment", report.slo_attainment),
                # NaN when no request got a token: an empty cell.
                ("mean_ttft_s", None if math.isnan(report.mean_ttft)
                 else report.mean_ttft),
                ("mean_idle_latency_s", report.mean_idle_latency)):
            writer.writerow(["#agg", name, _report_cell(value)])
        for scope, percentiles in (("ttft", report.ttft_percentiles),
                                   ("tbt", report.tbt_percentiles)):
            for label, value in percentiles.items():
                writer.writerow(["#agg", f"{scope}_{label}_s",
                                 _report_cell(value)])


SUMMARY_HEADER = ["variant", "rate", "error", "n_requests",
                  "throughput_tokens_per_s", "goodput_tokens_per_s",
                  "goodput_requests_per_s", "smooth_goodput_per_s",
                  "slo_attainment", "mean_ttft_s", "p99_tbt_s",
                  "mean_idle_latency_s"]


def write_csv(path, header, *tables):
    """The header row, then one row per index of each table's columns."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for table in tables:
            for i in range(len(table[0]) if table else 0):
                writer.writerow([column[i] for column in table])


def write_summary(path, cells):
    """One row per cell; an error cell holds its error and empty cells."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SUMMARY_HEADER)
        for cell in cells:
            rep = cell.report
            if rep is None:
                writer.writerow([cell.variant, repr(cell.rate),
                                 cell.error or "error"] + [""] * 9)
                continue
            writer.writerow([
                cell.variant, repr(cell.rate), "",
                str(len(rep.per_request)),
                repr(rep.throughput_tokens_per_s),
                repr(rep.goodput_tokens_per_s),
                repr(rep.goodput_requests_per_s),
                repr(rep.smooth_goodput_per_s),
                repr(rep.slo_attainment),
                # No mean TTFT or p99 TBT is an empty cell, as in report.csv.
                "" if math.isnan(rep.mean_ttft) else repr(rep.mean_ttft),
                repr(rep.tbt_percentiles["p99"])
                if "p99" in rep.tbt_percentiles else "",
                repr(rep.mean_idle_latency),
            ])


def write_token_timeline(path, rec, policy, use_delivery):
    """One row per token: its generation and delivery instants, its
    deadline on the scored timeline from the arrival, and the arrival."""
    delivered = (rec.token_times if rec.delivery_times is None
                 else rec.delivery_times)
    scored = delivered if use_delivery else rec.token_times
    deadlines = deadline_series(policy, rec.arrival, scored)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["token_index", "generated_s", "delivered_s",
                         "deadline_s", "arrival_s"])
        for i in range(len(rec.token_times)):
            writer.writerow([str(i + 1), repr(rec.token_times[i]),
                             repr(delivered[i]),
                             repr(rec.arrival + float(deadlines[i])),
                             repr(rec.arrival)])
