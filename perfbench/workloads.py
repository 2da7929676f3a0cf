"""The benchmark's three workloads: their inputs, one timed pass, and the
checks on that pass's outputs.

Each workload is a closed loop with one caller: a pass is one call (or one
short sequence of calls) that a servesim user waits for, and the next pass
starts only after it returns.  Inputs derive from ``--seed`` alone.  A pass
calls servesim through module attributes (``runner.run_experiment``,
``cli.main``) looked up at call time, so the traced run can wrap them.

``run_pass`` is the only timed code.  ``check`` runs after it, untimed, and
returns a :class:`PassResult` whose fingerprint must repeat exactly on every
pass of a run, and must match ``reference.json`` at the reference seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from statistics import NormalDist

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# The seed in configs/default_sweep.json; fingerprints are recorded for it.
REFERENCE_SEED = 7

# Capacity search settings fixed by the benchmark definition.
CAPACITY_THRESHOLD = 0.7
CAPACITY_BRACKET = (0.5, 8.0)
# 1.25x the default sweep's 240 requests per probe.
CAPACITY_COUNT = 300

# Synthetic "captured" trace for score_trace.
SCORE_COUNT = 4000
SCORE_POLICY = {"type": "ttft_tbt", "ttft_s": 2.0, "tbt_s": 0.25}

SMOKE_SWEEP = {"count": 24, "rates": [1.0, 4.0]}
SMOKE_CAPACITY_COUNT = 40
SMOKE_SCORE_COUNT = 60


class CheckError(Exception):
    """A pass produced outputs that fail the benchmark's checks."""


@dataclass
class PassResult:
    """What one pass did, as seen from its outputs."""

    attempted: int
    failed: int
    tokens: int
    fingerprint: str
    # Exact counts derived from the outputs; they must repeat across passes.
    counts: dict = field(default_factory=dict)
    # Human-readable semantic results stored next to a reference fingerprint.
    summary: dict = field(default_factory=dict)


def fingerprint(obj) -> str:
    """sha256 of canonical JSON; floats keep their shortest round-trip repr."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _default_config(root: str) -> dict:
    return _load_json(os.path.join(root, "configs", "default_sweep.json"))


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def feasible_seed(config, seed: int) -> int:
    """``seed``, or the first ``seed + 100000 * k`` whose workload fits.

    A prompt longer than ``max_batch_tokens`` fits no batch under the
    non-chunked schedulers, which reject it by design ("needs chunked
    prefill"), so every cell of theirs would fail.  The default lognormal
    prompt lengths draw one for about 1% of seeds.  Lengths do not depend on
    the rate, so one rate is checked.
    """
    from servesim import workload
    limit = config.engine.max_batch_tokens
    for k in range(100):
        candidate = seed + 100_000 * k
        specs = workload.generate(dataclasses.replace(config.workload, seed=candidate))
        if max(spec.prompt_len for spec in specs) <= limit:
            return candidate
    raise CheckError(f"no seed from {seed} gives prompts within {limit} tokens")


class Workload:
    """Base: a workload owns a work directory and a config file.

    ``seed`` is the config seed override the passes use.
    """

    name = ""

    def __init__(self, root: str, work: str, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.config_path = ""

    def load_config(self):
        from servesim import runner
        return runner.load_experiment(self.config_path, seed_override=self.seed)

    def check_pass(self) -> PassResult | None:
        """Untimed pass whose internal outputs are checked; None if unneeded."""
        return None

    def run_pass(self):
        raise NotImplementedError

    def check(self, output) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep_artifacts: run_experiment on the default sweep, writing every artifact.


class SweepArtifacts(Workload):
    name = "sweep_artifacts"

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        self.config_path = os.path.join(root, "configs", "default_sweep.json")
        if smoke:
            obj = _default_config(root)
            obj["workload"]["count"] = SMOKE_SWEEP["count"]
            obj["rates"] = SMOKE_SWEEP["rates"]
            self.config_path = os.path.join(work, "sweep_smoke.json")
            _write_json(self.config_path, obj)
        self.seed = feasible_seed(self.load_config(), seed)
        self.config = self.load_config()
        self.out = os.path.join(work, "sweep")

    def run_pass(self):
        from servesim import runner
        return runner.run_experiment(self.config, out_dir=self.out)

    def check(self, result) -> PassResult:
        try:
            return self._check(result)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, result) -> PassResult:
        failed = [c for c in result.cells if c.error]
        tokens = 0
        for rate in self.config.rates:
            want = {}
            with open(os.path.join(self.out, f"workload_rate{rate:g}.jsonl"),
                      encoding="utf-8") as f:
                for line in f:
                    spec = json.loads(line)
                    want[spec["request_id"]] = spec["output_len"]
            for variant in self.config.variants:
                if any(c.variant == variant.name and c.rate == rate
                       for c in failed):
                    continue
                path = os.path.join(self.out, "cells",
                                    f"{variant.name}_rate{rate:g}", "trace.jsonl")
                tokens += _check_trace_file(path, want)
        with open(os.path.join(self.out, "summary.csv"), "rb") as f:
            summary = f.read().decode("utf-8")
        files, size = _tree_size(self.out)
        return PassResult(
            attempted=len(result.cells), failed=len(failed), tokens=tokens,
            fingerprint=fingerprint(summary),
            counts={"runner.artifact_files": files,
                    "runner.artifact_bytes": size},
            summary={"cells": len(result.cells), "tokens": tokens})


def _check_trace_file(path: str, want: dict) -> int:
    """Every request emits exactly output_len tokens; delivery never early."""
    seen = set()
    tokens = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            rid = rec["request_id"]
            gen = rec["token_times_s"]
            if len(gen) != want.get(rid) or not rec["completed"]:
                raise CheckError(f"{path}: {rid} emitted {len(gen)} tokens, "
                                 f"want {want.get(rid)}")
            _check_delivery(rid, gen, rec.get("delivery_times_s"))
            seen.add(rid)
            tokens += len(gen)
    if seen != set(want):
        raise CheckError(f"{path}: request ids differ from the workload")
    return tokens


def _check_delivery(rid, gen, delivery) -> None:
    if delivery is None:
        return
    if len(delivery) != len(gen) or any(d < g for g, d in zip(gen, delivery)):
        raise CheckError(f"{rid}: delivery precedes generation")


# ---------------------------------------------------------------------------
# capacity: capacity_search for every variant, no artifacts.


class Capacity(Workload):
    name = "capacity"

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        obj = _default_config(root)
        obj["workload"]["count"] = SMOKE_CAPACITY_COUNT if smoke else CAPACITY_COUNT
        self.config_path = os.path.join(work, "capacity.json")
        _write_json(self.config_path, obj)
        self.seed = feasible_seed(self.load_config(), seed)
        self.config = self.load_config()
        self.tokens = 0

    def run_pass(self):
        from servesim import runner
        out = []
        for variant in self.config.variants:
            try:
                out.append((variant.name, runner.capacity_search(
                    self.config, CAPACITY_THRESHOLD, CAPACITY_BRACKET,
                    variant=variant)))
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                out.append((variant.name, exc))
        return out

    def check_pass(self) -> PassResult:
        """One pass with the engine and delivery outputs checked in place.

        Capacity search discards its traces, so the invariants are checked
        here; every timed pass must then reproduce this pass's probe log.
        """
        from servesim import engine, runner
        tally = {"tokens": 0}
        engine_run, delay_trace = engine.run, runner.delay_trace

        def checked_run(workload, *args, **kwargs):
            trace = engine_run(workload, *args, **kwargs)
            want = {spec.request_id: spec.output_len for spec in workload}
            if len(trace.requests) != len(want):
                raise CheckError("engine dropped or duplicated requests")
            for rec in trace.requests:
                if len(rec.token_times) != want[rec.request_id] or not rec.completed:
                    raise CheckError(f"{rec.request_id}: emitted "
                                     f"{len(rec.token_times)} tokens, want "
                                     f"{want[rec.request_id]}")
            tally["tokens"] += trace.total_tokens()
            return trace

        def checked_delay(records, config):
            out = delay_trace(records, config)
            for before, rec in zip(records, out):
                if before.token_times != rec.token_times:
                    raise CheckError(f"{rec.request_id}: delivery changed "
                                     f"generation times")
                _check_delivery(rec.request_id, rec.token_times,
                                rec.delivery_times)
            return out

        engine.run, runner.delay_trace = checked_run, checked_delay
        try:
            output = self.run_pass()
        finally:
            engine.run, runner.delay_trace = engine_run, delay_trace
        self.tokens = tally["tokens"]
        return self.check(output)

    def check(self, output) -> PassResult:
        results = {}
        failed = probes = 0
        for name, value in output:
            if isinstance(value, Exception):
                failed += 1
                results[name] = {"error": f"{type(value).__name__}: {value}"}
                continue
            capacity, log = value
            probes += len(log)
            results[name] = {"capacity": capacity,
                             "probes": [[r, a] for r, a in log]}
        return PassResult(
            attempted=len(output), failed=failed, tokens=self.tokens,
            fingerprint=fingerprint(results),
            counts={"runner.capacity_probes": probes},
            summary={name: r.get("capacity", r.get("error"))
                     for name, r in results.items()})


# ---------------------------------------------------------------------------
# score_trace: `servesim metrics` on a captured-style trace, both timelines.


class ScoreTrace(Workload):
    name = "score_trace"
    timelines = ("delivery", "generation")

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        obj = _default_config(root)
        obj["deadline_policy"] = SCORE_POLICY
        self.config_path = os.path.join(work, "score.json")
        _write_json(self.config_path, obj)
        self.config = self.load_config()
        self.trace_path = os.path.join(work, "trace.jsonl")
        requests = write_synthetic_trace(
            self.trace_path, seed, SMOKE_SCORE_COUNT if smoke else SCORE_COUNT)
        self.tokens = sum(n for _, _, n, _ in requests)
        # The window arithmetic of runner.trimmed_window.
        makespan = max(last for _, _, _, last in requests)
        start = self.config.trim_start_frac * makespan
        end = (1.0 - self.config.trim_end_frac) * makespan
        self.in_window = {rid: n for rid, arrival, n, _ in requests
                          if start <= arrival < end}

    def run_pass(self):
        from servesim import cli
        out = []
        for timeline in self.timelines:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([
                    "metrics", "--config", self.config_path,
                    "--seed", str(self.seed), "--trace", self.trace_path,
                    "--timeline", timeline, "--out", self._out(timeline)])
            out.append((timeline, code, buf.getvalue()))
        return out

    def _out(self, timeline: str) -> str:
        return os.path.join(self.work, f"report_{timeline}")

    def check(self, output) -> PassResult:
        try:
            return self._check(output)
        finally:
            for timeline in self.timelines:
                shutil.rmtree(self._out(timeline), ignore_errors=True)

    def _check(self, output) -> PassResult:
        aggregates = {}
        failed = 0
        for timeline, code, text in output:
            if code != 0:
                failed += 1
                continue
            agg = json.loads(text)
            report = _load_json(os.path.join(self._out(timeline), "report.json"))
            if report["aggregates"] != agg:
                raise CheckError(f"{timeline}: report.json and stdout disagree")
            rows = report["requests"]
            if sorted(r["request_id"] for r in rows) != sorted(self.in_window):
                raise CheckError(f"{timeline}: scored requests differ from "
                                 f"the window")
            for r in rows:
                n = self.in_window[r["request_id"]]
                if r["n_tokens"] > n or (r["complete"] and r["n_tokens"] != n):
                    raise CheckError(f"{timeline}: {r['request_id']} scored "
                                     f"{r['n_tokens']} of {n} tokens")
            aggregates[timeline] = agg
        return PassResult(
            attempted=len(output), failed=failed,
            tokens=self.tokens * len(self.timelines),
            fingerprint=fingerprint(aggregates),
            summary={t: a["smooth_goodput_per_s"] for t, a in aggregates.items()})


# Shape of the synthetic trace: arrivals per second, output length lognormal,
# decode gaps, prefill stalls, and the share of requests with delivery times.
TRACE_RATE = 4.0
TRACE_OUTPUT_MEAN = 200
TRACE_OUTPUT_SIGMA = 0.7
TRACE_DECODE_GAP_S = (0.025, 0.06)
TRACE_STALL_P = 0.02
TRACE_STALL_S = (0.1, 0.8)
TRACE_DELIVERY_SHARE = 0.75
TRACE_HOLD_S = 0.05


def write_synthetic_trace(path: str, seed: int, count: int) -> list[tuple]:
    """Write a seeded stand-in for a trace captured from a deployment.

    Built without servesim's engine, so the bytes depend only on the seed
    and this function.  Arrivals are Poisson; tokens follow a decode cadence
    with occasional prefill-sized stalls; a share of the requests carry
    ``delivery_times_s`` paced by a fixed release cadence.  Output lengths
    are a fixed lognormal quantile grid in seeded order, so every seed
    carries the same number of tokens.  Returns (request_id, arrival,
    tokens, last generation time) per request.
    """
    rng = random.Random(seed)
    mu = math.log(TRACE_OUTPUT_MEAN) - 0.5 * TRACE_OUTPUT_SIGMA ** 2
    grid = NormalDist(mu, TRACE_OUTPUT_SIGMA)
    lengths = [max(1, round(math.exp(grid.inv_cdf((i + 0.5) / count))))
               for i in range(count)]
    rng.shuffle(lengths)
    requests = []
    arrival = 0.0
    with open(path, "w", encoding="utf-8") as f:
        for i, n in enumerate(lengths):
            arrival += rng.expovariate(TRACE_RATE)
            t = arrival + rng.uniform(0.05, 1.5)
            times = [t]
            for _ in range(n - 1):
                t += rng.uniform(*TRACE_DECODE_GAP_S)
                if rng.random() < TRACE_STALL_P:
                    t += rng.uniform(*TRACE_STALL_S)
                times.append(t)
            rid = f"c{i:06d}"
            rec = {"request_id": rid, "arrival_s": arrival,
                   "token_times_s": times,
                   "prompt_len": rng.randint(16, 2048), "completed": True}
            if rng.random() < TRACE_DELIVERY_SHARE:
                released = []
                prev = None
                for g in times:
                    prev = g if prev is None else max(g, prev + TRACE_HOLD_S)
                    released.append(prev)
                rec["delivery_times_s"] = released
            f.write(json.dumps(rec))
            f.write("\n")
            requests.append((rid, arrival, n, times[-1]))
    return requests


WORKLOADS = {w.name: w for w in (SweepArtifacts, Capacity, ScoreTrace)}
