"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Workload sizes are desk scale; every criterion carries the wall-clock
budget it must fit.
"""

import math
import time

import numpy as np

import oracles
from servesim.deadlines import EndToEnd, ReadingSpeed, TtftTbt
from servesim.delivery import DelayConfig, apply_output_delay
from servesim.engine import EngineConfig, iteration_time, run
from servesim.metrics import (
    PERCENTILE_LABELS,
    BenefitParams,
    EvalWindow,
    TokensEquivalent,
    build_report,
    percentile,
    score,
)
from servesim.runner import (
    ExperimentConfig,
    Variant,
    capacity_search,
    run_experiment,
    trimmed_window,
)
from servesim.schedulers import ChunkedPrefill, DecodePrepone, VllmLike
from servesim.traces import TokenTimeline, read_trace, write_trace
from servesim.workload import (
    LogNormalInt,
    Synthetic,
    WorkloadConfig,
    generate,
    load_workload,
    save_workload,
)

REL = 1e-9

DEFAULT_SRC = Synthetic(LogNormalInt(220, 0.6), LogNormalInt(180, 0.7))
DEFAULT_POLICY = ReadingSpeed(0.05, 2.0)
DEFAULT_BENEFIT = BenefitParams(5.0, TokensEquivalent(0.05))


def close(a, b, rel=REL, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def report_pass(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def random_timeline(rng, rid):
    n = int(rng.integers(1, 80))
    arrival = float(rng.uniform(0, 20))
    gaps = rng.uniform(0.001, 0.5, size=n)
    return TokenTimeline(rid, arrival, tuple(arrival + np.cumsum(gaps)))


def test_criterion_1_metric_oracle_equivalence():
    budget_s = 5.0
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    timelines = [random_timeline(rng, f"r{i}") for i in range(200)]
    policies = [
        (ReadingSpeed(0.05, 0.3), "reading_speed", (0.05, 0.3)),
        (EndToEnd(6.0), "e2e", (6.0,)),
        (TtftTbt(1.0, 0.25), "ttft_tbt", (1.0, 0.25)),
    ]
    alpha, per_tok = 5.0, 0.05
    params = BenefitParams(alpha, TokensEquivalent(per_tok))
    penalty = lambda idle: idle / per_tok  # noqa: E731

    for tl in timelines:
        times = list(tl.token_times)
        for policy, kind, p in policies:
            r = score(tl, policy, params)
            assert close(r.ttft, oracles.ttft(tl.arrival, times))
            assert close(r.e2e, oracles.e2e(tl.arrival, times))
            if len(times) >= 2:
                assert close(r.tpot, oracles.tpot(times))
                assert close(r.max_tbt, max(oracles.tbt(times)))
            assert close(r.idle_latency,
                         oracles.idle_latency(kind, p, tl.arrival, times))
            assert close(r.benefit,
                         oracles.benefit(kind, p, tl.arrival, times,
                                         alpha, penalty))
            assert r.met_slo == oracles.meets(kind, p, tl.arrival, times)

    # Window-level aggregates over 10 windows of 20 requests each.
    for w in range(10):
        group = timelines[w * 20:(w + 1) * 20]
        start = 0.0
        end = max(tl.token_times[-1] for tl in group) + 1.0
        window = EvalWindow(start, end, tuple(group))
        reqs = [(tl.arrival, list(tl.token_times), True) for tl in group]
        for policy, kind, p in policies:
            report = build_report(window, policy, params)
            assert close(report.goodput_tokens_per_s,
                         oracles.goodput(reqs, kind, p, window.length))
            assert close(report.smooth_goodput_per_s,
                         oracles.smooth_goodput(reqs, kind, p, window.length,
                                                alpha, penalty))
            assert close(report.slo_attainment,
                         oracles.attainment(reqs, kind, p))
        # The TBT pool is the same under every policy.
        gaps = [g for tl in group for g in oracles.tbt(list(tl.token_times))]
        for label, q in PERCENTILE_LABELS:
            assert percentile(gaps, q) == oracles.nearest_rank(gaps, q)
            assert close(report.tbt_percentiles[label],
                         oracles.nearest_rank(gaps, q))

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(1, f"200 timelines, all metric ops match brute force "
                   f"(rel<=1e-9) in {elapsed:.2f}s")


def test_criterion_2_smooth_goodput_identities():
    budget_s = 5.0
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    policy = ReadingSpeed(0.05, 0.5)
    alphas = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)

    for w in range(50):
        count = int(rng.integers(5, 25))
        tls = []
        for i in range(count):
            tls.append(random_timeline(rng, f"w{w}r{i}"))
        end = max(tl.token_times[-1] for tl in tls) + 1.0
        window = EvalWindow(0.0, end, tuple(tls))

        values = [build_report(window, policy, BenefitParams(
                      a, TokensEquivalent(0.05))).smooth_goodput_per_s
                  for a in alphas]
        # alpha = 0 erases the penalty term entirely.
        tokens_per_s = sum(tl.num_tokens for tl in tls) / window.length
        assert alphas[0] == 0.0 and close(values[0], tokens_per_s)

        # Monotone non-increasing in alpha.
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

        # All-tokens-early windows: pace every token well inside its deadline.
        early = []
        for i in range(count):
            n = int(rng.integers(1, 40))
            arrival = float(rng.uniform(0, 5))
            times = tuple(arrival + 0.5 + 0.02 * j for j in range(n))
            early.append(TokenTimeline(f"e{w}r{i}", arrival, times))
        e_end = max(tl.token_times[-1] for tl in early) + 1.0
        e_window = EvalWindow(0.0, e_end, tuple(early))
        e_policy = ReadingSpeed(0.05, 1.0)
        assert all(score(tl, e_policy).met_slo for tl in early)
        e_tokens_per_s = sum(tl.num_tokens for tl in early) / e_window.length
        for a in alphas:
            report = build_report(e_window, e_policy,
                                  BenefitParams(a, TokensEquivalent(0.05)))
            assert close(report.smooth_goodput_per_s, e_tokens_per_s)

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(2, f"alpha=0 and all-early identities plus alpha "
                   f"monotonicity over 50 windows in {elapsed:.2f}s")


def test_criterion_3_stall_reproduction():
    budget_s = 1.0
    t0 = time.monotonic()
    eng = EngineConfig(base_s=0.01, prefill_per_token_s=0.001,
                       decode_per_seq_s=0.02, max_batch_tokens=2048,
                       max_running_seqs=64, kv_capacity_tokens=100_000)
    from servesim.workload import RequestSpec
    workload = [RequestSpec("a", 0.0, 100, 50), RequestSpec("b", 0.34, 300, 5)]

    # Full-prompt preemption: a's worst decode gap spans b's whole prefill
    # iteration plus the joint decode that follows it.
    vllm = run(workload, eng, VllmLike())
    a_times = vllm.requests[0].token_times
    gaps = np.diff(a_times)
    prefill_iter = iteration_time(300, 0, eng)
    joint_decode_iter = iteration_time(0, 2, eng)
    stall = float(max(gaps)) - joint_decode_iter
    assert abs(stall - prefill_iter) <= 1e-9

    # Three chunks cut the gap to a third of the prefill component plus the
    # per-batch overheads (base cost and one decode seq).
    chunked = run(workload, eng, ChunkedPrefill(chunk_tokens=100))
    c_gaps = np.diff(chunked.requests[0].token_times)
    bound = (300 * eng.prefill_per_token_s) / 3 + eng.base_s \
        + eng.decode_per_seq_s
    assert float(max(c_gaps)) <= bound + 1e-12

    # Decode prepone: both buffered tokens release strictly inside b's
    # prefill window.
    prep = run(workload, eng, DecodePrepone(n=2))
    a_rec = prep.requests[0]
    assert a_rec.delivery_times is not None
    deferred = [(g, r) for g, r in zip(a_rec.token_times, a_rec.delivery_times)
                if r != g]
    assert len(deferred) == 2
    b_first = prep.requests[1].token_times[0]
    prefill_start = b_first - prefill_iter
    for g, r in deferred:
        assert prefill_start < r < b_first
        assert r > g

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(3, f"vllm stall == prefill iteration, chunked <= 1/3 bound, "
                   f"prepone releases inside the prefill window "
                   f"({elapsed:.2f}s)")


def test_criterion_4_output_delay_indictment():
    budget_s = 10.0
    t0 = time.monotonic()
    eng = EngineConfig()
    hold = 0.1
    delay = DelayConfig(hold)
    chained = TtftTbt(ttft_budget=2.0, tbt_budget=0.15)  # hold <= budget
    pacing = ReadingSpeed(0.05, 2.0)

    for seed in range(100, 120):
        specs = generate(WorkloadConfig(4.5, 200, seed, DEFAULT_SRC))
        trace = run(specs, eng, VllmLike())
        gen_gaps, rel_gaps = [], []
        for rec in trace.requests:
            tl = rec.generation_timeline()
            out = apply_output_delay(tl, delay)
            # (a) chained-deadline attainment can only improve
            assert score(out, chained).met_slo >= score(tl, chained).met_slo
            # (c) TTFT unchanged
            assert out.token_times[0] == tl.token_times[0]
            # (d) real idle time never shrinks
            assert score(out, pacing).idle_latency >= \
                score(tl, pacing).idle_latency - 1e-12
            gen_gaps.extend(np.diff(tl.token_times))
            rel_gaps.extend(np.diff(out.token_times))
        # (b) the delivered tail is never worse than the generated tail
        assert percentile(rel_gaps, 0.99) <= percentile(gen_gaps, 0.99)

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(4, f"20 seeded traces: delay never hurts chained-TBT "
                   f"attainment or tail TBT, never helps idle time "
                   f"({elapsed:.2f}s)")


def test_criterion_5_rate_sweep_shapes():
    budget_s = 60.0
    t0 = time.monotonic()
    rates = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
    config = ExperimentConfig(
        workload=WorkloadConfig(rates[0], 240, 7, DEFAULT_SRC),
        engine=EngineConfig(),
        variants=(Variant("vllm", VllmLike()),),
        policy=DEFAULT_POLICY,
        benefit=DEFAULT_BENEFIT,
        rates=rates,
        use_delivery=False,
    )
    result = run_experiment(config)
    reports = [result.cell("vllm", r).report for r in rates]
    assert all(rep is not None for rep in reports)

    thr = [rep.throughput_tokens_per_s for rep in reports]
    assert abs(thr[-1] - thr[-2]) <= 0.05 * max(thr[-1], thr[-2])

    ttfts = [rep.mean_ttft for rep in reports]
    assert ttfts[-1] >= 10.0 * ttfts[0]

    sg = [rep.smooth_goodput_per_s for rep in reports]
    best_interior = max(sg[1:-1])
    assert best_interior > sg[0] and best_interior > sg[-1]

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(5, f"throughput plateau ({thr[-2]:.0f} vs {thr[-1]:.0f} "
                   f"tok/s), ttft x{ttfts[-1] / ttfts[0]:.0f}, smooth goodput "
                   f"peaks interior ({elapsed:.2f}s)")


def test_criterion_6_determinism_and_roundtrips(tmp_path, fixtures_dir):
    budget_s = 10.0
    t0 = time.monotonic()
    import os
    from servesim.runner import load_experiment
    config = load_experiment(os.path.join(fixtures_dir, "experiment.json"))

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out_dir=str(dir_a))
    run_experiment(config, out_dir=str(dir_b))
    compared = 0
    for rel in sorted(p.relative_to(dir_a).as_posix()
                      for p in dir_a.rglob("*") if p.is_file()):
        assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel
        compared += 1
    assert compared > 10

    # Lossless round-trips: load -> save reproduces files byte for byte,
    # and parsed objects survive a write/read cycle unchanged.
    specs = generate(WorkloadConfig(2.5, 10_000, 8, DEFAULT_SRC))
    w1, w2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    save_workload(w1, specs)
    save_workload(w2, load_workload(w1))
    assert w1.read_bytes() == w2.read_bytes()
    assert load_workload(w1) == specs

    trace_src = dir_a / "cells" / "vllm_delayed_rate6" / "trace.jsonl"
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    records = read_trace(trace_src)
    write_trace(t1, records)
    write_trace(t2, read_trace(t1))
    assert t1.read_bytes() == t2.read_bytes()
    assert read_trace(t1) == records

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(6, f"byte-identical re-runs ({compared} files) and lossless "
                   f"round-trips ({elapsed:.2f}s)")


def test_criterion_7_capacity_search():
    budget_s = 60.0
    t0 = time.monotonic()
    threshold = 0.7
    config = ExperimentConfig(
        workload=WorkloadConfig(1.0, 240, 7, DEFAULT_SRC),
        engine=EngineConfig(),
        variants=(Variant("vllm", VllmLike()),),
        policy=DEFAULT_POLICY,
        benefit=DEFAULT_BENEFIT,
        rates=(1.0,),
        use_delivery=False,
    )
    capacity, probes = capacity_search(config, threshold, (1.0, 8.0),
                                       resolution=0.05)
    assert 1.0 < capacity < 8.0
    by_rate = dict(probes)
    assert by_rate[capacity] >= threshold

    # One step beyond the returned capacity must miss the threshold.
    def attainment_at(rate):
        specs = generate(config.workload.with_rate(rate))
        trace = run(specs, config.engine, VllmLike())
        window = trimmed_window(trace.requests, 0.05, 0.05, False)
        return build_report(window, DEFAULT_POLICY,
                            DEFAULT_BENEFIT).slo_attainment

    beyond = attainment_at(capacity + 0.1)
    assert beyond < threshold

    elapsed = time.monotonic() - t0
    assert elapsed < budget_s
    report_pass(7, f"capacity {capacity:.2f} req/s at threshold {threshold} "
                   f"({len(probes)} full-simulation probes, attainment "
                   f"{beyond:.3f} at +0.1) ({elapsed:.2f}s)")
