#!/usr/bin/env python3
"""servesim benchmark: time one workload, check its outputs, print one result.

    python3 perfbench/run.py --workload capacity --seed 7 --seconds 30 --trace 0

Run from the root of a servesim checkout; servesim is imported from its
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it print every metric with its quartiles and sample count.
Exit status is 0 only when every operation succeeded and every output check
passed.  See perfbench/README.md for the workloads and what each metric
should move.
"""

import os

# One thread everywhere: the benchmark shares a two-core machine, and
# numpy must not start a BLAS pool behind the single caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from layers import EXACT_COUNTS, PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import (REFERENCE_PATH, REFERENCE_SEED, WORKLOADS,  # noqa: E402
                       CheckError)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")

# A run keeps starting passes until the next one would end after --seconds,
# but always times at least two; a traced run alternates traced and untraced
# passes, starting traced, and times at least two traced ones so that their
# counts can be compared.
MIN_PASSES = 2
MIN_TRACED_PASSES = 3
SETUP_SAMPLES = 5
SMOKE_SETUP_SAMPLES = 2

# Fixed cost of every servesim call, measured in a fresh interpreter:
# import the package and parse the workload's config.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import servesim.cli
from servesim import runner
runner.load_experiment(sys.argv[2], seed_override=int(sys.argv[3]))
elapsed = time.perf_counter() - t0
if not servesim.__file__.startswith(sys.argv[1]):
    raise SystemExit("servesim imported from " + servesim.__file__)
print(repr(elapsed))
"""

# The machine's speed drifts by tens of percent over minutes (other tenants
# share its cores), so the gated pass times are rescaled by a fixed reference
# loop timed at every pass boundary of the same run: normalized seconds are
# host seconds times REF_NOMINAL_S / (mean reference loop time).  The loop
# uses no servesim code, so a slower program still shows in full.
REF_NOMINAL_S = 0.075
REF_ROWS = 1500
# A single loop time swings by +-40% with the machine's fast and slow
# phases, so every boundary takes several.
REF_REPS = 8

UNITS = {"wall_norm_s": "norm-s", "sim_tokens_per_norm_s": "tokens/norm-s",
         "peak_rss_mb": "MiB", "setup_s": "s", "wall_s": "s",
         "sim_tokens_per_s": "tokens/s", "ref_loop_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep_artifacts", "capacity", "score_trace"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own test")
    p.add_argument("--save", default=None,
                   help="also write every sample and count to this JSON file")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's fingerprint as the reference")
    return p.parse_args(argv)


def describe(values):
    """Median, quartiles and sample count."""
    values = sorted(values)
    if values[0] == values[-1]:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(config_path, seed, samples):
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, config_path, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def reference_loop():
    """Time fixed, servesim-free work like servesim's own: tuples of floats,
    dicts, a JSON round trip, CSV rows of float reprs, a sort."""
    t0 = time.perf_counter()
    table = []
    writer = csv.writer(io.StringIO())
    for i in range(REF_ROWS):
        ts = tuple(i * 0.001 + k * 0.05 for k in range(40))
        table.append({"id": f"r{i:06d}", "t": ts, "d": max(ts) - min(ts)})
        writer.writerow([repr(t) for t in ts[:8]])
    json.loads(json.dumps(table)).sort(key=lambda r: r["d"])
    return time.perf_counter() - t0


def run_passes(workload, seconds, trace):
    """Timed passes of one workload; with ``trace`` every other pass is traced.

    Returns (pass records, the untimed check pass or None, reference loop
    times taken before the first pass and after every pass).
    """
    checked = workload.check_pass()
    expect = checked
    passes = []
    refs = [reference_loop() for _ in range(REF_REPS)]
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 0
        tracer = Tracer() if traced else None
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            output = workload.run_pass()
            wall = time.perf_counter() - t0
        result = workload.check(output)
        if expect is None:
            expect = result
        if (result.fingerprint, result.counts) != (expect.fingerprint, expect.counts):
            raise CheckError(
                f"nondeterminism: pass {len(passes) + 1} differs from the first "
                f"({result.fingerprint[:12]} {result.counts} vs "
                f"{expect.fingerprint[:12]} {expect.counts})")
        record = {"traced": traced, "wall": wall, "result": result}
        if tracer:
            layers = layer_metrics(tracer, wall, result.counts)
            exact = {k: tracer.counts[k] for k in EXACT_COUNTS}
            earlier = [p["exact"] for p in passes if p["traced"]]
            if earlier and exact != earlier[0]:
                raise CheckError(f"nondeterminism: counts {exact} vs {earlier[0]}")
            record.update(layers=layers, exact=exact)
        passes.append(record)
        refs.extend(reference_loop() for _ in range(REF_REPS))
        n = len(passes)
        elapsed = time.perf_counter() - start
        if (n >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
                and elapsed * (n + 1) / n > seconds):
            return passes, checked, refs


def check_reference(name, result, record):
    stored = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as f:
            stored = json.load(f)
    if record:
        stored[name] = {"fingerprint": result.fingerprint, "summary": result.summary}
        with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
            json.dump(stored, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    want = stored.get(name, {}).get("fingerprint")
    if want != result.fingerprint:
        raise CheckError(f"{name}: results differ from reference.json "
                         f"(got {result.summary}, want "
                         f"{stored.get(name, {}).get('summary')})")


def summarize(passes, setup_times, refs, trace):
    """Metrics of the result line, and further rows for the printed table.

    Each is described over its samples: the end-to-end metrics without
    ``trace``, the per-layer metrics with it.
    """
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in plain]
    tokens = plain[0]["result"].tokens
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    info = {"wall_s": describe(walls),
            "sim_tokens_per_s": describe([tokens / w for w in walls]),
            "ref_loop_s": describe(refs)}
    if not trace:
        return {
            "wall_norm_s": describe([w * scale for w in walls]),
            "sim_tokens_per_norm_s": describe([tokens / (w * scale) for w in walls]),
            "peak_rss_mb": describe(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
            "setup_s": describe(setup_times),
        }, info
    traced = [p for p in passes if p["traced"]]
    out = {name: describe([p["layers"][name] for p in traced])
           for name in traced[0]["layers"]}
    overhead = (statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in plain))
    out["bench.trace_overhead_s"] = describe([overhead])
    return out, info


def _num(value):
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def unit_of(name):
    return UNITS.get(name) or PER_LAYER_UNITS[name]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "servesim", "__init__.py")):
        print(f"perfbench: no servesim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import servesim
    if not servesim.__file__.startswith(SRC):
        print(f"perfbench: servesim imported from {servesim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and (args.smoke or args.seed != REFERENCE_SEED):
        print(f"perfbench: references are recorded at full size with "
              f"--seed {REFERENCE_SEED}", file=sys.stderr)
        return 2

    backend = servesim.engine.default_backend()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)} "
          f"engine_backend={backend}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    problems = []
    attempted = failed = 0
    metrics = info = {}
    passes = refs = []
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.smoke)
        if workload.seed != args.seed:
            print(f"perfbench: seed {args.seed} draws a prompt no batch can fit; "
                  f"using config seed {workload.seed}")
        setup_times = measure_setup(
            workload.config_path, workload.seed,
            SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES)
        passes, checked, refs = run_passes(workload, args.seconds, args.trace)
        results = [p["result"] for p in passes] + ([checked] if checked else [])
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        if failed:
            problems.append(f"{failed} of {attempted} operations failed")
        if args.record_reference or (args.seed == REFERENCE_SEED and not args.smoke):
            check_reference(args.workload, results[0], args.record_reference)
        metrics, info = summarize(passes, setup_times, refs, args.trace)
    except CheckError as exc:
        problems.append(str(exc))
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        problems.append("the benchmark raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    attempted = max(attempted, 1)
    print(f"  {'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}"
          f"{'n':>4}  unit")
    for name, d in {**metrics, **info}.items():
        spread = (d["q3"] - d["q1"]) / d["median"] if d["median"] else 0.0
        print(f"  {name:<30}{_num(d['median'])}{_num(d['q1'])}{_num(d['q3'])}"
              f"{spread:>8.3f}{d['n']:>4}  {unit_of(name)}")
    print(f"  {'ops_failed_frac':<30}{_num(failed / attempted)}{'':>36}"
          f"{attempted:>4}  fraction ({failed} of {attempted} ops)")
    for problem in problems:
        print(f"perfbench: FAILED: {problem}")
    correct = not problems
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": d["median"], "unit": unit_of(name)}
                        for name, d in metrics.items()}}
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "engine_backend": backend,
                       "python": sys.version.split()[0], **line,
                       "samples": {**metrics, **info}, "problems": problems,
                       "ref_loop_s": refs,
                       "passes": [{"traced": p["traced"], "wall_s": p["wall"]}
                                  for p in passes]}, f, indent=2)
            f.write("\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
