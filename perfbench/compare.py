#!/usr/bin/env python3
"""Summarize or compare sets of saved benchmark results.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the ``--save`` files of ``run.py`` runs with
``--trace 0``, typically one per seed.  For every workload and end-to-end
metric in BENCHMARK.json this prints the median over the runs, the spread
(distance between the first and third quartile, as a share of the median)
against the metric's bound and, given NEW_DIR, the change of the median,
signed so that positive is worse.  Result sets recorded on different engine
backends, Python versions, run lengths or sizes are refused: their numbers
do not compare.  Exit status 1 flags a spread or a regression beyond a bound.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Settings that must agree before any two results are compared.
SETTINGS = ("engine_backend", "python", "seconds", "smoke")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            run = json.load(f)
        if run.get("trace") == 0:
            runs.append(run)
    if not runs:
        raise SystemExit(f"compare: no --trace 0 results in {directory}")
    return runs


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as f:
        e2e = json.load(f)["end_to_end"]
    sets = [load(d) for d in argv]
    for key in SETTINGS:
        seen = {str(run.get(key)) for runs in sets for run in runs}
        if len(seen) > 1:
            print(f"compare: refusing to compare results with different "
                  f"{key}: {sorted(seen)}", file=sys.stderr)
            return 2
    workloads = sorted({run["workload"] for runs in sets for run in runs})
    flagged = False
    print(f"{'workload':<16}{'metric':<18}{'n':>3}{'median':>14}"
          f"{'spread':>9}{'bound':>7}" + (f"{'new':>14}{'change':>9}" if len(sets) == 2 else ""))
    for workload in workloads:
        for metric in e2e:
            name, bound = metric["name"], metric["bound"]
            cols = []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload and r["correct"]]
                if len(values) < 2:
                    cols.append(None)
                    continue
                median, spread = stats(values)
                medians.append(median)
                cols.append((len(values), median, spread))
            if cols[0] is None:
                continue
            n, median, spread = cols[0]
            note = []
            if spread > bound and name != "setup_s":
                note.append("spread>bound")
            line = f"{workload:<16}{name:<18}{n:>3}{median:>14.6g}{spread:>9.3f}{bound:>7.2f}"
            if len(sets) == 2 and cols[1] is not None:
                new = cols[1][1]
                change = (new - median) / median
                if metric["better"] == "higher":
                    change = -change
                if change > bound:
                    note.append("REGRESSION")
                line += f"{new:>14.6g}{change:>+9.3f}"
            flagged |= bool(note)
            print(line + ("  " + " ".join(note) if note else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
