"""Sweep artifacts: byte-identity gate and the TBT CDF quantile grid.

``fixtures/golden/sweep_sha256.json`` maps every file a tiny sweep of
``configs/default_sweep.json`` writes (24 requests, rates 1 and 4) to its
sha256, except the ``plots/tbt_cdf_*.csv`` tables, which the grid tests
below pin instead, and whose bytes ``test_writer_properties`` holds to the
reference writer in ``oracles``.  A writer change that alters any byte fails
here.  Regenerate only for an intended change of output, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_artifacts.py
"""

import csv
import dataclasses
import hashlib
import json
import os

from oracles import nearest_rank

from servesim import engine
from servesim.delivery import DelayConfig
from servesim.runner import (
    TBT_CDF_GRID,
    Variant,
    _write_tbt_cdf,
    load_experiment,
    run_cell,
    run_experiment,
)
from servesim.schedulers import VllmLike
from servesim.traces import RequestTrace
from servesim.workload import WorkloadConfig, generate

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_CONFIG = os.path.join(HERE, os.pardir, "configs", "default_sweep.json")
GOLDEN_HASHES = os.path.join(HERE, "fixtures", "golden", "sweep_sha256.json")


def tiny_sweep(count=24, rates=(1.0, 4.0)):
    config = load_experiment(SWEEP_CONFIG)
    wl = config.workload
    return dataclasses.replace(
        config, rates=rates,
        workload=WorkloadConfig(wl.rate, count, wl.seed, wl.length_source))


def artifact_hashes(out_dir):
    run_experiment(tiny_sweep(), str(out_dir))
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            if rel.startswith("plots/tbt_cdf_"):
                continue
            with open(path, "rb") as f:
                hashes[rel] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(hashes.items()))


def test_sweep_artifacts_match_golden_hashes(tmp_path):
    with open(GOLDEN_HASHES, encoding="utf-8") as f:
        golden = json.load(f)
    assert artifact_hashes(tmp_path) == golden


# ---------------------------------------------------------------------------
# TBT CDF grid.


def read_cdf(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["timeline", "tbt_s", "cdf"]
    return rows[1:]


def expected_rows(label, timelines):
    gaps = [float(b - a) for ts in timelines for a, b in zip(ts, ts[1:])]
    if not gaps:
        return []
    return [[label, repr(nearest_rank(gaps, k / TBT_CDF_GRID)),
             repr(k / TBT_CDF_GRID)] for k in range(TBT_CDF_GRID + 1)]


def held_records(count):
    """Engine records of one tiny-sweep cell with a delivery hold."""
    config = tiny_sweep(count=count, rates=(4.0,))
    variant = Variant("held", VllmLike(), DelayConfig(0.05))
    specs = generate(config.workload.with_rate(4.0))
    trace = engine.run(specs, config.engine, variant.scheduler)
    records, _ = run_cell(trace, config, variant)
    return records


def test_cdf_rows_are_nearest_rank_quantiles_of_each_timeline(tmp_path):
    records = list(held_records(24))
    # One record keeps no delivery times and falls back to generation.
    records[0] = dataclasses.replace(records[0], delivery_times=None)
    path = tmp_path / "cdf.csv"
    _write_tbt_cdf(path, records)
    rows = read_cdf(path)
    generation = [r.token_times for r in records]
    delivery = [r.token_times if r.delivery_times is None
                else r.delivery_times for r in records]
    assert generation != delivery
    assert rows == (expected_rows("generation", generation)
                    + expected_rows("delivery", delivery))
    assert len(rows) == 2 * (TBT_CDF_GRID + 1)
    assert [row[2] for row in rows[:TBT_CDF_GRID + 1]] == \
        [repr(k / 1000) for k in range(1001)]


def test_cdf_of_single_token_requests_is_header_only(tmp_path):
    records = [RequestTrace(f"r{i}", 0.5 * i, (0.5 * i + 0.2,), 8, True,
                            delivery_times=(0.5 * i + 0.3,))
               for i in range(3)]
    path = tmp_path / "cdf.csv"
    _write_tbt_cdf(path, records)
    assert read_cdf(path) == []


def test_cdf_of_no_records_is_header_only(tmp_path):
    path = tmp_path / "cdf.csv"
    _write_tbt_cdf(path, [])
    assert path.read_bytes() == b"timeline,tbt_s,cdf\r\n"


def test_cdf_size_does_not_grow_with_tokens(tmp_path):
    sizes = {}
    for count in (24, 240):
        path = tmp_path / f"cdf{count}.csv"
        records = held_records(count)
        _write_tbt_cdf(path, records)
        sizes[count] = (len(read_cdf(path)),
                        sum(len(r.token_times) for r in records))
    assert sizes[24][0] == sizes[240][0] == 2 * (TBT_CDF_GRID + 1)
    assert sizes[240][1] > 5 * sizes[24][1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        hashes = artifact_hashes(out)
    with open(GOLDEN_HASHES, "w", encoding="utf-8") as f:
        json.dump(hashes, f, indent=2)
        f.write("\n")
