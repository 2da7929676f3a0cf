"""Command line interface.

Subcommands:

* ``simulate``  run every variant at a single rate and write artifacts
* ``sweep``     run the full (variant x rate) grid from the config
* ``metrics``   evaluate an existing trace file against a config's policy
* ``capacity``  bisect for the largest rate meeting an attainment threshold
* ``delay``     apply the output-delay transform to an existing trace

All subcommands exit 0 on success; failures print one machine-readable JSON
object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .config import ExperimentConfig, load_experiment
from .delivery import DelayConfig, delay_trace
from .metrics import build_report, write_report_csv, write_report_json
from .runner import capacity_search, run_experiment, trimmed_window
from .traces import read_trace, write_trace


def _load_config(args) -> ExperimentConfig:
    return load_experiment(args.config, seed_override=args.seed)


def _print_summary(result) -> None:
    for cell in result.cells:
        if cell.error:
            print(f"{cell.variant} @ {cell.rate:g} req/s: ERROR {cell.error}")
            continue
        rep = cell.report
        print(f"{cell.variant} @ {cell.rate:g} req/s: "
              f"throughput={rep.throughput_tokens_per_s:.1f} tok/s "
              f"goodput={rep.goodput_tokens_per_s:.1f} tok/s "
              f"smooth_goodput={rep.smooth_goodput_per_s:.1f}/s "
              f"attainment={rep.slo_attainment:.3f} "
              f"mean_ttft={rep.mean_ttft:.3f}s")


def cmd_simulate(args) -> int:
    config = _load_config(args)
    rate = args.rate if args.rate is not None else config.rates[0]
    config = dataclasses.replace(config, rates=(float(rate),))
    result = run_experiment(config, out_dir=args.out)
    _print_summary(result)
    return 1 if any(c.error for c in result.cells) else 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    result = run_experiment(config, out_dir=args.out)
    _print_summary(result)
    return 1 if any(c.error for c in result.cells) else 0


def cmd_metrics(args) -> int:
    config = _load_config(args)
    records = read_trace(args.trace)
    use_delivery = (config.use_delivery if args.timeline is None
                    else args.timeline == "delivery")
    window = trimmed_window(records, config.trim_start_frac,
                            config.trim_end_frac, use_delivery)
    del records  # the window holds its own copies
    report = build_report(window, config.policy, config.benefit)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_report_json(os.path.join(args.out, "report.json"), report)
        write_report_csv(os.path.join(args.out, "report.csv"), report)
    print(json.dumps(report.aggregates(), indent=2, allow_nan=False))
    return 0


def cmd_capacity(args) -> int:
    config = _load_config(args)
    variant = None
    if args.variant:
        matches = [v for v in config.variants if v.name == args.variant]
        if not matches:
            raise ValueError(f"no variant named {args.variant!r}")
        variant = matches[0]
    capacity, probes = capacity_search(
        config, args.threshold, (args.bracket_lo, args.bracket_hi),
        resolution=args.resolution, variant=variant)
    payload = {
        "capacity_req_per_s": capacity,
        "attainment_threshold": args.threshold,
        "probes": [{"rate": r, "slo_attainment": a} for r, a in probes],
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "capacity.json"), "w",
                  encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_delay(args) -> int:
    records = read_trace(args.trace)
    config = DelayConfig(args.hold, args.first_token_delayed)
    write_trace(args.out, delay_trace(records, config))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="servesim",
        description="LLM serving simulator and experience-metric toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("simulate", help="single-rate run of every variant")
    common(p)
    p.add_argument("--rate", type=float, default=None,
                   help="request rate (default: first configured rate)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="full rate sweep of every variant")
    common(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metrics", help="evaluate an existing trace")
    common(p)
    p.add_argument("--trace", required=True, help="trace JSONL to evaluate")
    p.add_argument("--timeline", choices=("delivery", "generation"),
                   default=None,
                   help="timeline to score (default: evaluate.timeline)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("capacity", help="bisect for the sustainable rate")
    common(p)
    p.add_argument("--threshold", type=float, required=True,
                   help="SLO attainment threshold in (0, 1]")
    p.add_argument("--bracket-lo", type=float, required=True)
    p.add_argument("--bracket-hi", type=float, required=True)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--variant", default=None,
                   help="variant name (default: first)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("delay", help="apply output delay to a trace")
    p.add_argument("--trace", required=True, help="input trace JSONL")
    p.add_argument("--out", required=True, help="output trace JSONL")
    p.add_argument("--hold", type=float, required=True,
                   help="release cadence in seconds")
    p.add_argument("--first-token-delayed", action="store_true")
    p.set_defaults(func=cmd_delay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
