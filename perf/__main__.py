"""``python -m perf {run,prepare,compare}`` — see ``perf/README.md``."""

from __future__ import annotations

import argparse
import sys

from perf import config


def _trace_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return text == "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", choices=config.WORKLOADS, default=None,
                     help="one workload, ending with the JSON result line (default: all four)")
    run.add_argument("--seed", type=int, default=2019)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", type=_trace_flag, const=True, default=False,
                     help="report per-layer metrics from a separate traced run")
    run.add_argument("--smoke", action="store_true", help="toy-size workloads, one second each")

    commands.add_parser("prepare", help="train the golden checkpoints into perf/_artifacts")

    compare = commands.add_parser("compare", help="compare two results files")
    compare.add_argument("left")
    compare.add_argument("right")

    args = parser.parse_args(argv)
    if not config.have_program():
        print(f"perf: no program at {config.SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.command == "prepare":
        from perf.prepare import prepare

        prepare()
        return 0
    if args.command == "compare":
        from perf.compare import main as compare_main

        return compare_main(args.left, args.right)

    from perf.run import run_all, run_one

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(config.benchmark_spec()["run_seconds"])
    if args.workload is not None:
        return run_one(args.workload, args.seed, seconds, args.trace, args.smoke)
    return run_all(args.seed, seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
