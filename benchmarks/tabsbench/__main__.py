"""``PYTHONPATH=src python -m benchmarks.tabsbench run --seed 1985``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.tabsbench",
        description="tabsbench: five workloads, ten end-to-end metrics on "
                    "two clocks, a per-layer budget from a traced run.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="every workload, every metric, the audits")
    run.add_argument("--seed", type=int, default=1985)
    run.add_argument("--workloads", default="",
                     help="comma-separated subset (default: all five)")
    run.add_argument("--rounds", type=int, default=3,
                     help="untraced rounds per workload (>= 3 for "
                          "quartiles that mean something)")
    run.add_argument("--quick", action="store_true",
                     help="smoke run: windows ~10x shorter, one round; "
                          "NOT comparable with full runs")
    compare = commands.add_parser(
        "compare", help="judge report B against report A by the bounds")
    compare.add_argument("base", type=Path)
    compare.add_argument("candidate", type=Path)
    commands.add_parser(
        "manifest", help="print BENCHMARK.json as the tables define it")
    args = parser.parse_args(argv)

    if args.command == "manifest":
        from .spec import manifest

        print(json.dumps(manifest(), indent=2))
        return 0
    if args.command == "compare":
        from .compare import main_compare

        return main_compare(args.base, args.candidate)
    from .orchestrate import main_run

    names = [name for name in args.workloads.split(",") if name] or None
    return main_run(args.seed, names, args.rounds, args.quick)


if __name__ == "__main__":
    sys.exit(main())
