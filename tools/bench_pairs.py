"""Alternating benchmark pairs of two checkouts, with medians and wins.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

runs the benchmark of the source checkouts ``PARENT`` and ``CHANGE`` (each
its own ``bench/run.py``, with the command and run length from its own
``BENCHMARK.json``) on one workload and seed, ``N`` times each, one run
after the other.  The first pair runs the parent first, the next the
change first, and so on.  It prints each pair's end-to-end metrics and
``attempted`` counts, then for each end-to-end metric named in the
parent's ``BENCHMARK.json`` both medians, the parent's quartiles and the
number of pairs in which the change reads better (ties count for
neither).  Last it prints both sides' median ``attempted`` and, when
``peak_rss_mb`` is an end-to-end metric, its change in median per 1,000
extra attempted ops: the benchmark keeps a record per timed sample, so
this slope tells memory that follows the op count from the program's
own.  It means something only when the medians of ``attempted`` differ
by much more than their spread from run to run.  Standard library only.
Exit code 1 as soon as a run fails or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_trajectory import run_once

SIDES = ("parent", "change")


def _quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _describe(run: dict, names: list) -> str:
    metrics = " ".join(f"{name}={run['metrics'][name]:.4g}" for name in names)
    return f"{metrics} attempted={run['attempted']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = {side: json.loads((root / "BENCHMARK.json").read_text())
             for side, root in roots.items()}
    better = {m["name"]: m["better"] for m in specs["parent"]["end_to_end"]}
    names = list(better)
    runs = {side: [] for side in SIDES}
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            spec = specs[side]
            run = run_once(roots[side], spec["command"], args.workload,
                           args.seed, spec["run_seconds"])
            if run["exit"] != 0 or not run.get("correct"):
                print(f"pair {index + 1}: {side} run failed: exit {run['exit']} "
                      f"{run.get('error', '')}", file=sys.stderr)
                return 1
            runs[side].append(run)
        print(f"pair {index + 1} ({order[0]} first)", flush=True)
        for side in SIDES:
            print(f"  {side}: {_describe(runs[side][-1], names)}", flush=True)
    print(f"{args.workload} seed={args.seed} pairs={args.pairs}")
    for name in names:
        parent, change = ([run["metrics"][name] for run in runs[side]]
                          for side in SIDES)
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = _quartiles(parent)
        print(f"  {name}: parent median {statistics.median(parent):.4g} "
              f"(quartiles {q1:.4g} {q3:.4g}), "
              f"change median {statistics.median(change):.4g}, "
              f"change better in {wins}/{args.pairs}")
    attempted = [statistics.median(run["attempted"] for run in runs[side])
                 for side in SIDES]
    print(f"  attempted: parent median {attempted[0]:g}, "
          f"change median {attempted[1]:g}")
    if "peak_rss_mb" in better:
        rss = [statistics.median(run["metrics"]["peak_rss_mb"] for run in runs[side])
               for side in SIDES]
        extra = attempted[1] - attempted[0]
        slope = f"{1000 * (rss[1] - rss[0]) / extra:.4g}" if extra else "n/a"
        print(f"  peak_rss_mb per 1,000 extra attempted ops: {slope}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
