"""Write one point of the benchmark trajectory: ``BENCH_<n>.json``.

Usage, from anywhere:

    python3 tools/bench_trajectory.py CHECKOUT N

runs the benchmark of the source checkout ``CHECKOUT`` (its own
``bench/run.py``, the command and run length from its ``BENCHMARK.json``)
once per workload at seeds 1 and 101, one run after the other, and writes
``BENCH_<N>.json`` to the root of the repository that holds this script.
Each run keeps its end-to-end metrics, ``correct``/``attempted``/``failed``,
its ``host:`` line (the reference loop's median, which says how fast the
shared machine ran) and its exit code; the file also records the
checkout's commit.  Standard library only.  Exit code 1 when any run
failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 101)  # the benchmark's seed and its held-out seed
RUN_TIMEOUT_S = 900
OUT_DIR = Path(__file__).resolve().parents[1]


def _git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def run_once(root: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "exit": proc.returncode,
           "host": next((ln for ln in lines if ln.startswith("host:")), None)}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["error"] = proc.stderr.strip().splitlines()[-5:]
        return run
    run.update({key: result[key] for key in ("correct", "attempted", "failed")})
    run["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a source checkout")
    parser.add_argument("n", type=int, help="trajectory point: writes BENCH_<n>.json")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            run = run_once(root, spec["command"], workload, seed, spec["run_seconds"])
            print(f"{workload} seed={seed} exit={run['exit']} {run['host']}",
                  file=sys.stderr)
            runs.append(run)
    point = {
        "n": args.n,
        "commit": _git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(
            _git(root, "status", "--porcelain", "--untracked-files=no")),
        "command": spec["command"] + ["--seconds", str(spec["run_seconds"])],
        "python": platform.python_version(),
        "units": units,
        "runs": runs,
    }
    out = OUT_DIR / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    ok = all(run["exit"] == 0 and run.get("correct") for run in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
