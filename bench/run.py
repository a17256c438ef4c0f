"""Benchmark of the ncpoly library: compile, factor, exact and float evaluation.

Run from the root of a source checkout:

    python3 bench/run.py --workload compile --seed 1 --seconds 15 --trace 0

It imports ``ncpoly`` from ``src/`` of that checkout and fails at once if
there is none.  Inputs come from ``--seed`` alone.  After a timed set-up it
runs the workload's ops in whole rounds until about ``--seconds`` of op time
is spent (at least three rounds), checks every op against an independent
oracle outside the timed calls, scales every time to a reference host
speed (see ``calibrate``), and prints a report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means
every check passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: after the same untraced measurement it traces
one set-up, one round of ops and its oracle checks, runs the command line
once per command, and writes the spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier on a shared machine, and never more than nproc.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import layers  # noqa: E402  (after the BLAS settings above)
import workloads  # noqa: E402
from paths import ROOT, SRC, child_env  # noqa: E402

# Set-up repeats until both hold; its median is ``setup_s``.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_ROUNDS = 3  # repeats per op, spread over the run
MIN_BEYOND_P90 = 10
WARMUP_S = 1.0
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import ncpoly, ncpoly.families; "
    "print(time.perf_counter() - start)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


# Host speed.  On a shared 2-core VM the same code runs in a fast and a
# slow state that last seconds each: rounds of the factor ops took 1.4 to
# 2.7 s, and a fixed integer loop timed next to them 170 and 250 us, with a
# correlation of 0.9.  So a fixed stdlib loop that never touches ncpoly is
# timed after every op and before every set-up.  Each op time is scaled by
# CALIBRATION_REF_S over the median of the loop's timings in the same round
# (a whole round, because the loop runs faster after cheap ops than after
# costly ones, and a narrower window scaled cheap ops up by a sixth), and
# each set-up time by the same ratio over all the run's timings (timings
# just around a 3 s set-up made it steadier unscaled than scaled): times
# are reported at the host speed at which the loop takes CALIBRATION_REF_S,
# about the VM's median.  No change to the library moves the loop.  The
# report also prints the metrics unscaled.
CALIBRATION_REF_S = 2.0e-4
CALIBRATION_LOOP = 3000
SETUP_CALIBRATIONS = 20  # timings before each set-up


def calibrate() -> float:
    """Seconds of a fixed integer loop in plain Python."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - start


def timed_import() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Phase:
    """Latencies per op over the rounds of one measured phase.

    Every timed repeat of every op is a sample, and the latency metrics are
    quantiles of all of them after scaling by host speed.  The speed of the
    same work wanders from one moment to the next, with short fast bursts;
    the fastest of a few repeats caught a burst or not and moved by a third
    between runs, while quantiles over all samples of a run stay steady.
    """

    def __init__(self, ops):
        self.ops = ops
        self.repeats = [[] for _ in ops]
        self.products = [0] * len(ops)  # counted products of one run of each op
        self.tally = Counter()
        self.failures = []
        self.mismatches = []
        self.check_s = 0.0
        self.rounds = 0
        self.timeline = []  # op seconds in run order
        self.calibration = []  # loop timing after each entry of timeline

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.repeats)

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.mismatches)

    @property
    def op_s(self) -> float:
        return sum(sum(r) for r in self.repeats)

    def samples(self) -> list[float]:
        """Every op time of the phase, scaled to the reference host speed."""
        out, n = [], len(self.ops)
        for start in range(0, len(self.timeline), n):
            host = statistics.median(self.calibration[start: start + n])
            out += [t * CALIBRATION_REF_S / host for t in self.timeline[start: start + n]]
        return out

    def record(self, index: int, seconds: float) -> None:
        self.repeats[index].append(seconds)
        self.timeline.append(seconds)
        self.calibration.append(calibrate())

    def groups(self) -> dict:
        """(group, size) -> [seconds, products] over one round of eval ops,
        each op at the median of its repeats."""
        typical = [statistics.median(r) for r in self.repeats]
        out = defaultdict(lambda: [0.0, 0])
        for op, latency, products in zip(self.ops, typical, self.products):
            if op.meta:
                group = out[(op.meta["group"], op.meta["size"])]
                group[0] += latency
                group[1] += products
        return out


def run_op(index, op, phase: Phase) -> None:
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        phase.record(index, time.perf_counter() - start)
        phase.failures.append(f"{op.label}: raised {exc!r}")
        return
    phase.record(index, time.perf_counter() - start)
    start = time.perf_counter()
    try:
        op.check(result)
    except workloads.CountMismatch as exc:
        phase.mismatches.append(str(exc))
    except Exception as exc:  # OracleFailure, or the oracle itself raising
        phase.failures.append(f"{op.label}: {exc}")
    phase.check_s += time.perf_counter() - start
    counts = op.tally(result)
    phase.tally.update(counts)
    phase.products[index] = counts.get("products", 0)


def measure(ops, seconds: float) -> Phase:
    """Whole rounds of ops until about ``seconds`` of op time is spent."""
    spent = 0.0
    for op in ops:  # warm-up: lazy imports, BLAS buffers, caches
        calibrate()
        start = time.perf_counter()
        try:
            op.run()
        except Exception:  # the measured run records the failure
            pass
        spent += time.perf_counter() - start
        if spent >= WARMUP_S:
            break
    phase = Phase(ops)
    while True:
        for index, op in enumerate(ops):
            run_op(index, op, phase)
        phase.rounds += 1
        per_round = phase.op_s / phase.rounds
        if phase.rounds >= MIN_ROUNDS and phase.op_s + per_round / 2 >= seconds:
            return phase


def end_to_end(setup_times: list[float], samples: list[float]) -> tuple[dict, int]:
    """The end-to-end metrics, and how many op times lie beyond the p90."""
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(samples) / sum(samples),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, sum(1 for x in samples if x > p90)


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    return f"{name}, threads={threads}, nproc={os.cpu_count()}"


def workload_counts(phase: Phase) -> dict:
    """The counts that repeat exactly for a seed, per round of ops."""
    return {
        "products_per_eval": phase.tally["products"] / phase.attempted,
        "compiled_N_sum": phase.tally["compiled_N"] // phase.rounds,
        "fail_rate": phase.failed / phase.attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncpoly" / "__init__.py").is_file():
        print(f"error: no ncpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ncpoly as api
    import ncpoly.families  # noqa: F401  (not imported by the package)

    if Path(api.__file__).resolve().parent != SRC / "ncpoly":
        print(f"error: imported ncpoly from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup = workloads.SETUPS[args.workload]
    setup_times, setup_calibration = [], []
    while True:
        setup_calibration += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        import_s = timed_import()
        start = time.perf_counter()
        prepared = setup(api, args.seed)
        setup_times.append(import_s + time.perf_counter() - start)
        enough = (len(setup_times) >= SETUP_MIN_REPEATS
                  and sum(setup_times) >= SETUP_MIN_S)
        if enough or args.trace:  # a traced run reports no setup_s
            break
    phase = measure(prepared.ops, args.seconds)
    counts = workload_counts(phase)
    failures = phase.failures + phase.mismatches
    host = statistics.median(setup_calibration + phase.calibration)
    setup_scaled = [t * CALIBRATION_REF_S / host for t in setup_times]
    metrics, beyond_p90 = end_to_end(setup_scaled, phase.samples())
    unscaled, _ = end_to_end(setup_times, phase.timeline)
    if beyond_p90 < MIN_BEYOND_P90:
        failures.append(f"only {beyond_p90} ops lie beyond the p90")
    units = END_TO_END_UNITS
    if args.trace:
        metrics, traced_rate, layer_failures = layers.measure(
            api, setup, args, phase, prepared)
        # Both rates from plain per-op times: the traced round runs once.
        untraced_rate = phase.attempted / phase.op_s
        metrics["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
        metrics.update(counts)
        metrics["oracle.s"] = phase.check_s / phase.rounds
        units = layers.UNITS
        failures += layer_failures

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(prepared.ops)} rounds={phase.rounds} attempted={phase.attempted} "
          f"op_s={phase.op_s:.3f} oracle_s={phase.check_s:.3f} "
          f"samples_beyond_p90={beyond_p90}")
    print(f"host: loop median {host * 1e6:.1f} us "
          f"(reference {CALIBRATION_REF_S * 1e6:.0f} us); unscaled: "
          + ", ".join(f"{k}={v:.4g}" for k, v in unscaled.items()))
    print(f"blas: {blas_info()}")
    if not args.trace:  # in BENCHMARK.json these are per-layer metrics
        for name, value in counts.items():
            print(f"  {name} = {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
