"""One hash over every result the benchmark's ops compute.

Usage, from anywhere:

    python3 tools/same_results.py CHECKOUT
    python3 tools/same_results.py --list CHECKOUT

imports ``ncpoly`` from ``CHECKOUT/src`` and the workload definitions from
``CHECKOUT/bench/workloads.py`` (read only), runs every op of the four
workloads once at seeds 1 and 101, and prints one sha256 over:

- every compile system's ``dump_als`` with its N_s, N_t and ``is_minimal``,
- every factor op's atoms,
- every eval op's ``mult_count`` and result (each rational value as text,
  float64 results as their bytes).

Two checkouts whose hashes are equal return byte-identical systems, atoms
and values on the benchmark's inputs.  With ``--list`` it prints instead
one line per op, ``workload seed label sha256-prefix`` (the hash of that
op's result text), so the lists of two checkouts can be diffed to see
which ops changed.  Ops are not timed and their oracle checks are not
run.  Standard library plus the checkout's own code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

SEEDS = (1, 101)  # the benchmark's seed and its held-out seed
WORKLOADS = ("compile", "factor", "eval-rat", "eval-f64")


def _describe(api, workload: str, result) -> str:
    if workload == "compile":
        _, als, minimal, ns, nt = result
        return f"{api.dump_als(als)}N_s {ns} N_t {nt} minimal {minimal}"
    if workload == "factor":
        return " | ".join(str(atom) for atom in result)
    values = result.result
    if workload == "eval-rat":
        body = " ".join(str(x) for x in values.flat)
    else:
        body = values.astype("<f8").tobytes().hex()
    return f"products {result.mult_count} shape {values.shape} {body}"


def op_results(root: Path):
    """(workload, seed, label, result text) for every op, in a fixed order."""
    # One BLAS thread, as the benchmark runs, so float sums keep one order.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import ncpoly as api
    import ncpoly.families  # noqa: F401  (not imported by the package)
    import workloads

    if Path(api.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SystemExit(f"imported ncpoly from {api.__file__}, not {root / 'src'}")
    for seed in SEEDS:
        for workload in WORKLOADS:
            prepared = workloads.SETUPS[workload](api, seed)
            for op in prepared.ops:
                yield workload, seed, op.label, _describe(api, workload, op.run())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a source checkout")
    parser.add_argument("--list", action="store_true",
                        help="print one line per op instead of one hash")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    for workload, seed, label, text in op_results(args.checkout.resolve()):
        if args.list:
            op_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
            print(f"{workload} {seed} {label} {op_hash}")
        digest.update(f"{workload} {seed} {label}\n{text}\n".encode())
    if not args.list:
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
