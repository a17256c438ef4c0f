"""Per-layer metrics: one traced round, the command line and the baseline.

Layers are the library's modules.  The traced round repeats the workload's
set-up and one round of its ops with every public function wrapped (see
``tracing``); the oracle checks of that round run in their own phase, so
they never count as a layer's work.  The untraced phase the caller already
measured supplies the times that product shares are taken against.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import baseline
import tracing
from paths import OUT, ROOT, child_env
from workloads import F64_RTOL, LARGE, SMALL

EVAL_GROUPS = (
    "q5", "p6", "bench19", "bench19_chain", "remark7", "remark6", "companion"
)
CLI_COMMANDS = ("rank", "compile", "eval", "factor", "table")
REF_PRODUCT_REPEATS = 25
STATIC = ("entries_materialized", "entries_distinct", "flops_computed")


def _units() -> dict:
    units = {
        "freepoly.parse.calls": "count",
        "freepoly.parse.s": "s",
        "freepoly.naive_evaluate.s": "s",
        "freepoly.naive_products": "count",
        "linalg.self_s": "s",
        "linalg.solve_rows.calls": "count",
        "linalg.solve_rows.cells": "count",
        "linalg.solve_rows.consistent_frac": "ratio",
        "linalg.rank.calls": "count",
        "realization.self_s": "s",
        "realization.als_add.calls": "count",
        "realization.restore_polynomial_form.calls": "count",
        "realization.family.s": "s",
        "realization.max_dim": "count",
        "minimizer.self_s": "s",
        "minimizer.build_als.s": "s",
        "minimizer.minimize.calls": "count",
        "minimizer.left_solve.calls": "count",
        "minimizer.left_solve.hit_frac": "ratio",
        "minimizer.right_solve.calls": "count",
        "minimizer.right_solve.hit_frac": "ratio",
        "minimizer.is_minimal.s": "s",
        "factorizer.self_s": "s",
        "factorizer.factor_atoms.s": "s",
        "factorizer.find_split.calls": "count",
        "factorizer.find_split.hit_frac": "ratio",
        "factorizer.atoms": "count",
        "evaluator.self_s": "s",
        "evaluator.evaluate_left.s": "s",
        "evaluator.evaluate_right.s": "s",
        "evaluator.evaluate_block_factorization.s": "s",
        "evaluator.mult_count": "count",
    }
    for size in (SMALL, LARGE):
        units[f"evaluator.ref_product_ms.{size}"] = "ms"
        for group in EVAL_GROUPS:
            units[f"evaluator.product_share.{group}.{size}"] = "ratio"
    for name in STATIC:
        units[f"evaluator.{name}"] = "count"
    units["families.s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.s"] = "s"
    units.update({
        "cli.nonzero_exits": "count",
        "baseline.ps_products": "count",
        "baseline.horner_products": "count",
        "trace.overhead_frac": "ratio",
        "products_per_eval": "count",
        "compiled_N_sum": "count",
        "fail_rate": "ratio",
        "oracle.s": "s",
    })
    return units


UNITS = _units()


def ref_product_ms(pair) -> float:
    """Median time of one warm m x m product in the workload's mode."""
    a, b = pair
    for _ in range(3):
        a @ b
    times = []
    for _ in range(REF_PRODUCT_REPEATS):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def static_costs(meta: dict, products: int) -> tuple[int, int, int]:
    """Computed from the structure and m, not measured.

    Pencil entries one evaluation materializes as m x m matrices (the
    non-scalar ones), how many of them are distinct, and the flops of the
    counted products (2 m^3 each) plus materialization (2 m^2 per letter
    term of each entry).
    """
    target, m = meta["target"], meta["m"]
    if meta["side"] == "chain":
        cells = [e for grid in target.factors for row in grid for e in row]
    else:
        n = target.n
        cells = [target.rows[i][j] for i in range(n) for j in range(i + 1, n)]
    entries = [e for e in cells if not e.is_scalar]
    letter_terms = sum(1 for e in entries for c in e.coeffs[1:] if c)
    flops = 2 * m**3 * products + 2 * m**2 * letter_terms
    return len(entries), len({e.coeffs for e in entries}), flops


def traced_round(api, setup, seed: int):
    """Trace one set-up, one round of ops and the round's oracle checks."""
    tracer = tracing.Tracer(api)
    latencies, tally, statics, failures = [], Counter(), Counter(), []
    tracer.install()
    try:
        prepared = setup(api, seed)
        for op in prepared.ops:
            tracer.phase = "op"
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # reported with the run's other failures
                failures.append(f"traced {op.label}: raised {exc!r}")
                continue
            finally:
                latencies.append(time.perf_counter() - start)
            counts = op.tally(result)
            tally.update(counts)
            if op.meta:
                costs = static_costs(op.meta, counts["products"])
                statics.update(dict(zip(STATIC, costs)))
            tracer.phase = "oracle"
            try:
                op.check(result)
            except Exception as exc:  # reported with the run's other failures
                failures.append(f"traced {op.label}: {exc}")
    finally:
        tracer.uninstall()
    return tracer, latencies, tally, statics, failures


def run_cli(api, prepared, seed: int) -> tuple[dict, list]:
    """Each command once through a subprocess, on the workload's inputs."""
    OUT.mkdir(exist_ok=True)
    text, letters = prepared.cli_poly
    als_path, mats_path = OUT / "cli.als", OUT / "cli_mats.txt"
    tup = api.random_rational_tuple(random.Random(seed), len(letters.split(",")), 3)
    mats_path.write_text(api.dump_matrix_tuple(tup))
    commands = {
        "rank": ["rank", text],
        "compile": ["compile", text, "-o", str(als_path)],
        "eval": ["eval", str(als_path), str(mats_path), "--side", "both"],
        "factor": ["factor", text],
        "table": ["table"],
    }
    seconds, failures = {}, []
    for name, argv in commands.items():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ncpoly.cli", "--alphabet", letters, *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        seconds[name] = time.perf_counter() - start
        if proc.returncode != 0:
            failures.append(
                f"cli {name} exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds, failures


def run_baseline(api, prepared) -> tuple[int, int, list]:
    """Paterson–Stockmeyer on the univariate systems, checked against naive."""
    ps_total = horner_total = 0
    failures = []
    for als, tup in prepared.companions:
        poly = als.polynomial()
        k = poly.degree()
        coeffs = [poly.coefficient((0,) * j) for j in range(k + 1)]
        if not tup.is_exact:
            coeffs = [float(c) for c in coeffs]
        eye = api.freepoly.identity_matrix(tup.m, tup.is_exact)
        value, products = baseline.paterson_stockmeyer(coeffs, tup.mats[0], eye)
        reference = api.naive_evaluate(poly, tup.mats)
        if tup.is_exact:
            same = np.array_equal(value, reference)
        else:
            scale = max(np.linalg.norm(reference), 1.0)
            same = np.linalg.norm(value - reference) <= F64_RTOL * scale
        if not same:
            failures.append(f"Paterson-Stockmeyer disagrees with naive at degree {k}")
        ps_total += products
        horner_total += k - 1
    return ps_total, horner_total, failures


def _frac(hits, total) -> float:
    return hits / total if total else 0.0


def measure(api, setup, args, untraced, prepared) -> tuple[dict, list]:
    """Every per-layer metric except those the caller adds from ``untraced``.

    Returns the metrics, the traced round's ops per second (plain per-op
    times, for the caller's overhead figure) and the failures seen.
    """
    tracer, latencies, tally, statics, failures = traced_round(api, setup, args.seed)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    summary = tracer.summary()
    calls, incl = summary["calls"], summary["incl_s"]
    m = {
        "freepoly.parse.calls": calls["freepoly.parse"],
        "freepoly.parse.s": incl["freepoly.parse"],
        "freepoly.naive_evaluate.s":
            summary["oracle_incl_s"]["freepoly.naive_evaluate"],
        "freepoly.naive_products":
            tracer.count("freepoly.naive_products", ("oracle",)),
        "linalg.solve_rows.calls": calls["linalg.solve_rows"],
        "linalg.solve_rows.cells": tracer.count("linalg.solve_rows.cells"),
        "linalg.solve_rows.consistent_frac": _frac(
            tracer.count("linalg.solve_rows.consistent"), calls["linalg.solve_rows"]),
        "linalg.rank.calls": calls["linalg.rank"],
        "realization.als_add.calls": calls["realization.als_add"],
        "realization.restore_polynomial_form.calls":
            calls["realization.restore_polynomial_form"],
        "realization.family.s":
            incl["realization.Als.left_family"] + incl["realization.Als.right_family"],
        "realization.max_dim": tracer.maximum("realization.max_dim"),
        "minimizer.build_als.s": incl["minimizer.build_als"],
        "minimizer.minimize.calls": calls["minimizer.minimize"],
        "minimizer.is_minimal.s": incl["minimizer.is_minimal"],
        "factorizer.factor_atoms.s": incl["factorizer.factor_atoms"],
        "factorizer.find_split.calls": calls["factorizer.find_split"],
        "factorizer.find_split.hit_frac": _frac(
            tracer.count("factorizer.find_split.hits"), calls["factorizer.find_split"]),
        "factorizer.atoms": tracer.count("factorizer.atoms"),
        "evaluator.evaluate_left.s": incl["evaluator.evaluate_left"],
        "evaluator.evaluate_right.s": incl["evaluator.evaluate_right"],
        "evaluator.evaluate_block_factorization.s":
            incl["evaluator.evaluate_block_factorization"],
        "evaluator.mult_count": tally["products"],
        "families.s": sum(v for k, v in incl.items() if k.startswith("families.")),
    }
    for side, name in (("left", "left_solve"), ("right", "right_solve")):
        key = f"minimizer.solve_{side}_minimization"
        m[f"minimizer.{name}.calls"] = calls[key]
        m[f"minimizer.{name}.hit_frac"] = _frac(
            tracer.count(f"minimizer.{name}.hits"), calls[key])
    for layer in ("linalg", "realization", "minimizer", "factorizer", "evaluator"):
        m[f"{layer}.self_s"] = summary["self_s"][layer]
    for name in STATIC:
        m[f"evaluator.{name}"] = statics[name]

    refs = {size: ref_product_ms(pair) for size, pair in prepared.ref_mats.items()}
    groups = untraced.groups()
    for size in (SMALL, LARGE):
        m[f"evaluator.ref_product_ms.{size}"] = refs.get(size, 0.0)
        for group in EVAL_GROUPS:
            seconds, products = groups.get((group, size), (0.0, 0))
            share = products * refs[size] / 1e3 / seconds if seconds else 0.0
            m[f"evaluator.product_share.{group}.{size}"] = share

    cli_s, cli_failures = run_cli(api, prepared, args.seed)
    for name, seconds in cli_s.items():
        m[f"cli.{name}.s"] = seconds
    m["cli.nonzero_exits"] = len(cli_failures)
    ps, horner, baseline_failures = run_baseline(api, prepared)
    m["baseline.ps_products"] = ps
    m["baseline.horner_products"] = horner
    traced_rate = len(latencies) / sum(latencies)
    return m, traced_rate, failures + cli_failures + baseline_failures
