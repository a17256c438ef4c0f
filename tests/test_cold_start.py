"""A fresh interpreter loads numpy only when a matrix is made.

Every other test imports numpy before ncpoly, so the package's lazy numpy
is never lazy there.  These tests run the library and the command line in
new interpreters.  ``numpy.linalg`` is imported by numpy's own body, so its
absence from ``sys.modules`` shows that the body has not run.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from ncpoly import dump_als, dump_factors, dump_matrix_tuple, random_rational_tuple
from ncpoly.cli import main

from conftest import BENCH19_TEXT

ROOT = Path(__file__).resolve().parents[1]

DEFERRED = "'numpy.linalg' not in sys.modules"

LIBRARY = f"""
import json, random, sys
import ncpoly, ncpoly.families
from ncpoly import *

ab = Alphabet(("x", "y", "z"))
p = parse("(x*y + 1)*(z*x - 3)", ab)
system = build_als(p)
atoms = factor_atoms(p)
exact_work = {{
    "rank": rank_of(p),
    "dim": system.n,
    "minimal": is_minimal(system),
    "counts": [count_ns(system), count_nt(system)],
    "atoms": [str(a) for a in atoms],
    "power_rank": minimize(ncpoly.families.power_system(3)).n,
    "round_trip": load_als(dump_als(system)) == system,
}}
deferred = {DEFERRED}

import numpy as np

chain = BlockFactorization.from_cells(ab, [[["x", "y"]], [["y"], ["x"]]])
anticommutator = parse("x*y + y*x", ab)
rat = random_rational_tuple(random.Random(5), 3, 4)
agree = {{}}
for tup in (rat, rat.to_float()):
    same = np.array_equal if tup.is_exact else np.allclose
    want = naive_evaluate(p, tup.mats)
    agree[tup.mode] = [
        bool(same(evaluate_left(system, tup).result, want)),
        bool(same(evaluate_right(system, tup).result, want)),
        bool(same(evaluate_product([build_als(a) for a in atoms], tup).result, want)),
        bool(same(evaluate_block_factorization(chain, tup).result,
                  naive_evaluate(anticommutator, tup.mats))),
    ]
print(json.dumps({{"deferred": deferred, "exact_work": exact_work, "agree": agree}}))
"""

# Runs each command line of argv[1] through ``cli.main`` and reports its
# exit code, its output and whether numpy's body has run after it.
COMMANDS = f"""
import contextlib, io, json, sys
from ncpoly.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({{"code": code, "out": out.getvalue(), "deferred": {DEFERRED}}})
print(json.dumps(results))
"""


def cold(script, *args, cwd=ROOT):
    """Run ``script`` in a new interpreter on ``src`` and read its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def warm(argv):
    """Exit code and output of ``cli.main`` in this process, numpy loaded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"code": code, "out": out.getvalue()}


def cold_commands(commands, cwd):
    return cold(COMMANDS, json.dumps(commands), cwd=cwd)


def test_exact_pipeline_defers_numpy_and_evaluation_loads_it():
    report = cold(LIBRARY)
    assert report["deferred"]
    assert report["exact_work"] == {
        "rank": 5,
        "dim": 5,
        "minimal": True,
        "counts": [4, 4],
        "atoms": ["1 + x*y", "-3 + z*x"],
        "power_rank": 4,
        "round_trip": True,
    }
    assert report["agree"] == {"rat": [True] * 4, "f64": [True] * 4}


def test_exact_commands_defer_numpy(tmp_path, bench19_chain, monkeypatch):
    (tmp_path / "chain.txt").write_text(dump_factors(bench19_chain))
    commands = [
        ["rank", "x - x*y*x"],
        ["compile", "(x*y + 1)*(z*x - 3)", "-o", "p.als"],
        ["minimize", "p.als"],
        ["factor", "(x*y + 1)*(z*x - 3)"],
        ["verify-block", "chain.txt", BENCH19_TEXT],
        ["table", "--kmax-p", "3", "--kmax-q", "2"],
        ["rank", "x*y*x^239 + x^2*y*x^238"],
    ]
    results = cold_commands(commands, tmp_path)
    assert [r.pop("deferred") for r in results] == [True] * len(commands)
    monkeypatch.chdir(tmp_path)
    assert results == [warm(argv) for argv in commands]
    assert [r["code"] for r in results] == [0] * 6 + [2]


def test_matrix_commands_run_from_a_cold_process(tmp_path, intro_als, monkeypatch):
    (tmp_path / "s.als").write_text(dump_als(intro_als))
    tup = random_rational_tuple(random.Random(3), 2, 3)
    (tmp_path / "m.txt").write_text(dump_matrix_tuple(tup))
    monkeypatch.chdir(tmp_path)
    for argv in (["eval", "s.als", "m.txt", "--side", "both"], ["selftest"]):
        (result,) = cold_commands([argv], tmp_path)
        assert not result.pop("deferred")
        assert result == warm(argv)
        assert result["code"] == 0
