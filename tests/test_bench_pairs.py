"""``tools/bench_pairs.py`` on two stub checkouts, each with its own run.py."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# Each stub run logs "name seconds" and reports the next of its (ops, rss).
STUB = textwrap.dedent("""\
    import json, sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    conf = json.loads((here / "stub.json").read_text())
    log = here.parents[1] / "order.log"
    lines = log.read_text().splitlines() if log.exists() else []
    done = sum(line.split()[0] == conf["name"] for line in lines)
    with log.open("a") as out:
        out.write(f"{conf['name']} {sys.argv[sys.argv.index('--seconds') + 1]}\\n")
    if conf["fail"]:
        sys.exit(1)
    ops, rss = conf["runs"][done]
    metrics = {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}
    print("host: stub")
    print(json.dumps({"correct": True, "attempted": int(ops * 10), "failed": 0,
                      "metrics": metrics}))
""")


def checkout(tmp_path, name, seconds, runs, fail=False):
    root = tmp_path / name
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB)
    conf = {"name": name, "fail": fail, "runs": runs}
    (root / "bench" / "stub.json").write_text(json.dumps(conf))
    spec = {
        "command": [sys.executable, "bench/run.py"],
        "run_seconds": seconds,
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        ],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def run_tool(parent, change, pairs):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "eval-rat", "--seed", "1", "--pairs", str(pairs)],
        capture_output=True, text=True, timeout=60,
    )


def test_alternates_and_summarizes(tmp_path):
    parent = checkout(tmp_path, "parent", 7,
                      [(100.0, 30.0), (110.0, 30.0), (90.0, 30.0), (100.0, 30.0)])
    change = checkout(tmp_path, "change", 3,
                      [(150.0, 31.0), (105.0, 29.0), (160.0, 30.0), (170.0, 31.0)])
    proc = run_tool(parent, change, 4)
    assert proc.returncode == 0, proc.stderr
    order = (tmp_path / "order.log").read_text().split("\n")
    # each side runs with its own run length, and the first side alternates
    assert order[:-1] == ["parent 7", "change 3", "change 3", "parent 7",
                          "parent 7", "change 3", "change 3", "parent 7"]
    out = proc.stdout
    assert "pair 2 (change first)" in out
    assert "  parent: ops_per_s=110 peak_rss_mb=30 attempted=1100" in out
    assert ("  ops_per_s: parent median 100 (quartiles 97.5 102.5), "
            "change median 155, change better in 3/4") in out
    # lower is better; the tie in pair 3 counts for neither side
    assert ("  peak_rss_mb: parent median 30 (quartiles 30 30), "
            "change median 30.5, change better in 1/4") in out
    # medians 1000 and 1550 attempted ops, 30 and 30.5 MB
    assert "  attempted: parent median 1000, change median 1550" in out
    assert "  peak_rss_mb per 1,000 extra attempted ops: 0.9091" in out


def test_equal_attempted_gives_no_slope(tmp_path):
    parent = checkout(tmp_path, "parent", 1, [(100.0, 30.0)])
    change = checkout(tmp_path, "change", 1, [(100.0, 31.0)])
    proc = run_tool(parent, change, 1)
    assert proc.returncode == 0, proc.stderr
    assert "  attempted: parent median 1000, change median 1000" in proc.stdout
    assert "  peak_rss_mb per 1,000 extra attempted ops: n/a" in proc.stdout


def test_failed_run_exits_one(tmp_path):
    parent = checkout(tmp_path, "parent", 1, [(100.0, 30.0)])
    change = checkout(tmp_path, "change", 1, [(100.0, 30.0)], fail=True)
    proc = run_tool(parent, change, 2)
    assert proc.returncode == 1
    assert "change run failed: exit 1" in proc.stderr
    assert (tmp_path / "order.log").read_text().split() == ["parent", "1",
                                                            "change", "1"]
