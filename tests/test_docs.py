"""The README's library tour and every demo script run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
