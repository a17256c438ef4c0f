"""Where the benchmark finds the library and writes its outputs."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def child_env() -> dict:
    """Environment for subprocesses: this checkout's sources, no bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env
