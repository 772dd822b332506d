"""Smoke runs of the experiment scripts at a tiny step budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, expect", [
    ("run_ablation.py", "joint term ahead on"),
    ("run_sweeps.py", "AUC vs reference variety"),
])
def test_script_runs(script, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--seeds", "1", "--steps", "10"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
