"""Smoke runs of the experiment scripts at a tiny step budget."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from readme_digests import blas_core, score_deltas

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, expect", [
    ("run_ablation.py", "joint term ahead on"),
    ("run_ablation.py --p-fa 0.05", "AV Pd@5% averaged"),
    ("run_sweeps.py", "AUC vs reference variety"),
])
def test_script_runs(script, expect):
    """script is the script's name and any options it takes beyond the tiny budget."""
    name, *options = script.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           "--seeds", "1", "--steps", "10", *options],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout


def test_digest_score_deltas(tmp_path):
    head = ("POIF-SCORES,1,2\n# p_fa=0.1\nvideo_id,identity_id,n_segments,is_fake,v,a,ai,"
            "blend,norm_video,norm_audio,norm_av,fused,decision\n")
    ours, theirs, other = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    ours.write_text(head + "v1,p,3,0,0,0,0,0,1.5,-2,0.25,-2,real\n"
                           "v2,p,3,1,1,0,0,1,-4,0.5,-3.5,-4,fake\n")
    theirs.write_text(head + "v1,p,3,0,0,0,0,0,1.5,-2.125,0.25,-2,fake\n"
                             "v2,p,3,1,1,0,0,1,-4,0.5,-3.5,-4,fake\n")
    other.write_text(head + "v3,p,3,0,0,0,0,0,1.5,-2,0.25,-2,real\n"
                            "v2,p,3,1,1,0,0,1,-4,0.5,-3.5,-4,fake\n")
    assert score_deltas(ours, theirs) == "max abs field diff 0.125, 1 decision flips"
    assert score_deltas(ours, ours) == "max abs field diff 0, 0 decision flips"
    assert score_deltas(ours, other) == "different videos"


def test_digest_blas_core():
    assert blas_core("Core: SkylakeX\n") == "SkylakeX"
    assert blas_core("") == "unknown"
