"""Smoke runs of the experiment scripts at a tiny step budget, the digest
script's helpers, and the determinism contract across BLAS kernels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poif.fileio import read_encoders
from poif.optim import flatten_params
from readme_digests import blas_core, score_deltas, score_rows

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


# A small README-shaped pipeline: 16 training identities, 300 steps with a
# 4x4 batch at tau 0.5, then a 6-identity benchmark of 120 test videos.
KERNEL_PIPELINE = (
    ["synth", "--mode", "train", "--identities", "16", "--seed", "3", "--out", "train.txt"],
    ["train", "--features", "train.txt", "--tau", "0.5", "--epochs", "1",
     "--batches-per-epoch", "300", "--identities-per-batch", "4",
     "--segments-per-identity", "4", "--seed", "7", "--out", "enc.ckpt"],
    ["synth", "--mode", "benchmark", "--identities", "6", "--seed", "8",
     "--out-reference", "ref.txt", "--out-test", "test.txt"],
    ["score", "--checkpoint", "enc.ckpt", "--reference", "ref.txt", "--test", "test.txt",
     "--out", "scores.txt"],
)
# Across BLAS kernels, parameters agree within KERNEL_BOUND, and a score
# field within KERNEL_BOUND times max(1, |value|): a fake's z-scores reach
# ~1e3, where the absolute drift has been measured up to 1.1e-8.
KERNEL_BOUND = 1e-9


def child_env(**blas) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **blas}


def test_values_and_decisions_hold_across_blas_kernels(tmp_path):
    """The pipeline on the native OpenBLAS core and on Nehalem: artifact bytes
    may differ, but parameters and scores stay within KERNEL_BOUND and no
    decision flips.  Nehalem is x86-64-v2, numpy 2's own CPU baseline, so
    any CPU that runs numpy runs it."""
    envs = {"native": child_env(), "nehalem": child_env(OPENBLAS_CORETYPE="Nehalem")}
    cores = {name: blas_core(subprocess.run(
        [sys.executable, "-c", "import numpy"], env={**env, "OPENBLAS_VERBOSE": "2"},
        capture_output=True, text=True, timeout=60).stderr) for name, env in envs.items()}
    if cores["native"] == "unknown":
        pytest.skip("OPENBLAS_VERBOSE=2 names no core: not an OpenBLAS DYNAMIC_ARCH build")
    if cores["nehalem"] != "Nehalem":
        pytest.skip(f"OPENBLAS_CORETYPE=Nehalem ran on core {cores['nehalem']}")
    params, scores = {}, {}
    for name, env in envs.items():
        work = tmp_path / name
        work.mkdir()
        for command in KERNEL_PIPELINE:
            done = subprocess.run([sys.executable, "-m", "poif.cli", *command], cwd=work,
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (name, command[0], done.stderr)
        params[name] = flatten_params(read_encoders(str(work / "enc.ckpt"))[1])
        scores[name] = score_rows(work / "scores.txt")
    drift = max(np.abs(a - b).max() for a, b in zip(params["native"], params["nehalem"]))
    assert drift <= KERNEL_BOUND, f"parameters differ by {drift:.3g}"
    native, nehalem = scores["native"], scores["nehalem"]
    assert native.keys() == nehalem.keys() and len(native) == 120
    largest = max(abs(x - y) / max(1.0, abs(x)) for vid in native
                  for x, y in zip(native[vid][0], nehalem[vid][0]))
    flips = sum(native[vid][1] != nehalem[vid][1] for vid in native)
    assert largest <= KERNEL_BOUND and flips == 0, \
        f"scores differ by {largest:.3g} relative, {flips} decision flips"
