#!/usr/bin/env python3
"""sha256 of every artifact of the README pipeline.

Runs the README walkthrough (synth, train, benchmark synth, score,
evaluate) and three sweeps in a temporary directory, with the poif
sources on PYTHONPATH, then prints one "sha256  name" line per artifact.
A resume leg trains the same recipe for half its steps and resumes to the
full count; its checkpoint, printed as resumed.ckpt, must equal
encoder.ckpt, and the script exits 1 when it does not.
A behaviour-preserving change must print the same lines before and after:
run it on both checkouts and diff the output.  A change that moves bits
states its deltas with --against, which runs the pipelines of both
checkouts side by side and prints "same" or "differs" per artifact; for
scores.txt it adds the largest absolute difference of any numeric field
and the number of videos whose decision flipped.
Artifact bytes depend on the BLAS kernel, so the script names the OpenBLAS
core it runs on, on stderr ("unknown" when no core line appears).

Usage:
    python3 scripts/readme_digests.py                 # this checkout's src/
    python3 scripts/readme_digests.py --src OTHER/src # another checkout
    python3 scripts/readme_digests.py --against OTHER/src  # deltas against another
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SWEEPS = (
    ("sweep_test_length.txt", ["--axis", "test_length", "--values", "1,2,5,10"]),
    ("sweep_ref_size.txt", ["--axis", "ref_size", "--values", "2,5,10"]),
    ("sweep_ref_variety.txt", ["--axis", "ref_variety", "--values", "1,2,5,10",
                               "--ref-total", "10"]),
)


def train(steps: int, *extra: str) -> list[str]:
    return ["train", "--features", "train_feats.txt", "--tau", "0.5", "--epochs", "1",
            "--batches-per-epoch", str(steps), "--seed", "7", *extra]


def pipeline() -> list[list[str]]:
    """The README commands, each writing its artifact into the working directory."""
    inputs = ["--checkpoint", "encoder.ckpt", "--reference", "bench_ref.txt",
              "--test", "bench_test.txt"]
    commands = [
        ["synth", "--mode", "train", "--identities", "64", "--segments-per-video", "4",
         "--seed", "7", "--out", "train_feats.txt"],
        train(2000, "--out", "encoder.ckpt", "--log", "train_log.txt"),
        train(1000, "--out", "half.ckpt"),
        train(2000, "--resume", "half.ckpt", "--out", "resumed.ckpt"),
        ["synth", "--mode", "benchmark", "--identities", "20", "--seed", "8",
         "--train-features", "train_feats.txt",
         "--out-reference", "bench_ref.txt", "--out-test", "bench_test.txt"],
        ["score", *inputs, "--out", "scores.txt"],
        ["evaluate", "--scores", "scores.txt", "--out", "report.txt"],
    ]
    commands += [["sweep", *inputs, *axis, "--out", out] for out, axis in SWEEPS]
    return commands


ARTIFACTS = ("train_feats.txt", "encoder.ckpt", "train_log.txt", "bench_ref.txt",
             "bench_test.txt", "scores.txt", "report.txt", *(out for out, _ in SWEEPS),
             "resumed.ckpt")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def blas_core(stderr: str) -> str:
    """The core that OpenBLAS names with OPENBLAS_VERBOSE=2 ("Core: SkylakeX"), or "unknown"."""
    for line in stderr.splitlines():
        if line.startswith("Core:") and line[5:].strip():
            return line[5:].strip()
    return "unknown"


def run_pipeline(src: Path, work: str) -> bool:
    """Run every README command with src's package in work; False on a failure."""
    env = pipeline_env(src)
    for command in pipeline():
        done = subprocess.run([sys.executable, "-m", "poif.cli", *command], cwd=work,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"readme_digests: `poif {' '.join(command)}` with {src} exited "
                  f"{done.returncode}\n{done.stderr}", file=sys.stderr)
            return False
    return True


def score_rows(path: Path) -> dict[str, tuple[list[float], str]]:
    """Per video id: (blend, norm_video, norm_audio, norm_av, fused) and decision."""
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("video_id,")) + 1
    rows = {}
    for line in lines[start:]:
        fields = line.split(",")
        rows[fields[0]] = ([float(v) for v in fields[7:12]], fields[12])
    return rows


def score_deltas(ours: Path, theirs: Path) -> str:
    """Largest absolute numeric field difference and decision flips, as one phrase."""
    a, b = score_rows(ours), score_rows(theirs)
    if a.keys() != b.keys():
        return "different videos"
    largest = max((abs(x - y) for vid in a for x, y in zip(a[vid][0], b[vid][0])),
                  default=0.0)
    flips = sum(a[vid][1] != b[vid][1] for vid in a)
    return f"max abs field diff {largest:.3g}, {flips} decision flips"


def package(path: Path) -> Path | None:
    src = path.resolve()
    if not (src / "poif" / "cli.py").is_file():
        print(f"readme_digests: no poif package under {src}", file=sys.stderr)
        return None
    return src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the poif package (default: %(default)s)")
    parser.add_argument("--against", type=Path,
                        help="another checkout's package directory to compare artifacts with")
    args = parser.parse_args(argv)
    srcs = [package(args.src)] + ([package(args.against)] if args.against else [])
    if None in srcs:
        return 2
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**pipeline_env(srcs[0]), "OPENBLAS_VERBOSE": "2"})
    print(f"readme_digests: BLAS core {blas_core(probe.stderr)}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="poif-digests-") as root:
        works = [os.path.join(root, str(k)) for k in range(len(srcs))]
        for work in works:
            os.mkdir(work)
        # each checkout's pipeline runs in its own directory, so both can run at once
        with ThreadPoolExecutor(max_workers=len(srcs)) as pool:
            finished = list(pool.map(run_pipeline, srcs, works))
        if not all(finished):
            return 1
        if len(works) == 1:
            for name in ARTIFACTS:
                print(f"{sha256(Path(works[0]) / name)}  {name}")
        else:
            for name in ARTIFACTS:
                ours, theirs = Path(works[0]) / name, Path(works[1]) / name
                if sha256(ours) == sha256(theirs):
                    print(f"same     {name}")
                elif name == "scores.txt":
                    print(f"differs  {name}  ({score_deltas(ours, theirs)})")
                else:
                    print(f"differs  {name}")
        status = 0
        for src, work in zip(srcs, works):
            if sha256(Path(work) / "resumed.ckpt") != sha256(Path(work) / "encoder.ckpt"):
                print(f"readme_digests: with {src}, the resumed checkpoint differs from "
                      f"the uninterrupted one", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
