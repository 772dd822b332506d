#!/usr/bin/env python3
"""sha256 of every artifact of the README pipeline.

Runs the README walkthrough (synth, train, benchmark synth, score,
evaluate) and three sweeps in a temporary directory, with the poif
sources on PYTHONPATH, then prints one "sha256  name" line per artifact.
A resume leg trains the same recipe for half its steps and resumes to the
full count; its checkpoint, printed as resumed.ckpt, must equal
encoder.ckpt, and the script exits 1 when it does not.
A behaviour-preserving change must print the same lines before and after:
run it on both checkouts and diff the output.

Usage:
    python3 scripts/readme_digests.py                 # this checkout's src/
    python3 scripts/readme_digests.py --src OTHER/src # another checkout
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the poif package (default: %(default)s)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "poif" / "cli.py").is_file():
        print(f"readme_digests: no poif package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    with tempfile.TemporaryDirectory(prefix="poif-digests-") as work:
        for command in pipeline():
            done = subprocess.run([sys.executable, "-m", "poif.cli", *command], cwd=work,
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"readme_digests: `poif {' '.join(command)}` exited "
                      f"{done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
        digests = {name: sha256(Path(work) / name) for name in ARTIFACTS}
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    if digests["resumed.ckpt"] != digests["encoder.ckpt"]:
        print("readme_digests: the resumed checkpoint differs from the uninterrupted one",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
