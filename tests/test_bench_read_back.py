"""The benchmark reads every artifact back through the poif.fileio readers.

``perfbench/run.py`` checks the files of a pass with ``Bench.read_back``:
a reader that refuses a file, or a row view that changes its shape, is a
failed operation in every benchmark run.  This test runs the benchmark's
own command lines in process on a small pipeline and makes the same checks.
"""

import importlib.util
import os
import sys
from pathlib import Path

from poif.cli import main

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_runner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reads_back_every_artifact(tmp_path, monkeypatch):
    run = load_runner(monkeypatch)
    monkeypatch.chdir(tmp_path)
    seed = 1
    # the README training features, SETUP_TRAIN_STEPS steps with a log, then
    # the 20-identity benchmark: synth, score, evaluate and a test_length sweep
    cmds = [*run.setup_cmds("verify", seed),
            *run.benchmark("verify", seed, "encoder.ckpt", "train_feats.txt")]
    assert [cmd.stage for cmd in cmds] == ["synth", "train", "synth", "score", "evaluate",
                                           "sweep"]
    for cmd in cmds:
        assert main(cmd.args) == 0, cmd.args
    digests = {name: run.sha256(os.path.join(tmp_path, name))
               for cmd in cmds for name in cmd.outputs}
    bench = run.Bench("verify", seed, 1, False)
    bench.read_back(run.Pass("loop", 0, False, str(tmp_path), digests=digests),
                    run.SETUP_TRAIN_STEPS)
    assert bench.failures == []
    assert bench.attempted == 8
