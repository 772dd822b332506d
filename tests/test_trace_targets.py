"""The traced benchmark runner wraps package functions by name.

``perfbench/traced_cli.py`` looks up every name in its TARGETS table with
getattr and patches ``records.SegmentRecord.__post_init__``, so a renamed
or deleted function makes every traced run fail.  The table is read with
ast, without importing the runner.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from poif import scoring
from poif.cli import main

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def traced_targets() -> dict:
    for node in ast.parse(TRACED_CLI.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACED_CLI}")


def test_every_traced_name_is_defined():
    targets = traced_targets()
    assert "scoring" in targets and "experiments" in targets
    missing = [f"poif.{module}.{name}" for module, names in targets.items()
               for name in names
               if not hasattr(importlib.import_module(f"poif.{module}"), name)]
    assert missing == []
    records = importlib.import_module("poif.records")
    assert hasattr(records.SegmentRecord, "__post_init__")


# The functions a training step calls, with their calls per step.  The
# traced runner times training.step_ms from sample_batch's start to
# adamw_step's end, and the per-layer spans by these names, so every step
# has to call each one through its module binding.
STEP_CALLS = {
    ("training", "sample_batch"): 1,
    ("losses", "positive_sets"): 1,
    ("encoder", "loss_and_param_grads"): 1,
    ("encoder", "mlp_forward"): 2,
    ("encoder", "mlp_backward"): 2,
    ("losses", "loss_and_embedding_grads"): 1,
    ("similarity", "squared_distance_matrix"): 2,
    ("optim", "adamw_step"): 1,
}


def count_calls(monkeypatch, names) -> dict:
    """Count calls the way traced_cli.py wraps them: every poif binding of a name."""
    targets = traced_targets()
    calls = {}
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "poif" or key.startswith("poif."))]
    for module, name in names:
        assert name in targets[module]
        original = getattr(importlib.import_module(f"poif.{module}"), name)

        def counted(*args, _original=original, _key=(module, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, counted)
    return calls


def test_every_training_step_calls_the_traced_functions(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, STEP_CALLS)
    feats = str(tmp_path / "feats.txt")
    assert main(["synth", "--mode", "train", "--identities", "4", "--videos-per-identity",
                 "3", "--segments-per-video", "2", "--audio-dim", "5", "--video-dim", "4",
                 "--seed", "1", "--out", feats]) == 0
    assert calls == {}
    assert main(["train", "--features", feats, "--out", str(tmp_path / "enc.ckpt"),
                 "--seed", "1", "--tau", "0.5", "--epochs", "1", "--batches-per-epoch", "3",
                 "--identities-per-batch", "2", "--segments-per-identity", "2",
                 "--hidden-layers", "1", "--hidden-width", "4", "--embedding-dim", "3"]) == 0
    assert calls == {key: 3 * per_step for key, per_step in STEP_CALLS.items()}


# The functions score and sweep call per person and per stack.  The traced
# runner's encoder.encode_batch and scoring.score_video spans time one
# stack each, so the embedding and the verdicts of a stack must go through
# these module bindings once per stack.
SCORING_CALLS = (("scoring", "build_reference"), ("encoder", "encode_batch"),
                 ("encoder", "mlp_forward"), ("scoring", "score_video"))


@pytest.mark.filterwarnings("ignore::poif.scoring.SmallReferenceWarning")
def test_score_and_sweep_call_the_traced_functions_once_per_stack(tmp_path, monkeypatch):
    people, test_videos, length, widest = 3, 6, 3, 8
    paths = {name: str(tmp_path / name) for name in ("train", "ckpt", "ref", "test", "out")}
    assert main(["synth", "--mode", "train", "--identities", "4", "--videos-per-identity",
                 "3", "--segments-per-video", "2", "--audio-dim", "5", "--video-dim", "4",
                 "--seed", "1", "--out", paths["train"]]) == 0
    assert main(["train", "--features", paths["train"], "--out", paths["ckpt"],
                 "--seed", "1", "--tau", "0.5", "--epochs", "1", "--batches-per-epoch", "2",
                 "--identities-per-batch", "2", "--segments-per-identity", "2",
                 "--hidden-layers", "1", "--hidden-width", str(widest),
                 "--embedding-dim", "3"]) == 0
    # 2 real and 4 fake test videos of 3 segments per person
    assert main(["synth", "--mode", "benchmark", "--identities", str(people),
                 "--audio-dim", "5", "--video-dim", "4", "--segments-per-video", str(length),
                 "--reference-videos", "3", "--real-videos", "2", "--fakes-per-group", "1",
                 "--seed", "9", "--identity-start", "100", "--train-features", paths["train"],
                 "--out-reference", paths["ref"], "--out-test", paths["test"]]) == 0
    budget = 8 * length * widest * 4  # four whole 3-segment videos per stack
    monkeypatch.setattr(scoring, "_SLICE_BYTES", budget)
    inputs = ["--checkpoint", paths["ckpt"], "--reference", paths["ref"],
              "--test", paths["test"], "--out", paths["out"]]

    def stacks(x):
        return -(-people * test_videos // max(1, budget // (8 * x * widest)))

    def expected(encode_batch, score_video):
        return {("scoring", "build_reference"): people,
                ("encoder", "encode_batch"): encode_batch,
                ("encoder", "mlp_forward"): 2 * encode_batch,
                ("scoring", "score_video"): score_video}

    calls = count_calls(monkeypatch, SCORING_CALLS)
    assert main(["score", *inputs]) == 0
    assert stacks(length) == 5
    assert calls == expected(people + stacks(length), people)

    calls.clear()
    points = (1, 2, 3)
    assert main(["sweep", *inputs, "--axis", "test_length",
                 "--values", ",".join(map(str, points))]) == 0
    assert [stacks(x) for x in points] == [2, 3, 5]
    assert calls == expected(people + sum(map(stacks, points)), people * len(points))
