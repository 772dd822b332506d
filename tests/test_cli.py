import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from poif.cli import main
from poif.scoring import SmallReferenceWarning

# tiny references are the point of these fixtures
pytestmark = pytest.mark.filterwarnings("ignore::poif.scoring.SmallReferenceWarning")
from poif.fileio import (
    read_checkpoint,
    read_features,
    read_report,
    read_scores,
    read_sweep,
    write_checkpoint,
    write_features,
    write_scores,
)
from poif.encoder import EncoderConfig, init_encoder
from poif.records import ManipFlags
from poif.fileio import ScoreRow

TRAIN_ARGS = [
    "--seed", "1", "--tau", "0.5", "--epochs", "1", "--batches-per-epoch", "6",
    "--identities-per-batch", "3", "--segments-per-identity", "2",
    "--embedding-dim", "3", "--hidden-layers", "1", "--hidden-width", "8",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> train -> synth-benchmark chain shared by the tests."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "train_feats": str(d / "train_feats.txt"),
        "ckpt": str(d / "enc.ckpt"),
        "log": str(d / "train_log.txt"),
        "ref": str(d / "bench_ref.txt"),
        "test": str(d / "bench_test.txt"),
        "dir": d,
    }
    assert main(["synth", "--mode", "train", "--identities", "6",
                 "--videos-per-identity", "4", "--segments-per-video", "2",
                 "--audio-dim", "5", "--video-dim", "4", "--seed", "3",
                 "--out", paths["train_feats"]]) == 0
    assert main(["train", "--features", paths["train_feats"],
                 "--out", paths["ckpt"], "--log", paths["log"], *TRAIN_ARGS]) == 0
    assert main(["synth", "--mode", "benchmark", "--identities", "4",
                 "--audio-dim", "5", "--video-dim", "4",
                 "--segments-per-video", "3", "--reference-videos", "3",
                 "--real-videos", "2", "--fakes-per-group", "1", "--seed", "9",
                 "--identity-start", "100",
                 "--train-features", paths["train_feats"],
                 "--out-reference", paths["ref"],
                 "--out-test", paths["test"]]) == 0
    return paths


def test_synth_writes_features_with_echoed_settings(pipeline):
    meta, segments = read_features(pipeline["train_feats"])
    assert len(segments) == 6 * 4 * 2
    assert meta["mode"] == "train"
    assert meta["seed"] == "3"
    assert meta["identities"] == "6"
    assert "out" not in meta  # paths never enter the header

    ref_meta, ref_segments = read_features(pipeline["ref"])
    assert ref_meta["role"] == "reference"
    assert len(ref_segments) == 4 * 3 * 3
    _, test_segments = read_features(pipeline["test"])
    # 2 real + 4 fake videos per identity, 3 segments each
    assert len(test_segments) == 4 * 6 * 3


def test_train_checkpoint_records_run(pipeline):
    ckpt = read_checkpoint(pipeline["ckpt"])
    assert ckpt.meta["tau"] == "0.5"
    assert ckpt.meta["lambda"] == "1"
    assert ckpt.meta["audio_dim"] == "5"
    assert float(ckpt.meta["final_loss"]) > 0.0
    assert ckpt.can_resume and ckpt.steps_done == 6
    assert ckpt.params.audio.weights[0].shape == (8, 5)
    log = open(pipeline["log"]).read().splitlines()
    assert log[0].startswith("POIF-LOG,1,6")


def test_score_and_rerun_byte_identical(pipeline):
    d = pipeline["dir"]
    a, b = str(d / "scores_a.txt"), str(d / "scores_b.txt")
    base = ["score", "--checkpoint", pipeline["ckpt"], "--reference",
            pipeline["ref"], "--test", pipeline["test"]]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    bytes_a = open(a, "rb").read()
    assert bytes_a == open(b, "rb").read()

    # scoring has no thread pool: its flag and config key are config errors
    with pytest.raises(SystemExit) as refused:
        main(base + ["--out", str(d / "scores_w4.txt"), "--workers", "4"])
    assert refused.value.code == 2
    config = d / "workers.cfg"
    config.write_text("workers = 4\n")
    assert main(base + ["--out", str(d / "scores_w4.txt"), "--config", str(config)]) == 2
    assert not (d / "scores_w4.txt").exists()

    meta, rows = read_scores(a)
    assert meta["tau"] == "0.5"  # picked up from the checkpoint
    assert meta["statistic"] == "fusion"
    assert "workers" not in meta
    assert len(rows) == 4 * 6
    assert {r.decision for r in rows} <= {"real", "fake"}


def test_score_statistic_flag_drives_decisions(pipeline):
    d = pipeline["dir"]
    out = str(d / "scores_video.txt")
    assert main(["score", "--checkpoint", pipeline["ckpt"], "--reference",
                 pipeline["ref"], "--test", pipeline["test"], "--out", out,
                 "--statistic", "video", "--p-fa", "0.2"]) == 0
    meta, rows = read_scores(out)
    threshold = float(meta["threshold"])
    for r in rows:
        assert r.decision == ("real" if r.norm_video >= threshold else "fake")


def test_evaluate_reports_groups_and_average(pipeline, capsys):
    d = pipeline["dir"]
    scores = str(d / "scores_eval.txt")
    report = str(d / "report.txt")
    assert main(["score", "--checkpoint", pipeline["ckpt"], "--reference",
                 pipeline["ref"], "--test", pipeline["test"], "--out", scores]) == 0
    assert main(["evaluate", "--scores", scores, "--out", report]) == 0
    shown = capsys.readouterr().out
    assert "auc (percent):" in shown and "AVG" in shown

    _, rows = read_report(report)
    groups = [r["group"] for r in rows if r["metric"] == "auc"]
    assert groups == ["v", "v+ai", "a+ai", "v+a+ai", "AVG"]
    metrics = sorted({r["metric"] for r in rows})
    assert metrics == ["accuracy", "auc", "pd_at_fa"]
    for r in rows:
        for stat in ("video", "audio", "av", "fusion"):
            assert r[stat] is None or 0.0 <= r[stat] <= 100.0


def test_evaluate_marks_single_class_metrics_undefined(pipeline, tmp_path):
    rows = [ScoreRow("f1", "p", 3, ManipFlags(is_fake=True, v=True), 1.0,
                     -3.0, -0.1, -2.0, -3.0, "fake"),
            ScoreRow("f2", "p", 3, ManipFlags(is_fake=True, v=True), 1.0,
                     -2.0, -0.2, -1.5, -2.0, "fake")]
    scores = str(tmp_path / "fakes_only.txt")
    write_scores(scores, rows, {})
    report = str(tmp_path / "report.txt")
    assert main(["evaluate", "--scores", scores, "--out", report]) == 0
    _, back = read_report(report)
    auc_row = next(r for r in back if r["metric"] == "auc" and r["group"] == "v")
    assert all(auc_row[s] is None for s in ("video", "audio", "av", "fusion"))
    acc_row = next(r for r in back if r["metric"] == "accuracy" and r["group"] == "v")
    assert acc_row["fusion"] == 100.0  # both fakes judged fake


def test_sweep_axes(pipeline):
    d = pipeline["dir"]
    out = str(d / "sweep.txt")
    base = ["sweep", "--checkpoint", pipeline["ckpt"], "--reference",
            pipeline["ref"], "--test", pipeline["test"], "--out", out]
    assert main(base + ["--axis", "test_length", "--values", "3,1"]) == 0
    meta, rows = read_sweep(out)
    assert [r["x"] for r in rows] == sorted(r["x"] for r in rows)
    assert all(r["axis"] == "test_length" for r in rows)
    assert {r["class"] for r in rows} <= {"all", "fr", "fs"}
    assert "ref_total" not in meta  # the budget is echoed only where it is read

    assert main(base + ["--axis", "ref_size", "--values", "2,3"]) == 0
    meta, rows = read_sweep(out)
    assert {r["x"] for r in rows} == {2, 3}
    assert "ref_total" not in meta

    assert main(base + ["--axis", "ref_variety", "--values", "1,3",
                        "--ref-total", "3"]) == 0
    meta, rows = read_sweep(out)
    assert {r["x"] for r in rows} == {1, 3}
    assert meta["ref_total"] == "3"

    # a budget one video cannot fill is a data problem, not a crash
    assert main(base + ["--axis", "ref_variety", "--values", "1",
                        "--ref-total", "9"]) == 3


def test_small_reference_warnings_take_one_line_each(pipeline, tmp_path, capsys):
    # every reference here has 3 videos / 9 segments
    base = ["--checkpoint", pipeline["ckpt"], "--reference", pipeline["ref"],
            "--test", pipeline["test"]]
    sweep = ["sweep", *base, "--out", str(tmp_path / "sweep.txt")]
    regime = "references are below the nominal 10-video / 100-segment regime"
    with warnings.catch_warnings():
        warnings.simplefilter("always", SmallReferenceWarning)
        assert main([*sweep, "--axis", "ref_size", "--values", "2,3"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"poif: warning: sweep ref_size={x}: 4 of 4 {regime}" for x in (2, 3)]
        assert main([*sweep, "--axis", "test_length", "--values", "1,2,3"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"poif: warning: sweep test_length: 4 of 4 {regime}"]
        # score keeps one warning per small reference
        assert main(["score", *base, "--out", str(tmp_path / "scores.txt")]) == 0
        err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    assert all(line.startswith("poif: warning: reference for 'id01") for line in err)


def test_out_of_range_settings_are_config_errors(pipeline, tmp_path, capsys):
    scores = str(tmp_path / "scores.txt")
    base = ["--checkpoint", pipeline["ckpt"], "--reference", pipeline["ref"],
            "--test", pipeline["test"]]
    assert main(["score", *base, "--out", scores]) == 0
    report = str(tmp_path / "report.txt")
    for p_fa in ("0", "1", "1.5", "-0.1"):
        assert main(["score", *base, "--out", scores, "--p-fa", p_fa]) == 2
        assert main(["evaluate", "--scores", scores, "--out", report,
                     "--p-fa", p_fa]) == 2
    for total in ("0", "-1"):
        assert main(["sweep", *base, "--out", str(tmp_path / "sweep.txt"),
                     "--axis", "ref_variety", "--values", "1",
                     "--ref-total", total]) == 2
    err = capsys.readouterr().err
    assert "false-alarm rate" in err and "ref_total" in err
    assert "data error" not in err
    # sweep values are settings too, refused before any input is read
    missing = str(tmp_path / "missing.txt")
    for values in ("0", "2,0", "3,-1"):
        for inputs in (base, ["--checkpoint", missing, "--reference", missing,
                              "--test", missing]):
            assert main(["sweep", *inputs, "--out", str(tmp_path / "sweep.txt"),
                         "--axis", "test_length", "--values", values]) == 2
    err = capsys.readouterr().err
    assert "sweep values must be integers >= 1" in err
    assert "not found" not in err and "data error" not in err


def test_resumed_training_bit_matches_full_run(pipeline, tmp_path):
    half = str(tmp_path / "half.ckpt")
    full = str(tmp_path / "full.ckpt")
    resumed = str(tmp_path / "resumed.ckpt")
    feats = pipeline["train_feats"]
    half_args = list(TRAIN_ARGS)
    half_args[half_args.index("6")] = "3"  # stop after 3 of the 6 batches
    assert main(["train", "--features", feats, "--out", half, *half_args]) == 0
    assert main(["train", "--features", feats, "--out", full, *TRAIN_ARGS]) == 0
    assert main(["train", "--features", feats, "--out", resumed,
                 "--resume", half, *TRAIN_ARGS]) == 0
    assert open(full, "rb").read() == open(resumed, "rb").read()


def test_resume_rejects_mismatched_settings(pipeline, tmp_path):
    out = str(tmp_path / "x.ckpt")
    mismatch = list(TRAIN_ARGS)
    mismatch[mismatch.index("0.5")] = "0.7"  # different tau
    assert main(["train", "--features", pipeline["train_feats"], "--out", out,
                 "--resume", pipeline["ckpt"], *mismatch]) == 2


def test_resume_rejects_impossible_step_counts(pipeline, tmp_path, capsys):
    lines = open(pipeline["ckpt"]).read().splitlines()
    assert lines[-1] == "steps_done,6"
    at_optim = next(i for i, line in enumerate(lines) if line.startswith("optim,6,"))
    n_arrays = lines[at_optim].split(",")[2]
    out = tmp_path / "out.ckpt"
    bad = tmp_path / "bad.ckpt"
    for edited, message in (
        (lines[:-1] + ["steps_done,-3"], f"negative steps_done -3 at line {len(lines)}"),
        (lines[:at_optim] + [f"optim,9,{n_arrays}"] + lines[at_optim + 1:],
         f"optim step 9 does not match steps_done 6 at line {len(lines)}"),
    ):
        bad.write_text("\n".join(edited) + "\n")
        assert main(["train", "--features", pipeline["train_feats"], "--out", str(out),
                     "--resume", str(bad), *TRAIN_ARGS]) == 3
        assert f"poif: data error: {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_config_file_layering(pipeline, tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("mode = train\nidentities = 6\nseed = 3\n"
                   "videos-per-identity = 3\nsegments_per_video = 2\n")
    out = str(tmp_path / "feats.txt")
    assert main(["synth", "--config", str(cfg), "--identities", "4",
                 "--out", out]) == 0
    meta, segments = read_features(out)
    assert meta["identities"] == "4"  # flag beats config file
    assert meta["videos_per_identity"] == "3"
    assert len(segments) == 4 * 3 * 2


def test_seed_fallback_via_environment(pipeline, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "feats.txt")
    args = ["synth", "--mode", "train", "--identities", "2",
            "--videos-per-identity", "2", "--segments-per-video", "2", "--out", out]
    monkeypatch.delenv("POIF_SEED", raising=False)
    assert main(args) == 2
    assert "seed" in capsys.readouterr().err

    monkeypatch.setenv("POIF_SEED", "11")
    assert main(args) == 0
    assert read_features(out)[0]["seed"] == "11"

    monkeypatch.setenv("POIF_SEED", "eleven")
    assert main(args) == 2


def test_missing_and_corrupt_inputs(pipeline, tmp_path, capsys):
    out = str(tmp_path / "o.txt")
    assert main(["train", "--features", str(tmp_path / "nope.txt"),
                 "--out", out, *TRAIN_ARGS]) == 2
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("POIF-FEAT,1,5,4,2\ngarbage\n")
    assert main(["train", "--features", str(corrupt), "--out", out,
                 *TRAIN_ARGS]) == 3
    assert main(["evaluate", "--scores", str(corrupt), "--out", out]) == 3
    ckpt_lines = open(pipeline["ckpt"]).read().splitlines()
    assert ckpt_lines[-1].startswith("steps_done,")
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_text("\n".join(ckpt_lines[:-1] + ["steps_done"]) + "\n")
    assert main(["score", "--checkpoint", str(truncated), "--reference", pipeline["ref"],
                 "--test", pipeline["test"], "--out", out]) == 3
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["synth", "--config", str(cfg), "--seed", "0", "--out", out]) == 2
    capsys.readouterr()


def test_degenerate_reference_exit_code(pipeline, tmp_path):
    # a zero-variance world: every reference self-score ties
    ref = str(tmp_path / "flat_ref.txt")
    test = str(tmp_path / "flat_test.txt")
    assert main(["synth", "--mode", "benchmark", "--identities", "2",
                 "--audio-dim", "5", "--video-dim", "4",
                 "--identity-scale", "0", "--video-bias-scale", "0",
                 "--segment-noise-scale", "0", "--segments-per-video", "2",
                 "--reference-videos", "2", "--real-videos", "2",
                 "--fakes-per-group", "1", "--seed", "4",
                 "--out-reference", ref, "--out-test", test]) == 0
    assert main(["score", "--checkpoint", pipeline["ckpt"], "--reference", ref,
                 "--test", test, "--out", str(tmp_path / "s.txt")]) == 4


def test_score_requires_tau_from_somewhere(pipeline, tmp_path):
    bare = str(tmp_path / "bare.ckpt")
    params = init_encoder(5, 4, EncoderConfig(1, 8, 3), 0)
    write_checkpoint(bare, params, {"note": "no tau recorded"})
    assert main(["score", "--checkpoint", bare, "--reference", pipeline["ref"],
                 "--test", pipeline["test"],
                 "--out", str(tmp_path / "s.txt")]) == 2
    # explicit flag fills the gap
    assert main(["score", "--checkpoint", bare, "--reference", pipeline["ref"],
                 "--test", pipeline["test"], "--tau", "0.5",
                 "--out", str(tmp_path / "s.txt")]) == 0


def test_bad_flag_values_exit_via_argparse(pipeline, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["score", "--checkpoint", pipeline["ckpt"], "--reference",
              pipeline["ref"], "--test", pipeline["test"],
              "--out", str(tmp_path / "s.txt"), "--statistic", "fused"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["sweep", "--values", "ten"])


def test_synth_benchmark_rejects_identity_overlap(pipeline, tmp_path):
    # identity_start 0 collides with the training identities
    assert main(["synth", "--mode", "benchmark", "--identities", "2",
                 "--audio-dim", "5", "--video-dim", "4", "--identity-start", "0",
                 "--seed", "9", "--train-features", pipeline["train_feats"],
                 "--out-reference", str(tmp_path / "r.txt"),
                 "--out-test", str(tmp_path / "t.txt")]) == 3


@pytest.mark.parametrize("flag, value", [
    ("--real-videos", "0"), ("--real-videos", "-1"),
    ("--segments-per-video", "0"), ("--reference-videos", "0"),
])
def test_synth_benchmark_refuses_counts_below_one(tmp_path, capsys, flag, value):
    ref, test = tmp_path / "r.txt", tmp_path / "t.txt"
    assert main(["synth", "--mode", "benchmark", "--identities", "3", "--seed", "9",
                 flag, value, "--out-reference", str(ref), "--out-test", str(test)]) == 2
    setting = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"poif: config error: {setting} must be >= 1, got {value}\n")
    assert not ref.exists() and not test.exists()


# Runs the README commands in one fresh interpreter and reports whether
# numpy.ma was imported: numpy imports it lazily, at 13-16 ms, on the first
# np.unique call without a return_* flag.
NO_MASKED_ARRAYS = """
import sys
from poif.cli import main

small = ["--audio-dim", "5", "--video-dim", "4"]
scored = ["--checkpoint", "enc.ckpt", "--reference", "ref.txt", "--test", "test.txt"]
for argv in (
    ["synth", "--mode", "train", "--identities", "6", "--videos-per-identity", "4",
     "--segments-per-video", "2", "--seed", "3", "--out", "train.txt", *small],
    ["train", "--features", "train.txt", "--out", "enc.ckpt", "--log", "log.txt",
     "--seed", "1", "--tau", "0.5", "--epochs", "1", "--batches-per-epoch", "3",
     "--identities-per-batch", "3", "--segments-per-identity", "2",
     "--hidden-layers", "1", "--hidden-width", "8", "--embedding-dim", "3"],
    ["synth", "--mode", "benchmark", "--identities", "4", "--segments-per-video", "3",
     "--reference-videos", "3", "--real-videos", "2", "--fakes-per-group", "1",
     "--seed", "9", "--identity-start", "100", "--train-features", "train.txt",
     "--out-reference", "ref.txt", "--out-test", "test.txt", *small],
    ["score", *scored, "--out", "scores.txt"],
    ["evaluate", "--scores", "scores.txt", "--out", "report.txt"],
    ["sweep", *scored, "--axis", "test_length", "--values", "1,3", "--out", "sweep.txt"],
):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_no_command_imports_masked_arrays(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
