import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from poif import cli
from poif.cli import main
from poif.scoring import SmallReferenceWarning

# tiny references are the point of these fixtures
pytestmark = pytest.mark.filterwarnings("ignore::poif.scoring.SmallReferenceWarning")
import numpy as np

from conftest import encoders_only
from poif.fileio import (
    read_checkpoint,
    read_features,
    read_report,
    read_score_table,
    read_scores,
    read_sweep,
    write_checkpoint,
    write_features,
    write_scores,
)
from poif.records import STATISTICS, ScoreTable

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
    # the six payload lines are numbered by step, from 1
    assert [line.split(",")[0] for line in log[-6:]] == ["1", "2", "3", "4", "5", "6"]


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
    # the columns written are the columns read: the same bytes come back
    again = str(d / "scores_again.txt")
    meta, table = read_score_table(a)
    write_scores(again, table, meta)
    assert open(again, "rb").read() == bytes_a


def test_empty_video_id_in_test_file_fails_before_scoring(pipeline, tmp_path, capsys):
    lines = open(pipeline["test"]).read().splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith(("POIF", "#")))
    fields = lines[at].split(",")
    fields[1] = ""
    bad = tmp_path / "test.txt"
    bad.write_text("\n".join(lines[:at] + [",".join(fields)] + lines[at + 1:]) + "\n")
    out = tmp_path / "scores.txt"
    assert main(["score", "--checkpoint", pipeline["ckpt"], "--reference", pipeline["ref"],
                 "--test", str(bad), "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        f"poif: data error: {bad}: video_id must be non-empty at line {at + 1}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("statistic", STATISTICS)
def test_score_and_sweep_take_every_statistic_name(pipeline, tmp_path, statistic):
    inputs = ["--checkpoint", pipeline["ckpt"], "--reference", pipeline["ref"],
              "--test", pipeline["test"], "--statistic", statistic]
    scores = str(tmp_path / "scores.txt")
    assert main(["score", *inputs, "--out", scores]) == 0
    meta, table = read_score_table(scores)
    assert meta["statistic"] == statistic
    threshold = float(meta["threshold"])
    assert table.fake.tolist() == (table.statistic(statistic) < threshold).tolist()
    sweep = str(tmp_path / "sweep.txt")
    assert main(["sweep", *inputs, "--axis", "test_length", "--values", "1,3",
                 "--out", sweep]) == 0
    assert read_sweep(sweep)[0]["statistic"] == statistic


@pytest.mark.parametrize("command, extra", [
    ("score", []), ("sweep", ["--axis", "test_length", "--values", "1"])])
def test_the_score_column_name_fused_is_no_statistic(pipeline, tmp_path, command, extra):
    with pytest.raises(SystemExit) as err:
        main([command, "--checkpoint", pipeline["ckpt"], "--reference", pipeline["ref"],
              "--test", pipeline["test"], *extra, "--out", str(tmp_path / "out.txt"),
              "--statistic", "fused"])
    assert err.value.code == 2
    assert not (tmp_path / "out.txt").exists()


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
    fakes = ScoreTable(
        video_ids=np.array(["f1", "f2"]), identity_ids=np.array(["p", "p"]),
        n_segments=np.array([3, 3]), flags=np.array([[True, True, False, False]] * 2),
        blend=np.array([1.0, 1.0]),
        statistics=np.array([[-3.0, -2.0], [-0.1, -0.2], [-2.0, -1.5],
                             [-3.0, -2.0]]),  # video, audio, av, fusion
        fake=np.array([True, True]))
    scores = str(tmp_path / "fakes_only.txt")
    write_scores(scores, fakes, {})
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


def test_only_claimed_persons_are_calibrated(pipeline, tmp_path, capsys):
    lines = open(pipeline["ref"]).read().splitlines()
    head = [line for line in lines if line.startswith(("POIF", "#"))]
    rows = lines[len(head):]
    first = rows[0].split(",")[1]
    # one more person, with one reference video: too few to calibrate
    extra = ["id0999,id0999_r000," + row.split(",", 2)[2]
             for row in rows if row.split(",")[1] == first]

    def reference(name, kept):
        path = tmp_path / name
        path.write_text("\n".join([",".join(head[0].split(",")[:-1] + [str(len(kept))]),
                                   *head[1:], *kept]) + "\n")
        return str(path)

    plus = reference("ref_plus.txt", rows + extra)
    model = ["--checkpoint", pipeline["ckpt"]]
    assert main(["score", *model, "--reference", plus, "--test", plus,
                 "--out", str(tmp_path / "claimed.txt")]) == 3
    assert "reference for 'id0999' needs at least 2 distinct videos" in capsys.readouterr().err
    for command in (["score"], ["sweep", "--axis", "ref_size", "--values", "2,3"]):
        written = []
        for ref in (pipeline["ref"], plus):
            out = tmp_path / f"out_{len(written)}.txt"
            assert main([*command, *model, "--reference", ref, "--test", pipeline["test"],
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        # a claimed person without reference rows is still a data error
        only = reference("ref_only.txt", [row for row in rows if row.startswith("id0100,")])
        assert main([*command, *model, "--reference", only, "--test", pipeline["test"],
                     "--out", str(out)]) == 3
        assert "no reference material for: id0101, id0102, id0103" in \
            capsys.readouterr().err
        unclaimed = reference("ref_unclaimed.txt", extra)
        assert main([*command, *model, "--reference", unclaimed, "--test", pipeline["test"],
                     "--out", str(out)]) == 3
        assert "no reference material for: id0100, id0101, id0102, id0103" in \
            capsys.readouterr().err
        assert main([*command, *model, "--reference", plus, "--test",
                     reference("test_empty.txt", []), "--out", str(out)]) == 3
        assert "poif: data error: empty test set" in capsys.readouterr().err


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
    out = tmp_path / "out.txt"
    inputs = {
        "train": ["--features", missing, "--seed", "1"],
        "score": ["--checkpoint", missing, "--reference", missing, "--test", missing],
        "evaluate": ["--scores", missing],
        "sweep": ["--checkpoint", missing, "--reference", missing, "--test", missing,
                  "--axis", "test_length", "--values", "1"],
        "synth": ["--seed", "1"],
    }
    # out-of-range settings are named before any input is read
    for command, setting, expects in (
            *(("score", ["--p-fa", p_fa], "false-alarm rate") for p_fa in ("0", "1")),
            *(("evaluate", ["--p-fa", p_fa], "false-alarm rate") for p_fa in ("0", "1")),
            ("score", ["--tau", "-1"], "temperature must be positive"),
            ("sweep", ["--tau", "-1"], "temperature must be positive"),
            ("train", ["--tau", "-1"], "temperature must be positive"),
            ("train", ["--lambda", "-1"], "joint loss weight must be non-negative"),
            ("train", ["--lr", "0"], "learning_rate must be positive"),
            ("train", ["--identities-per-batch", "1"], "identities_per_batch must be >= 2")):
        assert main([command, *inputs[command], "--out", str(out), *setting]) == 2
        err = capsys.readouterr().err
        assert expects in err and "not found" not in err, err
        assert not out.exists()
    # non-finite numbers, from a flag or a config file, before any input is read
    config = tmp_path / "bad.cfg"
    for command, key, value in (
            ("train", "tau", "inf"), ("train", "epsilon", "inf"), ("train", "lr", "inf"),
            ("train", "lambda", "inf"), ("train", "lambda", "nan"),
            ("train", "weight-decay", "inf"), ("train", "weight-decay", "nan"),
            ("score", "tau", "inf"), ("sweep", "tau", "inf"),
            ("synth", "identity-scale", "nan"), ("synth", "segment-noise-scale", "inf"),
            ("synth", "betas", "1,nan")):
        args = [command, *inputs[command], "--out", str(out)]
        with pytest.raises(SystemExit) as refused:
            main([*args, f"--{key}", value])
        assert refused.value.code == 2
        assert f"argument --{key}: invalid " in capsys.readouterr().err
        config.write_text(f"{key} = {value}\n")
        assert main([*args, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"expected a finite number, got '{value.split(',')[-1]}'" in err, err
        assert "not found" not in err
        assert not out.exists()


@pytest.mark.parametrize("command,key,value,expects", [
    ("synth", "betas", "1,nan", "invalid finite list value: '1,nan'"),
    ("sweep", "values", "1,x", "invalid integer list value: '1,x'"),
    ("score", "statistic", "bogus", "invalid choice: 'bogus' (choose from"),
], ids=["synth-betas", "sweep-values", "score-statistic"])
def test_flag_errors_say_what_the_flag_expects(tmp_path, capsys, command, key, value, expects):
    missing = str(tmp_path / "missing.txt")
    inputs = {
        "synth": ["--seed", "1"],
        "score": ["--checkpoint", missing, "--reference", missing, "--test", missing],
        "sweep": ["--checkpoint", missing, "--reference", missing, "--test", missing,
                  "--axis", "test_length"],
    }
    args = [command, *inputs[command], "--out", str(tmp_path / "out.txt")]
    with pytest.raises(SystemExit) as refused:
        main([*args, f"--{key}", value])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --{key}: {expects}" in err, err
    # argparse names a converter by its __name__; no private function may show
    assert "invalid _" not in err and "convert" not in err, err
    # the config-file path keeps its own message
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main([*args, "--config", str(config)]) == 2
    assert f"bad config value {key}={value!r}" in capsys.readouterr().err


def test_resumed_training_bit_matches_full_run(pipeline, tmp_path):
    half = str(tmp_path / "half.ckpt")
    full = str(tmp_path / "full.ckpt")
    resumed = str(tmp_path / "resumed.ckpt")
    feats = pipeline["train_feats"]
    half_args = list(TRAIN_ARGS)
    half_args[half_args.index("6")] = "3"  # stop after 3 of the 6 batches
    full_log = tmp_path / "full_log.txt"
    resumed_log = tmp_path / "resumed_log.txt"
    assert main(["train", "--features", feats, "--out", half, *half_args]) == 0
    assert main(["train", "--features", feats, "--out", full, "--log", str(full_log),
                 *TRAIN_ARGS]) == 0
    assert main(["train", "--features", feats, "--out", resumed,
                 "--resume", half, "--log", str(resumed_log), *TRAIN_ARGS]) == 0
    assert open(full, "rb").read() == open(resumed, "rb").read()
    # the resumed log holds steps 4 to 6, numbered and valued as in the full run
    full_lines = full_log.read_text().splitlines()
    resumed_lines = resumed_log.read_text().splitlines()
    assert resumed_lines[0].startswith("POIF-LOG,1,3")
    assert [line.split(",")[0] for line in resumed_lines[-3:]] == ["4", "5", "6"]
    assert resumed_lines[-3:] == full_lines[-3:]


def test_resuming_a_finished_run_gives_its_bytes(pipeline, tmp_path, capsys):
    """A complete checkpoint resumed at its own budget takes no step and
    writes the same checkpoint, its final loss included."""
    again = tmp_path / "again.ckpt"
    log = tmp_path / "log.txt"
    assert main(["train", "--features", pipeline["train_feats"], "--out", str(again),
                 "--resume", pipeline["ckpt"], "--log", str(log), *TRAIN_ARGS]) == 0
    assert again.read_bytes() == open(pipeline["ckpt"], "rb").read()
    final_loss = read_checkpoint(pipeline["ckpt"]).meta["final_loss"]
    assert f"(6 steps, final loss {final_loss})" in capsys.readouterr().out
    assert log.read_text().splitlines()[0] == "POIF-LOG,1,0"


def test_resume_rejects_mismatched_settings(pipeline, tmp_path):
    out = str(tmp_path / "x.ckpt")
    mismatch = list(TRAIN_ARGS)
    mismatch[mismatch.index("0.5")] = "0.7"  # different tau
    assert main(["train", "--features", pipeline["train_feats"], "--out", out,
                 "--resume", pipeline["ckpt"], *mismatch]) == 2


def test_resume_of_encoders_alone_is_a_config_error(pipeline, tmp_path, capsys):
    """A checkpoint cut after its encoder sections scores, but cannot continue a run."""
    lines = open(pipeline["ckpt"]).read().splitlines()
    bare = tmp_path / "bare.ckpt"
    bare.write_text("\n".join(encoders_only(lines)) + "\n")
    out = tmp_path / "out.ckpt"
    assert main(["train", "--features", pipeline["train_feats"], "--out", str(out),
                 "--resume", str(bare), *TRAIN_ARGS]) == 2
    assert f"poif: config error: checkpoint {bare} carries no resume state" in \
        capsys.readouterr().err
    assert not out.exists()


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
    scoring = ["--reference", pipeline["ref"], "--test", pipeline["test"], "--out", out]
    # resuming reads the whole checkpoint; scoring reads its settings and
    # encoders only, and names the bad line of those
    assert main(["train", "--features", pipeline["train_feats"], "--resume", str(truncated),
                 "--out", out, *TRAIN_ARGS]) == 3
    assert f"{truncated}: malformed steps_done line at line {len(ckpt_lines)}" in \
        capsys.readouterr().err
    assert main(["score", "--checkpoint", str(truncated), *scoring]) == 0
    weights = [i for i, line in enumerate(ckpt_lines) if line.startswith("w,")]
    ckpt_lines[weights[-1]] += ",0.5"
    truncated.write_text("\n".join(ckpt_lines) + "\n")
    for command in (["score"], ["sweep", "--axis", "test_length", "--values", "1"]):
        assert main([*command, "--checkpoint", str(truncated), *scoring]) == 3
        assert f"{truncated}: expected 8 values, found 9 at line {weights[-1] + 1}" in \
            capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["synth", "--config", str(cfg), "--seed", "0", "--out", out]) == 2
    capsys.readouterr()
    # a non-ASCII byte: a data error in an input file, a config error in a config file
    corrupt.write_bytes(b"POIF-FEAT,1,5,4,2\n# note=caf\xc3\xa9\n")
    for command in (["train", "--features", str(corrupt), "--out", out, *TRAIN_ARGS],
                    ["evaluate", "--scores", str(corrupt), "--out", out]):
        assert main(command) == 3
        assert f"poif: data error: {corrupt}: non-ASCII byte at line 2\n" in \
            capsys.readouterr().err
    cfg.write_bytes(b"# caf\xc3\xa9\nseed = 0\n")
    assert main(["synth", "--config", str(cfg), "--out", out]) == 2
    assert f"poif: config error: {cfg}:1: non-ASCII byte\n" in capsys.readouterr().err


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
    write_checkpoint(bare, read_checkpoint(pipeline["ckpt"]).state, {"note": "no tau recorded"})
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


@pytest.mark.parametrize("flag, value, message", [
    ("--fakes-per-group", "-1", "group 'v' has negative count -1"),
    ("--betas", "1.5", "betas must lie in [0, 1], got [1.5]"),
    ("--betas", "0.4,-0.5", "betas must lie in [0, 1], got [0.4, -0.5]"),
    ("--identities", "1", "fakes need at least 2 identities to draw donors from"),
], ids=["negative-count", "beta-above-one", "beta-below-zero", "one-identity"])
def test_synth_benchmark_refuses_bad_group_settings(tmp_path, capsys, flag, value, message):
    ref, test = tmp_path / "r.txt", tmp_path / "t.txt"
    assert main(["synth", "--mode", "benchmark", "--identities", "3", "--seed", "9",
                 flag, value, "--out-reference", str(ref), "--out-test", str(test)]) == 2
    assert capsys.readouterr().err == f"poif: config error: {message}\n"
    assert not ref.exists() and not test.exists()


SMALL_TRAIN = ["synth", "--mode", "train", "--identities", "2", "--videos-per-identity", "2",
               "--segments-per-video", "2", "--seed", "3"]
BENCH = ["synth", "--mode", "benchmark", "--identities", "3", "--seed", "9"]
SCORED = ["--checkpoint", "{ckpt}", "--reference", "{ref}", "--test", "{test}"]
UNSCORED = ["--checkpoint", "{missing}", "--reference", "{missing}", "--test", "{missing}"]


@pytest.mark.parametrize("argv, code, message", [
    # a setting is named before a missing input is
    ([*BENCH, "--train-features", "{missing}", "--out-reference", "{out}/r.txt",
      "--out-test", "{out}/t.txt", "--fakes-per-group", "-1"], 2,
     "group 'v' has negative count -1"),
    ([*BENCH, "--train-features", "{missing}", "--out-reference", "{out}/r.txt",
      "--out-test", "{out}/t.txt", "--betas", "1.5"], 2, "betas must lie in [0, 1], got [1.5]"),
    ([*BENCH, "--train-features", "{missing}", "--out-reference", "{out}/r.txt",
      "--out-test", "{out}/t.txt", "--reference-videos", "0"], 2,
     "reference_videos must be >= 1, got 0"),
    (["score", *UNSCORED], 2, "missing required setting: pass --out or set out in the config"),
    (["sweep", *UNSCORED, "--values", "1", "--out", "{out}/w.txt"], 2,
     "missing required setting: pass --axis or set axis in the config"),
    # an output in a missing directory is refused before any input is read
    (["train", "--features", "{feats}", "--out", "{nodir}/e.ckpt", *TRAIN_ARGS], 2,
     "directory not found for out: {nodir}/e.ckpt"),
    (["train", "--features", "{feats}", "--out", "{out}/e.ckpt", "--log", "{nodir}/log.txt",
      *TRAIN_ARGS], 2, "directory not found for log: {nodir}/log.txt"),
    ([*SMALL_TRAIN, "--out", "{nodir}/x"], 2, "directory not found for out: {nodir}/x"),
    ([*BENCH, "--out-reference", "{out}/r.txt", "--out-test", "{nodir}/t.txt"], 2,
     "directory not found for out_test: {nodir}/t.txt"),
    (["score", *SCORED, "--out", "{nodir}/s.txt"], 2, "directory not found for out: {nodir}/s.txt"),
    (["evaluate", "--scores", "{scores}", "--out", "{nodir}/r.txt"], 2,
     "directory not found for out: {nodir}/r.txt"),
    (["sweep", *SCORED, "--axis", "test_length", "--values", "1", "--out", "{nodir}/w.txt"], 2,
     "directory not found for out: {nodir}/w.txt"),
    # settings a mode never reads are never checked
    ([*SMALL_TRAIN, "--train-features", "{missing}", "--betas", "1.5", "--out", "{out}/x"], 0,
     None),
], ids=["synth-count", "synth-betas", "synth-reference-videos", "score-no-out", "sweep-no-axis",
        "train-out", "train-log", "synth-out", "synth-out-test", "score-out", "evaluate-out",
        "sweep-out", "synth-unread"])
def test_settings_and_paths_are_checked_before_any_input_is_read(
        pipeline, tmp_path, capsys, monkeypatch, argv, code, message):
    out = tmp_path / "out"
    out.mkdir()
    names = {"missing": str(tmp_path / "missing.txt"), "nodir": str(tmp_path / "nodir"),
             "out": str(out), "feats": pipeline["train_feats"], "ckpt": pipeline["ckpt"],
             "ref": pipeline["ref"], "test": pipeline["test"],
             "scores": str(tmp_path / "scores.txt")}

    def filled(args):
        return [arg.format(**names) for arg in args]

    if "{scores}" in argv:
        assert main(filled(["score", *SCORED, "--out", "{scores}"])) == 0
        capsys.readouterr()
    if code:
        def refuse_read(path, *rest):
            raise AssertionError(f"read {path}")
        for reader in ("read_feature_table", "read_encoders", "read_checkpoint",
                       "read_score_table"):
            monkeypatch.setattr(f"poif.fileio.{reader}", refuse_read)
    assert main(filled(argv)) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"poif: config error: {message.format(**names)}\n"
        assert list(out.iterdir()) == []  # no output and no temporary file
    else:
        assert err == "" and [p.name for p in out.iterdir()] == ["x"]
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("argv, unread", [
    ([*SMALL_TRAIN, "--out", "{d}/a.txt"], ["--betas", "0.3", "--real-videos", "9"]),
    ([*BENCH, "--out-reference", "{d}/a.txt", "--out-test", "{d}/b.txt"],
     ["--videos-per-identity", "3"]),
], ids=["train", "benchmark"])
def test_synth_headers_echo_only_what_the_mode_reads(tmp_path, argv, unread):
    written = []
    for name, extra in (("plain", []), ("unread", unread)):
        d = tmp_path / name
        d.mkdir()
        assert main([arg.format(d=d) for arg in argv] + extra) == 0
        written.append({p.name: p.read_bytes() for p in d.iterdir()})
    assert written[0] == written[1]


# Every OUTPUT setting of the five commands, named by "{adir}", an existing
# directory: (argv, command, setting).
DIRECTORY_OUTPUTS = {
    "synth-out": ([*SMALL_TRAIN, "--out", "{adir}"], "synth", "out"),
    "synth-out-reference": ([*BENCH, "--out-reference", "{adir}", "--out-test", "{out}/t.txt"],
                            "synth", "out_reference"),
    "synth-out-test": ([*BENCH, "--out-reference", "{out}/r.txt", "--out-test", "{adir}"],
                       "synth", "out_test"),
    "train-out": (["train", "--features", "{feats}", "--out", "{adir}", *TRAIN_ARGS],
                  "train", "out"),
    "train-log": (["train", "--features", "{feats}", "--out", "{out}/e.ckpt", "--log", "{adir}",
                   *TRAIN_ARGS], "train", "log"),
    "score-out": (["score", *SCORED, "--out", "{adir}"], "score", "out"),
    "evaluate-out": (["evaluate", "--scores", "{scores}", "--out", "{adir}"], "evaluate", "out"),
    "sweep-out": (["sweep", *SCORED, "--axis", "test_length", "--values", "1", "--out", "{adir}"],
                  "sweep", "out"),
}


def test_directory_outputs_cover_every_output_setting():
    specs = {"synth": cli._SYNTH_SPEC, "train": cli._TRAIN_SPEC, "score": cli._SCORE_SPEC,
             "evaluate": cli._EVALUATE_SPEC, "sweep": cli._SWEEP_SPEC}
    outputs = {(command, key) for command, spec in specs.items()
               for key, entry in spec.items() if entry[2:] == (cli.OUTPUT,)}
    assert {(command, key) for _, command, key in DIRECTORY_OUTPUTS.values()} == outputs


@pytest.mark.parametrize("case", sorted(DIRECTORY_OUTPUTS))
def test_an_output_that_names_a_directory_is_refused_before_any_input_is_read(
        pipeline, tmp_path, capsys, monkeypatch, case):
    argv, _, key = DIRECTORY_OUTPUTS[case]
    out, adir = tmp_path / "out", tmp_path / "adir"
    out.mkdir()
    adir.mkdir()
    names = {"out": str(out), "adir": str(adir), "feats": pipeline["train_feats"],
             "ckpt": pipeline["ckpt"], "ref": pipeline["ref"], "test": pipeline["test"],
             "scores": str(tmp_path / "scores.txt")}

    def filled(args):
        return [arg.format(**names) for arg in args]

    made = {"out", "adir"}
    if "{scores}" in argv:
        assert main(filled(["score", *SCORED, "--out", "{scores}"])) == 0
        capsys.readouterr()
        made.add("scores.txt")

    def refuse_read(path, *rest):
        raise AssertionError(f"read {path}")
    for reader in ("read_feature_table", "read_encoders", "read_checkpoint", "read_score_table"):
        monkeypatch.setattr(f"poif.fileio.{reader}", refuse_read)
    assert main(filled(argv)) == 2
    assert capsys.readouterr().err == f"poif: config error: {key} names a directory: {adir}\n"
    # no output and no temporary file, in the directory or beside it
    assert list(out.iterdir()) == [] and list(adir.iterdir()) == []
    assert {p.name for p in tmp_path.iterdir()} == made


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
