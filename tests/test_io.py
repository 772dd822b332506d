import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_tables_equal
from poif import fileio
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError
from poif.fileio import (
    ScoreRow,
    parse_config_file,
    read_checkpoint,
    read_feature_table,
    read_features,
    read_report,
    read_scores,
    read_sweep,
    write_checkpoint,
    write_features,
    write_report,
    write_scores,
    write_sweep,
    write_train_log,
)
from poif.losses import LossReport
from poif.optim import flatten_params, init_optim_state
from poif.records import ManipFlags, SegmentRecord, SegmentTable
from poif.synthgen import WorldConfig, generate_world
from poif.training import TrainStep


def some_segments():
    """A small world's table whose last row is a fake of its own video."""
    world = generate_world(WorldConfig(
        n_identities=2, n_videos_per_identity=2, n_segments_per_video=2,
        audio_dim=3, video_dim=4, seed=5))
    records = world.segments.to_records()
    records[-1] = SegmentRecord(
        identity_id=records[-1].identity_id, video_id="faked",
        segment_index=0, audio=records[-1].audio * np.pi,
        video=records[-1].video / 3.0,
        flags=ManipFlags(is_fake=True, v=True, ai=True), blend=0.4,
    )
    return SegmentTable.from_records(records)


def test_features_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "feat.txt")
    segments = some_segments().to_records()
    write_features(path, some_segments(), {"seed": "5", "note": "x y z"})
    meta, back = read_features(path)
    assert meta == {"seed": "5", "note": "x y z"}
    assert len(back) == len(segments)
    for a, b in zip(segments, back):
        assert a.key == b.key
        assert a.flags == b.flags
        assert a.blend == b.blend
        np.testing.assert_array_equal(a.audio, b.audio)
        np.testing.assert_array_equal(a.video, b.video)


def test_feature_writer_refuses_empty_and_bad_ids(tmp_path):
    path = str(tmp_path / "feat.txt")
    with pytest.raises(DataError):
        write_features(path, some_segments().take([]), {})
    seg = some_segments().to_records()[0]
    for identity_id, video_id in (("a,b", "v"), ("a", "")):
        bad = SegmentRecord(identity_id=identity_id, video_id=video_id, segment_index=0,
                            audio=seg.audio, video=seg.video)
        with pytest.raises(DataError):
            write_features(path, SegmentTable.from_records([bad]), {})
    assert list(tmp_path.iterdir()) == []
    # lines are written as they are made: a bad last row removes the
    # temporary file and leaves an earlier file at the path as it was
    open(path, "w").write("earlier\n")
    ids = some_segments().video_ids.astype(object)
    ids[-1] = "a,b"
    with pytest.raises(DataError, match="video_id must be non-empty and comma-free"):
        write_features(path, replace(some_segments(), video_ids=ids.astype(str)), {})
    assert [p.name for p in tmp_path.iterdir()] == ["feat.txt"]
    assert open(path).read() == "earlier\n"


def test_reader_accepts_header_only_file(tmp_path):
    # a scored run over an empty test set still writes a valid file
    path = tmp_path / "empty.txt"
    path.write_text("POIF-FEAT,1,3,4,0\n# seed=1\n")
    meta, segments = read_features(str(path))
    assert meta == {"seed": "1"}
    assert segments == []


def test_reader_rejects_corruption(tmp_path):
    good = tmp_path / "ok.txt"
    write_features(str(good), some_segments(), {})
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad.txt"
    bad.write_text("POIF-XXXX,1,3,4,0\n")
    with pytest.raises(DataError):
        read_features(str(bad))
    bad.write_text("POIF-FEAT,9,3,4,0\n")
    with pytest.raises(DataError):
        read_features(str(bad))
    bad.write_text("\n".join(lines[:-1]) + "\n")  # truncated payload
    with pytest.raises(DataError):
        read_features(str(bad))
    bad.write_text("\n".join(lines + [lines[-1]]) + "\n")  # trailing row
    with pytest.raises(DataError):
        read_features(str(bad))
    fields = lines[-1].split(",")
    fields[8] = "oops"
    bad.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    with pytest.raises(DataError):
        read_features(str(bad))


def _set_fields(row, changes):
    """Edit one payload row (0-based) of a feature file's lines: {field: value}."""
    def edit(lines):
        fields = lines[2 + row].split(",")  # header and one meta line come first
        for i, value in changes.items():
            fields[i] = value
        lines[2 + row] = ",".join(fields)
        return lines
    return edit


# Each case corrupts a valid 8-row file (3 audio, 4 video dims; rows on
# lines 3-10) and names the message and line a field-by-field reader gives.
READER_ERRORS = {
    "field_count": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:],
                    "expected 15 fields, found 14", 5),
    "bad_int": (_set_fields(2, {2: "two"}), "malformed segment row", 5),
    "bad_float": (_set_fields(2, {9: "oops"}), "unparseable float", 5),
    "non_finite": (_set_fields(2, {12: "nan"}), "non-finite value", 5),
    "flag_not_0_or_1": (_set_fields(2, {3: "2"}), "manipulation flags must be 0 or 1", 5),
    "pristine_with_flags": (_set_fields(2, {4: "1"}),
                            "pristine segment cannot carry manipulation flags", 5),
    "invalid_combination": (_set_fields(2, {3: "1", 4: "0", 5: "1", 6: "0"}),
                            "unsupported manipulation flag combination v=False a=True "
                            "ai=False", 5),
    "negative_segment_index": (_set_fields(2, {2: "-1"}),
                               "segment_index must be non-negative, got -1", 5),
    "blend_out_of_range": (_set_fields(2, {7: "1.5"}), "blend must lie in [0, 1], got 1.5", 5),
    "truncated_payload": (lambda ls: ls[:-1], "truncated file", 10),
    "trailing_row": (lambda ls: ls + [ls[-1]], "trailing data after last segment", 11),
    # the first bad row wins, and inside a row the first field read
    "earlier_row_first": (lambda ls: _set_fields(3, {2: "x"})(_set_fields(2, {12: "inf"})(ls)),
                          "non-finite value", 5),
    "later_check_earlier_row": (lambda ls: _set_fields(2, {2: "x"})(
        _set_fields(1, {7: "-0.5"})(ls)), "blend must lie in [0, 1], got -0.5", 4),
    "non_finite_before_unparseable": (_set_fields(2, {9: "inf", 12: "oops"}),
                                      "non-finite value", 5),
}


@pytest.mark.parametrize("case", sorted(READER_ERRORS))
def test_feature_readers_name_path_and_line(tmp_path, case):
    good = tmp_path / "ok.txt"
    write_features(str(good), some_segments(), {"seed": "5"})
    edit, message, line = READER_ERRORS[case]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    want = rf"^{re.escape(f'{bad}: {message} at line {line}')}$"
    for reader in (read_feature_table, read_features):
        with pytest.raises(DataError, match=want):
            reader(str(bad))


def test_feature_table_columns(tmp_path):
    path = str(tmp_path / "feat.txt")
    segments = some_segments()
    write_features(path, segments, {})
    _, table = read_feature_table(path)
    assert_tables_equal(table, segments)
    assert table.audio.flags.c_contiguous and table.video.flags.c_contiguous


def test_meta_lines_sorted_and_validated(tmp_path):
    path = str(tmp_path / "feat.txt")
    write_features(path, some_segments(), {"zebra": "1", "alpha": "2"})
    lines = open(path).read().splitlines()
    assert lines[1] == "# alpha=2"
    assert lines[2] == "# zebra=1"
    with pytest.raises(ValueError):
        write_features(path, some_segments(), {"a=b": "1"})


def test_checkpoint_round_trip_weights_only(tmp_path):
    path = str(tmp_path / "c.ckpt")
    params = init_encoder(3, 4, EncoderConfig(2, 6, 5), 11)
    write_checkpoint(path, params, {"tau": "0.5"})
    ckpt = read_checkpoint(path)
    assert ckpt.meta["tau"] == "0.5"
    assert not ckpt.can_resume
    for a, b in zip(flatten_params(params), flatten_params(ckpt.params)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_round_trip_with_resume_state(tmp_path):
    path = str(tmp_path / "c.ckpt")
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), 2)
    state = init_optim_state(params)
    state.m = [np.full_like(a, 0.25) for a in state.m]
    rng = np.random.default_rng(77)
    rng.standard_normal(5)
    rng_state = rng.bit_generator.state
    write_checkpoint(path, params, {}, optim_step=13, optim_m=state.m,
                     optim_v=state.v, rng_state=rng_state, steps_done=13)
    ckpt = read_checkpoint(path)
    assert ckpt.can_resume
    assert ckpt.optim_step == 13 and ckpt.steps_done == 13
    for a, b in zip(state.m, ckpt.optim_m):
        np.testing.assert_array_equal(a, b)
    assert ckpt.rng_state == rng_state
    restored = np.random.default_rng(0)
    restored.bit_generator.state = ckpt.rng_state
    np.testing.assert_array_equal(restored.standard_normal(3),
                                  np.random.default_rng(77).standard_normal(8)[5:])


def test_checkpoint_reader_reports_malformed_integers(tmp_path):
    good = tmp_path / "c.ckpt"
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), 2)
    state = init_optim_state(params)
    write_checkpoint(str(good), params, {}, optim_step=3, optim_m=state.m,
                     optim_v=state.v, rng_state=np.random.default_rng(1).bit_generator.state,
                     steps_done=3)
    lines = good.read_text().splitlines()
    assert lines[-1] == "steps_done,3"
    bad = tmp_path / "bad.ckpt"

    bad.write_text("\n".join(lines[:-1] + ["steps_done"]) + "\n")
    with pytest.raises(DataError, match=rf"{bad}: malformed steps_done line at line {len(lines)}"):
        read_checkpoint(str(bad))

    at = lines.index("encoder,audio,2")
    bad.write_text("\n".join(lines[:at] + ["encoder,audio,two"] + lines[at + 1:]) + "\n")
    with pytest.raises(DataError, match=rf"{bad}: malformed layer count 'two' at line {at + 1}"):
        read_checkpoint(str(bad))


def test_checkpoint_reader_rejects_impossible_step_counts(tmp_path):
    good = tmp_path / "c.ckpt"
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), 2)
    state = init_optim_state(params)
    write_checkpoint(str(good), params, {}, optim_step=10, optim_m=state.m,
                     optim_v=state.v, rng_state=np.random.default_rng(1).bit_generator.state,
                     steps_done=10)
    lines = good.read_text().splitlines()
    at_optim = lines.index(f"optim,10,{len(state.m)}")
    assert lines[-1] == "steps_done,10"
    bad = tmp_path / "bad.ckpt"

    def reads(edited):
        bad.write_text("\n".join(edited) + "\n")
        return read_checkpoint(str(bad))

    with pytest.raises(DataError, match=rf"{bad}: negative steps_done -3 at line {len(lines)}"):
        reads(lines[:-1] + ["steps_done,-3"])
    with pytest.raises(DataError, match=rf"{bad}: optim step 23 does not match steps_done 10 "
                                        rf"at line {len(lines)}"):
        reads(lines[:at_optim] + [f"optim,23,{len(state.m)}"] + lines[at_optim + 1:])
    with pytest.raises(DataError, match=rf"{bad}: negative optim step -1 at line {at_optim + 1}"):
        reads(lines[:at_optim] + [f"optim,-1,{len(state.m)}"] + lines[at_optim + 1:-1])
    # steps_done ahead of the optimizer section: the optim header is the
    # second count read, so it is the line named
    moved = lines[:at_optim] + ["steps_done,4"] + lines[at_optim:-1]
    with pytest.raises(DataError, match=rf"{bad}: optim step 10 does not match steps_done 4 "
                                        rf"at line {at_optim + 2}"):
        reads(moved)
    # a weights-only checkpoint with a count but no optimizer is fine
    assert reads(lines[:at_optim] + ["steps_done,0"]).steps_done == 0


def score_rows():
    return [
        ScoreRow("v1", "p1", 10, ManipFlags(), 0.0, 1.2, -0.3, 0.8, -0.3, "real"),
        ScoreRow("v2", "p1", 10, ManipFlags(is_fake=True, v=True), 1.0,
                 -4.5, 0.1, -3.3, -4.5, "fake"),
    ]


def test_scores_round_trip(tmp_path):
    path = str(tmp_path / "s.txt")
    write_scores(path, score_rows(), {"p_fa": "0.1"})
    meta, rows = read_scores(path)
    assert meta["p_fa"] == "0.1"
    assert [r.video_id for r in rows] == ["v1", "v2"]
    assert rows[0].statistic("video") == 1.2
    assert rows[1].flags.v and rows[1].blend == 1.0
    assert rows[1].decision == "fake"


def test_report_round_trip_keeps_undefined(tmp_path):
    path = str(tmp_path / "r.txt")
    rows = [
        {"metric": "auc", "group": "v", "n_real": 8, "n_fake": 4,
         "video": 88.5, "audio": None, "av": 91.25, "fusion": 90.0},
    ]
    write_report(path, rows, {})
    _, back = read_report(path)
    assert back[0]["audio"] is None
    assert back[0]["video"] == 88.5
    assert "undefined" in open(path).read()


def test_sweep_round_trip(tmp_path):
    path = str(tmp_path / "w.txt")
    rows = [{"axis": "test_length", "x": 1, "class": "all", "n_real": 8,
             "n_fake": 16, "auc": 77.125},
            {"axis": "test_length", "x": 10, "class": "fs", "n_real": 8,
             "n_fake": 8, "auc": None}]
    write_sweep(path, rows, {"statistic": "fusion"})
    meta, back = read_sweep(path)
    assert meta["statistic"] == "fusion"
    assert back[0]["auc"] == 77.125
    assert back[1]["auc"] is None and back[1]["x"] == 10


def report_rows():
    return [{"metric": "auc", "group": "v", "n_real": 8, "n_fake": 4,
             "video": 88.5, "audio": None, "av": 91.25, "fusion": 90.0}]


def sweep_rows():
    return [{"axis": "ref_size", "x": 2, "class": "all", "n_real": 8, "n_fake": 16,
             "auc": 60.5}]


# Each written file has a header, one meta line, a column line and its
# rows, so the last row is on line 3 + len(rows).
TABLE_FILES = {
    "scores": (write_scores, read_scores, score_rows, "score"),
    "report": (write_report, read_report, report_rows, "report"),
    "sweep": (write_sweep, read_sweep, sweep_rows, "sweep"),
}


@pytest.mark.parametrize("extra", ["copy of the last row", "garbage"])
@pytest.mark.parametrize("kind", sorted(TABLE_FILES))
def test_table_readers_refuse_rows_past_the_header_count(tmp_path, kind, extra):
    write, read, rows, noun = TABLE_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    write(str(path), rows(), {"seed": "1"})
    lines = path.read_text().splitlines()
    assert len(lines) == 3 + len(rows())
    lines.append(lines[-1] if extra == "copy of the last row" else "not,a,row")
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: trailing data after last {noun} row at line {len(lines)}"
    want = rf"^{re.escape(message)}$"
    with pytest.raises(DataError, match=want):
        read(str(path))


@pytest.mark.parametrize("count", ["-3", "0"])
def test_score_reader_refuses_n_segments_below_one(tmp_path, count):
    path = tmp_path / "s.txt"
    write_scores(str(path), score_rows(), {"p_fa": "0.1"})
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = count
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    message = f"{path}: n_segments must be >= 1, got {count} at line {len(lines)}"
    want = rf"^{re.escape(message)}$"
    with pytest.raises(DataError, match=want):
        read_scores(str(path))


def test_train_log_format(tmp_path):
    path = tmp_path / "log.txt"
    log = [TrainStep(step=1, loss=LossReport(1.5, 2.5, 3.5, 1.0, 7.5)),
           TrainStep(step=2, loss=LossReport(1.0, 2.0, 3.0, 1.0, 6.0))]
    write_train_log(str(path), log, {"lambda": "1"})
    lines = path.read_text().splitlines()
    assert lines[0] == "POIF-LOG,1,2"
    assert lines[1] == "# lambda=1"
    assert lines[2] == "step,l_v,l_a,l_av,l_tot"
    assert lines[3] == "1,1.5,2.5,3.5,7.5"


def test_fmt_round_trips_doubles():
    values = [np.pi, 1.0 / 3.0, 1e-300, -2.5e17, 0.1 + 0.2]
    for v in values:
        assert float(fileio.fmt(v)) == v
    with pytest.raises(ValueError):
        fileio.fmt(float("inf"))


def test_fmt_row_matches_per_scalar_fmt():
    edge = [-0.0, 5e-324, 0.1, 1e308]
    for values in (edge, np.array(edge), np.array(edge).reshape(2, 2)):
        assert fileio.fmt_row(values) == ",".join(fileio.fmt(float(x)) for x in edge)
    assert fileio.fmt_row(np.array(edge)).split(",") == ["-0", "4.9406564584124654e-324",
                                                         "0.10000000000000001", "1e+308"]
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.fmt_row([1.0, bad])


def test_checkpoint_writer_refuses_non_finite_and_leaves_no_file(tmp_path):
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), 2)
    state = init_optim_state(params)
    state.m[1] = state.m[1].copy()
    state.m[1][0] = np.nan
    path = tmp_path / "c.ckpt"
    with pytest.raises(ValueError, match="non-finite"):
        write_checkpoint(str(path), params, {}, optim_step=1, optim_m=state.m,
                         optim_v=state.v, steps_done=1)
    params.video.weights[0][1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        write_checkpoint(str(path), params, {})
    assert list(tmp_path.iterdir()) == []


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nseed = 7\ntau=0.5\nbetas = 1.0,0.4\n")
    assert parse_config_file(str(cfg)) == {"seed": "7", "tau": "0.5", "betas": "1.0,0.4"}
    cfg.write_text("seed\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))
    with pytest.raises(ConfigError):
        parse_config_file(str(tmp_path / "missing.cfg"))
