import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_tables_equal, encoders_only, step0
from oracles import row_statistic, score_table_rows
from poif import fileio
from poif.encoder import EncoderConfig, init_encoder
from poif.exceptions import ConfigError, DataError
from poif.fileio import (
    parse_config_file,
    read_checkpoint,
    read_encoders,
    read_feature_table,
    read_features,
    read_report,
    read_score_table,
    read_scores,
    read_sweep,
    write_checkpoint,
    write_features,
    write_report,
    write_scores,
    write_sweep,
    write_train_log,
)
from poif.optim import flatten_params
from poif.losses import LOSS_COLUMNS
from poif.records import (
    CHANNELS, FLAG_COLUMNS, STATISTICS, ManipFlags, ScoreTable, SegmentRecord, SegmentTable,
)
from poif.synthgen import WorldConfig, generate_world


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
    # an id starting with "#" would read back as a meta line
    for identity_id, video_id in (("a,b", "v"), ("a", ""), ("#a", "v"), ("a", "#v")):
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


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
                         ids=["cr", "vt", "ff", "fs", "gs", "rs"])
def test_writers_refuse_every_line_break_the_reader_splits_on(tmp_path, brk):
    """The reader splits a file with str.splitlines, so an id or a settings value
    holding any of its line breaks would not read back: neither is written."""
    path = str(tmp_path / "feat.txt")
    ids = some_segments().video_ids.astype(object)
    ids[0] = f"a{brk}b"
    with pytest.raises(DataError, match="video_id must be non-empty"):
        write_features(path, replace(some_segments(), video_ids=ids.astype(str)), {})
    with pytest.raises(ValueError, match="bad meta entry"):
        write_features(path, some_segments(), {"k": f"x{brk}y"})
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_non_ascii_text_by_field(tmp_path):
    """The readers refuse a non-ASCII byte, so no id or setting carrying one is written."""
    path = str(tmp_path / "feat.txt")
    ids = some_segments().identity_ids.astype(object)
    ids[-1] = "caf\u00e9"
    with pytest.raises(DataError, match="^identity_id must be ASCII"):
        write_features(path, replace(some_segments(), identity_ids=ids.astype(str)), {})
    for meta in ({"note": "caf\u00e9"}, {"caf\u00e9": "1"}):
        with pytest.raises(ValueError, match="must be ASCII"):
            write_features(path, some_segments(), meta)
    assert list(tmp_path.iterdir()) == []


def test_writing_onto_a_directory_leaves_it_and_no_temporary_file(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    with pytest.raises(OSError):
        write_features(str(out), some_segments(), {})
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "kept\n"


def test_writing_into_a_missing_directory_names_the_path_given(tmp_path):
    path = str(tmp_path / "nodir" / "out.txt")
    with pytest.raises(OSError) as raised:
        write_features(path, some_segments(), {})
    assert path in str(raised.value) and ".tmp." not in str(raised.value)
    assert list(tmp_path.iterdir()) == []


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


def _set_fields(row, changes, first=2):
    """Edit one payload row (0-based) of a file's lines: {field: value}.

    The payload starts on line index ``first``: after the header and one
    meta line in a feature file, and after a column line too in a table file.
    """
    def edit(lines):
        fields = lines[first + row].split(",")
        for i, value in changes.items():
            fields[i] = value
        lines[first + row] = ",".join(fields)
        return lines
    return edit


def _set_score_fields(row, changes):
    return _set_fields(row, changes, first=3)


# Each case corrupts a valid 8-row file (3 audio, 4 video dims; rows on
# lines 3-10) and names the message and line a field-by-field reader gives.
READER_ERRORS = {
    "field_count": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:],
                    "expected 15 fields, found 14", 5),
    "bad_int": (_set_fields(2, {2: "two"}), "malformed segment_index 'two'", 5),
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
    # the writers refuse empty ids, and so do the readers, before any later row
    "empty_identity_id": (lambda ls: _set_fields(5, {7: "x"})(_set_fields(2, {0: ""})(ls)),
                          "identity_id must be non-empty", 5),
    "empty_video_id": (_set_fields(3, {1: "", 7: "x"}), "video_id must be non-empty", 6),
    "empty_id_after_bad_blend": (lambda ls: _set_fields(4, {1: ""})(
        _set_fields(1, {7: "2"})(ls)), "blend must lie in [0, 1], got 2.0", 4),
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
    # the reader strips the whitespace around a key and after a value
    for bad in ({"a=b": "1"}, {" k": "1"}, {"k ": "1"}, {"k": " v"}, {"k": "v "},
                {"k": "\tv"}):
        with pytest.raises(ValueError, match="bad meta entry"):
            write_features(path, some_segments(), bad)
    assert read_features(path)[0] == {"zebra": "1", "alpha": "2"}


def test_checkpoint_round_trip_weights_only(tmp_path):
    path = tmp_path / "c.ckpt"
    params = init_encoder(3, 4, EncoderConfig(2, 6, 5), np.random.default_rng(11))
    write_checkpoint(str(path), step0(params), {"tau": "0.5"})
    path.write_text("\n".join(encoders_only(path.read_text().splitlines())) + "\n")
    ckpt = read_checkpoint(str(path))
    assert ckpt.meta["tau"] == "0.5"
    assert ckpt.state is None and not ckpt.can_resume and ckpt.steps_done is None
    for a, b in zip(flatten_params(params), flatten_params(ckpt.params)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_round_trip_with_resume_state(tmp_path):
    path = str(tmp_path / "c.ckpt")
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), np.random.default_rng(2))
    rng = np.random.default_rng(77)
    rng.standard_normal(5)
    state = replace(step0(params, 13), rng_state=rng.bit_generator.state)
    state.m = [np.full_like(a, 0.25) for a in state.m]
    write_checkpoint(path, state, {})
    # the one step counter is written twice, as the file format has it
    lines = open(path).read().splitlines()
    assert f"optim,13,{len(state.m)}" in lines and lines[-1] == "steps_done,13"
    ckpt = read_checkpoint(path)
    assert ckpt.can_resume
    assert ckpt.steps_done == ckpt.state.steps_done == 13
    assert ckpt.state.params is ckpt.params
    for a, b in zip(state.m + state.v, ckpt.state.m + ckpt.state.v):
        np.testing.assert_array_equal(a, b)
    assert ckpt.state.rng_state == state.rng_state
    restored = np.random.default_rng(0)
    restored.bit_generator.state = ckpt.state.rng_state
    np.testing.assert_array_equal(restored.standard_normal(3),
                                  np.random.default_rng(77).standard_normal(8)[5:])


def test_checkpoint_reader_reports_malformed_integers(tmp_path):
    good = tmp_path / "c.ckpt"
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), np.random.default_rng(2))
    write_checkpoint(str(good), step0(params, 3), {})
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


def test_read_encoders_gives_the_checkpoints_settings_and_encoders(tmp_path):
    path = str(tmp_path / "c.ckpt")
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), np.random.default_rng(2))
    write_checkpoint(path, step0(params, 5), {"tau": "0.5"})
    ckpt = read_checkpoint(path)
    assert ckpt.can_resume
    meta, got = read_encoders(path)
    assert meta == ckpt.meta == {"tau": "0.5"}
    pairs = list(zip(flatten_params(got), flatten_params(ckpt.params), strict=True))
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)


def checkpoint_lines(tmp_path, steps_done):
    """The lines of a small checkpoint at steps_done, and a reader of edited lines."""
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), np.random.default_rng(2))
    good = tmp_path / "c.ckpt"
    write_checkpoint(str(good), step0(params, steps_done), {})
    bad = tmp_path / "bad.ckpt"

    def reads(edited):
        bad.write_text("\n".join(edited) + "\n")
        return read_checkpoint(str(bad))

    return good.read_text().splitlines(), bad, reads


def test_checkpoint_reader_rejects_impossible_step_counts(tmp_path):
    lines, bad, reads = checkpoint_lines(tmp_path, 10)
    at_optim = lines.index("optim,10,8")
    assert lines[-1] == "steps_done,10"

    with pytest.raises(DataError, match=rf"{bad}: negative steps_done -3 at line {len(lines)}"):
        reads(lines[:-1] + ["steps_done,-3"])
    with pytest.raises(DataError, match=rf"{bad}: optim step 23 does not match steps_done 10 "
                                        rf"at line {len(lines)}"):
        reads(lines[:at_optim] + ["optim,23,8"] + lines[at_optim + 1:])
    with pytest.raises(DataError, match=rf"{bad}: negative optim step -1 at line {at_optim + 1}"):
        reads(lines[:at_optim] + ["optim,-1,8"] + lines[at_optim + 1:-1])


def test_checkpoint_reader_refuses_partial_or_reordered_resume_state(tmp_path):
    """The resume state is read in the writer's one order, and whole or not at all."""
    lines, bad, reads = checkpoint_lines(tmp_path, 10)
    at_optim = lines.index("optim,10,8")
    rng_line = lines[-2]
    assert rng_line.startswith("rng,PCG64,")
    for edited, message in (
        # a steps_done line ahead of the optim section, or in place of it
        (lines[:at_optim] + ["steps_done,10"] + lines[at_optim:-1],
         f"expected optim header, found 'steps_done' at line {at_optim + 1}"),
        (lines[:at_optim] + ["steps_done,0"],
         f"expected optim header, found 'steps_done' at line {at_optim + 1}"),
        (lines[:at_optim] + [rng_line] + lines[at_optim:-2] + lines[-1:],
         f"expected optim header, found 'rng' at line {at_optim + 1}"),
        # the rng line missing, or the file cut before its last line
        (lines[:-2] + lines[-1:],
         f"expected rng line, found 'steps_done' at line {len(lines) - 1}"),
        (lines[:-1], f"truncated file at line {len(lines)}"),
        (lines[:at_optim + 3], f"truncated file at line {at_optim + 4}"),
        # a section after the last one
        (lines + ["steps_done,10"],
         f"trailing data after last checkpoint section at line {len(lines) + 1}"),
    ):
        with pytest.raises(DataError, match=rf"^{re.escape(f'{bad}: {message}')}$"):
            reads(edited)
    # the encoders alone are a checkpoint without resume state
    assert reads(encoders_only(lines)).state is None


def score_table():
    """Two scored videos: v1 real, v2 a judged-fake face swap."""
    return ScoreTable(
        video_ids=np.array(["v1", "v2"]), identity_ids=np.array(["p1", "p1"]),
        n_segments=np.array([10, 10]),
        flags=np.array([[False] * 4, [True, True, False, False]]),
        blend=np.array([0.0, 1.0]),
        statistics=np.array([[1.2, -4.5], [-0.3, 0.1], [0.8, -3.3],
                             [-0.3, -4.5]]),  # video, audio, av, fusion
        fake=np.array([False, True]),
    )


def test_scores_round_trip(tmp_path):
    path = str(tmp_path / "s.txt")
    write_scores(path, score_table(), {"p_fa": "0.1"})
    assert path_lines(path)[3:] == [
        "v1,p1,10,0,0,0,0,0,1.2,-0.29999999999999999,0.80000000000000004,"
        "-0.29999999999999999,real",
        "v2,p1,10,1,1,0,0,1,-4.5,0.10000000000000001,-3.2999999999999998,-4.5,fake",
    ]
    meta, rows = read_scores(path)
    assert meta["p_fa"] == "0.1"
    assert [r.video_id for r in rows] == ["v1", "v2"]
    assert row_statistic(rows[0], "video") == 1.2
    assert rows[1].flags.v and rows[1].blend == 1.0
    assert rows[1].decision == "fake"
    # the row view is the table's rows
    meta_table, table = read_score_table(path)
    assert meta_table == meta and score_table_rows(table) == rows
    assert_score_tables_equal(table, score_table())


def test_files_list_channels_and_statistics_in_one_order(tmp_path):
    """Score, loss and report columns follow CHANNELS and STATISTICS, and a
    score file's columns hold the table's statistics as they are."""
    columns = fileio.SCORE_COLUMNS.split(",")
    first = columns.index("norm_video")
    assert columns[first:first + 4] == [*(f"norm_{c}" for c in CHANNELS), "fused"]
    assert LOSS_COLUMNS[:3] == tuple("l_" + {"video": "v", "audio": "a", "av": "av"}[c]
                                     for c in CHANNELS)
    assert fileio.REPORT_COLUMNS.split(",")[-len(STATISTICS):] == list(STATISTICS)

    path = str(tmp_path / "s.txt")
    table = score_table()
    write_scores(path, table, {})
    lines = path_lines(path)
    rows = [line.split(",") for line in lines[lines.index(fileio.SCORE_COLUMNS) + 1:]]
    for at, name in enumerate(STATISTICS, first):
        assert [float(row[at]) for row in rows] == table.statistic(name).tolist()


def path_lines(path) -> list[str]:
    with open(path) as f:
        return f.read().splitlines()


def assert_score_tables_equal(got: ScoreTable, want: ScoreTable):
    for name in ("video_ids", "identity_ids", "n_segments", "flags", "blend", "statistics",
                 "fake"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert got.flags.dtype == got.fake.dtype == bool


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
    "scores": (write_scores, read_scores, score_table, "score"),
    "score_table": (write_scores, read_score_table, score_table, "score"),
    "report": (write_report, read_report, report_rows, "report"),
    "sweep": (write_sweep, read_sweep, sweep_rows, "sweep"),
}


def score_table_of(rows) -> ScoreTable:
    """The ScoreTable of read_scores' rows, inverse to oracles.score_table_rows."""
    return ScoreTable(
        np.array([r.video_id for r in rows]), np.array([r.identity_id for r in rows]),
        np.array([r.n_segments for r in rows]),
        np.array([[getattr(r.flags, c) for c in FLAG_COLUMNS] for r in rows]),
        np.array([r.blend for r in rows]),
        np.array([[r.norm_video, r.norm_audio, r.norm_av, r.fused] for r in rows]).T,
        np.array([r.decision == "fake" for r in rows]))


# Each kind: (writer, reader, written rows, what the writer takes of the read rows).
ROUND_TRIPS = {
    "features": (write_features, read_feature_table, some_segments, lambda table: table),
    "feature_records": (write_features, read_features, some_segments,
                        SegmentTable.from_records),
    **{kind: (write, read, rows, score_table_of if read is read_scores else lambda got: got)
       for kind, (write, read, rows, _) in TABLE_FILES.items()},
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_write_read_write_gives_the_same_bytes(tmp_path, kind):
    write, read, rows, writable = ROUND_TRIPS[kind]
    first, again = tmp_path / "first.txt", tmp_path / "again.txt"
    write(str(first), rows(), {"seed": "1", "note": "x y"})
    meta, got = read(str(first))
    write(str(again), writable(got), meta)
    assert again.read_bytes() == first.read_bytes()


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


# Each case corrupts the two-row score file of score_table() (rows on lines
# 4 and 5) and names the message and line a field-by-field reader gives.
SCORE_READER_ERRORS = {
    "field_count": (lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]],
                    "expected 13 fields, found 12", 5),
    "bad_flag": (_set_score_fields(1, {3: "x"}), "malformed is_fake 'x'", 5),
    "pristine_with_flags": (_set_score_fields(0, {4: "1"}),
                            "pristine segment cannot carry manipulation flags", 4),
    # a flag is 0 or 1, as in a feature file: 2 or -1 is refused, not read as set
    "flag_two": (_set_score_fields(1, {3: "2"}), "manipulation flags must be 0 or 1", 5),
    "flag_minus_one": (_set_score_fields(0, {3: "2", 4: "-1"}),
                       "manipulation flags must be 0 or 1", 4),
    "invalid_combination": (_set_score_fields(1, {4: "0", 5: "1"}),
                            "unsupported manipulation flag combination v=False a=True "
                            "ai=False", 5),
    "bad_float": (_set_score_fields(1, {8: "oops"}), "unparseable float", 5),
    "non_finite": (_set_score_fields(1, {9: "inf"}), "non-finite value", 5),
    "bad_decision": (_set_score_fields(1, {12: "maybe"}), "bad decision 'maybe'", 5),
    "bad_n_segments": (_set_score_fields(1, {2: "ten"}), "malformed n_segments 'ten'", 5),
    "n_segments_overflow": (_set_score_fields(1, {2: "9223372036854775808"}),
                            "malformed n_segments '9223372036854775808'", 5),
    "truncated_payload": (lambda ls: ls[:-1], "truncated file", 5),
    # the first bad row wins, and inside a row the first field read
    "flags_before_floats": (_set_score_fields(1, {3: "x", 8: "oops"}),
                            "malformed is_fake 'x'", 5),
    "earlier_row_first": (lambda ls: _set_score_fields(1, {3: "x"})(
        _set_score_fields(0, {12: "?"})(ls)), "bad decision '?'", 4),
    "empty_video_id": (_set_score_fields(1, {0: "", 3: "x"}), "video_id must be non-empty", 5),
    "empty_identity_id": (_set_score_fields(0, {1: ""}), "identity_id must be non-empty", 4),
}


@pytest.mark.parametrize("case", sorted(SCORE_READER_ERRORS))
def test_score_readers_name_path_and_line(tmp_path, case):
    good = tmp_path / "ok.txt"
    write_scores(str(good), score_table(), {"p_fa": "0.1"})
    edit, message, line = SCORE_READER_ERRORS[case]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    want = rf"^{re.escape(f'{bad}: {message} at line {line}')}$"
    for reader in (read_score_table, read_scores):
        with pytest.raises(DataError, match=want):
            reader(str(bad))


@pytest.mark.parametrize("count", ["-3", "0"])
def test_score_reader_refuses_n_segments_below_one(tmp_path, count):
    path = tmp_path / "s.txt"
    write_scores(str(path), score_table(), {"p_fa": "0.1"})
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = count
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    message = f"{path}: n_segments must be >= 1, got {count} at line {len(lines)}"
    want = rf"^{re.escape(message)}$"
    for reader in (read_score_table, read_scores):
        with pytest.raises(DataError, match=want):
            reader(str(path))


def test_train_log_format(tmp_path):
    path = tmp_path / "log.txt"
    log = np.array([[1.5, 2.5, 3.5, 7.5], [1.0, 2.0, 3.0, 6.0]])
    write_train_log(str(path), log, {"lambda": "1"})
    lines = path.read_text().splitlines()
    assert lines[0] == "POIF-LOG,1,2"
    assert lines[1] == "# lambda=1"
    assert lines[2] == "step,l_v,l_a,l_av,l_tot"
    assert lines[3] == "1,1.5,2.5,3.5,7.5"
    # a resumed run numbers its rows from the first step it took
    write_train_log(str(path), log, {}, first_step=7)
    assert path.read_text().splitlines()[1:] == ["step,l_v,l_a,l_av,l_tot",
                                                 "7,1.5,2.5,3.5,7.5", "8,1,2,3,6"]
    log[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_train_log(str(tmp_path / "bad.txt"), log, {})
    assert not (tmp_path / "bad.txt").exists()


# Each kind: (writer, reader, what it writes).
NON_ASCII_FILES = {
    "features": (write_features, read_feature_table, some_segments),
    "scores": (write_scores, read_score_table, score_table),
    "checkpoint": (write_checkpoint, read_checkpoint,
                   lambda: step0(init_encoder(3, 4, EncoderConfig(1, 4, 2),
                                              np.random.default_rng(2)), 1)),
    "report": (write_report, read_report, report_rows),
}


@pytest.mark.parametrize("kind", sorted(NON_ASCII_FILES))
def test_readers_name_path_and_line_of_a_non_ascii_byte(tmp_path, kind):
    write, read, rows = NON_ASCII_FILES[kind]
    path = tmp_path / "f.txt"
    write(str(path), rows(), {"seed": "1"})
    lines = path.read_bytes().splitlines(keepends=True)
    # a bad byte inside the meta line, and one starting the last line
    for n, at in ((2, 3), (len(lines), 0)):
        edited = list(lines)
        edited[n - 1] = edited[n - 1][:at] + b"\xc3\xa9" + edited[n - 1][at:]
        path.write_bytes(b"".join(edited))
        message = f"{path}: non-ASCII byte at line {n}"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            read(str(path))


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
    params = init_encoder(3, 4, EncoderConfig(1, 4, 2), np.random.default_rng(2))
    state = step0(params, 1)
    state.m[1] = state.m[1].copy()
    state.m[1][0] = np.nan
    path = tmp_path / "c.ckpt"
    with pytest.raises(ValueError, match="non-finite"):
        write_checkpoint(str(path), state, {})
    params.video.weights[0][1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        write_checkpoint(str(path), step0(params), {})
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
    cfg.write_bytes(b"seed = 7\n# caf\xc3\xa9\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(cfg))}:2: non-ASCII byte$"):
        parse_config_file(str(cfg))
