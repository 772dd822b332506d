"""Plain-text file formats for features, checkpoints, scores, and reports.

Every file is line-based ASCII.  The first line is a magic tag with a
format version (and counts where useful), followed by sorted ``# key=value``
echo lines recording the effective settings that produced the file, then
the payload.  Floats are printed with 17 significant digits so a
write/read round trip is bit-exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, Mlp
from .exceptions import ConfigError, DataError
from .losses import LOSS_COLUMNS
from .optim import flatten_params
from .records import (
    FAKE, FLAG_COLUMNS, REAL, VALID_FLAGS, ManipFlags, ScoreTable, SegmentTable, valid_flag_rows,
)
from .training import TrainState

FEAT_MAGIC = "POIF-FEAT"
CKPT_MAGIC = "POIF-CKPT"
SCORES_MAGIC = "POIF-SCORES"
REPORT_MAGIC = "POIF-REPORT"
SWEEP_MAGIC = "POIF-SWEEP"
LOG_MAGIC = "POIF-LOG"
FORMAT_VERSION = 1

SCORE_COLUMNS = (
    "video_id,identity_id,n_segments,is_fake,v,a,ai,blend,"
    "norm_video,norm_audio,norm_av,fused,decision"
)
REPORT_COLUMNS = "metric,group,n_real,n_fake,video,audio,av,fusion"
SWEEP_COLUMNS = "axis,x,class,n_real,n_fake,auc"
LOG_COLUMNS = ",".join(("step",) + LOSS_COLUMNS)
UNDEFINED = "undefined"


def fmt(x: float) -> str:
    """Render a float with enough digits to round-trip exactly."""
    if not np.isfinite(x):
        raise ValueError(f"refusing to write non-finite value {x!r}")
    return "%.17g" % x


def fmt_row(values) -> str:
    """Comma-joined fmt() of every entry of an array, checked for finiteness once."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValueError(f"refusing to write non-finite value {float(arr[~finite][0])!r}")
    return ",".join(["%.17g"] * arr.size) % tuple(arr.tolist())


def _check_id(value: str, name: str) -> str:
    if not value or "," in value or "\n" in value:
        raise DataError(f"{name} must be non-empty and comma-free, got {value!r}")
    return value


def _meta_lines(meta: Mapping[str, str]) -> list[str]:
    lines = []
    for k in sorted(meta):
        v = str(meta[k])
        if "\n" in k or "\n" in v or "=" in k:
            raise ValueError(f"bad meta entry {k!r}={v!r}")
        lines.append(f"# {k}={v}")
    return lines


class _Lines:
    """Cursor over the lines of one file, with parse-error context."""

    def __init__(self, path: str):
        with open(path, "r", encoding="ascii") as f:
            self.lines = f.read().splitlines()
        self.path = path
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated file at line {self.pos + 1}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def at_end(self) -> bool:
        return self.pos >= len(self.lines)

    def fail(self, msg: str):
        raise DataError(f"{self.path}: {msg} at line {self.pos}")

    def expect_end(self, what: str):
        """Fail naming the first line past the payload, if there is one."""
        if not self.at_end():
            self.pos += 1
            self.fail(f"trailing data after last {what}")

    def check_ids(self, fields: Sequence[str], names: Sequence[str]):
        """Fail naming the first of the leading id fields that is empty."""
        for value, name in zip(fields, names):
            if not value:
                self.fail(f"{name} must be non-empty")

    def parse_int(self, field: str, name: str) -> int:
        """Parse one integer field of the current line, or fail naming it."""
        try:
            return int(field)
        except ValueError:
            self.fail(f"malformed {name} {field!r}")


def _read_header(lines: _Lines, magic: str, n_counts: int) -> list[int]:
    head = lines.next().split(",")
    if head[0] != magic:
        lines.fail(f"expected {magic} file, found {head[0]!r}")
    if len(head) != 2 + n_counts:
        lines.fail(f"malformed {magic} header")
    try:
        version = int(head[1])
        counts = [int(c) for c in head[2:]]
    except ValueError:
        lines.fail(f"malformed {magic} header")
    if version != FORMAT_VERSION:
        lines.fail(f"unsupported {magic} version {version}")
    if any(c < 0 for c in counts):
        lines.fail(f"negative count in {magic} header")
    return counts


def _read_meta(lines: _Lines) -> dict[str, str]:
    meta: dict[str, str] = {}
    while not lines.at_end() and lines.lines[lines.pos].startswith("#"):
        line = lines.next()[1:].strip()
        if "=" not in line:
            lines.fail("malformed meta line")
        k, v = line.split("=", 1)
        meta[k.strip()] = v
    return meta


def _table_head(magic: str, count: int, meta: Mapping[str, str], columns: str) -> list[str]:
    """The header, meta and column lines of a table file of count rows."""
    return [f"{magic},{FORMAT_VERSION},{count}", *_meta_lines(meta), columns]


def _open_table(path: str, magic: str, columns: str, noun: str):
    """(lines, row count, meta) of a table file, positioned at its first row."""
    lines = _Lines(path)
    (count,) = _read_header(lines, magic, 1)
    meta = _read_meta(lines)
    if lines.next() != columns:
        lines.fail(f"unexpected {noun} columns")
    return lines, count, meta


def _parse_floats(fields: Sequence[str], n: int, lines: _Lines) -> np.ndarray:
    if len(fields) != n:
        lines.fail(f"expected {n} values, found {len(fields)}")
    try:
        values = np.array([float(f) for f in fields], dtype=np.float64)
    except ValueError:
        lines.fail("unparseable float")
    if not np.all(np.isfinite(values)):
        lines.fail("non-finite value")
    return values


def _write(path: str, lines: Iterable[str]):
    """Write lines as they come to a temporary file, then move it onto path.

    A line that fails to format leaves neither path nor the temporary file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    f = open(tmp, "w", encoding="ascii")
    try:
        with f:
            for line in lines:
                f.write(line)
                f.write("\n")
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


# -- features -----------------------------------------------------------

def write_features(path: str, table: SegmentTable, meta: Mapping[str, str]):
    if not len(table):
        raise DataError("refusing to write an empty feature file")
    _write(path, _feature_lines(table, meta))


def _feature_lines(table: SegmentTable, meta: Mapping[str, str]):
    yield (f"{FEAT_MAGIC},{FORMAT_VERSION},{table.audio.shape[1]},{table.video.shape[1]},"
           f"{len(table)}")
    yield from _meta_lines(meta)
    # One row at a time, written as it is made: a whole-table float matrix
    # or the whole list of lines would stay alive and raise the peak memory.
    for row, (identity, video_id, index) in enumerate(zip(
            table.identity_ids.tolist(), table.video_ids.tolist(), table.segment_index.tolist())):
        yield ",".join([
            _check_id(identity, "identity_id"),
            _check_id(video_id, "video_id"),
            str(index),
            *("1" if bit else "0" for bit in table.flags[row]),
            fmt_row(np.concatenate((table.blend[row:row + 1], table.audio[row],
                                    table.video[row]))),
        ])


def _fail_feature_row(lines: _Lines, fields: Sequence[str], da: int, dv: int):
    """Raise the error of one bad feature row.

    The checks run in the order the row's fields are read, so the message
    is the one a field-by-field reader would give for this row.
    """
    if len(fields) != 8 + da + dv:
        lines.fail(f"expected {8 + da + dv} fields, found {len(fields)}")
    lines.check_ids(fields, ("identity_id", "video_id"))
    try:
        segment_index = int(fields[2])
        bits = [int(b) for b in fields[3:7]]
    except ValueError:
        lines.fail("malformed segment row")
    if any(b not in (0, 1) for b in bits):
        lines.fail("manipulation flags must be 0 or 1")
    blend = float(_parse_floats(fields[7:8], 1, lines)[0])
    _parse_floats(fields[8:8 + da], da, lines)
    _parse_floats(fields[8 + da:], dv, lines)
    try:
        ManipFlags(*(bool(b) for b in bits))
    except DataError as e:
        lines.fail(str(e))
    for dim, name in ((da, "audio"), (dv, "video")):
        if dim == 0:
            lines.fail(f"{name} feature vector is empty")
    if segment_index < 0:
        lines.fail(f"segment_index must be non-negative, got {segment_index}")
    if not 0.0 <= blend <= 1.0:
        lines.fail(f"blend must lie in [0, 1], got {blend}")
    lines.fail("malformed segment row")  # an index too large for int64


def read_feature_table(path: str) -> tuple[dict[str, str], SegmentTable]:
    """Read a feature file into columns.

    Each payload line fills one row of preallocated arrays (split, then
    int() and float() per field; a row that fails them or has an empty id
    stops the loop); the range, flag and finiteness checks then run once
    over the arrays.  The first bad row, if any, is re-read by
    ``_fail_feature_row`` for its exact error and line.
    """
    lines = _Lines(path)
    da, dv, count = _read_header(lines, FEAT_MAGIC, 3)
    meta = _read_meta(lines)
    start = lines.pos
    payload = lines.lines[start:start + count]
    n = len(payload)
    identity_ids: list[str] = [""] * n
    video_ids: list[str] = [""] * n
    ints = np.zeros((n, 5), dtype=np.int64)  # segment_index, then the four flags
    floats = np.zeros((n, 1 + da + dv))      # blend, audio, video
    filled = n
    for i, line in enumerate(payload):
        fields = line.split(",")
        try:
            if len(fields) != 8 + da + dv or not (fields[0] and fields[1]):
                raise ValueError
            ints[i] = [int(f) for f in fields[2:7]]
            floats[i] = [float(f) for f in fields[7:]]
        except (ValueError, OverflowError):
            filled = i
            break
        identity_ids[i] = fields[0]
        video_ids[i] = fields[1]

    flag_ints = ints[:filled, 1:]
    blend = floats[:filled, 0]
    bad = ((flag_ints != 0) & (flag_ints != 1)).any(axis=1)
    bad |= ~np.isfinite(floats[:filled]).all(axis=1)
    bad |= ~valid_flag_rows(flag_ints != 0)
    bad |= ints[:filled, 0] < 0
    bad |= ~((blend >= 0.0) & (blend <= 1.0))
    if da == 0 or dv == 0:
        bad[:] = True
    first = int(np.argmax(bad)) if bad.any() else filled
    if first < n:
        lines.pos = start + first + 1
        _fail_feature_row(lines, payload[first].split(","), da, dv)
    lines.pos = start + n
    if n < count:
        lines.next()  # raises: truncated file
    lines.expect_end("segment")
    return meta, SegmentTable(
        identity_ids=np.array(identity_ids, dtype=str),
        video_ids=np.array(video_ids, dtype=str),
        segment_index=ints[:, 0].copy(),
        flags=ints[:, 1:] == 1,
        blend=floats[:, 0].copy(),
        audio=np.ascontiguousarray(floats[:, 1:1 + da]),
        video=np.ascontiguousarray(floats[:, 1 + da:]),
    )


def read_features(path: str) -> tuple[dict[str, str], list]:
    """The feature file as one record per row (``read_feature_table``, then ``to_records``)."""
    meta, table = read_feature_table(path)
    return meta, table.to_records()


# -- checkpoints --------------------------------------------------------

def _mlp_lines(tag: str, mlp: Mlp) -> list[str]:
    out = [f"encoder,{tag},{mlp.n_layers}"]
    for w, b in zip(mlp.weights, mlp.biases):
        out.append(f"layer,{w.shape[0]},{w.shape[1]}")
        out.extend("w," + fmt_row(row) for row in w)
        out.append("b," + fmt_row(b))
    return out


def _read_mlp(lines: _Lines, tag: str) -> Mlp:
    fields = lines.next().split(",")
    if len(fields) != 3 or fields[0] != "encoder" or fields[1] != tag:
        lines.fail(f"expected encoder,{tag} section")
    n_layers = lines.parse_int(fields[2], "layer count")
    weights, biases = [], []
    for _ in range(n_layers):
        head = lines.next().split(",")
        if len(head) != 3 or head[0] != "layer":
            lines.fail("expected layer header")
        out_dim = lines.parse_int(head[1], "layer dimension")
        in_dim = lines.parse_int(head[2], "layer dimension")
        if out_dim < 1 or in_dim < 1:
            lines.fail("bad layer dims")
        w = np.empty((out_dim, in_dim))
        for r in range(out_dim):
            row = lines.next().split(",")
            if row[0] != "w":
                lines.fail("expected weight row")
            w[r] = _parse_floats(row[1:], in_dim, lines)
        brow = lines.next().split(",")
        if brow[0] != "b":
            lines.fail("expected bias row")
        weights.append(w)
        biases.append(_parse_floats(brow[1:], out_dim, lines))
    return Mlp(weights=weights, biases=biases)


def write_checkpoint(path: str, state: TrainState, meta: Mapping[str, str]):
    """Write a run's settings and its whole resume state, in ``read_checkpoint``'s order."""
    rng = state.rng_state
    if rng["bit_generator"] != "PCG64":
        raise ValueError(f"unsupported generator {rng['bit_generator']!r}")
    s = rng["state"]
    _write(path, [
        f"{CKPT_MAGIC},{FORMAT_VERSION}", *_meta_lines(meta),
        *_mlp_lines("audio", state.params.audio), *_mlp_lines("video", state.params.video),
        f"optim,{state.steps_done},{len(state.m)}",
        *("m," + fmt_row(arr) for arr in state.m),
        *("v," + fmt_row(arr) for arr in state.v),
        f"rng,PCG64,{s['state']},{s['inc']},{rng['has_uint32']},{rng['uinteger']}",
        f"steps_done,{state.steps_done}",
    ])


@dataclass(eq=False)
class Checkpoint:
    """A checkpoint's settings and encoders, and its resume state (None when the file has none)."""

    meta: dict[str, str]
    params: EncoderParams
    state: TrainState | None

    @property
    def can_resume(self) -> bool:
        return self.state is not None

    @property
    def steps_done(self) -> int | None:
        return None if self.state is None else self.state.steps_done


def _section(lines: _Lines, tag: str, n_fields: int, what: str) -> list[str]:
    """The fields of the next line, which must be the tag's section of n_fields fields."""
    fields = lines.next().split(",")
    if fields[0] != tag:
        lines.fail(f"expected {tag} {what}, found {fields[0]!r}")
    if len(fields) != n_fields:
        lines.fail(f"malformed {tag} {what}")
    return fields


def _step_count(lines: _Lines, field: str, name: str) -> int:
    count = lines.parse_int(field, name)
    if count < 0:
        lines.fail(f"negative {name} {count}")
    return count


def _read_encoders(path: str) -> tuple[_Lines, Checkpoint]:
    lines = _Lines(path)
    _read_header(lines, CKPT_MAGIC, 0)
    meta = _read_meta(lines)
    params = EncoderParams(audio=_read_mlp(lines, "audio"), video=_read_mlp(lines, "video"))
    return lines, Checkpoint(meta, params, None)


def read_encoders(path: str) -> Checkpoint:
    """A checkpoint's settings and encoders; any resume state after them is not read."""
    return _read_encoders(path)[1]


def read_checkpoint(path: str) -> Checkpoint:
    """A checkpoint's settings, encoders and resume state, if the file goes on past the encoders.

    The resume state is read in the one order ``write_checkpoint`` writes
    it: the optim section (its step count, then the m and v moments in
    ``flatten_params`` order), the rng line, and the steps_done line, whose
    count must equal the optim section's.
    """
    lines, ckpt = _read_encoders(path)
    if lines.at_end():
        return ckpt
    fields = _section(lines, "optim", 3, "header")
    step = _step_count(lines, fields[1], "optim step")
    shapes = [a.shape for a in flatten_params(ckpt.params)]
    n_arrays = lines.parse_int(fields[2], "optim array count")
    if n_arrays != len(shapes):
        lines.fail(f"optim carries {n_arrays} arrays, encoder has {len(shapes)}")
    moments = []
    for tag in ("m", "v"):
        arrays = []
        for shape in shapes:
            row = lines.next().split(",")
            if row[0] != tag:
                lines.fail(f"expected {tag} row")
            arrays.append(_parse_floats(row[1:], int(np.prod(shape)), lines).reshape(shape))
        moments.append(arrays)
    fields = _section(lines, "rng", 6, "line")
    if fields[1] != "PCG64":
        lines.fail("malformed rng line")
    rng_state = {
        "bit_generator": "PCG64",
        "state": {"state": lines.parse_int(fields[2], "rng state"),
                  "inc": lines.parse_int(fields[3], "rng increment")},
        "has_uint32": lines.parse_int(fields[4], "rng has_uint32"),
        "uinteger": lines.parse_int(fields[5], "rng uinteger"),
    }
    steps_done = _step_count(lines, _section(lines, "steps_done", 2, "line")[1], "steps_done")
    if steps_done != step:
        lines.fail(f"optim step {step} does not match steps_done {steps_done}")
    lines.expect_end("checkpoint section")
    ckpt.state = TrainState(ckpt.params, *moments, rng_state, steps_done)
    return ckpt


# -- scores -------------------------------------------------------------

def write_scores(path: str, table: ScoreTable, meta: Mapping[str, str]):
    _write(path, _score_lines(table, meta))


def _score_lines(table: ScoreTable, meta: Mapping[str, str]):
    yield from _table_head(SCORES_MAGIC, len(table), meta, SCORE_COLUMNS)
    audio, video, av = table.normalized
    values = np.stack((table.blend, video, audio, av, table.fused), axis=1)
    for video_id, identity, n_segments, bits, row, fake in zip(
            table.video_ids.tolist(), table.identity_ids.tolist(), table.n_segments.tolist(),
            table.flags.tolist(), values, table.fake.tolist()):
        yield ",".join([_check_id(video_id, "video_id"), _check_id(identity, "identity_id"),
                        str(n_segments), *("1" if bit else "0" for bit in bits),
                        fmt_row(row), FAKE if fake else REAL])


def read_score_table(path: str) -> tuple[dict[str, str], ScoreTable]:
    """Read a score file into columns, row by row; a flag is 0 or 1, as in a feature file."""
    lines, count, meta = _open_table(path, SCORES_MAGIC, SCORE_COLUMNS, "score")
    n = min(count, len(lines.lines) - lines.pos)  # a short file fails at its end
    video_ids, identity_ids = [""] * n, [""] * n
    n_segments = np.zeros(n, dtype=np.int64)
    flags = np.zeros((n, len(FLAG_COLUMNS)), dtype=bool)
    floats = np.zeros((n, 5))  # blend, norm_video, norm_audio, norm_av, fused
    fake = np.zeros(n, dtype=bool)
    for i in range(count):
        fields = lines.next().split(",")
        if len(fields) != 13:
            lines.fail(f"expected 13 fields, found {len(fields)}")
        lines.check_ids(fields, ("video_id", "identity_id"))
        try:
            bits = tuple(int(b) for b in fields[3:7])
        except ValueError:
            bits = None
        if bits and not set(bits) <= {0, 1}:
            lines.fail("manipulation flags must be 0 or 1")
        if bits not in VALID_FLAGS:  # 0 and 1 compare and hash equal to False and True
            lines.fail("malformed score row flags")
        flags[i] = bits
        floats[i] = _parse_floats(fields[7:12], 5, lines)
        if fields[12] not in (REAL, FAKE):
            lines.fail(f"bad decision {fields[12]!r}")
        length = lines.parse_int(fields[2], "n_segments")
        if length < 1:
            lines.fail(f"n_segments must be >= 1, got {length}")
        if length >= 2 ** 63:
            lines.fail(f"malformed n_segments {fields[2]!r}")
        n_segments[i] = length
        video_ids[i], identity_ids[i], fake[i] = fields[0], fields[1], fields[12] == FAKE
    lines.expect_end("score row")
    blend, norm_video, norm_audio, norm_av, fused = floats.T
    return meta, ScoreTable(
        np.array(video_ids, dtype=str), np.array(identity_ids, dtype=str), n_segments, flags,
        blend.copy(), np.stack((norm_audio, norm_video, norm_av)), fused.copy(), fake)


@dataclass
class ScoreRow:
    """One scored test video against one person's reference set."""

    video_id: str
    identity_id: str
    n_segments: int
    flags: ManipFlags
    blend: float
    norm_video: float
    norm_audio: float
    norm_av: float
    fused: float
    decision: str


def read_scores(path: str) -> tuple[dict[str, str], list[ScoreRow]]:
    """A row view over ``read_score_table``, one ScoreRow per video; the package never calls it."""
    meta, t = read_score_table(path)
    audio, video, av = t.normalized.tolist()
    return meta, [ScoreRow(*row) for row in zip(
        t.video_ids.tolist(), t.identity_ids.tolist(), t.n_segments.tolist(),
        [ManipFlags(*bits) for bits in t.flags.tolist()], t.blend.tolist(), video, audio, av,
        t.fused.tolist(), [FAKE if f else REAL for f in t.fake.tolist()])]


# -- reports, sweeps, training logs -------------------------------------

def _opt(x: float | None) -> str:
    return UNDEFINED if x is None else fmt(x)


def write_report(path: str, rows: Sequence[Mapping], meta: Mapping[str, str]):
    """Rows carry metric, group, n_real, n_fake and one value per statistic."""
    out = _table_head(REPORT_MAGIC, len(rows), meta, REPORT_COLUMNS)
    for r in rows:
        out.append(",".join([
            r["metric"], r["group"], str(r["n_real"]), str(r["n_fake"]),
            _opt(r["video"]), _opt(r["audio"]), _opt(r["av"]), _opt(r["fusion"]),
        ]))
    _write(path, out)


def read_report(path: str) -> tuple[dict[str, str], list[dict]]:
    lines, count, meta = _open_table(path, REPORT_MAGIC, REPORT_COLUMNS, "report")
    rows = []
    for _ in range(count):
        fields = lines.next().split(",")
        if len(fields) != 8:
            lines.fail(f"expected 8 fields, found {len(fields)}")
        row = {"metric": fields[0], "group": fields[1],
               "n_real": lines.parse_int(fields[2], "n_real"),
               "n_fake": lines.parse_int(fields[3], "n_fake")}
        for name, raw in zip(("video", "audio", "av", "fusion"), fields[4:]):
            row[name] = None if raw == UNDEFINED else float(_parse_floats([raw], 1, lines)[0])
        rows.append(row)
    lines.expect_end("report row")
    return meta, rows


def write_sweep(path: str, rows: Sequence[Mapping], meta: Mapping[str, str]):
    out = _table_head(SWEEP_MAGIC, len(rows), meta, SWEEP_COLUMNS)
    for r in rows:
        out.append(",".join([
            r["axis"], str(r["x"]), r["class"], str(r["n_real"]), str(r["n_fake"]),
            _opt(r["auc"]),
        ]))
    _write(path, out)


def read_sweep(path: str) -> tuple[dict[str, str], list[dict]]:
    lines, count, meta = _open_table(path, SWEEP_MAGIC, SWEEP_COLUMNS, "sweep")
    rows = []
    for _ in range(count):
        fields = lines.next().split(",")
        if len(fields) != 6:
            lines.fail(f"expected 6 fields, found {len(fields)}")
        rows.append({
            "axis": fields[0], "x": lines.parse_int(fields[1], "x"), "class": fields[2],
            "n_real": lines.parse_int(fields[3], "n_real"),
            "n_fake": lines.parse_int(fields[4], "n_fake"),
            "auc": None if fields[5] == UNDEFINED
                   else float(_parse_floats([fields[5]], 1, lines)[0]),
        })
    lines.expect_end("sweep row")
    return meta, rows


def write_train_log(path: str, log: np.ndarray, meta: Mapping[str, str],
                    first_step: int = 1):
    """One line per (steps, 4) log row (LOSS_COLUMNS), numbered from first_step."""
    out = _table_head(LOG_MAGIC, len(log), meta, LOG_COLUMNS)
    out.extend(f"{step},{fmt_row(row)}" for step, row in enumerate(log, first_step))
    _write(path, out)


# -- config files -------------------------------------------------------

def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value settings file; # starts a comment line."""
    try:
        with open(path, "r", encoding="ascii") as f:
            raw = f.read().splitlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    out: dict[str, str] = {}
    for i, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{i}: expected key=value, got {stripped!r}")
        k, v = stripped.split("=", 1)
        k, v = k.strip(), v.strip()
        if not k:
            raise ConfigError(f"{path}:{i}: empty key")
        out[k] = v
    return out
