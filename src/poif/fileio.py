"""Plain-text file formats for features, checkpoints, scores, and reports.

Every file is line-based ASCII.  The first line is a magic tag with a
format version (and counts where useful), followed by sorted ``# key=value``
echo lines recording the effective settings that produced the file, then
the payload.  Floats are printed with 17 significant digits so a
write/read round trip is bit-exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoder import EncoderParams, Mlp
from .exceptions import ConfigError, DataError
from .losses import LOSS_COLUMNS
from .optim import flatten_params
from .records import (
    FAKE, FLAG_COLUMNS, REAL, STATISTICS, ManipFlags, ScoreTable, SegmentTable, valid_flag_rows,
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


def _breaks_line(text: str) -> bool:
    """Whether str.splitlines, which the readers split a file with, would cut text."""
    return "".join(text.splitlines()) != text


def _check_id(value: str, name: str) -> str:
    # a row whose first field starts with "#" would read back as a meta line
    if not value or "," in value or _breaks_line(value) or value.startswith("#"):
        raise DataError(f"{name} must be non-empty and comma-free, without a leading '#' "
                        f"or a line break, got {value!r}")
    if not value.isascii():
        raise DataError(f"{name} must be ASCII, got {value!r}")
    return value


def _meta_lines(meta: Mapping[str, str]) -> list[str]:
    lines = []
    for k in sorted(meta):
        v = str(meta[k])
        # the reader strips the whitespace around a key and after a value
        if _breaks_line(k) or _breaks_line(v) or "=" in k or k != k.strip() or v != v.strip():
            raise ValueError(f"bad meta entry {k!r}={v!r}")
        if not (k.isascii() and v.isascii()):
            raise ValueError(f"meta entry {k!r}={v!r} must be ASCII")
        lines.append(f"# {k}={v}")
    return lines


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _ascii_lines(data: bytes, fail) -> list[str]:
    """The lines of a file's ASCII bytes, cut by str.splitlines; a non-ASCII byte
    raises fail(n), n the number of the line that holds the first one."""
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        start = e.start
    # "x" stands in for the bad byte, so that a line it starts is counted
    raise fail(len((data[:start].decode("ascii") + "x").splitlines()))


class _Lines:
    """Cursor over the lines of one file (its bytes, when already read), with
    parse-error context."""

    def __init__(self, path: str, data: bytes | None = None):
        self.lines = _ascii_lines(
            _read_bytes(path) if data is None else data,
            lambda n: DataError(f"{path}: non-ASCII byte at line {n}"))
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


def _open(path: str, magic: str, n_counts: int, columns: str | None = None, noun: str = "",
          data: bytes | None = None):
    """(lines, header counts, meta) of a file, positioned at its first row: past
    the column line, which must equal ``columns``, when one is given."""
    lines = _Lines(path, data)
    counts = _read_header(lines, magic, n_counts)
    meta = _read_meta(lines)
    if columns is not None and lines.next() != columns:
        lines.fail(f"unexpected {noun} columns")
    return lines, counts, meta


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


def _replace(path: str, fill, binary: bool = False):
    """Let fill(f) write a temporary file, ASCII text unless binary, then move it onto path.

    A fill that raises, or a move that fails, leaves path as it was and no
    temporary file; an OSError of the temporary file names path.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        f = open(tmp, "wb") if binary else open(tmp, "w", encoding="ascii")
        try:
            with f:
                fill(f)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        if e.filename != tmp:
            raise
        raise OSError(e.errno, e.strerror, path) from None


def _write(path: str, *parts: Iterable[str]):
    """Write the lines of each part as they come to path, through ``_replace``."""
    def fill(f):
        for lines in parts:
            for line in lines:
                f.write(line)
                f.write("\n")

    _replace(path, fill)


# -- feature and score rows ---------------------------------------------

@dataclass(frozen=True)
class _RowLayout:
    """A feature or score row: two ids, a count (at least count_floor), the four
    flag bits, the (name, width) groups of floats, each checked whole before the
    next, and, in a score row, a decision word.  unit_blend: blend in [0, 1]."""

    ids: tuple[str, str]
    count: str
    count_floor: int
    count_rule: str
    groups: tuple[tuple[str, int], ...]
    decision: bool
    unit_blend: bool
    noun: str

    @property
    def width(self) -> int:
        return 7 + sum(n for _, n in self.groups) + self.decision


def _feature_rows(da: int, dv: int) -> _RowLayout:
    return _RowLayout(("identity_id", "video_id"), "segment_index", 0,
                      "segment_index must be non-negative, got {}",
                      (("blend", 1), ("audio", da), ("video", dv)), False, True, "segment")


# The floats are blend, then the statistics in STATISTICS order: norm_video,
# norm_audio, norm_av and fused.
_SCORE_ROWS = _RowLayout(("video_id", "identity_id"), "n_segments", 1,
                         "n_segments must be >= 1, got {}", (("score", 5),), True, False,
                         "score row")


def _row_lines(layout: _RowLayout, ids: Sequence[np.ndarray], counts: np.ndarray,
               flags: np.ndarray, blocks: Sequence[np.ndarray]):
    """One line per row, without a decision word: ids, count, flag bits, then the
    floats of each (n, k) block.  Each line is made as it is written: a whole-table
    float matrix or list of lines would raise the peak memory."""
    first, second = layout.ids
    for a, b, count, bits, *parts in zip(ids[0].tolist(), ids[1].tolist(), counts.tolist(),
                                         flags.tolist(), *blocks):
        yield ",".join([_check_id(a, first), _check_id(b, second), str(count),
                        *("1" if bit else "0" for bit in bits), fmt_row(np.concatenate(parts))])


def _bad_rows(layout: _RowLayout, counts: np.ndarray, flags: np.ndarray,
              *floats: np.ndarray) -> np.ndarray:
    """Which rows fail the checks that run over whole columns: the flag bits, finite
    floats, the count floor, blend in [0, 1] and non-empty groups.  floats are
    (n, k) blocks of the row's floats in order, blend first."""
    bad = ~valid_flag_rows(flags)
    for block in floats:
        bad |= ~np.isfinite(block).all(axis=1)
    bad |= counts < layout.count_floor
    if layout.unit_blend:
        bad |= ~((floats[0][:, 0] >= 0.0) & (floats[0][:, 0] <= 1.0))
    if any(w == 0 for _, w in layout.groups):
        bad[:] = True
    return bad


def _read_rows(lines: _Lines, count: int, layout: _RowLayout):
    """The next count rows as (first ids, second ids, counts, flags, floats, words).

    Each line fills one row of preallocated arrays; a row that fails int() or
    float(), or has an empty id, stops the loop.  The other checks then run
    once over the arrays, and ``_fail_row`` re-reads the first bad row for
    its error.  words, the decision words, is None in a feature table."""
    start = lines.pos
    payload = lines.lines[start:start + count]
    n = len(payload)
    firsts, seconds = [""] * n, [""] * n
    width = layout.width
    end = width - layout.decision
    ints = np.zeros((n, 5), dtype=np.int64)  # the count, then the four flags
    floats = np.zeros((n, end - 7))
    filled = n
    for i, line in enumerate(payload):
        fields = line.split(",")
        try:
            if len(fields) != width or not (fields[0] and fields[1]):
                raise ValueError
            ints[i] = [int(f) for f in fields[2:7]]
            floats[i] = [float(f) for f in fields[7:end]]
        except (ValueError, OverflowError):
            filled = i
            break
        firsts[i], seconds[i] = fields[0], fields[1]

    bad = _bad_rows(layout, ints[:filled, 0], ints[:filled, 1:], floats[:filled])
    words = None
    if layout.decision:
        words = np.array([line[line.rfind(",") + 1:] for line in payload[:filled]], dtype=str)
        bad |= (words != REAL) & (words != FAKE)
    first = int(np.argmax(bad)) if bad.any() else filled
    if first < n:
        lines.pos = start + first + 1
        _fail_row(lines, payload[first].split(","), layout)
    lines.pos = start + n
    if n < count:
        lines.next()  # raises: truncated file
    lines.expect_end(layout.noun)
    return (np.array(firsts, dtype=str), np.array(seconds, dtype=str), ints[:, 0].copy(),
            ints[:, 1:] == 1, floats, words)


def _fail_row(lines: _Lines, fields: Sequence[str], layout: _RowLayout):
    """Raise the error of one bad row, checking its fields in the order they are read."""
    if len(fields) != layout.width:
        lines.fail(f"expected {layout.width} fields, found {len(fields)}")
    for value, name in zip(fields, layout.ids):
        if not value:
            lines.fail(f"{name} must be non-empty")
    count, *bits = [lines.parse_int(field, name) for field, name in
                    zip(fields[2:7], (layout.count, *FLAG_COLUMNS))]
    if any(b not in (0, 1) for b in bits):
        lines.fail("manipulation flags must be 0 or 1")
    at = 7
    for _, n in layout.groups:
        _parse_floats(fields[at:at + n], n, lines)
        at += n
    if layout.decision and fields[-1] not in (REAL, FAKE):
        lines.fail(f"bad decision {fields[-1]!r}")
    try:
        ManipFlags(*map(bool, bits))
    except DataError as e:
        lines.fail(str(e))
    for name, n in layout.groups:
        if n == 0:
            lines.fail(f"{name} feature vector is empty")
    if count < layout.count_floor:
        lines.fail(layout.count_rule.format(count))
    if layout.unit_blend and not 0.0 <= float(fields[7]) <= 1.0:
        lines.fail(f"blend must lie in [0, 1], got {float(fields[7])}")
    lines.fail(f"malformed {layout.count} {fields[2]!r}")  # a count too large for int64


def write_features(path: str, table: SegmentTable, meta: Mapping[str, str]):
    if not len(table):
        raise DataError("refusing to write an empty feature file")
    da, dv = table.audio.shape[1], table.video.shape[1]
    _write(path, [f"{FEAT_MAGIC},{FORMAT_VERSION},{da},{dv},{len(table)}", *_meta_lines(meta)],
           _row_lines(_feature_rows(da, dv), (table.identity_ids, table.video_ids),
                      table.segment_index, table.flags,
                      (table.blend[:, None], table.audio, table.video)))


def read_feature_table(path: str) -> tuple[dict[str, str], SegmentTable]:
    """Read a feature file into columns, through ``_read_rows`` or its sidecar.

    The sidecar ``.<name>.poif.npz`` beside the file caches the parse of the
    bytes whose sha256 it holds (``_cached_table``).  Without a valid one the
    bytes are parsed, and a sidecar is written after a successful parse; a
    directory that refuses it leaves the read as it was.
    """
    # imported here, so that commands that read no feature file skip the
    # ~3 ms of loading hashlib's OpenSSL binding
    import hashlib

    data = _read_bytes(path)
    digest = hashlib.sha256(data).hexdigest()
    sidecar = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.poif.npz")
    cached = _cached_table(sidecar, digest)
    if cached is not None:
        return cached
    lines, (da, dv, count), meta = _open(path, FEAT_MAGIC, 3, data=data)
    *columns, floats, _ = _read_rows(lines, count, _feature_rows(da, dv))
    table = SegmentTable(*columns, blend=floats[:, 0].copy(),
                         audio=np.ascontiguousarray(floats[:, 1:1 + da]),
                         video=np.ascontiguousarray(floats[:, 1 + da:]))
    _cache_table(sidecar, digest, meta, table)
    return meta, table


# The arrays of a feature-table sidecar: (dtype, shape), where "n" is the
# table's rows, "m" the settings count and None any width.  The table
# columns are SegmentTable's, as the parse returns them.
_CACHE_VERSION = 1
_SIDECAR = {
    "sha256": ("U", ()), "version": (np.dtype(np.int64), ()),
    "meta_keys": ("U", ("m",)), "meta_values": ("U", ("m",)),
    "identity_ids": ("U", ("n",)), "video_ids": ("U", ("n",)),
    "segment_index": (np.dtype(np.int64), ("n",)),
    "flags": (np.dtype(bool), ("n", len(FLAG_COLUMNS))),
    "blend": (np.dtype(np.float64), ("n",)),
    "audio": (np.dtype(np.float64), ("n", None)), "video": (np.dtype(np.float64), ("n", None)),
}
_TABLE_COLUMNS = tuple(f.name for f in dataclass_fields(SegmentTable))


def _sidecar_fits(arrays: Mapping[str, np.ndarray]) -> bool:
    """Whether every sidecar array has its dtype and shape, "n" and "m" one size each."""
    if set(arrays) != set(_SIDECAR):
        return False
    sizes: dict[str, int] = {}
    for name, (dtype, shape) in _SIDECAR.items():
        arr = arrays[name]
        if isinstance(dtype, str):
            if arr.dtype.kind != "U" or not arr.dtype.isnative:
                return False
        elif arr.dtype != dtype:
            return False
        if arr.ndim != len(shape):
            return False
        for dim, want in zip(arr.shape, shape):
            if isinstance(want, str):
                want = sizes.setdefault(want, dim)
            if want is not None and dim != want:
                return False
    return True


def _cached_table(sidecar: str, digest: str) -> tuple[dict[str, str], SegmentTable] | None:
    """The (meta, table) a sidecar holds for the bytes of this sha256, or None when
    it is missing, unreadable, of another version or other bytes, or fails the
    dtype and shape checks or ``_read_rows``'s checks over whole columns."""
    try:
        with np.load(sidecar, allow_pickle=False) as z:
            arrays = {name: z[name] for name in z.files}
    except Exception:  # whatever a missing, truncated or forged file raises
        return None
    if not _sidecar_fits(arrays) or arrays["version"].item() != _CACHE_VERSION \
            or arrays["sha256"].item() != digest:
        return None
    table = SegmentTable(*(arrays[name] for name in _TABLE_COLUMNS))
    layout = _feature_rows(table.audio.shape[1], table.video.shape[1])
    bad = _bad_rows(layout, table.segment_index, table.flags, table.blend[:, None],
                    table.audio, table.video)
    if bad.any() or not ((table.identity_ids != "") & (table.video_ids != "")).all():
        return None
    return dict(zip(arrays["meta_keys"].tolist(), arrays["meta_values"].tolist())), table


def _cache_table(sidecar: str, digest: str, meta: Mapping[str, str], table: SegmentTable):
    """Write the sidecar of a parsed table through ``_replace``; an OSError leaves
    no sidecar and no temporary file, and is not raised.  Settings that a string
    array would not hold as they are (a trailing NUL) are not cached."""
    keys, values = np.array(list(meta), dtype=str), np.array(list(meta.values()), dtype=str)
    if keys.tolist() != list(meta) or values.tolist() != list(meta.values()):
        return
    try:
        _replace(sidecar, lambda f: np.savez(
            f, sha256=np.array(digest), version=np.array(_CACHE_VERSION, np.int64),
            meta_keys=keys, meta_values=values,
            **{name: getattr(table, name) for name in _TABLE_COLUMNS}), binary=True)
    except OSError:
        pass


def read_features(path: str) -> tuple[dict[str, str], list]:
    """The feature file as one record per row (``read_feature_table``, then ``to_records``)."""
    meta, table = read_feature_table(path)
    return meta, table.to_records()


def write_scores(path: str, table: ScoreTable, meta: Mapping[str, str]):
    rows = _row_lines(_SCORE_ROWS, (table.video_ids, table.identity_ids), table.n_segments,
                      table.flags, (table.blend[:, None], table.statistics.T))
    _write(path, _table_head(SCORES_MAGIC, len(table), meta, SCORE_COLUMNS),
           (f"{row},{FAKE if fake else REAL}" for row, fake in zip(rows, table.fake.tolist())))


def read_score_table(path: str) -> tuple[dict[str, str], ScoreTable]:
    """Read a score file into columns, through ``_read_rows``."""
    lines, (count,), meta = _open(path, SCORES_MAGIC, 1, SCORE_COLUMNS, "score")
    *columns, floats, words = _read_rows(lines, count, _SCORE_ROWS)
    return meta, ScoreTable(*columns, floats[:, 0].copy(), np.ascontiguousarray(floats[:, 1:].T),
                            words == FAKE)


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
    return meta, [ScoreRow(*row) for row in zip(
        t.video_ids.tolist(), t.identity_ids.tolist(), t.n_segments.tolist(),
        [ManipFlags(*bits) for bits in t.flags.tolist()], t.blend.tolist(),
        *t.statistics.tolist(), [FAKE if f else REAL for f in t.fake.tolist()])]


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


def _read_encoders(path: str) -> tuple[_Lines, dict[str, str], EncoderParams]:
    lines = _Lines(path)
    _read_header(lines, CKPT_MAGIC, 0)
    meta = _read_meta(lines)
    return lines, meta, EncoderParams(audio=_read_mlp(lines, "audio"),
                                      video=_read_mlp(lines, "video"))


def read_encoders(path: str) -> tuple[dict[str, str], EncoderParams]:
    """A checkpoint's (settings, encoders); any resume state after them is not read."""
    return _read_encoders(path)[1:]


def read_checkpoint(path: str) -> Checkpoint:
    """A checkpoint's settings, encoders and resume state, if the file goes on past the encoders.

    The resume state is read in the one order ``write_checkpoint`` writes
    it: the optim section (its step count, then the m and v moments in
    ``flatten_params`` order), the rng line, and the steps_done line, whose
    count must equal the optim section's.
    """
    lines, meta, params = _read_encoders(path)
    if lines.at_end():
        return Checkpoint(meta, params, None)
    fields = _section(lines, "optim", 3, "header")
    step = _step_count(lines, fields[1], "optim step")
    shapes = [a.shape for a in flatten_params(params)]
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
    return Checkpoint(meta, params, TrainState(params, *moments, rng_state, steps_done))




# -- reports, sweeps, training logs -------------------------------------

def _opt(x: float | None) -> str:
    return UNDEFINED if x is None else fmt(x)


def _parse_opt(lines: _Lines, field: str, name: str) -> float | None:
    return None if field == UNDEFINED else float(_parse_floats([field], 1, lines)[0])


# The column kinds of report and sweep rows, as (format, parse) pairs:
# a word, an integer, and a float or UNDEFINED.
_WORD = (str, lambda lines, field, name: field)
_INT = (str, _Lines.parse_int)
_FLOAT_OR_UNDEFINED = (_opt, _parse_opt)
_REPORT_KINDS = {"metric": _WORD, "group": _WORD, "n_real": _INT, "n_fake": _INT,
                 **{stat: _FLOAT_OR_UNDEFINED for stat in STATISTICS}}
_SWEEP_KINDS = {"axis": _WORD, "x": _INT, "class": _WORD, "n_real": _INT, "n_fake": _INT,
                "auc": _FLOAT_OR_UNDEFINED}
REPORT_COLUMNS = ",".join(_REPORT_KINDS)
SWEEP_COLUMNS = ",".join(_SWEEP_KINDS)


def _write_dict_rows(path: str, magic: str, kinds: Mapping, rows: Sequence[Mapping],
                     meta: Mapping[str, str]):
    _write(path, _table_head(magic, len(rows), meta, ",".join(kinds)),
           [",".join(show(r[name]) for name, (show, _) in kinds.items()) for r in rows])


def _read_dict_rows(path: str, magic: str, kinds: Mapping, noun: str):
    lines, (count,), meta = _open(path, magic, 1, ",".join(kinds), noun)
    rows = []
    for _ in range(count):
        fields = lines.next().split(",")
        if len(fields) != len(kinds):
            lines.fail(f"expected {len(kinds)} fields, found {len(fields)}")
        rows.append({name: parse(lines, field, name)
                     for (name, (_, parse)), field in zip(kinds.items(), fields)})
    lines.expect_end(f"{noun} row")
    return meta, rows


def write_report(path: str, rows: Sequence[Mapping], meta: Mapping[str, str]):
    """Rows carry metric, group, n_real, n_fake and one value per statistic."""
    _write_dict_rows(path, REPORT_MAGIC, _REPORT_KINDS, rows, meta)


def read_report(path: str) -> tuple[dict[str, str], list[dict]]:
    return _read_dict_rows(path, REPORT_MAGIC, _REPORT_KINDS, "report")


def write_sweep(path: str, rows: Sequence[Mapping], meta: Mapping[str, str]):
    _write_dict_rows(path, SWEEP_MAGIC, _SWEEP_KINDS, rows, meta)


def read_sweep(path: str) -> tuple[dict[str, str], list[dict]]:
    return _read_dict_rows(path, SWEEP_MAGIC, _SWEEP_KINDS, "sweep")


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
        data = _read_bytes(path)
    except (FileNotFoundError, IsADirectoryError):
        raise ConfigError(f"config file not found: {path}") from None
    raw = _ascii_lines(data, lambda n: ConfigError(f"{path}:{n}: non-ASCII byte"))
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
