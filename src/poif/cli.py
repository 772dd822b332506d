"""Command-line front end.

Five commands cover the pipeline: ``synth`` writes feature files for a
synthetic world or a manipulated benchmark, ``train`` fits the encoders,
``score`` verifies test videos against reference sets, ``evaluate`` turns
a score file into the per-group metric table, and ``sweep`` traces AUC
against test length or reference composition.

Settings resolve in three layers: built-in defaults, then a flat
key=value file given with --config, then explicit flags, with POIF_SEED as
the seed fallback.  Ranges, required settings, input files and output
directories are all checked before any input is read, and the effective
settings, paths aside, are echoed into every output file header.

Exit codes: 0 success, 2 configuration problem (including unresolvable
paths), 3 data problem, 4 degenerate reference.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Callable, Mapping, Sequence

import numpy as np

from . import experiments, fileio
from .encoder import EncoderConfig
from .exceptions import ConfigError, DataError, DegenerateReferenceError
from .fileio import fmt, parse_config_file
from .records import FUSED, STATISTICS
from .scoring import quantile_threshold
from .similarity import check_temperature
from .synthgen import WorldConfig, check_disjoint, generate_benchmark, generate_world
from .training import TrainConfig, train


def finite(raw: str) -> float:
    """float(raw), refusing inf and nan (argparse: "invalid finite value")."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _float_list(raw: str) -> list[float]:
    values = [finite(p) for p in raw.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {raw!r}")
    return values


def _int_list(raw: str) -> list[int]:
    values = [int(p) for p in raw.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of integers, got {raw!r}")
    return values


# argparse names a flag's converter in its error: "invalid <__name__> value".
_float_list.__name__ = "finite list"
_int_list.__name__ = "integer list"


def _choice(options: Sequence[str]) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
        return raw
    convert.choices = options  # a flag checks these itself (argparse choices)
    return convert


def _at_least_one(what: str) -> Callable:
    """The ">= 1" rule of ref_total and the sweep values."""
    def check(value):
        if np.min(value) < 1:
            raise ConfigError(f"{what} >= 1, got {value}")
    return check


# Per-command setting schema: key -> (converter, default[, rule]).  Flags
# override config-file values, which override these defaults.  A REQUIRED
# default must be given.  The rule is a range check, INPUT (the file must
# exist) or OUTPUT (its directory must exist, and it must not name one);
# paths never enter headers.
REQUIRED = object()
INPUT, OUTPUT = "input", "output"

_SYNTH_SPEC = {
    "mode": (_choice(("train", "benchmark")), "train"),
    "identities": (int, None),
    "videos_per_identity": (int, 8),
    "segments_per_video": (int, None),
    "audio_dim": (int, 16),
    "video_dim": (int, 16),
    "identity_scale": (finite, 1.0),
    "video_bias_scale": (finite, 0.1),
    "segment_noise_scale": (finite, 0.1),
    "identity_start": (int, None),
    "seed": (int, REQUIRED),
    "out": (str, REQUIRED, OUTPUT),
    "out_reference": (str, REQUIRED, OUTPUT),
    "out_test": (str, REQUIRED, OUTPUT),
    "train_features": (str, None, INPUT),
    "fakes_per_group": (int, 4),
    "betas": (_float_list, [1.0, 0.4]),
    "cloned_voice_scale": (finite, 0.5),
    "reference_videos": (int, 10),
    "real_videos": (int, 4),
}

# The synth settings each mode never reads, so never requires, checks or echoes.
_SYNTH_UNREAD = {"mode": {
    "train": {"out_reference", "out_test", "train_features", "fakes_per_group", "betas",
              "cloned_voice_scale", "reference_videos", "real_videos"},
    "benchmark": {"out", "videos_per_identity"},
}}

_TRAIN_SPEC = {
    "features": (str, REQUIRED, INPUT),
    "out": (str, REQUIRED, OUTPUT),
    "log": (str, None, OUTPUT),
    "resume": (str, None, INPUT),
    "seed": (int, REQUIRED),
    "lr": (finite, 1e-4),
    "weight_decay": (finite, 0.01),
    "beta1": (finite, 0.9),
    "beta2": (finite, 0.999),
    "epsilon": (finite, 1e-8),
    "tau": (finite, 0.01),
    "lambda": (finite, 1.0),
    "epochs": (int, 12),
    "batches_per_epoch": (int, 2304),
    "identities_per_batch": (int, 8),
    "segments_per_identity": (int, 8),
    "embedding_dim": (int, 32),
    "hidden_layers": (int, 2),
    "hidden_width": (int, 64),
}

_SCORE_SPEC = {
    "checkpoint": (str, REQUIRED, INPUT),
    "reference": (str, REQUIRED, INPUT),
    "test": (str, REQUIRED, INPUT),
    "out": (str, REQUIRED, OUTPUT),
    "p_fa": (finite, 0.1, quantile_threshold),
    "tau": (finite, None, check_temperature),
    "statistic": (_choice(STATISTICS), FUSED),
}

_EVALUATE_SPEC = {
    "scores": (str, REQUIRED, INPUT),
    "out": (str, REQUIRED, OUTPUT),
    "p_fa": (finite, 0.1, quantile_threshold),
}

_SWEEP_SPEC = {
    "checkpoint": (str, REQUIRED, INPUT),
    "reference": (str, REQUIRED, INPUT),
    "test": (str, REQUIRED, INPUT),
    "out": (str, REQUIRED, OUTPUT),
    "axis": (_choice(experiments.SWEEP_AXES), REQUIRED),
    "values": (_int_list, REQUIRED, _at_least_one("sweep values must be integers")),
    "ref_total": (int, 100, _at_least_one("ref_total must be")),
    "tau": (finite, None, check_temperature),
    "statistic": (_choice(STATISTICS), FUSED),
}

# Only the variety axis reads the segment budget.
_SWEEP_UNREAD = {"axis": {"test_length": {"ref_total"}, "ref_size": {"ref_total"}}}


_NO_SEED = "a seed is required: pass --seed, set seed in the config file, or export POIF_SEED"


def _rule(entry: tuple):
    return entry[2] if len(entry) > 2 else None


def _resolve(args: argparse.Namespace, spec: Mapping, unread: Mapping | None = None) -> dict:
    """The merged settings, their ranges checked and the required ones present.

    ``unread`` maps the setting that selects a mode to each mode's settings
    that it never reads.  Those are set to None, so they are neither
    checked nor echoed.
    """
    merged = {k: None if entry[1] is REQUIRED else entry[1] for k, entry in spec.items()}
    if args.config is not None:
        for key, raw in parse_config_file(args.config).items():
            k = key.replace("-", "_")
            if k not in spec:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[k] = spec[k][0](raw)
            except ValueError as e:
                raise ConfigError(f"bad config value {key}={raw!r}: {e}") from None
    merged.update({k: getattr(args, k) for k in spec if getattr(args, k, None) is not None})
    env = os.environ.get("POIF_SEED")
    if "seed" in spec and merged["seed"] is None and env is not None:
        try:
            merged["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"POIF_SEED must be an integer, got {env!r}") from None
    skipped = {k for selector, modes in (unread or {}).items()
               for k in modes.get(merged[selector], ())}
    merged.update(dict.fromkeys(skipped))
    for k, entry in spec.items():
        if callable(_rule(entry)) and merged[k] is not None:
            _rule(entry)(merged[k])
    for k, entry in spec.items():
        if entry[1] is REQUIRED and merged[k] is None and k not in skipped:
            raise ConfigError(_NO_SEED if k == "seed" else "missing required setting: pass "
                              f"--{k.replace('_', '-')} or set {k} in the config")
    return merged


def _check_paths(merged: Mapping, spec: Mapping):
    """Refuse a missing input file, then an output path in a missing directory
    or one that names a directory."""
    given = [(k, _rule(entry), merged[k]) for k, entry in spec.items() if merged[k] is not None]
    for k, rule, path in given:
        if rule is INPUT and not os.path.isfile(path):
            raise ConfigError(f"{k} file not found: {path}")
    for k, rule, path in given:
        if rule is OUTPUT and not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise ConfigError(f"directory not found for {k}: {path}")
        if rule is OUTPUT and os.path.isdir(path):
            raise ConfigError(f"{k} names a directory: {path}")


def _stringify(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return fmt(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_stringify(v) for v in value)
    return str(value)


def _echo_meta(merged: Mapping, spec: Mapping, extra: Mapping | None = None) -> dict[str, str]:
    meta = {k: _stringify(v) for k, v in merged.items()
            if _rule(spec[k]) not in (INPUT, OUTPUT) and v is not None}
    if extra:
        meta.update({k: _stringify(v) for k, v in extra.items()})
    return meta


# -- commands -----------------------------------------------------------

def _cmd_synth(args) -> int:
    merged = _resolve(args, _SYNTH_SPEC, _SYNTH_UNREAD)
    mode = merged["mode"]
    if merged["identities"] is None:
        merged["identities"] = 64 if mode == "train" else 20
    if merged["segments_per_video"] is None:
        merged["segments_per_video"] = 4 if mode == "train" else 10
    if merged["identity_start"] is None:
        merged["identity_start"] = 0 if mode == "train" else 10000

    world_cfg = WorldConfig(
        n_identities=merged["identities"],
        n_videos_per_identity=merged["videos_per_identity"] if mode == "train" else 1,
        n_segments_per_video=merged["segments_per_video"] if mode == "train" else 1,
        audio_dim=merged["audio_dim"],
        video_dim=merged["video_dim"],
        identity_scale=merged["identity_scale"],
        video_bias_scale=merged["video_bias_scale"],
        segment_noise_scale=merged["segment_noise_scale"],
        seed=merged["seed"],
        identity_start=merged["identity_start"],
    )
    world = generate_world(world_cfg)

    if mode == "train":
        _check_paths(merged, _SYNTH_SPEC)
        fileio.write_features(merged["out"], world.segments, _echo_meta(merged, _SYNTH_SPEC))
        print(f"wrote {merged['out']} ({len(world.segments)} segments)")
        return 0

    # drawn before any file is opened, so its guards refuse bad group settings first
    bench = generate_benchmark(
        world,
        fakes_per_group=merged["fakes_per_group"],
        betas=merged["betas"],
        rng=np.random.default_rng([merged["seed"], 1]),
        segments_per_video=merged["segments_per_video"],
        reference_videos=merged["reference_videos"],
        real_videos=merged["real_videos"],
        cloned_voice_scale=merged["cloned_voice_scale"],
    )
    _check_paths(merged, _SYNTH_SPEC)
    if merged["train_features"] is not None:
        _, train_table = fileio.read_feature_table(merged["train_features"])
        check_disjoint(train_table.identity_ids.tolist(), world.identity_ids)
    for role, table in (("reference", bench.reference), ("test", bench.test)):
        path = merged[f"out_{role}"]
        fileio.write_features(path, table, _echo_meta(merged, _SYNTH_SPEC, {"role": role}))
        print(f"wrote {path} ({len(table)} segments)")
    return 0


# Settings that must agree between a resume checkpoint and the resuming
# command.  The schedule lengths are deliberately absent: resuming with a
# larger step budget is how an interrupted run is finished.
_RESUME_MUST_MATCH = (
    "seed", "tau", "lambda", "lr", "weight_decay", "beta1", "beta2", "epsilon",
    "identities_per_batch", "segments_per_identity",
    "embedding_dim", "hidden_layers", "hidden_width",
)


def _cmd_train(args) -> int:
    merged = _resolve(args, _TRAIN_SPEC)
    cfg = TrainConfig(
        learning_rate=merged["lr"],
        weight_decay=merged["weight_decay"],
        beta1=merged["beta1"],
        beta2=merged["beta2"],
        epsilon=merged["epsilon"],
        tau=merged["tau"],
        joint_weight=merged["lambda"],
        epochs=merged["epochs"],
        batches_per_epoch=merged["batches_per_epoch"],
        identities_per_batch=merged["identities_per_batch"],
        segments_per_identity=merged["segments_per_identity"],
        seed=merged["seed"],
        encoder=EncoderConfig(
            hidden_layers=merged["hidden_layers"],
            hidden_width=merged["hidden_width"],
            embedding_dim=merged["embedding_dim"],
        ),
    )
    _check_paths(merged, _TRAIN_SPEC)
    _, table = fileio.read_feature_table(merged["features"])

    resume, final_loss = None, math.nan
    if merged["resume"] is not None:
        ckpt = fileio.read_checkpoint(merged["resume"])
        if ckpt.state is None:
            raise ConfigError(f"checkpoint {merged['resume']} carries no resume state")
        mismatched = [k for k in _RESUME_MUST_MATCH
                      if ckpt.meta.get(k) != _stringify(merged[k])]
        if mismatched:
            raise ConfigError(
                "resume settings differ from the checkpoint: " + ", ".join(mismatched)
            )
        resume = ckpt.state
        # a resume at the checkpoint's own budget takes no step and keeps its loss
        final_loss = ckpt.meta.get("final_loss", final_loss)

    result = train(table, cfg, resume=resume)

    if len(result.log):
        final_loss = float(result.log[-1, -1])
    meta = _echo_meta(merged, _TRAIN_SPEC, {
        "audio_dim": table.audio.shape[1],
        "video_dim": table.video.shape[1],
        "final_loss": final_loss,
    })
    fileio.write_checkpoint(merged["out"], result.state, meta)
    print(f"wrote {merged['out']} ({result.state.steps_done} steps, final loss "
          f"{_stringify(final_loss)})")
    if merged["log"] is not None:
        fileio.write_train_log(merged["log"], result.log, meta,
                               first_step=result.state.steps_done - len(result.log) + 1)
        print(f"wrote {merged['log']} ({len(result.log)} rows)")
    return 0


def _scoring_inputs(merged, spec) -> tuple:
    _check_paths(merged, spec)
    meta, params = fileio.read_encoders(merged["checkpoint"])
    _, reference = fileio.read_feature_table(merged["reference"])
    _, test = fileio.read_feature_table(merged["test"])
    if merged["tau"] is None:
        if "tau" not in meta:
            raise ConfigError("no --tau given and the checkpoint records none")
        merged["tau"] = float(meta["tau"])
    return params, reference, test


def _cmd_score(args) -> int:
    merged = _resolve(args, _SCORE_SPEC)
    params, reference, test = _scoring_inputs(merged, _SCORE_SPEC)
    scores = experiments.score_segments(reference, test, params, merged["tau"], merged["p_fa"],
                                        statistic=merged["statistic"])
    meta = _echo_meta(merged, _SCORE_SPEC, {"threshold": quantile_threshold(merged["p_fa"])})
    fileio.write_scores(merged["out"], scores, meta)
    n_fake = int(scores.fake.sum())
    print(f"wrote {merged['out']} ({len(scores)} videos: {len(scores) - n_fake} judged real, "
          f"{n_fake} judged fake)")
    return 0


def _fmt_cell(value: float | None) -> str:
    return "undef" if value is None else f"{value:5.1f}"


def _cmd_evaluate(args) -> int:
    merged = _resolve(args, _EVALUATE_SPEC)
    _check_paths(merged, _EVALUATE_SPEC)
    _, scores = fileio.read_score_table(merged["scores"])
    table = experiments.table_metrics(scores, p_fa=merged["p_fa"])
    report = experiments.report_rows(table)
    fileio.write_report(merged["out"], report, _echo_meta(merged, _EVALUATE_SPEC))
    print(f"wrote {merged['out']} ({len(report)} rows)")
    for metric in ("auc", "accuracy", "pd_at_fa"):
        print(f"{metric} (percent):")
        print(f"  {'group':8s} " + " ".join(f"{stat:>6s}" for stat in STATISTICS))
        for row in report:
            if row["metric"] != metric:
                continue
            cells = " ".join(f"{_fmt_cell(row[stat]):>6s}" for stat in STATISTICS)
            print(f"  {row['group']:8s} {cells}")
    return 0


def _cmd_sweep(args) -> int:
    merged = _resolve(args, _SWEEP_SPEC, _SWEEP_UNREAD)
    params, reference, test = _scoring_inputs(merged, _SWEEP_SPEC)
    rows = experiments.sweep_rows(
        merged["axis"], merged["values"], reference, test, params, merged["tau"],
        statistic=merged["statistic"], ref_total=merged["ref_total"],
    )
    fileio.write_sweep(merged["out"], rows, _echo_meta(merged, _SWEEP_SPEC))
    print(f"wrote {merged['out']} ({len(rows)} rows)")
    return 0


# -- parser -------------------------------------------------------------

def _add_setting_flags(sp: argparse.ArgumentParser, spec: Mapping):
    sp.add_argument("--config", help="flat key=value settings file")
    for key, (converter, *_) in spec.items():
        kwargs: dict = {"dest": key, "default": None}
        if hasattr(converter, "choices"):
            kwargs["choices"] = converter.choices
        elif converter is not str:
            kwargs["type"] = converter
        sp.add_argument("--" + key.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poif",
        description="identity verification from audio-visual feature files",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic feature files")
    _add_setting_flags(sp, _SYNTH_SPEC)
    sp.set_defaults(run=_cmd_synth)

    sp = sub.add_parser("train", help="fit the encoders on pristine features")
    _add_setting_flags(sp, _TRAIN_SPEC)
    sp.set_defaults(run=_cmd_train)

    sp = sub.add_parser("score", help="verify test videos against references")
    _add_setting_flags(sp, _SCORE_SPEC)
    sp.set_defaults(run=_cmd_score)

    sp = sub.add_parser("evaluate", help="per-group metric table from scores")
    _add_setting_flags(sp, _EVALUATE_SPEC)
    sp.set_defaults(run=_cmd_evaluate)

    sp = sub.add_parser("sweep", help="AUC curves along one axis")
    _add_setting_flags(sp, _SWEEP_SPEC)
    sp.set_defaults(run=_cmd_sweep)
    return p


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning, like the error messages."""
    print(f"poif: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        return args.run(args)
    except ConfigError as e:
        print(f"poif: config error: {e}", file=sys.stderr)
        return 2
    except DegenerateReferenceError as e:
        print(f"poif: degenerate reference: {e}", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"poif: data error: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"poif: config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"poif: data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"poif: io error: {e}", file=sys.stderr)
        return 3
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
