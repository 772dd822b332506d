"""Command-line front end.

Five commands cover the pipeline: ``synth`` writes feature files for a
synthetic world or a manipulated benchmark, ``train`` fits the encoders,
``score`` verifies test videos against reference sets, ``evaluate`` turns
a score file into the per-group metric table, and ``sweep`` traces AUC
against test length or reference composition.

Settings resolve in three layers: built-in defaults, then a flat
key=value file given with --config, then explicit flags.  The effective
settings are echoed into every output file header.  POIF_SEED serves as a
seed fallback for the commands that draw randomness.

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
from .records import FUSED, GROUPS
from .scoring import DecisionPolicy
from .synthgen import WorldConfig, generate_benchmark, generate_world
from .training import TrainConfig, train

STATISTIC_CHOICES = ("video", "audio", "av", "fusion")
_STATISTIC_BY_FLAG = {"video": "video", "audio": "audio", "av": "av", "fusion": FUSED}


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


# Per-command setting schema: key -> (converter, default).  Flags override
# config-file values, which override these defaults.
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
    "seed": (int, None),
    "out": (str, None),
    "out_reference": (str, None),
    "out_test": (str, None),
    "train_features": (str, None),
    "fakes_per_group": (int, 4),
    "betas": (_float_list, [1.0, 0.4]),
    "cloned_voice_scale": (finite, 0.5),
    "reference_videos": (int, 10),
    "real_videos": (int, 4),
}

_TRAIN_SPEC = {
    "features": (str, None),
    "out": (str, None),
    "log": (str, None),
    "resume": (str, None),
    "seed": (int, None),
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
    "checkpoint": (str, None),
    "reference": (str, None),
    "test": (str, None),
    "out": (str, None),
    "p_fa": (finite, 0.1),
    "tau": (finite, None),
    "statistic": (_choice(STATISTIC_CHOICES), "fusion"),
}

_EVALUATE_SPEC = {
    "scores": (str, None),
    "out": (str, None),
    "p_fa": (finite, 0.1),
}

_SWEEP_SPEC = {
    "checkpoint": (str, None),
    "reference": (str, None),
    "test": (str, None),
    "out": (str, None),
    "axis": (_choice(experiments.SWEEP_AXES), None),
    "values": (_int_list, None),
    "ref_total": (int, 100),
    "tau": (finite, None),
    "statistic": (_choice(STATISTIC_CHOICES), "fusion"),
}

# Settings that never enter output headers: paths vary by machine.
_NO_ECHO = {
    "out", "out_reference", "out_test", "train_features", "features", "log",
    "resume", "checkpoint", "reference", "test", "scores",
}


def _resolve(args: argparse.Namespace, spec: Mapping) -> dict:
    merged = {k: default for k, (_, default) in spec.items()}
    if args.config is not None:
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        for key, raw in parse_config_file(args.config).items():
            k = key.replace("-", "_")
            if k not in spec:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[k] = spec[k][0](raw)
            except ValueError as e:
                raise ConfigError(f"bad config value {key}={raw!r}: {e}") from None
    for k in spec:
        explicit = getattr(args, k, None)
        if explicit is not None:
            merged[k] = explicit
    return merged


def _resolve_seed(merged: dict):
    if merged.get("seed") is None:
        env = os.environ.get("POIF_SEED")
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"POIF_SEED must be an integer, got {env!r}") from None
    if merged.get("seed") is None:
        raise ConfigError(
            "a seed is required: pass --seed, set seed in the config file, "
            "or export POIF_SEED"
        )


def _stringify(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return fmt(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_stringify(v) for v in value)
    return str(value)


def _echo_meta(merged: Mapping, extra: Mapping | None = None) -> dict[str, str]:
    meta = {k: _stringify(v) for k, v in merged.items()
            if k not in _NO_ECHO and v is not None}
    if extra:
        meta.update({k: _stringify(v) for k, v in extra.items()})
    return meta


def _need(merged: Mapping, key: str, flag: str):
    if merged.get(key) is None:
        raise ConfigError(f"missing required setting: pass {flag} or set {key} in the config")
    return merged[key]


def _need_input(merged: Mapping, key: str, flag: str) -> str:
    path = _need(merged, key, flag)
    if not os.path.isfile(path):
        raise ConfigError(f"{key} file not found: {path}")
    return path


# -- commands -----------------------------------------------------------

def _cmd_synth(args) -> int:
    merged = _resolve(args, _SYNTH_SPEC)
    _resolve_seed(merged)
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
        out = _need(merged, "out", "--out")
        fileio.write_features(out, world.segments, _echo_meta(merged))
        print(f"wrote {out} ({len(world.segments)} segments)")
        return 0

    out_reference = _need(merged, "out_reference", "--out-reference")
    out_test = _need(merged, "out_test", "--out-test")
    train_ids = None
    if merged["train_features"] is not None:
        if not os.path.isfile(merged["train_features"]):
            raise ConfigError(f"train_features file not found: {merged['train_features']}")
        _, train_table = fileio.read_feature_table(merged["train_features"])
        train_ids = sorted(set(train_table.identity_ids.tolist()))
    bench = generate_benchmark(
        world,
        group_counts={g: merged["fakes_per_group"] for g in GROUPS},
        betas=merged["betas"],
        rng=np.random.default_rng([merged["seed"], 1]),
        segments_per_video=merged["segments_per_video"],
        reference_videos=merged["reference_videos"],
        real_videos=merged["real_videos"],
        cloned_voice_scale=merged["cloned_voice_scale"],
        train_identity_ids=train_ids,
    )
    fileio.write_features(out_reference, bench.reference, _echo_meta(merged, {"role": "reference"}))
    fileio.write_features(out_test, bench.test, _echo_meta(merged, {"role": "test"}))
    print(f"wrote {out_reference} ({len(bench.reference)} segments)")
    print(f"wrote {out_test} ({len(bench.test)} segments)")
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
    _resolve_seed(merged)
    features_path = _need_input(merged, "features", "--features")
    out = _need(merged, "out", "--out")
    _, table = fileio.read_feature_table(features_path)

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

    resume, final_loss = None, math.nan
    if merged["resume"] is not None:
        if not os.path.isfile(merged["resume"]):
            raise ConfigError(f"resume checkpoint not found: {merged['resume']}")
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
    meta = _echo_meta(merged, {
        "audio_dim": table.audio.shape[1],
        "video_dim": table.video.shape[1],
        "final_loss": final_loss,
    })
    fileio.write_checkpoint(out, result.state, meta)
    print(f"wrote {out} ({result.state.steps_done} steps, final loss "
          f"{_stringify(final_loss)})")
    if merged["log"] is not None:
        fileio.write_train_log(merged["log"], result.log, meta,
                               first_step=result.state.steps_done - len(result.log) + 1)
        print(f"wrote {merged['log']} ({len(result.log)} rows)")
    return 0


def _scoring_inputs(merged) -> tuple:
    meta, params = fileio.read_encoders(_need_input(merged, "checkpoint", "--checkpoint"))
    _, reference = fileio.read_feature_table(_need_input(merged, "reference", "--reference"))
    _, test = fileio.read_feature_table(_need_input(merged, "test", "--test"))
    if merged["tau"] is None:
        if "tau" not in meta:
            raise ConfigError("no --tau given and the checkpoint records none")
        merged["tau"] = float(meta["tau"])
    return params, reference, test


def _cmd_score(args) -> int:
    merged = _resolve(args, _SCORE_SPEC)
    params, reference, test = _scoring_inputs(merged)
    out = _need(merged, "out", "--out")
    policy = DecisionPolicy(p_fa=merged["p_fa"])
    scores = experiments.score_segments(
        reference, test, params, merged["tau"], policy,
        statistic=_STATISTIC_BY_FLAG[merged["statistic"]],
    )
    meta = _echo_meta(merged, {"threshold": policy.threshold})
    fileio.write_scores(out, scores, meta)
    n_fake = int(scores.fake.sum())
    print(f"wrote {out} ({len(scores)} videos: {len(scores) - n_fake} judged real, "
          f"{n_fake} judged fake)")
    return 0


def _fmt_cell(value: float | None) -> str:
    return "undef" if value is None else f"{value:5.1f}"


def _cmd_evaluate(args) -> int:
    merged = _resolve(args, _EVALUATE_SPEC)
    policy = DecisionPolicy(p_fa=merged["p_fa"])
    scores_path = _need_input(merged, "scores", "--scores")
    out = _need(merged, "out", "--out")
    _, scores = fileio.read_score_table(scores_path)
    table = experiments.table_metrics(scores, p_fa=policy.p_fa)
    report = experiments.report_rows(table)
    fileio.write_report(out, report, _echo_meta(merged))
    print(f"wrote {out} ({len(report)} rows)")
    for metric in ("auc", "accuracy", "pd_at_fa"):
        print(f"{metric} (percent):")
        print(f"  {'group':8s} {'video':>6s} {'audio':>6s} {'av':>6s} {'fusion':>6s}")
        for row in report:
            if row["metric"] != metric:
                continue
            cells = " ".join(f"{_fmt_cell(row[c]):>6s}"
                             for c in ("video", "audio", "av", "fusion"))
            print(f"  {row['group']:8s} {cells}")
    return 0


def _cmd_sweep(args) -> int:
    merged = _resolve(args, _SWEEP_SPEC)
    if merged["ref_total"] < 1:
        raise ConfigError(f"ref_total must be >= 1, got {merged['ref_total']}")
    values = _need(merged, "values", "--values")
    if any(v < 1 for v in values):
        raise ConfigError(f"sweep values must be integers >= 1, got {values}")
    params, reference, test = _scoring_inputs(merged)
    out = _need(merged, "out", "--out")
    axis = _need(merged, "axis", "--axis")
    rows = experiments.sweep_rows(
        axis, values, reference, test, params, merged["tau"],
        statistic=_STATISTIC_BY_FLAG[merged["statistic"]],
        ref_total=merged["ref_total"],
    )
    meta = _echo_meta(merged)
    if axis != "ref_variety":
        del meta["ref_total"]  # only the variety axis reads the budget
    fileio.write_sweep(out, rows, meta)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# -- parser -------------------------------------------------------------

def _add_setting_flags(sp: argparse.ArgumentParser, spec: Mapping, flags: Mapping[str, str]):
    sp.add_argument("--config", help="flat key=value settings file")
    for key, (converter, _) in spec.items():
        flag = flags.get(key, "--" + key.replace("_", "-"))
        kwargs: dict = {"dest": key, "default": None}
        if hasattr(converter, "choices"):
            kwargs["choices"] = converter.choices
        elif converter is not str:
            kwargs["type"] = converter
        sp.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="poif",
        description="identity verification from audio-visual feature files",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic feature files")
    _add_setting_flags(sp, _SYNTH_SPEC, {})
    sp.set_defaults(run=_cmd_synth)

    sp = sub.add_parser("train", help="fit the encoders on pristine features")
    _add_setting_flags(sp, _TRAIN_SPEC, {"lambda": "--lambda"})
    sp.set_defaults(run=_cmd_train)

    sp = sub.add_parser("score", help="verify test videos against references")
    _add_setting_flags(sp, _SCORE_SPEC, {})
    sp.set_defaults(run=_cmd_score)

    sp = sub.add_parser("evaluate", help="per-group metric table from scores")
    _add_setting_flags(sp, _EVALUATE_SPEC, {})
    sp.set_defaults(run=_cmd_evaluate)

    sp = sub.add_parser("sweep", help="AUC curves along one axis")
    _add_setting_flags(sp, _SWEEP_SPEC, {})
    sp.set_defaults(run=_cmd_sweep)
    return p


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """One stderr line per warning, like the error messages."""
    print(f"poif: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
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


if __name__ == "__main__":
    sys.exit(main())
