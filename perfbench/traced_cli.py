"""Run one poif CLI command with spans around the package's public functions.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID -- <poif arguments>

The module attributes that the CLI path looks up are replaced by wrappers
that record a span (name, start, end, parent) per call.  Spans stay in
memory and are written to SPANS_JSON when the command returns, together
with the time ``import poif.cli`` took and a count of the segment records
built.  The exit code is the command's own.  Nothing under ``src/``
changes: a name bound by ``from .x import f`` is replaced in every poif
module that holds it, so calls through either binding are seen.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_T0 = time.perf_counter()
import poif.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

# Public functions per module that the five commands reach.
TARGETS = {
    "cli": ("main",),
    "training": ("train", "sample_batch"),
    "encoder": ("init_encoder", "encode_batch", "loss_and_param_grads",
                "mlp_forward", "mlp_backward"),
    "losses": ("positive_sets", "loss_and_embedding_grads"),
    "optim": ("init_optim_state", "adamw_step"),
    "similarity": ("squared_distance_matrix",),
    "scoring": ("build_reference", "score_video"),
    "experiments": ("build_references", "score_segments", "group_by_video",
                    "truncate_videos", "sweep_rows", "table_metrics", "report_rows"),
    "metrics": ("auc", "pd_at_fa", "accuracy"),
    "fileio": ("read_features", "write_features", "read_checkpoint",
               "write_checkpoint", "write_train_log", "write_scores", "read_scores",
               "write_report", "write_sweep"),
    "synthgen": ("generate_world", "generate_benchmark"),
}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _feature_rows(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": len(result[1])}


def _temp_bytes(args, kwargs, result):
    # The (n, m, d) float64 difference tensor the function materializes.
    x = args[0]
    y = args[1] if len(args) > 1 and args[1] is not None else x
    return {"temp_bytes": len(x) * len(y) * x.shape[1] * 8}


def _extras(module: str, name: str):
    if name == "read_features":
        return _feature_rows
    if module == "fileio":
        return _file_bytes
    if name == "squared_distance_matrix":
        return _temp_bytes
    return None


class Tracer:
    """Nested spans kept in a list; a span's parent is an index into it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self._stack: list[int] = []
        self.segments_built = 0

    def wrap(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "poif" or key.startswith("poif."))]
        for module, names in TARGETS.items():
            owner = sys.modules[f"poif.{module}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self.wrap(f"{module}.{name}", original, _extras(module, name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

        record = sys.modules["poif.records"].SegmentRecord
        post_init = record.__post_init__

        def counted(obj):
            self.segments_built += 1
            post_init(obj)

        record.__post_init__ = counted


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON RUN_ID -- <poif arguments>", file=sys.stderr)
        return 2
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = poif.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="ascii") as f:
            json.dump({
                "run_id": run_id,
                "argv": cli_args,
                "import_s": IMPORT_S,
                "segments_built": tracer.segments_built,
                "spans": tracer.spans,
            }, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
