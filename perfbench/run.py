#!/usr/bin/env python3
"""Benchmark of the poif pipeline, run through the real command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Each poif command runs as a child process
that imports the package from ./src, with BLAS threads capped at the number
of usable CPUs.  A run has three parts:

1. Set-up, repeated SETUP_REPEATS times in fresh directories: synthesize the
   README training features and fit an encoder with the code under test.
   setup_s is the median set-up time.  Every repeat must write the same bytes.
   The first repeat comes before the loop and the others between its passes.
2. The timed loop: the workload's stages, repeated while a pass of median
   length still fits in --seconds of loop passes.  evaluate, the shortest command, runs
   EVALUATE_REPEATS times in each plain pass.  Stage metrics are medians
   over every run of the stage in the loop.  Every pass must write the same
   bytes as the first.
3. Checks, outside the timed stages: every command exits 0, every artifact
   reads back through the poif.fileio readers, the score file has one row
   per test video, and the AVG fusion AUC stays above AUC_FLOOR.  On
   `train`, half the step budget resumed to the full budget must give the
   same checkpoint bytes as the uninterrupted run.  Any miss is a failed
   operation and makes the result incorrect.

Workloads (all inputs are synthesized from --seed):
  train      the README training recipe: 64 identities x 8 videos x 4
             segments, batch 8x8, tau 0.5, TRAIN_STEPS steps of the README
             encoder, then a 10-identity benchmark scored with the new
             encoder.  The training step (training, losses, encoder, optim
             and the distance matrices of the loss) does most of the train
             stage.
  verify     the README benchmark: 20 held-out identities, 10 reference
             videos x 10 segments, 400 test videos; score, evaluate and a
             test-length sweep.  Feature parsing and per-video overhead
             dominate; distance matrices are 100x100.
  large_ref  2 identities with 50 reference videos x 20 segments (1,000
             reference segments each) and 20-segment test clips.  The
             (n, n, d) temporary of similarity.squared_distance_matrix sets
             the time and the peak memory of score and sweep.  Two people
             rather than more keep a pass short enough for several passes
             per run; the per-person cost is what matters here.
On verify and large_ref the encoder comes from set-up, with
SETUP_TRAIN_STEPS steps, so train_steps_per_s there is measured in set-up.

End-to-end metrics (medians over stage runs): setup_s, over set-up repeats;
synth_s, the synth commands of a pass; train_steps_per_s, steps over the
train command's wall time; score_videos_per_s; evaluate_s; sweep_s;
pipeline_s, over passes, the sum of a pass's command wall times (the median
run of a repeated command); peak_rss_mb, the largest child max-RSS of a pass;
auc_fusion_avg, the AVG fusion AUC of report.txt in percent.  fail_rate
(failed over attempted commands and checks) is printed and carried by the
failed and attempted fields.

Per-layer metrics: NAME.s and NAME.calls are per pass; NAME.ms.p50 and .pN
are per call, where pN is the highest percentile with at least 10 calls
above it; training.step_ms runs from sample_batch's start to adamw_step's
end; self_s.MODULE is span time minus the time of child spans; share.* are
shares of a stage's command wall time; trace.overhead_s is traced minus
plain pipeline_s; similarity.ladder.* comes from ladder.py; and
quality.fa_abs_error_fusion is |share of pristine test videos judged fake -
p_fa|, which moves in steps of one video and with the seed.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics, measured with plain
children.  --trace 1 alternates plain and traced loop passes (traced
children run traced_cli.py, which records spans around the package's public
functions) and gives the per-layer metrics.  Per-layer totals are per pass:
medians over the traced loop passes or, for layers the loop never calls
(training on verify and large_ref), over the set-up repeats.  The spans of a
traced run are written to .bench_work/<workload>/spans.jsonl, and every run
leaves its metrics, environment and artifact sha256 digests in
.bench_work/<workload>/summary.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
LADDER = os.path.join(HERE, "ladder.py")

WORKLOADS = ("train", "verify", "large_ref")
TRAIN_STEPS = 500
SETUP_TRAIN_STEPS = 200
SETUP_REPEATS = 5
# evaluate is a fraction of a second, mostly interpreter start and import, so
# one run per pass gives too few samples for a steady median.
EVALUATE_REPEATS = 4
AUC_FLOOR = 90.0
P_FA = 0.1
CHILD_TIMEOUT_S = 150.0
SWEEP_VALUES = "1,2,5,10"
BENCH_ARGS = {
    "train": ["--identities", "10"],
    "verify": ["--identities", "20", "--reference-videos", "10",
               "--segments-per-video", "10"],
    "large_ref": ["--identities", "2", "--reference-videos", "50",
                  "--segments-per-video", "20"],
}
TRAIN_FEATURE_ROWS = 64 * 8 * 4
STEP_MODULES = ("training", "losses", "encoder", "optim")
MODULES = ("cli", "training", "encoder", "losses", "optim", "similarity",
           "scoring", "experiments", "metrics", "fileio", "synthgen")


# -- commands -------------------------------------------------------------

@dataclass
class Cmd:
    stage: str
    args: list[str]
    outputs: tuple[str, ...]
    repeats: int = 1  # runs per plain loop pass; each run is one sample


def synth_train(seed: int) -> Cmd:
    return Cmd("synth", [
        "synth", "--mode", "train", "--identities", "64", "--videos-per-identity", "8",
        "--segments-per-video", "4", "--seed", str(seed), "--out", "train_feats.txt",
    ], ("train_feats.txt",))


def train(seed: int, steps: int, features: str, resume: str | None = None) -> Cmd:
    args = [
        "train", "--features", features, "--tau", "0.5", "--epochs", "1",
        "--batches-per-epoch", str(steps), "--identities-per-batch", "8",
        "--segments-per-identity", "8", "--seed", str(seed),
        "--out", "encoder.ckpt", "--log", "train_log.txt",
    ]
    if resume is not None:
        args += ["--resume", resume]
    return Cmd("train", args, ("encoder.ckpt", "train_log.txt"))


def benchmark(workload: str, seed: int, checkpoint: str, features: str) -> list[Cmd]:
    return [
        Cmd("synth", [
            "synth", "--mode", "benchmark", *BENCH_ARGS[workload], "--seed", str(seed + 1),
            "--train-features", features, "--out-reference", "ref.txt", "--out-test", "test.txt",
        ], ("ref.txt", "test.txt")),
        Cmd("score", [
            "score", "--checkpoint", checkpoint, "--reference", "ref.txt", "--test", "test.txt",
            "--p-fa", str(P_FA), "--out", "scores.txt",
        ], ("scores.txt",)),
        Cmd("evaluate", [
            "evaluate", "--scores", "scores.txt", "--p-fa", str(P_FA), "--out", "report.txt",
        ], ("report.txt",), EVALUATE_REPEATS),
        Cmd("sweep", [
            "sweep", "--checkpoint", checkpoint, "--reference", "ref.txt", "--test", "test.txt",
            "--axis", "test_length", "--values", SWEEP_VALUES, "--out", "sweep.txt",
        ], ("sweep.txt",)),
    ]


def setup_steps(workload: str) -> int:
    return TRAIN_STEPS // 2 if workload == "train" else SETUP_TRAIN_STEPS


def setup_cmds(workload: str, seed: int) -> list[Cmd]:
    return [synth_train(seed), train(seed, setup_steps(workload), "train_feats.txt")]


def loop_cmds(workload: str, seed: int, setup_dir: str) -> list[Cmd]:
    if workload == "train":
        return [synth_train(seed), train(seed, TRAIN_STEPS, "train_feats.txt"),
                *benchmark(workload, seed, "encoder.ckpt", "train_feats.txt")]
    return benchmark(workload, seed, os.path.join(setup_dir, "encoder.ckpt"),
                     os.path.join(setup_dir, "train_feats.txt"))


# -- running children -----------------------------------------------------

@dataclass
class Step:
    stage: str
    cmd: int  # index of the command in its pass
    repeat: int
    wall: float
    rss_mb: float
    code: int
    trace: dict | None = None


@dataclass
class Pass:
    kind: str  # setup, loop or resume
    index: int
    traced: bool
    dir: str
    steps: list[Step] = field(default_factory=list)
    wall: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.code == 0 for s in self.steps)

    def stage_samples(self, stage: str) -> list[float]:
        """The stage's wall time once per repeat: its commands' r-th runs summed."""
        by_repeat: dict[int, float] = {}
        for s in self.steps:
            if s.stage == stage:
                by_repeat[s.repeat] = by_repeat.get(s.repeat, 0.0) + s.wall
        return list(by_repeat.values())

    def pipeline_wall(self) -> float:
        """Sum over the pass's commands of the median wall time of their runs."""
        by_cmd: dict[int, list[float]] = {}
        for s in self.steps:
            by_cmd.setdefault(s.cmd, []).append(s.wall)
        return sum(median(walls) for walls in by_cmd.values())


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("POIF_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(nproc)
    return env


def run_child(argv: list[str], cwd: str, env: dict, log_path: str) -> tuple[float, float, int]:
    """Run one child to completion; returns wall seconds, max RSS in MB, exit code."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # os.wait4 reaped the child; tell Popen so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.nproc = len(os.sched_getaffinity(0))
        self.env = child_env(self.nproc)
        self.dir = os.path.join(WORK, workload)
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.n_test_videos = 0
        self.ladder: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run_pass(self, kind: str, index: int, cmds: list[Cmd], traced: bool) -> Pass:
        p = Pass(kind, index, traced, os.path.join(self.dir, f"{kind}{index}"))
        os.makedirs(p.dir)
        start = time.perf_counter()
        for n, cmd in enumerate(cmds):
            spans_path = os.path.join(p.dir, f"spans{n}.json")
            if traced:
                run_id = f"{self.workload}-s{self.seed}-{kind}{index}-{n}-{cmd.stage}"
                argv = [sys.executable, TRACED_CLI, spans_path, run_id, "--", *cmd.args]
            else:
                argv = [sys.executable, "-m", "poif.cli", *cmd.args]
            # Repeats rewrite the same outputs from the same inputs.  Traced
            # commands run once, so that per-pass span totals count one run.
            repeats = cmd.repeats if kind == "loop" and not traced else 1
            for r in range(repeats):
                wall, rss, code = run_child(argv, p.dir, self.env,
                                            os.path.join(p.dir, "stdout.txt"))
                step = Step(cmd.stage, n, r, wall, rss, code)
                p.steps.append(step)
                if not self.check(f"{kind}{index} {cmd.stage} exit", code == 0,
                                  f"exit code {code}, see {os.path.join(p.dir, 'stdout.txt')}"):
                    break
            if not p.ok:
                break
            if traced:
                with open(spans_path, encoding="ascii") as f:
                    step.trace = json.load(f)
        p.wall = time.perf_counter() - start
        if p.ok:
            for cmd in cmds:
                for name in cmd.outputs:
                    p.digests[name] = sha256(os.path.join(p.dir, name))
        self.passes.append(p)
        return p

    def same_bytes(self, p: Pass, ref: Pass):
        for name, digest in ref.digests.items():
            self.check(f"{p.kind}{p.index} {name} bytes match {ref.kind}{ref.index}",
                       p.digests.get(name) == digest)

    def run(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        setup = setup_cmds(self.workload, self.seed)
        setup0 = self.run_pass("setup", 0, setup, self.trace)
        if not setup0.ok:
            return
        self.read_back(setup0, setup_steps(self.workload))

        def setups() -> int:
            return sum(q.kind == "setup" for q in self.passes)

        def setup_again() -> bool:
            p = self.run_pass("setup", setups(), setup, self.trace)
            if p.ok:
                self.same_bytes(p, setup0)
            return p.ok

        first = None
        pass_times: list[float] = []
        # Under --trace 1 passes alternate plain and traced, so that the
        # tracing overhead is the difference of their pipeline_s.
        min_passes = 2 if self.trace else 1
        # A pass starts only if one of median length still ends within --seconds.
        while len(pass_times) < min_passes or \
                sum(pass_times) + median(pass_times) <= self.seconds:
            pass_start = time.perf_counter()
            index = len(pass_times)
            traced = self.trace and index % 2 == 1
            p = self.run_pass("loop", index, loop_cmds(self.workload, self.seed, setup0.dir), traced)
            if not p.ok:
                return
            if first is None:
                first = p
                self.read_back(p, TRAIN_STEPS)
            else:
                self.same_bytes(p, first)
                shutil.rmtree(p.dir)
            pass_times.append(time.perf_counter() - pass_start)
            # The other set-up repeats run between loop passes, so that a slow
            # or fast spell of a shared machine reaches set-up and loop alike.
            if setups() < SETUP_REPEATS and not setup_again():
                return
        while setups() < SETUP_REPEATS:
            if not setup_again():
                return

        if self.workload == "train":
            resume = train(self.seed, TRAIN_STEPS, os.path.join(setup0.dir, "train_feats.txt"),
                           resume=os.path.join(setup0.dir, "encoder.ckpt"))
            p = self.run_pass("resume", 0, [resume], self.trace)
            if p.ok:
                self.check("resume checkpoint bytes match the uninterrupted run",
                           p.digests["encoder.ckpt"] == first.digests["encoder.ckpt"])
        if self.trace:
            self.run_ladder()

    def read_back(self, p: Pass, steps: int):
        """Read every artifact of a pass through the poif readers and check it."""
        from poif import fileio

        def path(name):
            return os.path.join(p.dir, name)

        def guarded(name, fn):
            try:
                return fn()
            except Exception as e:  # any reader error is a failed check
                self.check(f"{p.kind}{p.index} read {name}", False, f"{type(e).__name__}: {e}")
                return None

        names = set(p.digests)
        if "train_feats.txt" in names:
            got = guarded("train_feats.txt", lambda: fileio.read_features(path("train_feats.txt")))
            if got is not None:
                self.check("train features rows", len(got[1]) == TRAIN_FEATURE_ROWS,
                           f"{len(got[1])} rows")
        if "encoder.ckpt" in names:
            ckpt = guarded("encoder.ckpt", lambda: fileio.read_checkpoint(path("encoder.ckpt")))
            if ckpt is not None:
                self.check("checkpoint resumable at its step budget",
                           ckpt.can_resume and ckpt.steps_done == steps,
                           f"steps_done={ckpt.steps_done}")
        if "train_log.txt" in names:
            # poif.fileio has no train-log reader; check the header and row count.
            with open(path("train_log.txt"), encoding="ascii") as f:
                lines = f.read().splitlines()
            rows = [ln for ln in lines[1:] if ln and not ln.startswith("#")][1:]
            self.check("train log header and rows",
                       lines[0] == f"POIF-LOG,1,{steps}" and len(rows) == steps, lines[0])
        if "test.txt" in names:
            ref = guarded("ref.txt", lambda: fileio.read_features(path("ref.txt")))
            test = guarded("test.txt", lambda: fileio.read_features(path("test.txt")))
            if ref is not None and test is not None:
                self.n_test_videos = len({s.video_id for s in test[1]})
        if "scores.txt" in names:
            got = guarded("scores.txt", lambda: fileio.read_scores(path("scores.txt")))
            if got is not None:
                rows = got[1]
                self.check("one score row per test video", len(rows) == self.n_test_videos,
                           f"{len(rows)} rows for {self.n_test_videos} videos")
                pristine = [r for r in rows if not r.flags.is_fake]
                if self.check("pristine test videos present", bool(pristine)):
                    fa = sum(r.decision == "fake" for r in pristine) / len(pristine)
                    self.quality["fa_abs_error_fusion"] = abs(fa - P_FA)
        if "report.txt" in names:
            got = guarded("report.txt", lambda: fileio.read_report(path("report.txt")))
            if got is not None:
                avg = [r for r in got[1] if r["metric"] == "auc" and r["group"] == "AVG"]
                value = avg[0]["fusion"] if avg else None
                if self.check("AVG fusion AUC defined", value is not None):
                    self.quality["auc_fusion_avg"] = value
                    self.check(f"AVG fusion AUC >= {AUC_FLOOR}", value >= AUC_FLOOR, f"{value}")
        if "sweep.txt" in names:
            got = guarded("sweep.txt", lambda: fileio.read_sweep(path("sweep.txt")))
            if got is not None:
                xs = sorted({r["x"] for r in got[1]})
                self.check("sweep covers every value with defined AUCs",
                           xs == [int(v) for v in SWEEP_VALUES.split(",")]
                           and all(r["auc"] is not None for r in got[1]), f"x={xs}")

    def run_ladder(self):
        out = os.path.join(self.dir, "ladder.json")
        with open(out, "wb") as f:
            code = subprocess.run([sys.executable, LADDER, str(self.seed)], cwd=self.dir,
                                  env=self.env, stdout=f, timeout=CHILD_TIMEOUT_S).returncode
        if self.check("similarity ladder exit", code == 0, f"exit code {code}"):
            with open(out, encoding="ascii") as f:
                self.ladder = json.load(f)


# -- metrics --------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile that still has at least 10 samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def end_to_end(b: Bench) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, per-pass samples)."""
    loop = [p for p in b.passes if p.kind == "loop" and not p.traced and p.ok]
    setup = [p for p in b.passes if p.kind == "setup" and p.ok]
    train_passes, steps = (loop, TRAIN_STEPS) if b.workload == "train" \
        else (setup, SETUP_TRAIN_STEPS)

    def samples(passes, stage):
        return [w for p in passes for w in p.stage_samples(stage)]

    out = {
        "setup_s": ([p.wall for p in setup], "s"),
        "synth_s": (samples(loop, "synth"), "s"),
        "train_steps_per_s": ([steps / w for w in samples(train_passes, "train")], "1/s"),
        "score_videos_per_s": ([b.n_test_videos / w for w in samples(loop, "score")], "1/s"),
        "evaluate_s": (samples(loop, "evaluate"), "s"),
        "sweep_s": (samples(loop, "sweep"), "s"),
        "pipeline_s": ([p.pipeline_wall() for p in loop], "s"),
        "peak_rss_mb": ([max(s.rss_mb for s in p.steps) for p in loop], "MB"),
        "auc_fusion_avg": ([b.quality.get("auc_fusion_avg", 0.0)], "%"),
    }
    return {k: (median(v), unit, v) for k, (v, unit) in out.items()}


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Layers:
    """Per-layer figures from the traced children of a run."""

    def __init__(self, b: Bench):
        self.loop = [p for p in b.passes if p.kind == "loop" and p.traced]
        self.setup = [p for p in b.passes if p.kind == "setup" and p.traced]
        self.own = {id(s): self_times(s.trace["spans"]) for p in self.loop + self.setup
                    for s in p.steps if s.trace is not None}

    def spans(self, passes, stage=None):
        """(pass, step, spans, self times) for the traced commands of the passes."""
        for p in passes:
            for s in p.steps:
                if s.trace is not None and (stage is None or s.stage == stage):
                    yield p, s, s.trace["spans"], self.own[id(s)]

    def phase(self, match, stage=None) -> list[Pass]:
        """Loop passes if the loop calls the layer, else the set-up repeats."""
        for passes in (self.loop, self.setup):
            if any(match(sp[0]) for _, _, spans, _ in self.spans(passes, stage) for sp in spans):
                return passes
        return []

    def per_pass(self, match, value) -> float:
        """Median over the phase's passes of the summed value of matching spans."""
        passes = self.phase(match)
        totals = {id(p): 0.0 for p in passes}
        for p, _, spans, own in self.spans(passes):
            for i, sp in enumerate(spans):
                if match(sp[0]):
                    totals[id(p)] += value(sp, own[i])
        return median(totals.values())

    def seconds(self, name: str) -> float:
        return self.per_pass(lambda n: n == name, lambda sp, _: sp[2] - sp[1])

    def calls(self, name: str) -> float:
        return self.per_pass(lambda n: n == name, lambda sp, _: 1.0)

    def durations_ms(self, name: str, stage=None) -> list[float]:
        passes = self.phase(lambda n: n == name, stage)
        return [1e3 * (sp[2] - sp[1]) for _, _, spans, _ in self.spans(passes, stage)
                for sp in spans if sp[0] == name]

    def step_ms(self) -> list[float]:
        """sample_batch start to adamw_step end, per training step."""
        out = []
        for _, _, spans, _ in self.spans(self.phase(lambda n: n == "training.train"), "train"):
            starts = [sp[1] for sp in spans if sp[0] == "training.sample_batch"]
            ends = [sp[2] for sp in spans if sp[0] == "optim.adamw_step"]
            out.extend(1e3 * (e - s) for s, e in zip(starts, ends))
        return out

    def stage(self, stage: str) -> tuple[list, float]:
        """A stage's traced commands as (spans, self times), and their wall time."""
        for passes in (self.loop, self.setup):
            steps = [(s, spans, own) for _, s, spans, own in self.spans(passes, stage)]
            if steps:
                return [(spans, own) for _, spans, own in steps], sum(s.wall for s, _, _ in steps)
        return [], 0.0

    def stage_self(self, stage: str) -> tuple[dict[str, float], float]:
        """Self seconds per module in a stage's traced commands, and their wall time."""
        steps, wall = self.stage(stage)
        per: dict[str, float] = {}
        for spans, own in steps:
            for sp, t in zip(spans, own):
                module = sp[0].split(".", 1)[0]
                per[module] = per.get(module, 0.0) + t
        return per, wall


def per_layer(b: Bench, L: Layers, plain_pipeline_s: float) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}

    def pct(name: str, samples: list[float]):
        out[f"{name}.p50"] = (percentile(samples, 50.0), "ms")
        out[f"{name}.pN"] = (percentile(samples, tail_percentile(len(samples))), "ms")

    # Per-call figures of the training step come from train commands only, so
    # that encoder calls made while scoring do not mix in.
    pct("training.step_ms", L.step_ms())
    pct("training.sample_batch.ms", L.durations_ms("training.sample_batch", "train"))
    for name in ("losses.positive_sets", "losses.loss_and_embedding_grads",
                 "encoder.mlp_forward", "encoder.mlp_backward", "optim.adamw_step"):
        out[f"{name}.ms.p50"] = (percentile(L.durations_ms(name, "train"), 50.0), "ms")
    out["encoder.encode_batch.ms.p50"] = (
        percentile(L.durations_ms("encoder.encode_batch", "score"), 50.0), "ms")
    pct("scoring.score_video.ms", L.durations_ms("scoring.score_video"))

    for name in ("fileio.read_features", "fileio.read_checkpoint", "fileio.write_features",
                 "fileio.write_checkpoint", "fileio.write_train_log", "fileio.write_scores",
                 "synthgen.generate_world", "synthgen.generate_benchmark",
                 "similarity.squared_distance_matrix", "scoring.build_reference",
                 "experiments.group_by_video", "experiments.score_segments",
                 "experiments.sweep_rows", "experiments.table_metrics", "metrics.auc"):
        out[f"{name}.s"] = (L.seconds(name), "s")
    for name in ("similarity.squared_distance_matrix", "metrics.auc"):
        out[f"{name}.calls"] = (L.calls(name), "count")

    read = "fileio.read_features"
    rows = L.per_pass(lambda n: n == read, lambda sp, _: sp[4]["rows"])
    out[f"{read}.rows_per_s"] = (rows / out[f"{read}.s"][0] if rows else 0.0, "1/s")
    out["fileio.bytes_read"] = (L.per_pass(
        lambda n: n.startswith("fileio.read_"), lambda sp, _: sp[4]["bytes"]), "bytes")
    out["fileio.bytes_written"] = (L.per_pass(
        lambda n: n.startswith("fileio.write_"), lambda sp, _: sp[4]["bytes"]), "bytes")
    sdm = "similarity.squared_distance_matrix"
    temps = [sp[4]["temp_bytes"] for _, _, spans, _ in L.spans(L.phase(lambda n: n == sdm))
             for sp in spans if sp[0] == sdm]
    out[f"{sdm}.temp_bytes_max"] = (float(max(temps, default=0)), "bytes")

    segments = {id(p): 0 for p in L.loop}
    imports = []
    for p, s, _, _ in L.spans(L.loop):
        segments[id(p)] += s.trace["segments_built"]
        imports.append(s.trace["import_s"])
    out["records.segments_built"] = (median(segments.values()), "count")
    out["cli.import_s"] = (median(imports), "s")

    for module in MODULES:
        prefix = module + "."
        out[f"self_s.{module}"] = (L.per_pass(lambda n: n.startswith(prefix),
                                              lambda _, own: own), "s")

    def module_share(stage, modules):
        per, wall = L.stage_self(stage)
        return sum(per.get(m, 0.0) for m in modules) / wall if wall else 0.0

    out["share.train_stage.step_modules"] = (module_share("train", STEP_MODULES), "ratio")
    out["share.train_stage.similarity"] = (module_share("train", ("similarity",)), "ratio")
    out["share.score_stage.similarity"] = (module_share("score", ("similarity",)), "ratio")
    score_steps, score_wall = L.stage("score")
    parsing = sum(sp[2] - sp[1] for spans, _ in score_steps for sp in spans if sp[0] == read)
    out["share.score_stage.read_features"] = (parsing / score_wall if score_wall else 0.0,
                                              "ratio")

    traced = [p.pipeline_wall() for p in L.loop]
    out["trace.overhead_s"] = (median(traced) - plain_pipeline_s, "s")
    for key, value in sorted(b.ladder.items()):
        suffix = "_computed" if key == "temp_bytes.n5000" else ""
        out[f"similarity.ladder.{key}{suffix}"] = (float(value), "bytes")
    out["quality.fa_abs_error_fusion"] = (b.quality.get("fa_abs_error_fusion", 0.0), "ratio")
    return out


# -- output ---------------------------------------------------------------

def environment(b: Bench) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": b.nproc,
        "blas_threads": b.env["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def spread(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    return f"n={len(samples)} min={min(samples):.4g} max={max(samples):.4g}"


def print_self_times(L: Layers):
    for stage in ("synth", "train", "score", "evaluate", "sweep"):
        per, wall = L.stage_self(stage)
        if wall:
            parts = [f"{m} {t / wall:.1%}" for m, t in sorted(per.items(), key=lambda kv: -kv[1])]
            outside = 1.0 - sum(per.values()) / wall
            print(f"self time in {stage}: {', '.join(parts)}, "
                  f"outside spans (interpreter, import) {outside:.1%}")


def write_spans(b: Bench):
    with open(os.path.join(b.dir, "spans.jsonl"), "w", encoding="ascii") as f:
        for p in b.passes:
            for s in p.steps:
                if s.trace is not None:
                    f.write(json.dumps({"pass": f"{p.kind}{p.index}", "stage": s.stage,
                                        "wall_s": s.wall, **s.trace}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "poif", "cli.py")):
        print(f"perfbench: no poif sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import poif
    if not os.path.abspath(poif.__file__).startswith(SRC + os.sep):
        print(f"perfbench: poif imported from {poif.__file__}, not {SRC}", file=sys.stderr)
        return 2

    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    b.run()
    e2e = end_to_end(b)
    env = environment(b)
    print(f"poif benchmark: workload={b.workload} seed={b.seed} seconds={b.seconds} "
          f"trace={int(b.trace)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    counts = {k: sum(p.kind == k for p in b.passes) for k in ("setup", "loop", "resume")}
    print(f"passes: {counts}")
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:22s} {value:12.5g} {unit:5s} {spread(samples)}")
    fail_rate = len(b.failures) / max(b.attempted, 1)
    print(f"  {'fail_rate':22s} {fail_rate:12.5g} ratio {len(b.failures)}/{b.attempted}")
    for f in b.failures:
        print(f"FAILED {f}")
    digests = {f"{p.kind}{p.index}/{name}": d for p in b.passes for name, d in p.digests.items()
               if p.index == 0}
    for name, d in sorted(digests.items()):
        print(f"sha256 {d[:16]} {name}")

    if b.trace:
        layers = Layers(b)
        metrics = per_layer(b, layers, e2e["pipeline_s"][0])
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:14.6g} {unit}")
        print_self_times(layers)
        write_spans(b)
    else:
        metrics = {k: (v, unit) for k, (v, unit, _) in e2e.items()}

    if not b.failures:  # keep the artifacts and child output of a failed run
        for p in b.passes:
            shutil.rmtree(p.dir, ignore_errors=True)
    with open(os.path.join(b.dir, "summary.json"), "w", encoding="ascii") as f:
        json.dump({"workload": b.workload, "seed": b.seed, "environment": env,
                   "failures": b.failures, "sha256": digests,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, f, indent=1)

    print(json.dumps({
        "correct": bool(b.passes) and not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
