#!/usr/bin/env python3
"""Joint-loss ablation on the desk-scale synthetic benchmark.

Trains the encoder with and without the audio-visual loss term over a
handful of seeds, scores the held-out benchmark, and prints the per-group
AUC / Pd@10% tables for both settings plus the seed-by-seed comparison
of the AV statistic.

Usage:
    python3 scripts/run_ablation.py --seeds 5
"""

import argparse
import time

import numpy as np

from poif.encoder import EncoderConfig
from poif.experiments import AVG_GROUP, score_segments, table_metrics
from poif.records import GROUPS
from poif.scoring import DecisionPolicy
from poif.synthgen import WorldConfig, generate_benchmark, generate_world
from poif.training import TrainConfig, train

AUDIO_SHIFT_GROUPS = ("v+ai", "a+ai", "v+a+ai")


def run_seed(s: int, joint_weight: float, steps: int, tau: float, p_fa: float):
    train_world = generate_world(WorldConfig(
        n_identities=64, n_videos_per_identity=8, n_segments_per_video=4,
        identity_scale=1.0, video_bias_scale=0.25, segment_noise_scale=0.25,
        seed=1000 + s))
    eval_world = generate_world(WorldConfig(
        n_identities=20, n_videos_per_identity=1, n_segments_per_video=1,
        identity_scale=1.0, video_bias_scale=0.25, segment_noise_scale=0.25,
        identity_start=10000, seed=3000 + s))
    bench = generate_benchmark(
        eval_world, {g: 4 for g in GROUPS}, [1.0, 0.4],
        np.random.default_rng([4000 + s, 1]), cloned_voice_scale=0.2,
        train_identity_ids=[f"id{i:04d}" for i in range(64)])
    cfg = TrainConfig(tau=tau, joint_weight=joint_weight, epochs=1,
                      batches_per_epoch=steps, seed=2000 + s,
                      encoder=EncoderConfig(2, 64, 32))
    params = train(train_world.segments, cfg).state.params
    rows = score_segments(bench.reference, bench.test, params, tau,
                          DecisionPolicy(p_fa=p_fa))
    return table_metrics(rows, p_fa=p_fa)


def print_table(tables: list, joint_weight: float):
    order = list(GROUPS) + [AVG_GROUP]
    print(f"\njoint weight {joint_weight:g}, mean over {len(tables)} seeds")
    print(f"  {'group':8s} {'metric':8s} {'video':>6s} {'audio':>6s} "
          f"{'av':>6s} {'fusion':>6s}")
    for metric in ("auc", "pd_at_fa"):
        for group in order:
            cells = []
            for stat in ("video", "audio", "av", "fused"):
                values = [getattr(t[group][stat], metric) for t in tables]
                defined = [v for v in values if v is not None]
                cells.append(f"{sum(defined) / len(defined):6.1f}"
                             if defined else f"{'undef':>6s}")
            print(f"  {group:8s} {metric:8s} " + " ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--p-fa", type=float, default=0.1)
    args = parser.parse_args()

    started = time.perf_counter()
    tables = {0.0: [], 1.0: []}
    for s in range(args.seeds):
        for joint_weight in (0.0, 1.0):
            tables[joint_weight].append(
                run_seed(s, joint_weight, args.steps, args.tau, args.p_fa))
            print(f"seed {s} joint weight {joint_weight:g} done "
                  f"({time.perf_counter() - started:.0f}s)")

    for joint_weight in (0.0, 1.0):
        print_table(tables[joint_weight], joint_weight)

    print("\nAV Pd@10% averaged over the audio-shifted groups:")
    wins = 0
    for s in range(args.seeds):
        pair = []
        for joint_weight in (0.0, 1.0):
            t = tables[joint_weight][s]
            pair.append(sum(t[g]["av"].pd_at_fa for g in AUDIO_SHIFT_GROUPS) / 3.0)
        wins += pair[1] > pair[0]
        print(f"  seed {s}: {pair[0]:.1f} -> {pair[1]:.1f}")
    print(f"joint term ahead on {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
