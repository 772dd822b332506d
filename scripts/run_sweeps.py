#!/usr/bin/env python3
"""Robustness curves: test-video length and reference-set variety.

Trains the desk-scale encoder, then sweeps (a) the number of segments
kept per test video and (b) the number of distinct videos a fixed
reference budget is spread over, printing AUC per fake class at each
point.  Both curves are averaged over seeds.

Usage:
    python3 scripts/run_sweeps.py --seeds 3
"""

import argparse
import warnings

import numpy as np

from poif.encoder import EncoderConfig
from poif.experiments import sweep_rows
from poif.records import GROUPS, SegmentTable
from poif.scoring import SmallReferenceWarning
from poif.synthgen import (
    WorldConfig,
    generate_benchmark,
    generate_world,
    sample_identity_videos,
)
from poif.training import TrainConfig, train


def run_seed(s: int, tau: float, steps: int, lengths, varieties, budget):
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
    cfg = TrainConfig(tau=tau, joint_weight=1.0, epochs=1,
                      batches_per_epoch=steps, seed=2000 + s,
                      encoder=EncoderConfig(2, 64, 32))
    params = train(train_world.segments, cfg).params
    test = SegmentTable.from_records(bench.test)

    length_rows = sweep_rows("test_length", lengths,
                             SegmentTable.from_records(bench.reference), test, params, tau)

    # the variety sweep needs deep per-video pools to fill its budget
    rng = np.random.default_rng([5000 + s])
    pool = []
    for poi in eval_world.identity_ids:
        pool.extend(sample_identity_videos(
            eval_world, poi, max(varieties), budget, rng, "e"))
    variety_rows = sweep_rows("ref_variety", varieties, SegmentTable.from_records(pool),
                              test, params, tau, ref_total=budget)
    return length_rows, variety_rows


def print_curve(title: str, rows_by_seed: list):
    print(f"\n{title}")
    classes = sorted({r["class"] for rows in rows_by_seed for r in rows})
    xs = sorted({r["x"] for rows in rows_by_seed for r in rows})
    print("  " + f"{'x':>4s} " + " ".join(f"{c:>6s}" for c in classes))
    for x in xs:
        cells = []
        for cls in classes:
            values = [r["auc"] for rows in rows_by_seed for r in rows
                      if r["x"] == x and r["class"] == cls and r["auc"] is not None]
            cells.append(f"{np.mean(values):6.1f}" if values else f"{'-':>6s}")
        print(f"  {x:4d} " + " ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--lengths", type=int, nargs="+", default=[1, 2, 5, 10])
    parser.add_argument("--varieties", type=int, nargs="+", default=[1, 2, 5, 10])
    parser.add_argument("--budget", type=int, default=100)
    args = parser.parse_args()

    warnings.simplefilter("ignore", SmallReferenceWarning)
    length_curves, variety_curves = [], []
    for s in range(args.seeds):
        length_rows, variety_rows = run_seed(
            s, args.tau, args.steps, args.lengths, args.varieties, args.budget)
        length_curves.append(length_rows)
        variety_curves.append(variety_rows)
        print(f"seed {s} done")

    print_curve("AUC vs segments per test video", length_curves)
    print_curve(f"AUC vs reference variety ({args.budget}-segment budget)",
                variety_curves)


if __name__ == "__main__":
    main()
