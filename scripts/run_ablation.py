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

import desk
from poif.experiments import AVG_GROUP, score_segments, table_metrics
from poif.records import GROUPS, STATISTICS


def run_seed(world: desk.DeskWorld, joint_weight: float, steps: int, tau: float,
             p_fa: float):
    params = desk.train_seed(world, joint_weight, steps, tau).state.params
    rows = score_segments(world.bench.reference, world.bench.test, params, tau, p_fa)
    return table_metrics(rows, p_fa=p_fa)


def print_table(tables: list, joint_weight: float):
    order = list(GROUPS) + [AVG_GROUP]
    print(f"\njoint weight {joint_weight:g}, mean over {len(tables)} seeds")
    print(f"  {'group':8s} {'metric':8s} " + " ".join(f"{stat:>6s}" for stat in STATISTICS))
    for metric in ("auc", "pd_at_fa"):
        for group in order:
            cells = []
            for stat in STATISTICS:
                values = [getattr(t[group][stat], metric) for t in tables]
                defined = [v for v in values if v is not None]
                cells.append(f"{sum(defined) / len(defined):6.1f}"
                             if defined else f"{'undef':>6s}")
            print(f"  {group:8s} {metric:8s} " + " ".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--steps", type=int, default=desk.STEPS)
    parser.add_argument("--tau", type=float, default=desk.TAU)
    parser.add_argument("--p-fa", type=float, default=0.1)
    args = parser.parse_args()

    started = time.perf_counter()
    tables = {0.0: [], 1.0: []}
    for s in range(args.seeds):
        world = desk.build(s)
        for joint_weight in (0.0, 1.0):
            tables[joint_weight].append(
                run_seed(world, joint_weight, args.steps, args.tau, args.p_fa))
            print(f"seed {s} joint weight {joint_weight:g} done "
                  f"({time.perf_counter() - started:.0f}s)")

    for joint_weight in (0.0, 1.0):
        print_table(tables[joint_weight], joint_weight)

    print(f"\nAV Pd@{100 * args.p_fa:g}% averaged over the audio-shifted groups:")
    wins = 0
    for s in range(args.seeds):
        before, after = (desk.audio_shift_av_pd(tables[w][s]) for w in (0.0, 1.0))
        wins += after > before
        print(f"  seed {s}: {before:.1f} -> {after:.1f}")
    print(f"joint term ahead on {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
