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

import desk
from poif.experiments import sweep_rows
from poif.scoring import SmallReferenceWarning


def run_seed(s: int, tau: float, steps: int, lengths, varieties, budget):
    world = desk.build(s)
    params = desk.train_seed(world, 1.0, steps, tau).state.params
    test = world.bench.test
    length_rows = sweep_rows("test_length", lengths, world.bench.reference, test, params, tau)
    variety_rows = sweep_rows("ref_variety", varieties,
                              desk.variety_pool(world, max(varieties), budget), test,
                              params, tau, ref_total=budget)
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
    parser.add_argument("--steps", type=int, default=desk.STEPS)
    parser.add_argument("--tau", type=float, default=desk.TAU)
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
