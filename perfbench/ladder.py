"""Memory ladder for ``similarity.squared_distance_matrix`` at d=32.

    python3 perfbench/ladder.py SEED

Prints one JSON object.  For each reference size n the (n, n, d) float64
difference temporary is n*n*d*8 bytes.  The rungs that fit in a small
machine are also run under tracemalloc and report the measured peak; the
largest rung is computed only, because running it would need 6.4 GB.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import numpy as np

from poif.similarity import squared_distance_matrix

DIM = 32
MEASURED = (100, 1000)
COMPUTED_ONLY = (5000,)


def main(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for n in MEASURED + COMPUTED_ONLY:
        out[f"temp_bytes.n{n}"] = n * n * DIM * 8
    for n in MEASURED:
        x = rng.standard_normal((n, DIM))
        tracemalloc.start()
        try:
            d = squared_distance_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if d.shape != (n, n) or not np.all(np.diag(d) == 0.0):
            raise SystemExit(f"ladder: bad distance matrix at n={n}")
        out[f"tracemalloc_peak_bytes.n{n}"] = peak
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
