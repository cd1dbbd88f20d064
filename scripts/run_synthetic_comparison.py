#!/usr/bin/env python3
"""Multi-seed synthetic comparison of all methods.

Generates seeded synthetic instances, runs the proposed model and the three
comparison methods on each, and prints per-seed and median MAPE plus the
significance stars from the paired per-region t-test on the final seed.

Example:
    python scripts/run_synthetic_comparison.py --seeds 20 --restarts 5
"""

import argparse
import sys

import numpy as np

from finescale.evaluate import (
    METHODS,
    SyntheticSpec,
    generate_synthetic,
    run_comparison,
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=20, help="number of seeded replicates")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--fine-grid", type=int, nargs=2, default=[12, 10])
    p.add_argument("--coarse-grid", type=int, nargs=2, default=[6, 5])
    p.add_argument("--csv", default=None, help="optional output CSV path for medians")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = SyntheticSpec(
        fine_shape=tuple(args.fine_grid), coarse_shape=tuple(args.coarse_grid)
    )
    results = {m: [] for m in METHODS}
    last_table = None
    for seed in range(args.seeds):
        inst = generate_synthetic(spec, seed=seed)
        table = run_comparison(
            inst.a, inst.aux_datasets, inst.amap, inst.z_true,
            restarts=args.restarts, ridge=args.ridge, seed=0,
        )
        row = " ".join(f"{r.method}={r.report.mape:.5f}" for r in table.rows)
        print(f"seed {seed:2d}: {row}")
        for r in table.rows:
            results[r.method].append(r.report.mape)
        last_table = table

    print("\nmedian MAPE over seeds:")
    for m in METHODS:
        print(f"  {m:<10} {np.median(results[m]):.5f}")
    print("\nlast-seed table with significance stars:")
    print(last_table.to_text())

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("method,median_mape\n")
            for m in METHODS:
                fh.write(f"{m},{np.median(results[m])!r}\n")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
