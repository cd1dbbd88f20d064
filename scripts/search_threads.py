#!/usr/bin/env python3
"""Search threads: each fit timed with its starts on one thread and on a pool.

``numerics.multistart_minimize`` runs a search's starts on helper threads
only where one objective call does at least ``numerics.THREAD_MIN_FLOPS`` of
work, counted from the problem's shapes. This prints the table behind that
constant. For dense and lattice auxiliaries, and for the second step on a
jittered (dense) and on a lattice fine partition, from 12 to 4800 regions,
it gives the flops of one objective call and the median wall time of the
whole fit, in process, with every start on the calling thread and on
``numerics.pool_size`` threads, the two alternating. A ratio below 1 means
the pool was faster; the last column is the side the rule picks.

Example:
    python scripts/search_threads.py --repeats 5
    python scripts/search_threads.py --regions 12 120 --repeats 1
"""

import argparse
import math
import statistics
import sys
import time

import numpy as np

from finescale import numerics
from finescale.downscale import _Problem, fit_downscale
from finescale.evaluate import grid_partition
from finescale.geo import ArealDataset, Partition, build_aggregation
from finescale.gp_aux import _AuxFit, fit_aux_gp, predict_aux

# (fit, grid): the auxiliary's grid, or the fine grid of a second step. A
# lattice auxiliary starts at lattice.MIN_POINTS regions.
CASES = [
    *(("dense auxiliary", s) for s in ((4, 3), (8, 5), (12, 10), (16, 12), (24, 20), (40, 30))),
    *(("lattice auxiliary", s) for s in ((8, 5), (12, 10), (24, 20), (40, 30), (80, 60))),
    *(("dense second step", s) for s in ((12, 10), (24, 20), (40, 30))),
    *(("lattice second step", s) for s in ((12, 10), (24, 20), (40, 30), (80, 60))),
]
# The coarse grid of each second step's fine grid, and the grids of the
# auxiliaries its posteriors come from, as in the default synthetic spec.
COARSE = {(12, 10): (6, 5), (24, 20): (8, 5), (40, 30): (8, 6), (80, 60): (8, 6)}
STEP_AUXILIARIES = ((4, 3), (8, 5), (12, 10))
STEP_WEIGHTS = (0.3, -0.8, 2.0)


def field(X: np.ndarray, rng) -> np.ndarray:
    """A smooth field over the unit square at the points X, plus noise."""
    return np.sin(6.0 * X[:, 0]) * np.cos(4.0 * X[:, 1]) + 0.1 * rng.standard_normal(len(X))


def jittered(part: Partition, shape: tuple[int, int], rng) -> Partition:
    """The grid partition part with each centroid moved by up to a tenth of a
    cell: off its lattice, so that its fits take the dense path."""
    jitter = rng.uniform(-0.1, 0.1, size=(len(part), 2)) / np.array(shape)
    return Partition(part.name, part.regions, part.centroids + jitter)


def auxiliary(kind: str, shape: tuple[int, int], restarts: int, rng):
    """The flops of one objective call of an auxiliary fit, and the fit, which
    returns its workers."""
    part = grid_partition(*shape, "aux")
    if kind.startswith("dense"):
        part = jittered(part, shape, rng)
    data = ArealDataset(part, field(part.centroids, rng))
    flops = _AuxFit.prepare(data, "aux", restarts, 0).problem.flops
    return flops, lambda: fit_aux_gp(data, restarts=restarts).diagnostics["workers"]


def second_step(kind: str, shape: tuple[int, int], restarts: int, rng):
    """The flops of one objective call of a second step, and the fit, which
    returns its workers."""
    fine = grid_partition(*shape, "fine")
    H = build_aggregation(grid_partition(*COARSE[shape], "coarse"), fine).H
    if kind.startswith("dense"):
        fine = jittered(fine, shape, rng)
    Xf = fine.centroids
    posteriors = []
    for k, grid in enumerate(STEP_AUXILIARIES):
        part = grid_partition(*grid, f"aux{k}")
        model = fit_aux_gp(ArealDataset(part, field(part.centroids, rng)), restarts=restarts)
        posteriors.append(predict_aux(model, Xf))
    z = sum(w * post.mean for w, post in zip(STEP_WEIGHTS, posteriors)) + field(Xf, rng)
    a = H @ z + 0.05 * rng.standard_normal(len(H))

    def run() -> int:
        return fit_downscale(a, posteriors, Xf, H, restarts=restarts).diagnostics["workers"]

    return _Problem.build(a, posteriors, Xf, H).flops, run


def timed(run, least: float) -> tuple[float, int]:
    """Wall time and workers of run() with THREAD_MIN_FLOPS at least."""
    numerics.THREAD_MIN_FLOPS = least
    t0 = time.perf_counter()
    workers = run()
    return time.perf_counter() - t0, workers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3, help="timed runs of each side")
    p.add_argument("--restarts", type=int, default=3, help="restarts of every fit, as the bench")
    p.add_argument("--regions", type=int, nargs="*", help="only the grids of these region counts")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")

    least = numerics.THREAD_MIN_FLOPS
    cases = [(k, s) for k, s in CASES if not args.regions or s[0] * s[1] in args.regions]
    print(f"THREAD_MIN_FLOPS = {least:.3g}; median of {args.repeats} in-process fits per side")
    print(f"{'fit':20s} {'grid':>6s} {'regions':>7s} {'flops':>9s} "
          f"{'1 thread':>9s} {'pool':>9s} {'threads':>7s} {'ratio':>6s}  rule")
    picked = 0
    try:
        for kind, shape in cases:
            rng = np.random.default_rng(args.seed)
            build = auxiliary if kind.endswith("auxiliary") else second_step
            flops, run = build(kind, shape, args.restarts, rng)
            sides = {math.inf: [], 0.0: []}  # one thread, then the pool
            for r in range(args.repeats):
                for side in sorted(sides, reverse=r % 2 == 1):
                    seconds, workers = timed(run, side)
                    sides[side].append(seconds)
                    if side == 0.0:
                        threads = workers
            one, pool = (statistics.median(sides[side]) for side in (math.inf, 0.0))
            pooled = flops >= least
            picked += pooled == (pool < one)
            print(f"{kind:20s} {shape[0]:>3d}x{shape[1]:<2d} {shape[0] * shape[1]:7d} "
                  f"{flops:9.3g} {one:9.3f} {pool:9.3f} {threads:7d} {pool / one:6.2f}  "
                  f"{'pool' if pooled else 'one'}")
    finally:
        numerics.THREAD_MIN_FLOPS = least
    print(f"the rule picks the faster side on {picked} of {len(cases)} fits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
