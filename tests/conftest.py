"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the test problems are small, and with few cores
# multi-threaded BLAS makes their dense products slower. These must be set
# before numpy is first imported, which is here.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules  # e.g. by a pytest plugin
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from finescale import lattice, numerics
from finescale.downscale import DownscaleParams, build_design
from finescale.evaluate import SyntheticSpec, grid_partition
from finescale.geo import (
    AggregationMap,
    GeoValidationError,
    Partition,
    Region,
    build_aggregation,
    write_csv,
)
from finescale.gp_aux import AuxGPModel, AuxPosterior, predict_aux
from finescale.kernel import SEKernelParams
from finescale.numerics import CholeskyFactor, cholesky_in_place


# Two auxiliaries of one shared field, 5 and 100 regions: acceptance criterion 6.
CRITERION_6_SPEC = SyntheticSpec(
    aux_shapes=((5, 1), (10, 10)),
    w=(1.0, 1.0),
    twin_latent=True,
    alpha=0.4,
    gamma=0.12,
    aux_gamma=0.2,
    aux_noise=0.05,
)


# Lattices the Kronecker paths are checked on against the dense ones, from 2 x 2 up.
LATTICE_SHAPES = [
    (2, 2), (3, 2), (2, 5), (5, 5), (4, 3), (8, 5), (12, 10), (16, 12), (20, 24), (24, 20)
]


def snapped(lat: lattice.Lattice) -> np.ndarray:
    """The points of the lattice lat in their input order, each on its grid values."""
    return np.column_stack([lat.gx[lat.cells % lat.gx.size], lat.gy[lat.cells // lat.gx.size]])


def off_grid(rng, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """The product set gx x gy in a shuffled order, each coordinate moved by up
    to half the snap tolerance: two on one grid value differ by at most it."""
    X = np.array([(x, y) for y in gy for x in gx])
    X = X[rng.permutation(len(X))]
    tol = lattice.SNAP_REL * np.array([np.diff(gx).min(), np.diff(gy).min()])
    return X + rng.uniform(-0.5, 0.5, size=X.shape) * tol


def se_kernel(params: SEKernelParams, x, x2) -> float:
    """alpha^2 * exp(-||x - x2||^2 / (2 gamma^2)) for a single pair; the scalar
    oracle for the kernel matrices."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d2 = float(np.sum((x - x2) ** 2))
    return params.alpha**2 * float(np.exp(-0.5 * d2 / params.gamma**2))


def factor_copy(M) -> CholeskyFactor:
    """The Cholesky factor of M, an exactly symmetric positive-definite
    matrix, in a new Fortran-ordered float64 copy: M keeps its values."""
    return cholesky_in_place(np.array(M, dtype=float, order="F"))


# The out-of-place inverse, which no library code needs: the oracle for the
# bits of numerics.inverse_in_place.
def inverse(F: CholeskyFactor) -> np.ndarray:
    """M^-1 from the factor with LAPACK dpotri, exactly symmetric, in a new
    array; F keeps its factor.

    dpotri fills the lower triangle of a copy of F.L and leaves the upper one,
    zero in a factor from ``cholesky_in_place``, as it was; so the sum with its
    transpose is M^-1 off the diagonal.
    """
    if F.diagonal:  # dpotri's bits: dtrtri's 1/l, squared by dlauum
        r = 1.0 / F.L.diagonal()
        inv = np.zeros(F.L.shape)
        np.fill_diagonal(inv, r * r)
        return inv
    L = np.array(F.L, dtype=float, order="F")
    numerics._check_in_place(L, "the factor")
    numerics._potri(L)
    inv = L + L.T
    np.fill_diagonal(inv, L.diagonal())
    return inv


def always(value) -> bool:
    """An acceptance test that accepts every value: the objective computes its gradient."""
    return True


def grad_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences;
    ``f(x, accept)`` is an objective in ``bfgs_minimize``'s protocol. The
    difference points are called with a test that rejects, so they compute
    values only."""
    x = np.asarray(x, dtype=float)
    _, g = f(x, always)
    g = np.asarray(g, dtype=float)
    worst = 0.0
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fp, _ = f(x + e, lambda value: False)
        fm, _ = f(x - e, lambda value: False)
        numeric = (fp - fm) / (2 * h)
        err = abs(g[k] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst


# The per-ring, per-region shoelace centroid that load_partition computed
# for one region at a time, kept as the oracle for its array passes.
def ring_area_centroid(r: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed shoelace area and area-weighted centroid of one closed ring."""
    x, y = r[:, 0], r[:, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    area = 0.5 * float(np.sum(cross))
    if area == 0.0:
        return 0.0, r[:-1].mean(axis=0)
    cx = float(np.sum((x[:-1] + x[1:]) * cross)) / (6.0 * area)
    cy = float(np.sum((y[:-1] + y[1:]) * cross)) / (6.0 * area)
    return area, np.array([cx, cy])


def polygon_area_centroid(polygons: list[list[np.ndarray]]) -> tuple[float, np.ndarray]:
    """Net area and centroid of a (multi)polygon of closed rings, as ``Region.geometry``
    holds them; rings after the first are holes."""
    total = 0.0
    weighted = np.zeros(2)
    for rings in polygons:
        for k, ring in enumerate(rings):
            a, c = ring_area_centroid(ring)
            a = abs(a) if k == 0 else -abs(a)
            total += a
            weighted += a * c
    if total <= 0:
        raise GeoValidationError("degenerate polygon with nonpositive net area")
    return total, weighted / total


def square_region(rid: str, x0: float, y0: float, side: float = 1.0) -> Region:
    ring = np.array(
        [
            [x0, y0],
            [x0 + side, y0],
            [x0 + side, y0 + side],
            [x0, y0 + side],
            [x0, y0],
        ]
    )
    return Region(id=rid, geometry=[[ring]])


def partition_of(name: str, regions) -> Partition:
    """The regions as a Partition, each located at its shoelace centroid as
    load_partition locates it."""
    regions = tuple(regions)
    return Partition(name, regions, [polygon_area_centroid(r.geometry)[1] for r in regions])


def point_partition(name: str, centers: np.ndarray, side: float = 0.01) -> Partition:
    """Tiny disjoint square cells centered on the given points."""
    corners = np.atleast_2d(centers) - side / 2
    regions = [
        square_region(f"{name}_{k:03d}", x0, y0, side) for k, (x0, y0) in enumerate(corners)
    ]
    return Partition(name=name, regions=tuple(regions), centroids=corners + side / 2)


def save_aggregation_csv(amap: AggregationMap, path) -> None:
    """H as the CSV matrix ``--hmatrix`` reads: coarse ids label the rows, fine ids the columns."""
    write_csv(path, ["", *amap.fine.ids], amap.coarse.ids, amap.H)


def random_posteriors(rng: np.random.Generator, Xf: np.ndarray, n_aux: int):
    """Posteriors at the locations Xf, each of a GP with a random kernel and
    noise given random values at 2 to 8 random points of the unit square."""
    posteriors = []
    for s in range(n_aux):
        n = int(rng.integers(2, 9))
        model = AuxGPModel(
            dataset_id=f"aux{s}",
            params=SEKernelParams(float(rng.uniform(0.5, 1.2)), float(rng.uniform(0.1, 0.5))),
            noise_sigma=float(rng.uniform(0.05, 0.5)),
            train_centroids=rng.uniform(0.0, 1.0, size=(n, 2)),
            train_values=rng.normal(size=n),
            offset=0.0,
            scale=1.0,
            log_marginal=float("nan"),
        )
        posteriors.append(predict_aux(model, Xf))
    return posteriors


def posterior_with_mean(dataset_id: str, mean, Xf=None) -> AuxPosterior:
    """A posterior with the given mean and every covariance entry below 1e-10:
    that at Xf (default: the origin, once per entry of the mean) of a GP of
    amplitude 1e-5 given one value, with the mean replaced."""
    mean = np.asarray(mean, dtype=float)
    model = AuxGPModel(
        dataset_id=dataset_id,
        params=SEKernelParams(1e-5, 1.0),
        noise_sigma=1e-5,
        train_centroids=np.zeros((1, 2)),
        train_values=np.zeros(1),
        offset=0.0,
        scale=1.0,
        log_marginal=float("nan"),
    )
    post = predict_aux(model, np.zeros((mean.size, 2)) if Xf is None else Xf)
    return dataclasses.replace(post, mean=mean)


def random_H(rng: np.random.Generator, n_coarse: int, n_fine: int) -> np.ndarray:
    """Row-stochastic membership matrix with every coarse region non-empty."""
    assert n_fine >= n_coarse
    member = np.concatenate(
        [np.arange(n_coarse), rng.integers(0, n_coarse, size=n_fine - n_coarse)]
    )
    rng.shuffle(member)
    H = np.zeros((n_coarse, n_fine))
    for j, i in enumerate(member):
        H[i, j] = 1.0
    return H / H.sum(axis=1, keepdims=True)


def random_instance(rng: np.random.Generator, n_coarse: int, n_fine: int, n_aux: int):
    """Random coherent (params, a, design, posteriors, H, Xf) tuple."""
    Xf = rng.uniform(0.0, 1.0, size=(n_fine, 2))
    posteriors = random_posteriors(rng, Xf, n_aux)
    H = random_H(rng, n_coarse, n_fine)
    params = DownscaleParams(
        w=rng.normal(size=n_aux + 1),
        kernel=SEKernelParams(
            alpha=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.2, 1.0))
        ),
        sigma=float(rng.uniform(0.05, 0.8)),
    )
    design = build_design(posteriors, n_fine=n_fine)
    a = rng.normal(size=n_coarse)
    return params, a, design, posteriors, H, Xf


def hex_floats(obj):
    """obj with every float, in nested dicts and lists too, as float.hex: equal
    results compare equal only when every bit is."""
    if isinstance(obj, dict):
        return {k: hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [hex_floats(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    return obj


def posterior_arrays(post: AuxPosterior) -> list[np.ndarray]:
    """The arrays an auxiliary posterior holds: its mean, var and those of its reduction."""
    reduction = post.reduction
    return [post.mean, post.var, *(getattr(reduction, f.name) for f in dataclasses.fields(reduction))]


def pool_counts() -> list[int]:
    """The thread counts of the OpenBLAS pools, numpy's and scipy's."""
    return [get() for get, _ in numerics._POOLS]


def in_fresh_interpreter(module: str, function: str, env: dict) -> str:
    """The stdout of ``print(function())``, the function taken from the test
    module, in a new interpreter with the environment env. numpy is imported
    first, so BLAS starts with env's thread variables, not the ones this
    file sets for a module that imports it."""
    paths = [str(Path(__file__).parent), str(Path(numerics.__file__).parents[1])]
    code = (
        f"import numpy, sys; sys.path[:0] = {paths!r}; "
        f"from {module} import {function}; print({function}())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip()


def pytest_report_header(config):
    # every search runs on one BLAS thread whatever these say, and so do fit_downscale,
    # predict_aux, predict_fine and generate_synthetic; the rest of the suite follows them
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    if NUMPY_IMPORTED_FIRST:
        threads += " (numpy was imported before these were set; BLAS may not use them)"
    return f"BLAS threads: {threads}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def search_threads(monkeypatch):
    """set(k) gives a fit's search a pool of k threads: k cores, each over the
    one BLAS thread multistart_minimize pins in the real OpenBLAS pools, and
    helper threads however little work an objective call does."""

    def set_threads(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(numerics, "THREAD_MIN_FLOPS", 0)

    return set_threads


@pytest.fixture
def pools_at_two():
    """Both OpenBLAS pools at two threads for the test, and back at their counts
    after it; skipped without the pools' functions (a system BLAS, or MKL)."""
    if not numerics._POOLS:
        pytest.skip("needs OpenBLAS's thread-count functions")
    entry = pool_counts()
    for _, set_ in numerics._POOLS:
        set_(2)
    yield
    for (_, set_), n in zip(numerics._POOLS, entry):
        set_(n)


@pytest.fixture(scope="session")
def unit_grid_4x4():
    return grid_partition(4, 4, "fine")


@pytest.fixture(scope="session")
def grid_amap_2x2_over_4x4():
    coarse = grid_partition(2, 2, "coarse")
    fine = grid_partition(4, 4, "fine")
    return build_aggregation(coarse, fine)
