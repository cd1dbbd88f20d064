"""Metrics, significance testing, and the synthetic ground-truth generator."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from finescale.baselines import BaselineResult, gpr_baseline, lr_baseline, sd2_baseline
from finescale.downscale import build_design, fit_downscale, predict_fine
from finescale.geo import (
    AggregationMap,
    ArealDataset,
    InputError,
    Partition,
    Region,
    _closed_geometries,
    build_aggregation,
)
from finescale.gp_aux import fit_all_aux
from finescale.kernel import SEKernelParams, cov_matrix
from finescale.numerics import one_blas_thread


@dataclass(frozen=True)
class MetricReport:
    mape: float
    mae: float
    rmse: float
    rmspe: float
    ape_per_region: np.ndarray
    std_error_ape: float


def mape(truth, pred) -> MetricReport:
    """Absolute-percentage-error report; truth entries must be nonzero."""
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape:
        raise ValueError(f"length mismatch: {truth.shape} vs {pred.shape}")
    zeros = np.nonzero(truth == 0)[0]
    if zeros.size:
        raise ValueError(f"truth is zero at regions {zeros.tolist()}; MAPE undefined")
    ape = np.abs((truth - pred) / truth)
    err = truth - pred
    n = truth.size
    return MetricReport(
        mape=float(np.mean(ape)),
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err**2))),
        rmspe=float(np.sqrt(np.mean(ape**2))),
        ape_per_region=ape,
        std_error_ape=float(np.std(ape) / np.sqrt(n)),
    )


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float

    @property
    def stars(self) -> str:
        return "**" if self.p < 0.01 else ("*" if self.p < 0.05 else "")


def paired_ttest(ape_a, ape_b) -> TTestResult:
    """Two-sided paired t-test on per-region APE differences."""
    x = np.asarray(ape_a, dtype=float)
    y = np.asarray(ape_b, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise ValueError("need equal-length vectors with at least 3 entries")
    d = x - y
    n = d.size
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0)
        return TTestResult(t=np.inf if mean > 0 else -np.inf, p=0.0)
    # imported here: scipy.special would otherwise load with every CLI command
    import scipy.special

    t = mean / (sd / np.sqrt(n))
    p = 2.0 * float(scipy.special.stdtr(n - 1, -abs(t)))
    return TTestResult(t=float(t), p=p)


def grid_partition(nx: int, ny: int, name: str) -> Partition:
    """Axis-aligned nx-by-ny grid of square cells over the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError(f"invalid grid shape ({nx}, {ny})")
    dx, dy = 1.0 / nx, 1.0 / ny
    ids, geometries, centres = [], [], []
    for iy in range(ny):
        for ix in range(nx):
            x0, y0 = ix * dx, iy * dy
            ring = [[x0, y0], [x0 + dx, y0], [x0 + dx, y0 + dy], [x0, y0 + dy], [x0, y0]]
            ids.append(f"{name}_{iy:03d}_{ix:03d}")
            geometries.append([[ring]])
            centres.append((x0 + dx / 2, y0 + dy / 2))
    # one _closed_geometries call for all cells: a Region built directly pays its fixed cost
    regions = tuple(map(Region._of_closed, ids, _closed_geometries(geometries)))
    return Partition(name=name, regions=regions, centroids=centres)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generating configuration: grids, auxiliary granularities, true parameters."""

    fine_shape: tuple[int, int] = (12, 10)
    coarse_shape: tuple[int, int] = (6, 5)
    aux_shapes: tuple[tuple[int, int], ...] = ((4, 3), (8, 5), (12, 10))
    w: tuple[float, ...] = (0.3, -0.8, 2.0)
    bias: float = 1.0
    alpha: float = 0.4
    gamma: float = 0.12
    sigma: float = 0.05
    aux_alpha: float = 1.0
    aux_gamma: float = 0.12
    aux_noise: float = 0.05
    offset: float | None = None  # None: derived so the truth stays positive
    twin_latent: bool = False  # all auxiliaries observe one shared latent field

    def __post_init__(self):
        if len(self.w) != len(self.aux_shapes):
            raise InputError(
                "invalid synthetic spec: w length must match the number of auxiliary shapes"
            )
        if min(min(shape) for shape in (self.fine_shape, self.coarse_shape, *self.aux_shapes)) < 1:
            raise InputError("invalid synthetic spec: grid shapes must be positive")
        fx, fy = self.fine_shape
        cx, cy = self.coarse_shape
        if fx % cx or fy % cy:
            raise InputError(
                "invalid synthetic spec: fine grid must subdivide the coarse grid evenly"
            )


@dataclass(frozen=True)
class SyntheticInstance:
    fine: Partition
    coarse: Partition
    amap: AggregationMap
    aux_datasets: tuple[ArealDataset, ...]
    aux_ids: tuple[str, ...]
    z_true: np.ndarray
    a: ArealDataset
    true_w: np.ndarray  # auxiliary weights then bias (including the offset)


def default_offset(spec: SyntheticSpec) -> float:
    return 5.0 * (spec.alpha + spec.aux_alpha * sum(abs(v) for v in spec.w) + abs(spec.bias))


@one_blas_thread()
def generate_synthetic(
    spec: SyntheticSpec, seed: int = 0, aux_seed: int | None = None
) -> SyntheticInstance:
    """Sample the full generative chain on unit-square grids.

    Each auxiliary latent is drawn at its own centroids and observed with
    noise; its fine-centroid values are then drawn from the exact GP
    posterior given those observations. The target is the weighted fine
    latents plus a GP residual; the coarse data add aggregation noise.
    Bit-reproducible by seed; ``aux_seed`` pins the auxiliary observations
    separately so the target chain can be resampled conditionally, and the
    same at every BLAS thread count: it runs inside
    ``numerics.one_blas_thread``. Weights or an offset that are not finite
    raise InputError.
    """
    offset = default_offset(spec) if spec.offset is None else spec.offset
    if not all(math.isfinite(v) for v in (*spec.w, offset)):
        raise InputError(
            f"invalid synthetic spec: weights {list(spec.w)} and offset {offset} must be finite"
        )
    aux_rng = np.random.default_rng(
        np.random.SeedSequence([seed, 0]) if aux_seed is None else aux_seed
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    fine = grid_partition(*spec.fine_shape, name="fine")
    coarse = grid_partition(*spec.coarse_shape, name="coarse")
    amap = build_aggregation(coarse, fine)
    Xf = fine.centroids
    nf = Xf.shape[0]
    aux_kernel = SEKernelParams(spec.aux_alpha, spec.aux_gamma)

    def gp_draw(X: np.ndarray, generator) -> np.ndarray:
        K = cov_matrix(aux_kernel, X, X) + 1e-10 * spec.aux_alpha**2 * np.eye(X.shape[0])
        return np.linalg.cholesky(K) @ generator.standard_normal(X.shape[0])

    aux_parts = [
        grid_partition(*shape, name=f"aux{k}") for k, shape in enumerate(spec.aux_shapes)
    ]
    aux_datasets = []
    latents_fine = np.zeros((len(aux_parts), nf))
    if spec.twin_latent and aux_parts:
        # one shared latent observed at every granularity
        all_X = np.vstack([p.centroids for p in aux_parts])
        f_all = gp_draw(all_X, aux_rng)
        sizes = [p.centroids.shape[0] for p in aux_parts]
        f_at = [f_all[sum(sizes[:k]) : sum(sizes[: k + 1])] for k in range(len(aux_parts))]
    else:
        f_at = [gp_draw(p.centroids, aux_rng) for p in aux_parts]
    for k, part in enumerate(aux_parts):
        Xs = part.centroids
        y_s = f_at[k] + spec.aux_noise * aux_rng.standard_normal(Xs.shape[0])
        # fine values from the exact posterior given the observations
        A = cov_matrix(aux_kernel, Xs, Xs) + spec.aux_noise**2 * np.eye(Xs.shape[0])
        A += 1e-10 * spec.aux_alpha**2 * np.eye(Xs.shape[0])
        Ks = cov_matrix(aux_kernel, Xs, Xf)
        Ainv_y = np.linalg.solve(A, y_s)
        f_bar = Ks.T @ Ainv_y
        Sigma = cov_matrix(aux_kernel, Xf, Xf) - Ks.T @ np.linalg.solve(A, Ks)
        Sigma = 0.5 * (Sigma + Sigma.T) + 1e-10 * spec.aux_alpha**2 * np.eye(nf)
        latents_fine[k] = f_bar + np.linalg.cholesky(Sigma) @ rng.standard_normal(nf)
        aux_datasets.append(ArealDataset(part, y_s))

    target_kernel = SEKernelParams(spec.alpha, spec.gamma)
    Kz = cov_matrix(target_kernel, Xf, Xf) + 1e-10 * spec.alpha**2 * np.eye(nf)
    z_mean = latents_fine.T @ np.array(spec.w) + spec.bias + offset
    z = z_mean + np.linalg.cholesky(Kz) @ rng.standard_normal(nf)
    a_vals = amap.H @ z + spec.sigma * rng.standard_normal(len(coarse))
    return SyntheticInstance(
        fine=fine,
        coarse=coarse,
        amap=amap,
        aux_datasets=tuple(aux_datasets),
        aux_ids=tuple(p.name for p in aux_parts),
        z_true=z,
        a=ArealDataset(coarse, a_vals),
        true_w=np.concatenate([np.array(spec.w), [spec.bias + offset]]),
    )


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    report: MetricReport
    stars: str = ""


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    pairwise: dict  # (method_a, method_b) -> TTestResult

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "mape", "std_error", "mae", "rmse", "rmspe", "stars"])
        for row in self.rows:
            r = row.report
            writer.writerow(
                [row.method, repr(r.mape), repr(r.std_error_ape), repr(r.mae), repr(r.rmse),
                 repr(r.rmspe), row.stars]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"{'method':<10} {'MAPE':>10} {'std err':>10} {'MAE':>10} {'RMSE':>10} stars"]
        for row in self.rows:
            r = row.report
            lines.append(
                f"{row.method:<10} {r.mape:>10.4f} {r.std_error_ape:>10.4f} "
                f"{r.mae:>10.4f} {r.rmse:>10.4f} {row.stars}"
            )
        return "\n".join(lines)


METHODS = ("proposed", "gpr", "lr", "sd2")


class UnknownMethodError(InputError):
    """A method name outside METHODS."""


def run_methods(
    a: ArealDataset,
    aux_datasets: list[ArealDataset],
    amap: AggregationMap,
    methods=METHODS,
    seed: int = 0,
    restarts: int = 3,
    ridge: float = 0.0,
    gtol: float = 1e-6,
) -> dict[str, BaselineResult]:
    """Run each named method once; returns method -> result at the fine centroids.

    The proposed method's result carries the ``predict_fine`` mean; ``ridge``
    and ``gtol`` apply to its second-step fit only.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UnknownMethodError(f"unknown methods {unknown}; valid: {list(METHODS)}")
    fine = amap.fine
    posteriors = None
    if any(m != "gpr" for m in methods):
        fitted = fit_all_aux(aux_datasets, fine, restarts=restarts, seed=seed)
        posteriors = [post for _, post in fitted]
    results = {}
    for m in methods:
        if m == "proposed":
            params = fit_downscale(
                a, posteriors, fine, amap, restarts=restarts, seed=seed, ridge=ridge, gtol=gtol
            )
            design = build_design(posteriors, n_fine=len(fine))
            mean = predict_fine(params, a, design, posteriors, amap).mean
            results[m] = BaselineResult(prediction=mean)
        elif m == "gpr":
            results[m] = gpr_baseline(a, fine, restarts=restarts, seed=seed)
        elif m == "lr":
            results[m] = lr_baseline(a, posteriors, amap)
        else:
            results[m] = sd2_baseline(a, posteriors, amap, restarts=restarts, seed=seed)
    return results


def run_comparison(
    a: ArealDataset,
    aux_datasets: list[ArealDataset],
    amap: AggregationMap,
    truth: np.ndarray,
    methods=METHODS,
    seed: int = 0,
    restarts: int = 3,
    ridge: float = 0.0,
    gtol: float = 1e-6,
) -> ComparisonTable:
    """Evaluate the named methods against the fine-level truth with pairwise t-tests.

    Stars on the first listed method are those of its weakest pair, the one
    with the largest p: ** when p < 0.01 against every other method, * when
    p < 0.05 against every other method.
    """
    methods = tuple(methods)
    if not methods:
        return ComparisonTable(rows=(), pairwise={})
    results = run_methods(
        a, aux_datasets, amap, methods=methods, seed=seed, restarts=restarts, ridge=ridge, gtol=gtol
    )
    reports = {m: mape(truth, results[m].prediction) for m in methods}
    pairwise = {}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1 :]:
            pairwise[(m1, m2)] = paired_ttest(
                reports[m1].ape_per_region, reports[m2].ape_per_region
            )
    ref = methods[0]
    ref_tests = [pairwise[(ref, m)] for m in methods[1:]]
    weakest = max(ref_tests, key=lambda t: t.p).stars if ref_tests else ""
    rows = tuple(
        ComparisonRow(method=m, report=reports[m], stars=weakest if m == ref else "")
        for m in methods
    )
    return ComparisonTable(rows=rows, pairwise=pairwise)
