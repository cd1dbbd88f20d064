"""Comparison methods: GP interpolation, regression disaggregation, and
two-stage downscaling with residual kriging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finescale.downscale import build_design, lstsq_warm_start
from finescale.geo import AggregationMap, ArealDataset, Partition
from finescale.gp_aux import AuxGPModel, AuxPosterior, fit_aux_gp, predict_aux
from finescale.kernel import SEKernelParams


@dataclass(frozen=True)
class BaselineResult:
    prediction: np.ndarray
    variance: np.ndarray | None = None


def gpr_baseline(
    a: ArealDataset, fine: Partition, restarts: int = 5, seed: int = 0
) -> BaselineResult:
    """Plain GP interpolation of the coarse data at the fine centroids."""
    model = fit_aux_gp(a, restarts=restarts, seed=seed, dataset_id="gpr_target")
    post = predict_aux(model, fine.centroids)
    return BaselineResult(prediction=post.mean, variance=post.var)


def lr_baseline(
    a: ArealDataset, posteriors: list[AuxPosterior], amap: AggregationMap
) -> BaselineResult:
    """OLS of the coarse values on coarse-aggregated auxiliary means.

    Rank-deficient systems take the minimum-norm solution; the prediction is
    the fine design times the fitted weights.
    """
    design = build_design(posteriors, n_fine=len(amap.fine))
    w = lstsq_warm_start(a.values, design, amap.H)
    return BaselineResult(prediction=design.F @ w)


def sd2_baseline(
    a: ArealDataset,
    posteriors: list[AuxPosterior],
    amap: AggregationMap,
    restarts: int = 5,
    seed: int = 0,
    residual_params: tuple[SEKernelParams, float] | None = None,
) -> BaselineResult:
    """Regression surface plus simple kriging of the coarse residuals.

    Stage 1 is the lr fit; stage 2 fits a zero-mean GP to the coarse
    residuals and adds its fine-centroid prediction. ``residual_params``
    pins the residual GP's (kernel, noise) instead of fitting them.
    """
    lr = lr_baseline(a, posteriors, amap)
    residuals = a.values - amap.H @ lr.prediction
    coarse_X = amap.coarse.centroids
    fine_X = amap.fine.centroids
    if residual_params is not None:
        kernel, sigma = residual_params
        model = AuxGPModel(
            dataset_id="sd2_residual",
            params=kernel,
            noise_sigma=sigma,
            train_centroids=coarse_X,
            train_values=residuals,
            offset=0.0,
            scale=1.0,
            log_marginal=float("nan"),
        )
    else:
        res_data = ArealDataset(amap.coarse, residuals)
        model = fit_aux_gp(
            res_data, restarts=restarts, seed=seed, dataset_id="sd2_residual", center=False
        )
    kriged = predict_aux(model, fine_X).mean
    return BaselineResult(prediction=lr.prediction + kriged)
