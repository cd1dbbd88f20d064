import numpy as np
import pytest

from conftest import point_partition, posterior_with_mean
from finescale.baselines import gpr_baseline, lr_baseline, sd2_baseline
from finescale.downscale import build_design, lstsq_warm_start
from finescale.evaluate import grid_partition
from finescale.geo import ArealDataset, build_aggregation
from finescale.gp_aux import AuxGPModel, predict_aux
from finescale.kernel import SEKernelParams


@pytest.fixture(scope="module")
def smooth_setup():
    coarse = grid_partition(5, 5, "coarse")
    fine = grid_partition(10, 10, "fine")
    amap = build_aggregation(coarse, fine)
    f = lambda X: np.sin(3 * X[:, 0]) + 0.5 * np.cos(2 * X[:, 1]) + 3.0
    a = ArealDataset(coarse, f(coarse.centroids))
    return coarse, fine, amap, a, f


def test_gpr_constant_field_predicts_constant():
    coarse = grid_partition(4, 4, "c")
    fine = grid_partition(8, 8, "f")
    a = ArealDataset(coarse, np.full(16, 2.75))
    res = gpr_baseline(a, fine, restarts=3, seed=0)
    assert np.allclose(res.prediction, 2.75, atol=1e-6)
    assert res.variance is not None


def test_gpr_interpolates_at_coincident_centroids(smooth_setup):
    coarse, _, _, a, f = smooth_setup
    # a fine partition whose centroids coincide with the coarse centroids
    fine = point_partition("coincident", coarse.centroids)
    res = gpr_baseline(a, fine, restarts=3, seed=0)
    assert np.max(np.abs(res.prediction - a.values)) < 0.02


def test_gpr_remote_centroid_reverts_to_mean(smooth_setup):
    coarse, _, _, a, _ = smooth_setup
    remote = point_partition("remote", np.array([[100.0, 100.0]]))
    res = gpr_baseline(a, remote, restarts=3, seed=0)
    assert res.prediction[0] == pytest.approx(float(np.mean(a.values)), abs=1e-6)


def test_lr_perfectly_explanatory_auxiliary(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids))
    # auxiliary aggregates close to a itself; grid averaging introduces a gap,
    # so force exact agreement at the coarse level
    a_exact = ArealDataset(coarse, amap.H @ post.mean)
    res = lr_baseline(a_exact, [post], amap)
    design = build_design([post], n_fine=len(fine))
    w = lstsq_warm_start(a_exact.values, design, amap.H)
    assert np.array_equal(res.prediction, design.F @ w)
    assert w == pytest.approx([1.0, 0.0], abs=1e-8)  # aux, bias
    assert np.max(np.abs(res.prediction - post.mean)) <= 1e-8


def test_lr_zero_auxiliaries_predicts_coarse_mean(smooth_setup):
    coarse, fine, amap, a, _ = smooth_setup
    res = lr_baseline(a, [], amap)
    assert np.allclose(res.prediction, np.mean(a.values), atol=1e-10)


def test_lr_duplicated_columns_same_fitted_values(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids) ** 1.3)
    single = lr_baseline(a, [post], amap)
    double = lr_baseline(a, [post, post], amap)
    fit1 = amap.H @ single.prediction
    fit2 = amap.H @ double.prediction
    assert np.max(np.abs(fit1 - fit2)) <= 1e-10


def test_lr_least_squares_optimality(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    rng = np.random.default_rng(5)
    posts = [
        posterior_with_mean("a1", f(fine.centroids)),
        posterior_with_mean("a2", rng.normal(size=len(fine))),
    ]
    res = lr_baseline(a, posts, amap)
    best = np.linalg.norm(a.values - amap.H @ res.prediction)
    F = np.column_stack([posts[0].mean, posts[1].mean, np.ones(len(fine))])
    w_hat = lstsq_warm_start(a.values, build_design(posts, n_fine=len(fine)), amap.H)
    assert np.array_equal(res.prediction, F @ w_hat)
    for _ in range(50):
        w_probe = w_hat + rng.normal(0, 0.1, size=3)
        probe = np.linalg.norm(a.values - amap.H @ (F @ w_probe))
        assert best <= probe + 1e-12


def test_sd2_equals_lr_plus_kriged_residual(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids) + 0.1)
    lr = lr_baseline(a, [post], amap)
    kernel, sigma = SEKernelParams(0.5, 0.3), 0.05
    res = sd2_baseline(a, [post], amap, residual_params=(kernel, sigma))
    residuals = a.values - amap.H @ lr.prediction
    model = AuxGPModel(
        dataset_id="check",
        params=kernel,
        noise_sigma=sigma,
        train_centroids=coarse.centroids,
        train_values=residuals,
        offset=0.0,
        scale=1.0,
        log_marginal=0.0,
    )
    kriged = predict_aux(model, fine.centroids).mean
    assert np.max(np.abs((res.prediction - lr.prediction) - kriged)) <= 1e-10


def test_sd2_zero_residuals_gives_regression_surface(smooth_setup):
    coarse, fine, amap, _, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids))
    a_exact = ArealDataset(coarse, amap.H @ post.mean)  # residuals identically 0
    res = sd2_baseline(a_exact, [post], amap, residual_params=(SEKernelParams(0.5, 0.3), 0.01))
    lr = lr_baseline(a_exact, [post], amap)
    assert np.max(np.abs(res.prediction - lr.prediction)) <= 1e-9


def test_sd2_no_auxiliaries_is_mean_plus_kriging(smooth_setup):
    coarse, fine, amap, a, _ = smooth_setup
    res = sd2_baseline(a, [], amap, restarts=3, seed=0)
    lr = lr_baseline(a, [], amap)
    assert np.allclose(lr.prediction, np.mean(a.values), atol=1e-10)
    # kriged residuals move the prediction away from the flat mean
    assert np.std(res.prediction) > np.std(lr.prediction)


def test_sd2_aggregation_gap_shrinks_with_residual_noise(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids) ** 1.2)
    kernel = SEKernelParams(0.5, 0.3)
    gaps = []
    for sigma in (1e-2, 1e-4, 1e-6):
        res = sd2_baseline(a, [post], amap, residual_params=(kernel, sigma))
        gaps.append(np.max(np.abs(amap.H @ res.prediction - a.values)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_baselines_deterministic(smooth_setup):
    coarse, fine, amap, a, f = smooth_setup
    post = posterior_with_mean("aux", f(fine.centroids))
    for fn in (
        lambda: gpr_baseline(a, fine, restarts=2, seed=3).prediction,
        lambda: lr_baseline(a, [post], amap).prediction,
        lambda: sd2_baseline(a, [post], amap, restarts=2, seed=3).prediction,
    ):
        assert np.array_equal(fn(), fn())
