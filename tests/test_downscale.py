import dataclasses
import functools
import json
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BLAS_THREAD_VARS,
    LATTICE_SHAPES,
    always,
    factor_copy,
    grad_check,
    hex_floats,
    in_fresh_interpreter,
    off_grid,
    point_partition,
    pool_counts,
    posterior_with_mean,
    random_H,
    random_instance,
    random_posteriors,
    se_kernel,
    snapped,
)
from finescale import downscale, gp_aux, kernel, lattice
from finescale.downscale import (
    DesignMatrix,
    DownscaleFitError,
    DownscaleParams,
    _DenseKernel,
    _neg_log_marginal,
    _pack,
    _Problem,
    assemble_lambda,
    build_design,
    fit_downscale,
    grad_log_marginal,
    log_marginal,
    predict_fine,
)
from finescale.evaluate import SyntheticSpec, generate_synthetic, grid_partition
from finescale.geo import AggregationMap, ArealDataset, Partition, build_aggregation
from finescale.gp_aux import (
    AuxGPModel,
    AuxPosterior,
    DenseReduction,
    fit_all_aux,
    predict_aux,
)
from finescale.kernel import JITTER_REL, SEKernelParams, cov_matrix, se_from_sq_dists, sq_dists
from finescale.numerics import (
    FactorizationError,
    cholesky_in_place,
    gaussian_nll,
    log_det,
    one_blas_thread,
    solve,
)


def pack(params):
    return np.concatenate(
        [
            params.w,
            [
                np.log(params.kernel.alpha),
                np.log(params.kernel.gamma),
                np.log(params.sigma),
            ],
        ]
    )


def unpack(theta, n_w):
    return DownscaleParams(
        w=theta[:n_w],
        kernel=SEKernelParams.from_log(theta[n_w], theta[n_w + 1]),
        sigma=float(np.exp(theta[n_w + 2])),
    )


# The dense second-step formulas, with the nf x nf Omega formed for every
# call, kept as the oracle for the prepared problem that fit_downscale and
# predict_fine share.
@dataclass(frozen=True)
class DenseAssembly:
    Omega: np.ndarray
    Lambda: np.ndarray
    factor: object  # CholeskyFactor


def dense_assemble_lambda(params, posteriors, fine_centroids, amap_or_H):
    """Omega = K + sum_s w_s^2 Sigma_s; Lambda = sigma^2 I + H Omega H^T."""
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    Omega = cov_matrix(params.kernel, fine_centroids, fine_centroids)
    for k, post in enumerate(posteriors):
        Omega = Omega + params.w[k] ** 2 * post.cov
    Omega = 0.5 * (Omega + Omega.T)
    nc = H.shape[0]
    Lam = params.sigma**2 * np.eye(nc) + H @ Omega @ H.T
    Lam = 0.5 * (Lam + Lam.T)
    jitter = JITTER_REL * (params.sigma**2 + params.kernel.alpha**2)
    factor = factor_copy(Lam + jitter * np.eye(nc))
    return DenseAssembly(Omega=Omega, Lambda=Lam, factor=factor)


def dense_log_marginal(params, a, design, assembly, H):
    """-1/2 r^T Lambda^-1 r - 1/2 log det Lambda - n/2 log 2pi, r = a - H F w."""
    a = np.asarray(a, dtype=float)
    r = a - H @ (design.F @ params.w)
    p = solve(assembly.factor, r)
    n = a.size
    return float(-0.5 * r @ p - 0.5 * log_det(assembly.factor) - 0.5 * n * np.log(2 * np.pi))


def dense_grad_log_marginal(params, a, design, posteriors, amap_or_H, fine_centroids, assembly=None):
    """Analytic gradient over (w_1..w_S, w_0, log alpha, log gamma, log sigma).

    Each covariance-parameter entry is 1/2 tr((p p^T - Lambda^-1) dLambda),
    p = Lambda^-1 (a - H F w); the weight entries add the mean-term
    contribution (H F_col)^T p.
    """
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    if assembly is None:
        assembly = dense_assemble_lambda(params, posteriors, fine_centroids, H)
    a = np.asarray(a, dtype=float)
    nc = a.size
    alpha, gamma, sigma = params.kernel.alpha, params.kernel.gamma, params.sigma
    r = a - H @ (design.F @ params.w)
    p = solve(assembly.factor, r)
    Linv = solve(assembly.factor, np.eye(nc))

    def trace_term(dLam: np.ndarray) -> float:
        return 0.5 * (float(p @ dLam @ p) - float(np.sum(Linv * dLam)))

    S = len(posteriors)
    grad = np.zeros(S + 1 + 3)
    HF = H @ design.F
    for s in range(S):
        dLam_s = 2.0 * params.w[s] * (H @ posteriors[s].cov @ H.T)
        grad[s] = float(HF[:, s] @ p) + trace_term(dLam_s)
    grad[S] = float(HF[:, S] @ p)  # bias: Lambda does not depend on w_0

    D2 = sq_dists(fine_centroids, fine_centroids)
    K = se_from_sq_dists(alpha, gamma, D2)
    jit = JITTER_REL
    I_c = np.eye(nc)
    # log-space chain rule: d/d log(theta) = theta * d/d theta
    dLam_la = H @ (2.0 * K) @ H.T + 2.0 * jit * alpha**2 * I_c
    dLam_lg = H @ (K * (D2 / gamma**2)) @ H.T
    dLam_ls = 2.0 * sigma**2 * (1.0 + jit) * I_c
    grad[S + 1] = trace_term(dLam_la)
    grad[S + 2] = trace_term(dLam_lg)
    grad[S + 3] = trace_term(dLam_ls)
    return grad


def dense_predict_fine(params, a, design, posteriors, amap_or_H, fine=None):
    """(mean, cov) of the fine field: mean F w + Omega H^T Lambda^-1 (a - H F w),
    covariance Omega - Omega H^T Lambda^-1 H Omega.
    """
    a_vec = a.values if isinstance(a, ArealDataset) else np.asarray(a, dtype=float)
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    if isinstance(fine, Partition):
        Xf = fine.centroids
    elif fine is not None:
        Xf = np.asarray(fine, dtype=float)
    elif isinstance(amap_or_H, AggregationMap):
        Xf = amap_or_H.fine.centroids
    else:
        raise ValueError("fine centroids required")
    assembly = dense_assemble_lambda(params, posteriors, Xf, H)
    m0 = design.F @ params.w
    r = a_vec - H @ m0
    OmHt = assembly.Omega @ H.T
    mean = m0 + OmHt @ solve(assembly.factor, r)
    cov = assembly.Omega - OmHt @ solve(assembly.factor, OmHt.T)
    cov = 0.5 * (cov + cov.T)
    d = np.diag(cov).copy()
    if d.min() < -1e-8:
        raise RuntimeError(f"predictive variance {d.min()} below clamp tolerance")
    np.fill_diagonal(cov, np.maximum(d, 0.0))
    return mean, cov


def neg_log_marginal_objective(a, design, posteriors, H, Xf):
    """The dense oracle's -log marginal, and its gradient where ``accept`` of
    the value holds, as an objective of (theta, accept)."""
    n_w = design.F.shape[1]

    def f(theta, accept):
        params = unpack(theta, n_w)
        assembly = dense_assemble_lambda(params, posteriors, Xf, H)
        val = -dense_log_marginal(params, a, design, assembly, H)
        grad = -dense_grad_log_marginal(params, a, design, posteriors, H, Xf, assembly)
        return val, (grad if accept(val) else None)

    return f


def composition_log_marginal(params, a, design, posteriors, H, Xf):
    """Independent oracle: build the joint Gaussian of (auxiliary fields, z, a)
    by explicit affine composition and evaluate the marginal density of a."""
    nf = Xf.shape[0]
    nc = H.shape[0]
    S = len(posteriors)
    w_aux, w0 = params.w[:S], params.w[S]
    # stacked auxiliary fields u with block-diagonal covariance
    if S:
        u_mean = np.concatenate([p.mean for p in posteriors])
        u_cov = np.zeros((S * nf, S * nf))
        for s, p in enumerate(posteriors):
            u_cov[s * nf : (s + 1) * nf, s * nf : (s + 1) * nf] = p.cov
        B = np.hstack([w_aux[s] * np.eye(nf) for s in range(S)])
    else:
        u_mean = np.zeros(0)
        u_cov = np.zeros((0, 0))
        B = np.zeros((nf, 0))
    # z = B u + w0 1 + GP residual; a = H z + aggregation noise
    K = np.array(
        [[se_kernel(params.kernel, Xf[i], Xf[j]) for j in range(nf)] for i in range(nf)]
    )
    mean_a = H @ (B @ u_mean + w0 * np.ones(nf))
    cov_a = H @ (B @ u_cov @ B.T + K) @ H.T + params.sigma**2 * np.eye(nc)
    cov_a += JITTER_REL * (params.sigma**2 + params.kernel.alpha**2) * np.eye(nc)
    return float(scipy.stats.multivariate_normal(mean_a, cov_a).logpdf(a))


def entrywise_lambda(params, posteriors, Xf, H):
    """Independent oracle: double-sum covariance entries over member regions."""
    nc = H.shape[0]
    members = [np.nonzero(H[i] > 0)[0] for i in range(nc)]
    Lam = np.zeros((nc, nc))
    for i in range(nc):
        for ip in range(nc):
            total = 0.0
            for j in members[i]:
                for jp in members[ip]:
                    val = se_kernel(params.kernel, Xf[j], Xf[jp])
                    for s, p in enumerate(posteriors):
                        val += params.w[s] ** 2 * p.cov[j, jp]
                    total += val
            Lam[i, ip] = total / (len(members[i]) * len(members[ip]))
            if i == ip:
                Lam[i, ip] += params.sigma**2
    return Lam


def test_build_design_intercept_only():
    d = build_design([], n_fine=3)
    assert np.array_equal(d.F, np.ones((3, 1)))
    assert d.column_ids == ("bias",)


def test_build_design_single_posterior():
    post = posterior_with_mean("a", [1.0, 2.0])
    d = build_design([post], n_fine=2)
    assert np.array_equal(d.F, [[1.0, 1.0], [2.0, 1.0]])
    assert d.column_ids == ("a", "bias")


def test_build_design_rejects_mismatched_lengths():
    p1 = posterior_with_mean("a", np.zeros(2))
    p2 = posterior_with_mean("b", np.zeros(3))
    with pytest.raises(ValueError):
        build_design([p1, p2], n_fine=2)


def test_lambda_no_aux_identity_H():
    rng = np.random.default_rng(1)
    Xf = rng.uniform(size=(5, 2))
    params = DownscaleParams(w=np.array([0.3]), kernel=SEKernelParams(0.8, 0.4), sigma=0.2)
    assembly = assemble_lambda(params, [], Xf, np.eye(5))
    expected = 0.2**2 * np.eye(5) + cov_matrix(params.kernel, Xf, Xf)
    assert np.allclose(assembly.Lambda, expected, atol=1e-14)


def test_lambda_independent_of_posteriors_when_weights_zero(rng):
    Xf = rng.uniform(size=(6, 2))
    H = random_H(rng, 3, 6)
    posteriors = random_posteriors(rng, Xf, 2)
    params = DownscaleParams(
        w=np.array([0.0, 0.0, 1.5]), kernel=SEKernelParams(1.0, 0.5), sigma=0.3
    )
    with_aux = assemble_lambda(params, posteriors, Xf, H)
    without = assemble_lambda(params, [], Xf, H)
    assert np.allclose(with_aux.Lambda, without.Lambda, atol=1e-14)


def test_lambda_entrywise_oracle(rng):
    for _ in range(5):
        nc = int(rng.integers(2, 5))
        nf = int(rng.integers(nc, 10))
        S = int(rng.integers(0, 3))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        assembly = assemble_lambda(params, posteriors, Xf, H)
        oracle = entrywise_lambda(params, posteriors, Xf, H)
        rel = np.abs(assembly.Lambda - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() <= 1e-12


def test_log_marginal_scalar_gaussian():
    # single coarse region, single fine region, no auxiliaries
    Xf = np.array([[0.5, 0.5]])
    H = np.array([[1.0]])
    mu, alpha, sigma = 2.0, 0.7, 0.3
    params = DownscaleParams(w=np.array([mu]), kernel=SEKernelParams(alpha, 1.0), sigma=sigma)
    design = build_design([], n_fine=1)
    assembly = assemble_lambda(params, [], Xf, H)
    a = np.array([3.1])
    v = sigma**2 + alpha**2
    expected = -0.5 * (a[0] - mu) ** 2 / v - 0.5 * np.log(v) - 0.5 * np.log(2 * np.pi)
    got = log_marginal(params, a, design, assembly, H)
    assert got == pytest.approx(expected, abs=1e-7)


def test_log_marginal_matches_composition_oracle(rng):
    for _ in range(8):
        nc = int(rng.integers(2, 5))
        nf = int(rng.integers(nc, 7))  # |fine| <= 6
        S = int(rng.integers(0, 3))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        assembly = assemble_lambda(params, posteriors, Xf, H)
        got = log_marginal(params, a, design, assembly, H)
        expected = composition_log_marginal(params, a, design, posteriors, H, Xf)
        assert got == pytest.approx(expected, abs=1e-10)


def test_log_marginal_matches_monte_carlo_density(rng):
    # single coarse region: compare the closed form against a sampled density
    nc, nf, S = 1, 4, 1
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    params = DownscaleParams(w=params.w, kernel=params.kernel, sigma=0.5)
    assembly = assemble_lambda(params, posteriors, Xf, H)
    a = np.array([float((H @ (design.F @ params.w))[0]) + 0.3])
    closed = np.exp(log_marginal(params, a, design, assembly, H))

    n_samp = 100_000
    K = cov_matrix(params.kernel, Xf, Xf) + 1e-12 * np.eye(nf)
    Lk = np.linalg.cholesky(K)
    Ls = np.linalg.cholesky(posteriors[0].cov + 1e-12 * np.eye(nf))
    f = posteriors[0].mean + (Ls @ rng.standard_normal((nf, n_samp))).T
    z_mean = params.w[0] * f + params.w[1]
    z = z_mean + (Lk @ rng.standard_normal((nf, n_samp))).T
    hz = z @ H[0]
    # conditional density of a given each sampled z is Gaussian
    dens = np.exp(-0.5 * ((a[0] - hz) / params.sigma) ** 2) / (
        params.sigma * np.sqrt(2 * np.pi)
    )
    est = dens.mean()
    se = dens.std() / np.sqrt(n_samp)
    assert abs(est - closed) <= 3 * se, f"MC {est} vs closed {closed} (se {se})"


def test_noise_derivative_entries(rng):
    nc, nf, S = 3, 6, 1
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    params = DownscaleParams(w=params.w, kernel=params.kernel, sigma=0.3)
    h = 1e-6
    lam = lambda s: assemble_lambda(
        DownscaleParams(w=params.w, kernel=params.kernel, sigma=s), posteriors, Xf, H
    ).Lambda
    dLam = (lam(0.3 + h) - lam(0.3 - h)) / (2 * h)
    assert np.allclose(np.diag(dLam), 0.6, atol=1e-6)
    off = dLam - np.diag(np.diag(dLam))
    assert np.max(np.abs(off)) <= 1e-6


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        nc = int(rng.integers(2, 6))
        nf = int(rng.integers(max(nc, 4), 13))
        S = int(rng.integers(0, 4))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        f = neg_log_marginal_objective(a, design, posteriors, H, Xf)
        err = grad_check(f, pack(params))
        assert err <= 1e-5


def test_weight_gradient_sign_at_zero_weights(rng):
    # with w = 0 the quadratic term's weight derivative reduces to
    # (H F column)^T Lambda^-1 a; verified against finite differences
    nc, nf, S = 3, 6, 2
    _, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    params = DownscaleParams(
        w=np.zeros(S + 1), kernel=SEKernelParams(1.0, 0.5), sigma=0.4
    )
    f = neg_log_marginal_objective(a, design, posteriors, H, Xf)
    assert grad_check(f, pack(params)) <= 1e-5
    assembly = assemble_lambda(params, posteriors, Xf, H)
    g = grad_log_marginal(params, a, design, posteriors, H, Xf, assembly)
    lam_inv_a = solve(assembly.factor, a)
    for s in range(S + 1):
        assert g[s] == pytest.approx(float((H @ design.F[:, s]) @ lam_inv_a), abs=1e-10)


def test_fit_intercept_only_recovers_constant():
    fine = grid_partition(3, 3, "f")
    a = np.full(9, 4.2)
    params = fit_downscale(a, [], fine, np.eye(9), restarts=3, seed=0)
    assert params.w[0] == pytest.approx(4.2, abs=1e-3)


def test_fit_duplicate_posterior_same_fitted_mean(rng):
    coarse = grid_partition(3, 2, "c")
    fine = grid_partition(6, 4, "f")
    amap = build_aggregation(coarse, fine)
    # near-zero posterior covariance: duplicated columns then only split the
    # mean weight, so both fits share the same coarse-level regression surface
    post = posterior_with_mean("a", np.sin(3 * fine.centroids[:, 0]), fine.centroids)
    a = amap.H @ (2.0 * post.mean + 1.0) + 0.01 * rng.standard_normal(len(coarse))
    p1 = fit_downscale(a, [post], fine, amap, restarts=3, seed=0)
    p2 = fit_downscale(a, [post, post], fine, amap, restarts=3, seed=0)
    d1 = build_design([post], n_fine=len(fine))
    d2 = build_design([post, post], n_fine=len(fine))
    fit1 = amap.H @ (d1.F @ p1.w)
    fit2 = amap.H @ (d2.F @ p2.w)
    assert np.max(np.abs(fit1 - fit2)) <= 1e-4


def test_predict_exact_observation_limit(rng):
    # H = I with tiny noise reproduces the observations
    nf = 8
    Xf = rng.uniform(size=(nf, 2))
    posteriors = random_posteriors(rng, Xf, 1)
    params = DownscaleParams(
        w=np.array([0.5, 1.0]), kernel=SEKernelParams(1.0, 0.4), sigma=1e-8
    )
    design = build_design(posteriors, n_fine=nf)
    a = rng.normal(size=nf)
    ref = predict_fine(params, a, design, posteriors, np.eye(nf), fine=Xf)
    assert np.max(np.abs(ref.mean - a)) <= 1e-4
    assert np.max(ref.var) <= 1e-4


def test_predict_zero_residual_returns_regression_surface(rng):
    nc, nf, S = 3, 6, 1
    params, _, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    a = H @ (design.F @ params.w)  # observations equal the fitted mean exactly
    ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
    assert np.allclose(ref.mean, design.F @ params.w, atol=1e-10)


def test_predict_aggregation_consistency_small_sigma(rng):
    nc, nf, S = 3, 9, 2
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    params = DownscaleParams(w=params.w, kernel=params.kernel, sigma=1e-6)
    ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
    assert np.max(np.abs(H @ ref.mean - a)) <= 1e-3


def test_predict_covariance_properties(rng):
    nc, nf, S = 3, 8, 2
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    assembly = assemble_lambda(params, posteriors, Xf, H)
    ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
    assert np.array_equal(ref.cov, ref.cov.T)
    assert np.min(np.diag(ref.cov)) >= 0.0
    # coarse-level posterior variance never exceeds the prior Lambda
    reduction = np.diag(assembly.Lambda) - np.diag(H @ ref.cov @ H.T)
    assert np.min(reduction) >= -1e-10


def test_predict_zero_weights_is_gp_interpolation(rng):
    # with w = 0 and H = I the refinement is plain GP regression of a
    nf = 7
    Xf = rng.uniform(size=(nf, 2))
    params = DownscaleParams(w=np.array([0.0]), kernel=SEKernelParams(1.0, 0.4), sigma=0.2)
    design = build_design([], n_fine=nf)
    a = rng.normal(size=nf)
    ref = predict_fine(params, a, design, [], np.eye(nf), fine=Xf)
    K = cov_matrix(params.kernel, Xf, Xf)
    jit = JITTER_REL * (params.sigma**2 + params.kernel.alpha**2)
    direct = K @ np.linalg.solve(K + (params.sigma**2 + jit) * np.eye(nf), a)
    assert np.allclose(ref.mean, direct, atol=1e-8)


@pytest.mark.parametrize("ids", [["aux0", "bias"], ["aux0", "aux1", "aux2", "bias"]])
def test_params_to_dict_rejects_column_ids_of_another_length(ids):
    # zipping two ids with three weights used to drop one and file w_1 as bias
    params = DownscaleParams(w=np.array([0.5, -1.0, 2.0]), kernel=SEKernelParams(1.0, 0.5), sigma=0.1)
    with pytest.raises(ValueError, match="column ids for 3 weights"):
        params.to_dict(column_ids=ids)
    with pytest.raises(TypeError):
        params.to_dict()


def test_params_to_dict_rejects_duplicate_column_ids():
    # {aux0: ..., aux0: ...} would keep one of the two weights
    params = DownscaleParams(w=np.array([0.5, -1.0, 2.0]), kernel=SEKernelParams(1.0, 0.5), sigma=0.1)
    with pytest.raises(ValueError, match="duplicate column ids"):
        params.to_dict(column_ids=["aux0", "aux0", "bias"])


def test_params_json_round_trip():
    params = DownscaleParams(
        w=np.array([0.5, -1.2, 3.0]),
        kernel=SEKernelParams(0.9, 0.33),
        sigma=0.07,
        diagnostics={"log_marginal": -12.5},
    )
    d = params.to_dict(column_ids=["a", "b", "bias"])
    back = DownscaleParams.from_dict(d)
    assert np.allclose(back.w, params.w, atol=1e-15)
    assert back.kernel.alpha == pytest.approx(params.kernel.alpha, rel=1e-15)
    assert back.sigma == pytest.approx(params.sigma, rel=1e-15)
    assert d["column_ids"] == ["a", "b", "bias"]


def test_fit_is_deterministic(rng):
    coarse = grid_partition(3, 2, "c")
    fine = grid_partition(6, 4, "f")
    amap = build_aggregation(coarse, fine)
    posteriors = random_posteriors(rng, fine.centroids, 2)
    a = rng.normal(size=len(coarse)) + 3.0
    p1 = fit_downscale(a, posteriors, fine, amap, restarts=3, seed=7)
    p2 = fit_downscale(a, posteriors, fine, amap, restarts=3, seed=7)
    assert np.array_equal(p1.w, p2.w)
    assert p1.kernel == p2.kernel
    assert p1.sigma == p2.sigma


def prepared_objective(a, design, posteriors, H, Xf):
    prob = _Problem.build(a, posteriors, Xf, H)
    prob.check_handed_back(design)
    prob = prob.for_search().for_thread()
    return lambda theta, accept: _neg_log_marginal(prob, theta, accept)


@pytest.mark.parametrize("S", [0, 1, 3])
def test_prepared_objective_matches_dense_oracle(rng, S):
    for _ in range(5):
        nc = int(rng.integers(2, 6))
        nf = int(rng.integers(max(nc, 4), 13))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        val, grad = prepared_objective(a, design, posteriors, H, Xf)(pack(params), always)
        dense_val, dense_grad = neg_log_marginal_objective(a, design, posteriors, H, Xf)(
            pack(params), always
        )
        assert val == pytest.approx(dense_val, rel=1e-10)
        assert np.max(np.abs(grad - dense_grad) / np.maximum(1.0, np.abs(dense_grad))) <= 1e-8


def test_prepared_gradient_matches_finite_differences(rng):
    for _ in range(10):
        nc = int(rng.integers(2, 6))
        nf = int(rng.integers(max(nc, 4), 13))
        S = int(rng.integers(0, 4))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        assert grad_check(prepared_objective(a, design, posteriors, H, Xf), pack(params)) <= 1e-5


class _Captured(Exception):
    """Raised in place of fit_downscale's search, once its jobs are captured."""


def fit_objective(monkeypatch, *args, **kwargs):
    """A fresh objective of the one job fit_downscale hands its search, and its starts."""
    jobs = []

    def capture(js, gtol):
        jobs.extend(js)
        raise _Captured

    with monkeypatch.context() as m, pytest.raises(_Captured):
        m.setattr(downscale, "multistart_minimize", capture)
        fit_downscale(*args, **kwargs)
    [(make_objective, starts, _)] = jobs
    return make_objective(), starts


def test_objective_computes_the_gradient_only_where_accept_holds(rng, monkeypatch):
    coarse, fine = grid_partition(3, 2, "c"), grid_partition(6, 4, "f")
    amap = build_aggregation(coarse, fine)
    posteriors = random_posteriors(rng, fine.centroids, 2)
    a = rng.normal(size=len(coarse)) + 3.0
    plain, starts = fit_objective(monkeypatch, a, posteriors, fine, amap, restarts=3)
    ridged, _ = fit_objective(monkeypatch, a, posteriors, fine, amap, restarts=3, ridge=0.5)
    for theta in starts:
        values = {}
        for name, f in (("plain", plain), ("ridged", ridged)):
            seen = []
            rejected, grad = f(theta, lambda value: seen.append(value) or False)
            assert grad is None
            value, grad = f(theta, lambda value: seen.append(value) or True)
            assert np.all(np.isfinite(grad))
            # one test per call, of the very value the call returns
            assert [float(v).hex() for v in seen] == [value.hex()] * 2
            assert rejected.hex() == value.hex()
            values[name] = value
        # the ridged objective's test reads the penalized value
        v = theta[:2]
        assert values["ridged"] == values["plain"] + 0.5 * float(v @ v) != values["plain"]


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_objective_is_invariant_under_permutation(data):
    # fine regions (H columns, Xf rows, posterior entries), coarse rows and
    # auxiliaries in another order: the same value, and the gradient
    # permuted as the weights are
    nc = data.draw(st.integers(2, 6))
    nf = data.draw(st.integers(max(nc, 4), 13))
    S = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    fine = np.array(data.draw(st.permutations(range(nf))))
    rows = np.array(data.draw(st.permutations(range(nc))))
    aux = data.draw(st.permutations(range(S)))
    moved = [
        AuxPosterior(
            p.dataset_id, p.mean[fine], p.var[fine], DenseReduction(p.reduction.W[:, fine]),
            p.kernel, p.Xf[fine],
        )
        for p in (posteriors[s] for s in aux)
    ]
    theta = pack(params)
    order = np.concatenate([np.array(aux, dtype=int), np.arange(S, S + 4)])
    value, grad = prepared_objective(a, design, posteriors, H, Xf)(theta, always)
    moved_value, moved_grad = prepared_objective(
        a[rows], build_design(moved, n_fine=nf), moved, H[np.ix_(rows, fine)], Xf[fine]
    )(theta[order], always)
    assert abs(moved_value - value) <= 1e-10 * abs(value)
    assert np.all(np.abs(moved_grad - grad[order]) <= 1e-10 * np.abs(grad).max())


def test_grad_log_marginal_refuses_inputs_the_assembly_was_not_built_from(rng):
    params, a, design, posteriors, H, Xf = random_instance(rng, 4, 10, 2)
    assembly = assemble_lambda(params, posteriors, Xf, H)
    want = grad_log_marginal(params, a, design, posteriors, H, Xf, assembly)
    _, grad = prepared_objective(a, design, posteriors, H, Xf)(pack(params), always)
    assert np.array_equal(want, -grad)
    other_H = H[::-1]
    moved = Xf + np.array([0.0, 1e-9])
    for bad_H, bad_Xf in ((other_H, Xf), (H, moved), (H, Xf[:-1])):
        with pytest.raises(ValueError):
            grad_log_marginal(params, a, design, posteriors, bad_H, bad_Xf, assembly)
    with pytest.raises(ValueError, match="1 posteriors for an assembly built from 2"):
        grad_log_marginal(params, a, design, posteriors[:1], H, Xf, assembly)


def test_log_marginal_refuses_an_h_the_assembly_was_not_built_from(rng):
    params, a, design, posteriors, H, Xf = random_instance(rng, 4, 10, 2)
    assembly = assemble_lambda(params, posteriors, Xf, H)
    value, _ = prepared_objective(a, design, posteriors, H, Xf)(pack(params), lambda v: False)
    assert log_marginal(params, a, design, assembly, H) == -value
    with pytest.raises(ValueError, match="the one the assembly was built from"):
        log_marginal(params, a, design, assembly, H[::-1])


def test_fit_restarts_match_dense_objective(monkeypatch):
    # 24x20 fine / 8x5 coarse: every restart takes the same BFGS path when
    # the prepared objective is swapped for the dense oracle
    inst = generate_synthetic(SyntheticSpec(fine_shape=(24, 20), coarse_shape=(8, 5)), seed=0)
    amap = build_aggregation(inst.coarse, inst.fine)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    prepared = fit_downscale(inst.a, posteriors, inst.fine, amap, restarts=3, seed=0)

    design = build_design(posteriors, n_fine=len(inst.fine))
    dense = neg_log_marginal_objective(
        inst.a.values, design, posteriors, amap.H, inst.fine.centroids
    )
    monkeypatch.setattr(downscale, "_neg_log_marginal", lambda prob, *args: dense(*args))
    oracle = fit_downscale(inst.a, posteriors, inst.fine, amap, restarts=3, seed=0)

    got = prepared.diagnostics["restart_records"]
    want = oracle.diagnostics["restart_records"]
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g["iterations"] == w["iterations"]
        assert g["evaluations"] == w["evaluations"]
        assert g["objective"] == pytest.approx(w["objective"], rel=1e-8)


def fine_kernel_paths(monkeypatch):
    """"lattice", then "dense": from the second item on ``lattice.detect``
    finds no lattice, so the second step takes the ``_DenseKernel`` on fine
    regions that form one, as it does on off-grid regions."""
    yield "lattice"
    monkeypatch.setattr(lattice, "detect", lambda X: None)
    yield "dense"


def test_fit_is_the_same_on_one_and_two_threads(search_threads, monkeypatch):
    # the threads share the lattice kernel; on the dense one each thread
    # scales its own nf x nf array in place
    inst = generate_synthetic(SyntheticSpec(fine_shape=(24, 20), coarse_shape=(8, 5)), seed=1)
    amap = build_aggregation(inst.coarse, inst.fine)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    for path in fine_kernel_paths(monkeypatch):
        fits = []
        for k in (1, 2):
            search_threads(k)
            params = fit_downscale(inst.a, posteriors, inst.fine, amap, restarts=3, seed=0)
            assert params.diagnostics["workers"] == k
            assert params.diagnostics["gram"]["path"] == path
            saved = params.to_dict(column_ids=inst.aux_ids + ("bias",))
            fits.append(hex_floats([saved.pop("diagnostics")["restart_records"], saved]))
        assert len(fits[0][0]) == 3
        assert fits[0] == fits[1]


def factored_lambdas(theta, a, posteriors, fine, H) -> list[np.ndarray]:
    """Copies of the matrices the fit's objective and predict_fine hand to
    cholesky_in_place, which factors them in place, in that order, at the packed theta."""
    factored = []
    downscale.cholesky_in_place = lambda A: factored.append(A.copy()) or cholesky_in_place(A)
    try:
        with one_blas_thread():  # as fit_downscale runs them; predict_fine pins itself
            prob = _Problem.build(a, posteriors, fine, H).for_search().for_thread()
            _neg_log_marginal(prob, theta, lambda value: False)
        design = build_design(posteriors, n_fine=len(fine))
        n_w = design.F.shape[1]
        params = DownscaleParams(
            w=theta[:n_w], kernel=SEKernelParams.from_log(*theta[n_w:-1]), sigma=np.exp(theta[-1])
        )
        predict_fine(params, a, design, posteriors, H, fine=fine)
    finally:
        downscale.cholesky_in_place = cholesky_in_place
    return factored


def test_predict_factors_the_lambda_the_fit_factors(monkeypatch):
    # the fit takes K H^T from its whole K on the dense kernel, predict_fine
    # one block of rows at a time; both from the same routine on the lattice one
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    H = inst.amap.H
    for path in fine_kernel_paths(monkeypatch):
        params = fit_downscale(inst.a, posteriors, inst.fine, inst.amap, restarts=2, seed=0)
        assert params.diagnostics["gram"]["path"] == path
        theta = _pack(params.w, params.kernel, params.sigma)
        # the objective sees the fitted floats themselves
        assert list(np.exp(theta[-3:])) == [params.kernel.alpha, params.kernel.gamma, params.sigma]
        fit_lambda, refine_lambda = factored_lambdas(theta, inst.a, posteriors, inst.fine, H)
        assert np.array_equal(fit_lambda, refine_lambda)


def test_every_matrix_handed_to_cholesky_in_place_is_exactly_symmetric(monkeypatch):
    # dpotrf reads one triangle and nothing checks the other, so each Gram of
    # the auxiliary fits and of predict_aux, and each Lambda of the fit and of
    # predict_fine, must equal its transpose bit for bit; also under a dense
    # row-stochastic H, one that --hmatrix may give
    seen = {gp_aux: [], downscale: []}
    for module, calls in seen.items():

        def watched(A, calls=calls):
            calls.append(A.tobytes() == A.T.tobytes())
            return cholesky_in_place(A)

        monkeypatch.setattr(module, "cholesky_in_place", watched)
    inst = generate_synthetic(SyntheticSpec(fine_shape=(12, 10), coarse_shape=(4, 5)), seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    design = build_design(posteriors, n_fine=len(inst.fine))
    dense = np.random.default_rng(0).uniform(0.1, 1.0, size=inst.amap.H.shape)
    dense /= dense.sum(axis=1, keepdims=True)
    for H in (inst.amap.H, dense):
        params = fit_downscale(inst.a, posteriors, inst.fine, H, restarts=2, seed=0)
        predict_fine(params, inst.a, design, posteriors, H, fine=inst.fine)
    assert all(calls and all(calls) for calls in seen.values())


def test_predict_fine_refuses_a_design_not_its_posteriors_own(rng):
    # a design of other columns would move the refined mean without an error
    params, a, design, posteriors, H, Xf = random_instance(rng, 4, 12, 2)
    predict_fine(params, a, design, posteriors, H, fine=Xf)
    reordered = build_design(posteriors[::-1], n_fine=12)
    F = design.F.copy()
    F[5, 0] += 1.0
    for other in (reordered, DesignMatrix(F=F, column_ids=design.column_ids)):
        with pytest.raises(ValueError, match="not the posteriors' own"):
            predict_fine(params, a, other, posteriors, H, fine=Xf)


def lambdas_agree_at_refine_scale() -> dict[str, bool]:
    """At 1200 fine x 48 coarse regions, whether the fit and predict_fine
    factor the same Lambda to the bit, with the H of the grids and with a
    dense row-stochastic H (one ``--hmatrix`` may give), on the lattice
    kernel the fine grid takes and on the dense one, which ``lattice.detect``
    forces when it finds no lattice."""
    spec = SyntheticSpec(fine_shape=(40, 30), coarse_shape=(8, 6))
    inst = generate_synthetic(spec, seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    theta = _pack(inst.true_w, SEKernelParams(spec.alpha, spec.gamma), spec.sigma)
    stochastic = np.random.default_rng(0).uniform(0.1, 1.0, size=inst.amap.H.shape)
    stochastic /= stochastic.sum(axis=1, keepdims=True)
    agree, detect = {}, lattice.detect
    try:
        for path in ("lattice", "dense"):
            if path == "dense":
                lattice.detect = lambda X: None
            for name, H in (("grid", inst.amap.H), ("stochastic", stochastic)):
                taken = _Problem.build(None, [], inst.fine, H).kernel.diagnostics["path"]
                fit_lambda, refine_lambda = factored_lambdas(theta, inst.a, posteriors, inst.fine, H)
                agree[f"{taken}, {name}"] = bool(np.array_equal(fit_lambda, refine_lambda))
    finally:
        lattice.detect = detect
    return agree


@pytest.mark.parametrize("threads", [1, 2])
def test_predict_factors_the_lambda_the_fit_factors_at_refine_scale(threads):
    # a fresh interpreter, so that BLAS starts with this many threads
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads))}
    out = in_fresh_interpreter("test_downscale", "lambdas_agree_at_refine_scale", env)
    assert out == (
        "{'lattice, grid': True, 'lattice, stochastic': True, "
        "'dense, grid': True, 'dense, stochastic': True}"
    )


def both_steps_fitted() -> str:
    """fit_all_aux and fit_downscale on the default synthetic spec (seed 0):
    the models, every float as hex, and the OpenBLAS pools' thread counts
    before and after."""
    before = pool_counts()
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=2, dataset_ids=inst.aux_ids)
    params = fit_downscale(inst.a, [post for _, post in fitted], inst.fine, inst.amap, restarts=2)
    models = [model.to_dict() for model, _ in fitted]
    models.append(params.to_dict(column_ids=inst.aux_ids + ("bias",)))
    return json.dumps({"models": hex_floats(models), "pools": [before, pool_counts()]})


def test_fits_with_blas_unpinned_give_the_bits_of_a_pinned_run_and_put_the_pools_back():
    # with no variable exported, OpenBLAS starts on every core; the fits run
    # on one BLAS thread anyway, and leave the pools as they found them
    unpinned = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    pinned = {**unpinned, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    runs = [
        json.loads(in_fresh_interpreter("test_downscale", "both_steps_fitted", env))
        for env in (pinned, unpinned)
    ]
    assert runs[0]["models"] == runs[1]["models"]  # workers included
    for run in runs:
        before, after = run["pools"]
        assert after == before


def test_refine_predictions_run_on_one_blas_thread_and_put_the_pools_back(
    monkeypatch, rng, pools_at_two
):
    # predict_aux and predict_fine pin BLAS as the fits do, so what refine
    # writes does not follow the environment either
    params, a, design, posteriors, H, Xf = random_instance(rng, 4, 12, 2)
    model = AuxGPModel(
        dataset_id="aux", params=SEKernelParams(1.0, 0.3), noise_sigma=0.1,
        train_centroids=Xf[:6], train_values=rng.normal(size=6),
        offset=0.0, scale=1.0, log_marginal=0.0,
    )
    seen = []
    for module in (gp_aux, downscale):
        solve_lower = module.solve_lower
        monkeypatch.setattr(
            module, "solve_lower", lambda F, b, f=solve_lower: seen.append(pool_counts()) or f(F, b)
        )
    predict_aux(model, Xf)
    predict_fine(params, a, design, posteriors, H, Xf)
    assert seen == [[1, 1], [1, 1]]
    assert pool_counts() == [2, 2]


def test_log_marginal_under_ridge_is_the_log_marginal_likelihood():
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    posteriors = [post for _, post in fitted]
    params = fit_downscale(inst.a, posteriors, inst.fine, inst.amap, restarts=2, ridge=0.5)
    design = build_design(posteriors, n_fine=len(inst.fine))
    assembly = assemble_lambda(params, posteriors, inst.fine.centroids, inst.amap)
    want = log_marginal(params, inst.a.values, design, assembly, inst.amap.H)
    assert params.diagnostics["log_marginal"] == pytest.approx(want, rel=1e-12, abs=0)
    # the records keep the penalized objective the search minimized
    w = params.w[:-1]
    best = min(r["objective"] for r in params.diagnostics["restart_records"])
    assert best == pytest.approx(-want + 0.5 * float(w @ w), rel=1e-12, abs=0)


def _predict_case(rng, case):
    """(params, a, design, posteriors, amap_or_H, fine) for one predict_fine case."""
    if case == "amap_fine":  # the posteriors at the map's fine centroids
        amap = build_aggregation(grid_partition(3, 2, "c"), grid_partition(6, 4, "f"))
        params, a, _, _, _, _ = random_instance(rng, 6, 24, 2)
        posteriors = random_posteriors(rng, amap.fine.centroids, 2)
        return params, a, build_design(posteriors, n_fine=24), posteriors, amap, None
    if case == "identity_H":
        params, a, design, posteriors, _, Xf = random_instance(rng, 9, 9, 1)
        return params, a, design, posteriors, np.eye(9), Xf
    nc = int(rng.integers(2, 6))
    nf = int(rng.integers(max(nc, 4), 13))
    S = 2 if case == "dense_H" else int(case[1:])
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    if case == "dense_H":  # every fine region in every coarse one, unequal weights
        H = rng.uniform(0.1, 1.0, size=(nc, nf))
        H /= H.sum(axis=1, keepdims=True)
    return params, a, design, posteriors, H, Xf


@pytest.mark.parametrize("case", ["S0", "S1", "S3", "dense_H", "identity_H", "amap_fine"])
def test_predict_matches_dense_oracle(rng, case):
    for _ in range(4):
        args = _predict_case(rng, case)
        ref = predict_fine(*args[:5], fine=args[5])
        mean, cov = dense_predict_fine(*args[:5], fine=args[5])
        assert np.max(np.abs(ref.mean - mean)) <= 1e-12 * np.max(np.abs(mean))
        assert np.max(np.abs(ref.var - np.diag(cov))) <= 1e-10 * np.max(np.abs(cov))
        assert np.max(np.abs(ref.cov - cov)) <= 1e-10 * np.max(np.abs(cov))
        assert np.array_equal(ref.cov, ref.cov.T)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_predict_is_invariant_under_permutation(data):
    # the fine regions (H columns, Xf rows, posterior entries) in another
    # order, over kernel row blocks of 1 to 64 rows, so that the order moves
    # the regions between blocks: mean, variance and covariance permuted,
    # nothing else changed
    nc = data.draw(st.integers(2, 8))
    nf = data.draw(st.integers(nc, 150))
    S = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    block_rows = data.draw(st.integers(1, 64))
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    fine = np.array(data.draw(st.permutations(range(nf))))
    moved = [
        AuxPosterior(
            p.dataset_id, p.mean[fine], p.var[fine], DenseReduction(p.reduction.W[:, fine]),
            p.kernel, p.Xf[fine],
        )
        for p in posteriors
    ]
    default_rows, kernel.KERNEL_ROWS = kernel.KERNEL_ROWS, block_rows
    try:
        ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
        got = predict_fine(
            params, a, build_design(moved, n_fine=nf), moved, H[:, fine], fine=Xf[fine]
        )
    finally:
        kernel.KERNEL_ROWS = default_rows
    for want, have in ((ref.mean[fine], got.mean), (ref.var[fine], got.var),
                       (ref.cov[np.ix_(fine, fine)], got.cov)):
        assert np.all(np.abs(have - want) <= 1e-10 * np.abs(want).max())


def test_predict_without_fine_centroids_is_rejected(rng):
    params, a, design, posteriors, H, _ = random_instance(rng, 3, 6, 1)
    with pytest.raises(ValueError, match="fine centroids required"):
        predict_fine(params, a, design, posteriors, H)


def test_fine_locations_that_disagree_with_H_are_rejected(rng):
    # a fine partition in another order than the map's was once fitted and
    # refined with each centroid beside another region's column of H
    amap = build_aggregation(grid_partition(2, 2, "c"), grid_partition(4, 2, "f"))
    fine = amap.fine
    order = np.roll(np.arange(len(fine)), 1)
    permuted = Partition("permuted", tuple(fine.regions[k] for k in order), fine.centroids[order])
    posteriors = random_posteriors(rng, fine.centroids, 1)
    design = build_design(posteriors, n_fine=len(fine))
    params = DownscaleParams(w=np.array([0.5, 1.0]), kernel=SEKernelParams(1.0, 0.3), sigma=0.2)
    a = rng.normal(size=len(amap.coarse))
    with pytest.raises(ValueError, match="fine partition 'permuted' .* fine partition 'f'"):
        fit_downscale(a, posteriors, permuted, amap, restarts=1)
    with pytest.raises(ValueError, match="fine partition 'permuted' .* fine partition 'f'"):
        predict_fine(params, a, design, posteriors, amap, fine=permuted)
    short = fine.centroids[:-1]
    for amap_or_H in (amap, amap.H):
        with pytest.raises(ValueError, match=r"shape \(7, 2\) for an H with 8 columns"):
            fit_downscale(a, posteriors, short, amap_or_H, restarts=1)
        with pytest.raises(ValueError, match=r"shape \(7, 2\) for an H with 8 columns"):
            predict_fine(params, a, design, posteriors, amap_or_H, fine=short)


def test_posterior_not_at_the_fine_locations_is_refused(rng):
    # such a posterior once mixed its Sigma_s and design rows, taken at other
    # places, into the refinement
    params, a, design, posteriors, H, Xf = random_instance(rng, 3, 8, 2)
    elsewhere = random_posteriors(rng, Xf[::-1], 1)[0]
    moved = [posteriors[0], dataclasses.replace(elsewhere, dataset_id="moved")]
    with pytest.raises(ValueError, match="posterior 'moved' is not at the fine locations"):
        fit_downscale(a, moved, Xf, H, restarts=1)
    with pytest.raises(ValueError, match="posterior 'moved' is not at the fine locations"):
        predict_fine(params, a, design, moved, H, fine=Xf)
    with pytest.raises(ValueError, match="posterior 'moved' is not at the fine locations"):
        assemble_lambda(params, moved, Xf, H)


@pytest.fixture(scope="module")
def synthetic_second_step():
    """``SyntheticSpec()`` at seed 0, its auxiliary fits, and its generating
    second-step parameters."""
    spec = SyntheticSpec()
    inst = generate_synthetic(spec, seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=1, dataset_ids=inst.aux_ids)
    kernel = SEKernelParams(spec.alpha, spec.gamma)
    return inst, fitted, DownscaleParams(w=inst.true_w, kernel=kernel, sigma=spec.sigma)


def test_a_that_is_not_one_finite_value_per_coarse_region_is_refused(synthetic_second_step):
    # a.values[:1] beside the 30 coarse regions was broadcast by predict_fine,
    # moving the refined mean by up to 4.92, and ended the fit in a LinAlgError
    inst, fitted, params = synthetic_second_step
    posteriors = [post for _, post in fitted]
    design = build_design(posteriors, n_fine=len(inst.fine))
    nan_first = np.where(np.arange(30) == 0, np.nan, inst.a.values)
    for a, shape in ((inst.a.values[:1], r"\(1,\)"), (nan_first, r"\(30,\)")):
        match = f"a of shape {shape} for an H with 30 rows"
        with pytest.raises(ValueError, match=match):
            fit_downscale(a, posteriors, inst.fine, inst.amap, restarts=1)
        with pytest.raises(ValueError, match=match):
            predict_fine(params, a, design, posteriors, inst.amap)


def test_target_not_on_the_maps_coarse_regions_in_order_is_refused(synthetic_second_step):
    # the target on the coarse regions listed in reverse was fitted to a
    # log-marginal of -134.19, not -8.78, and refined off by up to 5.18
    inst, fitted, params = synthetic_second_step
    posteriors = [post for _, post in fitted]
    design = build_design(posteriors, n_fine=len(inst.fine))
    coarse = inst.coarse
    backwards = Partition("reversed", coarse.regions[::-1], coarse.centroids[::-1])
    target = ArealDataset(backwards, inst.a.values[::-1])
    match = f"target partition 'reversed' .* coarse partition {coarse.name!r}"
    with pytest.raises(ValueError, match=match):
        fit_downscale(target, posteriors, inst.fine, inst.amap, restarts=1)
    with pytest.raises(ValueError, match=match):
        predict_fine(params, target, design, posteriors, inst.amap)


def test_fine_centroids_that_are_not_the_maps_are_refused(synthetic_second_step):
    # the reversed fine centroids beside the map, as an array or as a partition
    # of the map's fine ids, with the posteriors predicted there, were fitted
    # to a log-marginal of -134.19
    inst, fitted, params = synthetic_second_step
    backwards = inst.fine.centroids[::-1]
    moved = Partition("moved", inst.fine.regions, backwards)
    posteriors = [predict_aux(model, backwards) for model, _ in fitted]
    design = build_design(posteriors, n_fine=len(inst.fine))
    match = f"not the map's fine centroids, {inst.fine.name!r}'s"
    for fine in (backwards, moved):
        with pytest.raises(ValueError, match=match):
            fit_downscale(inst.a, posteriors, fine, inst.amap, restarts=1)
        with pytest.raises(ValueError, match=match):
            predict_fine(params, inst.a, design, posteriors, inst.amap, fine=fine)
        with pytest.raises(ValueError, match=match):
            assemble_lambda(params, posteriors, fine, inst.amap)


def test_log_marginal_and_its_gradient_refuse_a_design_not_the_assemblys(synthetic_second_step):
    # log_marginal answered -500.94 on the design of the posteriors reversed
    inst, fitted, params = synthetic_second_step
    posteriors = [post for _, post in fitted]
    Xf, H, a = inst.fine.centroids, inst.amap.H, inst.a.values
    assembly = assemble_lambda(params, posteriors, Xf, H)
    foreign = build_design(posteriors[::-1], n_fine=len(inst.fine))
    with pytest.raises(ValueError, match="not the posteriors' own"):
        log_marginal(params, a, foreign, assembly, H)
    with pytest.raises(ValueError, match="not the posteriors' own"):
        grad_log_marginal(params, a, foreign, posteriors, H, Xf, assembly)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_second_step_answers_matching_inputs_and_refuses_each_mismatch(data):
    nc = data.draw(st.integers(2, 6))
    nf = data.draw(st.integers(max(nc, 4), 13))
    S = data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
    coarse = point_partition("c", rng.uniform(0.0, 1.0, size=(nc, 2)))
    amap = AggregationMap(coarse, Partition("f", point_partition("f", Xf).regions, Xf), H)
    assembly = assemble_lambda(params, posteriors, Xf, H)

    # matching inputs, in each form they may take: the bits of the log-density
    # of the residual on the assembly's factor, of the objective's gradient,
    # and of one refinement
    want = -gaussian_nll(assembly.factor, a - H @ (design.F @ params.w))[0]
    assert log_marginal(params, a, design, assembly, H) == want
    _, grad = prepared_objective(a, design, posteriors, H, Xf)(pack(params), always)
    for amap_or_H in (H, amap):
        got = grad_log_marginal(params, a, design, posteriors, amap_or_H, Xf, assembly)
        assert np.array_equal(got, -grad)
    ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
    for target, amap_or_H, fine in ((ArealDataset(coarse, a), amap, None), (a, amap, Xf)):
        got = predict_fine(params, target, design, posteriors, amap_or_H, fine=fine)
        assert np.array_equal(got.mean, ref.mean) and np.array_equal(got.var, ref.var)

    # each single mismatch
    rows, cols = np.roll(np.arange(nc), 1), np.roll(np.arange(nf), 1)
    permuted = Partition("permuted", tuple(coarse.regions[k] for k in rows), coarse.centroids[rows])
    foreign = build_design(posteriors[1:] + posteriors[:1], n_fine=nf)
    refused = [
        ("a of shape", lambda a=a[:-1]: log_marginal(params, a, design, assembly, H)),
        ("a of shape", lambda a=np.append(a, 0.0): grad_log_marginal(
            params, a, design, posteriors, H, Xf, assembly)),
        ("a of shape", lambda a=a[:-1]: predict_fine(params, a, design, posteriors, H, fine=Xf)),
        ("target partition 'permuted'", lambda: predict_fine(
            params, ArealDataset(permuted, a[rows]), design, posteriors, amap)),
        ("target partition 'permuted'", lambda: grad_log_marginal(
            params, ArealDataset(permuted, a[rows]), design, posteriors, amap, Xf, assembly)),
        ("not the map's fine centroids", lambda: predict_fine(
            params, a, design, posteriors, amap, fine=Xf[cols])),
        ("not the map's fine centroids", lambda: grad_log_marginal(
            params, a, design, posteriors, amap, Xf[cols], assembly)),
        ("not the posteriors' own", lambda: log_marginal(params, a, foreign, assembly, H)),
        ("not the posteriors' own", lambda: grad_log_marginal(
            params, a, foreign, posteriors, H, Xf, assembly)),
        ("not the posteriors' own", lambda: predict_fine(
            params, a, foreign, posteriors, H, fine=Xf)),
        (f"{S - 1} posteriors for an assembly built from {S}", lambda: grad_log_marginal(
            params, a, design, posteriors[:-1], H, Xf, assembly)),
        ("not the posteriors' own", lambda: predict_fine(
            params, a, design, posteriors[:-1], H, fine=Xf)),
    ]
    for match, call in refused:
        with pytest.raises(ValueError, match=match):
            call()


def test_fit_records_every_restart(rng):
    coarse = grid_partition(3, 2, "c")
    fine = grid_partition(6, 4, "f")
    amap = build_aggregation(coarse, fine)
    posteriors = random_posteriors(rng, fine.centroids, 2)
    a = rng.normal(size=len(coarse)) + 3.0
    params = fit_downscale(a, posteriors, fine, amap, restarts=4, seed=7)
    records = params.diagnostics["restart_records"]
    assert len(records) == 4
    best = min(records, key=lambda r: r["objective"])
    assert params.diagnostics["log_marginal"] == -best["objective"]
    assert params.diagnostics["iterations"] == best["iterations"]
    assert all(r["evaluations"] > r["iterations"] for r in records)
    assert all(r["converged"] == (r["stop"] == "gtol") for r in records)
    # one gradient at the start and one per accepted step
    assert all(r["gradients"] == r["iterations"] + 1 for r in records)
    assert all(r["evaluations"] >= r["feasible"] >= r["gradients"] for r in records)


def test_fit_programming_error_propagates(monkeypatch):
    def broken(M):
        raise TypeError("not a factorization failure")

    monkeypatch.setattr(downscale, "cholesky_in_place", broken)
    with pytest.raises(TypeError, match="not a factorization failure"):
        fit_downscale(np.full(9, 4.2), [], grid_partition(3, 3, "f"), np.eye(9), restarts=2)


def test_fit_factorization_failure_on_every_restart_is_typed(monkeypatch):
    def not_pd(M):
        raise FactorizationError("not positive definite")

    monkeypatch.setattr(downscale, "cholesky_in_place", not_pd)
    with pytest.raises(DownscaleFitError, match="all restarts"):
        fit_downscale(np.full(9, 4.2), [], grid_partition(3, 3, "f"), np.eye(9), restarts=2)


def test_refine_holds_no_nf_by_nf_array(monkeypatch):
    # 1200 fine x 48 coarse regions, three auxiliaries: the posteriors and
    # the refinement stay below 9 MB, under one 1200 x 1200 float64 array
    # (11.5 MB), until the dense covariance is read; on the lattice kernel,
    # and on the dense one, which forms k(Xf, Xf) H^T one block of rows at a time
    spec = SyntheticSpec(fine_shape=(40, 30), coarse_shape=(8, 6))
    inst = generate_synthetic(spec, seed=0)
    models = [m for m, _ in fit_all_aux(inst.aux_datasets, inst.fine, restarts=1)]
    params = DownscaleParams(
        w=inst.true_w, kernel=SEKernelParams(spec.alpha, spec.gamma), sigma=spec.sigma
    )
    nf = len(inst.fine)
    for path in fine_kernel_paths(monkeypatch):
        assert _Problem.build(None, [], inst.fine, inst.amap).kernel.diagnostics["path"] == path
        tracemalloc.start()
        try:
            posteriors = [predict_aux(model, inst.fine.centroids) for model in models]
            design = build_design(posteriors, n_fine=nf)
            ref = predict_fine(params, inst.a, design, posteriors, inst.amap)
            _, refined_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cov = ref.cov
            _, cov_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refined_peak < 9e6 < nf * nf * 8 < cov_peak
        assert np.array_equal(np.diag(cov), ref.var)



def lattice_and_dense_problems(rng, nx, ny, uneven: bool, stochastic: bool):
    """One second-step problem on a shuffled lattice moved off its grid, with
    a membership H or a dense row-stochastic one, twice: with the
    ``LatticeKernel`` of the points and with the ``_DenseKernel`` of the points
    they snap to, both ready for ``_neg_log_marginal``; and its packed theta."""
    if uneven:
        gx, gy = np.sort(rng.uniform(size=nx)), np.sort(rng.uniform(size=ny))
    else:
        gx, gy = (np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny
    X = off_grid(rng, gx, gy)
    lat = lattice.detect(X)
    assert (lat.gx.size, lat.gy.size) == (nx, ny)
    Xs = snapped(lat)
    nf, nc = nx * ny, int(rng.integers(1, min(nx * ny, 12) + 1))
    if stochastic:
        H = rng.uniform(0.1, 1.0, size=(nc, nf))
        H /= H.sum(axis=1, keepdims=True)
    else:
        H = random_H(rng, nc, nf)
    posteriors = random_posteriors(rng, Xs, int(rng.integers(0, 3)))
    prob = _Problem.build(rng.normal(size=nc), posteriors, Xs, H)
    kernels = (lattice.LatticeKernel.build(lat, H), _DenseKernel(Xs, H))
    probs = [dataclasses.replace(prob, kernel=k).for_search().for_thread() for k in kernels]
    w = rng.normal(size=len(posteriors) + 1)
    theta = np.concatenate([w, [rng.uniform(-1.0, 0.5), 0.0, np.log(rng.uniform(0.2, 1.0))]])
    return probs, theta


@pytest.mark.parametrize("nx, ny", LATTICE_SHAPES)
def test_the_lattice_kernel_objective_is_the_dense_one(rng, nx, ny):
    # cell centres and uneven spacings, shuffled and moved off the grid by up
    # to the snap tolerance, under a membership H and a user row-stochastic one:
    # the objective on the Kronecker operator against the dense one on the
    # points it snapped to, from the nugget limit to a long length scale
    for uneven in (False, True):
        for stochastic in (False, True):
            (on_lattice, dense), theta = lattice_and_dense_problems(rng, nx, ny, uneven, stochastic)
            KHt, scaled = on_lattice.kernel.at(0.7, 0.3)
            want_KHt, want_scaled = dense.kernel.at(0.7, 0.3)
            assert np.abs(KHt - want_KHt).max() <= 1e-14 * np.abs(want_KHt).max()
            want = want_scaled()
            assert np.abs(scaled() - want).max() <= 1e-14 * max(np.abs(want).max(), 1e-300)
            for log_gamma in (-20.0, -12.0, -4.0, -2.0, -1.0, 0.0, 1.0, 3.0):
                theta[-2] = log_gamma
                value, grad = _neg_log_marginal(on_lattice, theta, always)
                want_value, want_grad = _neg_log_marginal(dense, theta, always)
                assert abs(value - want_value) <= 1e-12 * abs(want_value)
                assert np.abs(grad - want_grad).max() <= 1e-10 * np.abs(want_grad).max()


def test_the_lattice_kernel_gradient_matches_finite_differences(rng):
    for nx, ny in ((2, 3), (6, 4), (12, 10)):
        for stochastic in (False, True):
            (on_lattice, _), theta = lattice_and_dense_problems(rng, nx, ny, True, stochastic)
            f = functools.partial(_neg_log_marginal, on_lattice)
            for _ in range(4):
                theta[-3:] = rng.normal(0.0, 0.7, size=3) + [0.0, -1.0, -1.0]
                assert grad_check(f, theta) <= 1e-5
                value, grad = f(theta, lambda v: False)
                assert grad is None and value == f(theta, always)[0]


def test_the_second_step_takes_the_lattice_kernel_where_the_fine_regions_form_one():
    # any fine lattice, down to 2 x 2; a 1-row grid, or regions off a lattice, dense
    coarse = grid_partition(2, 1, "c")
    for shape, path in (((8, 4), "lattice"), ((2, 2), "lattice"), ((6, 1), "dense")):
        fine = grid_partition(*shape, "f")
        prob = _Problem.build(None, [], fine, build_aggregation(coarse, fine))
        assert prob.kernel.diagnostics["path"] == path
    fine = grid_partition(8, 4, "f")
    moved = fine.centroids + np.random.default_rng(0).uniform(-1e-3, 1e-3, size=(32, 2))
    prob = _Problem.build(None, [], moved, build_aggregation(coarse, fine).H)
    assert prob.kernel.diagnostics == {"path": "dense"}


def shuffled(part: Partition, order: np.ndarray) -> Partition:
    return Partition(part.name, tuple(part.regions[i] for i in order), part.centroids[order])


def test_shuffling_the_fine_regions_permutes_the_refinement():
    # the fine regions of a lattice in other orders: the fit searches the same
    # lattice and the refinement is the same, region for region, within rounding
    inst = generate_synthetic(SyntheticSpec(fine_shape=(12, 10), coarse_shape=(4, 5)), seed=0)
    models = [m for m, _ in fit_all_aux(inst.aux_datasets, inst.fine, restarts=1)]

    def refined(fine: Partition, params=None):
        """The second step's fit on the fine partition, and the refinement of
        ``params`` (default: that fit's) there."""
        posteriors = [predict_aux(m, fine.centroids) for m in models]
        design = build_design(posteriors, n_fine=len(fine))
        amap = build_aggregation(inst.coarse, fine)
        fitted = fit_downscale(inst.a, posteriors, fine, amap, restarts=2)
        return fitted, predict_fine(params or fitted, inst.a, design, posteriors, amap, fine=fine)

    params, want = refined(inst.fine)
    assert params.diagnostics["gram"] == {"path": "lattice", "shape": [12, 10], "max_snap": 0.0}
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(inst.fine))
        fitted, got = refined(shuffled(inst.fine, order), params)
        assert fitted.diagnostics["gram"] == params.diagnostics["gram"]
        assert fitted.diagnostics["log_marginal"] == pytest.approx(
            params.diagnostics["log_marginal"], rel=1e-10, abs=0
        )
        assert np.array_equal(got.Xf, want.Xf[order])
        assert np.abs(got.mean - want.mean[order]).max() <= 1e-12 * np.abs(want.mean).max()
        assert np.abs(got.var - want.var[order]).max() <= 1e-12 * want.var.max()
