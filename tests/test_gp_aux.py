import hashlib
import json
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BLAS_THREAD_VARS,
    CRITERION_6_SPEC,
    LATTICE_SHAPES,
    always,
    factor_copy,
    grad_check,
    hex_floats,
    in_fresh_interpreter,
    inverse,
    off_grid,
    point_partition,
    pool_counts,
    posterior_arrays,
    random_posteriors,
    snapped,
)
from finescale import downscale, gp_aux, lattice, numerics
from finescale.downscale import build_design, fit_downscale, predict_fine
from finescale.evaluate import SyntheticSpec, generate_synthetic, grid_partition
from finescale.geo import ArealDataset, InputError, build_aggregation
from finescale.gp_aux import (
    AuxFitError,
    AuxGPModel,
    _AuxFit,
    _AuxProblem,
    data_sha256,
    fit_all_aux,
    fit_aux_gp,
    median_pairwise_distance,
    predict_aux,
)
from finescale.kernel import (
    JITTER_REL,
    SEKernelParams,
    cov_matrix,
    kernels_times,
    se_from_sq_dists,
    sq_dists,
)
from finescale.numerics import (
    MIRROR_TILE,
    SIGMA_FLOOR,
    CholeskyFactor,
    FactorizationError,
    cholesky_in_place,
    eigh_in_place,
    log_det,
    solve,
    solve_lower,
)


def aux_log_marginal(params: SEKernelParams, sigma: float, X, y) -> float:
    """log N(y | 0, K + sigma^2 I) for a zero-mean GP at centroids X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    F = factor_copy(_gram(params.alpha, params.gamma, sigma, sq_dists(X, X))[1])
    beta = solve(F, y)
    n = y.size
    return float(-0.5 * y @ beta - 0.5 * log_det(F) - 0.5 * n * np.log(2 * np.pi))


def one_point_model(y=1.0, alpha=1.0, gamma=1.0, sigma=0.0):
    return AuxGPModel(
        dataset_id="single",
        params=SEKernelParams(alpha, gamma),
        noise_sigma=sigma,
        train_centroids=np.array([[0.0, 0.0]]),
        train_values=np.array([y]),
        offset=0.0,
        scale=1.0,
        log_marginal=0.0,
    )


def test_single_zero_observation_log_marginal():
    # scalar Gaussian: log N(0 | 0, alpha^2 + sigma^2)
    for alpha, sigma in [(1.0, 0.5), (0.3, 0.1), (2.0, 1.0)]:
        lm = aux_log_marginal(SEKernelParams(alpha, 1.0), sigma, [[0.0, 0.0]], [0.0])
        expected = -0.5 * np.log(2 * np.pi * (alpha**2 + sigma**2))
        assert lm == pytest.approx(expected, abs=1e-7)


def test_one_point_posterior_closed_form():
    # train at origin with y=1, alpha=gamma=1, sigma=0; test at distance 1
    model = one_point_model()
    post = predict_aux(model, [[1.0, 0.0]])
    assert post.mean[0] == pytest.approx(np.exp(-0.5), abs=1e-6)
    assert post.var[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)


def test_interpolation_at_training_point():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(12, 2))
    y = rng.normal(size=12)
    model = AuxGPModel(
        dataset_id="interp",
        params=SEKernelParams(1.0, 0.5),
        noise_sigma=1e-6,
        train_centroids=X,
        train_values=y,
        offset=0.0,
        scale=1.0,
        log_marginal=0.0,
    )
    post = predict_aux(model, X)
    assert np.max(np.abs(post.mean - y)) <= 1e-4
    assert np.max(post.var) <= 1e-4


def test_prior_reversion_far_from_data():
    model = one_point_model(y=3.0, alpha=0.7, gamma=0.2, sigma=0.1)
    object.__setattr__(model, "offset", 2.0)
    post = predict_aux(model, [[50.0, 50.0]])
    assert post.mean[0] == pytest.approx(2.0, abs=1e-8)  # reverts to the offset
    assert post.var[0] == pytest.approx(0.7**2, rel=1e-6)


def test_variance_bounded_by_amplitude(rng):
    X = rng.uniform(size=(15, 2))
    y = np.sin(4 * X[:, 0]) + rng.normal(0, 0.1, 15)
    model = fit_aux_gp(ArealDataset(point_partition("p", X), y), restarts=3, seed=0)
    post = predict_aux(model, rng.uniform(-1, 2, size=(40, 2)))
    d = post.var
    assert np.all(d >= 0)
    assert np.all(d <= model.params.alpha**2 + 1e-8)


def test_predict_is_shrunk_training_values(rng):
    X = rng.uniform(size=(10, 2))
    y = rng.normal(size=10)
    model = fit_aux_gp(ArealDataset(point_partition("p", X), y), restarts=3, seed=0)
    post = predict_aux(model, X)
    K = cov_matrix(model.params, X, X)
    A = K + (model.noise_sigma**2 + 1e-8 * model.params.alpha**2) * np.eye(10)
    yc = y - model.offset
    direct = model.offset + K @ np.linalg.solve(A, yc)
    assert np.allclose(post.mean, direct, atol=1e-8)


def copied_predict_aux(model: AuxGPModel, Xt: np.ndarray) -> tuple[np.ndarray, ...]:
    """predict_aux's mean, var and W with its Gram A in a new array, factored in
    the Fortran-ordered copy np.array(A, order="F"), as predict_aux once did."""
    X = model.train_centroids
    D2 = sq_dists(X, X)
    A = gp_aux._gram(model.params.alpha, model.params.gamma, model.noise_sigma, D2, D2.copy())
    F = cholesky_in_place(np.array(A, order="F"))
    Ks = cov_matrix(model.params, X, Xt)
    mean = model.offset + Ks.T @ solve(F, model.train_values - model.offset)
    W = solve_lower(F, Ks)
    var = np.maximum(model.params.alpha**2 - np.einsum("ij,ij->j", W, W), 0.0)
    return mean, var, W


def test_predict_aux_factoring_its_gram_in_place_keeps_the_bits_of_a_copy(monkeypatch):
    # 480 regions: predict_aux factors A through A.T, in the memory of the
    # distances; the 24 x 20 grid is kept on the dense path
    monkeypatch.setattr(lattice, "detect", lambda X: None)
    rng = np.random.default_rng(11)
    X = grid_partition(24, 20, "aux").centroids
    model = AuxGPModel(
        dataset_id="aux",
        params=SEKernelParams(1.3, 0.12),
        noise_sigma=0.08,
        train_centroids=X,
        train_values=rng.normal(size=len(X)) + 0.4,
        offset=0.4,
        scale=1.0,
        log_marginal=float("nan"),
    )
    Xt = rng.uniform(size=(300, 2))
    post = predict_aux(model, Xt)
    with numerics.one_blas_thread():  # as predict_aux runs
        want = copied_predict_aux(model, Xt)
    assert [a.tobytes() for a in posterior_arrays(post)] == [a.tobytes() for a in want]


@pytest.mark.parametrize(
    "shape, path", [((4, 3), "dense"), ((8, 5), "lattice")], ids=["dense", "lattice"]
)
def test_an_aux_model_refuses_data_it_cannot_be_predicted_from(rng, shape, path):
    # on a lattice, test points of 3 columns were predicted from the first two
    # and one training value more was dropped, where the dense path refused both
    X = grid_partition(*shape, "aux").centroids
    y = rng.normal(size=len(X))
    model = AuxGPModel(
        dataset_id="aux", params=SEKernelParams(1.0, 0.3), noise_sigma=0.1,
        train_centroids=X, train_values=y, offset=0.0, scale=1.0, log_marginal=0.0,
    )
    assert model.train_centroids is X and model.train_values is y  # not copied
    assert (gp_aux._lattice(X) is None) == (path == "dense")
    Xt = rng.uniform(size=(5, 2))
    predict_aux(model, Xt)
    nan_first = np.where(np.arange(len(y)) == 0, np.nan, y)
    refused = [
        lambda: predict_aux(model, np.c_[Xt, Xt[:, :1]]),
        lambda: predict_aux(model, Xt[:, :1]),
        lambda: replace(model, train_values=np.append(y, 0.0)),
        lambda: replace(model, train_values=y[:-1]),
        lambda: replace(model, train_values=nan_first),
        lambda: replace(model, train_centroids=X[:, 0]),
        lambda: replace(model, train_centroids=X[:0], train_values=y[:0]),
        lambda: replace(model, offset=float("inf")),
        lambda: replace(model, noise_sigma=-0.1),
        lambda: replace(model, noise_sigma=float("nan")),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="aux model 'aux'"):
            call()
    assert replace(model, noise_sigma=0.0).noise_sigma == 0.0


def test_objective_gradient_matches_finite_differences(rng):
    X = rng.uniform(size=(8, 2))
    y = rng.normal(size=8)
    D2 = sq_dists(X, X)
    for _ in range(10):
        theta = rng.normal(0.0, 0.7, size=3)
        prob = _AuxProblem(y, D2).for_thread()
        err = grad_check(lambda t, accept: prob.nll_and_grad(t, accept), theta)
        assert err <= 1e-5


def _gram(alpha, gamma, sigma, D2):
    """K on squared distances D2 and the training covariance A = K + (sigma^2 + jitter) I."""
    K = se_from_sq_dists(alpha, gamma, D2)
    return K, K + (sigma**2 + JITTER_REL * alpha**2) * np.eye(D2.shape[0])


def unbuffered_nll_and_grad(
    theta: np.ndarray, X: np.ndarray, y: np.ndarray, D2: np.ndarray, accept
):
    """Negative log marginal over (log alpha, log gamma, log sigma), and its
    gradient where ``accept`` of it holds, else None; it computes both either way.

    With beta = A^-1 y, d log L / d theta_k = 1/2 (beta^T dA_k beta - tr(A^-1 dA_k)),
    where dA is 2 (K + jitter I), K o D2 / gamma^2 and 2 sigma^2 I; each term
    is a quadratic form in beta and a trace against A^-1, taken from the factor.
    """
    alpha, gamma, sigma = np.exp(theta)
    n = y.size
    K, A = _gram(alpha, gamma, sigma, D2)
    jitter = JITTER_REL * alpha**2
    F = factor_copy(A)
    beta = solve(F, y)
    nll = 0.5 * y @ beta + 0.5 * log_det(F) + 0.5 * n * np.log(2 * np.pi)
    Ainv = inverse(F)
    bb, tr = beta @ beta, np.trace(Ainv)
    # Restarts that end on a flat ridge of the likelihood tie to the last bit,
    # so rounding here picks the winner among them: keep the operand order.
    E = K * D2 / gamma**2
    dll = np.array(
        [
            2.0 * (beta @ K @ beta + jitter * bb - np.vdot(Ainv, K) - jitter * tr),
            beta @ E @ beta - np.vdot(Ainv, E),
            2.0 * sigma**2 * (bb - tr),
        ]
    )
    nll = float(nll)
    return nll, (-0.5 * dll if accept(nll) else None)


def _bits(value, grad):
    return value.hex(), [float(g).hex() for g in grad]


# log alpha and log sigma so small that alpha^2 and sigma^2 underflow: A = 0
SINGULAR_THETA = np.array([-400.0, 0.0, -400.0])
# a length scale so short that the kernel underflows between distinct points:
# a pure nugget, whose diagonal Gram is factored and inverted without LAPACK
NUGGET_THETA = np.array([0.0, -12.0, np.log(0.3)])


@pytest.mark.parametrize("n", [2, 5, 60, MIRROR_TILE + 1, 240])
def test_buffered_objective_equals_unbuffered_bit_for_bit(rng, n):
    # the oracle is the objective as it was before its n x n arrays moved into
    # per-fit buffers, kept verbatim; the buffered one must agree to the last bit
    X = rng.uniform(size=(n, 2))
    y = rng.normal(size=n)
    D2 = sq_dists(X, X)
    grid = [np.array(t) for t in np.stack(np.meshgrid(*[[-2.0, 0.0, 1.5]] * 3), -1).reshape(-1, 3)]
    near_floor = [np.array([0.0, np.log(0.05), np.log(10 * SIGMA_FLOOR)])]
    thetas = grid + near_floor + [NUGGET_THETA] + [rng.normal(0.0, 1.0, size=3) for _ in range(6)]
    # both inverse paths: dpotri's at log gamma = 0, the diagonal one at the nugget
    assert not factor_copy(_gram(*np.exp(thetas[0]), D2)[1]).diagonal
    assert factor_copy(_gram(*np.exp(NUGGET_THETA), D2)[1]).diagonal
    prob = _AuxProblem(y, D2).for_thread()  # one buffer set for every call, as in a fit
    # the buffers hold the previous call's arrays: every theta runs after
    # another one, and one runs after a theta whose factorization failed
    for t in thetas + thetas[::-1] + [SINGULAR_THETA, thetas[0]]:
        if t is SINGULAR_THETA:
            with pytest.raises(FactorizationError) as got:
                prob.nll_and_grad(t, always)
            with pytest.raises(FactorizationError) as want:
                unbuffered_nll_and_grad(t, X, y, D2, always)
            assert str(got.value) == str(want.value)
            continue
        got = prob.nll_and_grad(t, always)
        want = unbuffered_nll_and_grad(t, X, y, D2, always)
        assert _bits(*got) == _bits(*want)
        assert np.array_equal(got[1], want[1])


def test_objective_computes_the_gradient_only_where_accept_holds(rng):
    X = rng.uniform(size=(30, 2))
    fit = _AuxFit.prepare(ArealDataset(point_partition("p", X), rng.normal(size=30)), "p", 3, 0)
    f = fit.job[0]()
    assert f.__func__ is _AuxProblem.nll_and_grad  # on a copy of the fit's own problem
    for theta in fit.starts:
        seen = []
        rejected, grad = f(theta, lambda value: seen.append(value) or False)
        assert grad is None
        value, grad = f(theta, lambda value: seen.append(value) or True)
        assert np.all(np.isfinite(grad))
        # one test per call, of the very value the call returns
        assert [float(v).hex() for v in seen] == [value.hex()] * 2
        assert rejected.hex() == value.hex()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_objective_is_invariant_under_permutation(data):
    # the training regions in another order: the same value and gradient
    n = data.draw(st.integers(2, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(size=(n, 2))
    y = rng.normal(size=n)
    theta = rng.normal(0.0, 0.7, size=3)
    order = np.array(data.draw(st.permutations(range(n))))
    value, grad = _AuxProblem(y, sq_dists(X, X)).for_thread().nll_and_grad(theta, always)
    moved = X[order]
    moved_value, moved_grad = (
        _AuxProblem(y[order], sq_dists(moved, moved)).for_thread().nll_and_grad(theta, always)
    )
    assert abs(moved_value - value) <= 1e-10 * abs(value)
    assert np.all(np.abs(moved_grad - grad) <= 1e-10 * np.abs(grad).max())


def test_objective_allocates_no_n_by_n_array():
    # after a warm-up call the objective works in the problem's buffers; the
    # unbuffered form peaked at about six n x n arrays here
    n = 300
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(n, 2))
    prob = _AuxProblem(rng.normal(size=n), sq_dists(X, X)).for_thread()
    theta = np.array([0.0, np.log(0.2), np.log(0.1)])
    prob.nll_and_grad(theta, always)
    tracemalloc.start()
    try:
        prob.nll_and_grad(theta + 0.1, always)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_an_objective_holds_two_n_by_n_arrays():
    # K and the Fortran-ordered A, which takes the factor and then A^-1: no third
    n = 300
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(n, 2))
    fit = _AuxFit.prepare(ArealDataset(point_partition("p", X), rng.normal(size=n)), "p", 1, 0)
    tracemalloc.start()
    try:
        f = fit.job[0]()
        f(fit.starts[0], always)  # warm-up
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * n * n * 8 <= held < 2.5 * n * n * 8


def test_squared_distances_not_exactly_symmetric_are_refused_when_built(rng, monkeypatch):
    # every Gram the fit and predict_aux factor is built on _train_sq_dists's D2
    X = rng.uniform(size=(6, 2))
    data = ArealDataset(point_partition("p", X), rng.normal(size=6))
    D2 = sq_dists(X, X)
    assert np.array_equal(gp_aux._train_sq_dists(X), D2)
    fit = _AuxFit.prepare(data, "p", 2, 0)
    assert np.array_equal(fit.problem.D2, D2)
    model = fit_aux_gp(data, restarts=1)

    def one_ulp_off(A, B):
        bad = sq_dists(A, B)
        bad[4, 1] = np.nextafter(bad[4, 1], np.inf)
        return bad

    monkeypatch.setattr(gp_aux, "sq_dists", one_ulp_off)
    for build in (
        lambda: gp_aux._train_sq_dists(X),
        lambda: _AuxFit.prepare(data, "p", 2, 0),
        lambda: predict_aux(model, X),
    ):
        with pytest.raises(ValueError, match="exactly symmetric"):
            build()


def test_gram_adds_the_noise_to_the_diagonal_only():
    # over D2 or into given arrays, A equals K + (sigma^2 + jitter) I with a fresh identity
    X = np.random.default_rng(2).uniform(size=(40, 2))
    D2 = sq_dists(X, X)
    K_ref, A_ref = _gram(1.3, 0.2, 0.05, D2)
    over = D2.copy()
    assert gp_aux._gram(1.3, 0.2, 0.05, over, over) is over
    assert np.array_equal(over, A_ref)
    K, A = np.empty((40, 40)), np.empty((40, 40), order="F")
    assert gp_aux._gram(1.3, 0.2, 0.05, D2, K, A) is A
    assert np.array_equal(K, K_ref) and np.array_equal(A, A_ref)


def dense_nll_and_grad(theta, X, y, D2, accept):
    """Reference objective, with its gradient where ``accept`` of the value
    holds: A^-1 by solving against I, and each gradient entry as
    -1/2 sum((beta beta^T - A^-1) o dA) over dense n x n derivatives dA."""
    alpha, gamma, sigma = np.exp(theta)
    n = y.size
    K = alpha**2 * np.exp(-0.5 * D2 / gamma**2)
    jitter = JITTER_REL * alpha**2
    A = K + (sigma**2 + jitter) * np.eye(n)
    F = factor_copy(A)
    beta = solve(F, y)
    nll = 0.5 * y @ beta + 0.5 * log_det(F) + 0.5 * n * np.log(2 * np.pi)
    M = np.outer(beta, beta) - solve(F, np.eye(n))
    dA = [2.0 * (K + jitter * np.eye(n)), K * (D2 / gamma**2), 2.0 * sigma**2 * np.eye(n)]
    grad = np.array([-0.5 * np.sum(M * dAk) for dAk in dA])
    nll = float(nll)
    return nll, (grad if accept(nll) else None)


# (n, theta); theta None draws (log alpha, log gamma, log sigma) from N(0, 0.7^2).
# Both forms carry an error of about cond(A) * eps, so the instances near the
# sigma floor keep cond(A) below about 1e7: with unit amplitude and a short
# length scale, or with an amplitude small enough that sigma^2 dominates the
# diagonal. Where cond(A) nears 1e10 both differ from a 40-digit reference by
# about 1e-7.
OBJECTIVE_CASES = [
    (8, None),
    (40, None),
    (240, None),
    (240, [0.0, np.log(0.05), np.log(10 * SIGMA_FLOOR)]),
    (240, [np.log(3e-3), np.log(0.1), np.log(10 * SIGMA_FLOOR)]),
    (240, [0.0, np.log(10.0), np.log(0.1)]),  # long length scale
]


@pytest.mark.parametrize("n, theta", OBJECTIVE_CASES)
def test_objective_matches_dense_oracle(rng, n, theta):
    X = rng.uniform(size=(n, 2))
    y = rng.normal(size=n)
    D2 = sq_dists(X, X)
    for _ in range(3):
        t = rng.normal(0.0, 0.7, size=3) if theta is None else np.array(theta)
        val, grad = _AuxProblem(y, D2).for_thread().nll_and_grad(t, always)
        dense_val, dense_grad = dense_nll_and_grad(t, X, y, D2, always)
        assert val == pytest.approx(dense_val, rel=1e-10)
        assert np.max(np.abs(grad - dense_grad) / np.maximum(1.0, np.abs(dense_grad))) <= 1e-8


def lattice_problem(lat: lattice.Lattice, values: np.ndarray) -> lattice.LatticeProblem:
    """The lattice fit's problem of the values at lat's points, in row-major order."""
    return lattice.LatticeProblem(lat, values.reshape(lat.gy.size, lat.gx.size))


def on_grid(oracle):
    """The dense objective ``oracle`` in LatticeProblem.nll_and_grad's place: the
    values in row-major order, with the squared distances of the lattice's points."""

    def objective(prob, t, accept):
        n = prob.Y.size
        dx2, dy2 = prob.lattice.dx2, prob.lattice.dy2
        D2 = (dy2[:, None, :, None] + dx2[None, :, None, :]).reshape(n, n)
        return oracle(t, None, prob.Y.ravel(), D2, accept)

    return objective


def check_fit_winners_match_dense_objective(monkeypatch, path: str):
    """The default synthetic auxiliaries (12 to 120 regions). Forced onto the
    dense path, every restart record equals the unbuffered objective's to the
    last bit. On the lattice path, which the 8 x 5 and 12 x 10 take, every
    record is the Kronecker objective at a point its search evaluated, and a
    fresh problem gives it again to the last bit. Either way every winning
    restart takes the same BFGS path when the dense objective is swapped in."""
    nll_and_grad = lattice.LatticeProblem.nll_and_grad
    calls = []

    def recorded(prob, t, accept):
        value, grad = nll_and_grad(prob, t, accept)
        calls.append((prob, t.copy(), value))
        return value, grad

    if path == "dense":
        monkeypatch.setattr(lattice, "detect", lambda X: None)
    monkeypatch.setattr(lattice.LatticeProblem, "nll_and_grad", recorded)
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    fitted = [fit_aux_gp(ds, restarts=3, seed=0) for ds in inst.aux_datasets]
    paths = [model.diagnostics["gram"]["path"] for model in fitted]
    assert paths == (["dense"] * 3 if path == "dense" else ["dense", "lattice", "lattice"])

    problems = list({id(prob): prob for prob, _, _ in calls}.values())  # one per lattice fit
    lattices = [model for model in fitted if model.diagnostics["gram"]["path"] == "lattice"]
    for model, prob in zip(lattices, problems, strict=True):
        at = {value: t for p, t, value in calls if p is prob}
        lat = prob.lattice
        fresh = lattice.LatticeProblem(
            replace(lat, dx2=lat.dx2.copy(), dy2=lat.dy2.copy()), prob.Y.copy()
        )
        for record in model.diagnostics["restart_records"]:
            value = record["objective"]
            assert nll_and_grad(fresh, at[value], always)[0] == value

    def fits_with(oracle):
        def objective(prob, t, accept):
            return oracle(t, None, prob.ys, prob.D2, accept)

        monkeypatch.setattr(gp_aux._AuxProblem, "nll_and_grad", objective)
        monkeypatch.setattr(lattice.LatticeProblem, "nll_and_grad", on_grid(oracle))
        return [fit_aux_gp(ds, restarts=3, seed=0) for ds in inst.aux_datasets]

    for model, unbuffered in zip(fitted, fits_with(unbuffered_nll_and_grad)):
        if model.diagnostics["gram"]["path"] == "dense":
            assert model.diagnostics["restart_records"] == unbuffered.diagnostics["restart_records"]
            assert model.log_marginal == unbuffered.log_marginal
    for model, oracle in zip(fitted, fits_with(dense_nll_and_grad)):
        got = model.diagnostics["restart_records"]
        want = oracle.diagnostics["restart_records"]
        winner = min(range(len(want)), key=lambda k: want[k]["objective"])
        assert min(range(len(got)), key=lambda k: got[k]["objective"]) == winner
        assert got[winner]["iterations"] == want[winner]["iterations"]
        assert got[winner]["evaluations"] == want[winner]["evaluations"]
        assert model.log_marginal == pytest.approx(oracle.log_marginal, rel=1e-8)


def test_fit_winners_match_dense_objective(monkeypatch):
    check_fit_winners_match_dense_objective(monkeypatch, "dense")


def test_lattice_fit_winners_match_dense_objective(monkeypatch):
    check_fit_winners_match_dense_objective(monkeypatch, "lattice")


def test_constant_values_fit_and_predict_constant():
    part = grid_partition(4, 4, "p")
    model = fit_aux_gp(ArealDataset(part, np.full(16, 7.5)), restarts=3, seed=0)
    assert np.isfinite(model.log_marginal)
    post = predict_aux(model, np.array([[0.1, 0.9], [0.8, 0.3]]))
    assert np.allclose(post.mean, 7.5, atol=1e-6)


def test_fit_rejects_single_region():
    # an input error, not a numerical one: no search runs
    part = point_partition("p", np.array([[0.5, 0.5]]))
    with pytest.raises(InputError, match="dataset 'p': 1 region"):
        fit_aux_gp(ArealDataset(part, [1.0]))


def test_hyperparameter_recovery_from_known_gp():
    true = SEKernelParams(alpha=1.0, gamma=0.3)
    true_sigma = 0.1
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(200, 2))
        K = cov_matrix(true, X, X) + true_sigma**2 * np.eye(200)
        y = np.linalg.cholesky(K + 1e-10 * np.eye(200)) @ rng.standard_normal(200)
        model = fit_aux_gp(
            ArealDataset(point_partition("p", X), y), restarts=2, seed=0, center=False
        )
        errs.append(
            [
                np.log(model.params.alpha) - np.log(true.alpha),
                np.log(model.params.gamma) - np.log(true.gamma),
                np.log(model.noise_sigma) - np.log(true_sigma),
            ]
        )
    med = np.median(np.abs(np.array(errs)), axis=0)
    assert np.all(med <= 0.3), f"median log-param errors {med}"


def test_log_marginal_value_reported_by_fit(rng):
    X = rng.uniform(size=(20, 2))
    y = np.cos(5 * X[:, 1]) + rng.normal(0, 0.1, 20)
    model = fit_aux_gp(ArealDataset(point_partition("p", X), y), restarts=3, seed=0)
    direct = aux_log_marginal(model.params, model.noise_sigma, X, y - model.offset)
    assert model.log_marginal == pytest.approx(direct, abs=1e-6)


def test_fit_all_aux_empty_list():
    assert fit_all_aux([], grid_partition(2, 2, "f")) == []


def test_fit_all_aux_identical_datasets_identical_results(rng):
    X = rng.uniform(size=(15, 2))
    y = np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, 15)
    part = point_partition("p", X)
    d = ArealDataset(part, y)
    fine = grid_partition(3, 3, "f")
    (m1, p1), (m2, p2) = fit_all_aux([d, d], fine, restarts=3, seed=0)
    assert m1.to_dict() == {**m2.to_dict(), "dataset_id": m1.dataset_id}
    assert np.array_equal(p1.mean, p2.mean)
    assert hex_floats(posterior_arrays(p1)) == hex_floats(posterior_arrays(p2))


def test_fit_all_aux_output_order_and_ids(rng):
    fine = grid_partition(3, 3, "f")
    datasets = []
    for k in range(3):
        X = rng.uniform(size=(12, 2))
        datasets.append(
            ArealDataset(point_partition(f"aux{k}", X), rng.normal(size=12))
        )
    out = fit_all_aux(datasets, fine, restarts=2, seed=0)
    assert [m.dataset_id for m, _ in out] == ["aux0", "aux1", "aux2"]
    assert all(p.mean.shape == (9,) for _, p in out)


@pytest.mark.parametrize(
    "ids", [["aux0", "aux1"], ["aux0", "aux1", "aux2", "aux3"], ["x", "x", "y"], []],
    ids=["fewer", "more", "repeated", "empty"],
)
def test_fit_all_aux_refuses_ids_that_are_not_one_distinct_id_per_dataset(rng, ids):
    # two ids once raised an IndexError, four dropped the last silently, and a
    # repeated id gave a design with two columns of one name, refused only after the fit
    datasets = [
        ArealDataset(point_partition(f"p{k}", rng.uniform(size=(6, 2))), rng.normal(size=6))
        for k in range(3)
    ]
    with pytest.raises(ValueError, match="for 3 datasets: one distinct id each"):
        fit_all_aux(datasets, grid_partition(2, 2, "f"), restarts=1, dataset_ids=ids)


def test_fit_all_aux_error_names_dataset():
    fine = grid_partition(2, 2, "f")
    bad = ArealDataset(point_partition("lonely", np.array([[0.5, 0.5]])), [1.0])
    with pytest.raises(InputError, match="'lonely'"):
        fit_all_aux([bad], fine)


def test_fit_records_every_restart(rng):
    X = rng.uniform(size=(15, 2))
    y = np.sin(3 * X[:, 0]) + rng.normal(0, 0.1, 15)
    model = fit_aux_gp(ArealDataset(point_partition("p", X), y), restarts=3, seed=0)
    records = model.diagnostics["restart_records"]
    assert len(records) == 4  # base, quarter length scale, 2 random starts
    best = min(records, key=lambda r: r["objective"])
    # objectives are of the unit-variance data; log_marginal is in original units
    assert model.log_marginal == -best["objective"] - y.size * np.log(model.scale)
    assert all(r["converged"] == (r["stop"] == "gtol") for r in records)
    # one gradient at the start and one per accepted step
    assert all(r["gradients"] == r["iterations"] + 1 for r in records)
    assert all(r["evaluations"] >= r["feasible"] >= r["gradients"] for r in records)
    assert model.diagnostics["data_sha256"] == data_sha256(X, y)
    saved = model.to_dict()
    assert AuxGPModel.from_dict(saved, X, y).diagnostics == model.diagnostics
    del saved["diagnostics"]  # models.json written before the records existed
    assert AuxGPModel.from_dict(saved, X, y).diagnostics == {}


def test_fit_is_the_same_on_one_and_two_threads(search_threads):
    # 120 regions, five starts: each thread runs its starts in its own buffers
    ds = generate_synthetic(SyntheticSpec(), seed=0).aux_datasets[-1]
    fits = []
    for k in (1, 2):
        search_threads(k)
        model = fit_aux_gp(ds, restarts=4, seed=0)
        assert model.diagnostics["workers"] == k
        saved = model.to_dict()
        fits.append(hex_floats([saved.pop("diagnostics")["restart_records"], saved]))
    assert len(fits[0][0]) == 5
    assert fits[0] == fits[1]


def twin_auxiliaries_fitted() -> str:
    """The models of criterion 6's auxiliaries (seed 0), every float as hex."""
    inst = generate_synthetic(CRITERION_6_SPEC, seed=0)
    fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=5, seed=0)
    return json.dumps(hex_floats([model.to_dict() for model, _ in fitted]))


def test_fits_are_the_same_whatever_blas_threads_the_environment_sets():
    # fresh interpreters, so that BLAS starts with 1 and with 2 threads; on the
    # 5-region auxiliary restarts tie to one ulp, so the thread count picked
    # the winner before the fits pinned BLAS themselves
    runs = [
        in_fresh_interpreter(
            "test_gp_aux", "twin_auxiliaries_fitted",
            {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(threads))},
        )
        for threads in (1, 2)
    ]
    assert runs[0] == runs[1]  # workers included


def lapack_cholesky_in_place(A):
    """``cholesky_in_place`` without its path for diagonal matrices: dpotrf on
    every matrix, and a factor that ``inverse_in_place`` hands to dpotri."""
    info = numerics._on_lower(numerics._dpotrf, A)
    if info > 0:
        raise FactorizationError(f"matrix not positive definite (pivot {info})", pivot=info)
    numerics._zero_above_diagonal(A)
    return CholeskyFactor(L=A)


AUX_HEAVY_SPEC = SyntheticSpec(
    fine_shape=(20, 12),
    coarse_shape=(5, 4),
    aux_shapes=((16, 12), (20, 15), (24, 16), (24, 20)),
    w=(0.3, -0.8, 2.0, 0.5),
)


@pytest.mark.parametrize("spec, restarts", [(CRITERION_6_SPEC, 5), (AUX_HEAVY_SPEC, 3)])
def test_diagonal_grams_skip_lapack_and_leave_every_fit_and_posterior_as_it_was(
    monkeypatch, spec, restarts
):
    # most Grams these fits factor are diagonal: their restarts slide to a pure
    # nugget; the lattices among the auxiliaries are kept on the dense path
    monkeypatch.setattr(lattice, "detect", lambda X: None)
    inst = generate_synthetic(spec, seed=0)
    fits = []
    # the objective and predict_aux both factor with cholesky_in_place
    for in_place in (cholesky_in_place, lapack_cholesky_in_place):
        monkeypatch.setattr(gp_aux, "cholesky_in_place", in_place)
        fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=restarts, seed=0)
        fits.append(
            [
                (hex_floats(model.to_dict()), [a.tobytes() for a in posterior_arrays(post)])
                for model, post in fitted
            ]
        )
    assert fits[0] == fits[1]


def jittered_grid(nx: int, ny: int, name: str, seed: int = 0):
    """An nx x ny grid whose centroids a seeded jitter of up to a tenth of a
    cell moves off the lattice: a partition that takes the dense objective."""
    part = grid_partition(nx, ny, name)
    jitter = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(len(part), 2))
    X = part.centroids + jitter / [nx, ny]
    assert lattice.detect(X) is None
    return point_partition(name, X)


def test_a_pure_nugget_fit_factors_and_inverts_no_diagonal_gram_with_lapack(monkeypatch):
    # white noise at 64 jittered cell centres: the fitted kernel is zero between
    # regions, and the dense objective factors the diagonal Grams without LAPACK
    part = jittered_grid(8, 8, "noise")
    data = ArealDataset(part, np.random.default_rng(0).normal(size=64))
    diagonal_factors, lapack_on_diagonal = [], []
    on_lower = numerics._on_lower

    def watched_cholesky_in_place(A):  # the objective's factorization
        F = cholesky_in_place(A)
        diagonal_factors.append(F.diagonal)
        return F

    def watched_on_lower(routine, A):  # dpotrf's and dpotri's one way in
        lapack_on_diagonal.append(np.array_equal(A, np.diag(A.diagonal())))
        return on_lower(routine, A)

    monkeypatch.setattr(gp_aux, "cholesky_in_place", watched_cholesky_in_place)
    monkeypatch.setattr(numerics, "_on_lower", watched_on_lower)
    model = fit_aux_gp(data, restarts=3, seed=0)
    assert model.diagnostics["gram"] == {"path": "dense"}
    assert np.count_nonzero(cov_matrix(model.params, part.centroids, part.centroids)) == 64
    assert sum(diagonal_factors) > len(diagonal_factors) / 2
    assert lapack_on_diagonal and not any(lapack_on_diagonal)


def test_a_pure_nugget_fit_on_a_lattice_ends_at_the_dense_fits_objective(monkeypatch):
    # white noise at 8 x 8 grid centres: the Kronecker objective, whose factors
    # tend to I at the nugget, ends where the dense one does
    part = grid_partition(8, 8, "noise")
    data = ArealDataset(part, np.random.default_rng(0).normal(size=64))
    model = fit_aux_gp(data, restarts=3, seed=0)
    assert model.diagnostics["gram"]["path"] == "lattice"
    assert np.count_nonzero(cov_matrix(model.params, part.centroids, part.centroids)) == 64
    monkeypatch.setattr(lattice, "detect", lambda X: None)
    dense = fit_aux_gp(data, restarts=3, seed=0)
    assert dense.diagnostics["gram"] == {"path": "dense"}
    assert model.log_marginal == pytest.approx(dense.log_marginal, rel=1e-8, abs=0)


@pytest.mark.parametrize("nx, ny", LATTICE_SHAPES)
def test_the_kronecker_objective_is_the_dense_one(rng, nx, ny):
    # cell centres and uneven spacings, shuffled and moved off the grid by up to
    # the snap tolerance: the Kronecker objective against _AuxProblem.nll_and_grad on the
    # points it snapped to, from the nugget limit to a long length scale
    centres = ((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny)
    uneven = (np.sort(rng.uniform(size=nx)), np.sort(rng.uniform(size=ny)))
    for gx, gy in (centres, uneven):
        X = off_grid(rng, gx, gy)
        y = rng.normal(size=len(X))
        lat = lattice.detect(X)
        assert (lat.gx.size, lat.gy.size) == (nx, ny)
        Xs = snapped(lat)
        snaps = np.abs(Xs - X).max(axis=0)
        assert snaps.max() == lat.max_snap
        assert np.all(snaps <= lattice.SNAP_REL * np.array([np.diff(gx).min(), np.diff(gy).min()]))
        prob = lattice_problem(lat, y[lat.order])
        dense = _AuxProblem(y, sq_dists(Xs, Xs)).for_thread()
        for log_gamma in (-20.0, -12.0, -4.0, -2.0, -1.0, 0.0, 1.0, 3.0):
            theta = np.array([rng.uniform(-1.0, 0.5), log_gamma, np.log(rng.uniform(0.2, 1.0))])
            value, grad = prob.nll_and_grad(theta, always)
            want_value, want_grad = dense.nll_and_grad(theta, always)
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert np.abs(grad - want_grad).max() <= 1e-10 * np.abs(want_grad).max()


@pytest.mark.parametrize("nx, ny", LATTICE_SHAPES)
def test_the_lattice_record_is_what_both_kronecker_paths_read(rng, nx, ny):
    # shuffled and moved off the grid: cells inverts order, dx2 and dy2 are the
    # squared differences of the grid values, and both the auxiliary fit and
    # the second step report the lattice's own record as their gram, a fresh
    # dict each time
    gx, gy = np.sort(rng.uniform(size=nx)), np.sort(rng.uniform(size=ny))
    X = off_grid(rng, gx, gy)
    lat = lattice.detect(X)
    n = len(X)
    assert np.array_equal(lat.cells[lat.order], np.arange(n))
    assert np.array_equal(lat.order[lat.cells], np.arange(n))
    assert np.array_equal(lat.dx2, sq_dists(lat.gx[:, None], lat.gx[:, None]))
    assert np.array_equal(lat.dy2, sq_dists(lat.gy[:, None], lat.gy[:, None]))
    gram = {"path": "lattice", "shape": [nx, ny], "max_snap": lat.max_snap}
    assert lat.diagnostics == gram and lat.diagnostics is not lat.diagnostics
    fine = lattice.LatticeKernel.build(lat, rng.uniform(size=(3, n)))
    fit = _AuxFit.prepare(ArealDataset(point_partition("p", X), rng.normal(size=n)), "p", 1, 0)
    problems = [fine, fit.problem] if n >= lattice.MIN_POINTS else [fine]
    for problem in problems:
        assert problem.diagnostics == gram and problem.diagnostics is not problem.diagnostics
    if n < lattice.MIN_POINTS:
        assert fit.problem.diagnostics == {"path": "dense"}


def test_the_kronecker_gradient_matches_finite_differences(rng):
    for nx, ny in ((2, 3), (6, 4), (12, 10)):
        prob = lattice_problem(
            lattice.detect(grid_partition(nx, ny, "g").centroids), rng.normal(size=nx * ny)
        )
        f = prob.nll_and_grad
        for _ in range(6):
            theta = rng.normal(0.0, 0.7, size=3)
            assert grad_check(f, theta) <= 1e-5
            value, grad = f(theta, lambda v: False)
            assert grad is None and value == f(theta, always)[0]


def dsyev_axis(gamma: float, d2: np.ndarray):
    """``lattice._axis`` without its shortcut for the identity: dsyev on every kernel."""
    K = se_from_sq_dists(1.0, gamma, d2)
    Q = K.copy().T
    return eigh_in_place(Q), Q, K


@pytest.mark.parametrize("n", [2, 3, 5, 8, 24])
def test_an_identity_axis_kernel_takes_dsyevs_values_without_the_call(monkeypatch, rng, n):
    # gamma a thousandth of the smallest spacing: every exponential off the
    # diagonal underflows. dsyev returns -0.0 entries in Q from n = 3 on,
    # which np.array_equal counts equal to the shortcut's +0.0
    g = np.sort(rng.uniform(size=n))
    d2 = sq_dists(g[:, None], g[:, None])
    gamma = 1e-3 * np.diff(g).min()
    want_l, want_Q, K = dsyev_axis(gamma, d2)
    assert np.array_equal(K, np.eye(n))
    calls = []
    monkeypatch.setattr(lattice, "eigh_in_place", lambda A: calls.append(A) or eigh_in_place(A))
    l, Q, identity = lattice._axis(gamma, d2)
    assert not calls and identity is None
    assert np.array_equal(l, want_l) and np.array_equal(Q, want_Q)
    M = lattice._rotated(gamma, d2, Q, None)
    assert not M.any() and np.array_equal(M, lattice._rotated(gamma, d2, want_Q, K))
    lattice._axis(10 * np.diff(g).min(), d2)  # a kernel that is not the identity
    assert len(calls) == 1


def test_the_kronecker_objective_has_its_bits_with_dsyev_on_every_axis(monkeypatch, rng):
    # an 8 x 6 lattice, its x spacing a tenth of its y spacing: from the
    # nugget limit, where both axis kernels are the identity, through gammas
    # where only the y one is, to a long length scale
    X = np.array([(0.1 * x, float(y)) for y in range(6) for x in range(8)])
    prob = lattice_problem(lattice.detect(X), rng.normal(size=48))
    thetas = [np.array([0.3, log_gamma, -1.0]) for log_gamma in (-12.0, -5.0, -3.5, -2.0, 1.0)]
    got = [prob.nll_and_grad(theta, always) for theta in thetas]
    monkeypatch.setattr(lattice, "_axis", dsyev_axis)
    want = [prob.nll_and_grad(theta, always) for theta in thetas]
    assert hex_floats(got) == hex_floats(want)


def test_a_lattice_gram_that_is_not_positive_definite_is_a_factorization_error():
    # alpha^2 and sigma^2 underflow: D is zero, as dpotrf fails on a zero Gram
    X = grid_partition(4, 3, "g").centroids
    prob = lattice_problem(lattice.detect(X), np.ones(12))
    with pytest.raises(FactorizationError):
        prob.nll_and_grad(SINGULAR_THETA, always)


def test_detection_refuses_what_is_not_a_full_lattice():
    X = grid_partition(6, 4, "g").centroids
    assert lattice.detect(X).max_snap == 0.0
    beyond = X.copy()
    beyond[5, 0] += 3 * lattice.SNAP_REL / 6  # three times the snap tolerance
    # an uneven axis: 1 and 1 + 5e-10 are one run beside the unit gap, but 5e-10
    # is beyond SNAP_REL of the smallest spacing, 1e-3
    uneven = np.array([(x, y) for y in (0.0, 1.0) for x in (0.0, 1e-3, 1.0)])
    uneven[2, 0] += 5e-10
    cases = {
        "one row": grid_partition(6, 1, "r").centroids,
        "one column": grid_partition(1, 6, "c").centroids,
        "a point twice": np.vstack([X[:-1], X[:1]]),
        "a cell missing": X[:-1],
        "three dimensions": np.column_stack([X, np.zeros(len(X))]),
        "one dimension": X[:, :1],
        "off the grid": beyond,
        "off an uneven grid": uneven,
        "a nan": np.where(np.arange(24)[:, None] == 7, np.nan, X),
    }
    for name, points in cases.items():
        assert lattice.detect(points) is None, name
    within = uneven.copy()
    within[2, 0] = 1.0 + 5e-13
    assert 0 < lattice.detect(within).max_snap <= lattice.SNAP_REL * 1e-3


@pytest.mark.parametrize("shape", [(8, 4), (8, 5), (16, 12)])
def test_a_shuffled_lattice_fits_the_same_model(shape):
    # the regions of an auxiliary in other orders: the lattice fit reads its
    # values in row-major order, so every restart and the model keep their bits;
    # the dense fits had no such test
    part = grid_partition(*shape, "aux")
    X = part.centroids
    for seed in range(4):
        rng = np.random.default_rng(seed)
        y = np.sin(3.0 * X[:, 0]) + np.cos(2.0 * X[:, 1]) + 0.1 * rng.normal(size=len(X))
        model = fit_aux_gp(ArealDataset(part, y), restarts=3, seed=0)
        gram = {"path": "lattice", "shape": list(shape), "max_snap": 0.0}
        assert model.diagnostics["gram"] == gram
        order = rng.permutation(len(X))
        moved = fit_aux_gp(ArealDataset(point_partition("aux", X[order]), y[order]), restarts=3)
        got, want = moved.to_dict(), model.to_dict()
        assert got.pop("diagnostics")["data_sha256"] != want.pop("diagnostics")["data_sha256"]
        assert hex_floats(got) == hex_floats(want)
        for key in ("restart_records", "gram"):
            assert moved.diagnostics[key] == model.diagnostics[key]


FIT_MEDIUM_SPEC = SyntheticSpec(fine_shape=(24, 20), coarse_shape=(8, 5))


@pytest.mark.parametrize("cores", [2, 64])
def test_the_bench_specs_fit_on_the_calling_thread_at_any_core_count(monkeypatch, cores):
    # every objective call of both steps is below numerics.THREAD_MIN_FLOPS,
    # so each search runs its starts on the calling thread whatever the cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    for spec in (FIT_MEDIUM_SPEC, AUX_HEAVY_SPEC):
        inst = generate_synthetic(spec, seed=0)
        fitted = fit_all_aux(inst.aux_datasets, inst.fine, restarts=3, dataset_ids=inst.aux_ids)
        posteriors = [post for _, post in fitted]
        params = fit_downscale(inst.a, posteriors, inst.fine, inst.amap, restarts=3)
        workers = [model.diagnostics["workers"] for model, _ in fitted]
        assert workers + [params.diagnostics["workers"]] == [1] * (len(fitted) + 1)


def test_thread_min_flops_keeps_the_pool_for_the_scales_it_speeds_up(rng):
    # a dense auxiliary of 480 regions, and the second step on a jittered
    # (dense) 24 x 20 fine partition over 8 x 5 and on an 80 x 60 fine lattice over 8 x 6
    least = numerics.THREAD_MIN_FLOPS
    X = rng.uniform(size=(480, 2))
    assert _AuxProblem(rng.normal(size=480), sq_dists(X, X)).flops >= least
    scales = (((24, 20), (8, 5), "dense"), ((80, 60), (8, 6), "lattice"))
    for fine_shape, coarse_shape, path in scales:
        fine = grid_partition(*fine_shape, "fine")
        H = build_aggregation(grid_partition(*coarse_shape, "coarse"), fine).H
        Xf = jittered_grid(*fine_shape, "fine").centroids if path == "dense" else fine.centroids
        prob = downscale._Problem.build(None, [], Xf, H)
        assert prob.kernel.diagnostics["path"] == path
        assert prob.flops >= least


def test_the_lattice_path_fits_the_bench_specs_as_the_dense_one_does(monkeypatch):
    # every auxiliary of fit_medium seeds 0-19 and aux_heavy seeds 0-9, with
    # the bench's 3 restarts: the best log-marginals of both paths agree; the
    # 4 x 3 auxiliaries, below lattice.MIN_POINTS, take the dense path. Then
    # the second step on the lattice fits' posteriors, whose fine kernel is a
    # lattice on both specs: its best log-marginal and refined means agree too
    detect = lattice.detect
    for spec, seeds in ((FIT_MEDIUM_SPEC, range(20)), (AUX_HEAVY_SPEC, range(10))):
        for seed in seeds:
            inst = generate_synthetic(spec, seed=seed)
            fits = []
            for found in (detect, lambda X: None):
                monkeypatch.setattr(lattice, "detect", found)
                fits.append([fit_aux_gp(ds, restarts=3, seed=0) for ds in inst.aux_datasets])
            for on_lattice, dense, ds in zip(*fits, inst.aux_datasets):
                searched = "lattice" if len(ds.values) >= lattice.MIN_POINTS else "dense"
                assert on_lattice.diagnostics["gram"]["path"] == searched
                assert dense.diagnostics["gram"] == {"path": "dense"}
                assert on_lattice.log_marginal == pytest.approx(dense.log_marginal, rel=1e-8, abs=0)
            posteriors = [predict_aux(model, inst.fine.centroids) for model in fits[0]]
            design = build_design(posteriors, n_fine=len(inst.fine))
            steps = []
            for found in (detect, lambda X: None):
                monkeypatch.setattr(lattice, "detect", found)
                params = fit_downscale(inst.a, posteriors, inst.fine, inst.amap, restarts=3)
                mean = predict_fine(params, inst.a, design, posteriors, inst.amap).mean
                steps.append((params.diagnostics, mean))
            (on_lattice, mean), (dense, want) = steps
            assert on_lattice["gram"]["path"] == "lattice" and dense["gram"] == {"path": "dense"}
            assert on_lattice["log_marginal"] == pytest.approx(
                dense["log_marginal"], rel=1e-8, abs=0
            )
            assert np.abs(mean - want).max() <= 1e-8 * np.abs(want).max()


def test_fits_from_two_threads_take_turns_and_put_the_pools_back(
    monkeypatch, pools_at_two, search_threads
):
    search_threads(2)  # each search on two threads of its own
    ds = generate_synthetic(SyntheticSpec(), seed=0).aux_datasets[-1]
    want = hex_floats(fit_aux_gp(ds, restarts=2, seed=0).to_dict())
    assert pool_counts() == [2, 2]
    # inside multistart_minimize's pin: pool_size marks where a caller's search
    # begins, and _search runs its starts
    size, search = numerics.pool_size, numerics._search
    events = []

    def watched_size(n):
        events.append(("search", threading.get_ident(), pool_counts()))
        return size(n)

    def watched_search(*args):
        events.append(("start", None, pool_counts()))
        out = search(*args)
        events.append(("end", None, pool_counts()))
        return out

    monkeypatch.setattr(numerics, "pool_size", watched_size)
    monkeypatch.setattr(numerics, "_search", watched_search)
    barrier = threading.Barrier(2)
    got = {}

    def fit():
        barrier.wait()
        got[threading.get_ident()] = hex_floats(fit_aux_gp(ds, restarts=2, seed=0).to_dict())

    callers = [threading.Thread(target=fit) for _ in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=120)
    assert list(got.values()) == [want, want]
    # each search's three starts begin and end before the other caller's
    # search begins, and every start runs on one BLAS thread
    kinds = [kind for kind, _, _ in events]
    starts = ["end"] * 3 + ["start"] * 3
    assert kinds[0] == kinds[7] == "search" and sorted(kinds[1:7]) == sorted(kinds[8:]) == starts
    assert {events[0][1], events[7][1]} == set(got)
    assert all(counts == [1, 1] for _, _, counts in events)
    assert pool_counts() == [2, 2]


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_all_aux_pool_equals_one_fit_per_auxiliary(search_threads, threads):
    # the default synthetic auxiliaries (12 to 120 regions) in one pool: every
    # model, record and posterior equals that of its own fit_aux_gp to the bit
    search_threads(threads)
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    pooled = fit_all_aux(inst.aux_datasets, inst.fine, restarts=2, dataset_ids=inst.aux_ids)
    for ds, aid, (model, post) in zip(inst.aux_datasets, inst.aux_ids, pooled):
        alone = fit_aux_gp(ds, restarts=2, seed=0, dataset_id=aid)
        assert model.diagnostics["workers"] == alone.diagnostics["workers"] == threads
        assert hex_floats(model.to_dict()) == hex_floats(alone.to_dict())
        want = predict_aux(alone, inst.fine.centroids)
        assert hex_floats(posterior_arrays(post)) == hex_floats(posterior_arrays(want))


def test_fit_all_aux_fits_the_largest_first(monkeypatch, rng, search_threads):
    # one thread takes the jobs in the order fit_all_aux passes them, and makes
    # a job's scratch arrays when it takes that job's first start
    search_threads(1)
    built = []
    for_thread = gp_aux._AuxProblem.for_thread
    monkeypatch.setattr(
        gp_aux._AuxProblem, "for_thread", lambda prob: built.append(prob.D2) or for_thread(prob)
    )
    datasets = [
        ArealDataset(point_partition(f"p{n}", rng.uniform(size=(n, 2))), rng.normal(size=n))
        for n in (6, 12, 9, 12)
    ]
    out = fit_all_aux(datasets, grid_partition(2, 2, "f"), restarts=1, dataset_ids=list("abcd"))
    # largest first; the two 12-region fits in input order
    distances = [sq_dists(d.partition.centroids, d.partition.centroids) for d in datasets]
    order = [[np.array_equal(D2, d) for d in distances].index(True) for D2 in built]
    assert order == [1, 3, 2, 0]
    assert [m.dataset_id for m, _ in out] == list("abcd")


def _unit_dataset(rng):
    return ArealDataset(point_partition("p", rng.uniform(size=(6, 2))), rng.normal(size=6))


def test_fit_all_aux_programming_error_propagates(monkeypatch, rng):
    def broken(A):
        raise TypeError("not a factorization failure")

    monkeypatch.setattr(gp_aux, "cholesky_in_place", broken)
    with pytest.raises(TypeError, match="not a factorization failure"):
        fit_all_aux([_unit_dataset(rng)], grid_partition(2, 2, "f"), restarts=1)


def test_fit_all_aux_factorization_failure_on_every_restart_is_typed(monkeypatch, rng):
    def not_pd(A):
        raise FactorizationError("not positive definite")

    monkeypatch.setattr(gp_aux, "cholesky_in_place", not_pd)
    with pytest.raises(AuxFitError, match="'p': all restarts failed"):
        fit_all_aux([_unit_dataset(rng)], grid_partition(2, 2, "f"), restarts=1)


def test_granularity_uncertainty_relation():
    # twin samples of one latent field at 5 vs 200 regions: the coarse twin
    # carries more predictive uncertainty at held-out locations
    true = SEKernelParams(alpha=1.0, gamma=0.2)
    fine_part = grid_partition(6, 6, "f")
    Xf = fine_part.centroids
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X_all = rng.uniform(size=(205, 2))
        K = cov_matrix(true, X_all, X_all) + 1e-10 * np.eye(205)
        f = np.linalg.cholesky(K) @ rng.standard_normal(205)
        y = f + 0.05 * rng.standard_normal(205)
        d_coarse = ArealDataset(point_partition("c", X_all[:5]), y[:5])
        d_fine = ArealDataset(point_partition("g", X_all[5:]), y[5:])
        out = fit_all_aux([d_coarse, d_fine], fine_part, restarts=3, seed=0)
        wins += out[1][1].avg_variance < out[0][1].avg_variance
    assert wins >= 18, f"finer dataset lower variance in only {wins}/20 seeds"


def test_model_json_round_trip(rng):
    X = rng.uniform(size=(10, 2))
    y = rng.normal(size=10)
    model = fit_aux_gp(ArealDataset(point_partition("p", X), y), restarts=2, seed=0)
    back = AuxGPModel.from_dict(model.to_dict(), X, y)
    assert back.params.alpha == pytest.approx(model.params.alpha, rel=1e-12)
    assert back.params.gamma == pytest.approx(model.params.gamma, rel=1e-12)
    assert back.noise_sigma == pytest.approx(model.noise_sigma, rel=1e-12)
    assert back.offset == model.offset
    p1, p2 = predict_aux(model, X[:3]), predict_aux(back, X[:3])
    assert np.allclose(p1.mean, p2.mean, atol=1e-12)


def test_median_pairwise_distance_degenerate():
    X1, X2 = np.array([[1.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])
    assert median_pairwise_distance(X1) == 1.0
    assert median_pairwise_distance(X2) == 1.0
    X5 = np.full((5, 2), 0.3)
    assert triu_median_pairwise_distance(sq_dists(X5, X5)) == 1.0
    assert median_pairwise_distance(X5) == 1.0


# The warm start's median before it was selected in place, through index
# arrays and np.median, kept as an oracle for median_pairwise_distance.
def triu_median_pairwise_distance(D2: np.ndarray) -> float:
    upper = D2[np.triu_indices(D2.shape[0], k=1)]
    if upper.size == 0 or np.all(upper == 0):
        return 1.0
    return float(np.sqrt(np.median(upper[upper > 0])))


# The warm start's median when it read the squared distances D2, before it
# formed each row of them from the points, kept as an oracle too.
def d2_median_pairwise_distance(D2: np.ndarray) -> float:
    n = D2.shape[0]
    upper = np.empty(n * (n - 1) // 2)
    end = 0
    for i in range(n - 1):
        upper[end : end + n - 1 - i] = D2[i, i + 1 :]
        end += n - 1 - i
    zeros = np.count_nonzero(upper == 0)
    positive = upper.size - zeros
    if positive == 0:
        return 1.0
    k = zeros + (positive - 1) // 2
    upper.partition(k)
    median = upper[k]
    if positive % 2 == 0:
        median = (median + upper[k + 1 :].min()) / 2
    return float(np.sqrt(median))


def test_median_pairwise_distance_is_the_triu_median_bit_for_bit(rng):
    # odd and even counts of positive pairs, repeated points (zero distances)
    # and many equal distances on a coarse grid, at scales 1e-5 to 1e4, in one
    # to three dimensions
    parities = set()
    for _ in range(600):
        n = int(rng.integers(1, 30))
        X = rng.normal(size=(n, int(rng.integers(1, 4)))) * 10.0 ** int(rng.integers(-5, 5))
        if rng.random() < 0.5:
            X = X[rng.integers(0, n, size=n)]
        if rng.random() < 0.3:
            X = np.round(X, 1)
        D2 = sq_dists(X, X)
        parities.add(int(np.count_nonzero(np.triu(D2, 1) > 0)) % 2)
        want = triu_median_pairwise_distance(D2).hex()
        assert median_pairwise_distance(X).hex() == d2_median_pairwise_distance(D2).hex() == want
    assert parities == {0, 1}


def test_median_pairwise_distance_holds_half_of_d2s_bytes(rng):
    # the upper triangle, n(n-1)/2 floats, one row of scratch and one boolean
    # mask of it at a time: no n x n array
    X = rng.uniform(size=(1200, 2))
    tracemalloc.start()
    try:
        got = median_pairwise_distance(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D2 = sq_dists(X, X)
    assert peak <= 0.6 * D2.nbytes
    assert got == triu_median_pairwise_distance(D2)


def test_the_lattice_median_is_the_gathered_one_bit_for_bit(rng):
    # grid points in a shuffled order: cell centres, uneven axes, axes with
    # repeated spacings (many equal distances) and scales 1e-4 to 1e4; odd and
    # even counts of pairs
    parities = set()
    for nx, ny in LATTICE_SHAPES + [(7, 3), (9, 9), (31, 2), (40, 30)]:
        for scale in (1e-4, 1.0, 1e4):
            steps = rng.integers(1, 3, size=nx) / 4, rng.integers(1, 3, size=ny)
            axes = [
                ((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny),
                (np.sort(rng.uniform(size=nx)), np.sort(rng.uniform(size=ny)) * 3),
                (np.cumsum(steps[0]), np.cumsum(steps[1])),
            ]
            for gx, gy in axes:
                X = np.array([(x, y) for y in gy for x in gx]) * scale
                lat = lattice.detect(X[rng.permutation(len(X))])
                X = snapped(lat)
                parities.add(len(X) * (len(X) - 1) // 2 % 2)
                assert lat.median_distance().hex() == median_pairwise_distance(X).hex()
    assert parities == {0, 1}


class Searched(Exception):
    """Raised in place of a search, with the first of the starts it was given."""


def searched(jobs, **kwargs):
    [(_, starts, _)] = jobs
    raise Searched(starts[0])


def test_the_warm_starts_count_the_median_on_a_lattice_from_the_floor(monkeypatch):
    # an auxiliary and the second step at 24 x 25 = 600 points count it, at
    # 24 x 20 they gather it; both ways give the same bits on grid points
    def refused(*args):
        raise AssertionError("the median was taken the other way")

    for nx, ny in ((24, 25), (24, 20)):
        part = grid_partition(nx, ny, "g")
        counted = nx * ny >= lattice.MEDIAN_MIN_POINTS
        assert counted == (ny == 25)
        log_median = np.log(median_pairwise_distance(part.centroids))
        amap = build_aggregation(grid_partition(4, 5, "c"), part)
        with monkeypatch.context() as m:
            if counted:
                m.setattr(gp_aux, "median_pairwise_distance", refused)
            else:
                m.setattr(lattice.Lattice, "median_distance", refused)
            fit = _AuxFit.prepare(ArealDataset(part, np.arange(nx * ny) % 7.0), "g", 1, 0)
            assert fit.starts[0][1] == log_median
            m.setattr(downscale, "multistart_minimize", searched)
            with pytest.raises(Searched) as search:
                fit_downscale(ArealDataset(amap.coarse, np.arange(20.0)), [], part, amap)
            assert search.value.args[0][-2] == log_median
            # warm_start finds the lattice itself
            assert gp_aux.warm_start(1.0, part.centroids)[1] == log_median
    # 600 points on no lattice gather it
    X = np.random.default_rng(0).uniform(size=(600, 2))
    with monkeypatch.context() as m:
        m.setattr(lattice.Lattice, "median_distance", refused)
        assert gp_aux.warm_start(1.0, X)[1] == np.log(median_pairwise_distance(X))


def test_the_lattice_median_holds_no_array_of_pairs():
    # 80 x 60: the gather would hold 4800 * 4799 / 2 floats, 92 MB
    lat = lattice.detect(grid_partition(80, 60, "g").centroids)
    tracemalloc.start()
    try:
        lat.median_distance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_sha256_is_hashlibs_digest(rng):
    # gp_aux takes sha256 from CPython's own module, not OpenSSL's
    data = rng.bytes(1 << 16)
    h = gp_aux.sha256()
    h.update(data[:1000])
    h.update(data[1000:])
    assert h.hexdigest() == hashlib.sha256(data).hexdigest()
    assert gp_aux.sha256(b"").hexdigest() == hashlib.sha256(b"").hexdigest()
    X, y = rng.uniform(size=(7, 2)), rng.normal(size=7)
    want = hashlib.sha256()
    for arr in (X, y):
        want.update(repr(arr.shape).encode())
        want.update(arr.astype("<f8").tobytes())
    assert data_sha256(X, y) == want.hexdigest()


def test_posterior_matches_the_dense_covariance(rng):
    # Sigma = K** - K*^T A^-1 K*, formed densely, against var, cov and K M - R M
    X = rng.uniform(size=(9, 2))
    model = fit_aux_gp(ArealDataset(point_partition("p", X), rng.normal(size=9)), restarts=2)
    Xt = rng.uniform(-0.5, 1.5, size=(70, 2))
    post = predict_aux(model, Xt)
    A = cov_matrix(model.params, X, X)
    A += (model.noise_sigma**2 + JITTER_REL * model.params.alpha**2) * np.eye(9)
    Ks = cov_matrix(model.params, X, Xt)
    dense = cov_matrix(model.params, Xt, Xt) - Ks.T @ np.linalg.solve(A, Ks)
    scale = model.params.alpha**2
    assert np.max(np.abs(post.var - np.diag(dense))) <= 1e-12 * scale
    cov = post.cov
    assert np.array_equal(cov, cov.T) and np.array_equal(np.diag(cov), post.var)
    assert np.max(np.abs(cov - dense)) <= 1e-12 * scale
    M = rng.normal(size=(70, 3))
    [KM] = kernels_times([model.params], Xt, M)
    SM = post.reduction.subtract_times(M, KM)
    assert np.max(np.abs(SM - dense @ M)) <= 1e-12 * scale * np.abs(M).sum(0).max()


def lattice_model(X: np.ndarray, params: SEKernelParams, rng) -> AuxGPModel:
    """A model of random values at the centroids X, with the kernel params."""
    return AuxGPModel(
        dataset_id="aux",
        params=params,
        noise_sigma=0.08,
        train_centroids=X,
        train_values=rng.normal(size=len(X)) + 0.4,
        offset=0.4,
        scale=1.0,
        log_marginal=float("nan"),
    )


@pytest.mark.parametrize(
    "shape, gamma",
    [((24, 20), 0.1), ((12, 10), 0.3), ((2, 16), 0.2), ((16, 2), 0.05), ((8, 6), 1e-3)],
)
def test_the_lattice_posterior_is_the_dense_one(monkeypatch, rng, shape, gamma):
    # shuffled training regions, at the fine points of a lattice, at jittered
    # (non-lattice) ones and at the training points themselves; gamma 1e-3 on
    # an 8 x 6 grid makes both axis kernels the identity, which skips dsyev
    nx, ny = shape
    X = grid_partition(nx, ny, "aux").centroids
    X = X[rng.permutation(len(X))]
    model = lattice_model(X, SEKernelParams(1.3, gamma), rng)
    fine = grid_partition(15, 11, "fine").centroids
    for Xt in (fine, fine + rng.uniform(-0.02, 0.02, size=fine.shape), X):
        post = predict_aux(model, Xt)
        assert isinstance(post.reduction, lattice.LatticeReduction)
        with monkeypatch.context() as m:
            m.setattr(lattice, "detect", lambda X: None)
            dense = predict_aux(model, Xt)
        assert isinstance(dense.reduction, gp_aux.DenseReduction)
        M = rng.normal(size=(len(Xt), 5))
        [KM] = kernels_times([model.params], Xt, M)
        pairs = [
            (post.mean, dense.mean),
            (post.var, dense.var),
            (
                post.reduction.subtract_times(M, KM.copy()),
                dense.reduction.subtract_times(M, KM.copy()),
            ),
            (post.cov, dense.cov),
        ]
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        cov = post.cov
        assert np.array_equal(cov, cov.T) and np.array_equal(np.diag(cov), post.var)


def test_a_shuffled_lattice_auxiliary_gives_the_same_posterior_bits(rng):
    # the lattice posterior reads the values in row-major order
    X = grid_partition(12, 10, "aux").centroids
    model = lattice_model(X, SEKernelParams(0.9, 0.15), rng)
    perm = rng.permutation(len(X))
    moved = replace(model, train_centroids=X[perm], train_values=model.train_values[perm])
    Xt = rng.uniform(size=(50, 2))
    post, moved_post = predict_aux(model, Xt), predict_aux(moved, Xt)
    assert hex_floats(posterior_arrays(moved_post)) == hex_floats(posterior_arrays(post))
    M = rng.normal(size=(50, 3))
    [KM] = kernels_times([model.params], Xt, M)
    got = moved_post.reduction.subtract_times(M, KM.copy())
    want = post.reduction.subtract_times(M, KM.copy())
    assert hex_floats([got, moved_post.cov]) == hex_floats([want, post.cov])


def test_the_lattice_posterior_holds_no_n_by_nf_array(rng):
    # an 80 x 60 auxiliary at 1200 points: predict_aux and a product with an
    # nf x 48 array, whose blocks of G are 240 x 1200, each well under one
    # n x nf array (46 MB)
    X = grid_partition(80, 60, "aux").centroids
    model = lattice_model(X, SEKernelParams(1.0, 0.05), rng)
    Xt = grid_partition(40, 30, "fine").centroids
    M = rng.uniform(size=(1200, 48))
    [KM] = kernels_times([model.params], Xt, M)
    tracemalloc.start()
    try:
        post = predict_aux(model, Xt)
        post.reduction.subtract_times(M, KM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * len(X) * len(Xt) * 8


def test_avg_variance_is_diagonal_mean(rng):
    [post] = random_posteriors(rng, rng.uniform(size=(5, 2)), 1)
    assert post.avg_variance == pytest.approx(float(np.mean(post.var)), rel=1e-15)
    assert post.avg_variance == pytest.approx(float(np.mean(np.diag(post.cov))), rel=1e-15)
