import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import factor_copy, random_H, se_kernel
from finescale import kernel
from finescale.kernel import (
    JITTER_REL,
    SEKernelParams,
    cov_matrix,
    kernels_times,
    rows_times,
    se_from_sq_dists,
    sq_dists,
)

P11 = SEKernelParams(alpha=1.0, gamma=1.0)


def test_zero_distance_gives_amplitude_squared():
    p = SEKernelParams(alpha=1.7, gamma=0.4)
    assert se_kernel(p, (0.3, -0.2), (0.3, -0.2)) == pytest.approx(1.7**2, rel=1e-14)


def test_unit_params_squared_distance_two():
    # alpha=1, gamma=1, squared distance 2 -> exp(-1)
    val = se_kernel(P11, (0.0, 0.0), (1.0, 1.0))
    assert val == pytest.approx(0.36787944117144233, abs=1e-12)


def test_monotone_decay_in_distance():
    vals = [se_kernel(P11, (0.0, 0.0), (d, 0.0)) for d in np.linspace(0, 10, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_single_point_matrix():
    p = SEKernelParams(alpha=2.0, gamma=1.0)
    M = cov_matrix(p, [[0.0, 0.0]], [[0.0, 0.0]])
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(4.0, rel=1e-14)


def test_symmetry_exact(rng):
    # exact as built, on a grid and on random points of several sizes
    grid = np.stack(np.meshgrid(np.arange(40) / 40, np.arange(30) / 30), axis=-1).reshape(-1, 2)
    random = [rng.uniform(size=(17, 2)), rng.uniform(-3, 3, size=(777, 2)), rng.uniform(size=(500, 2))]
    for X in [grid, *random]:
        for p in (P11, SEKernelParams(alpha=1.3, gamma=0.2)):
            M = cov_matrix(p, X, X)
            assert np.array_equal(M, M.T)


def test_se_into_destination_equals_new_array(rng):
    D2 = sq_dists(*(rng.uniform(size=(2, 37, 2))))
    want = se_from_sq_dists(1.3, 0.2, D2)
    for order in ("C", "F"):
        out = np.full(D2.shape, np.nan, order=order)
        assert se_from_sq_dists(1.3, 0.2, D2, out=out) is out
        assert np.array_equal(out, want)
    # in place over its own input, as cov_matrix computes it
    in_place = D2.copy()
    assert se_from_sq_dists(1.3, 0.2, in_place, out=in_place) is in_place
    assert np.array_equal(in_place, want)


def four_steps(alpha, gamma, D2):
    """alpha^2 * exp(-0.5 * D2 / gamma^2) in se_from_sq_dists' steps, exp on every entry."""
    K = np.multiply(-0.5, D2)
    K /= gamma**2
    np.exp(K, out=K)
    K *= alpha**2
    return K


@pytest.mark.parametrize("gamma", [1.0, 0.37])
def test_se_of_underflowed_exponents_has_the_bits_of_exp_on_every_entry(rng, gamma):
    # exponents across exp's subnormal band, below -750, at its edges, and
    # from infinite squared distances
    exponents = np.concatenate([
        rng.uniform(-760.0, -700.0, 20000),
        rng.uniform(-1e6, -750.0, 1000),
        [0.0, -1.0, -708.0, -708.4, -745.1, -745.2, -750.0, -750.000001, -np.inf, np.inf],
    ])
    D2 = (-2.0 * gamma**2 * exponents).reshape(-1, 10)
    want = four_steps(1.3, gamma, D2)
    assert np.count_nonzero(want) and np.isinf(want).any() and (want < 1e-308).any()
    for dest in (None, np.full(D2.shape, np.nan, order="F")):
        assert se_from_sq_dists(1.3, gamma, D2, out=dest).tobytes() == want.tobytes()
    in_place = D2.copy()
    se_from_sq_dists(1.3, gamma, in_place, out=in_place)
    assert in_place.tobytes() == want.tobytes()


def test_three_collinear_equidistant_points():
    X = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    M = cov_matrix(P11, X, X)
    assert np.allclose(np.diag(M), 1.0, atol=1e-14)
    assert M[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert M[1, 2] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert M[0, 2] == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_jittered_gram_is_positive_definite(rng):
    for _ in range(10):
        n = int(rng.integers(2, 30))
        X = rng.uniform(size=(n, 2))
        X[0] = X[1]  # duplicate point stresses the factorization
        p = SEKernelParams(alpha=float(rng.uniform(0.1, 3.0)), gamma=float(rng.uniform(0.05, 2.0)))
        M = cov_matrix(p, X, X) + JITTER_REL * p.alpha**2 * np.eye(n)
        factor_copy(M)  # raises on failure


@given(
    x=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    y=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    theta=st.floats(0, 2 * np.pi),
)
@settings(max_examples=50, deadline=None)
def test_translation_and_rotation_invariance(x, y, shift, theta):
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x, y, shift = np.array(x), np.array(y), np.array(shift)
    base = se_kernel(P11, x, y)
    assert se_kernel(P11, x + shift, y + shift) == pytest.approx(base, abs=1e-10)
    assert se_kernel(P11, R @ x, R @ y) == pytest.approx(base, abs=1e-10)


@given(
    x=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    y=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
@settings(max_examples=50, deadline=None)
def test_bounds_with_equality_iff_same_point(x, y):
    val = se_kernel(P11, x, y)
    assert 0 < val <= 1.0
    if x == y:
        assert val == 1.0
    elif sum((a - b) ** 2 for a, b in zip(x, y)) > 1e-14:
        # strict inequality requires a distance resolvable in float64
        assert val < 1.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        SEKernelParams(alpha=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        SEKernelParams(alpha=1.0, gamma=-1.0)


def test_log_param_round_trip():
    p = SEKernelParams(alpha=0.7, gamma=2.5)
    q = SEKernelParams.from_log(np.log(p.alpha), np.log(p.gamma))
    assert q.alpha == pytest.approx(p.alpha, rel=1e-14)
    assert q.gamma == pytest.approx(p.gamma, rel=1e-14)


def test_sq_dists_matches_direct(rng):
    A = rng.normal(size=(6, 2))
    B = rng.normal(size=(9, 2))
    D2 = sq_dists(A, B)
    direct = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(D2, direct, atol=1e-12)


def einsum_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, |A| x |B|.

    The form that reduced the full (|A|, |B|, d) difference array; kept as
    the oracle for sq_dists, which sums squared column differences in place.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    diff = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("n, m", [(300, 300), (257, 1200), (1, 5)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 37.3, 1e4])
def test_sq_dists_matches_einsum_oracle(n, m, scale):
    rng = np.random.default_rng(n * m)
    for d in (1, 2, 3):
        A = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
        B = rng.uniform(-1.0, 1.0, size=(m, d)) * scale
        D2, oracle = sq_dists(A, B), einsum_sq_dists(A, B)
        if d <= 2:  # the package's points are x, y: bit for bit
            assert np.array_equal(D2, oracle)
        else:
            assert np.all(np.abs(D2 - oracle) <= 1e-15 * oracle)


@given(
    points=st.lists(
        st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=2, max_size=2
        ),
        min_size=1,
        max_size=12,
    )
)
@example(points=[[1e300, -1e300], [-1e300, 1e300], [0.0, 5e-324], [1.0, -0.0]])
@settings(max_examples=200, deadline=None)
def test_sq_dists_of_a_point_set_with_itself_equals_its_transpose_bit_for_bit(points):
    # the symmetry every Gram of the package rests on, which cholesky_in_place
    # does not check: (a - b)^2 and (b - a)^2 round alike, and so do their
    # sums, also where they overflow to inf
    X = np.array(points)
    with np.errstate(over="ignore"):
        D2 = sq_dists(X, X)
    assert D2.tobytes() == D2.T.tobytes()


def test_sq_dists_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        sq_dists(np.zeros((3, 2)), np.zeros((4, 3)))


def single_kernel_times(params: SEKernelParams, X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """k(X, X) M with each KERNEL_ROWS-row block of the kernel formed by
    cov_matrix on its own: the one-kernel pass that kernels_times replaced,
    kept as its oracle."""
    rows = kernel.KERNEL_ROWS
    out = np.empty((len(X), M.shape[1]))
    for i in range(0, len(X), rows):
        np.matmul(cov_matrix(params, X[i : i + rows], X), M, out=out[i : i + rows])
    return out


@pytest.mark.parametrize("rows", [1, 7, 64, 256])
def test_kernels_times_is_one_single_kernel_pass_per_kernel(rows, monkeypatch):
    # 601 points: a multiple of none of the blocks but 1; H^T as the refine
    # passes it, a transposed view, and a C-ordered M. Points in 1, 2 and 3
    # dimensions, and 5 points, fewer than every block but 1
    monkeypatch.setattr(kernel, "KERNEL_ROWS", rows)
    rng = np.random.default_rng(rows)
    kernels = [SEKernelParams(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.05, 1.0)))
               for _ in range(3)]
    kernels.append(kernels[0])
    for n, dim in [(601, 2), (601, 1), (601, 3), (5, 2)]:
        X = rng.uniform(-2.0, 2.0, size=(n, dim))
        for M in (random_H(rng, min(13, n), n).T, rng.normal(size=(n, 5))):
            got = kernels_times(kernels, X, M)
            assert len(got) == len(kernels)
            for params, KM in zip(kernels, got):
                assert np.array_equal(KM, single_kernel_times(params, X, M))
                # and the fit's product on its whole kernel
                assert np.array_equal(KM, rows_times(cov_matrix(params, X, X), M))
    assert kernels_times([], X, M) == []


def test_kernels_times_takes_the_underflow_branch_block_by_block(monkeypatch):
    # 300 points on a line, 1.5 times the distance at which an exponent
    # passes -708: blocks of rows near the middle see no exponent below it,
    # blocks near the ends do
    monkeypatch.setattr(kernel, "KERNEL_ROWS", 32)
    rng = np.random.default_rng(5)
    params = SEKernelParams(1.3, 0.05)
    reach = np.sqrt(2 * 708.0) * params.gamma
    t = np.sort(rng.uniform(0.0, 1.5 * reach, 300))
    X = np.column_stack([t, 0.25 * t])
    X *= 1.5 * reach / np.sqrt(sq_dists(X[:1], X[-1:])[0, 0])
    lowest = [
        (-0.5 * sq_dists(X[i : i + 32], X) / params.gamma**2).min() for i in range(0, 300, 32)
    ]
    assert min(lowest) < -708.0 < max(lowest)
    M = rng.normal(size=(300, 4))
    branches = []
    se = kernel._se_from_exponent
    monkeypatch.setattr(
        kernel, "_se_from_exponent", lambda a, E, under: branches.append(under) or se(a, E, under)
    )
    [KM] = kernels_times([params], X, M)
    assert branches == [low < -708.0 for low in lowest]
    assert np.array_equal(KM, single_kernel_times(params, X, M))
    assert np.array_equal(KM, rows_times(cov_matrix(params, X, X), M))


def test_kernels_times_holds_two_block_buffers():
    # past the outputs, the pass's peak is two KERNEL_ROWS x n buffers and
    # ufunc scratch far smaller than a third
    rng = np.random.default_rng(2)
    n, m = 700, 6
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    M = rng.normal(size=(n, m))
    kernels = [SEKernelParams(1.0, g) for g in (0.02, 0.3, 2.0)]
    block = kernel.KERNEL_ROWS * n * 8
    tracemalloc.start()
    try:
        outs = kernels_times(kernels, X, M)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= len(kernels) * n * m * 8
    assert 2 * block <= peak - held < 2 * block + block // 4
    assert len(outs) == len(kernels)
