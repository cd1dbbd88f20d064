import numpy as np
import pytest
import scipy.linalg

from finescale.numerics import (
    SIGMA_FLOOR,
    CholeskyFactor,
    FactorizationError,
    bfgs_minimize,
    cholesky,
    grad_check,
    inverse,
    log_det,
    multistart_minimize,
    solve,
)

M22 = np.array([[4.0, 2.0], [2.0, 3.0]])


def test_cholesky_identity():
    F = cholesky(np.eye(4))
    assert np.allclose(F.L, np.eye(4), atol=1e-14)


def test_cholesky_hand_factorization():
    F = cholesky(M22)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(F.L, expected, atol=1e-12)


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(FactorizationError) as exc:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot == 2


def test_cholesky_rejects_asymmetric():
    with pytest.raises(Exception):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    M = A @ A.T + n * np.eye(n)
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("n", [2, 7, 60])
def test_cholesky_symmetry_check_threshold(rng, n):
    M = _spd(rng, n)
    scale = np.abs(M).max()
    for rel, raises in ((3e-10, True), (-3e-10, True), (3e-11, False)):
        B = M.copy()
        B[n - 1, 0] += rel * scale
        if raises:
            with pytest.raises(ValueError, match="not symmetric"):
                cholesky(B)
        else:
            cholesky(B)
    # a negative-dominated matrix: the scale is max |M|, not max M
    B = -M
    B[0, n - 1] += 1e-9 * scale
    with pytest.raises(ValueError, match="not symmetric"):
        cholesky(B)


def _reference_cholesky_check(M):
    """The symmetry check as first written, with two n x n temporaries."""
    scale = np.abs(M).max()
    if scale > 0 and np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    return scipy.linalg.cholesky(M, lower=True)


def _outcome(f, M):
    try:
        return ("ok", f(M))
    except Exception as exc:  # the outcome under comparison is the exception itself
        return (type(exc), str(exc))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diagonal", "one_side", "both_sides", "everywhere"])
def test_cholesky_non_finite_matches_reference_check(bad, where):
    M = _spd(np.random.default_rng(3), 5)
    if where == "diagonal":
        M[2, 2] = bad
    elif where == "one_side":
        M[3, 1] = bad
    elif where == "both_sides":
        M[3, 1] = M[1, 3] = bad
    else:
        M[:] = bad
    got, want = _outcome(lambda A: cholesky(A).L, M), _outcome(_reference_cholesky_check, M)
    assert got[0] is want[0] and got[0] != "ok"
    assert got[1] == want[1]


def test_solve_identity(rng):
    b = rng.normal(size=5)
    assert np.allclose(solve(cholesky(np.eye(5)), b), b, atol=1e-14)


def test_solve_hand_case():
    x = solve(cholesky(M22), np.array([1.0, 0.0]))
    assert np.allclose(x, [3.0 / 8.0, -1.0 / 4.0], atol=1e-12)


def test_solve_multicolumn_matches_per_column(rng):
    M = M22
    B = rng.normal(size=(2, 4))
    F = cholesky(M)
    X = solve(F, B)
    for k in range(4):
        assert np.allclose(X[:, k], solve(F, B[:, k]), atol=1e-13)


def test_solve_residual_small(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        A = rng.normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve(cholesky(M), b)
        assert np.linalg.norm(M @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_inverse_matches_solve_against_identity(rng):
    for n in (1, 2, 7, 60, 240):
        A = rng.normal(size=(n, n))
        F = cholesky(A @ A.T + n * np.eye(n))
        inv = inverse(F)
        ref = solve(F, np.eye(n))
        assert np.max(np.abs(inv - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.array_equal(inv, inv.T)


def test_inverse_of_singular_factor_is_typed():
    L = np.tril(np.ones((4, 4)))
    L[2, 2] = 0.0
    with pytest.raises(FactorizationError):
        inverse(CholeskyFactor(L=L))


def test_log_det_identity():
    assert log_det(cholesky(np.eye(7))) == pytest.approx(0.0, abs=1e-14)


def test_log_det_diagonal():
    assert log_det(cholesky(np.diag([2.0, 8.0]))) == pytest.approx(np.log(16.0), abs=1e-12)


def test_log_det_hand_case():
    assert log_det(cholesky(M22)) == pytest.approx(np.log(8.0), abs=1e-12)


def _quadratic(x):
    return float(x @ x), 2.0 * x


def test_bfgs_quadratic_bowl():
    res = bfgs_minimize(_quadratic, np.array([3.0, 4.0]))
    assert res.converged
    assert np.allclose(res.argmin, 0.0, atol=1e-6)


def _rosenbrock(x):
    a, b = x
    val = (1 - a) ** 2 + 100.0 * (b - a**2) ** 2
    grad = np.array(
        [-2.0 * (1 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)]
    )
    return float(val), grad


def test_bfgs_rosenbrock():
    res = bfgs_minimize(_rosenbrock, np.array([-1.2, 1.0]))
    assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-4)


def test_bfgs_already_stationary():
    res = bfgs_minimize(_quadratic, np.zeros(3))
    assert res.converged
    assert res.iterations <= 1
    assert res.gradient_norm <= 1e-6


def test_bfgs_deterministic():
    r1 = bfgs_minimize(_rosenbrock, np.array([-1.2, 1.0]))
    r2 = bfgs_minimize(_rosenbrock, np.array([-1.2, 1.0]))
    assert np.array_equal(r1.argmin, r2.argmin)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_bfgs_objective_monotone_over_accepted_iterates():
    history = []

    def f(x):
        val, grad = _rosenbrock(x)
        history.append((x.copy(), val))
        return val, grad

    bfgs_minimize(f, np.array([-1.2, 1.0]))
    # reconstruct the accepted sequence: objective at each improvement point
    best = np.inf
    accepted = []
    for _, val in history:
        if val < best:
            best = val
            accepted.append(val)
    assert all(a > b for a, b in zip(accepted, accepted[1:]))


def _linear_on_large_offset(x):
    # each step moves the objective by 1 part in 1e12 while the gradient stays 1
    return 1e12 + float(x[0]), np.array([1.0])


def _wrong_gradient(x):
    # the gradient points uphill, so no step along -gradient decreases f
    return float(x @ x), -2.0 * x


def test_bfgs_ftol_stop_with_large_gradient_is_not_converged():
    res = bfgs_minimize(_linear_on_large_offset, np.zeros(1))
    assert res.stop == "ftol"
    assert not res.converged
    assert res.gradient_norm == 1.0


@pytest.mark.parametrize(
    "f, x0, max_iter, stop",
    [
        (_quadratic, [3.0, 4.0], 500, "gtol"),
        (_rosenbrock, [-1.2, 1.0], 3, "max_iter"),
        (_wrong_gradient, [1.0], 500, "line_search"),
    ],
)
def test_bfgs_stop_reason(f, x0, max_iter, stop):
    res = bfgs_minimize(f, np.array(x0), max_iter=max_iter)
    assert res.stop == stop
    assert res.converged == (stop == "gtol")


def _double_well(theta):
    # minima at theta[0] = +-1; the trailing (log alpha, log gamma, log sigma) are inert
    x = theta[0]
    grad = np.zeros_like(theta)
    grad[0] = 4.0 * x * (x * x - 1.0)
    return float((x * x - 1.0) ** 2), grad


def test_multistart_keeps_the_lowest_objective():
    starts = [np.array([x, 0.0, 0.0, 0.0]) for x in (3.0, 1.0, 2.0)]
    best, records = multistart_minimize(_quadratic, starts, max_iter=0)
    assert [r["objective"] for r in records] == [9.0, 1.0, 4.0]
    assert all(r["stop"] == "max_iter" and r["evaluations"] == 1 for r in records)
    assert best.objective == 1.0
    assert np.array_equal(best.argmin, starts[1])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_multistart_earliest_start_wins_an_exact_tie(sign):
    # mirrored starts take mirrored paths to bit-identical objectives
    starts = [np.array([2.0 * sign, 0.0, 0.0, 0.0]), np.array([-2.0 * sign, 0.0, 0.0, 0.0])]
    first, second = (bfgs_minimize(_double_well, x0) for x0 in starts)
    assert first.objective == second.objective
    assert first.argmin[0] == -second.argmin[0] != 0.0
    best, records = multistart_minimize(_double_well, starts)
    assert records[0]["converged"] and records[0]["stop"] == "gtol"
    assert np.array_equal(best.argmin, first.argmin)


def test_multistart_skips_infeasible_and_unfactorizable_starts():
    calls = []

    def f(theta):
        calls.append(theta)
        if theta[0] > 0:
            raise FactorizationError("not positive definite")
        return _quadratic(theta)

    starts = [
        np.array([0.0, 0.0, 0.0, np.log(SIGMA_FLOOR) - 1.0]),  # sigma below the floor
        np.array([0.0, 0.0, 21.0, 0.0]),  # a log-parameter beyond 20
        np.array([np.nan, 0.0, 0.0, 0.0]),  # non-finite theta
        np.array([1.0, 0.0, 0.0, 0.0]),  # factorization failure
    ]
    best, records = multistart_minimize(f, starts)
    assert best is None
    assert len(calls) == 1  # only the in-box start reaches f
    assert all(r["evaluations"] == 1 and "non-finite" in r["error"] for r in records)


def test_grad_check_exact_quadratic(rng):
    x = rng.normal(size=4)
    assert grad_check(_quadratic, x) <= 1e-9


def test_grad_check_flags_wrong_gradient(rng):
    def wrong(x):
        val, grad = _quadratic(x)
        return val, 2.0 * grad

    # at x = 0.25: analytic (doubled) = 1, numeric = 0.5, denominator
    # max(1, |numeric|) = 1, so the reported error is 0.5
    err = grad_check(wrong, np.full(4, 0.25))
    assert err == pytest.approx(0.5, abs=1e-6)
    # and a generic point still reports a large error
    assert grad_check(wrong, rng.normal(size=4) + 1.0) > 0.3
