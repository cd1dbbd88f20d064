import sys
import threading
import time
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import factor_copy, grad_check, inverse, pool_counts
from finescale import numerics
from finescale.numerics import (
    BLAS_THREAD_VARIABLES,
    SIGMA_FLOOR,
    CholeskyFactor,
    FactorizationError,
    bfgs_minimize,
    cholesky_in_place,
    eigh_in_place,
    gaussian_nll,
    inverse_in_place,
    log_det,
    multistart_minimize,
    one_blas_thread,
    pool_size,
    solve,
    solve_lower,
)

M22 = np.array([[4.0, 2.0], [2.0, 3.0]])


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    M = A @ A.T + n * np.eye(n)
    return 0.5 * (M + M.T)


def _transposed(M):
    """cholesky_in_place on a C-ordered copy of M, factored in its memory as its transpose."""
    return cholesky_in_place(np.array(M, dtype=float).T)


# both ways in: a Fortran-ordered copy, and the transpose of a C-ordered one
CHOLESKY_PATHS = (factor_copy, _transposed)


def test_cholesky_identity():
    F = factor_copy(np.eye(4))
    assert np.allclose(F.L, np.eye(4), atol=1e-14)


def test_cholesky_hand_factorization():
    F = factor_copy(M22)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(F.L, expected, atol=1e-12)


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(FactorizationError) as exc:
        factor_copy(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot == 2
    # the pivot scipy names, through both paths
    M = _spd(np.random.default_rng(4), 6)
    M[3, 3] = -1.0
    with pytest.raises(scipy.linalg.LinAlgError, match="4-th leading minor"):
        scipy.linalg.cholesky(M, lower=True)
    for factor in CHOLESKY_PATHS:
        with pytest.raises(FactorizationError, match=r"\(pivot 4\)") as exc:
            factor(M)
        assert exc.value.pivot == 4


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
    want = _outcome(lambda A: scipy.linalg.cholesky(A, lower=True), M)
    for factor in CHOLESKY_PATHS:
        got = _outcome(lambda A: factor(A).L, M)
        assert got[0] is want[0] and got[0] != "ok"
        assert got[1] == want[1]


@pytest.mark.parametrize("n", [1, 2, 7, 60, 240])
def test_cholesky_factor_equals_scipy_bit_for_bit(rng, n):
    M = _spd(rng, n)
    want = scipy.linalg.cholesky(M, lower=True)
    B = np.array(M, order="F")
    F = cholesky_in_place(B)
    assert F.L is B and np.array_equal(B, want)
    # an exactly symmetric C-ordered M, factored in its own memory through M.T
    C = M.copy()
    F = cholesky_in_place(C.T)
    assert np.shares_memory(F.L, C) and np.array_equal(F.L, want)


def test_cholesky_rejects_a_destination_lapack_would_copy(rng):
    M = _spd(rng, 5)
    frozen = np.array(M, order="F")
    frozen.flags.writeable = False
    wrong = [np.array(M), np.array(M, np.float32, order="F"), np.ones((4, 5), order="F"), frozen]
    for A in wrong:
        with pytest.raises(ValueError, match="Fortran-ordered"):
            cholesky_in_place(A)


@pytest.mark.parametrize("n", [1, 2, 7, 240, 480])
def test_lapack_through_ctypes_equals_scipy_lapack(rng, n):
    M = _spd(rng, n)
    want_L, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=1)
    assert info == 0
    L = np.array(M, order="F")
    assert numerics._on_lower(numerics._dpotrf, L) == 0
    numerics._zero_above_diagonal(L)
    assert np.array_equal(L, want_L)
    want_inv, info = scipy.linalg.lapack.dpotri(want_L, lower=1)
    assert info == 0
    assert numerics._on_lower(numerics._dpotri, L) == 0
    assert np.array_equal(L, want_inv)
    # not positive definite: the same pivot
    M[n // 2, n // 2] = -1.0
    _, want_pivot = scipy.linalg.lapack.dpotrf(M, lower=1, clean=1)
    with pytest.raises(FactorizationError) as exc:
        factor_copy(M)
    assert exc.value.pivot == want_pivot == n // 2 + 1


def _same_bits(a, b) -> bool:
    """Equal shapes and bits: unlike ==, -0.0 and +0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 256, 257, 480])
def test_diagonal_factor_and_inverse_are_lapacks_bits_without_lapack(rng, monkeypatch, n):
    # across OpenBLAS's blocking sizes and magnitudes 1e-300 to 1e300
    M = np.diag(10.0 ** rng.uniform(-300, 300, n))
    want_L = np.array(M, order="F")
    assert numerics._on_lower(numerics._dpotrf, want_L) == 0
    numerics._zero_above_diagonal(want_L)
    want_inv = inverse(CholeskyFactor(L=want_L.copy(order="F")))  # a factor by hand: dpotri
    monkeypatch.setattr(numerics, "_on_lower", None)  # a LAPACK call would fail
    for factor in CHOLESKY_PATHS:
        F = factor(M)
        assert F.diagonal and _same_bits(F.L, want_L)
        assert _same_bits(inverse(F), want_inv)
        got = inverse_in_place(F)
        assert np.shares_memory(got, F.L) and _same_bits(got, want_inv)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_a_diagonal_with_a_non_positive_entry_raises_dpotrfs_pivot(bad):
    M = np.diag([2.0, 3.0, bad, 5.0])
    for factor in CHOLESKY_PATHS:
        with pytest.raises(FactorizationError) as exc:
            factor(M)
        assert exc.value.pivot == 3


@pytest.mark.parametrize("entry", [-0.0, 5e-324])
def test_a_signed_zero_or_subnormal_off_the_diagonal_goes_to_dpotrf(entry):
    M = np.diag([4.0, 9.0, 16.0])
    M[2, 0] = M[0, 2] = entry
    want, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=1)
    assert info == 0 and np.signbit(want[2, 0]) == np.signbit(entry)
    for factor in CHOLESKY_PATHS:
        F = factor(M)
        assert not F.diagonal and _same_bits(F.L, want)


def test_missing_scipy_or_routine_is_an_import_error(monkeypatch, tmp_path):
    with pytest.raises(ImportError, match="no routine dnosuch"):
        numerics._lapack("dnosuch")
    monkeypatch.setattr(numerics.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy was not found"):
        numerics._scipy_lapack()
    # a scipy directory without the extension file
    spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(numerics.importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match="cannot load scipy's LAPACK from .*cython_lapack"):
        numerics._scipy_lapack()


def test_solve_identity(rng):
    b = rng.normal(size=5)
    assert np.allclose(solve(factor_copy(np.eye(5)), b), b, atol=1e-14)


def test_solve_hand_case():
    x = solve(factor_copy(M22), np.array([1.0, 0.0]))
    assert np.allclose(x, [3.0 / 8.0, -1.0 / 4.0], atol=1e-12)


def test_solve_multicolumn_matches_per_column(rng):
    M = M22
    B = rng.normal(size=(2, 4))
    F = factor_copy(M)
    X = solve(F, B)
    for k in range(4):
        assert np.allclose(X[:, k], solve(F, B[:, k]), atol=1e-13)


def test_solve_residual_small(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        A = rng.normal(size=(n, n))
        M = A @ A.T + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve(factor_copy(M), b)
        assert np.linalg.norm(M @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_b(rng, bad):
    F = factor_copy(M22)
    b = rng.normal(size=(2, 3))
    assert np.array_equal(solve(F, b), scipy.linalg.cho_solve((F.L, True), b))
    b[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve(F, b)


@pytest.mark.parametrize("n", [1, 2, 7, 240, 480])
def test_solves_through_ctypes_equal_scipy_bit_for_bit(rng, n):
    F = factor_copy(_spd(rng, n))
    rhs = {
        "vector": rng.normal(size=n),
        "C-ordered": rng.normal(size=(n, 3)),
        "F-ordered": np.asfortranarray(rng.normal(size=(n, 4))),
        "one column": rng.normal(size=(n, 1)),
    }
    for kind, b in rhs.items():
        before = b.copy()
        for got, want in (
            (solve(F, b), scipy.linalg.cho_solve((F.L, True), b)),
            (solve_lower(F, b), scipy.linalg.solve_triangular(F.L, b, lower=True)),
        ):
            assert got.shape == want.shape, kind
            assert got.flags.f_contiguous == want.flags.f_contiguous, kind
            assert np.array_equal(got, want), kind
        assert np.array_equal(b, before), kind  # b itself is never overwritten


@pytest.mark.parametrize("routine", [solve, solve_lower])
def test_solves_reject_a_right_hand_side_of_the_wrong_shape(rng, routine):
    F = factor_copy(_spd(rng, 3))
    for b in (np.ones(2), np.ones((4, 3)), np.ones((3, 2, 2)), np.array(1.0)):
        with pytest.raises(ValueError, match="shape mismatch"):
            routine(F, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_lower_rejects_non_finite_b(rng, bad):
    b = rng.normal(size=3)
    b[1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_lower(factor_copy(_spd(rng, 3)), b)


@pytest.mark.parametrize(("routine", "argument"), [(solve, 5), (solve_lower, 7)])
def test_solves_raise_lapack_illegal_argument(routine, argument):
    # a 0 x 0 factor gives lda = 0, below LAPACK's minimum of 1
    empty = CholeskyFactor(L=np.zeros((0, 0), order="F"))
    with pytest.raises(ValueError, match=f"illegal value in argument {argument}$"):
        routine(empty, np.zeros(0))


def test_solve_lower_of_a_singular_factor_is_a_numerical_error():
    L = np.asfortranarray(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(numerics.NumericalError, match="singular"):
        solve_lower(CholeskyFactor(L=L), np.ones(3))


def triu_inverse(F):
    """M^-1 symmetrised from dpotri's lower triangle through np.triu, the first form."""
    lower, info = scipy.linalg.lapack.dpotri(F.L, lower=1)
    if info != 0:
        raise FactorizationError(f"dpotri failed (info {info})", pivot=info if info > 0 else None)
    upper = np.triu(lower.T)  # dpotri fills only the lower triangle
    inv = upper + upper.T
    np.fill_diagonal(inv, upper.diagonal())
    return inv


def test_inverse_matches_solve_against_identity(rng):
    for n in (1, 2, 7, 60, 64, 65, 240):
        A = rng.normal(size=(n, n))
        F = factor_copy(A @ A.T + n * np.eye(n))
        inv = inverse(F)
        ref = solve(F, np.eye(n))
        assert np.max(np.abs(inv - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.array_equal(inv, inv.T)
        assert np.array_equal(inv, triu_inverse(F))
        # in place: dpotri on F.L, the full inverse in its memory, read as F.L.T
        L = F.L.copy(order="F")
        got = inverse_in_place(CholeskyFactor(L=L))
        assert np.shares_memory(got, L) and got.flags.c_contiguous and _same_bits(got, inv)


def test_inverse_of_singular_factor_is_typed():
    L = np.tril(np.ones((4, 4)))
    L[2, 2] = 0.0
    with pytest.raises(FactorizationError):
        inverse(CholeskyFactor(L=L))
    with pytest.raises(FactorizationError):
        inverse_in_place(CholeskyFactor(L=np.asfortranarray(L)))
    # a factor built by hand is never taken for diagonal: dpotri runs and fails
    with pytest.raises(FactorizationError):
        inverse(CholeskyFactor(L=np.diag([1.0, 0.0, 2.0])))


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 128, 129, 200])
def test_the_mirror_gives_the_bits_of_the_sum_with_the_transpose(rng, monkeypatch, n):
    # dpotri's output stood in for by random lower triangles holding -0.0, +0.0,
    # nan and infs: below the diagonal a -0.0 becomes +0.0, on it nothing changes
    monkeypatch.setattr(numerics, "_potri", lambda L: None)
    for _ in range(3):
        lower = rng.normal(size=(n, n))
        pick = rng.random((n, n))
        lower[pick < 0.2] = -0.0
        lower[(pick >= 0.2) & (pick < 0.3)] = 0.0
        lower[(pick >= 0.3) & (pick < 0.32)] = np.nan
        lower[(pick >= 0.32) & (pick < 0.34)] = -np.inf
        every_other = np.arange(0, n, 2)
        lower[every_other, every_other] = -0.0
        L = np.asfortranarray(np.tril(lower))
        want = L + L.T
        np.fill_diagonal(want, L.diagonal())
        got = inverse_in_place(CholeskyFactor(L=L))
        assert got.base is L and _same_bits(got, want)


def test_cholesky_in_place_is_cholesky_without_its_symmetry_check(rng):
    M = _spd(rng, 70)
    A = np.array(M, order="F")
    F = cholesky_in_place(A)
    assert F.L is A and _same_bits(A, scipy.linalg.cholesky(M, lower=True))
    # it factors the lower triangle it is given; the caller proves the symmetry
    B = np.array(M, order="F")
    B[0, 69] += 1.0
    assert _same_bits(cholesky_in_place(B).L, A)
    for wrong in (np.array(M), np.array(M, order="F", dtype=np.float32), np.ones((3, 4), order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            cholesky_in_place(wrong)
    B = np.array(M, order="F")
    B[5, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        cholesky_in_place(B)


def test_inverse_in_place_refuses_a_factor_it_cannot_overwrite(rng):
    F = factor_copy(_spd(rng, 5))
    for L in (np.ascontiguousarray(F.L), F.L.astype(np.float32, order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            inverse_in_place(CholeskyFactor(L=L))


@pytest.mark.parametrize("n", [1, 2, 5, 24, 40])
def test_eigh_in_place_is_scipys_eigendecomposition(rng, n):
    # dsyev's eigenvalues, ascending, with orthonormal eigenvectors in A's memory
    M = rng.normal(size=(n, n))
    S = M + M.T
    A = np.array(S, order="F")
    w = eigh_in_place(A)
    want = scipy.linalg.eigh(S, eigvals_only=True)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - want)) <= 1e-12 * np.abs(want).max()
    assert np.max(np.abs(A.T @ A - np.eye(n))) <= 1e-12
    assert np.max(np.abs(S @ A - A * w)) <= 1e-12 * np.abs(want).max()


def test_eigh_in_place_refuses_what_it_cannot_decompose(rng):
    S = np.array(_spd(rng, 4), order="F")
    not_square, not_float64 = np.asfortranarray(S[:, :3]), S.astype(np.float32, order="F")
    for A in (not_square, not_float64, np.ascontiguousarray(S)):
        with pytest.raises(ValueError, match="Fortran-ordered"):
            eigh_in_place(A)
    S[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigh_in_place(S)


def test_gaussian_nll_is_both_inline_forms_bit_for_bit(rng):
    # the auxiliary fit's -log density and the negated log-likelihood of the second step
    for n in range(1, 61):
        F = factor_copy(_spd(rng, n))
        r = rng.normal(size=n)
        nll, p = gaussian_nll(F, r)
        assert np.array_equal(p, solve(F, r))
        aux = float(0.5 * r @ p + 0.5 * log_det(F) + 0.5 * n * np.log(2 * np.pi))
        ll = float(-0.5 * r @ p - 0.5 * log_det(F) - 0.5 * n * np.log(2 * np.pi))
        assert nll.hex() == aux.hex() == (-ll).hex()


def test_log_det_identity():
    assert log_det(factor_copy(np.eye(7))) == pytest.approx(0.0, abs=1e-14)


def test_log_det_diagonal():
    assert log_det(factor_copy(np.diag([2.0, 8.0]))) == pytest.approx(np.log(16.0), abs=1e-12)


def test_log_det_hand_case():
    assert log_det(factor_copy(M22)) == pytest.approx(np.log(8.0), abs=1e-12)


# The objectives below follow bfgs_minimize's protocol: f(x, accept) returns
# the value and, only where accept(value) holds, the gradient; else None.
def _quadratic(x, accept):
    value = float(x @ x)
    return value, (2.0 * x if accept(value) else None)


def test_bfgs_quadratic_bowl():
    res = bfgs_minimize(_quadratic, np.array([3.0, 4.0]))
    assert res.converged
    assert np.allclose(res.argmin, 0.0, atol=1e-6)


def _rosenbrock(x, accept):
    a, b = x
    val = float((1 - a) ** 2 + 100.0 * (b - a**2) ** 2)
    if not accept(val):
        return val, None
    return val, np.array([-2.0 * (1 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)])


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

    def f(x, accept):
        val, grad = _rosenbrock(x, accept)
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


def _linear_on_large_offset(x, accept):
    # each step moves the objective by 1 part in 1e12 while the gradient stays 1
    value = 1e12 + float(x[0])
    return value, (np.array([1.0]) if accept(value) else None)


def _wrong_gradient(x, accept):
    # the gradient points uphill, so no step along -gradient decreases f
    value = float(x @ x)
    return value, (-2.0 * x if accept(value) else None)


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
def test_bfgs_stop_reason(monkeypatch, f, x0, max_iter, stop):
    monkeypatch.setattr(numerics, "MAX_ITER", max_iter)
    res = bfgs_minimize(f, np.array(x0))
    assert res.stop == stop
    assert res.converged == (stop == "gtol")


def test_bfgs_asks_for_the_gradient_only_where_it_keeps_the_point():
    kept, called = [], []
    x0 = np.array([-1.2, 1.0])

    def f(x, accept):
        called.append(x.copy())

        def recorded(value):
            if accept(value):
                kept.append(x.copy())
                return True
            return False

        return _rosenbrock(x, recorded)

    res = bfgs_minimize(f, x0)
    # accept is true at the start and at the point of every accepted step, and nowhere else
    assert len(kept) == res.iterations + 1
    assert np.array_equal(kept[0], x0) and np.array_equal(kept[-1], res.argmin)
    assert len(called) > len(kept)  # the line search tried points it then rejected


def _bowl_with_a_wall(theta, accept):
    # a bowl centred at x = 3 whose gradient cannot be computed beyond x = 1.7
    x = theta - np.array([3.0] + [0.0] * (theta.size - 1))
    value = float(x @ x)
    if not accept(value):
        return value, None
    if theta[0] > 1.7:
        raise FactorizationError("dpotri failed (info 1)", pivot=1)
    return value, 2.0 * x


def _bowl_with_an_infinite_wall(theta, accept):
    if theta[0] > 1.7:
        return np.inf, None
    return _bowl_with_a_wall(theta, accept)


def test_factorization_error_from_the_gradient_counts_the_point_as_infinite():
    # the line search halves its step past the wall exactly as if the value were +inf there
    x0 = np.array([0.0, 0.4])
    got, _, _ = _minimize(lambda: _bowl_with_a_wall, [x0])
    want, _, _ = _minimize(lambda: _bowl_with_an_infinite_wall, [x0])
    assert (got.iterations, got.stop, got.objective) == (want.iterations, want.stop, want.objective)
    assert np.array_equal(got.argmin, want.argmin)
    assert got.argmin[0] <= 1.7 and got.iterations > 1
    # at the start point it is a failed start
    best, (record,), _ = _minimize(lambda: _bowl_with_a_wall, [np.array([2.0, 0.0])])
    assert best is None and "at initial point" in record["error"]
    # multistart_minimize's search makes the point +inf; bfgs_minimize lets the error out
    with pytest.raises(FactorizationError, match="dpotri failed"):
        bfgs_minimize(_bowl_with_a_wall, x0)


def test_restart_records_count_values_and_gradients():
    starts = [np.array([0.0, 0.4, 0.0, 0.0]), np.array([-1.0, 1.0, 0.5, 0.5])]
    _, records, _ = _minimize(lambda: _bowl_with_a_wall, starts)
    # the search behind each record, with the wall as +inf
    for record, x0 in zip(records, starts):
        res = bfgs_minimize(_bowl_with_an_infinite_wall, x0)
        assert record["iterations"] == res.iterations and record["objective"] == res.objective
        # one gradient at the start and one per accepted step; every call was in the box
        assert record["gradients"] == record["iterations"] + 1
        assert record["feasible"] == record["evaluations"] > record["gradients"]
    _, (record,), _ = _minimize(lambda: _bowl_with_a_wall, [np.array([2.0, 0.0, 0.0, 0.0])])
    assert "at initial point" in record["error"]
    assert (record["evaluations"], record["feasible"], record["gradients"]) == (1, 1, 0)


def _double_well(theta, accept):
    # minima at theta[0] = +-1; the trailing (log alpha, log gamma, log sigma) are inert
    x = theta[0]
    value = float((x * x - 1.0) ** 2)
    if not accept(value):
        return value, None
    grad = np.zeros_like(theta)
    grad[0] = 4.0 * x * (x * x - 1.0)
    return value, grad


def _tilted_wells(theta, accept):
    # a double well in x tilted so that its minimum near x = -1 is the lower
    # one, plus a level double well in y whose minima at y = +-1 tie exactly
    x, y = theta[:2]
    value = float((x * x - 1.0) ** 2 + 0.5 * x + (y * y - 1.0) ** 2)
    if not accept(value):
        return value, None
    grad = np.zeros_like(theta)
    grad[0] = 4.0 * x * (x * x - 1.0) + 0.5
    grad[1] = 4.0 * y * (y * y - 1.0)
    return value, grad


def _minimize(make_objective, starts):
    """multistart_minimize on the one job (make_objective, starts) of no work
    per call: best, records, workers."""
    [(best, records)], workers = multistart_minimize([(make_objective, starts, 0)])
    return best, records, workers


def test_multistart_keeps_the_lowest_objective():
    high = np.array([1.0, 1.2, 0.0, 0.0, 0.0])  # the higher x-well
    low = np.array([-1.0, 1.2, 0.0, 0.0, 0.0])
    mirrored = low * np.array([1.0, -1.0, 1.0, 1.0, 1.0])  # the other y-well, tied with low
    for starts in ([high, low, mirrored], [high, mirrored, low]):
        best, records, _ = _minimize(lambda: _tilted_wells, starts)
        objectives = [r["objective"] for r in records]
        assert all(r["converged"] for r in records)
        assert objectives[0] > objectives[1] == objectives[2]
        # the lowest objective beats the earlier start; the earlier of the tie wins
        assert best.objective == objectives[1]
        assert np.array_equal(best.argmin, bfgs_minimize(_tilted_wells, starts[1]).argmin)
        assert best.argmin[0] < 0 and np.sign(best.argmin[1]) == np.sign(starts[1][1])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_multistart_earliest_start_wins_an_exact_tie(sign):
    # mirrored starts take mirrored paths to bit-identical objectives
    starts = [np.array([2.0 * sign, 0.0, 0.0, 0.0]), np.array([-2.0 * sign, 0.0, 0.0, 0.0])]
    first, second = (bfgs_minimize(_double_well, x0) for x0 in starts)
    assert first.objective == second.objective
    assert first.argmin[0] == -second.argmin[0] != 0.0
    best, records, _ = _minimize(lambda: _double_well, starts)
    assert records[0]["converged"] and records[0]["stop"] == "gtol"
    assert np.array_equal(best.argmin, first.argmin)


def test_multistart_skips_infeasible_and_unfactorizable_starts():
    calls = []

    def f(theta, accept):
        calls.append(theta)
        if theta[0] > 0:
            raise FactorizationError("not positive definite")
        return _quadratic(theta, accept)

    starts = [
        np.array([0.0, 0.0, 0.0, np.log(SIGMA_FLOOR) - 1.0]),  # sigma below the floor
        np.array([0.0, 0.0, 21.0, 0.0]),  # a log-parameter beyond 20
        np.array([np.nan, 0.0, 0.0, 0.0]),  # non-finite theta
        np.array([1.0, 0.0, 0.0, 0.0]),  # factorization failure
    ]
    best, records, _ = _minimize(lambda: f, starts)
    assert best is None
    assert len(calls) == 1  # only the in-box start reaches f
    assert all(r["evaluations"] == 1 and "non-finite" in r["error"] for r in records)
    # no start computed a value or a gradient
    assert all(r["feasible"] == r["gradients"] == 0 for r in records)


@pytest.mark.parametrize(
    "k, slope, edge",
    [(-3, -1.0, numerics.LOG_BOX), (-2, 1.0, -numerics.LOG_BOX), (-1, 1.0, np.log(SIGMA_FLOOR))],
)
def test_a_search_that_slides_to_the_box_edge_stops_on_bound(k, slope, edge):
    # the objective falls linearly toward the edge in one log parameter: log
    # alpha up to +LOG_BOX, log gamma down to -LOG_BOX, log sigma to the floor
    def f(theta, accept):
        value = slope * float(theta[k])
        grad = np.zeros_like(theta)
        grad[k] = slope
        return value, (grad if accept(value) else None)

    def boxed(theta, accept):
        t = theta[-3:]
        if t[-1] < np.log(SIGMA_FLOOR) or np.abs(t).max() > numerics.LOG_BOX:
            return np.inf, None
        return f(theta, accept)

    x0 = np.zeros(4)
    best, [record], _ = _minimize(lambda: f, [x0])
    assert abs(best.argmin[k] - edge) <= numerics.BOUND_TOL
    assert best.stop == record["stop"] == "bound"
    assert not best.converged and not record["converged"]
    # only the label moves: bfgs_minimize on the boxed objective ends at the same point
    plain = bfgs_minimize(boxed, x0)
    assert plain.stop in ("ftol", "line_search")
    assert np.array_equal(plain.argmin, best.argmin) and plain.objective == best.objective


def test_a_search_that_stops_inside_the_box_keeps_its_stop():
    # an ftol stop with every log parameter at 0, far inside the box
    def f(theta, accept):
        value, grad = _linear_on_large_offset(theta[:1], accept)
        return value, (None if grad is None else np.concatenate([grad, np.zeros(3)]))

    best, [record], _ = _minimize(lambda: f, [np.zeros(4)])
    assert best.stop == record["stop"] == "ftol"


def test_pool_size_is_cores_over_blas_threads(monkeypatch):
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    # with the OpenBLAS pools, a search runs on the one BLAS thread
    # multistart_minimize pins: one per core, whatever the pools and the environment say
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(name, "4")
    monkeypatch.setattr(numerics, "_POOLS", ((lambda: 4, None), (lambda: 2, None)))
    assert pool_size(5) == 4 and pool_size(3) == 3 and pool_size(0) == 1
    # without the pools' functions (a system BLAS, or MKL), the environment rule
    monkeypatch.setattr(numerics, "_POOLS", ())
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name)
    assert pool_size(5) == 1  # BLAS unpinned takes every core
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert pool_size(5) == 2
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert pool_size(5) == 1  # OMP_NUM_THREADS is read before MKL_NUM_THREADS
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pool_size(5) == 4 and pool_size(3) == 3 and pool_size(0) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not positive: the next variable counts
    assert pool_size(5) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.setenv("MKL_NUM_THREADS", "many")
    assert pool_size(5) == 1


def test_multistart_starts_helper_threads_only_from_thread_min_flops(monkeypatch):
    # four cores; each job states the work of one objective call
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    threads = []

    def f(theta, accept):
        threads.append(threading.current_thread())  # list.append is atomic
        return _quadratic(theta, accept)

    starts = [np.full(4, float(k)) for k in range(3)]
    least = numerics.THREAD_MIN_FLOPS
    for flops, want in (((0, least - 1), 1), ((least - 1, least), 4), ((least,), 3)):
        threads.clear()
        before = threading.active_count()
        jobs = [(lambda: f, starts, w) for w in flops]
        results, workers = multistart_minimize(jobs)
        n_starts = len(starts) * len(jobs)
        assert workers == want == pool_size(n_starts if max(flops) >= least else 1)
        assert all(r["converged"] for _, records in results for r in records)
        if want == 1:  # no thread started: the calling thread ran every start
            assert set(threads) == {threading.current_thread()}
            assert threading.active_count() == before
    assert multistart_minimize([]) == ([], 1)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_feasibility_box_is_closed_on_its_bounds(k):
    # sigma at its floor, or a log-parameter at +-20, is inside the box; a
    # step past either bound, or a non-finite entry, is outside
    def reaches(theta):
        _, (record,), _ = _minimize(lambda: _quadratic, [theta])
        return record["feasible"] > 0

    theta = np.array([7.0, 0.0, 0.0, 0.0])
    floor = np.log(SIGMA_FLOOR)
    for value, inside in ((floor, True), (np.nextafter(floor, -np.inf), False)):
        theta[-1] = value
        assert reaches(theta) is inside
    theta[-1] = 0.0
    bounds = (20.0, -20.0) if k < 2 else (20.0,)  # log sigma's lower bound is the floor
    for bound in bounds:
        for value, inside in ((bound, True), (np.nextafter(bound, 2 * bound), False)):
            theta[1 + k] = value
            assert reaches(theta) is inside
    theta[1 + k] = 0.0
    for bad in (np.inf, -np.inf, np.nan):
        theta[0] = bad
        assert not reaches(theta)


def test_one_blas_thread_pins_both_pools_and_puts_back_what_it_found(pools_at_two):
    with one_blas_thread():
        assert pool_counts() == [1, 1]
        with one_blas_thread():  # a search's scope inside fit_downscale's
            assert pool_counts() == [1, 1]
        assert pool_counts() == [1, 1]
    assert pool_counts() == [2, 2]
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        1 / 0
    assert pool_counts() == [2, 2]


def test_multistart_runs_a_search_per_core_on_one_blas_thread_and_puts_the_pools_back(
    pools_at_two, search_threads
):
    # with both OpenBLAS pools at two threads, a caller's search still pins them
    search_threads(4)
    seen = []

    def f(theta, accept):
        seen.append(pool_counts())  # list.append is atomic
        return _quadratic(theta, accept)

    starts = [np.full(4, float(k)) for k in range(4)]
    _, records, workers = _minimize(lambda: f, starts)
    assert workers == 4 and seen and all(counts == [1, 1] for counts in seen)
    assert all(r["converged"] for r in records)
    assert pool_counts() == [2, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_multistart_programming_error_propagates_and_drops_queued_starts(search_threads, workers):
    search_threads(workers)
    starts = [np.array([k + 0.25, 0.5, 0.5, 0.5]) for k in range(6)]
    begun = []

    def f(theta, accept):
        if theta[0] == starts[0][0]:
            raise TypeError("not a numerical failure")
        if any(np.array_equal(theta, x0) for x0 in starts):
            begun.append(theta[0])
            time.sleep(0.05)  # start 0 fails while this start runs
        return _quadratic(theta, accept)

    # the six starts as one job, or as three jobs whose first fails: either
    # way no queued start of any job begins after the failure
    for sizes in ((6,), (1, 2, 3)):
        begun.clear()
        bounds = np.cumsum((0,) + sizes)
        jobs = [(lambda: f, starts[lo:hi], 0) for lo, hi in zip(bounds, bounds[1:])]
        with pytest.raises(TypeError, match="not a numerical failure"):
            multistart_minimize(jobs)
        # nothing begins after start 0 fails, bar the start a second worker may hold
        assert begun == [] or (workers == 2 and begun == [starts[1][0]])


def test_multistart_reraises_a_helper_threads_error_as_the_same_object(search_threads):
    # the calling thread holds its start until a helper thread has failed on
    # the other, so the error is the helper's; it is raised as it was raised
    search_threads(2)
    error = KeyError("raised on a helper thread")
    failed = threading.Event()
    helpers = []

    def f(theta, accept):
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
            failed.set()
            raise error
        failed.wait(120)
        return _quadratic(theta, accept)

    starts = [np.array([0.25, 0.5, 0.5, 0.5]), np.array([1.25, 0.5, 0.5, 0.5])]
    with pytest.raises(KeyError) as raised:
        _minimize(lambda: f, starts)
    assert failed.is_set() and raised.value is error
    assert not any(thread.is_alive() for thread in helpers)  # joined before the raise


def test_multistart_stress_runs_every_start_once(monkeypatch):
    # 64 starts as one job and as three
    for sizes in ((64,), (30, 1, 33)):
        _stress(monkeypatch, sizes)


def _stress(monkeypatch, sizes):
    # eight threads on a pretend eight-core machine, switching every microsecond:
    # a start handed out twice, a lost record, or a job's objective made twice
    # on one thread breaks the equalities below
    starts = [np.array([k + 0.5, 1.0, 0.5, 0.5]) for k in range(64)]
    bounds = np.cumsum((0,) + sizes)
    job_starts = [starts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    begun, made = [], []

    def f(theta, accept):
        if any(np.array_equal(theta, x0) for x0 in starts):
            begun.append((theta[0], threading.get_ident()))  # list.append is atomic
        return _quadratic(theta, accept)

    def maker(j):
        def make_objective():
            made.append((j, threading.get_ident()))
            return f

        return make_objective

    want = [[_search_record(f, x0) for x0 in js] for js in job_starts]
    begun.clear()
    made.clear()
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(numerics, "_POOLS", ((lambda: 1, lambda n: None),))
    jobs = [(maker(j), js, numerics.THREAD_MIN_FLOPS) for j, js in enumerate(job_starts)]
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(multistart_minimize(jobs)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(got) == 1
    results, workers = got[0]
    assert workers == 8
    assert sorted(x for x, _ in begun) == [x0[0] for x0 in starts]
    assert [records for _, records in results] == want
    # one objective per job and thread that ran its starts, made in job order
    job_of = {x0[0]: j for j, js in enumerate(job_starts) for x0 in js}
    assert sorted(made) == sorted({(job_of[x], thread) for x, thread in begun})
    for thread in {thread for _, thread in made}:
        order = [j for j, t in made if t == thread]
        assert order == sorted(order)


def _search_record(f, x0):
    _, records, _ = _minimize(lambda: f, [x0])
    return records[0]


def test_grad_check_exact_quadratic(rng):
    x = rng.normal(size=4)
    assert grad_check(_quadratic, x) <= 1e-9


def test_grad_check_flags_wrong_gradient(rng):
    def wrong(x, accept):
        val, grad = _quadratic(x, accept)
        return val, (None if grad is None else 2.0 * grad)

    # at x = 0.25: analytic (doubled) = 1, numeric = 0.5, denominator
    # max(1, |numeric|) = 1, so the reported error is 0.5
    err = grad_check(wrong, np.full(4, 0.25))
    assert err == pytest.approx(0.5, abs=1e-6)
    # and a generic point still reports a large error
    assert grad_check(wrong, rng.normal(size=4) + 1.0) > 0.3
