"""Dense SPD linear algebra, a symmetric eigendecomposition, an unconstrained
BFGS minimizer and multi-start BFGS.

An objective, in every minimizer here, is ``f(theta, accept) -> (value,
gradient)``: it computes the value at theta and, only when ``accept(value)``
is true, the gradient there in the same call; else the gradient is None. The
minimizer's test accepts only the points it keeps, so a point it rejects
costs only its value.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

# Smallest noise standard deviation a fit may reach; below it the objective is +inf.
SIGMA_FLOOR = 1e-6
# log(SIGMA_FLOOR) as numpy computes it, so the box test has the bits it had on arrays.
_LOG_SIGMA_FLOOR = float(np.log(SIGMA_FLOOR))
# A search's objective is +inf where log alpha, log gamma or log sigma is beyond +-LOG_BOX.
LOG_BOX = 20.0
# A search that stops other than on gtol within BOUND_TOL of the box's edge, in
# log units, stopped on it ("bound"). On the first bundle of bench seeds 0-3,
# fit_medium's and aux_heavy's restarts ended within 6.9e-9 of the edge or
# 0.55 and more inside it.
BOUND_TOL = 1e-6
# bfgs_minimize: the relative objective change that stops it ("ftol"), and
# its backtracking Armijo line search.
FTOL = 1e-10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 50
# bfgs_minimize's iteration cap.
MAX_ITER = 500
# The variables that set the threads of one BLAS call when BLAS loads; the
# first set to a positive integer counts, as in OpenBLAS.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class NumericalError(Exception):
    """A computation failed on the numbers it was given: a factorization, a
    search or a fit. The base of the library's numerical failures; the CLI
    exits 1 on it."""


class FactorizationError(NumericalError):
    """A factorization failed: Cholesky on a matrix that is not positive
    definite, or an eigendecomposition that did not converge."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class OptimizationError(NumericalError):
    """Non-finite objective or gradient encountered during optimization."""


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix;
    ``diagonal`` when ``cholesky_in_place`` found every entry of L off its
    diagonal zero."""

    L: np.ndarray
    diagonal: bool = False

    @property
    def n(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class OptimizeResult:
    argmin: np.ndarray
    objective: float
    gradient_norm: float
    iterations: int
    stop: str  # "gtol", "ftol", "max_iter", "line_search" or, from a search, "bound"

    @property
    def converged(self) -> bool:
        """True only when the gradient test stopped the search."""
        return self.stop == "gtol"


# scipy's LAPACK, called through ctypes. The dynamic linker loads scipy's
# cython_lapack extension file, and with it the LAPACK that scipy links (in
# wheels, scipy.libs/libscipy_openblas), without importing any scipy module:
# importing scipy.linalg costs about 0.2 s and 20 MB, most of it scipy's
# array-API layer. A ctypes call also releases the GIL, where scipy's wrappers
# of the same routines hold it, so LAPACK calls in separate threads run on
# separate cores.
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)


def _scipy_lapack() -> ctypes.CDLL:
    """scipy's linalg/cython_lapack extension file, loaded as a shared library."""
    spec = importlib.util.find_spec("scipy")  # runs no scipy code
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("finescale needs scipy, whose LAPACK it calls; scipy was not found")
    # the first suffix is this interpreter's own, the one scipy's build uses
    name = "cython_lapack" + importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(spec.submodule_search_locations[0], "linalg", name)
    try:
        return ctypes.CDLL(path)
    except OSError as exc:
        raise ImportError(f"cannot load scipy's LAPACK from {path}: {exc}") from exc


_LIB = _scipy_lapack()


def _lapack(name: str, *argtypes):
    """The LAPACK routine ``name`` as a ctypes function: the symbol
    ``scipy_<name>_`` of a scipy wheel's OpenBLAS, else ``<name>_`` of a system
    LAPACK. Its arguments are those scipy.linalg.cython_lapack passes it."""
    prototype = ctypes.CFUNCTYPE(None, *argtypes)
    for symbol in (f"scipy_{name}_", f"{name}_"):
        try:
            return prototype((symbol, _LIB))
        except AttributeError:
            continue
    raise ImportError(f"scipy's LAPACK has no routine {name}")


# (uplo, n, a, lda, info)
_dpotrf = _lapack("dpotrf", ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT)
_dpotri = _lapack("dpotri", ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT)
# (uplo, m, n, alpha, beta, a, lda)
_dlaset = _lapack("dlaset", ctypes.c_char_p, _INT, _INT, _DOUBLE, _DOUBLE, ctypes.c_void_p, _INT)
# (uplo, n, nrhs, a, lda, b, ldb, info)
_dpotrs = _lapack(
    "dpotrs", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT
)
# (uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)
_dtrtrs = _lapack(
    "dtrtrs", ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
    _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT,
)
# (jobz, uplo, n, a, lda, w, work, lwork, info)
_dsyev = _lapack(
    "dsyev", ctypes.c_char_p, ctypes.c_char_p,
    _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT, _INT,
)


def _check_in_place(A: np.ndarray, name: str) -> None:
    """ValueError unless LAPACK can work in place on A, which the message calls
    ``name``: a writeable Fortran-ordered float64 square array."""
    square = A.ndim == 2 and A.shape[0] == A.shape[1]
    if not (square and A.flags.f_contiguous and A.flags.writeable and A.dtype == np.float64):
        raise ValueError(f"{name} must be a writeable Fortran-ordered float64 square array")


def _on_lower(routine, A: np.ndarray) -> int:
    """Run dpotrf or dpotri in place on the lower triangle of A, which has
    passed ``_check_in_place``; LAPACK's info."""
    n, info = ctypes.c_int(A.shape[0]), ctypes.c_int()
    routine(b"L", ctypes.byref(n), A.ctypes.data, ctypes.byref(n), ctypes.byref(info))
    return info.value


def _zero_above_diagonal(A: np.ndarray) -> None:
    """Zero the strict upper triangle of the Fortran-ordered float64 n x n array A,
    as scipy's ``clean=1`` does: dlaset on the upper triangle, diagonal included,
    of the (n-1) x (n-1) block that starts at A[0, 1]."""
    m, lda, zero = ctypes.c_int(A.shape[0] - 1), ctypes.c_int(A.shape[0]), ctypes.c_double(0.0)
    byref = ctypes.byref
    _dlaset(b"U", byref(m), byref(m), byref(zero), byref(zero), A[:, 1:].ctypes.data, byref(lda))


def cholesky_in_place(A: np.ndarray) -> CholeskyFactor:
    """The package's one factorization: A, a writeable Fortran-ordered float64
    SPD n x n array (the caller applies jitter), becomes its factor, upper
    triangle zeroed. dpotrf reads only the lower triangle, so the caller
    builds A exactly symmetric; nothing checks it. An exactly symmetric
    C-ordered M is factored in its own memory as M.T, which is Fortran-ordered.

    The finiteness check and the LAPACK call are those of
    ``scipy.linalg.cholesky(A, lower=True)``, so are the bits; dpotrf runs
    without the GIL. A positive diagonal gets diag(sqrt d), dpotrf's bits,
    without the call.
    """
    _check_in_place(A, "A")
    # +inf or nan exactly when A holds an inf or a nan
    if not np.isfinite(max(A.max(), -A.min())):
        raise ValueError("array must not contain infs or NaNs")
    d = A.diagonal()
    # only a positive diagonal is nonzero, as bits: dpotrf's pivots would be
    # sqrt(d - 0) and its other entries +0.0, but it keeps a -0.0 below the diagonal
    if d.min() > 0 and np.count_nonzero(A.view(np.int64)) == d.size:
        d = np.sqrt(d)  # read before A is zeroed
        A.fill(0.0)
        np.fill_diagonal(A, d)
        return CholeskyFactor(L=A, diagonal=True)
    info = _on_lower(_dpotrf, A)
    if info > 0:
        raise FactorizationError(f"matrix not positive definite (pivot {info})", pivot=info)
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    _zero_above_diagonal(A)
    return CholeskyFactor(L=A)


def _triangular_solve(
    routine, F: CholeskyFactor, b: np.ndarray, *flags: bytes
) -> tuple[np.ndarray, int]:
    """Run the dpotrs or dtrtrs call ``routine(*flags, n, nrhs, L, lda, x, ldb, info)``
    on a fresh Fortran-ordered float64 copy x of the vector or matrix b, the
    array f2py hands LAPACK; x and LAPACK's info."""
    x = np.array(b, dtype=float, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != F.n:
        raise ValueError(f"shape mismatch: factor is {F.n}x{F.n}, b has shape {x.shape}")
    # cholesky_in_place has proved the factor finite; b alone gets scipy's check_finite test
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    L = np.asarray(F.L, dtype=float, order="F")
    if L.shape != (F.n, F.n):
        raise ValueError(f"the factor must be square, got shape {L.shape}")
    n, info = ctypes.c_int(F.n), ctypes.c_int()
    nrhs = ctypes.c_int(x.shape[1] if x.ndim == 2 else 1)
    byref = ctypes.byref
    routine(
        *flags, byref(n), byref(nrhs), L.ctypes.data, byref(n), x.ctypes.data, byref(n), byref(info)
    )
    return x, info.value


def solve(F: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """M^-1 b with LAPACK dpotrs (two triangular solves, without the GIL); b may
    be a vector or a matrix. The checks and the call are those of
    ``scipy.linalg.cho_solve((F.L, True), b)``, so the answer is the same to the bit."""
    x, info = _triangular_solve(_dpotrs, F, b, b"L")
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return x


def solve_lower(F: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """L^-1 b with LAPACK dtrtrs (without the GIL) after the checks of ``solve``;
    b may be a vector or a matrix. The call is the one
    ``scipy.linalg.solve_triangular(F.L, b, lower=True)`` makes on a
    Fortran-ordered factor, so the answer is the same to the bit; a singular
    factor raises NumericalError where scipy raises LinAlgError."""
    x, info = _triangular_solve(_dtrtrs, F, b, b"L", b"N", b"N")
    if info > 0:
        raise NumericalError(f"dtrtrs: the factor is singular (zero diagonal entry {info})")
    if info < 0:
        raise ValueError(f"dtrtrs: illegal value in argument {-info}")
    return x


def _potri(L: np.ndarray) -> None:
    """dpotri in place on the lower triangle of the Fortran-ordered factor L."""
    info = _on_lower(_dpotri, L)
    if info != 0:
        raise FactorizationError(f"dpotri failed (info {info})", pivot=info if info > 0 else None)


# Side of the square tiles in which inverse_in_place mirrors dpotri's lower
# triangle, so that a tile's strided reads stay in cache; two tiles off the
# diagonal span disjoint memory, so numpy copies one into the other without a
# temporary. At n = 1200, on one core of a 2-core x86-64 VM, the mirror took
# 2.1 ms at 64 and 32, 2.2 ms at 128, and a sum with the transpose 4.6 ms.
MIRROR_TILE = 64
_ABOVE_DIAGONAL = np.triu(np.ones((MIRROR_TILE, MIRROR_TILE), dtype=bool), 1)


def inverse_in_place(F: CholeskyFactor) -> np.ndarray:
    """M^-1 from the factor with LAPACK dpotri (about 2n^3/3 flops, without the
    GIL), exactly symmetric, written in the memory of F.L, a writeable
    Fortran-ordered array that then no longer holds the factor; returned as
    the C-ordered view F.L.T, which reads that memory in order.

    dpotri fills the lower triangle. Adding 0.0 turns a -0.0 there into +0.0,
    as a sum with the zero upper triangle would; then the upper triangle
    becomes its mirror, tile by tile, and the diagonal keeps dpotri's bits.
    """
    L = F.L
    _check_in_place(L, "the factor")
    if F.diagonal:  # dpotri's bits: dtrtri's 1/l, squared by dlauum
        r = 1.0 / L.diagonal()
        L.fill(0.0)
        np.fill_diagonal(L, r * r)
        return L.T
    _potri(L)
    d = L.diagonal().copy()
    L += 0.0
    n, t = L.shape[0], MIRROR_TILE
    for j in range(0, n, t):
        tile = L[j : j + t, j : j + t]
        m = tile.shape[0]
        np.copyto(tile, tile.T, where=_ABOVE_DIAGONAL[:m, :m])
        for i in range(j + t, n, t):
            L[j : j + t, i : i + t] = L[i : i + t, j : j + t].T
    np.fill_diagonal(L, d)
    return L.T


def eigh_in_place(A: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the symmetric A, a writeable Fortran-ordered
    float64 n x n array of finite values; A becomes the orthonormal eigenvectors,
    one per column. LAPACK dsyev reads the lower triangle and runs without the
    GIL; FactorizationError when it does not converge."""
    _check_in_place(A, "A")
    if not np.isfinite(max(A.max(), -A.min())):
        raise ValueError("array must not contain infs or NaNs")
    n = A.shape[0]
    w, work = np.empty(n), np.empty(max(1, 3 * n - 1))
    size, lwork, info = ctypes.c_int(n), ctypes.c_int(work.size), ctypes.c_int()
    byref = ctypes.byref
    _dsyev(
        b"V", b"L", byref(size), A.ctypes.data, byref(size),
        w.ctypes.data, work.ctypes.data, byref(lwork), byref(info),
    )
    if info.value > 0:
        raise FactorizationError(f"dsyev did not converge (info {info.value})")
    if info.value < 0:
        raise ValueError(f"dsyev: illegal value in argument {-info.value}")
    return w


def log_det(F: CholeskyFactor) -> float:
    """log det(M) = 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(F.L))))


def gaussian_nll(F: CholeskyFactor, r: np.ndarray) -> tuple[float, np.ndarray]:
    """-log N(r | 0, M) from the factor F of M, and p = M^-1 r. Rounding here can
    pick the winner among restarts tied on a flat ridge: keep the operand order."""
    p = solve(F, r)
    return float(0.5 * r @ p + 0.5 * log_det(F) + 0.5 * r.size * np.log(2 * np.pi)), p


def clamp_variance(var: np.ndarray, tol: float) -> np.ndarray:
    """var with its negative entries (rounding error) zeroed in place; NumericalError below -tol."""
    if var.min() < -tol:
        raise NumericalError(f"predictive variance {var.min()} below clamp tolerance")
    return np.maximum(var, 0.0, out=var)


def bfgs_minimize(f, x0: np.ndarray, gtol: float = 1e-6) -> OptimizeResult:
    """Full BFGS with backtracking Armijo line search, for at most MAX_ITER iterations.

    ``f(x, accept)`` returns ``(value, gradient)``, with the gradient computed
    in the same call only where ``accept(value)`` is true and None elsewhere.
    The test accepts a finite value at the start point, and on the line the
    points that pass the Armijo test, so a point the line search rejects
    costs only its value.

    Stops when the infinity norm of the gradient falls below ``gtol``, the
    relative objective change falls below ``FTOL``, or the iteration cap is
    hit; ``stop`` names which. Line-search failure returns the best point so
    far with ``stop="line_search"``. Only a ``gtol`` stop counts as converged.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    fx, g = f(x, np.isfinite)
    if g is None or not np.all(np.isfinite(g)):
        raise OptimizationError("non-finite objective or gradient at initial point")
    Hinv = np.eye(n)
    iterations = 0
    for iterations in range(MAX_ITER + 1):
        gnorm = float(np.abs(g).max()) if n else 0.0
        if gnorm <= gtol:
            return OptimizeResult(x, float(fx), gnorm, iterations, "gtol")
        if iterations == MAX_ITER:
            break
        d = -Hinv @ g
        slope = float(g @ d)
        if slope >= 0:  # Hinv lost positive definiteness; reset to steepest descent
            Hinv = np.eye(n)
            d = -g
            slope = float(g @ d)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            fx_new, g_new = f(x_new, lambda v: np.isfinite(v) and v <= fx + ARMIJO_C * step * slope)
            if g_new is not None:
                if not np.all(np.isfinite(g_new)):
                    raise OptimizationError("non-finite gradient")
                break
            step *= BACKTRACK_FACTOR
        if g_new is None:
            return OptimizeResult(x, float(fx), gnorm, iterations, "line_search")
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * max(1.0, float(np.linalg.norm(s)) * float(np.linalg.norm(y))):
            rho = 1.0 / sy
            I = np.eye(n)
            V = I - rho * np.outer(s, y)
            Hinv = V @ Hinv @ V.T + rho * np.outer(s, s)
        rel_change = abs(fx - fx_new) / max(1.0, abs(fx))
        x, fx, g = x_new, fx_new, g_new
        # with the gradient also small, the next pass stops on gtol at this point
        if rel_change <= FTOL and np.abs(g).max() > gtol:
            return OptimizeResult(x, float(fx), float(np.abs(g).max()), iterations + 1, "ftol")
    return OptimizeResult(x, float(fx), float(np.abs(g).max()), iterations, "max_iter")


def _openblas_pools() -> tuple:
    """(get, set) of the thread count of numpy's OpenBLAS and of scipy's, which the
    LAPACK calls above use; empty where one lacks them (a system BLAS, or MKL)."""
    pools = []
    for lib, end in ((ctypes.CDLL(np.linalg._umath_linalg.__file__), "64_"), (_LIB, "")):
        name = "scipy_openblas_{}_num_threads" + end
        try:
            get = ctypes.CFUNCTYPE(ctypes.c_int)((name.format("get"), lib))
            set_ = ctypes.CFUNCTYPE(None, ctypes.c_int)((name.format("set"), lib))
        except AttributeError:
            return ()
        pools.append((get, set_))
    return tuple(pools)


_POOLS = _openblas_pools()
_PINNED = threading.RLock()


@contextmanager
def one_blas_thread():
    """One thread in both OpenBLAS pools inside, and on exit the counts they had
    on entry; also a decorator. The pools are the process's, so a scope entered
    from another thread waits for this one to end; the same thread may nest
    scopes. Without the pools' functions (a system BLAS, or MKL) it does nothing."""
    with _PINNED:
        found = [get() for get, _ in _POOLS]
        for _, set_ in _POOLS:
            set_(1)
        try:
            yield
        finally:
            for (_, set_), n in zip(_POOLS, found):
                set_(n)


# The work of one objective call, in flops counted from the problem's shapes,
# from which a search runs its starts on helper threads (``multistart_minimize``).
# Below it a call is mostly Python that holds the GIL, over arrays too small
# for the LAPACK and numpy calls that release it to cover the hand-overs, and
# two threads take longer than one. Whole fits on one thread and on two, on a
# 2-core VM (scripts/search_threads.py, median of 3): two took 1.05 times as
# long at 1.7e6 flops (a 120-region dense auxiliary) and 1.17 times at 1.75e6
# (fit_medium's second step, the largest call of the bench), and 0.71 times at
# 7.1e6 (a 192-region dense auxiliary), 0.81 at 8.2e6 (a 40 x 30 lattice second
# step) and 0.55-0.70 beyond. A 40 x 30 lattice auxiliary, 1.1e6, read 0.95.
THREAD_MIN_FLOPS = 4e6


def pool_size(n_starts: int) -> int:
    """Threads for ``n_starts`` independent searches, at most ``n_starts`` and at
    least 1: one per core this process may run on, each search on the one BLAS
    thread ``multistart_minimize`` pins. Without the pools' functions (a system
    BLAS, or MKL), which nothing pins, the cores over the BLAS threads: the first
    of BLAS_THREAD_VARIABLES set to a positive integer, else every core."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    values = (os.environ.get(name, "").strip() for name in BLAS_THREAD_VARIABLES)
    blas = 1 if _POOLS else next((int(v) for v in values if v.isdigit() and int(v) > 0), cores)
    return max(1, min(n_starts, cores // blas))


def _on_edge(theta: np.ndarray) -> bool:
    """Whether log alpha, log gamma or log sigma, theta's last three entries,
    lies within BOUND_TOL of the search box's edge: +-LOG_BOX, or the sigma floor."""
    t = theta[-3:].tolist()
    return max(map(abs, t)) >= LOG_BOX - BOUND_TOL or t[-1] <= _LOG_SIGMA_FLOOR + BOUND_TOL


def _search(f, x0: np.ndarray, gtol: float) -> tuple[OptimizeResult | None, dict]:
    """One start of ``multistart_minimize``: its result, None when the search
    raised OptimizationError, and its record. A search that slid to the box's
    edge and stopped there other than on gtol has stop "bound"."""
    evaluations = feasible = gradients = 0

    def objective(theta, accept):
        nonlocal evaluations, gradients
        evaluations += 1
        # on Python floats: most calls of a search fall outside the box, and
        # three numpy reductions cost more than the test on a few floats
        t = theta.tolist()
        if (
            not all(map(math.isfinite, t))
            or t[-1] < _LOG_SIGMA_FLOOR
            or max(map(abs, t[-3:])) > LOG_BOX
        ):
            return np.inf, None

        def counted(value) -> bool:
            nonlocal feasible
            feasible += 1
            return accept(value)

        try:
            value, gradient = f(theta, counted)
        except FactorizationError:
            return np.inf, None
        if gradient is not None:
            gradients += 1
        return value, gradient

    try:
        res = bfgs_minimize(objective, x0, gtol=gtol)
        if res.stop != "gtol" and _on_edge(res.argmin):
            res = replace(res, stop="bound")
        record = {
            "objective": float(res.objective),
            "iterations": int(res.iterations),
            "gradient_norm": float(res.gradient_norm),
            "converged": res.converged,
            "stop": res.stop,
        }
    except OptimizationError as exc:
        res, record = None, {"error": str(exc)}
    record.update(evaluations=evaluations, feasible=feasible, gradients=gradients)
    return res, record


@one_blas_thread()
def multistart_minimize(
    jobs: list[tuple], gtol: float = 1e-6
) -> tuple[list[tuple[OptimizeResult | None, list[dict]]], int]:
    """Minimize with ``bfgs_minimize`` from every start point of every job, for
    at most MAX_ITER iterations each, on ``pool_size`` threads of one BLAS
    thread each where some job's objective call does at least THREAD_MIN_FLOPS
    of work, else on the calling thread alone, with no thread started.

    A job is ``(make_objective, starts, flops)``, flops being about the work
    of one objective call, from the problem's shapes. The threads take the
    (job, start) pairs in order: the first job's starts, then the next job's.
    ``make_objective()`` returns an objective, a function of theta in
    ``bfgs_minimize``'s protocol; a thread calls it when it takes its first
    start of a job, runs that job's starts it takes on that objective and its
    scratch arrays, and drops them when it moves on.
    The last three entries of theta are (log alpha, log gamma, log sigma).
    The objective is +inf outside the feasibility box (a non-finite theta,
    one of those log-parameters beyond +-LOG_BOX, or sigma below SIGMA_FLOOR) and
    where it raises FactorizationError, in its value or its gradient. A start
    whose search raises OptimizationError is skipped; any other error
    propagates, and no start of any job begins after it.

    Returns one (best, records) per job and the number of threads. The best
    result has the lowest objective and the earliest start on an exact tie,
    or is None when every start failed. The records, one per start in start
    order, hold its objective, iterations, gradient norm, converged flag and
    stop reason (``bound`` where it stopped on the box's edge), or its error;
    and its counts of calls: ``evaluations`` of
    the objective, ``feasible`` ones inside the box that computed a value,
    and ``gradients`` computed.
    """
    tasks = [(j, i) for j, (_, starts, _) in enumerate(jobs) for i in range(len(starts))]
    threaded = max((flops for _, _, flops in jobs), default=0) >= THREAD_MIN_FLOPS
    workers = pool_size(len(tasks) if threaded else 1)
    outcomes = [[None] * len(starts) for _, starts, _ in jobs]
    pending = iter(tasks)
    lock = threading.Lock()
    stop = threading.Event()

    def work():
        job = f = None
        while not stop.is_set():
            with lock:
                task = next(pending, None)
            if task is None:
                return
            j, i = task
            make_objective, starts, _ = jobs[j]
            try:
                if j != job:
                    f = None  # the last job's scratch goes before the next one's is made
                    job, f = j, make_objective()
                outcomes[j][i] = _search(f, starts[i], gtol)
            except BaseException:
                stop.set()
                raise

    errors = [None] * (workers - 1)

    def helper(h):
        try:
            work()
        except BaseException as exc:
            errors[h] = exc

    # the calling thread is one of the workers
    helpers = [threading.Thread(target=helper, args=(h,)) for h in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        stop.set()  # after an error or an interrupt, no queued start begins
        for thread in helpers:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc

    results = []
    for job_outcomes in outcomes:
        best = None
        for res, _ in job_outcomes:
            if res is not None and (best is None or res.objective < best.objective):
                best = res
        results.append((best, [record for _, record in job_outcomes]))
    return results, workers
