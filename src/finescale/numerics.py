"""Dense SPD linear algebra, an unconstrained BFGS minimizer and multi-start BFGS."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Smallest noise standard deviation a fit may reach; below it the objective is +inf.
SIGMA_FLOOR = 1e-6


class FactorizationError(Exception):
    """Cholesky failed: the matrix is not positive definite."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class OptimizationError(Exception):
    """Non-finite objective or gradient encountered during optimization."""

    def __init__(self, message: str, point: np.ndarray | None = None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix."""

    L: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class OptimizeResult:
    argmin: np.ndarray
    objective: float
    gradient_norm: float
    iterations: int
    stop: str  # "gtol", "ftol", "max_iter" or "line_search"

    @property
    def converged(self) -> bool:
        """True only when the gradient test stopped the search."""
        return self.stop == "gtol"


def cholesky(M: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix; caller applies jitter."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(M.max(), -M.min())  # max |M| without an n x n temporary
    if scale > 0:
        D = M - M.T
        if np.abs(D, out=D).max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric within 1e-10 relative")
    try:
        L = scipy.linalg.cholesky(M, lower=True)
    except scipy.linalg.LinAlgError as exc:
        m = re.search(r"(\d+)", str(exc))
        pivot = int(m.group(1)) if m else None
        raise FactorizationError(
            f"matrix not positive definite (pivot {pivot})", pivot=pivot
        ) from exc
    return CholeskyFactor(L=L)


def solve(F: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """M^-1 b via two triangular solves; b may be a vector or matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != F.n:
        raise ValueError(f"shape mismatch: factor is {F.n}x{F.n}, b has leading dim {b.shape[0]}")
    return scipy.linalg.cho_solve((F.L, True), b)


def inverse(F: CholeskyFactor) -> np.ndarray:
    """M^-1 from the factor with LAPACK dpotri (about 2n^3/3 flops), exactly symmetric."""
    lower, info = scipy.linalg.lapack.dpotri(F.L, lower=1)
    if info != 0:
        raise FactorizationError(f"dpotri failed (info {info})", pivot=info if info > 0 else None)
    upper = np.triu(lower.T)  # dpotri fills only the lower triangle
    inv = upper + upper.T
    np.fill_diagonal(inv, upper.diagonal())
    return inv


def log_det(F: CholeskyFactor) -> float:
    """log det(M) = 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(F.L))))


def bfgs_minimize(
    f,
    x0: np.ndarray,
    gtol: float = 1e-6,
    ftol: float = 1e-10,
    max_iter: int = 500,
    armijo_c: float = 1e-4,
    backtrack_factor: float = 0.5,
    max_backtracks: int = 50,
) -> OptimizeResult:
    """Full BFGS with backtracking Armijo line search.

    ``f`` maps a parameter vector to ``(value, gradient)``. Stops when the
    infinity norm of the gradient falls below ``gtol``, the relative
    objective change falls below ``ftol``, or the iteration cap is hit;
    ``stop`` names which. Line-search failure returns the best point so far
    with ``stop="line_search"``. Only a ``gtol`` stop counts as converged.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    fx, g = f(x)
    if not (np.isfinite(fx) and np.all(np.isfinite(g))):
        raise OptimizationError("non-finite objective or gradient at initial point", point=x)
    Hinv = np.eye(n)
    iterations = 0
    for iterations in range(max_iter + 1):
        gnorm = float(np.abs(g).max()) if n else 0.0
        if gnorm <= gtol:
            return OptimizeResult(x, float(fx), gnorm, iterations, "gtol")
        if iterations == max_iter:
            break
        d = -Hinv @ g
        slope = float(g @ d)
        if slope >= 0:  # Hinv lost positive definiteness; reset to steepest descent
            Hinv = np.eye(n)
            d = -g
            slope = float(g @ d)
        step = 1.0
        accepted = False
        for _ in range(max_backtracks):
            x_new = x + step * d
            fx_new, g_new = f(x_new)
            if np.isfinite(fx_new) and fx_new <= fx + armijo_c * step * slope:
                if not np.all(np.isfinite(g_new)):
                    raise OptimizationError("non-finite gradient", point=x_new)
                accepted = True
                break
            step *= backtrack_factor
        if not accepted:
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
        if rel_change <= ftol and np.abs(g).max() > gtol:
            return OptimizeResult(x, float(fx), float(np.abs(g).max()), iterations + 1, "ftol")
    return OptimizeResult(x, float(fx), float(np.abs(g).max()), iterations, "max_iter")


def multistart_minimize(
    f, starts: list[np.ndarray], gtol: float = 1e-6, max_iter: int = 500
) -> tuple[OptimizeResult | None, list[dict]]:
    """Minimize ``f`` with ``bfgs_minimize`` from every start point.

    The last three entries of theta are (log alpha, log gamma, log sigma).
    The objective is +inf outside the feasibility box (a non-finite theta,
    one of those log-parameters beyond +-20, or sigma below SIGMA_FLOOR) and
    where ``f`` raises FactorizationError. A start whose search raises
    OptimizationError is skipped. Returns the best result, the lowest
    objective and the earliest start on an exact tie, or None when every
    start failed, with one record per start: its objective, iterations,
    gradient norm, converged flag, stop reason and evaluation count, or its
    error and evaluation count.
    """
    evaluations = 0

    def objective(theta):
        nonlocal evaluations
        evaluations += 1
        if (
            not np.all(np.isfinite(theta))
            or theta[-1] < np.log(SIGMA_FLOOR)
            or np.abs(theta[-3:]).max() > 20
        ):
            return np.inf, np.zeros_like(theta)
        try:
            return f(theta)
        except FactorizationError:
            return np.inf, np.zeros_like(theta)

    best = None
    records = []
    for x0 in starts:
        evaluations = 0
        try:
            res = bfgs_minimize(objective, x0, gtol=gtol, max_iter=max_iter)
        except OptimizationError as exc:
            records.append({"error": str(exc), "evaluations": evaluations})
            continue
        records.append(
            {
                "objective": float(res.objective),
                "iterations": int(res.iterations),
                "gradient_norm": float(res.gradient_norm),
                "converged": res.converged,
                "stop": res.stop,
                "evaluations": evaluations,
            }
        )
        if best is None or res.objective < best.objective:
            best = res
    return best, records


def grad_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    x = np.asarray(x, dtype=float)
    _, g = f(x)
    g = np.asarray(g, dtype=float)
    worst = 0.0
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fp, _ = f(x + e)
        fm, _ = f(x - e)
        numeric = (fp - fm) / (2 * h)
        err = abs(g[k] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
