"""Hierarchical downscaling model: marginal likelihood, gradients, prediction.

The coarse observations are modeled as a = H z + noise, where z follows a GP
whose mean is a linear combination of auxiliary posterior means. Integrating
out the auxiliary fields and z gives a closed-form Gaussian marginal
N(a | H F w, Lambda) with Lambda = sigma^2 I + H Omega H^T and
Omega = K + sum_s w_s^2 Sigma_s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from finescale.geo import AggregationMap, ArealDataset, Partition
from finescale.gp_aux import AuxPosterior, median_pairwise_distance
from finescale.kernel import JITTER_REL, SEKernelParams, cov_matrix, se_from_sq_dists, sq_dists
from finescale.numerics import SIGMA_FLOOR, cholesky, log_det, multistart_minimize, solve


class DownscaleFitError(RuntimeError):
    """Second-step optimization failed on every restart."""


@dataclass(frozen=True)
class DesignMatrix:
    """Auxiliary posterior means as columns, trailing all-ones bias column."""

    F: np.ndarray
    column_ids: tuple[str, ...]

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "F", F)
        if not np.all(np.isfinite(F)):
            raise ValueError("design matrix has non-finite entries")
        if not np.all(F[:, -1] == 1.0):
            raise ValueError("last design column must be all ones")

    @property
    def n_aux(self) -> int:
        return self.F.shape[1] - 1


@dataclass(frozen=True)
class DownscaleParams:
    """Regression weights (bias last), target kernel, and aggregation noise."""

    w: np.ndarray
    kernel: SEKernelParams
    sigma: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def to_dict(self, column_ids=None) -> dict:
        ids = list(column_ids) if column_ids is not None else [
            f"aux_{k}" for k in range(self.w.size - 1)
        ] + ["bias"]
        return {
            "w": {cid: float(v) for cid, v in zip(ids, self.w)},
            "column_ids": ids,
            "log_alpha": float(np.log(self.kernel.alpha)),
            "log_gamma": float(np.log(self.kernel.gamma)),
            "log_sigma": float(np.log(self.sigma)),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DownscaleParams":
        w = np.array([d["w"][cid] for cid in d["column_ids"]])
        return cls(
            w=w,
            kernel=SEKernelParams.from_log(d["log_alpha"], d["log_gamma"]),
            sigma=float(np.exp(d["log_sigma"])),
            diagnostics=d.get("diagnostics", {}),
        )


@dataclass(frozen=True)
class LambdaAssembly:
    Omega: np.ndarray
    Lambda: np.ndarray
    factor: object  # CholeskyFactor


@dataclass(frozen=True)
class Refinement:
    mean: np.ndarray
    cov: np.ndarray
    fine: Partition | None
    params: DownscaleParams
    diagnostics: dict = field(default_factory=dict, compare=False)


def build_design(posteriors: list[AuxPosterior], n_fine: int | None = None) -> DesignMatrix:
    """Stack posterior means column-wise and append the bias column."""
    if not posteriors:
        if n_fine is None:
            raise ValueError("n_fine required when there are no posteriors")
        return DesignMatrix(F=np.ones((n_fine, 1)), column_ids=("bias",))
    lengths = {p.mean.shape[0] for p in posteriors}
    if len(lengths) != 1:
        raise ValueError(f"posterior mean lengths differ: {sorted(lengths)}")
    n = lengths.pop()
    if n_fine is not None and n != n_fine:
        raise ValueError(f"posterior length {n} != fine region count {n_fine}")
    F = np.column_stack([p.mean for p in posteriors] + [np.ones(n)])
    return DesignMatrix(F=F, column_ids=tuple(p.dataset_id for p in posteriors) + ("bias",))


def _lambda_jitter(sigma: float, alpha: float) -> float:
    return JITTER_REL * (sigma**2 + alpha**2)


def assemble_lambda(
    params: DownscaleParams,
    posteriors: list[AuxPosterior],
    fine_centroids: np.ndarray,
    amap_or_H,
) -> LambdaAssembly:
    """Omega = K + sum_s w_s^2 Sigma_s; Lambda = sigma^2 I + H Omega H^T."""
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    Omega = cov_matrix(params.kernel, fine_centroids, fine_centroids)
    for k, post in enumerate(posteriors):
        Omega = Omega + params.w[k] ** 2 * post.cov
    Omega = 0.5 * (Omega + Omega.T)
    nc = H.shape[0]
    Lam = params.sigma**2 * np.eye(nc) + H @ Omega @ H.T
    Lam = 0.5 * (Lam + Lam.T)
    factor = cholesky(Lam + _lambda_jitter(params.sigma, params.kernel.alpha) * np.eye(nc))
    return LambdaAssembly(Omega=Omega, Lambda=Lam, factor=factor)


def log_marginal(
    params: DownscaleParams,
    a: np.ndarray,
    design: DesignMatrix,
    assembly: LambdaAssembly,
    H: np.ndarray,
) -> float:
    """-1/2 r^T Lambda^-1 r - 1/2 log det Lambda - n/2 log 2pi, r = a - H F w."""
    a = np.asarray(a, dtype=float)
    r = a - H @ (design.F @ params.w)
    p = solve(assembly.factor, r)
    n = a.size
    return float(-0.5 * r @ p - 0.5 * log_det(assembly.factor) - 0.5 * n * np.log(2 * np.pi))


def grad_log_marginal(
    params: DownscaleParams,
    a: np.ndarray,
    design: DesignMatrix,
    posteriors: list[AuxPosterior],
    amap_or_H,
    fine_centroids: np.ndarray,
    assembly: LambdaAssembly | None = None,
) -> np.ndarray:
    """Analytic gradient over (w_1..w_S, w_0, log alpha, log gamma, log sigma).

    Each covariance-parameter entry is 1/2 tr((p p^T - Lambda^-1) dLambda),
    p = Lambda^-1 (a - H F w); the weight entries add the mean-term
    contribution (H F_col)^T p.
    """
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    if assembly is None:
        assembly = assemble_lambda(params, posteriors, fine_centroids, H)
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


@dataclass(frozen=True)
class _Problem:
    """The parameter-free parts of the second-step marginal likelihood.

    Built once per fit: the observations, H, H F, the fine squared
    distances D2 and H Sigma_s H^T for every auxiliary.
    """

    a: np.ndarray
    H: np.ndarray
    HF: np.ndarray
    D2: np.ndarray
    HSH: tuple[np.ndarray, ...]

    @classmethod
    def build(
        cls,
        a: np.ndarray,
        posteriors: list[AuxPosterior],
        fine_centroids: np.ndarray,
        H: np.ndarray,
        design: DesignMatrix,
    ) -> "_Problem":
        return cls(
            a=a,
            H=H,
            HF=H @ design.F,
            D2=sq_dists(fine_centroids, fine_centroids),
            HSH=tuple(H @ post.cov @ H.T for post in posteriors),
        )


def _neg_log_marginal(prob: _Problem, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """-log_marginal and -grad_log_marginal at the packed theta.

    Same formulas as assemble_lambda + log_marginal + grad_log_marginal,
    with Lambda = sigma^2 I + H K H^T + sum_s w_s^2 H Sigma_s H^T; a call
    forms only K, H K H^T, H (K o D2) H^T and nc x nc algebra.
    """
    S = len(prob.HSH)
    w = theta[: S + 1]
    alpha, gamma, sigma = (float(np.exp(v)) for v in theta[S + 1 :])
    nc = prob.a.size
    H = prob.H
    K = se_from_sq_dists(alpha, gamma, prob.D2)
    HKH = H @ K @ H.T
    Lam = sigma**2 * np.eye(nc) + HKH
    for s in range(S):
        Lam = Lam + w[s] ** 2 * prob.HSH[s]
    Lam = 0.5 * (Lam + Lam.T)
    factor = cholesky(Lam + _lambda_jitter(sigma, alpha) * np.eye(nc))
    r = prob.a - prob.HF @ w
    p = solve(factor, r)
    Linv = solve(factor, np.eye(nc))
    ll = float(-0.5 * r @ p - 0.5 * log_det(factor) - 0.5 * nc * np.log(2 * np.pi))

    def trace_term(dLam: np.ndarray) -> float:
        return 0.5 * (float(p @ dLam @ p) - float(np.sum(Linv * dLam)))

    # trace_term(c I), without forming the identity
    identity_term = 0.5 * (float(p @ p) - float(np.trace(Linv)))
    grad = np.empty(S + 4)
    for s in range(S):
        grad[s] = float(prob.HF[:, s] @ p) + trace_term(2.0 * w[s] * prob.HSH[s])
    grad[S] = float(prob.HF[:, S] @ p)
    # log-space chain rule, as in grad_log_marginal
    grad[S + 1] = trace_term(2.0 * HKH) + 2.0 * JITTER_REL * alpha**2 * identity_term
    grad[S + 2] = trace_term(H @ (K * (prob.D2 / gamma**2)) @ H.T)
    grad[S + 3] = 2.0 * sigma**2 * (1.0 + JITTER_REL) * identity_term
    return -ll, -grad


def _pack(w: np.ndarray, kernel: SEKernelParams, sigma: float) -> np.ndarray:
    return np.concatenate([w, [np.log(kernel.alpha), np.log(kernel.gamma), np.log(sigma)]])


def _unpack(theta: np.ndarray, n_w: int) -> DownscaleParams:
    w = theta[:n_w]
    la, lg, ls = theta[n_w:]
    return DownscaleParams(
        w=w, kernel=SEKernelParams.from_log(la, lg), sigma=float(np.exp(ls))
    )


def lstsq_warm_start(a: np.ndarray, design: DesignMatrix, H: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares of a on the coarse-aggregated design."""
    w, *_ = np.linalg.lstsq(H @ design.F, np.asarray(a, dtype=float), rcond=None)
    return w


def fit_downscale(
    a: ArealDataset | np.ndarray,
    posteriors: list[AuxPosterior],
    fine: Partition | np.ndarray,
    amap_or_H,
    restarts: int = 5,
    seed: int = 0,
    ridge: float = 0.0,
    gtol: float = 1e-6,
    max_iter: int = 500,
) -> DownscaleParams:
    """Maximize the integrated marginal likelihood over (w, alpha, gamma, sigma).

    Weights warm-start from the coarse least-squares fit; restarts perturb
    the log hyperparameters by N(0, 0.5^2) and the weights by N(0, 0.1^2).
    An optional ridge penalty on the non-bias weights (default 0) tempers the
    overparameterized regime where |S| + 1 exceeds the coarse region count.
    ``multistart_minimize`` picks the winner, the restart with the lowest
    objective and the earliest one on an exact tie;
    ``diagnostics["restart_records"]`` keeps every restart.
    """
    a_vec = a.values if isinstance(a, ArealDataset) else np.asarray(a, dtype=float)
    Xf = fine.centroids if isinstance(fine, Partition) else np.asarray(fine, dtype=float)
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    design = build_design(posteriors, n_fine=Xf.shape[0])
    n_w = design.F.shape[1]
    prob = _Problem.build(a_vec, posteriors, Xf, H, design)

    w0 = lstsq_warm_start(a_vec, design, H)
    r0 = a_vec - H @ (design.F @ w0)
    alpha0 = max(float(np.std(r0)), 1e-3)
    gamma0 = median_pairwise_distance(Xf)
    sigma0 = max(0.1 * float(np.std(r0)), 10 * SIGMA_FLOOR)
    theta0 = _pack(w0, SEKernelParams(alpha0, gamma0), sigma0)

    def objective(theta):
        val, grad = _neg_log_marginal(prob, theta)
        if ridge > 0 and n_w > 1:
            val += ridge * float(theta[: n_w - 1] @ theta[: n_w - 1])
            grad[: n_w - 1] += 2 * ridge * theta[: n_w - 1]
        return val, grad

    rng = np.random.default_rng(seed)
    inits = [theta0]
    for _ in range(max(0, restarts - 1)):
        t = theta0.copy()
        t[:n_w] += rng.normal(0.0, 0.1, size=n_w)
        t[n_w:] += rng.normal(0.0, 0.5, size=3)
        inits.append(t)

    best, records = multistart_minimize(objective, inits, gtol=gtol, max_iter=max_iter)
    if best is None:
        raise DownscaleFitError("optimizer failed on all restarts")
    params = _unpack(best.argmin, n_w)
    diagnostics = {
        "log_marginal": float(-best.objective),
        "iterations": int(best.iterations),
        "converged": bool(best.converged),
        "restarts": restarts,
        "ridge": ridge,
        "restart_records": records,
    }
    return DownscaleParams(
        w=params.w, kernel=params.kernel, sigma=params.sigma, diagnostics=diagnostics
    )


def predict_fine(
    params: DownscaleParams,
    a: ArealDataset | np.ndarray,
    design: DesignMatrix,
    posteriors: list[AuxPosterior],
    amap_or_H,
    fine: Partition | np.ndarray | None = None,
) -> Refinement:
    """Posterior of the fine field: mean F w + Omega H^T Lambda^-1 (a - H F w),
    covariance Omega - Omega H^T Lambda^-1 H Omega.
    """
    a_vec = a.values if isinstance(a, ArealDataset) else np.asarray(a, dtype=float)
    H = amap_or_H.H if isinstance(amap_or_H, AggregationMap) else np.asarray(amap_or_H, float)
    fine_part = fine if isinstance(fine, Partition) else None
    if isinstance(fine, Partition):
        Xf = fine.centroids
    elif fine is not None:
        Xf = np.asarray(fine, dtype=float)
    elif isinstance(amap_or_H, AggregationMap):
        fine_part = amap_or_H.fine
        Xf = fine_part.centroids
    else:
        raise ValueError("fine centroids required")
    assembly = assemble_lambda(params, posteriors, Xf, H)
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
    return Refinement(
        mean=mean, cov=cov, fine=fine_part, params=params, diagnostics=dict(params.diagnostics)
    )
