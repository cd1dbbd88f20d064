"""Hierarchical downscaling model: marginal likelihood, gradients, prediction.

The coarse observations are modeled as a = H z + noise, where z follows a GP
whose mean is a linear combination of auxiliary posterior means. Integrating
out the auxiliary fields and z gives a closed-form Gaussian marginal
N(a | H F w, Lambda) with Lambda = sigma^2 I + H Omega H^T and
Omega = K + sum_s w_s^2 Sigma_s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from finescale.geo import (
    AggregationMap,
    ArealDataset,
    InputError,
    Partition,
    json_log,
    json_value,
)
from finescale.gp_aux import AuxPosterior, in_search_box, random_starts, warm_start
from finescale.kernel import (
    JITTER_REL,
    SEKernelParams,
    cov_matrix,
    kernels_times,
    rows_times,
    se_from_sq_dists,
    sq_dists,
)
from finescale.numerics import (
    NumericalError,
    cholesky_in_place,
    clamp_variance,
    gaussian_nll,
    multistart_minimize,
    one_blas_thread,
    solve,
    solve_lower,
)


# Rows of D2 / gamma^2 formed at a time when a dense objective call scales K by it.
SCALE_ROWS = 64


class DownscaleFitError(NumericalError):
    """The second-step fit has no finite warm start, or failed on every restart."""


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

    def to_dict(self, column_ids) -> dict:
        """Weights keyed by design column id; one distinct id per weight, bias last."""
        ids = list(column_ids)
        if len(ids) != self.w.size:
            raise ValueError(f"{len(ids)} column ids for {self.w.size} weights")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate column ids {ids}: a weight would be lost")
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
        """The parameters ``to_dict`` wrote: one weight per column id, the ids
        distinct strings with ``bias`` last.

        Raises InputError naming the first key that is missing, holds a value
        of the wrong kind or, in ``w``, is no column id; ``diagnostics`` may
        be absent.
        """
        where = "downscale"
        ids = json_value(d, "column_ids", list, where)
        if not (
            all(isinstance(cid, str) for cid in ids)
            and len(set(ids)) == len(ids)
            and ids[-1:] == ["bias"]
        ):
            raise InputError(
                f"{where}: key 'column_ids' must be distinct strings ending in 'bias', got {ids!r}"
            )
        weights = json_value(d, "w", dict, where)
        extra = sorted(set(weights) - set(ids))
        if extra:
            raise InputError(f"{where} 'w': key {extra[0]!r} is no column id")
        return cls(
            w=np.array([json_value(weights, cid, float, f"{where} 'w'") for cid in ids]),
            kernel=SEKernelParams.from_log(
                json_log(d, "log_alpha", where), json_log(d, "log_gamma", where)
            ),
            sigma=float(np.exp(json_log(d, "log_sigma", where))),
            diagnostics=json_value(d, "diagnostics", dict, where, default={}),
        )


@dataclass(frozen=True)
class Refinement:
    """The posterior of the fine field: its mean and variance, and what its
    covariance Omega - V^T V is formed from when ``cov`` is read, V being
    L^-1 H Omega (nc x nf)."""

    mean: np.ndarray
    var: np.ndarray
    V: np.ndarray
    params: DownscaleParams
    Xf: np.ndarray
    posteriors: tuple[AuxPosterior, ...]

    @property
    def cov(self) -> np.ndarray:
        """The covariance as a dense nf x nf array, exactly symmetric, with
        diagonal ``var``; formed on every read."""
        w = self.params.w
        cov = cov_matrix(self.params.kernel, self.Xf, self.Xf)
        for s, post in enumerate(self.posteriors):
            cov += w[s] ** 2 * post.cov
        cov -= self.V.T @ self.V
        np.fill_diagonal(cov, self.var)
        return cov


def build_design(posteriors: list[AuxPosterior], n_fine: int) -> DesignMatrix:
    """Stack posterior means column-wise and append the bias column."""
    lengths = sorted({p.mean.shape[0] for p in posteriors})
    if lengths not in ([], [n_fine]):
        raise ValueError(f"posterior mean lengths {lengths} != fine region count {n_fine}")
    F = np.column_stack([p.mean for p in posteriors] + [np.ones(n_fine)])
    return DesignMatrix(F=F, column_ids=tuple(p.dataset_id for p in posteriors) + ("bias",))


@dataclass(frozen=True)
class _DenseKernel:
    """The fine kernel on any fine locations Xf, applied to H^T.

    ``times`` forms each kernel one block of rows at a time
    (``kernel.kernels_times``), so it holds no nf x nf array. A search's
    objective holds its whole kernel: ``for_search`` adds D2, the squared
    distances of Xf, which every thread of the search shares, and
    ``for_thread`` K, the nf x nf array each call writes K into and its
    gradient turns into K o D2 / gamma^2; each thread has its own. A call
    then allocates no nf x nf array: malloc gives such arrays back to the
    system when they are freed, and the next call faults them in again
    (190 000 page faults, 0.4 s of a 2.4 s fit at 480 fine regions).
    """

    Xf: np.ndarray
    H: np.ndarray
    D2: np.ndarray | None = None
    K: np.ndarray | None = None

    @property
    def diagnostics(self) -> dict:
        return {"path": "dense"}

    @property
    def flops(self) -> int:
        """About the work of one ``at`` call: nf^2 nc for each of K H^T and H E."""
        nc, nf = self.H.shape
        return 2 * nf**2 * nc

    def for_search(self) -> "_DenseKernel":
        return replace(self, D2=sq_dists(self.Xf, self.Xf))

    def for_thread(self) -> "_DenseKernel":
        return replace(self, K=np.empty_like(self.D2))

    def times(self, kernels: list[SEKernelParams]) -> list[np.ndarray]:
        """k(Xf, Xf) H^T for each kernel, from the same distance blocks."""
        return kernels_times(kernels, self.Xf, self.H.T)

    def at(self, alpha: float, gamma: float):
        """K H^T at (alpha, gamma), and a function of no arguments that turns K
        into E = K o D2 / gamma^2 in place and gives H E H^T. K H^T is taken
        from row blocks of the whole K (``kernel.rows_times``), the blocks
        ``times`` forms one at a time, so fit and refine get the same bits."""
        K = se_from_sq_dists(alpha, gamma, self.D2, out=self.K)

        def scaled() -> np.ndarray:
            # D2 / gamma^2 formed one block of rows at a time
            E = K
            for i in range(0, len(E), SCALE_ROWS):
                E[i : i + SCALE_ROWS] *= self.D2[i : i + SCALE_ROWS] / gamma**2
            return self.H @ E @ self.H.T

        return rows_times(K, self.H.T), scaled


@dataclass(frozen=True)
class _Problem:
    """The second-step model N(a | H F w, Lambda), which the fit searches, the
    refine conditions on and ``assemble_lambda`` returns.

    The observations a (None when only Lambda is wanted), H, the design and
    H F, the fine locations Xf, and H Sigma_s H^T for every auxiliary, the
    only way the fit reads Sigma_s. ``kernel`` is the fine kernel's operator:
    a ``lattice.LatticeKernel`` where the fine locations form a lattice, else
    a ``_DenseKernel``; ``nll_and_grad`` takes K H^T and
    H (K o D2 / gamma^2) H^T from it alone. Built at ``params`` (the refine),
    it holds Lambda, its factor and OmHt = Omega H^T at them, and no nf x nf
    array; built at none (the fit), it holds the ridge penalty.
    """

    a: np.ndarray | None
    H: np.ndarray
    design: DesignMatrix
    HF: np.ndarray
    Xf: np.ndarray
    HSH: tuple[np.ndarray, ...]
    kernel: object  # _DenseKernel or lattice.LatticeKernel
    params: DownscaleParams | None = None
    Lambda: np.ndarray | None = None
    factor: object = None  # CholeskyFactor
    OmHt: np.ndarray | None = None
    ridge: float = 0.0

    @classmethod
    def build(
        cls,
        a: ArealDataset | np.ndarray | None,
        posteriors: list[AuxPosterior],
        fine: Partition | np.ndarray | None,
        amap_or_H,
        params: DownscaleParams | None = None,
    ) -> "_Problem":
        """The problem of the inputs ``_inputs`` coerces, at ``params`` when given.

        Every posterior must be at the fine locations, else ValueError: then
        the fine kernel's operator forms each auxiliary's k(Xf, Xf) H^T and
        K H^T. Fine locations that ``lattice.detect`` finds on a lattice get a
        ``lattice.LatticeKernel``, any others a ``_DenseKernel``. Each
        Sigma_s H^T (nf x nc) is formed, read into H Sigma_s H^T and, with
        ``params``, added into Omega H^T as w_s^2 Sigma_s H^T, and let go
        before the next: on a lattice no two are held at once. Then
        ``_lambda_terms`` forms Lambda and its factor at ``params``.
        """
        a, H, Xf = _inputs(a, amap_or_H, fine)
        for post in posteriors:
            if not np.array_equal(post.Xf, Xf):
                raise ValueError(
                    f"posterior {post.dataset_id!r} is not at the fine locations: "
                    "predict it at the fine centroids"
                )
        design = build_design(posteriors, n_fine=Xf.shape[0])
        from finescale import lattice  # compiled by the second step's commands alone

        grid = lattice.detect(Xf)
        fine_kernel = _DenseKernel(Xf, H) if grid is None else lattice.LatticeKernel.build(grid, H)
        targets = [] if params is None else [params.kernel]
        KMs = iter(fine_kernel.times(targets + [post.kernel for post in posteriors]))
        HKH = OmHt = None
        if params is not None:
            OmHt = next(KMs)  # K H^T, which becomes Omega H^T in place
            HKH = H @ OmHt
        HSH = []
        for s, post in enumerate(posteriors):
            # Sigma_s H^T = k(Xf, Xf) H^T - R_s H^T, formed in place
            SHt = post.reduction.subtract_times(H.T, next(KMs))
            HSH.append(H @ SHt)
            if OmHt is not None:
                SHt *= params.w[s] ** 2
                OmHt += SHt
            del SHt  # else held while the next one is formed
        Lam = factor = None
        if params is not None:
            Lam, factor = _lambda_terms(HSH, params.w, params.kernel.alpha, params.sigma, HKH)
        return cls(a=a, H=H, design=design, HF=H @ design.F, Xf=Xf, HSH=tuple(HSH),
                   kernel=fine_kernel, params=params, Lambda=Lam, factor=factor, OmHt=OmHt)

    @property
    def flops(self) -> int:
        """About the work of one objective call: the fine kernel's, and nc^3 for Lambda."""
        return self.kernel.flops + self.H.shape[0] ** 3

    def for_search(self, ridge: float = 0.0) -> "_Problem":
        """This problem with what every thread of a search shares, and its ridge penalty."""
        return replace(self, kernel=self.kernel.for_search(), ridge=ridge)

    def for_thread(self) -> "_Problem":
        """A problem from ``for_search`` with one search thread's own scratch."""
        return replace(self, kernel=self.kernel.for_thread())

    def nll_and_grad(self, theta: np.ndarray, accept):
        """-log N(a | H F w, Lambda) at the packed theta, plus the ridge penalty
        ridge * |w_1..w_S|^2 when ``ridge`` is positive, and its gradient
        where ``accept`` of that value is true, else None; on a problem from
        ``for_thread``.

        Each covariance-parameter entry of the log-likelihood gradient is
        1/2 tr((p p^T - Lambda^-1) dLambda), p = Lambda^-1 (a - H F w); the
        weight entries add the mean-term contribution (H F_col)^T p. A call
        takes K H^T and H (K o D2 / gamma^2) H^T from the fine-kernel operator,
        the rest is nc x nc algebra.
        """
        S = len(self.HSH)
        w = theta[: S + 1]
        alpha, gamma, sigma = (float(np.exp(v)) for v in theta[S + 1 :])
        nc = self.H.shape[0]
        KHt, scaled = self.kernel.at(alpha, gamma)
        HKH = self.H @ KHt
        del KHt  # an nf x nc array the rest of the call does not read
        _, factor = _lambda_terms(self.HSH, w, alpha, sigma, HKH)
        nll, p = gaussian_nll(factor, self.a - self.HF @ w)
        if self.ridge > 0:
            nll += self.ridge * float(w[:S] @ w[:S])
        if not accept(nll):
            return nll, None
        Linv = solve(factor, np.eye(nc))

        def trace_term(dLam: np.ndarray) -> float:
            return 0.5 * (float(p @ dLam @ p) - float(np.sum(Linv * dLam)))

        # trace_term(c I), without forming the identity
        identity_term = 0.5 * (float(p @ p) - float(np.trace(Linv)))
        grad = np.empty(S + 4)
        for s in range(S):
            grad[s] = float(self.HF[:, s] @ p) + trace_term(2.0 * w[s] * self.HSH[s])
        grad[S] = float(self.HF[:, S] @ p)  # bias: Lambda does not depend on w_0
        # log-space chain rule: d/d log(theta) = theta * d/d theta
        grad[S + 1] = trace_term(2.0 * HKH) + 2.0 * JITTER_REL * alpha**2 * identity_term
        grad[S + 2] = trace_term(scaled())
        grad[S + 3] = 2.0 * sigma**2 * (1.0 + JITTER_REL) * identity_term
        grad = -grad
        if self.ridge > 0:
            grad[:S] += 2 * self.ridge * w[:S]
        return nll, grad

    def check_handed_back(self, design, H=None, Xf=None, n_posteriors=None, params=None):
        """Raise ValueError unless the design is the posteriors' own,
        ``build_design(posteriors, nf)``, and H, the fine locations, the
        number of posteriors and the parameters, where given, are those this
        problem was built from."""
        own = self.design
        if design.column_ids != own.column_ids or not np.array_equal(design.F, own.F):
            raise ValueError(f"design {design.column_ids} is not the posteriors' own")
        if H is not None and not np.array_equal(H, self.H):
            raise ValueError("H is not the one the assembly was built from")
        if Xf is not None and not np.array_equal(Xf, self.Xf):
            raise ValueError("fine locations are not the ones the assembly was built from")
        if n_posteriors not in (None, len(self.HSH)):
            raise ValueError(
                f"{n_posteriors} posteriors for an assembly built from {len(self.HSH)}"
            )
        at = self.params
        if params is not None and not (at is not None and np.array_equal(params.w, at.w)
                                       and (params.kernel, params.sigma) == (at.kernel, at.sigma)):
            raise ValueError("params are not the ones the assembly was built at")


def _inputs(
    a: ArealDataset | np.ndarray | None, amap_or_H, fine: Partition | np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """The observations a (an ArealDataset's values; None stays None), H and
    the fine locations (``fine=None`` takes an AggregationMap's fine
    partition). ValueError unless a is one finite value per row of H, the
    fine locations are one row per column and, beside an AggregationMap, its
    fine centroids, and a fine Partition or target ArealDataset lists the
    map's ids in its order."""
    amap = amap_or_H if isinstance(amap_or_H, AggregationMap) else None
    H = amap.H if amap else np.asarray(amap_or_H, dtype=float)
    fine = amap.fine if amap and fine is None else fine
    if fine is None:
        raise ValueError("fine centroids required")
    Xf = fine.centroids if isinstance(fine, Partition) else np.asarray(fine, dtype=float)
    if Xf.ndim != 2 or Xf.shape[0] != H.shape[1]:
        raise ValueError(f"fine locations of shape {Xf.shape} for an H with {H.shape[1]} columns")
    if amap and isinstance(fine, Partition) and fine.ids != amap.fine.ids:
        raise ValueError(f"fine partition {fine.name!r} does not list the ids of the map's fine "
                         f"partition {amap.fine.name!r} in its order")
    if amap and not np.array_equal(Xf, amap.fine.centroids):
        raise ValueError(f"fine locations are not the map's fine centroids, {amap.fine.name!r}'s")
    if isinstance(a, ArealDataset):
        if amap and a.partition.ids != amap.coarse.ids:
            raise ValueError(f"target partition {a.partition.name!r} does not list the ids of the "
                             f"map's coarse partition {amap.coarse.name!r} in its order")
        a = a.values
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.shape != H.shape[:1] or not np.isfinite(a).all():
            raise ValueError(f"a of shape {a.shape} for an H with {H.shape[0]} rows, or not finite")
    return a, H, Xf


def _lambda_terms(HSH, w: np.ndarray, alpha: float, sigma: float, HKH: np.ndarray):
    """Lambda = sigma^2 I + H K H^T + sum_s w_s^2 H Sigma_s H^T and the
    Cholesky factor of the jittered Lambda, from H K H^T and each H Sigma_s H^T.

    The one place Lambda is formed: the fit and predict_fine both factor it,
    each from the K H^T of the same fine-kernel operator, so both factor the
    same Lambda to the bit.
    """
    nc = HKH.shape[0]
    Lam = sigma**2 * np.eye(nc) + HKH
    for s, HSH_s in enumerate(HSH):
        Lam = Lam + w[s] ** 2 * HSH_s
    Lam = 0.5 * (Lam + Lam.T)  # exactly symmetric: IEEE addition commutes
    # a new C-ordered array, factored in its own memory as its transpose
    factor = cholesky_in_place((Lam + JITTER_REL * (sigma**2 + alpha**2) * np.eye(nc)).T)
    return Lam, factor


def assemble_lambda(
    params: DownscaleParams,
    posteriors: list[AuxPosterior],
    fine_centroids: np.ndarray,
    amap_or_H,
) -> _Problem:
    """The second-step problem at ``params``: ``Lambda`` = sigma^2 I + H Omega H^T,
    Omega = K + sum_s w_s^2 Sigma_s, and its ``factor``, both as the fit forms them."""
    return _Problem.build(None, posteriors, fine_centroids, amap_or_H, params)


def log_marginal(
    params: DownscaleParams,
    a: np.ndarray,
    design: DesignMatrix,
    assembly: _Problem,
    H: np.ndarray,
) -> float:
    """log N(a | H F w, Lambda) on the assembly's factor; params, H or a design
    other than the assembly's raise ValueError."""
    a, H, _ = _inputs(a, H, assembly.Xf)
    assembly.check_handed_back(design, H, params=params)
    return -gaussian_nll(assembly.factor, a - H @ (design.F @ params.w))[0]


def grad_log_marginal(
    params: DownscaleParams,
    a: np.ndarray,
    design: DesignMatrix,
    posteriors: list[AuxPosterior],
    amap_or_H,
    fine_centroids: np.ndarray,
    assembly: _Problem,
) -> np.ndarray:
    """Analytic gradient over (w_1..w_S, w_0, log alpha, log gamma, log sigma),
    the fit's objective gradient negated, on the assembly.

    The params, design, H, the fine locations and the number of posteriors
    must be those the assembly was built from, else ValueError.
    """
    a, H, Xf = _inputs(a, amap_or_H, fine_centroids)
    assembly.check_handed_back(design, H, Xf, len(posteriors), params)
    prob = replace(assembly, a=a).for_search().for_thread()
    w, kernel = params.w, params.kernel
    theta = np.concatenate([w, [np.log(kernel.alpha), np.log(kernel.gamma), np.log(params.sigma)]])
    return -prob.nll_and_grad(theta, lambda value: True)[1]


def lstsq_warm_start(a: np.ndarray, design: DesignMatrix, H: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares of a on the coarse-aggregated design."""
    w, *_ = np.linalg.lstsq(H @ design.F, np.asarray(a, dtype=float), rcond=None)
    return w


@one_blas_thread()
def fit_downscale(
    a: ArealDataset | np.ndarray,
    posteriors: list[AuxPosterior],
    fine: Partition | np.ndarray,
    amap_or_H,
    restarts: int = 5,
    seed: int = 0,
    ridge: float = 0.0,
    gtol: float = 1e-6,
) -> DownscaleParams:
    """Maximize the integrated marginal likelihood over (w, alpha, gamma, sigma).

    Weights warm-start from the coarse least-squares fit; restarts perturb
    the log hyperparameters by N(0, 0.5^2) and the weights by N(0, 0.1^2).
    An optional ridge penalty on the non-bias weights (default 0) tempers the
    overparameterized regime where |S| + 1 exceeds the coarse region count.
    ``multistart_minimize`` picks the winner, the restart with the lowest
    objective and the earliest one on an exact tie;
    ``diagnostics["restart_records"]`` keeps every restart and
    ``diagnostics["workers"]`` counts the threads that ran them.
    ``diagnostics["log_marginal"]`` is log N(a | H F w, Lambda) at the winner,
    without the ridge penalty the search minimized. ``diagnostics["gram"]``
    records the fine kernel's path (``_Problem.build``): ``{"path":
    "lattice", "shape": [nx, ny], "max_snap": ...}``, where no nf x nf array
    is formed, or ``{"path": "dense"}``, where each thread has its own nf x nf
    scratch array. The fit runs inside ``numerics.one_blas_thread``. Raises
    DownscaleFitError when the warm start is not finite or every restart fails,
    and InputError when it is outside the search box (``gp_aux.in_search_box``).
    """
    prob = _Problem.build(a, posteriors, fine, amap_or_H).for_search(ridge)
    a_vec, H, design = prob.a, prob.H, prob.design
    n_w = design.F.shape[1]

    w0 = lstsq_warm_start(a_vec, design, H)
    r0 = a_vec - H @ (design.F @ w0)
    with np.errstate(over="ignore"):  # an overflow leaves spread inf, refused below
        spread = float(np.std(r0))
    if not (np.isfinite(w0).all() and np.isfinite(spread)):
        raise DownscaleFitError(
            f"non-finite warm start: the least-squares residuals have standard deviation {spread}"
        )
    theta0 = np.concatenate([w0, warm_start(spread, prob.Xf)])
    in_search_box(theta0, "second step", "the target's values", "the fine centroids' coordinates")
    starts = [theta0] + random_starts(theta0, np.repeat([0.1, 0.5], [n_w, 3]), restarts, seed)

    [(best, records)], workers = multistart_minimize(
        [(lambda: prob.for_thread().nll_and_grad, starts, prob.flops)], gtol=gtol
    )
    if best is None:
        errors = [r["error"] for r in records]
        raise DownscaleFitError(f"optimizer failed on all restarts: {errors}")
    nll = best.objective
    if ridge > 0:  # the winner's value without the penalty
        nll = replace(prob, ridge=0.0).for_thread().nll_and_grad(best.argmin, lambda v: False)[0]
    log_alpha, log_gamma, log_sigma = best.argmin[n_w:]
    diagnostics = {
        "log_marginal": float(-nll),
        "iterations": int(best.iterations),
        "converged": bool(best.converged),
        "restarts": restarts,
        "ridge": ridge,
        "restart_records": records,
        "workers": workers,
        "gram": prob.kernel.diagnostics,
    }
    return DownscaleParams(
        w=best.argmin[:n_w],
        kernel=SEKernelParams.from_log(log_alpha, log_gamma),
        sigma=float(np.exp(log_sigma)),
        diagnostics=diagnostics,
    )


@one_blas_thread()
def predict_fine(
    params: DownscaleParams,
    a: ArealDataset | np.ndarray,
    design: DesignMatrix,
    posteriors: list[AuxPosterior],
    amap_or_H,
    fine: Partition | np.ndarray | None = None,
) -> Refinement:
    """Posterior of the fine field given a, conditioned on the Lambda the fit factors.

    With Omega = K + sum_s w_s^2 Sigma_s and V = L^-1 H Omega, where
    L L^T = Lambda: mean F w + (H Omega)^T Lambda^-1 (a - H F w), variance
    diag Omega - colsum(V o V), read from the problem built at ``params``:
    Omega H^T, formed from K H^T and each Sigma_s H^T in turn, and the factor
    of Lambda (``_Problem.build``). So no nf x nf array is formed;
    ``Refinement.cov`` forms the covariance Omega - V^T V when it is read. The
    posteriors must be at the fine locations, and ``design`` must be
    ``build_design(posteriors, nf)``, else ValueError. It runs inside
    ``numerics.one_blas_thread``.
    """
    w, kernel = params.w, params.kernel
    prob = _Problem.build(a, posteriors, fine, amap_or_H, params)
    prob.check_handed_back(design)
    OmHt = prob.OmHt
    var = np.full(len(prob.Xf), kernel.alpha**2)  # the diagonal of K
    for s, post in enumerate(posteriors):
        var += w[s] ** 2 * post.var
    m0 = design.F @ w
    mean = m0 + OmHt @ solve(prob.factor, prob.a - prob.H @ m0)
    V = solve_lower(prob.factor, OmHt.T)
    var -= np.einsum("ij,ij->j", V, V)
    clamp_variance(var, 1e-8)
    return Refinement(
        mean=mean, var=var, V=V, params=params, Xf=prob.Xf, posteriors=tuple(posteriors)
    )
