"""Per-auxiliary GP hyperparameter estimation and fine-centroid posteriors."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from finescale.geo import ArealDataset, InputError, Partition, json_log, json_value
from finescale.kernel import (
    JITTER_REL,
    SEKernelParams,
    cov_matrix,
    se_from_sq_dists,
    sq_dists,
)
from finescale.numerics import (
    SIGMA_FLOOR,
    NumericalError,
    cholesky_in_place,
    clamp_variance,
    gaussian_nll,
    inverse_in_place,
    multistart_minimize,
    one_blas_thread,
    solve,
    solve_lower,
)

try:  # hashlib loads OpenSSL's libcrypto; CPython's own module has the same digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class AuxFitError(NumericalError):
    """Hyperparameter optimization failed for an auxiliary dataset."""


@dataclass(frozen=True)
class AuxGPModel:
    dataset_id: str
    params: SEKernelParams
    noise_sigma: float
    train_centroids: np.ndarray
    train_values: np.ndarray  # original (uncentered) values
    offset: float  # empirical mean removed before fitting
    scale: float  # unit-variance factor used during optimization
    log_marginal: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "log_alpha": float(np.log(self.params.alpha)),
            "log_gamma": float(np.log(self.params.gamma)),
            "log_sigma": float(np.log(self.noise_sigma)),
            "offset": float(self.offset),
            "scale": float(self.scale),
            "log_marginal": float(self.log_marginal),
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict, train_centroids, train_values) -> "AuxGPModel":
        """The model ``to_dict`` wrote, on its training data.

        Raises InputError naming the first key that is missing or holds a
        value of the wrong kind; ``diagnostics`` may be absent.
        """
        dataset_id = json_value(d, "dataset_id", str, "aux model")
        where = f"aux model {dataset_id!r}"
        return cls(
            dataset_id=dataset_id,
            params=SEKernelParams.from_log(
                json_log(d, "log_alpha", where), json_log(d, "log_gamma", where)
            ),
            noise_sigma=float(np.exp(json_log(d, "log_sigma", where))),
            train_centroids=np.asarray(train_centroids, dtype=float),
            train_values=np.asarray(train_values, dtype=float),
            offset=json_value(d, "offset", float, where),
            scale=json_value(d, "scale", float, where),
            log_marginal=json_value(d, "log_marginal", float, where),
            diagnostics=json_value(d, "diagnostics", dict, where, default={}),
        )


@dataclass(frozen=True)
class DenseReduction:
    """R = K*^T A^-1 K* = W^T W of a dense auxiliary fit at nf points, with
    W = L^-1 K(X, Xf) (n x nf) and L L^T = A = K(X, X) + (sigma^2 + jitter) I."""

    W: np.ndarray

    def subtract_times(self, M: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out - R M in place in out, R M = W^T (W M), for an nf x m M."""
        out -= self.W.T @ (self.W @ M)
        return out

    def matrix(self) -> np.ndarray:
        """R as a dense nf x nf array, exactly symmetric."""
        return self.W.T @ self.W


@dataclass(frozen=True)
class AuxPosterior:
    """An auxiliary GP's posterior at the locations Xf, held without an nf x nf array.

    The covariance is Sigma = k(Xf, Xf) - R, R = K*^T A^-1 K* with
    K* = K(X, Xf) on the n training points and A their Gram; var is its
    diagonal, clamped at zero. ``reduction`` applies R: a ``DenseReduction``,
    or a ``lattice.LatticeReduction`` for a fit on a lattice, which holds no
    n x nf array.
    """

    dataset_id: str
    mean: np.ndarray
    var: np.ndarray
    reduction: object  # DenseReduction or lattice.LatticeReduction
    kernel: SEKernelParams
    Xf: np.ndarray

    @property
    def avg_variance(self) -> float:
        return float(np.mean(self.var))

    def cov_times(self, M: np.ndarray, KM: np.ndarray) -> np.ndarray:
        """Sigma M = k(Xf, Xf) M - R M for an nf x m M, from KM = k(Xf, Xf) M
        as ``kernel.kernels_times`` forms it, with no nf x nf array; KM becomes
        Sigma M in place."""
        return self.reduction.subtract_times(M, KM)

    @property
    def cov(self) -> np.ndarray:
        """Sigma as a dense nf x nf array, exactly symmetric, formed on every read."""
        cov = cov_matrix(self.kernel, self.Xf, self.Xf)
        cov -= self.reduction.matrix()
        np.fill_diagonal(cov, self.var)
        return cov


def _train_sq_dists(X: np.ndarray) -> np.ndarray:
    """The squared distances D2 of training centroids X, refused unless exactly
    symmetric: then so is every Gram on them, as ``cholesky_in_place`` needs."""
    D2 = sq_dists(X, X)
    if not np.array_equal(D2, D2.T):
        raise ValueError("the squared distances of an auxiliary fit must be exactly symmetric")
    return D2


def _gram(
    alpha: float,
    gamma: float,
    sigma: float,
    D2: np.ndarray,
    K: np.ndarray,
    A: np.ndarray | None = None,
) -> np.ndarray:
    """The training covariance A = K + (sigma^2 + jitter) I, K the SE kernel on squared distances D2.

    K is written into the given array, which may be D2 itself; A over K, or
    into the given array through A.T, which holds K's values since D2, and so
    K, is exactly symmetric: into a Fortran-ordered A that copy is contiguous.
    The noise goes onto the diagonal in place: off it, A is K.
    """
    K = se_from_sq_dists(alpha, gamma, D2, out=K)
    if A is None:
        A = K
    else:
        np.copyto(A.T, K)
    A.flat[:: A.shape[0] + 1] += sigma**2 + JITTER_REL * alpha**2
    return A


@dataclass(frozen=True)
class _AuxProblem:
    """One auxiliary fit's unit-variance values ys and their squared distances
    D2, for the dense objective; ``for_thread`` adds the two n x n arrays
    every call of one thread's objective overwrites.

    K holds the kernel, then E = K o D2 / gamma^2. A, in Fortran order so
    LAPACK needs no copy, holds K + (sigma^2 + jitter) I, then its factor,
    then the full A^-1, read through the C-ordered view A.T. Without them a
    call allocated and freed about a dozen n x n arrays, which malloc gave
    back to the system and faulted in again on the next call. D2 comes
    from ``_train_sq_dists``, so every A is exactly symmetric.
    """

    ys: np.ndarray
    D2: np.ndarray
    K: np.ndarray | None = None
    A: np.ndarray | None = None

    @property
    def diagnostics(self) -> dict:
        return {"path": "dense"}

    @property
    def flops(self) -> int:
        """About the work of one call: n^3, dpotrf's n^3 / 3 and dpotri's 2 n^3 / 3."""
        return self.ys.size**3

    def for_thread(self) -> "_AuxProblem":
        n = self.ys.size
        return replace(self, K=np.empty((n, n)), A=np.empty((n, n), order="F"))

    def nll_and_grad(self, theta: np.ndarray, accept):
        """Negative log marginal over (log alpha, log gamma, log sigma), and its
        gradient where ``accept(nll)`` is true, else None; on a problem from
        ``for_thread``.

        With beta = A^-1 y, d log L / d theta_k = 1/2 (beta^T dA_k beta - tr(A^-1 dA_k)),
        where dA is 2 (K + jitter I), K o D2 / gamma^2 and 2 sigma^2 I; each term
        is a quadratic form in beta and a trace against A^-1, which dpotri forms
        in place of the factor.
        """
        alpha, gamma, sigma = np.exp(theta)
        K = self.K
        F = cholesky_in_place(_gram(alpha, gamma, sigma, self.D2, K, self.A))
        nll, beta = gaussian_nll(F, self.ys)
        if not accept(nll):
            return nll, None
        jitter = JITTER_REL * alpha**2
        Ainv = inverse_in_place(F)
        bb, tr = beta @ beta, np.trace(Ainv)
        # Restarts that end on a flat ridge of the likelihood tie to the last bit,
        # so rounding here picks the winner among them: keep the operand order.
        dll_alpha = 2.0 * (beta @ K @ beta + jitter * bb - np.vdot(Ainv, K) - jitter * tr)
        E = K  # K is not read again: E = K * D2 / gamma**2, in place
        E *= self.D2
        E /= gamma**2
        dll = np.array(
            [
                dll_alpha,
                beta @ E @ beta - np.vdot(Ainv, E),
                2.0 * sigma**2 * (bb - tr),
            ]
        )
        return nll, -0.5 * dll


def data_sha256(centroids, values) -> str:
    """sha256 of training centroids and values as float64, shapes included.

    ``fit_aux_gp`` records it in its diagnostics; ``finescale refine``
    compares it with the data it loads before using the fitted model.
    """
    h = sha256()
    for arr in (centroids, values):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median distance over the pairs i < j of points X at positive distance;
    1 when there is no such pair.

    Each row's squared distances to the points after it are formed straight
    into one array, with ``kernel.sq_dists``' elementwise operations in their
    order, so no n x n array is formed. The median is selected in that array
    in place, with ``np.median``'s bits: the middle entry, or the mean
    (a + b) / 2 of the two middle ones. ``np.median`` would import numpy.ma.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    upper = np.empty(n * (n - 1) // 2)
    scratch = np.empty(max(n - 1, 0))
    end = 0
    for i in range(n - 1):
        row, d = upper[end : end + n - 1 - i], scratch[: n - 1 - i]
        np.subtract(X[i, 0], X[i + 1 :, 0], out=row)
        row *= row
        for k in range(1, X.shape[1]):
            np.subtract(X[i, k], X[i + 1 :, k], out=d)
            d *= d
            row += d
        end += n - 1 - i
    # squared distances are >= 0, so the zeros come first in sorted order
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


def warm_start(spread: float, X: np.ndarray, grid=None) -> np.ndarray:
    """The first start of both fits, (log alpha, log gamma, log sigma) for values
    of standard deviation ``spread`` at the points X. gamma is their median
    distance: counted on ``grid``, the ``lattice.Lattice`` of X where the fit
    found one, from ``lattice.MEDIAN_MIN_POINTS`` points on
    (``lattice.Lattice.median_distance``), else ``median_pairwise_distance``."""
    from finescale import lattice  # both fits have imported it

    alpha, sigma = max(spread, 1e-3), max(0.1 * spread, 10 * SIGMA_FLOOR)
    if grid is not None and len(X) >= lattice.MEDIAN_MIN_POINTS:
        return np.log([alpha, grid.median_distance(), sigma])
    return np.log([alpha, median_pairwise_distance(X), sigma])


def random_starts(base: np.ndarray, sd, restarts: int, seed: int) -> list[np.ndarray]:
    """The ``restarts - 1`` random starts of both fits: base + N(0, sd^2) entrywise,
    drawn from a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [base + rng.normal(0.0, sd, size=base.size) for _ in range(max(0, restarts - 1))]


def _lattice(X: np.ndarray):
    """The ``lattice.Lattice`` that an auxiliary on the centroids X is fitted
    and predicted on: ``lattice.detect``'s from ``lattice.MIN_POINTS`` points
    on; None for the dense path."""
    from finescale import lattice  # so importing finescale.cli compiles no lattice code

    return lattice.detect(X) if len(X) >= lattice.MIN_POINTS else None


@dataclass(frozen=True)
class _AuxFit:
    """One auxiliary fit up to its search: the training data, the offset and
    scale that make its values unit-variance, the start points and the
    problem its objective runs on. At least ``lattice.MIN_POINTS`` centroids
    on a lattice, ``lattice.detect``'s, give it a ``lattice.LatticeProblem``
    of its values in the lattice's row-major order; any others an
    ``_AuxProblem`` of its values in their order and their squared distances
    from ``_train_sq_dists``."""

    dataset_id: str
    X: np.ndarray
    y: np.ndarray
    offset: float
    scale: float
    starts: list[np.ndarray]
    problem: object  # _AuxProblem or lattice.LatticeProblem

    @classmethod
    def prepare(
        cls, data: ArealDataset, dataset_id: str, restarts: int, seed: int, center: bool = True
    ) -> "_AuxFit":
        """The fit of ``data``; InputError naming ``dataset_id`` below 2 regions."""
        X = data.partition.centroids
        y = np.asarray(data.values, dtype=float)
        if y.size < 2:
            raise InputError(
                f"dataset {dataset_id!r}: {y.size} region(s), and a GP fit needs at least 2"
            )
        grid = _lattice(X)
        # a lattice fit reads its values in row-major order, so the order of its
        # regions moves no bit of it; regions given in that order keep theirs
        yr = y if grid is None else y[grid.order]
        offset = float(np.mean(yr)) if center else 0.0
        yc = yr - offset
        scale = float(np.std(yc))
        if scale == 0.0:
            scale = 1.0
        ys = yc / scale
        base = warm_start(float(np.std(ys)), X, grid)
        short = base + np.array([0.0, -np.log(4.0), 0.0])  # quarter length scale
        starts = [base, short] + random_starts(base, 0.5, restarts, seed)
        if grid is None:
            problem = _AuxProblem(ys, _train_sq_dists(X))
        else:  # a lattice fit forms no n x n array
            from finescale import lattice

            problem = lattice.LatticeProblem(grid, ys.reshape(grid.gy.size, grid.gx.size))
        return cls(dataset_id, X, y, offset, scale, starts, problem)

    def make_objective(self):
        return self.problem.for_thread().nll_and_grad

    @property
    def job(self) -> tuple:
        """The fit's search, as a job of ``multistart_minimize``."""
        return self.make_objective, self.starts, self.problem.flops

    def model(self, best, records: list[dict], workers: int) -> AuxGPModel:
        """The model of the search's best result, or AuxFitError when every start failed."""
        if best is None:
            raise AuxFitError(f"all restarts failed: {[r['error'] for r in records]}")
        log_alpha, log_gamma, log_sigma = best.argmin
        scale = self.scale
        params = SEKernelParams(
            alpha=scale * float(np.exp(log_alpha)), gamma=float(np.exp(log_gamma))
        )
        # log-marginal of the centered data in original units
        lm = -best.objective - self.y.size * np.log(scale)
        return AuxGPModel(
            dataset_id=self.dataset_id,
            params=params,
            noise_sigma=scale * float(np.exp(log_sigma)),
            train_centroids=self.X,
            train_values=self.y,
            offset=self.offset,
            scale=scale,
            log_marginal=float(lm),
            diagnostics={
                "restart_records": records,
                "workers": workers,
                "data_sha256": data_sha256(self.X, self.y),
                "gram": self.problem.diagnostics,
            },
        )


def fit_aux_gp(
    data: ArealDataset,
    restarts: int = 5,
    seed: int = 0,
    dataset_id: str | None = None,
    center: bool = True,
) -> AuxGPModel:
    """Maximize log N(y | 0, K + sigma^2 I) over log-hyperparameters.

    Values are centered by their empirical mean and scaled to unit variance
    before optimization; the fitted amplitude and noise are rescaled back so
    the stored model describes the centered data in original units. The
    starts are the base point, a quarter length scale and ``restarts - 1``
    random perturbations; ``diagnostics["restart_records"]`` keeps every
    start, with objectives of the unit-variance data, ``diagnostics["workers"]``
    counts the threads that ran them, and ``diagnostics["data_sha256"]``
    identifies the training data. Fewer than 2 regions are an InputError.

    At least ``lattice.MIN_POINTS`` centroids that lie within
    ``lattice.SNAP_REL`` of a cell's spacing of a product set gx x gy, with at
    least two values on each axis, are searched on the Kronecker objective of
    ``lattice.LatticeProblem``, which forms no n x n array; any others on the
    dense one, each thread with its own ``_AuxProblem.for_thread``.
    ``diagnostics["gram"]`` records which: ``lattice.Lattice.diagnostics``,
    ``{"path": "lattice", "shape": [nx, ny], "max_snap": ...}``, or
    ``{"path": "dense"}``.
    """
    fit = _AuxFit.prepare(data, dataset_id or data.partition.name, restarts, seed, center)
    [(best, records)], workers = multistart_minimize([fit.job])
    return fit.model(best, records, workers)


@one_blas_thread()
def predict_aux(model: AuxGPModel, test_centroids) -> AuxPosterior:
    """Predictive posterior at the test centroids.

    With A = K + (sigma^2 + jitter) I on the training centroids and K* their
    kernel with the test centroids:
    mean = offset + K*^T A^-1 (y - offset)
    var  = diag K** - diag(K*^T A^-1 K*), clamped at zero

    An auxiliary that ``_AuxFit.prepare`` puts on a lattice gets them from
    the eigenbases of its axes (``lattice.posterior``), its values read in
    the lattice's row-major order, so the order of its regions moves no bit.
    Any other factors A, L L^T = A, in the memory of the training distances
    and keeps W = L^-1 K*. It runs inside ``numerics.one_blas_thread``.
    """
    Xt = np.atleast_2d(np.asarray(test_centroids, dtype=float))
    X = model.train_centroids
    yc = model.train_values - model.offset
    alpha, gamma, sigma = model.params.alpha, model.params.gamma, model.noise_sigma
    grid = _lattice(X)
    if grid is None:
        D2 = _train_sq_dists(X)
        F = cholesky_in_place(_gram(alpha, gamma, sigma, D2, D2).T)
        Ks = cov_matrix(model.params, X, Xt)
        fit = Ks.T @ solve(F, yc)
        W = solve_lower(F, Ks)
        explained, reduction = np.einsum("ij,ij->j", W, W), DenseReduction(W)
    else:
        from finescale import lattice

        Y = yc[grid.order].reshape(grid.gy.size, grid.gx.size)
        fit, explained, reduction = lattice.posterior(grid, alpha, gamma, sigma, Y, Xt)
    return AuxPosterior(
        dataset_id=model.dataset_id,
        mean=model.offset + fit,
        var=clamp_variance(alpha**2 - explained, 1e-10),
        reduction=reduction,
        kernel=model.params,
        Xf=Xt,
    )


@contextmanager
def _naming(dataset_id: str):
    """Re-raise a NumericalError as AuxFitError naming the auxiliary dataset."""
    try:
        yield
    except NumericalError as exc:
        raise AuxFitError(f"auxiliary {dataset_id!r}: {exc}") from exc


def fit_all_aux(
    datasets: list[ArealDataset],
    fine: Partition,
    restarts: int = 5,
    seed: int = 0,
    dataset_ids: list[str] | None = None,
) -> list[tuple[AuxGPModel, AuxPosterior]]:
    """Fit every auxiliary GP and predict at the fine centroids.

    Fits are independent; each uses the same seed, so identical datasets
    yield identical results regardless of position. Every fit's starts run
    in one ``multistart_minimize`` pool, largest fit first, so that no
    thread idles while another finishes a fit; ``diagnostics["workers"]`` of
    each model counts that pool's threads. The fits return in input order.
    A dataset of fewer than 2 regions is an InputError naming it, before any
    search. A NumericalError is re-raised as AuxFitError naming the dataset;
    other errors propagate. Given ``dataset_ids`` must be one distinct id per
    dataset, else ValueError; the default is the partition names.
    """
    if dataset_ids is not None and not len(set(dataset_ids)) == len(dataset_ids) == len(datasets):
        raise ValueError(f"{list(dataset_ids)} for {len(datasets)} datasets: one distinct id each")
    ids = dataset_ids or [d.partition.name for d in datasets]
    order = sorted(range(len(datasets)), key=lambda i: -len(datasets[i].values))
    fits = {i: _AuxFit.prepare(datasets[i], ids[i], restarts, seed) for i in order}
    results, workers = multistart_minimize([fits[i].job for i in order])
    Xf = fine.centroids
    fitted = [None] * len(datasets)
    for i, (best, records) in zip(order, results):
        with _naming(ids[i]):
            model = fits.pop(i).model(best, records, workers)
            fitted[i] = (model, predict_aux(model, Xf))
    return fitted
