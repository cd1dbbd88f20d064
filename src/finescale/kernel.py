"""Squared-exponential kernel and covariance matrices between centroid sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative jitter added to Gram diagonals before factorization; protects
# Cholesky against duplicate or near-duplicate centroids.
JITTER_REL = 1e-8

# Rows of an n x n kernel matrix formed at a time where only its product with
# a thin matrix is read: a block is KERNEL_ROWS x n, never n x n. Smaller
# blocks slow the product: 64 rows took 35% longer at 1200 x 48.
KERNEL_ROWS = 256


@dataclass(frozen=True)
class SEKernelParams:
    """Amplitude and length scale of the squared-exponential kernel.

    Both parameters are strictly positive; optimizers work on their
    logarithms, this container holds natural units.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    @classmethod
    def from_log(cls, log_alpha: float, log_gamma: float) -> "SEKernelParams":
        return cls(alpha=float(np.exp(log_alpha)), gamma=float(np.exp(log_gamma)))


def sq_dists(A: np.ndarray, B: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Pairwise squared Euclidean distances, |A| x |B|, into ``out`` with the
    further coordinates' squares in ``scratch`` where given (|A| x |B| each)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of dimension {A.shape[1]} and {B.shape[1]}")
    # Squared column differences summed in place: at most two |A| x |B| arrays
    # for 2-D points, and bit for bit the sums over the (|A|, |B|, 2) differences.
    D2 = np.subtract.outer(A[:, 0], B[:, 0], out=out)
    D2 *= D2
    for k in range(1, A.shape[1]):
        d = np.subtract.outer(A[:, k], B[:, k], out=scratch)
        d *= d
        D2 += d
    return D2


def se_from_sq_dists(
    alpha: float, gamma: float, D2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """alpha^2 * exp(-0.5 * D2 / gamma^2), elementwise on an array of squared distances.

    Every SE covariance and Gram matrix in the package is built here or by
    ``kernels_times`` through the same ``_se_from_exponent``, so they agree
    bit for bit. The steps run in place in one array: ``out`` when given (a
    fit's objective reuses one across calls), else a new one. Written as a
    single expression on an argument, it would hold two temporaries.
    """
    K = np.multiply(-0.5, D2, out=out)
    K /= gamma**2
    return _se_from_exponent(alpha, K, K.min() < -708.0)


def _se_from_exponent(alpha: float, E: np.ndarray, underflows: bool) -> np.ndarray:
    """alpha^2 * exp(E), in place in E; ``underflows`` says whether any exponent is below -708.

    Below an exponent of -708 numpy's exp leaves its fast path, and below
    -745.13 it returns +0.0; where any exponent is below -708, exp runs only
    on those at or above -750 and the rest become +0.0, the bits exp gives.
    """
    if underflows:
        np.exp(E, out=E, where=E >= -750.0)
        np.maximum(E, 0.0, out=E)
    else:
        np.exp(E, out=E)
    E *= alpha**2
    return E


def cov_matrix(params: SEKernelParams, A, B) -> np.ndarray:
    """Covariance matrix with entry (i, j) = alpha^2 exp(-||A[i] - B[j]||^2 / (2 gamma^2))."""
    D2 = sq_dists(A, B)
    if D2.size == 0:
        raise ValueError("centroid lists must be nonempty")
    return se_from_sq_dists(params.alpha, params.gamma, D2, out=D2)


def rows_times(K: np.ndarray, M: np.ndarray) -> np.ndarray:
    """K M, taken KERNEL_ROWS rows of K at a time.

    The fit, which holds its whole kernel, forms K H^T here, and
    ``kernels_times`` hands BLAS the same row blocks, formed one at a time,
    so fit and refine get the same bits: a single product and its row blocks
    need not round alike.
    """
    out = np.empty((len(K), M.shape[1]))
    for i in range(0, len(K), KERNEL_ROWS):
        np.matmul(K[i : i + KERNEL_ROWS], M, out=out[i : i + KERNEL_ROWS])
    return out


def kernels_times(kernels: list[SEKernelParams], X: np.ndarray, M: np.ndarray) -> list[np.ndarray]:
    """k(X, X) M for each kernel, with no |X| x |X| array.

    The pass holds two KERNEL_ROWS x |X| buffers. For each block of rows the
    first gets -0.5 times the squared distances, which ``sq_dists`` forms
    with the second as its scratch, and their minimum. Each kernel's
    exponents are then that block divided by gamma^2 into the second buffer,
    which ``_se_from_exponent`` turns into the kernel block multiplied by M.
    Division by a positive number keeps the order of its rounded results, so
    the block's minimum over gamma^2 is the minimum exponent
    ``se_from_sq_dists`` tests. Blocks and products are those of
    ``rows_times`` on the whole kernel, bit for bit.
    """
    if not kernels:
        return []
    X = np.asarray(X, dtype=float)
    n = len(X)
    outs = [np.empty((n, M.shape[1])) for _ in kernels]
    half_d2, buffer = np.empty((2, min(KERNEL_ROWS, n), n))
    for i in range(0, n, KERNEL_ROWS):
        block = X[i : i + KERNEL_ROWS]
        E = buffer[: len(block)]
        A = sq_dists(block, X, out=half_d2[: len(block)], scratch=E)
        A *= -0.5
        lowest = A.min()
        for params, out in zip(kernels, outs):
            gamma2 = params.gamma**2
            np.divide(A, gamma2, out=E)
            _se_from_exponent(params.alpha, E, lowest / gamma2 < -708.0)
            np.matmul(E, M, out=out[i : i + KERNEL_ROWS])
    return outs
