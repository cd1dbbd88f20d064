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


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, |A| x |B|."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"points of dimension {A.shape[1]} and {B.shape[1]}")
    # Squared column differences summed in place: at most two |A| x |B| arrays
    # for 2-D points, and bit for bit the sums over the (|A|, |B|, 2) differences.
    D2 = np.subtract.outer(A[:, 0], B[:, 0])
    D2 *= D2
    for k in range(1, A.shape[1]):
        d = np.subtract.outer(A[:, k], B[:, k])
        d *= d
        D2 += d
    return D2


def se_from_sq_dists(
    alpha: float, gamma: float, D2: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """alpha^2 * exp(-0.5 * D2 / gamma^2), elementwise on an array of squared distances.

    Every SE covariance and Gram matrix in the package is built here, so they
    agree bit for bit. The steps run in place in one array: ``out`` when given
    (a fit's objective reuses one across calls), else a new one. Written as a
    single expression on an argument, it would hold two temporaries.

    Below an exponent of -708 numpy's exp leaves its fast path, and below
    -745.13 it returns +0.0; where any exponent is below -708, exp runs only
    on those at or above -750 and the rest become +0.0, the bits exp gives.
    """
    K = np.multiply(-0.5, D2, out=out)
    K /= gamma**2
    if K.min() < -708.0:
        np.exp(K, out=K, where=K >= -750.0)
        np.maximum(K, 0.0, out=K)
    else:
        np.exp(K, out=K)
    K *= alpha**2
    return K


def cov_matrix(params: SEKernelParams, A, B) -> np.ndarray:
    """Covariance matrix with entry (i, j) = alpha^2 exp(-||A[i] - B[j]||^2 / (2 gamma^2))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("centroid lists must be nonempty")
    D2 = sq_dists(A, B)
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

    Each block of KERNEL_ROWS rows gets its squared distances once, and every
    kernel is formed from them into one block buffer and multiplied by M.
    Blocks and products are those of ``rows_times`` on the whole kernel, bit
    for bit. Both blocks are freed before the next block's distances are
    formed, so no more than two are held at once.
    """
    if not kernels:
        return []
    n = len(X)
    outs = [np.empty((n, M.shape[1])) for _ in kernels]
    for i in range(0, n, KERNEL_ROWS):
        D2 = sq_dists(X[i : i + KERNEL_ROWS], X)
        K = np.empty_like(D2)
        for params, out in zip(kernels, outs):
            se_from_sq_dists(params.alpha, params.gamma, D2, out=K)
            np.matmul(K, M, out=out[i : i + KERNEL_ROWS])
        del D2, K
    return outs
