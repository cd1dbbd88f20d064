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
    """
    K = np.multiply(-0.5, D2, out=out)
    K /= gamma**2
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


def rows_times(rows, n: int, M: np.ndarray) -> np.ndarray:
    """The product with M of the n-row matrix whose rows i:j ``rows(i, j)``
    returns, taken KERNEL_ROWS rows at a time.

    The fit, which holds its whole kernel, and the refine, which forms the
    same rows block by block, both form K H^T here, so they hand BLAS the
    same blocks and get the same bits: a single product and its row blocks
    need not round alike.
    """
    out = np.empty((n, M.shape[1]))
    for i in range(0, n, KERNEL_ROWS):
        np.matmul(rows(i, i + KERNEL_ROWS), M, out=out[i : i + KERNEL_ROWS])
    return out


def kernel_times(params: SEKernelParams, X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """k(X, X) M, with no |X| x |X| array: the kernel is formed KERNEL_ROWS rows at a time."""
    return rows_times(lambda i, j: cov_matrix(params, X[i:j], X), len(X), M)
