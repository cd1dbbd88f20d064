"""An auxiliary fit's objective where its centroids form a lattice.

On a product set gx x gy, ordered row-major with y the slow index, the SE
kernel separates: K = alpha^2 K_Y (x) K_X, where K_X = exp(-dx^2 / 2 gamma^2)
on gx and K_Y likewise on gy. With K_X = Q_X diag(lx) Q_X^T and K_Y the same,
the Gram K + c I, c = sigma^2 + jitter, is (Q_Y (x) Q_X) diag(D) (Q_Y (x) Q_X)^T
with D = alpha^2 ly (x) lx + c. So the objective and its gradient take two
small symmetric eigendecompositions per call and form no n x n array
(Saatci, PhD thesis, Cambridge 2011). Only ``gp_aux``'s fit imports this
module; ``predict_aux`` factors the dense Gram, and the second step's fine
kernel needs no eigendecomposition (``lattice.LatticeKernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finescale.kernel import JITTER_REL, sq_dists
from finescale.lattice import Lattice, axis_kernels
from finescale.numerics import FactorizationError, eigh_in_place

# An auxiliary fit takes the Kronecker objective from this many points on.
# Below it the two eigendecompositions cost no less than one Cholesky of the
# n x n Gram (per call on one core of a 2-core VM: 0.072 against 0.069 ms dense
# at 4 x 3 and 0.099 against 0.082 ms at 6 x 4, then 0.078 against 0.085 ms at
# 6 x 5 and 0.080 against 0.097 ms at 8 x 5), and a small auxiliary whose
# restarts tie to the last bit keeps the dense path's winner.
MIN_POINTS = 32


@dataclass(frozen=True)
class LatticeProblem:
    """One lattice fit's unit-variance values as the ny x nx array Y, in
    row-major order, the squared differences of each axis's grid values, and
    the fit's ``diagnostics["gram"]``. Calls share it: each forms its own
    arrays, all of them ny x nx or smaller."""

    Y: np.ndarray
    dx2: np.ndarray
    dy2: np.ndarray
    diagnostics: dict

    @classmethod
    def build(cls, lattice: Lattice, values: np.ndarray) -> "LatticeProblem":
        """The problem of the values at the lattice's points, in row-major order."""
        nx, ny = lattice.gx.size, lattice.gy.size
        return cls(
            Y=values.reshape(ny, nx),
            dx2=sq_dists(lattice.gx[:, None], lattice.gx[:, None]),
            dy2=sq_dists(lattice.gy[:, None], lattice.gy[:, None]),
            diagnostics={"path": "lattice", "shape": [nx, ny], "max_snap": lattice.max_snap},
        )

    def nll_and_grad(self, theta: np.ndarray, accept):
        """``gp_aux._nll_and_grad`` on the lattice: the negative log marginal over
        (log alpha, log gamma, log sigma), and its gradient where ``accept(nll)``
        is true, else None.

        In the eigenbasis y is Y~ = Q_Y^T Y Q_X and beta = A^-1 y is B = Y~ / D.
        Every quadratic form in beta and trace against A^-1 is then a sum over
        ny x nx arrays: K's derivative in log gamma is
        alpha^2 (K_Y (x) E_X + E_Y (x) K_X), which the eigenbasis turns into
        alpha^2 (diag ly (x) M_X + M_Y (x) diag lx). FactorizationError where D
        is not positive and finite, as dpotrf fails on a Gram it cannot factor.
        """
        alpha, gamma, sigma = np.exp(theta)
        lx, Qx, Mx = _axis(gamma, self.dx2)
        ly, Qy, My = _axis(gamma, self.dy2)
        a2, jitter = alpha**2, JITTER_REL * alpha**2
        lam = np.multiply.outer(ly, lx)
        D = a2 * lam + (sigma**2 + jitter)
        if not (D.min() > 0 and np.isfinite(D.max())):
            raise FactorizationError("the lattice Gram is not positive definite")
        Yt = Qy.T @ self.Y @ Qx
        B = Yt / D
        nll = float(
            0.5 * np.vdot(Yt, B) + 0.5 * np.log(D).sum() + 0.5 * D.size * np.log(2 * np.pi)
        )
        if not accept(nll):
            return nll, None
        inv_d = 1.0 / D
        bb, tr = np.vdot(B, B), inv_d.sum()
        # beta^T K beta and tr(A^-1 K), each over alpha^2
        kb, k_tr = np.vdot(lam, B * B), np.vdot(lam, inv_d)
        quadratic = np.vdot(ly[:, None] * (B @ Mx), B) + np.vdot((My @ B) * lx, B)
        trace = ly @ inv_d @ Mx.diagonal() + My.diagonal() @ inv_d @ lx
        dll = np.array(
            [
                2.0 * (a2 * kb + jitter * bb - a2 * k_tr - jitter * tr),
                a2 * (quadratic - trace),
                2.0 * sigma**2 * (bb - tr),
            ]
        )
        return nll, -0.5 * dll


def _axis(gamma: float, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues l and eigenvectors Q of one axis's unit-amplitude kernel on
    squared differences d2, and M = Q^T E Q with E = K o d2 / gamma^2."""
    K, E = axis_kernels(gamma, d2)
    Q = K.T  # K is exactly symmetric, and K.T is Fortran-ordered, as dsyev needs
    lam = eigh_in_place(Q)
    return lam, Q, Q.T @ E @ Q
