"""Centroids that form a lattice, and the Kronecker paths of both fits on one.

On a product set gx x gy, ordered row-major with y the slow index, the SE
kernel separates: K = alpha^2 K_Y (x) K_X, where K_X = exp(-dx^2 / 2 gamma^2)
on gx and K_Y likewise on gy (Saatci, PhD thesis, Cambridge 2011). ``detect``
finds such a set. On fine centroids that form one, ``LatticeKernel`` gives the
second step K H^T and H (K o D2 / gamma^2) H^T from nx x nx and ny x ny
factors, for the fit and the refine alike (``downscale._Problem.build``). On
the centroids of an auxiliary of at least MIN_POINTS regions,
``LatticeProblem`` gives its fit's objective from two small symmetric
eigendecompositions per call (``gp_aux._AuxFit.prepare``). Neither forms an
n x n array; ``predict_aux`` factors the dense Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finescale.kernel import JITTER_REL, se_from_sq_dists, sq_dists
from finescale.numerics import FactorizationError, eigh_in_place

# A coordinate within SNAP_REL times its axis's smallest grid spacing of a
# grid value snaps to it. Centroids read from GeoJSON sit off their grid where
# the shoelace formula leaves them: up to 2.4e-11 of a cell on an 80 x 60 grid
# and 1.8e-10 on a 160 x 120 one.
SNAP_REL = 1e-9

# An auxiliary fit takes the Kronecker objective from this many points on.
# Below it the two eigendecompositions cost no less than one Cholesky of the
# n x n Gram (per call on one core of a 2-core VM: 0.072 against 0.069 ms dense
# at 4 x 3 and 0.099 against 0.082 ms at 6 x 4, then 0.078 against 0.085 ms at
# 6 x 5 and 0.080 against 0.097 ms at 8 x 5), and a small auxiliary whose
# restarts tie to the last bit keeps the dense path's winner.
MIN_POINTS = 32


@dataclass(frozen=True)
class Lattice:
    """Points on the product set gx x gy, both ascending: ``order`` lists the
    points in row-major order, y the slow index, and ``cells`` is its inverse,
    each point's row-major index. dx2 and dy2 are the squared differences of
    gx and of gy, and ``max_snap`` is the largest distance by which a
    coordinate moved onto its grid value."""

    gx: np.ndarray
    gy: np.ndarray
    order: np.ndarray
    cells: np.ndarray
    dx2: np.ndarray
    dy2: np.ndarray
    max_snap: float

    @property
    def diagnostics(self) -> dict:
        """The ``diagnostics["gram"]`` of a fit on the lattice."""
        return {"path": "lattice", "shape": [self.gx.size, self.gy.size], "max_snap": self.max_snap}


def _snap_axis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The grid values of the coordinates v, ascending, each coordinate's index
    among them, and the largest snap; None unless v takes at least two values
    and each coordinate is within SNAP_REL of the smallest spacing of its value.

    In sorted order a new value starts at every gap above SNAP_REL times the
    largest gap; a value is the middle coordinate of its run, so a coordinate
    that is on the grid keeps its bits.
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    gaps = np.diff(s)
    if not gaps.size or not gaps.max() > 0:
        return None
    runs = np.concatenate(([0], np.cumsum(gaps > SNAP_REL * gaps.max())))
    counts = np.bincount(runs)
    grid = s[np.cumsum(counts) - counts + (counts - 1) // 2]
    snap = float(np.abs(s - grid[runs]).max())
    if not snap <= SNAP_REL * np.diff(grid).min():  # also false on a nan
        return None
    index = np.empty_like(runs)
    index[order] = runs
    return grid, index, snap


def detect(X) -> Lattice | None:
    """The lattice the 2-D points X lie on, or None: unless every axis has at
    least two grid values and the points fill the product set once each."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        return None
    axes = [_snap_axis(X[:, k]) for k in (0, 1)]
    if None in axes:
        return None
    (gx, ix, snap_x), (gy, iy, snap_y) = axes
    n = len(X)
    if gx.size * gy.size != n:
        return None
    cells = iy * gx.size + ix
    if np.bincount(cells, minlength=n).max() != 1:  # a point twice, so a cell empty
        return None
    order = np.empty(n, dtype=np.intp)
    order[cells] = np.arange(n)
    return Lattice(
        gx=gx,
        gy=gy,
        order=order,
        cells=cells,
        dx2=sq_dists(gx[:, None], gx[:, None]),
        dy2=sq_dists(gy[:, None], gy[:, None]),
        max_snap=max(snap_x, snap_y),
    )


@dataclass(frozen=True)
class LatticeKernel:
    """The second step's fine kernel K = alpha^2 K_Y (x) K_X on fine centroids
    that form a lattice, applied to H^T, with no nf x nf array.

    Hl is H with its columns in the lattice's row-major order, H itself where
    the regions come in that order, as on every grid the package builds;
    ``cells`` gives each region's column of Hl, None then. Row c of Hl, seen
    as the ny x nx array H_c, has K h_c = K_Y H_c K_X: K_X on the x axis of
    every H_c in one product, K_Y on their y axes, O(nc nf (nx + ny)) work.
    Calls share it: each forms its own arrays, nc x nf or smaller.
    """

    lattice: Lattice
    Hl: np.ndarray
    cells: np.ndarray | None

    @classmethod
    def build(cls, lattice: Lattice, H: np.ndarray) -> "LatticeKernel":
        """The kernel of fine centroids on the lattice, for the nc x nf H."""
        if np.array_equal(lattice.order, np.arange(lattice.order.size)):
            return cls(lattice, H, None)
        return cls(lattice, H[:, lattice.order], lattice.cells)

    @property
    def diagnostics(self) -> dict:
        return self.lattice.diagnostics

    @property
    def flops(self) -> int:
        """About the work of one ``at`` call: nc nf (nx + ny) for each of K H^T and H E."""
        nc, nf = self.Hl.shape
        return 2 * nc * nf * (self.lattice.gx.size + self.lattice.gy.size)

    def for_search(self) -> "LatticeKernel":
        return self

    def for_thread(self) -> "LatticeKernel":
        return self

    def times(self, kernels) -> list[np.ndarray]:
        """k(Xf, Xf) H^T for each SEKernelParams, by the routine the fit's objective runs."""
        return [self.at(params.alpha, params.gamma)[0] for params in kernels]

    def at(self, alpha: float, gamma: float):
        """K H^T at (alpha, gamma), and a function of no arguments that gives
        H (K o D2 / gamma^2) H^T. That is alpha^2 H (K_Y (x) E_X + E_Y (x) K_X) H^T,
        E = K o d2 / gamma^2 on each axis, whose row c is
        K_Y H_c E_X + E_Y (H_c K_X): it reuses H_c K_X."""
        dx2, dy2 = self.lattice.dx2, self.lattice.dy2
        (kx, ex), (ky, ey) = axis_kernels(gamma, dx2), axis_kernels(gamma, dy2)
        nc, nf = self.Hl.shape
        ny, nx = len(dy2), len(dx2)
        HKx = (self.Hl.reshape(nc * ny, nx) @ kx).reshape(nc, ny, nx)
        HK = np.matmul(ky, HKx).reshape(nc, nf)  # the rows of H K, in lattice order
        KHt = (HK if self.cells is None else HK[:, self.cells]).T
        KHt *= alpha**2

        def scaled() -> np.ndarray:
            HE = np.matmul(ky, (self.Hl.reshape(nc * ny, nx) @ ex).reshape(nc, ny, nx))
            HE += np.matmul(ey, HKx)
            HEHt = self.Hl @ HE.reshape(nc, nf).T
            HEHt *= alpha**2
            return HEHt

        return KHt, scaled


@dataclass(frozen=True)
class LatticeProblem:
    """One auxiliary fit on a lattice: its unit-variance values as the ny x nx
    array Y, in row-major order.

    With K_X = Q_X diag(lx) Q_X^T and K_Y the same, the Gram K + c I,
    c = sigma^2 + jitter, is (Q_Y (x) Q_X) diag(D) (Q_Y (x) Q_X)^T with
    D = alpha^2 ly (x) lx + c. Calls share it: each forms its own arrays, all
    of them ny x nx or smaller.
    """

    lattice: Lattice
    Y: np.ndarray

    @property
    def diagnostics(self) -> dict:
        return self.lattice.diagnostics

    @property
    def flops(self) -> int:
        """About the work of one call: two dsyev calls, about 9 n^3 each, and
        the rotations of E and Y into the eigenbasis."""
        ny, nx = self.Y.shape
        return 11 * (nx**3 + ny**3) + nx * ny * (nx + ny)

    def for_thread(self) -> "LatticeProblem":
        return self

    def nll_and_grad(self, theta: np.ndarray, accept):
        """``gp_aux._AuxProblem.nll_and_grad`` on the lattice: the negative log
        marginal over (log alpha, log gamma, log sigma), and its gradient where
        ``accept(nll)`` is true, else None.

        In the eigenbasis y is Y~ = Q_Y^T Y Q_X and beta = A^-1 y is B = Y~ / D.
        Every quadratic form in beta and trace against A^-1 is then a sum over
        ny x nx arrays: K's derivative in log gamma is
        alpha^2 (K_Y (x) E_X + E_Y (x) K_X), which the eigenbasis turns into
        alpha^2 (diag ly (x) M_X + M_Y (x) diag lx). FactorizationError where D
        is not positive and finite, as dpotrf fails on a Gram it cannot factor.
        """
        alpha, gamma, sigma = np.exp(theta)
        dx2, dy2 = self.lattice.dx2, self.lattice.dy2
        (lx, Qx, Kx), (ly, Qy, Ky) = _axis(gamma, dx2), _axis(gamma, dy2)
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
        Mx, My = _rotated(gamma, dx2, Qx, Kx), _rotated(gamma, dy2, Qy, Ky)
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


def axis_kernels(gamma: float, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One axis's unit-amplitude kernel K on squared differences d2, and E = K o d2 / gamma^2."""
    K = se_from_sq_dists(1.0, gamma, d2)
    E = K * d2
    E /= gamma**2
    return K, E


def _axis(gamma: float, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Eigenvalues l and eigenvectors Q of one axis's unit-amplitude kernel K on
    squared differences d2, and K; None for K where it is the identity, its
    exponentials off the diagonal underflowed with gamma far below the
    spacing: there l = 1 and Q = I, dsyev's values, without the call."""
    K = se_from_sq_dists(1.0, gamma, d2)
    n = len(K)
    if np.count_nonzero(K) == n:  # the diagonal is exp(0) = 1
        return np.ones(n), np.eye(n), None
    Q = K.copy().T  # K is exactly symmetric, and K.T is Fortran-ordered, as dsyev needs
    return eigh_in_place(Q), Q, K


def _rotated(gamma: float, d2: np.ndarray, Q: np.ndarray, K: np.ndarray | None) -> np.ndarray:
    """M = Q^T E Q, E = K o d2 / gamma^2, from what ``_axis`` gave; zero where K is the identity."""
    if K is None:
        return np.zeros(Q.shape)
    return Q.T @ (K * d2 / gamma**2) @ Q
