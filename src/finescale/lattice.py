"""Centroids that form a lattice, and the Kronecker paths of both fits on one.

On a product set gx x gy, ordered row-major with y the slow index, the SE
kernel separates: K = alpha^2 K_Y (x) K_X, where K_X = exp(-dx^2 / 2 gamma^2)
on gx and K_Y likewise on gy (Saatci, PhD thesis, Cambridge 2011). ``detect``
finds such a set. On fine centroids that form one, ``LatticeKernel`` gives the
second step K H^T and H (K o D2 / gamma^2) H^T from nx x nx and ny x ny
factors, for the fit and the refine alike (``downscale._Problem.build``). On
the centroids of an auxiliary of at least MIN_POINTS regions,
``LatticeProblem`` gives its fit's objective from two small symmetric
eigendecompositions per call (``gp_aux._AuxFit.prepare``), and ``posterior``
its posterior at any points from the same eigenbases (``gp_aux.predict_aux``),
with no n x nf array. None of them forms an n x n array. From
MEDIAN_MIN_POINTS points on, ``Lattice.median_distance`` counts the median
distance of both warm starts instead of gathering every pair.
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

# Both warm starts count the median distance of lattice points
# (``Lattice.median_distance``) from this many points on, where the count costs
# about as much as the O(n^2) gather, and gather it below. Count against gather,
# median of 31 alternating calls on one core of a shared 2-core VM, on regular
# axes then on irregular ones: 3.8 against 4.6 and 4.8 against 4.6 ms at
# 24 x 20, 3.8 against 5.6 and 3.2 against 3.0 ms at 30 x 20, 2.4 against 8.5
# and 4.7 against 9.0 ms at 40 x 30, 3.2 against 160 and 13 against 128 ms at
# 80 x 60 (median of 5).
MEDIAN_MIN_POINTS = 600


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

    def median_distance(self) -> float:
        """``gp_aux.median_pairwise_distance`` of the grid points, counted
        instead of gathered: no array of the n(n-1)/2 pairs.

        The squared distance of two grid points is u + v, u an entry of dx2
        and v one of dy2, summed as ``kernel.sq_dists`` sums them. Over the
        n^2 ordered pairs, those at most t are, for each u, a prefix of the
        sorted v, since rounded addition is monotone: ``searchsorted`` finds
        it, and steps of one value either way correct its rounding of t - u.
        A pair's two orders and the n pairs of a point with itself, which sum
        to 0, make the count over the pairs i < j exact. The k-th smallest
        sum is the least t, bisected over the bits of non-negative floats,
        that has more than k sums at most t; the median is then
        ``np.median``'s over the positive sums.
        """
        u, u_counts = np.unique(self.dx2, return_counts=True)
        v, v_counts = np.unique(self.dy2, return_counts=True)
        below = np.concatenate(([0], np.cumsum(v_counts)))
        n = self.order.size

        def count(t: float) -> int:
            """The pairs i < j at squared distance at most t."""
            k = np.searchsorted(v, t - u, side="right")
            while (over := (k > 0) & (u + v[k - 1] > t)).any():
                k -= over
            while (under := (k < v.size) & (u + v[np.minimum(k, v.size - 1)] <= t)).any():
                k += under
            return (int(u_counts @ below[k]) - n) // 2

        def smallest(rank: int) -> float:
            """The squared distance of the rank-th pair, from 0, in ascending order."""
            lo, hi = 0, int(np.float64(u[-1] + v[-1]).view(np.int64))
            while lo < hi:
                mid = (lo + hi) // 2
                if count(float(np.int64(mid).view(np.float64))) > rank:
                    hi = mid
                else:
                    lo = mid + 1
            return float(np.int64(lo).view(np.float64))

        zeros = count(0.0)
        positive = n * (n - 1) // 2 - zeros
        if positive == 0:
            return 1.0
        k = zeros + (positive - 1) // 2
        median = smallest(k)
        if positive % 2 == 0:
            median = (median + smallest(k + 1)) / 2
        return float(np.sqrt(median))


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
        alpha^2 (diag ly (x) M_X + M_Y (x) diag lx). FactorizationError from
        ``_spectrum``.
        """
        alpha, gamma, sigma = np.exp(theta)
        dx2, dy2 = self.lattice.dx2, self.lattice.dy2
        (lx, Qx, Kx), (ly, Qy, Ky), lam, D = _spectrum(self.lattice, alpha, gamma, sigma)
        a2, jitter = alpha**2, JITTER_REL * alpha**2
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


@dataclass(frozen=True)
class LatticeReduction:
    """R = K*^T A^-1 K* of an auxiliary fit on a lattice, at nf points, where
    K* = K(X, Xf) and A = K + (sigma^2 + jitter) I: the posterior covariance
    is k(Xf, Xf) - R. In the eigenbasis of A, K* is G with
    G[(p, q), t] = Py[p, t] Px[q, t], Px = alpha Q_X^T k_X(gx, xf) (nx x nf)
    and Py likewise, so R = G^T diag(1/D) G. ``subtract_times`` forms G one
    block of rows at a time, ``matrix`` the whole of it when it is read."""

    Py: np.ndarray
    Px: np.ndarray
    D: np.ndarray

    def subtract_times(self, M: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out - R M in place in out, for an nf x m M: the sum over blocks
        G_b of G's rows of G_b^T ((G_b M) / D_b), since diag(1/D) splits
        over them. A block holds the nx rows of as many p as keep it no
        larger than M, and of one p at least: so it adds at most one array
        of M's size, and a wide M, whose every block costs a pass over an
        nf x m array, takes fewer blocks."""
        (ny, nx), nf = self.D.shape, self.Px.shape[1]
        step = max(1, M.shape[1] // nx)
        for p in range(0, ny, step):
            G = (self.Py[p : p + step, None, :] * self.Px).reshape(-1, nf)
            GM = G @ M
            GM /= self.D[p : p + step].reshape(-1, 1)
            out -= G.T @ GM
        return out

    def matrix(self) -> np.ndarray:
        """R as a dense nf x nf array, exactly symmetric: W^T W with W = D^-1/2 G."""
        n, nf = self.D.size, self.Px.shape[1]
        W = (self.Py[:, None, :] * self.Px[None, :, :]).reshape(n, nf)
        W /= np.sqrt(self.D).reshape(n, 1)
        return W.T @ W


def posterior(
    lattice: Lattice, alpha: float, gamma: float, sigma: float, Y: np.ndarray, Xt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, LatticeReduction]:
    """K*^T A^-1 y, diag R and R (``LatticeReduction``) at the points Xt for
    the fit of the centred values Y, ny x nx in row-major order, on the
    lattice: ``gp_aux.predict_aux`` on it.

    With B = Q_Y^T Y Q_X / D, K*^T A^-1 y = colsum(Py o (B Px)) and
    diag R = colsum(Py^2 o ((1/D) Px^2)). FactorizationError from ``_spectrum``.
    """
    (_, Qx, _), (_, Qy, _), _, D = _spectrum(lattice, alpha, gamma, sigma)
    Px = alpha * (Qx.T @ se_from_sq_dists(1.0, gamma, sq_dists(lattice.gx[:, None], Xt[:, [0]])))
    Py = alpha * (Qy.T @ se_from_sq_dists(1.0, gamma, sq_dists(lattice.gy[:, None], Xt[:, [1]])))
    B = Qy.T @ Y @ Qx / D
    fit = np.einsum("pt,pt->t", Py, B @ Px)
    explained = np.einsum("pt,pt->t", Py * Py, (1.0 / D) @ (Px * Px))
    return fit, explained, LatticeReduction(Py, Px, D)


def _spectrum(lattice: Lattice, alpha: float, gamma: float, sigma: float):
    """Each axis's ``_axis`` on the lattice, lam = ly (x) lx, and D, the
    eigenvalues alpha^2 lam + sigma^2 + jitter of the Gram K + (sigma^2 + jitter) I
    as an ny x nx array. FactorizationError where D is not positive and
    finite, as dpotrf fails on a Gram it cannot factor."""
    (lx, Qx, Kx), (ly, Qy, Ky) = _axis(gamma, lattice.dx2), _axis(gamma, lattice.dy2)
    lam = np.multiply.outer(ly, lx)
    D = alpha**2 * lam + (sigma**2 + JITTER_REL * alpha**2)
    if not (D.min() > 0 and np.isfinite(D.max())):
        raise FactorizationError("the lattice Gram is not positive definite")
    return (lx, Qx, Kx), (ly, Qy, Ky), lam, D


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
