"""Fine or auxiliary centroids that form a lattice, and the fine kernel on one.

On a product set gx x gy, ordered row-major with y the slow index, the SE
kernel separates: K = alpha^2 K_Y (x) K_X, where K_X = exp(-dx^2 / 2 gamma^2)
on gx and K_Y likewise on gy (Saatci, PhD thesis, Cambridge 2011). ``detect``
finds such a set. On fine centroids that form one, ``LatticeKernel`` gives the
second step K H^T and H (K o D2 / gamma^2) H^T from nx x nx and ny x ny
factors, for the fit and the refine alike (``downscale._Problem.build``
imports this module for it). An auxiliary fit on a lattice takes its
objective from ``lattice_aux``, which only the fits import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from finescale.kernel import se_from_sq_dists, sq_dists

# A coordinate within SNAP_REL times its axis's smallest grid spacing of a
# grid value snaps to it. Centroids read from GeoJSON sit off their grid where
# the shoelace formula leaves them: up to 2.4e-11 of a cell on an 80 x 60 grid
# and 1.8e-10 on a 160 x 120 one.
SNAP_REL = 1e-9


@dataclass(frozen=True)
class Lattice:
    """Points on the product set gx x gy, both ascending: ``order`` lists the
    points in row-major order, y the slow index, and ``max_snap`` is the
    largest distance by which a coordinate moved onto its grid value."""

    gx: np.ndarray
    gy: np.ndarray
    order: np.ndarray
    max_snap: float


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
    return Lattice(gx=gx, gy=gy, order=order, max_snap=max(snap_x, snap_y))


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

    Hl: np.ndarray
    cells: np.ndarray | None
    dx2: np.ndarray
    dy2: np.ndarray
    diagnostics: dict

    @classmethod
    def build(cls, lattice: Lattice, H: np.ndarray) -> "LatticeKernel":
        """The kernel of fine centroids on the lattice, for the nc x nf H."""
        nx, ny = lattice.gx.size, lattice.gy.size
        in_order = np.array_equal(lattice.order, np.arange(lattice.order.size))
        cells = None
        if not in_order:
            cells = np.empty_like(lattice.order)
            cells[lattice.order] = np.arange(cells.size)
        return cls(
            Hl=H if in_order else H[:, lattice.order],
            cells=cells,
            dx2=sq_dists(lattice.gx[:, None], lattice.gx[:, None]),
            dy2=sq_dists(lattice.gy[:, None], lattice.gy[:, None]),
            diagnostics={"path": "lattice", "shape": [nx, ny], "max_snap": lattice.max_snap},
        )

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
        (kx, ex), (ky, ey) = axis_kernels(gamma, self.dx2), axis_kernels(gamma, self.dy2)
        nc, nf = self.Hl.shape
        ny, nx = len(self.dy2), len(self.dx2)
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


def axis_kernels(gamma: float, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One axis's unit-amplitude kernel K on squared differences d2, and E = K o d2 / gamma^2."""
    K = se_from_sq_dists(1.0, gamma, d2)
    E = K * d2
    E /= gamma**2
    return K, E
