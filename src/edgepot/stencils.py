"""Finite-difference stencil tables; the y-differences are the finite-volume rule of the cell mask.

All operators are centred and second-order.  `x_table` and `y_table` give
the nodes each row of node arrays ``(i, j)`` reads; `assembly` scales their
weights and writes its rows from them through `table_csr`.

A node with b plasma cells below it and a above it (`Grid.cell_counts`)
has area (b + a) / 4 and y-faces b / 2 and a / 2 cells wide, so the flux
difference over the area is d2 = 2 (b, -(b + a), a) / (b + a) / dy^2 at
y-offsets -1 .. 1: (1, -2, 1) inside and (-2, 2) at a wall, the closure
d_y phi = 0.  The fourth difference d4 = d2 o d2 along the column gives
(6, -8, 2) and (-4, 7, -4, 1) at and next to a wall, the closure
d_y^3 phi = 0.  In full geometry one override keeps d2 = (1, -2, 1) at the
limiter corners (I1, j_l) and (I2, j_l), where the half-wide face below
gives (2/3, -2, 4/3); the composition carries it into d4 on rows
j_l - 1 .. j_l + 1 of their columns.

The x-difference keeps `DXX` on the stored ghost columns: the ghost-point
face closure is the mask's half cell only once the flux-match and sheath
rows eliminate the ghosts, so an x stencil from the mask would change the
matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from .geometry import Grid

DX = np.array([-1.0, 0.0, 1.0])  # first x-difference on the x table, times 1 / (2 dx)
DXX = np.array([1.0, -2.0, 1.0])  # second x-difference on the x table, times 1 / dx^2


def mirror_dyy(ny: int) -> sps.csr_matrix:
    """Unscaled second y-difference on a column of ny rows, mirror-closed.

    The mask's d2 on a strip column: rows (1, -2, 1) inside and (-2, 2) at
    the walls; its square carries the wall rows (6, -8, 2) and (-4, 7, -4, 1).
    """
    upper, lower = np.ones(ny - 1), np.ones(ny - 1)
    upper[0] = lower[-1] = 2.0
    return sps.diags([lower, np.full(ny, -2.0), upper], [-1, 0, 1], format="csr")


def _nodes(i, j):
    return np.broadcast_arrays(*np.atleast_1d(i, j))


def x_table(grid: Grid, i, j) -> np.ndarray:
    """(n, 3) ordinals of each node's left, centre and right nodes; periodic wrap on band rows."""
    i, j = _nodes(i, j)
    return grid.ordinal(i[:, None] + np.arange(-1, 2), j[:, None])


def y_table(grid: Grid, i, j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ordinals, d2, d4), each (n, 5): the nodes at y-offsets -2 .. 2, clipped to the column,
    and the unscaled weights of the second and fourth y-differences there."""
    i, j = _nodes(i, j)
    jb, jt = grid.column_extent(i)
    column = grid.ordinal(i[:, None], np.clip(j[:, None] + np.arange(-2, 3), jb[:, None], jt))
    rows = column[:, 1:4].T  # rows j - 1 .. j + 1, node axis last
    below, above = np.take(grid.cell_counts, rows, axis=1)
    if grid.mode == "full":
        # The override: the limiter corners (I1, j_l) and (I2, j_l) read the half-wide face below
        # them as full, so their d2 keeps (1, -2, 1), not the mask's (2/3, -2, 4/3).  The
        # finite-volume corner rows of ROADMAP item 1 delete it.
        below = np.where(np.isin(rows, grid.ordinal([grid.I1, grid.I2], grid.j_l)), above, below)
    near = 2 * np.stack([below, -(below + above), above]) / (below + above)  # [offset, row, node]
    d2, d4 = np.zeros((5, len(j))), np.zeros((5, len(j)))
    d2[1:4] = near[:, 1]
    for m in range(3):  # row j - 1 + m's d2, times the node's own weight at offset m - 1
        d4[m : m + 3] += near[m, 1] * near[:, m]
    return column, d2.T, d4.T


def table_csr(shape, kinds) -> sps.csr_matrix:
    """CSR matrix with ``weights[r]`` in the columns ``cols[r]`` of row ``rows[r]``, zeros dropped,
    for each row kind (rows, cols, weights) in ``kinds``, cols (len(rows), width)."""
    n, width = shape[0], max(cols.shape[1] for _, cols, _ in kinds)
    index, data = np.zeros((n, width), dtype=np.int32), np.zeros((n, width))
    for rows, cols, weights in kinds:
        index[rows, : cols.shape[1]] = cols
        data[rows, : cols.shape[1]] = weights
    m = sps.csr_matrix((data.ravel(), index.ravel(), np.arange(n + 1) * width), shape=shape)
    m.eliminate_zeros()  # padding, slots outside a column, zero stencil centres, eta = 0 terms
    m.sort_indices()  # the tables list columns in order except across the periodic seam
    return m
