"""Finite-difference stencil tables with analytic elimination of y-direction ghosts.

All operators are centred and second-order.  `x_table` and `y_table` give
the nodes each row of node arrays ``(i, j)`` reads; `assembly` scales their
weights and writes its rows from them through `table_csr`.

On the field-line boundaries (y = 0, y = 1, and y = l above the limiter)
the conditions d_y phi = 0 and d_y^3 phi = 0 close the stencils: the
first, centred, gives the mirror phi[-1] = phi[1]; combining it with the
centred four-point third difference
(phi[2] - 2 phi[1] + 2 phi[-1] - phi[-2]) / (2 dy^3) = 0 gives
phi[-2] = phi[2].  So a column with rows jb .. jt is closed by reflecting
every target row of the interior stencils (1, -2, 1) and (1, -4, 6, -4, 1)
into it, j -> 2 jb - j below and j -> 2 jt - j above.  The folded wall
rows follow:

    d''   at the wall: (-2, 2) / dy^2
    d'''' at the wall: (6, -8, 2) / dy^4,  one row in: (-4, 7, -4, 1) / dy^4

and their mirror images at the top.  A column has at least five rows, so
`y_table` folds every reflected target into one of five slots, y-offsets
-2 .. 2; a slot outside the column keeps weight 0.  The integer weights
are summed before the scaling by 1/dy^2 or 1/dy^4.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from .geometry import Grid

DX = np.array([-1.0, 0.0, 1.0])  # first x-difference on the x table, times 1 / (2 dx)
DXX = np.array([1.0, -2.0, 1.0])  # second x-difference on the x table, times 1 / dx^2


def _folded(weights) -> np.ndarray:
    """[a, b, 2 + d]: the weight at y-offset d once ``weights`` (offsets -2 .. 2) are reflected
    into a column whose bottom and top rows are a and b rows from the node (2: two or more)."""
    out = np.zeros((3, 3, 5))
    for a, b, slot in np.ndindex(3, 3, 5):
        d = slot - 2
        out[a, b, 2 + (-2 * a - d if d < -a else 2 * b - d if d > b else d)] += weights[slot]
    return out


_DYY = _folded((0.0, 1.0, -2.0, 1.0, 0.0))
_DYYYY = _folded((1.0, -4.0, 6.0, -4.0, 1.0))


def mirror_dyy(ny: int) -> sps.csr_matrix:
    """Unscaled second y-difference on a column of ny rows, mirror-closed.

    Rows (1, -2, 1) inside and (-2, 2) at the walls; its square carries the
    folded fourth-difference rows (6, -8, 2) and (-4, 7, -4, 1).
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
    and the folded unscaled weights of the second and fourth y-differences there."""
    i, j = _nodes(i, j)
    jb, jt = grid.column_extent(i)
    near = np.minimum(j - jb, 2), np.minimum(jt - j, 2)
    column = np.clip(j[:, None] + np.arange(-2, 3), jb[:, None], jt)
    return grid.ordinal(i[:, None], column), _DYY[near], _DYYYY[near]


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
