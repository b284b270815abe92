"""Finite-difference rows with analytic elimination of y-direction ghosts.

All operators are centred and second-order.  Each function takes node
arrays ``(i, j)`` (or one node) and returns a ``csr_matrix`` with one row
per node and ``grid.N`` columns, the unknowns of ``field``.

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

and their mirror images at the top.  The integer weights are summed
before the scaling by 1/dy^2 or 1/dy^4.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from .geometry import Grid


def mirror_dyy(ny: int) -> sps.csr_matrix:
    """Unscaled second y-difference on a column of ny rows, mirror-closed.

    Rows (1, -2, 1) inside and (-2, 2) at the walls; its square carries the
    folded fourth-difference rows (6, -8, 2) and (-4, 7, -4, 1).
    """
    upper, lower = np.ones(ny - 1), np.ones(ny - 1)
    upper[0] = lower[-1] = 2.0
    return sps.diags([lower, np.full(ny, -2.0), upper], [-1, 0, 1], format="csr")


def _rows(grid: Grid, field: int, cols_i, cols_j, weights, scale: float) -> sps.csr_matrix:
    """Row r = scale * sum_t weights[t] u[slot(field, cols_i[t][r], cols_j[t][r])]."""
    cols = grid.slot(field, np.stack(cols_i), np.stack(cols_j))
    w = np.broadcast_to(np.asarray(weights, dtype=float)[:, None], cols.shape)
    rows = np.broadcast_to(np.arange(cols.shape[1]), cols.shape)
    m = sps.csr_matrix((w.ravel(), (rows.ravel(), cols.ravel())), shape=(cols.shape[1], grid.N))
    m.sum_duplicates()
    return m * scale


def _nodes(i, j):
    return np.broadcast_arrays(*np.atleast_1d(i, j))


def dx_central_row(grid: Grid, field: int, i, j) -> sps.csr_matrix:
    """First x-derivative, centred: (-1, +1) / (2 dx) at (i-1, i+1)."""
    i, j = _nodes(i, j)
    left, right = grid.x_neighbors(i, j)
    return _rows(grid, field, (left, right), (j, j), (-1.0, 1.0), 1.0 / (2.0 * grid.dx))


def dxx_row(grid: Grid, field: int, i, j) -> sps.csr_matrix:
    """Second x-derivative, centred: (1, -2, 1) / dx^2; periodic wrap on band rows."""
    i, j = _nodes(i, j)
    left, right = grid.x_neighbors(i, j)
    return _rows(grid, field, (left, i, right), (j, j, j), (1.0, -2.0, 1.0), 1.0 / grid.dx**2)


def _reflected(grid: Grid, field: int, i, j, weights, scale: float) -> sps.csr_matrix:
    """Centred y-stencil ``weights`` with targets outside the column mirrored into it."""
    jb, jt = grid.column_extent(i)
    half = len(weights) // 2
    targets = [j + d for d in range(-half, half + 1)]
    targets = [np.where(t < jb, 2 * jb - t, np.where(t > jt, 2 * jt - t, t)) for t in targets]
    return _rows(grid, field, [i] * len(weights), targets, weights, scale)


def dyy_row(grid: Grid, field: int, i, j) -> sps.csr_matrix:
    """Second y-derivative with the mirror closure on the field-line walls."""
    i, j = _nodes(i, j)
    return _reflected(grid, field, i, j, (1.0, -2.0, 1.0), 1.0 / grid.dy**2)


def dyyyy_row(grid: Grid, field: int, i, j) -> sps.csr_matrix:
    """Fourth y-derivative with the two-ghost mirror closure on the walls."""
    i, j = _nodes(i, j)
    return _reflected(grid, field, i, j, (1.0, -4.0, 6.0, -4.0, 1.0), 1.0 / grid.dy**4)
