import numpy as np
import pytest
import scipy.sparse as sps

from edgepot.errors import EdgepotError
from edgepot.geometry import PHI, Q, DiscConfig, PhysConfig, build_grid, config_violations
from edgepot.stencils import DX, DXX, mirror_dyy, table_csr, x_table, y_table


def strip_grid(dx=0.1, dy=0.1):
    return build_grid(
        PhysConfig(eta=1e-3), DiscConfig(dx=dx, dy=dy, dt=1e-3, mode="strip")
    )


def full_grid(dx=0.05, dy=0.05, l=0.5):
    return build_grid(
        PhysConfig(eta=1e-3, limiter_height=l),
        DiscConfig(dx=dx, dy=dy, dt=1e-3, mode="full"),
    )


def nodes(grid, ordinals, weights):
    """Map node (i, j) -> weight of one table row; a repeated node's weights summed, zeros dropped."""
    out = {}
    for k, w in zip(ordinals, weights):
        node = tuple(int(v) for v in grid.phi_nodes[k])
        out[node] = out.get(node, 0.0) + w
    return {node: w for node, w in out.items() if w != 0.0}


def x_row(grid, i, j):
    return x_table(grid, i, j)[0]


def y_row(grid, i, j):
    """(ordinals, d2, d4) of the single node (i, j)."""
    return tuple(part[0] for part in y_table(grid, i, j))


# ---- first and second x-differences ------------------------------------


def test_dx_central_interior_coefficients():
    grid = strip_grid(dx=0.1)
    assert nodes(grid, x_row(grid, 3, 2), DX) == {(2, 2): -1.0, (4, 2): 1.0}


def test_dx_central_at_face_references_ghost():
    grid = strip_grid()
    row = nodes(grid, x_row(grid, grid.I1, 4), DX)
    assert (grid.I1 - 1, 4) in row  # the stored ghost column
    assert (grid.I1 + 1, 4) in row


def test_dx_central_annihilates_x_constants():
    grid = strip_grid()
    _, y = grid.node_coords()
    assert DX @ y[x_row(grid, 2, 3)] == 0.0


def test_dx_missing_neighbor_on_ghost():
    grid = strip_grid()
    with pytest.raises(EdgepotError, match="not a stored node"):
        x_table(grid, grid.I1 - 1, 0)


def test_dxx_coefficients():
    grid = build_grid(
        PhysConfig(eta=1e-3, L=0.25),
        DiscConfig(dx=0.5, dy=0.1, dt=1e-3, mode="strip"),
    )
    assert nodes(grid, x_row(grid, 0, 2), DXX) == {(-1, 2): 1.0, (0, 2): -2.0, (1, 2): 1.0}


def test_dxx_exact_on_quadratics():
    grid = strip_grid(dx=0.05)
    x, _ = grid.node_coords()
    assert DXX @ x[x_row(grid, 5, 3)] ** 2 / grid.dx**2 == pytest.approx(2.0, abs=1e-10)


def test_dxx_periodic_wrap_converges_on_band():
    # seam row: apply to cos(2 pi x), compare with -4 pi^2 cos(2 pi x)
    errs = []
    for dx in (0.05, 0.025):
        grid = full_grid(dx=dx)
        x, _ = grid.node_coords()
        u = np.cos(2 * np.pi * x)
        row = x_row(grid, 0, grid.Ny - 2)  # the seam column wraps
        exact = -4 * np.pi**2 * np.cos(2 * np.pi * grid.x(0))
        errs.append(abs(DXX @ u[row] / grid.dx**2 - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def _stencil_nodes(grid):
    """Every plasma node, plus the seam twin x = +0.5 on the band rows."""
    i, j = grid.phi_nodes[grid.plasma_ordinals].T
    if grid.mode == "full":
        band = np.arange(grid.j_l, grid.Ny)
        i = np.r_[i, np.full(len(band), grid.n_band_cols)]
        j = np.r_[j, band]
    return i, j


def _x_operator(weights):
    def rows(grid, i, j):
        ordinals = x_table(grid, i, j)
        return ordinals, np.broadcast_to(weights, ordinals.shape)

    return rows


def _y_operator(part):
    def rows(grid, i, j):
        ordinals, *weights = y_table(grid, i, j)
        return ordinals, weights[part]

    return rows


# The four difference operators as (ordinals, unscaled weights) rows of the two tables.
OPERATORS = {
    "dx_central_row": _x_operator(DX),
    "dxx_row": _x_operator(DXX),
    "dyy_row": _y_operator(0),
    "dyyyy_row": _y_operator(1),
}


@pytest.mark.parametrize("grid_kind", ["strip", "full", "full_I1_is_1"])
@pytest.mark.parametrize("field", [PHI, Q])
@pytest.mark.parametrize("operator", OPERATORS)
def test_array_call_matches_single_node_calls(grid_kind, field, operator):
    grid = {
        "strip": strip_grid,
        "full": full_grid,
        "full_I1_is_1": lambda: full_grid(dx=0.1, dy=0.1),
    }[grid_kind]()
    i, j = _stencil_nodes(grid)
    if grid.mode == "full":
        # band rows, seam column 0 and its twin, a column above the limiter only
        assert (j >= grid.j_l).any() and (i == 0).any() and (i == grid.n_band_cols).any()
        assert (i == grid.I1 - 1).any()

    def rows(*node):
        """The table rows of the nodes and their CSR form on the field's slots."""
        ordinals, weights = OPERATORS[operator](grid, *node)
        n = len(ordinals)
        slots = grid.slot(field, *np.moveaxis(grid.phi_nodes[ordinals], -1, 0))
        return ordinals, weights, table_csr((n, grid.N), [(np.arange(n), slots, weights)])

    singles = [rows(a, b) for a, b in zip(i, j)]
    ordinals, weights, together = rows(i, j)
    assert ordinals.shape[0] == weights.shape[0] == together.shape[0] == len(i)
    assert np.array_equal(ordinals, np.concatenate([s[0] for s in singles]))
    assert np.array_equal(weights, np.concatenate([s[1] for s in singles]))
    stacked = sps.vstack([s[2] for s in singles]).tocsr()
    assert together.shape == stacked.shape == (len(i), grid.N)
    assert np.array_equal(together.toarray(), stacked.toarray())


# ---- y-differences with wall closures -----------------------------------


def test_dyy_interior_and_wall_coefficients():
    grid = strip_grid(dy=0.25)
    ordinals, d2, _ = y_row(grid, 2, 2)
    assert nodes(grid, ordinals, d2) == {(2, 1): 1.0, (2, 2): -2.0, (2, 3): 1.0}
    ordinals, d2, _ = y_row(grid, 2, 0)
    assert nodes(grid, ordinals, d2) == {(2, 0): -2.0, (2, 1): 2.0}
    ordinals, d2, _ = y_row(grid, 2, grid.Ny - 1)
    assert nodes(grid, ordinals, d2)[(2, grid.Ny - 2)] == 2.0


def test_dyy_annihilates_constants():
    grid = strip_grid()
    u = np.ones(len(grid.phi_nodes))
    for j in (0, 1, 5, grid.Ny - 1):
        ordinals, d2, _ = y_row(grid, 3, j)
        assert d2 @ u[ordinals] == 0.0


def test_dyyyy_coefficients():
    grid = strip_grid(dy=0.25)

    def d4_at(j):
        ordinals, _, d4 = y_row(grid, 2, j)
        row = nodes(grid, ordinals, d4)
        return [row.get((2, jj), 0.0) for jj in range(grid.Ny)]

    assert d4_at(2) == [1.0, -4.0, 6.0, -4.0, 1.0]
    assert d4_at(0) == [6.0, -8.0, 2.0, 0.0, 0.0]
    assert d4_at(1) == [-4.0, 7.0, -4.0, 1.0, 0.0]
    assert d4_at(4) == [0.0, 0.0, 2.0, -8.0, 6.0]


def test_dyyyy_matches_explicit_ghost_elimination():
    """Oracle: widen the column with explicit ghosts, substitute the mirrors.

    On the wall the interior 5-point stencil reads
    (g2, g1, f0, f1, f2) = (1, -4, 6, -4, 1); substituting g1 = f1 and
    g2 = f2 folds it to (6, -8, 2), and one row in, (g1, f0, f1, f2, f3) =
    (1, -4, 6, -4, 1) with g1 = f1 folds to (-4, 7, -4, 1).
    """
    interior = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}

    def fold(j0):
        out = {}
        for off, c in interior.items():
            j = j0 + off
            j = -j if j < 0 else j  # mirror: ghost -k takes the value at +k
            out[j] = out.get(j, 0.0) + c
        return out

    assert fold(0) == {0: 6.0, 1: -8.0, 2: 2.0}
    assert fold(1) == {0: -4.0, 1: 7.0, 2: -4.0, 3: 1.0}

    grid = strip_grid(dy=0.25)
    for j0 in (0, 1):
        ordinals, _, d4 = y_row(grid, 2, j0)
        got = {j: v for (i, j), v in nodes(grid, ordinals, d4).items()}
        assert got == fold(j0)


def test_dyyyy_against_cosine_derivative():
    # interior row applied to cos(pi y) approaches pi^4 cos(pi y) at order 2
    errs = []
    for dy in (0.05, 0.025):
        grid = strip_grid(dy=dy)
        _, y = grid.node_coords()
        j = round(0.3 / dy)  # away from the zero of cos(pi y)
        ordinals, _, d4 = y_row(grid, 3, j)
        exact = np.pi**4 * np.cos(np.pi * grid.y(j))
        errs.append(abs(d4 @ np.cos(np.pi * y[ordinals]) / grid.dy**4 - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("k", [1, 2])
def test_wall_rows_second_order_on_even_fields(k):
    # cos(k pi y) satisfies both wall conditions; the folded rows stay O(dy^2)
    errs = []
    for dy in (0.05, 0.025):
        grid = strip_grid(dy=dy)
        _, y = grid.node_coords()
        u = np.cos(k * np.pi * y)
        worst = 0.0
        for j in (0, 1, grid.Ny - 2, grid.Ny - 1):
            ordinals, _, d4 = y_row(grid, 3, j)
            exact = (k * np.pi) ** 4 * np.cos(k * np.pi * grid.y(j))
            worst = max(worst, abs(d4 @ u[ordinals] / grid.dy**4 - exact))
        errs.append(worst)
    assert errs[0] / errs[1] > 3.0  # order ~2 between the two refinements


def test_band_columns_reflect_at_limiter_top():
    grid = full_grid()
    i = grid.I1 - 1  # column above the limiter only
    jb, jt = grid.column_extent(i)
    assert jb == grid.j_l
    ordinals, _, d4 = y_row(grid, i, jb)
    assert nodes(grid, ordinals, d4) == {(i, jb): 6.0, (i, jb + 1): -8.0, (i, jb + 2): 2.0}


# ---- the finite-volume rule of the cell mask, recomputed from coordinates --


def _quarter_stencils(grid, x, y):
    """(area, d2, d4) at the points (x, y), from the quarter cells alone, not `Grid`'s mask.

    A quarter of a point's cell is plasma when its centre (x +- dx/4, y +- dy/4)
    lies in the plasma region; a half y-face is open when the quarters on both
    sides of it are plasma.  area is the plasma quarters over 4; d2 (n, 3) is
    2 (down, -(down + up), up) / (4 area), with down and up the open half faces
    below and above, at y-offsets -1 .. 1; d4 (n, 5) is d2 o d2 along x = const
    at y-offsets -2 .. 2.  A point outside the plasma gets zero weights.
    """

    def plasma(px, py):
        px = (px + 0.5) % 1.0 - 0.5  # the band rows are periodic in x; the strip never wraps
        return (0 < py) & (py < 1) & ((np.abs(px) < grid.L) | (py > grid.limiter_height))

    def d2_at(px, py):
        side, at = px[:, None] + np.array([-0.25, 0.25]) * grid.dx, py[:, None]
        lower, upper = plasma(side, at - grid.dy / 4), plasma(side, at + grid.dy / 4)
        down = (lower & plasma(side, at - 3 * grid.dy / 4)).sum(1)
        up = (upper & plasma(side, at + 3 * grid.dy / 4)).sum(1)
        quarters = lower.sum(1) + upper.sum(1)
        flux = 2.0 * np.column_stack([down, -(down + up), up])
        d2 = np.divide(flux, quarters[:, None], out=np.zeros(flux.shape), where=quarters[:, None] > 0)
        return quarters / 4.0, d2

    area, d2 = d2_at(x, y)
    d4 = np.zeros((len(x), 5))
    for m in (-1, 0, 1):
        d4[:, m + 1 : m + 4] += d2[:, m + 1, None] * d2_at(x, y + m * grid.dy)[1]
    return area, d2, d4


def _by_offset(grid, j, ordinals, weights):
    """The (n, 5) weights of a y_table row at the true y-offsets -2 .. 2, repeated nodes summed."""
    offset = grid.phi_nodes[ordinals, 1] - j[:, None] + 2
    out = np.zeros(weights.shape)
    np.add.at(out, (np.arange(len(j))[:, None], offset), weights)
    return out


# every valid combination: at h = 0.1, L = 0.45 is off the mesh and l = 0.8 leaves 3 band rows
MASK_GRIDS = [("strip", 1.0, 0.4, h) for h in (0.05, 0.025, 0.0125)] + [
    ("full", l, L, h)
    for l in (0.5, 0.8)
    for L in (0.4, 0.45)
    for h in (0.1, 0.05, 0.025, 0.0125)
    if not config_violations(
        PhysConfig(eta=1e-3, L=L, limiter_height=l), DiscConfig(dx=h, dy=h, dt=1e-3, mode="full")
    )
]


@pytest.mark.parametrize("mode, l, L, h", MASK_GRIDS)
def test_y_table_is_the_quarter_cell_rule_outside_the_corner_override(mode, l, L, h):
    grid = build_grid(
        PhysConfig(eta=1e-3, L=L, limiter_height=l), DiscConfig(dx=h, dy=h, dt=1e-3, mode=mode)
    )
    k = grid.plasma_ordinals
    i, j = grid.phi_nodes[k].T
    x, y = grid.node_coords()
    area, d2, d4 = _quarter_stencils(grid, x[k], y[k])
    assert np.array_equal(grid.quad_weights[k], area)
    assert not np.delete(grid.quad_weights, k).any()  # ghosts

    ordinals, table_d2, table_d4 = y_table(grid, i, j)
    table_d2, table_d4 = (_by_offset(grid, j, ordinals, w) for w in (table_d2, table_d4))
    d2_off = ~(table_d2 == np.pad(d2, ((0, 0), (1, 1)))).all(1)
    d4_off = ~(table_d4 == d4).all(1)
    if mode == "strip":
        corners, rows = [], []
    else:
        corners = [(c, grid.j_l) for c in (grid.I1, grid.I2)]
        rows = [(c, jj) for c in (grid.I1, grid.I2) for jj in range(grid.j_l - 1, grid.j_l + 2)]
    assert sorted(map(tuple, grid.phi_nodes[k[d2_off]])) == corners
    assert sorted(map(tuple, grid.phi_nodes[k[d4_off]])) == rows
    for node in corners:  # the override: the mask's corner d2 against the table's (1, -2, 1)
        at = np.flatnonzero((i == node[0]) & (j == node[1]))[0]
        assert d2[at] == pytest.approx([2 / 3, -2.0, 4 / 3], rel=1e-15)
        assert np.array_equal(table_d2[at], [0.0, 1.0, -2.0, 1.0, 0.0])


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_mirror_dyy_is_the_quarter_cell_rule_on_a_strip_column(h):
    grid = strip_grid(dx=h, dy=h)
    jj = np.arange(grid.Ny)
    for i in (grid.I1, grid.Nx // 2, grid.I2):
        _, d2, _ = _quarter_stencils(grid, np.full(grid.Ny, grid.x(i)), grid.y(jj))
        dense = np.zeros((grid.Ny, grid.Ny + 2))  # columns j - 1 .. j + 1, padded at the walls
        for m in range(3):
            dense[jj, jj + m] = d2[:, m]
        assert np.array_equal(mirror_dyy(grid.Ny).toarray(), dense[:, 1:-1])
