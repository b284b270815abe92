import numpy as np
import pytest
import scipy.sparse as sps

from edgepot.errors import MissingNeighborError
from edgepot.geometry import PHI, Q, DiscConfig, PhysConfig, build_grid
from edgepot.stencils import dx_central_row, dxx_row, dyy_row, dyyyy_row


def strip_grid(dx=0.1, dy=0.1):
    return build_grid(
        PhysConfig(eta=1e-3), DiscConfig(dx=dx, dy=dy, dt=1e-3, mode="strip")
    )


def full_grid(dx=0.05, dy=0.05, l=0.5):
    return build_grid(
        PhysConfig(eta=1e-3, limiter_height=l),
        DiscConfig(dx=dx, dy=dy, dt=1e-3, mode="full"),
    )


def coeffs(grid, row):
    """Map slot -> coefficient for readable assertions."""
    return {grid.locate(k): c for k, c in zip(row.indices, row.data)}


# ---- first and second x-differences ------------------------------------


def test_dx_central_interior_coefficients():
    grid = strip_grid(dx=0.1)
    row = coeffs(grid, dx_central_row(grid, PHI, 3, 2))
    assert row == {
        (PHI, 2, 2): pytest.approx(-5.0),
        (PHI, 4, 2): pytest.approx(5.0),
    }


def test_dx_central_at_face_references_ghost():
    grid = strip_grid()
    row = coeffs(grid, dx_central_row(grid, Q, grid.I1, 4))
    assert (Q, grid.I1 - 1, 4) in row  # the stored ghost column
    assert (Q, grid.I1 + 1, 4) in row


def test_dx_central_annihilates_x_constants():
    grid = strip_grid()
    u = np.ones(grid.N)
    assert dx_central_row(grid, PHI, 2, 3) @ u == 0.0


def test_dx_missing_neighbor_on_ghost():
    grid = strip_grid()
    with pytest.raises(MissingNeighborError):
        dx_central_row(grid, PHI, grid.I1 - 1, 0)


def test_dxx_coefficients():
    grid = build_grid(
        PhysConfig(eta=1e-3, L=0.25),
        DiscConfig(dx=0.5, dy=0.1, dt=1e-3, mode="strip"),
    )
    row = coeffs(grid, dxx_row(grid, PHI, 0, 2))
    assert row[(PHI, -1, 2)] == pytest.approx(4.0)
    assert row[(PHI, 0, 2)] == pytest.approx(-8.0)
    assert row[(PHI, 1, 2)] == pytest.approx(4.0)


def test_dxx_exact_on_quadratics():
    grid = strip_grid(dx=0.05)
    u = np.zeros(grid.N)
    for k in range(grid.N):
        f, i, j = grid.locate(k)
        if f == PHI:
            u[k] = grid.x(i) ** 2
    assert dxx_row(grid, PHI, 5, 3) @ u == pytest.approx(2.0, abs=1e-10)


def test_dxx_periodic_wrap_converges_on_band():
    # seam row: apply to cos(2 pi x), compare with -4 pi^2 cos(2 pi x)
    errs = []
    for dx in (0.05, 0.025):
        grid = full_grid(dx=dx)
        j = grid.Ny - 2
        u = np.zeros(grid.N)
        for i in range(grid.n_band_cols):
            u[grid.slot(PHI, i, j)] = np.cos(2 * np.pi * grid.x(i))
        row = dxx_row(grid, PHI, 0, j)  # the seam column wraps
        exact = -4 * np.pi**2 * np.cos(2 * np.pi * grid.x(0))
        errs.append(abs(row @ u - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def _stencil_nodes(grid):
    """Every plasma node, plus the seam twin x = +0.5 on the band rows."""
    i, j = grid.phi_nodes[grid.plasma_ordinals].T
    if grid.mode == "full":
        band = np.arange(grid.j_l, grid.Ny)
        i = np.r_[i, np.full(len(band), grid.n_band_cols)]
        j = np.r_[j, band]
    return i, j


@pytest.mark.parametrize("grid_kind", ["strip", "full", "full_I1_is_1"])
@pytest.mark.parametrize("field", [PHI, Q])
@pytest.mark.parametrize("fn", [dx_central_row, dxx_row, dyy_row, dyyyy_row])
def test_array_call_matches_single_node_calls(grid_kind, field, fn):
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
    stacked = sps.vstack([fn(grid, field, a, b) for a, b in zip(i, j)]).tocsr()
    together = fn(grid, field, i, j)
    assert together.shape == (len(i), grid.N)
    assert np.array_equal(together.toarray(), stacked.toarray())


# ---- y-differences with wall closures -----------------------------------


def test_dyy_interior_and_wall_coefficients():
    grid = strip_grid(dy=0.25)
    c = 1.0 / 0.25**2
    interior = coeffs(grid, dyy_row(grid, PHI, 2, 2))
    assert interior == {
        (PHI, 2, 1): pytest.approx(c),
        (PHI, 2, 2): pytest.approx(-2 * c),
        (PHI, 2, 3): pytest.approx(c),
    }
    bottom = coeffs(grid, dyy_row(grid, PHI, 2, 0))
    assert bottom == {
        (PHI, 2, 0): pytest.approx(-2 * c),
        (PHI, 2, 1): pytest.approx(2 * c),
    }
    top = coeffs(grid, dyy_row(grid, PHI, 2, grid.Ny - 1))
    assert top[(PHI, 2, grid.Ny - 2)] == pytest.approx(2 * c)


def test_dyy_annihilates_constants():
    grid = strip_grid()
    u = np.ones(grid.N)
    for j in (0, 1, 5, grid.Ny - 1):
        assert dyy_row(grid, PHI, 3, j) @ u == 0.0


def test_dyyyy_coefficients():
    grid = strip_grid(dy=0.25)
    c = 1.0 / 0.25**4
    interior = coeffs(grid, dyyyy_row(grid, PHI, 2, 2))
    assert [interior[(PHI, 2, j)] for j in range(5)] == pytest.approx(
        [c, -4 * c, 6 * c, -4 * c, c]
    )
    wall = coeffs(grid, dyyyy_row(grid, PHI, 2, 0))
    assert [wall[(PHI, 2, j)] for j in range(3)] == pytest.approx([6 * c, -8 * c, 2 * c])
    near = coeffs(grid, dyyyy_row(grid, PHI, 2, 1))
    assert [near[(PHI, 2, j)] for j in range(4)] == pytest.approx(
        [-4 * c, 7 * c, -4 * c, c]
    )
    top = coeffs(grid, dyyyy_row(grid, PHI, 2, 4))
    assert [top[(PHI, 2, j)] for j in (2, 3, 4)] == pytest.approx(
        [2 * c, -8 * c, 6 * c]
    )


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
    c = 1.0 / grid.dy**4
    for j0 in (0, 1):
        row = coeffs(grid, dyyyy_row(grid, PHI, 2, j0))
        got = {j: v / c for (f, i, j), v in row.items()}
        assert got == pytest.approx(fold(j0))


def test_dyyyy_against_cosine_derivative():
    # interior row applied to cos(pi y) approaches pi^4 cos(pi y) at order 2
    errs = []
    for dy in (0.05, 0.025):
        grid = strip_grid(dy=dy)
        j = round(0.3 / dy)  # away from the zero of cos(pi y)
        u = np.zeros(grid.N)
        for jj in range(grid.Ny):
            u[grid.slot(PHI, 3, jj)] = np.cos(np.pi * grid.y(jj))
        exact = np.pi**4 * np.cos(np.pi * grid.y(j))
        errs.append(abs(dyyyy_row(grid, PHI, 3, j) @ u - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("k", [1, 2])
def test_wall_rows_second_order_on_even_fields(k):
    # cos(k pi y) satisfies both wall conditions; the folded rows stay O(dy^2)
    errs = []
    for dy in (0.05, 0.025):
        grid = strip_grid(dy=dy)
        u = np.zeros(grid.N)
        for jj in range(grid.Ny):
            u[grid.slot(PHI, 3, jj)] = np.cos(k * np.pi * grid.y(jj))
        worst = 0.0
        for j in (0, 1, grid.Ny - 2, grid.Ny - 1):
            exact = (k * np.pi) ** 4 * np.cos(k * np.pi * grid.y(j))
            worst = max(worst, abs(dyyyy_row(grid, PHI, 3, j) @ u - exact))
        errs.append(worst)
    assert errs[0] / errs[1] > 3.0  # order ~2 between the two refinements


def test_rows_are_linear():
    grid = strip_grid()
    rng = np.random.default_rng(42)
    f = rng.standard_normal(grid.N)
    g = rng.standard_normal(grid.N)
    a, b = 0.7, -1.3
    for row in (
        dx_central_row(grid, PHI, 4, 2),
        dxx_row(grid, Q, 4, 2),
        dyy_row(grid, PHI, 4, 0),
        dyyyy_row(grid, PHI, 4, 1),
    ):
        assert row @ (a * f + b * g) == pytest.approx(
            a * (row @ f) + b * (row @ g), rel=1e-12, abs=1e-12
        )


def test_band_columns_reflect_at_limiter_top():
    grid = full_grid()
    i = grid.I1 - 1  # column above the limiter only
    jb, jt = grid.column_extent(i)
    assert jb == grid.j_l
    row = coeffs(grid, dyyyy_row(grid, PHI, i, jb))
    c = 1.0 / grid.dy**4
    assert row[(PHI, i, jb)] == pytest.approx(6 * c)
    assert row[(PHI, i, jb + 1)] == pytest.approx(-8 * c)
    assert row[(PHI, i, jb + 2)] == pytest.approx(2 * c)
