from dataclasses import replace

import numpy as np
import pytest

from edgepot.assembly import build_system, check_csr
from edgepot.errors import ConfigError, EdgepotError
from edgepot.geometry import (
    Q,
    DiscConfig,
    PhysConfig,
    build_grid,
    config_violations,
    validate_config,
)


def strip_configs(dx=0.05, dy=0.05, dt=1e-3, eta=1e-3, **kw):
    return PhysConfig(eta=eta, **kw), DiscConfig(dx=dx, dy=dy, dt=dt, mode="strip")


def full_configs(dx=0.025, dy=0.05, dt=1e-3, l=0.6, eta=1e-3):
    phys = PhysConfig(eta=eta, limiter_height=l)
    return phys, DiscConfig(dx=dx, dy=dy, dt=dt, mode="full")


# ---- validation -------------------------------------------------------


def test_validate_accepts_aligned_strip():
    phys, disc = strip_configs(dx=0.025, dy=0.025)
    assert 2 * phys.L / disc.dx == pytest.approx(32)
    assert validate_config(phys, disc) == (phys, disc)


def test_validate_rejects_unaligned_dx():
    phys, disc = strip_configs(dx=0.03)
    with pytest.raises(ConfigError, match="NonAlignedMesh"):
        validate_config(phys, disc)


def test_validate_strip_requires_full_height_limiter():
    phys = PhysConfig(eta=1e-3, limiter_height=0.6)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=1e-3, mode="strip")
    with pytest.raises(ConfigError, match="StripModeRequiresLEqualOne"):
        validate_config(phys, disc)


def test_validate_rejects_nonpositive_steps_and_bad_phys():
    phys = PhysConfig(eta=-1.0)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=-1.0)
    violations = config_violations(phys, disc)
    assert any("eta" in v for v in violations)
    assert any(v.startswith("NonPositiveStep") for v in violations)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize(
    "key,owner,field",
    [("eta", 0, "eta"), ("nu", 0, "nu"), ("lambda", 0, "lambda_ref"), ("L", 0, "L"),
     ("l", 0, "limiter_height"), ("T", 0, "t_end"), ("dx", 1, "dx"), ("dy", 1, "dy"),
     ("dt", 1, "dt")],
)
def test_validate_rejects_a_non_finite_value(key, owner, field, value):
    configs = list(strip_configs())
    configs[owner] = replace(configs[owner], **{field: value})
    assert f"NonFinite: {key} must be finite, got {value}" in config_violations(*configs)


def test_validate_rejects_too_coarse_y():
    phys, disc = strip_configs(dy=0.5)
    with pytest.raises(ConfigError, match="GridTooCoarse"):
        validate_config(phys, disc)


def test_validate_full_mode_requires_band():
    phys = PhysConfig(eta=1e-3, limiter_height=1.0)
    disc = DiscConfig(dx=0.025, dy=0.05, dt=1e-3, mode="full")
    with pytest.raises(ConfigError, match="FullModeRequiresBand"):
        validate_config(phys, disc)


# ---- grid construction ------------------------------------------------


def test_strip_column_count():
    grid = build_grid(*strip_configs(dx=0.025, dy=0.05))
    assert grid.Nx == 33
    xs = [grid.x(i) for i in range(grid.Nx)]
    assert xs[0] == pytest.approx(-0.4)
    assert xs[-1] == pytest.approx(0.4)


def test_full_mode_face_index():
    grid = build_grid(*full_configs(dx=0.025))
    assert grid.I1 == 4
    assert grid.x(grid.I1) == pytest.approx(-0.4)
    assert grid.x(grid.I2) == pytest.approx(0.4)


def test_row_count_from_dy():
    grid = build_grid(*strip_configs(dx=0.1, dy=0.25))
    assert grid.Ny == 5
    assert [grid.y(j) for j in range(grid.Ny)] == pytest.approx([0, 0.25, 0.5, 0.75, 1])


def test_strip_unknown_count():
    grid = build_grid(*strip_configs())
    assert grid.N == 2 * grid.Nx * grid.Ny + 4 * grid.Ny
    assert len(grid.plasma_ordinals) == grid.Nx * grid.Ny


def test_full_unknown_count():
    grid = build_grid(*full_configs())
    below = grid.j_l
    above = grid.Ny - grid.j_l
    n_phi = below * grid.Nx + above * grid.n_band_cols
    assert len(grid.plasma_ordinals) == n_phi
    assert grid.N == 2 * n_phi + 4 * below


def test_index_map_round_trip_strip_and_full():
    for grid in (build_grid(*strip_configs()), build_grid(*full_configs())):
        seen = set()
        for k in range(grid.N):
            f, i, j = grid.locate(k)
            assert grid.slot(f, i, j) == k
            seen.add((f, i, j))
        assert len(seen) == grid.N


def test_full_mode_excludes_limiter_interior():
    grid = build_grid(*full_configs())
    l = grid.limiter_height
    for k in grid.plasma_ordinals:
        i, j = grid.phi_nodes[k]
        x, y = grid.x(i), grid.y(j)
        assert not (abs(x) > grid.L + 1e-12 and y < l - 1e-12)


def test_full_mode_east_ghost_column_is_the_seam_index():
    # I1 = 1: the east ghost column I2 + 1 equals n_band_cols, which folds
    # onto the seam column 0 on band rows
    phys = PhysConfig(eta=1e-3, L=0.4, limiter_height=0.5)
    disc = DiscConfig(dx=0.1, dy=0.1, dt=1e-3, mode="full")
    grid = build_grid(phys, disc)
    assert grid.I1 == 1 and grid.I2 + 1 == grid.n_band_cols
    for k in range(grid.N):
        f, i, j = grid.locate(k)
        assert grid.slot(f, i, j) == k
    for j in range(grid.Ny):
        k = grid.ordinal(grid.n_band_cols, j)
        if j < grid.j_l:
            assert tuple(grid.phi_nodes[k]) == (grid.n_band_cols, j)
            assert j in grid.face_rows() and k not in grid.plasma_ordinals
        else:
            assert k == grid.ordinal(0, j)
    area = 2 * grid.L + (1 - 2 * grid.L) * (1 - grid.limiter_height)
    assert grid.quad_weights.sum() * grid.dx * grid.dy == pytest.approx(area)
    for scheme in ("ap", "naive"):
        check_csr(build_system(grid, phys, disc, scheme).matrix)


def test_seam_column_identified_once():
    grid = build_grid(*full_configs())
    j = grid.Ny - 2  # inside the band
    assert grid.ordinal(0, j) == grid.ordinal(grid.n_band_cols, j)


# ---- walls, faces, seam and ghosts through the layout lookups -----------


def test_bottom_wall_starts_every_strip_column():
    grid = build_grid(*strip_configs(dx=0.1, dy=0.1))
    i_mid = grid.Nx // 2
    assert grid.x(i_mid) == pytest.approx(0.0)
    assert grid.column_extent(i_mid) == (0, grid.Ny - 1)
    assert grid.ordinal(i_mid, 0) in grid.plasma_ordinals


def anchor_slots(grid, phys, disc):
    """The rows that hold one unit entry on their own unknown."""
    a = build_system(grid, phys, disc, "ap").matrix
    rows = np.flatnonzero(np.diff(a.indptr) == 1)
    first = a.indptr[rows]
    return rows[(a.indices[first] == rows) & (a.data[first] == 1.0)]


def test_west_face_column_carries_the_anchor_rows():
    phys, disc = strip_configs(dx=0.1, dy=0.1)
    grid = build_grid(phys, disc)
    assert grid.x(grid.I1) == pytest.approx(-grid.L)
    assert 5 in grid.face_rows()
    rows = np.arange(grid.Ny)
    assert np.array_equal(anchor_slots(grid, phys, disc), grid.slot(Q, grid.I1, rows))


def test_periodic_seam_twin_folds_onto_column_zero():
    grid = build_grid(*full_configs(dx=0.05, dy=0.05, l=0.6))
    twin = grid.n_band_cols  # x = +0.5
    assert grid.x(twin) == pytest.approx(0.5) and grid.x(0) == pytest.approx(-0.5)
    band = np.arange(grid.j_l, grid.Ny)
    assert round(0.8 / grid.dy) in band
    assert np.array_equal(grid.ordinal(twin, band), grid.ordinal(0, band))
    assert np.isin(grid.ordinal(0, band), grid.plasma_ordinals).all()


def test_limiter_corner_is_plasma_without_ghost_and_anchored():
    phys, disc = full_configs()
    grid = build_grid(phys, disc)
    assert grid.x(grid.I1) == pytest.approx(-grid.L)
    assert grid.y(grid.j_l) == pytest.approx(grid.limiter_height)
    assert grid.j_l not in grid.face_rows() and grid.j_l - 1 in grid.face_rows()
    # west of the corner lies band plasma, not a ghost
    corner_and_west = grid.ordinal([grid.I1, grid.I1 - 1], grid.j_l)
    assert np.isin(corner_and_west, grid.plasma_ordinals).all()
    # the anchor column is I1 on every row, corner and band rows included
    rows = np.arange(grid.Ny)
    assert np.array_equal(anchor_slots(grid, phys, disc), grid.slot(Q, grid.I1, rows))


def test_limiter_top_row_is_the_bottom_of_outside_columns():
    grid = build_grid(*full_configs())
    assert grid.column_extent(grid.I1 - 2)[0] == grid.j_l
    assert grid.column_extent(grid.I1) == (0, grid.Ny - 1)
    assert grid.ordinal(grid.I1 - 2, grid.j_l) in grid.plasma_ordinals


def test_ghost_columns_and_out_of_domain_lookups():
    grid = build_grid(*full_configs())
    for ghost in (grid.I1 - 1, grid.I2 + 1):
        k = grid.ordinal(ghost, 0)
        assert tuple(grid.phi_nodes[k]) == (ghost, 0)
        assert k not in grid.plasma_ordinals
    with pytest.raises(EdgepotError, match=rf"\(i={grid.I1 - 2}, j=0\) is not a stored node"):
        grid.ordinal(grid.I1 - 2, 0)  # deep inside the limiter
    with pytest.raises(EdgepotError, match=r"\(i=0, j=-1\) is not a stored node"):
        grid.ordinal(0, -1)


# ---- quadrature weights ------------------------------------------------


def test_quad_weights_strip_area():
    grid = build_grid(*strip_configs())
    assert grid.quad_weights.sum() * grid.dx * grid.dy == pytest.approx(0.8)


def test_quad_weights_full_area_and_reentrant_corner():
    grid = build_grid(*full_configs())
    area = 2 * grid.L + (1 - 2 * grid.L) * (1 - grid.limiter_height)
    assert grid.quad_weights.sum() * grid.dx * grid.dy == pytest.approx(area)
    assert grid.quad_weights[grid.ordinal(grid.I1, grid.j_l)] == pytest.approx(0.75)
    assert grid.quad_weights[grid.ordinal(grid.I1, 0)] == pytest.approx(0.25)
    assert grid.quad_weights[grid.ordinal(grid.I1 - 1, 0)] == 0.0  # ghost
