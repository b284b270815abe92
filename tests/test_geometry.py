import pytest

from edgepot.assembly import build_system, check_csr
from edgepot.errors import ConfigError, OutOfDomainError
from edgepot.geometry import (
    DiscConfig,
    NodeClass,
    PhysConfig,
    build_grid,
    classify_node,
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
    assert grid.N == grid.n_phi + grid.n_q + grid.n_ghost


def test_full_unknown_count():
    grid = build_grid(*full_configs())
    below = grid.j_l
    above = grid.Ny - grid.j_l
    n_phi = below * grid.Nx + above * grid.n_band_cols
    assert grid.n_phi == n_phi
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
            assert classify_node(grid, grid.n_band_cols, j).primary is NodeClass.GHOST_EAST
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


# ---- classification ---------------------------------------------------


def test_classify_bottom_wall():
    grid = build_grid(*strip_configs(dx=0.1, dy=0.1))
    i_mid = grid.Nx // 2
    assert grid.x(i_mid) == pytest.approx(0.0)
    assert classify_node(grid, i_mid, 0).primary is NodeClass.SIGMA_PAR_BOTTOM


def test_classify_west_face_is_anchor_line():
    grid = build_grid(*strip_configs(dx=0.1, dy=0.1))
    cls = classify_node(grid, grid.I1, 5)
    assert cls.primary is NodeClass.FACE_WEST
    assert cls.anchor_line


def test_classify_periodic_seam():
    grid = build_grid(*full_configs(dx=0.05, dy=0.05, l=0.6))
    j = round(0.8 / grid.dy)
    twin = grid.n_band_cols  # x = +0.5
    assert classify_node(grid, twin, j).primary is NodeClass.PERIODIC_SEAM
    assert classify_node(grid, 0, j).primary is NodeClass.PERIODIC_SEAM


def test_classify_corner_reports_face_with_limiter_top_flag():
    grid = build_grid(*full_configs())
    cls = classify_node(grid, grid.I1, grid.j_l)
    assert cls.primary is NodeClass.FACE_WEST
    assert cls.limiter_top
    assert cls.anchor_line


def test_classify_limiter_top_above_limiter():
    grid = build_grid(*full_configs())
    assert (
        classify_node(grid, grid.I1 - 2, grid.j_l).primary
        is NodeClass.SIGMA_PAR_LIMITER_TOP
    )


def test_classify_ghosts_and_out_of_domain():
    grid = build_grid(*full_configs())
    assert classify_node(grid, grid.I1 - 1, 0).primary is NodeClass.GHOST_WEST
    assert classify_node(grid, grid.I2 + 1, 0).primary is NodeClass.GHOST_EAST
    with pytest.raises(OutOfDomainError):
        classify_node(grid, grid.I1 - 2, 0)  # deep inside the limiter
    with pytest.raises(OutOfDomainError):
        classify_node(grid, 0, -1)


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
