import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sps

from edgepot.assembly import (
    Forcing,
    ZERO_FORCING,
    assemble_ap_rhs,
    build_system,
    check_csr,
    micro_macro_deviation,
    write_matrix_market,
)
from edgepot.errors import (
    EtaZeroUndefinedError,
    NonFiniteSourceError,
    NumericalError,
    SingularStructureError,
)
from edgepot.geometry import PHI, Q, DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import _kronecker_parts, _scaled_modes, lu_factorize, lu_solve
from edgepot.manufactured import SOURCES, corrected_mms
from edgepot.timeloop import State, init_state, step


def make(eta=1e-3, dx=0.1, dy=0.25, dt=1e-3, lam=0.0, nu=1.0):
    phys = PhysConfig(eta=eta, nu=nu, lambda_ref=lam)
    disc = DiscConfig(dx=dx, dy=dy, dt=dt, mode="strip")
    return build_grid(phys, disc), phys, disc


def coupled_row_slots(grid):
    """Row slots of each equation in the coupled layout, by the row-aligned-with-unknown rule.

    Evolution rows sit in the plasma phi slots; anchor rows (column x = -L)
    and coupling rows in the plasma q slots; flux-match and sheath rows in
    the ghost phi and q slots, west face first.
    """
    k = grid.plasma_ordinals
    i = grid.phi_nodes[k, 0]
    jf = np.asarray(grid.face_rows())
    ghost = np.concatenate([np.full(len(jf), grid.I1 - 1), np.full(len(jf), grid.I2 + 1)])
    jj = np.tile(jf, 2)
    return {
        "evolution": 2 * k + PHI,
        "coupling": 2 * k[i != grid.I1] + Q,
        "anchor": 2 * k[i == grid.I1] + Q,
        "flux_match": grid.slot(PHI, ghost, jj),
        "sheath": grid.slot(Q, ghost, jj),
    }


# ---- structure ----------------------------------------------------------


def test_ap_row_count_identity():
    grid, phys, disc = make()
    assert (grid.Nx, grid.Ny) == (9, 5)
    blocks = build_system(grid, phys, disc, "ap")
    slots = coupled_row_slots(grid)
    counts = {name: len(rows) for name, rows in slots.items()}
    assert counts["evolution"] == grid.Nx * grid.Ny
    assert counts["coupling"] == (grid.Nx - 1) * grid.Ny
    assert counts["anchor"] == grid.Ny
    assert counts["flux_match"] + counts["sheath"] == 4 * grid.Ny
    assert sum(counts.values()) == grid.N
    assert np.array_equal(np.sort(np.concatenate(list(slots.values()))), np.arange(grid.N))
    assert np.array_equal(blocks.src_rows, slots["evolution"])
    assert np.array_equal(blocks.sheath_rows, slots["sheath"])


def test_naive_row_count():
    grid, phys, disc = make()
    blocks = build_system(grid, phys, disc, "naive")
    assert blocks.matrix.shape[0] == grid.Nx * grid.Ny + 2 * grid.Ny


def test_assembly_is_bit_identical():
    grid, phys, disc = make()
    a = build_system(grid, phys, disc, "ap").matrix
    b = build_system(grid, phys, disc, "ap").matrix
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)
    an = build_system(grid, phys, disc, "naive").matrix
    bn = build_system(grid, phys, disc, "naive").matrix
    assert np.array_equal(an.data, bn.data)


def _digest(m) -> str:
    """sha256 of a compressed matrix's indptr, indices and data, in fixed dtypes."""
    h = hashlib.sha256()
    for a, dtype in ((m.indptr, np.int64), (m.indices, np.int64), (m.data, np.float64)):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


# sha256 of the matrix, prev_op and (strip) the row-scaled cosine-mode matrix R B at
# h = 0.05.  nu = 0.9 and dt = 7e-4 make both other orders of the single-field centre's
# sum (y2 + y4) + x round differently, so a reordered sum changes a digest.
_DIGESTS = {
    ("strip", "ap", 1e-3): (
        "65415ec62b7e479638389b39a2a3afc3649d8eee07f428081f617326fdded88f",
        "c4b9e23fbe9831869d47ad4e83905ba8262200176cd293500fd4d8b91cdeb16a",
        "9556e00b5ae8f0aa80e68b67cb4deed49dc16815028567f9effa2c82bb4a2873",
    ),
    ("strip", "naive", 1e-3): (
        "3efce182de08e112844746abe42fc579fb8d42a6cf49d01c4c13c7330f4e1beb",
        "fa94f3c932110cfd730372060d05a922e4dda4a2e79b5940863c2580061b4127",
        "d98bb11088c4d189d324fb9aebc0cd25de09e7a84140ca14d2924f51dd748df2",
    ),
    ("strip", "ap", 0.0): (
        "1927bd37e5ce301fcf85cded2350636590ca78b16ae3e2f5269230fe9c38a61e",
        "c4b9e23fbe9831869d47ad4e83905ba8262200176cd293500fd4d8b91cdeb16a",
        "fc1d284df45ba72fc0fa83f15d9cb9825b2f47546971095b5144c9d667c57d4d",
    ),
    ("full", "ap", 1e-3): (
        "cd203fd03a692c26291a8ccaa5ccecad7c8ec5211837dcfbcd281e9d99ef4c35",
        "99b5cc815e85981b6873d209bb3d059b89ef0f2409d8eb7d11c67c33be882307",
    ),
    ("full", "naive", 1e-3): (
        "5352674bce36fa5785a26eb17bd2d3bbeb2127db05ee697bf538eb2d8aed0b89",
        "fedcc4269461ca78568853468b288368b050d6ad38c021bfe4e7a7f87f3dc06c",
    ),
    ("full", "ap", 0.0): (
        "99c1322dc5993dd96125e3c663c56bfc781cd250c0801645ad7c126536d73563",
        "99b5cc815e85981b6873d209bb3d059b89ef0f2409d8eb7d11c67c33be882307",
    ),
}


@pytest.mark.parametrize("mode, scheme, eta", list(_DIGESTS))
def test_assembly_and_cosine_modes_keep_their_rounding(mode, scheme, eta):
    phys = PhysConfig(eta=eta, nu=0.9, limiter_height=1.0 if mode == "strip" else 0.5)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=7e-4, mode=mode)
    system = build_system(build_grid(phys, disc), phys, disc, scheme)
    a = system.matrix
    got = [_digest(a), _digest(system.prev_op)]
    if mode == "strip":
        ny, m = a.column_blocks.blocks[0].shape
        rb, _ = _scaled_modes(ny, m, *_kronecker_parts(a, ny, np.abs(a.data).max()))
        got.append(_digest(rb))
    assert tuple(got) == _DIGESTS[mode, scheme, eta]


def test_check_csr_refuses_a_repeated_column():
    a = sps.csr_matrix((np.ones(3), np.array([0, 0, 1]), np.array([0, 2, 3])), shape=(2, 2))
    assert a.has_sorted_indices  # sorted, but column 0 repeats in row 0
    with pytest.raises(SingularStructureError, match="repeated"):
        check_csr(a)


def test_eta_zero_matrix_well_formed():
    grid, phys, disc = make(eta=0.0)
    blocks = build_system(grid, phys, disc, "ap")
    check_csr(blocks.matrix)
    # coupling rows degenerate to the second difference of phi alone
    r = int(coupled_row_slots(grid)["coupling"][0])
    row = blocks.matrix.getrow(r)
    fields = {grid.locate(int(k))[0] for k in row.indices}
    assert fields == {PHI}


def test_naive_requires_positive_eta():
    grid, phys, disc = make(eta=0.0)
    with pytest.raises(EtaZeroUndefinedError, match="EtaZeroUndefined"):
        build_system(grid, phys, disc, "naive")


def test_full_mode_assembles_and_counts():
    phys = PhysConfig(eta=1e-3, limiter_height=0.5)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=1e-3, mode="full")
    grid = build_grid(phys, disc)
    blocks = build_system(grid, phys, disc, "ap")
    check_csr(blocks.matrix)
    slots = coupled_row_slots(grid)
    counts = {name: len(rows) for name, rows in slots.items()}
    below, above = grid.j_l, grid.Ny - grid.j_l
    assert counts["evolution"] == below * grid.Nx + above * grid.n_band_cols
    assert counts["anchor"] == grid.Ny
    assert counts["sheath"] == 2 * below
    assert sum(counts.values()) == grid.N
    assert np.array_equal(blocks.src_rows, slots["evolution"])
    assert np.array_equal(blocks.sheath_rows, slots["sheath"])
    lu_factorize(blocks.matrix)  # invertible


# ---- right-hand sides ----------------------------------------------------


def test_rhs_zero_state_zero_source_is_zero():
    grid, phys, disc = make(lam=0.0)
    system = build_system(grid, phys, disc, "ap")
    state = init_state(grid, phys, lambda x, y: np.zeros_like(x))
    b = assemble_ap_rhs(system, state, ZERO_FORCING)
    assert np.all(b == 0.0)


def test_rhs_sheath_values_from_previous_state():
    grid, phys, disc = make(lam=1.0)
    system = build_system(grid, phys, disc, "ap")
    state = init_state(grid, phys, lambda x, y: np.ones_like(x))
    b = assemble_ap_rhs(system, state, ZERO_FORCING)
    # west: 1 - exp(1 - 1) - 1 = -1; east: -(1 - exp(0)) + 1 = +1
    assert b[system.sheath_rows[system.sheath_side < 0]] == pytest.approx(-1.0)
    assert b[system.sheath_rows[system.sheath_side > 0]] == pytest.approx(1.0)
    slots = coupled_row_slots(grid)
    coupling, anchor, flux = slots["coupling"], slots["anchor"], slots["flux_match"]
    assert np.all(b[coupling] == 0.0)
    assert np.all(b[anchor] == 0.0)
    assert np.all(b[flux] == 0.0)


def test_naive_rhs_scaled_by_eta():
    grid, phys, disc = make(eta=1e-3, lam=0.0)
    system = build_system(grid, phys, disc, "naive")
    state = init_state(grid, phys, lambda x, y: np.ones_like(x), scheme="naive")
    b = assemble_ap_rhs(system, state, ZERO_FORCING)
    assert b[system.sheath_rows[system.sheath_side < 0]] == pytest.approx(-0.00036787944117144236)


def test_evolution_rhs_shared_between_schemes():
    grid, phys, disc = make(eta=0.5)
    ap = build_system(grid, phys, disc, "ap")
    nv = build_system(grid, phys, disc, "naive")
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(len(grid.phi_nodes))
    s_ap = init_state(grid, phys, lambda x, y: np.zeros_like(x))
    s_ap.u[0::2] = phi
    s_nv = init_state(grid, phys, lambda x, y: np.zeros_like(x), scheme="naive")
    s_nv.u[:] = phi
    forcing = Forcing(volume=lambda t, x, y: np.sin(x + y) + t)
    b_ap = assemble_ap_rhs(ap, s_ap, forcing)
    b_nv = assemble_ap_rhs(nv, s_nv, forcing)
    assert b_ap[ap.src_rows] == pytest.approx(b_nv[nv.src_rows], rel=1e-14)


# strip at both half-gaps and the full geometry; full mode evaluates the
# source on a rectangle that also covers the limiter-solid nodes
RHS_GEOMETRIES = {
    "strip L=0.4": (dict(), dict(dx=0.05, dy=0.05)),
    "strip L=0.3": (dict(L=0.3), dict(dx=0.05, dy=0.05)),
    "full l=0.5": (dict(limiter_height=0.5), dict(dx=0.05, dy=0.05, mode="full")),
    "full l=0.8": (dict(limiter_height=0.8), dict(dx=0.05, dy=0.05, mode="full")),
    # I1 = 1: both ghost columns sit on the seam, and the band block is empty
    "full I1=1": (dict(L=0.45, limiter_height=0.5), dict(dx=0.05, dy=0.05, mode="full")),
}


def has_volume(source):
    forcing = SOURCES[source](PhysConfig(eta=1e-3)).forcing
    return forcing is not None and forcing.volume is not None


VOLUME_SOURCES = [name for name in SOURCES if has_volume(name)]


def rhs_system(geometry, scheme, eta):
    phys_kw, disc_kw = RHS_GEOMETRIES[geometry]
    phys = PhysConfig(eta=eta, **phys_kw)
    disc = DiscConfig(dt=1e-3, **disc_kw)
    grid = build_grid(phys, disc)
    return build_system(grid, phys, disc, scheme)


def node_by_node_rhs(system, state, forcing):
    """Reference: the volume source evaluated and added one plasma node at a time."""
    b = assemble_ap_rhs(system, state, replace(forcing, volume=None))
    grid = system.grid
    t = state.t + system.disc.dt
    for row, (i, j) in zip(system.src_rows, grid.phi_nodes[grid.plasma_ordinals]):
        b[row] += forcing.volume(t, grid.x(i), grid.y(j))
    return b


def test_volume_sources_are_listed():
    assert set(VOLUME_SOURCES) == {"eq3_mms", "eq4", "smooth_mms"}


@pytest.mark.parametrize("source", VOLUME_SOURCES)
@pytest.mark.parametrize("geometry", list(RHS_GEOMETRIES))
@pytest.mark.parametrize("scheme,eta", [("ap", 1e-3), ("ap", 0.0), ("naive", 1e-3)])
def test_rhs_equals_node_by_node_source(source, geometry, scheme, eta):
    system = rhs_system(geometry, scheme, eta)
    forcing = SOURCES[source](system.phys).forcing
    rng = np.random.default_rng(5)
    for t in (0.0, 0.37, 0.9):
        u = 0.1 * rng.standard_normal(system.matrix.shape[0])
        state = State(t=t, n=0, u=u, scheme=scheme)
        b = assemble_ap_rhs(system, state, forcing)
        assert np.array_equal(b, node_by_node_rhs(system, state, forcing))


@pytest.mark.parametrize("geometry", list(RHS_GEOMETRIES))
@pytest.mark.parametrize("scheme", ["ap", "naive"])
def test_rhs_broadcasts_scalar_and_y_only_sources(geometry, scheme):
    # a source need not depend on x, or on anything but t
    system = rhs_system(geometry, scheme, 1e-3)
    state = State(t=0.5, n=0, u=np.zeros(system.matrix.shape[0]), scheme=scheme)
    fold = 1 if scheme == "ap" else 2
    rows = coupled_row_slots(system.grid)["evolution"] // fold
    assert np.array_equal(rows, np.sort(system.src_rows))
    _, y = system.grid.node_coords()
    y_of_row = np.empty(system.matrix.shape[0])
    y_of_row[system.src_rows] = y[system.grid.plasma_ordinals]

    b = assemble_ap_rhs(system, state, Forcing(volume=lambda t, x, y: 2.0 * t))
    assert np.all(b[rows] == 2.0 * (0.5 + system.disc.dt))
    b = assemble_ap_rhs(system, state, Forcing(volume=lambda t, x, y: np.cos(np.pi * y)))
    assert np.array_equal(b[rows], np.cos(np.pi * y_of_row[rows]))


@pytest.mark.parametrize("geometry", ["strip L=0.4", "full l=0.5"])
@pytest.mark.parametrize("scheme", ["ap", "naive"])
def test_sheath_rows_follow_the_sheath_law_on_both_faces(geometry, scheme):
    phys_kw, disc_kw = RHS_GEOMETRIES[geometry]
    phys = PhysConfig(eta=1e-3, lambda_ref=0.3, **phys_kw)
    disc = DiscConfig(dt=1e-3, **disc_kw)
    grid = build_grid(phys, disc)
    system = build_system(grid, phys, disc, scheme)
    forcing = SOURCES["smooth_mms"](phys).forcing
    u = phys.lambda_ref + 0.5 * np.random.default_rng(11).standard_normal(system.matrix.shape[0])
    state = State(t=0.37, n=0, u=u, scheme=scheme)
    b = assemble_ap_rhs(system, state, forcing)

    lam, t = phys.lambda_ref, state.t + disc.dt
    jf = np.asarray(grid.face_rows())
    y = grid.y(jf)
    fold, scale = (1, 1.0) if scheme == "ap" else (2, phys.eta)
    for col, ghost, sign in ((grid.I1, grid.I1 - 1, -1.0), (grid.I2, grid.I2 + 1, +1.0)):
        rows = grid.slot(Q, ghost, jf) // fold
        phi_slots = grid.slot(PHI, col, jf) // fold
        phi = u[phi_slots]
        g = forcing.sheath(t, sign, y)
        if sign < 0:
            data = 1.0 - np.exp(lam - phi) - phi + g
        else:
            data = -(1.0 - np.exp(lam - phi)) + phi + g
        assert np.array_equal(b[rows], scale * data)
        entries = np.asarray(system.matrix[rows, phi_slots]).ravel()
        assert np.array_equal(entries, np.full(len(jf), sign * scale))


def test_rhs_rejects_non_finite_source():
    grid, phys, disc = make()
    system = build_system(grid, phys, disc, "ap")
    state = init_state(grid, phys, lambda x, y: np.zeros_like(x))
    bad = Forcing(volume=lambda t, x, y: np.full_like(x, np.inf))
    with pytest.raises(NonFiniteSourceError):
        assemble_ap_rhs(system, state, bad)


@pytest.mark.parametrize("scheme", ["ap", "naive"])
@pytest.mark.parametrize("phi0", [-800.0, 800.0])
def test_sheath_headroom_refuses_the_first_step(scheme, phi0):
    # lambda = 0: exp(lambda - phi) would overflow at phi0 = -800; warnings are errors here
    grid, phys, disc = make(dx=0.05, dy=0.05)
    system = build_system(grid, phys, disc, scheme)
    state = init_state(grid, phys, lambda x, y: np.full_like(x, phi0), scheme=scheme)
    factors = lu_factorize(system.matrix)
    msg = rf"lambda - phi = {-phi0:g} beyond the headroom \+-700 on the west face at y = 0; "
    with pytest.raises(NumericalError, match=msg + "refusing step 1 to t = 0.001"):
        step(state, factors, system)


# ---- scheme equivalence and the splitting diagnostic ----------------------


@pytest.mark.filterwarnings("ignore:initial data varies")
@pytest.mark.parametrize("eta", [1.0, 1e-1, 1e-2])
def test_one_step_matches_naive_scheme(eta):
    grid, phys, disc = make(eta=eta, dx=0.05, dy=0.05, dt=1e-4)
    ms = corrected_mms(eta, phys.nu, phys.lambda_ref)
    ap = build_system(grid, phys, disc, "ap")
    nv = build_system(grid, phys, disc, "naive")
    x, y = grid.node_coords()
    phi0 = ms.phi(0.5, x, y)
    s_ap = init_state(grid, phys, lambda xx, yy: ms.phi(0.5, xx, yy))
    s_nv = init_state(grid, phys, lambda xx, yy: ms.phi(0.5, xx, yy), scheme="naive")
    shifted = Forcing(volume=lambda t, xx, yy: ms.forcing.volume(t + 0.5, xx, yy))
    u_ap = lu_solve(lu_factorize(ap.matrix), assemble_ap_rhs(ap, s_ap, shifted))
    u_nv = lu_solve(lu_factorize(nv.matrix), assemble_ap_rhs(nv, s_nv, shifted))
    diff = np.abs(u_ap[0::2] - u_nv).max()
    assert diff <= 10 * disc.dx**2  # the schemes are in fact equivalent to roundoff
    assert diff <= 1e-7
    assert micro_macro_deviation(grid, u_ap, eta) <= disc.dx**2 + 1e-8


def test_micro_macro_deviation_matches_row_loop_in_full_mode():
    # band rows carry no ghosts and store the periodic seam column once
    eta = 0.3
    phys = PhysConfig(eta=eta, limiter_height=0.5)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=1e-3, mode="full")
    grid = build_grid(phys, disc)
    u = np.random.default_rng(7).standard_normal(grid.N)
    worst = 0.0
    for j in range(grid.Ny):
        if j < grid.j_l:  # face rows: the gap columns and a ghost outside each face
            cols = range(grid.I1 - 1, grid.I2 + 2)
        else:  # band rows: every column once, the seam twin folded onto 0
            cols = range(grid.n_band_cols)
        p = [u[grid.slot(PHI, i, j)] - eta * u[grid.slot(Q, i, j)] for i in cols]
        worst = max(worst, max(p) - min(p))
    assert micro_macro_deviation(grid, u, eta) == worst


def test_build_system_rejects_unknown_scheme():
    grid, phys, disc = make()
    with pytest.raises(ValueError, match="unknown scheme"):
        build_system(grid, phys, disc, "coupled")


@pytest.mark.parametrize("eta", [1.0, 1e-3, 1e-6, 0.0])
def test_ap_factorizes_across_eta(eta):
    grid, phys, disc = make(eta=eta)
    lu_factorize(build_system(grid, phys, disc, "ap").matrix)


@pytest.mark.parametrize("eta", [1.0, 1e-3, 1e-6])
def test_naive_factorizes_across_eta(eta):
    grid, phys, disc = make(eta=eta)
    lu_factorize(build_system(grid, phys, disc, "naive").matrix)


# ---- external format ------------------------------------------------------


def test_matrix_market_round_trip(tmp_path):
    grid, phys, disc = make()
    a = build_system(grid, phys, disc, "ap").matrix
    path = tmp_path / "system.mtx"
    write_matrix_market(a, path)
    b = scipy.io.mmread(path).tocsr()
    assert b.shape == a.shape
    assert np.array_equal(b.indices, a.indices)
    assert np.array_equal(b.data, a.data)
