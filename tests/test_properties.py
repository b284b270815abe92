"""Invariants of the model checked on random coarse strip and full configurations.

Each strip example draws a grid of nx by ny cells, a half-gap L, the
viscosity, the sheath reference lambda and the time step; eta is drawn
log-uniformly where a range is given.  A full example draws the number of
cells across each half of the domain and the gap's share of them (so L),
the number of cells in y and the limiter's share of them (so l), the
viscosity and the time step.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import SuperLU

from edgepot.assembly import build_system, micro_macro_deviation
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import lu_factorize, lu_solve, ruiz_scalings
from edgepot.manufactured import SOURCES
from edgepot.timeloop import init_state, step

STEPS = 20


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


strip_configs = st.fixed_dictionaries(
    {
        "nx": st.integers(4, 10),
        "ny": st.integers(4, 10),
        "L": st.sampled_from([0.3, 0.4]),
        "nu": log_uniform(1e-2, 10.0),
        "lam": st.floats(-1.0, 1.0),
        "dt": log_uniform(1e-3, 1e-1),
    }
)

examples = settings(max_examples=25, derandomize=True, deadline=None)


def make(cfg, eta):
    phys = PhysConfig(eta=eta, nu=cfg["nu"], lambda_ref=cfg["lam"], L=cfg["L"])
    disc = DiscConfig(dx=2 * cfg["L"] / cfg["nx"], dy=1.0 / cfg["ny"], dt=cfg["dt"])
    return build_grid(phys, disc), phys, disc


def advance(grid, phys, disc, scheme, forcing, phi_ini):
    system = build_system(grid, phys, disc, scheme)
    factors = lu_factorize(system.matrix)
    state = init_state(grid, phys, phi_ini, scheme=scheme)
    for _ in range(STEPS):
        state = step(state, factors, system, forcing)
        yield state


@examples
@given(cfg=strip_configs, eta=st.one_of(st.just(0.0), log_uniform(1e-8, 1.0)))
def test_fixed_point_phi_lambda_q_zero(cfg, eta):
    grid, phys, disc = make(cfg, eta)
    ms = SOURCES["zero"](phys)
    for state in advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini):
        assert np.abs(state.phi - phys.lambda_ref).max() <= 1e-9
        assert np.abs(state.q).max() <= 1e-9


@examples
@given(cfg=strip_configs, eta=log_uniform(1e-4, 1.0))
def test_coupled_equals_single_field(cfg, eta):
    grid, phys, disc = make(cfg, eta)
    ms = SOURCES["eq4"](phys)
    coupled = advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini)
    single = advance(grid, phys, disc, "naive", ms.forcing, ms.phi_ini)
    for a, n in zip(coupled, single):
        assert np.abs(a.phi - n.phi).max() <= 1e-8 * np.abs(a.phi).max()


@examples
@given(cfg=strip_configs, eta=st.one_of(st.just(0.0), log_uniform(1e-8, 1.0)))
def test_macro_field_constant_along_x(cfg, eta):
    # the coupling and flux-match rows make p = phi - eta q constant along x
    grid, phys, disc = make(cfg, eta)
    ms = SOURCES["eq4"](phys)
    for state in advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini):
        scale = max(1.0, np.abs(state.phi).max())
        assert micro_macro_deviation(grid, state.u, eta) <= 1e-12 * scale


@examples
@given(cfg=strip_configs)
def test_x_odd_forcing_vanishes_in_the_zero_limit(cfg):
    # at eta = 0 phi is constant along x, and the x-odd ramp source averages to zero
    grid, phys, disc = make({**cfg, "lam": 0.0}, 0.0)
    ms = SOURCES["eq4"](phys)
    for state in advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini):
        assert np.abs(state.phi).max() <= 1e-12


def assert_fast_path_matches_superlu(a, factors, trans, refined_splu_solve):
    b = np.random.default_rng(17).standard_normal(a.shape[0])
    ref, _ = refined_splu_solve(a, b, trans)
    x = lu_solve(factors, b, trans=trans)
    # 1e-7, or the forward-error bound kappa * eps of a backward-stable solve
    # of the equilibrated system where that is larger: the single-field
    # system at eta below about 1e-7, whose equilibrated kappa reaches 1e10
    kappa = np.linalg.cond(ruiz_scalings(a)[2].toarray())
    tol = max(1e-7, kappa * np.finfo(float).eps)
    assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)


solver_cases = dict(
    eta=st.one_of(st.just(0.0), log_uniform(1e-8, 1.0)),
    scheme=st.sampled_from(["ap", "naive"]),
    trans=st.sampled_from(["N", "T"]),
)


@examples
@given(cfg=strip_configs, **solver_cases)
def test_cosine_mode_path_matches_superlu(cfg, eta, scheme, trans, refined_splu_solve):
    assume(scheme == "ap" or eta > 0)  # the single-field scheme divides by eta
    grid, phys, disc = make(cfg, eta)
    a = build_system(grid, phys, disc, scheme).matrix
    factors = lu_factorize(a)
    assert not isinstance(factors.pieces[0], SuperLU)  # the strip took the cosine-mode path
    assert_fast_path_matches_superlu(a, factors, trans, refined_splu_solve)


full_configs = st.fixed_dictionaries(
    {
        # (cells per half-width, of which inside the gap): L = gap / (2 half)
        "x": st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        # (cells in y, of which below the limiter top): l = below / ny, 5 band rows at least
        "y": st.integers(5, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 4))),
        "nu": log_uniform(1e-2, 10.0),
        "dt": log_uniform(1e-3, 1e-1),
    }
)


def make_full(cfg, eta):
    (half, gap), (ny, below) = cfg["x"], cfg["y"]
    dx = 0.5 / half
    phys = PhysConfig(eta=eta, nu=cfg["nu"], L=gap * dx, limiter_height=below / ny)
    disc = DiscConfig(dx=dx, dy=1.0 / ny, dt=cfg["dt"], mode="full")
    return build_grid(phys, disc), phys, disc


@examples
@given(cfg=full_configs, eta=log_uniform(1e-4, 1.0))
def test_coupled_equals_single_field_in_full_geometry(cfg, eta):
    grid, phys, disc = make_full(cfg, eta)
    ms = SOURCES["eq4"](phys)
    coupled = advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini)
    single = advance(grid, phys, disc, "naive", ms.forcing, ms.phi_ini)
    for a, n in zip(coupled, single):
        assert np.abs(a.phi - n.phi).max() <= 1e-8 * np.abs(a.phi).max()


@examples
@given(cfg=full_configs, eta=st.one_of(st.just(0.0), log_uniform(1e-8, 1.0)))
def test_macro_field_constant_along_x_in_full_geometry(cfg, eta):
    # also on the band rows above the limiter, where x is periodic
    grid, phys, disc = make_full(cfg, eta)
    ms = SOURCES["eq4"](phys)
    for state in advance(grid, phys, disc, "ap", ms.forcing, ms.phi_ini):
        scale = max(1.0, np.abs(state.phi).max())
        assert micro_macro_deviation(grid, state.u, eta) <= 1e-12 * scale


@examples
@given(cfg=full_configs, **solver_cases)
def test_column_block_path_matches_superlu_in_full_geometry(
    cfg, eta, scheme, trans, refined_splu_solve
):
    assume(scheme == "ap" or eta > 0)
    (half, gap), (ny, below) = cfg["x"], cfg["y"]
    dx = 0.5 / half
    phys = PhysConfig(eta=eta, nu=cfg["nu"], L=gap * dx, limiter_height=below / ny)
    disc = DiscConfig(dx=dx, dy=1.0 / ny, dt=cfg["dt"], mode="full")
    a = build_system(build_grid(phys, disc), phys, disc, scheme).matrix
    factors = lu_factorize(a)
    assert factors.interface is not None  # the column-block path, not SuperLU
    assert_fast_path_matches_superlu(a, factors, trans, refined_splu_solve)


@examples
@given(cfg=strip_configs, eta=st.one_of(st.just(0.0), log_uniform(1e-8, 1.0)),
       scheme=st.sampled_from(["ap", "naive"]))
def test_strip_balance_law(cfg, eta, scheme):
    # summed with the trapezoid weights, the y-differences telescope to zero
    # and the x-differences to the face fluxes that the sheath rows carry:
    # w^T P = 0, and w^T M lies on the sheath rows off the face-phi columns
    assume(scheme == "ap" or eta > 0)
    grid, phys, disc = make(cfg, eta)
    system = build_system(grid, phys, disc, scheme)
    m, p = system.matrix, system.prev_op
    w = np.zeros(m.shape[0])
    w[system.src_rows] = grid.quad_weights[grid.plasma_ordinals]
    assert np.abs(p.T @ w).max() <= 1e-12 * (abs(p).T @ np.abs(w)).max()

    off = np.setdiff1d(np.arange(m.shape[1]), system.sheath_phi)
    sheath = m[system.sheath_rows][:, off].toarray()
    flux = (m.T @ w)[off]
    c = np.linalg.lstsq(sheath.T, flux, rcond=None)[0]
    assert np.abs(flux - sheath.T @ c).max() <= 1e-12 * (abs(m).T @ np.abs(w)).max()
