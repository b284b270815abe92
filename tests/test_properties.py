"""Invariants of the model checked on random coarse strip configurations.

Each example draws a strip grid of nx by ny cells, a half-gap L, the
viscosity, the sheath reference lambda and the time step; eta is drawn
log-uniformly where a range is given.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepot.assembly import build_system, micro_macro_deviation
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import lu_factorize
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
