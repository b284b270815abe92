from dataclasses import replace

import numpy as np
import pytest

import edgepot.timeloop
from edgepot.assembly import ZERO_FORCING, build_system
from edgepot.errors import NonFiniteInitialError
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import lu_factorize
from edgepot.manufactured import corrected_mms
from edgepot.timeloop import init_state, n_steps, run, step


def make(eta=1e-3, lam=0.0, nu=1.0, T=0.01, dx=0.1, dy=0.1, dt=1e-3):
    phys = PhysConfig(eta=eta, nu=nu, lambda_ref=lam, t_end=T)
    disc = DiscConfig(dx=dx, dy=dy, dt=dt, mode="strip")
    return build_grid(phys, disc), phys, disc


def make_system(scheme="ap", **kw):
    grid, phys, disc = make(**kw)
    return build_system(grid, phys, disc, scheme)


# ---- initialization -------------------------------------------------------


def test_init_uniform_reference_potential():
    grid, phys, _ = make(lam=2.0)
    state = init_state(grid, phys, lambda x, y: np.full_like(x, 2.0))
    assert np.all(state.phi == 2.0)
    assert np.all(state.q == 0.0)
    assert state.n == 0 and state.t == 0.0


def test_init_broadcasts_a_scalar_initial_value():
    grid, phys, _ = make()
    state = init_state(grid, phys, lambda x, y: 0.25)
    assert state.phi.shape == (grid.N // 2,)
    assert np.all(state.phi == 0.25) and np.all(state.q == 0.0)


def test_init_mms_at_t0_equals_reference():
    grid, phys, _ = make(lam=0.5)
    ms = corrected_mms(phys.eta, phys.nu, 0.5)
    state = init_state(grid, phys, ms.phi_ini)
    assert state.phi == pytest.approx(0.5)


def test_init_flags_x_dependent_data():
    grid, phys, _ = make()
    with pytest.warns(UserWarning, match="varies along x"):
        init_state(grid, phys, lambda x, y: x)


def test_init_rejects_non_finite():
    grid, phys, _ = make()
    with pytest.raises(NonFiniteInitialError):
        init_state(grid, phys, lambda x, y: np.full_like(x, np.inf))


# ---- stepping -------------------------------------------------------------


def test_zero_state_is_exact_fixed_point():
    grid, phys, disc = make(lam=0.0)
    system = build_system(grid, phys, disc, "ap")
    factors = lu_factorize(system.matrix)
    state = init_state(grid, phys, lambda x, y: np.zeros_like(x))
    nxt = step(state, factors, system, ZERO_FORCING)
    assert np.all(nxt.u == 0.0)  # rhs is exactly zero
    assert nxt.n == 1
    assert nxt.t == pytest.approx(disc.dt)


def test_reference_potential_is_fixed_point():
    grid, phys, disc = make(lam=5.0, dx=0.2, dy=0.25, dt=1e-2)
    system = build_system(grid, phys, disc, "ap")
    factors = lu_factorize(system.matrix)
    state = init_state(grid, phys, lambda x, y: np.full_like(x, 5.0))
    nxt = step(state, factors, system, ZERO_FORCING)
    assert np.abs(nxt.phi - 5.0).max() <= 1e-9
    assert np.abs(nxt.q).max() <= 1e-9


@pytest.mark.filterwarnings("ignore:initial data varies")
def test_one_step_defect_bounded_by_dt_and_mesh():
    """One step from exact data: defect <= C (dt + dx^2 + dy^2).

    Measured defects are dt * (a + b dx^2) with a ~ 2e-2 for this solution,
    so the bound holds with C = 0.01: the dt part scales linearly and the
    spatial part is second order.
    """

    def one_step_defect(d, dt):
        grid, phys, disc = make(dx=d, dy=d, dt=dt)
        ms = corrected_mms(phys.eta, phys.nu, phys.lambda_ref)
        system = build_system(grid, phys, disc, "ap")
        factors = lu_factorize(system.matrix)
        t0 = 0.5
        state = init_state(grid, phys, lambda x, y: ms.phi(t0, x, y))
        shifted = type(ms.forcing)(
            volume=lambda t, x, y: ms.forcing.volume(t + t0, x, y)
        )
        nxt = step(state, factors, system, shifted)
        x, y = grid.node_coords()
        exact = ms.phi(t0 + dt, x, y)
        return np.abs((nxt.phi - exact)[grid.plasma_ordinals]).max()

    for d in (0.1, 0.05):
        for dt in (1e-3, 1e-4):
            assert one_step_defect(d, dt) <= 0.01 * (dt + 2 * d * d)
    # the defect from exact data is dominated by its O(dt) component
    ratio = one_step_defect(0.05, 1e-3) / one_step_defect(0.05, 1e-4)
    assert ratio == pytest.approx(10.0, rel=0.2)


# ---- run ------------------------------------------------------------------


def test_run_executes_t_over_dt_steps():
    final = run(make_system(T=0.01, dt=1e-3), ZERO_FORCING, lambda x, y: np.zeros_like(x))
    assert final.n == 10
    assert final.t == pytest.approx(0.01)


def test_run_zero_config_returns_zero():
    final = run(make_system(), ZERO_FORCING, lambda x, y: np.zeros_like(x))
    assert np.all(final.u == 0.0)


def test_run_t_zero_returns_initial_state():
    system = make_system()
    system = replace(system, phys=replace(system.phys, t_end=0.0))  # below what configs accept
    final = run(system, ZERO_FORCING, lambda x, y: np.full_like(x, 1.5))
    assert final.n == 0
    assert np.all(final.phi == 1.5)


def test_n_steps_warns_when_not_integral():
    assert n_steps(1.0, 1e-3) == 1000
    with pytest.warns(UserWarning, match="NonIntegralStepCount"):
        assert n_steps(0.0105, 1e-3) == 11


def test_run_factorizes_exactly_once(monkeypatch):
    calls = []
    original = edgepot.timeloop.lu_factorize

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(edgepot.timeloop, "lu_factorize", counting)
    run(make_system(T=0.1, dt=1e-3), ZERO_FORCING, lambda x, y: np.zeros_like(x))  # 100 steps
    assert len(calls) == 1


def test_observers_see_initial_state_and_every_step():
    seen = []
    run(
        make_system(T=0.005, dt=1e-3),
        ZERO_FORCING,
        lambda x, y: np.zeros_like(x),
        observers=[lambda s: seen.append(s.n)],
    )
    assert seen == [0, 1, 2, 3, 4, 5]


def test_run_naive_scheme():
    final = run(
        make_system("naive", eta=1e-2, lam=1.0, T=0.01), ZERO_FORCING,
        lambda x, y: np.full_like(x, 1.0),
    )
    assert final.q is None
    assert np.abs(final.phi - 1.0).max() <= 1e-9


def test_anchor_entries_stay_zero_and_splitting_holds():
    from edgepot.assembly import micro_macro_deviation

    grid, phys, disc = make(eta=1e-2, T=0.02)
    ms = corrected_mms(phys.eta, phys.nu, phys.lambda_ref)
    deviations = []
    final = run(
        build_system(grid, phys, disc, "ap"), ms.forcing, ms.phi_ini,
        observers=[
            lambda s: deviations.append(micro_macro_deviation(grid, s.u, phys.eta))
        ],
    )
    anchors = [final.q[grid.ordinal(grid.I1, j)] for j in range(grid.Ny)]
    assert np.abs(anchors).max() <= 1e-12
    # p = phi - eta q stays x-constant to solver residual at every step
    assert max(deviations) <= disc.dx**2 + 1e-8
