import warnings
from dataclasses import replace

import numpy as np
import pytest

from edgepot.assembly import Forcing, build_system
from edgepot.errors import ConfigError
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import lu_factorize, ruiz_scalings
from edgepot.manufactured import SOURCES, eq4_source, mms_source
from edgepot.timeloop import run
from edgepot.verification import (
    TimeNormObserver,
    amplification_factor,
    fit_loglog_slope,
    l2_norm,
    run_condition_study,
    run_eta_sweep,
    run_mms_convergence,
    time_norms,
    validate_compatibility,
)


def strip_grid(dx=0.05, dy=0.05):
    return build_grid(
        PhysConfig(eta=1e-3), DiscConfig(dx=dx, dy=dy, dt=1e-3, mode="strip")
    )


# ---- space norm -------------------------------------------------------------


def test_l2_norm_of_one_is_sqrt_area():
    grid = strip_grid()
    ones = np.ones(len(grid.phi_nodes))
    assert l2_norm(grid, ones) == pytest.approx(0.8944271909999159)


def test_l2_norm_of_zero():
    grid = strip_grid()
    assert l2_norm(grid, np.zeros(len(grid.phi_nodes))) == 0.0


def test_l2_norm_of_periodic_mode_is_exact():
    # ||cos(2 pi y)||^2 = 0.8 * 0.5; the trapezoidal rule is exact for
    # trigonometric modes sampled on period-aligned uniform grids
    for d in (0.05, 0.025):
        grid = strip_grid(dy=d, dx=0.05)
        _, y = grid.node_coords()
        assert l2_norm(grid, np.cos(2 * np.pi * y)) == pytest.approx(
            0.6324555320336759, abs=1e-12
        )


def test_l2_norm_second_order_on_generic_smooth_field():
    # ||exp(y)||^2 = 0.8 * (e^2 - 1)/2 over the strip
    exact = np.sqrt(0.8 * (np.e**2 - 1) / 2)
    errs = []
    for d in (0.05, 0.025):
        grid = strip_grid(dy=d, dx=0.05)
        _, y = grid.node_coords()
        errs.append(abs(l2_norm(grid, np.exp(y)) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_l2_norm_scales_linearly():
    grid = strip_grid()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(len(grid.phi_nodes))
    assert l2_norm(grid, 3.0 * f) == pytest.approx(3.0 * l2_norm(grid, f))


# ---- time norms --------------------------------------------------------------


def test_time_norms_of_constant():
    values = np.ones(1000)
    assert time_norms(values, 1e-3) == pytest.approx((1.0, 1.0))


def test_time_norms_of_zero():
    assert time_norms(np.zeros(10), 0.1) == (0.0, 0.0)


def test_time_norms_of_ramp():
    dt = 1e-3
    values = np.arange(1, 1001) * dt  # v_n = t_n on (0, 1]
    l1, l2 = time_norms(values, dt)
    assert l1 == pytest.approx(0.5, abs=1e-3)
    assert l2 == pytest.approx(1 / np.sqrt(3.0), abs=1e-3)


def test_fit_loglog_slope_recovers_power():
    xs = [0.1, 0.05, 0.025]
    ys = [7 * x**2 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(2.0)


# ---- study drivers ------------------------------------------------------------

# the mms study replaces dx and dy with each of its mesh steps
DISC = DiscConfig(dx=0.1, dy=0.1, dt=1e-4)


def test_mms_convergence_small_study_second_order():
    study = run_mms_convergence(PhysConfig(eta=1e-3, t_end=0.25), DISC, [0.1, 0.05])
    assert [r.h for r in study.rows] == [0.1, 0.05]
    assert study.order == pytest.approx(2.0, abs=0.4)


def test_mms_convergence_smooth_variant():
    study = run_mms_convergence(
        PhysConfig(eta=1e-3, t_end=0.25), DISC, [0.1, 0.05], source="smooth_mms"
    )
    assert study.order == pytest.approx(2.0, abs=0.4)


def test_mms_convergence_smooth_variant_follows_L():
    # the manufactured sheath data sits on the grid's faces x = +-L, not +-0.4
    study = run_mms_convergence(
        PhysConfig(eta=1e-2, L=0.3, t_end=0.2), replace(DISC, dt=1e-3), [0.1, 0.05, 0.025],
        source="smooth_mms",
    )
    assert study.order >= 1.85


def test_mms_convergence_reference_solution_follows_L():
    # the reference solution satisfies the sheath law on the grid's faces x = +-L
    study = run_mms_convergence(
        PhysConfig(eta=1e-2, L=0.3, t_end=0.2), DISC, [0.1, 0.05, 0.025], source="eq3_mms"
    )
    assert 1.7 <= study.order <= 2.0


def test_mms_convergence_single_field_matches_coupled():
    # for eta > 0 the two schemes are algebraically equivalent
    cfg = (PhysConfig(eta=1e-3, t_end=0.2), replace(DISC, dt=5e-4))
    ap = run_mms_convergence(*cfg, [0.1, 0.05], scheme="ap")
    naive = run_mms_convergence(*cfg, [0.1, 0.05], scheme="naive")
    for a, n in zip(ap.rows, naive.rows):
        assert n.err_l2 == pytest.approx(a.err_l2, rel=1e-8)
    assert naive.order == pytest.approx(ap.order, rel=1e-8)


def test_mms_convergence_coupled_error_is_uniform_in_eta():
    # asymptotic preservation: the coupled scheme's error bound does not grow as
    # eta -> 0; no order is pinned, as at this dt the time error dominates
    studies = [
        run_mms_convergence(PhysConfig(eta=eta, t_end=0.05), DISC, [0.05, 0.025])
        for eta in (1e-1, 1e-4, 0.0)
    ]
    for rows in zip(*(s.rows for s in studies)):
        errs = [r.err_l2 for r in rows]
        assert max(errs) <= 1.05 * min(errs), errs


@pytest.mark.parametrize("eta", [1e-3, 0.0])
def test_coupled_space_order_of_time_extrapolated_solutions(eta):
    # Richardson in time, 2 phi(dt/2) - phi(dt), removes Euler's O(dt) error, so
    # the fitted order is the space order the time error hides in the study
    phys = PhysConfig(eta=eta, t_end=0.05)
    ms = SOURCES["eq3_mms"](phys)
    hs, errs = [0.05, 0.025, 0.0125], []
    for h in hs:
        phi = []
        for dt in (2.5e-4, 1.25e-4):
            disc = DiscConfig(dx=h, dy=h, dt=dt)
            grid = build_grid(phys, disc)
            phi.append(run(build_system(grid, phys, disc, "ap"), ms.forcing, ms.phi_ini).phi)
        x, y = grid.node_coords()
        errs.append(l2_norm(grid, 2 * phi[1] - phi[0] - ms.phi(phys.t_end, x, y)))
    assert 1.9 <= fit_loglog_slope(hs, errs) <= 2.1, errs


@pytest.mark.parametrize("deltas", [[0.1], [0.05, 0.05]], ids=["one", "repeated"])
def test_mms_convergence_refuses_fewer_than_two_mesh_steps(deltas):
    # a slope through one point is undefined; refused before any grid runs
    with pytest.raises(ConfigError, match="InvalidGrids.* got 1$"):
        run_mms_convergence(PhysConfig(eta=1e-3, t_end=0.25), DISC, deltas)


def test_mms_convergence_exposes_dt_floor():
    # coarse dt: halving dx leaves the error nearly unchanged
    study = run_mms_convergence(
        PhysConfig(eta=1e-3, t_end=0.25), replace(DISC, dt=0.05), [0.1, 0.05]
    )
    e = [r.err_l2 for r in study.rows]
    assert e[0] / e[1] < 1.5


def test_eta_sweep_exact_zero_limit():
    # at eta = 0 the x-odd ramp source leaves phi identically zero
    phys = PhysConfig(eta=0.0, nu=0.01, t_end=0.05)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=1e-2, mode="strip")
    grid = build_grid(phys, disc)
    obs = TimeNormObserver(grid)
    run(
        build_system(grid, phys, disc, "ap"),
        Forcing(volume=lambda t, x, y: eq4_source(t, x, y, 0.4)),
        lambda x, y: np.zeros_like(x),
        observers=[obs],
    )
    assert max(obs.values) <= 1e-8


def test_eta_sweep_slope_near_one():
    study = run_eta_sweep(
        PhysConfig(eta=0.0, nu=0.01), DiscConfig(dx=0.05, dy=0.05, dt=1e-2), [1e-2, 1e-3, 1e-4]
    )
    assert study.slope_l1 == pytest.approx(1.0, abs=0.15)
    assert study.slope_l2 == pytest.approx(1.0, abs=0.15)
    etas = [r.eta for r in study.rows]
    assert etas == sorted(etas, reverse=True)


def test_condition_study_rows_and_determinism():
    etas = [1e-2, 0.0]
    cfg = (PhysConfig(eta=0.0), DiscConfig(dx=0.1, dy=0.1, dt=1e-3))
    a = run_condition_study(*cfg, etas)
    b = run_condition_study(*cfg, etas)
    assert [r.eta for r in a.rows] == [1e-2, 0.0]
    assert a.rows[0].kappa_naive is not None
    assert a.rows[1].kappa_naive is None  # single-field absent at eta = 0
    assert np.isfinite(a.rows[1].kappa_ap)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb  # bit-identical across repeated runs


def test_condition_study_leaves_out_a_refused_single_field_factorization():
    # at eta = 1e-14 the row-scaled single-field pivot falls below the threshold
    study = run_condition_study(
        PhysConfig(eta=0.0), DiscConfig(dx=0.0125, dy=0.0125, dt=1e-3), [1e-14]
    )
    (row,) = study.rows
    assert row.kappa_naive is None and row.kappa_naive_converged is None
    assert np.isfinite(row.kappa_ap) and row.kappa_ap_converged


@pytest.mark.parametrize(
    "study, swept",
    [(run_mms_convergence, [0.1, 0.05]), (run_eta_sweep, [1e-2]), (run_condition_study, [1e-2])],
    ids=["mms", "eta", "cond"],
)
def test_study_drivers_refuse_full_mode(study, swept):
    phys = PhysConfig(eta=1e-2, limiter_height=0.5, t_end=0.1)
    disc = DiscConfig(dx=0.1, dy=0.1, dt=1e-2, mode="full")
    with pytest.raises(ConfigError, match="InvalidMode"):
        study(phys, disc, swept)


# ---- compatibility -------------------------------------------------------------


def test_compatibility_ramp_source_config():
    phys = PhysConfig(eta=1e-3, lambda_ref=0.0)
    report = validate_compatibility(
        phys,
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        lambda t, x, y: eq4_source(t, x, y, phys.L),
    )
    assert report.ok
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def test_compatibility_reference_mms_config():
    phys = PhysConfig(eta=1e-3, lambda_ref=0.3)
    report = validate_compatibility(
        phys,
        lambda x, y: np.full_like(np.asarray(x, dtype=float), 0.3),
        lambda t, x, y: mms_source(t, x, y, phys.eta, phys.nu),
    )
    assert report.ok


def test_compatibility_warns_on_mismatch():
    phys = PhysConfig(eta=1e-3, lambda_ref=0.0)
    with pytest.warns(UserWarning, match="incompatible"):
        report = validate_compatibility(
            phys,
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            lambda t, x, y: np.ones_like(np.asarray(x, dtype=float)),
        )
    assert not report.ok
    assert report.lhs == pytest.approx(0.8)  # |Omega| for L = 0.4
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def test_compatibility_integrates_over_the_band_in_full_geometry():
    # |Omega| = 2L + (1 - 2L)(1 - l) = 0.9, the sum of the full grid's quadrature weights
    phys = PhysConfig(eta=1e-3, L=0.4, limiter_height=0.5)
    grid = build_grid(phys, DiscConfig(dx=0.05, dy=0.05, dt=1e-3, mode="full"))
    assert grid.quad_weights.sum() * grid.dx * grid.dy == pytest.approx(0.9)
    with pytest.warns(UserWarning, match="incompatible"):
        report = validate_compatibility(
            phys,
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            lambda t, x, y: np.ones_like(np.asarray(x, dtype=float)),
        )
    assert report.lhs == pytest.approx(0.9)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def _constant_source(value):
    return lambda t, x, y: np.full_like(np.asarray(x, dtype=float), value)


def test_compatibility_face_integral_ends_at_the_limiter_height():
    # constant data: lhs = S |Omega| and rhs = 2 l (1 - e^{lambda - c}) exactly
    phys = PhysConfig(eta=1e-3, L=0.4, limiter_height=1 / 3)
    area = 2 * phys.L + (1 - 2 * phys.L) * (1 - phys.limiter_height)
    rhs = 2 * phys.limiter_height * (1 - np.exp(-1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_compatibility(
            phys, lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
            _constant_source(rhs / area),
        )
    assert report.ok
    assert report.rhs == pytest.approx(rhs, rel=1e-14)
    assert report.mismatch <= 1e-14


@pytest.mark.parametrize(
    "phi_ini",
    [lambda x, y: 0.01 * np.exp(8 * y) + 0 * x,
     lambda x, y: np.cos(3 * np.pi * y) + y**4 / 2 + 0 * x],
    ids=["exp", "cos"],
)
def test_compatibility_rhs_is_the_face_integral_alone(phi_ini):
    # nu d_y^4 phi integrates to zero under the wall conditions, so only the
    # sheath fluxes through the two faces remain
    phys = PhysConfig(eta=1e-3, nu=1.0)
    ys = np.linspace(0.0, 1.0, 401)
    faces = 2 * np.trapezoid(1 - np.exp(-phi_ini(0 * ys, ys)), ys)
    report = validate_compatibility(phys, phi_ini, _constant_source(faces / (2 * phys.L)))
    assert report.ok
    assert report.rhs == pytest.approx(faces, rel=1e-14)


def test_compatibility_reads_both_faces_of_x_dependent_data():
    # phi_ini = x: int_0^1 (1 - e^{L}) + (1 - e^{-L}) dy, not twice the east face
    phys = PhysConfig(eta=1e-3, L=0.4)
    faces = 2 - np.exp(phys.L) - np.exp(-phys.L)
    report = validate_compatibility(
        phys, lambda x, y: np.asarray(x, dtype=float) + 0 * y,
        _constant_source(faces / (2 * phys.L)),
    )
    assert report.ok
    assert report.rhs == pytest.approx(faces, rel=1e-14)


# ---- linear stability --------------------------------------------------------


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("eta,scheme", [(1e-2, "ap"), (0.0, "ap"), (1e-2, "naive")])
@pytest.mark.parametrize("mode,l", [("strip", 1.0), ("full", 0.5)])
def test_amplification_factor_matches_dense_eigenvalues(mode, l, eta, scheme, dt):
    phys = PhysConfig(eta=eta, limiter_height=l)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=dt, mode=mode)
    system = build_system(build_grid(phys, disc), phys, disc, scheme)
    est = amplification_factor(system, lu_factorize(system.matrix))
    # G = M^-1 P is similar to (Dr M Dc)^-1 Dr P Dc; the raw dense solve is
    # off by 3e-6 in rho at dt = 1e-3, the equilibrated one is not
    dr, dc, scaled = ruiz_scalings(system.matrix)
    g = np.linalg.solve(scaled.toarray(), dr[:, None] * system.prev_op.toarray() * dc)
    rho = np.abs(np.linalg.eigvals(g)).max()
    assert est.converged
    assert est.value == pytest.approx(rho, rel=1e-7)
