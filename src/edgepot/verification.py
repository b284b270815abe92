"""Discrete norms, study drivers, a stability estimate and the initial-data check.

Three studies back the verification claims:

* mesh convergence against the manufactured solution (second order in
  space once dt is small enough);
* decay of ||phi_eta - phi_0|| as eta -> 0 for the separable ramp source,
  whose x-odd structure makes phi_0 = 0 the exact limit (the discrete
  solver reproduces phi = 0 identically at eta = 0);
* condition number of the constant matrix versus eta, coupled against
  single-field.

Each driver takes the run's ``PhysConfig`` and ``DiscConfig``, replaces
only the swept field, and refuses a mode other than 'strip'.

The condition study reports the Euclidean condition number of the Ruiz
row/column-equilibrated matrix, i.e. the conditioning of the system as a
scaled direct solver sees it.  The raw assembled matrix mixes row scales of
order 1 (gauge anchor), 1/dx (face rows) and 1/(dt dy^2) (evolution rows),
and its raw sigma_min is dominated by that bookkeeping disparity rather
than by the eta-coupling; after equilibration the eta-dependence is the
meaningful one: bounded for the coupled scheme, divergent for the
single-field one.

`amplification_factor` estimates the spectral radius of the linear step
map u^n -> u^{n+1} about the fixed point phi = lambda, q = 0, the linear
stability of the scheme on a given grid and time step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import System, build_system, sheath_law
from .errors import ConfigError, SingularPivotError
from .geometry import DiscConfig, Grid, PhysConfig, build_grid
from .linsolve import (
    POWER_SEED,
    CondEstimate,
    LUFactors,
    estimate_cond2,
    lu_factorize,
    lu_solve,
    power_iteration,
)
from .manufactured import SOURCES
from .timeloop import State, run


# ---- norms -----------------------------------------------------------


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    """L2(Omega) norm by the trapezoidal rule over the plasma nodes.

    ``values`` is aligned with the grid's node enumeration; the ghosts carry
    weight zero.
    """
    w = grid.quad_weights
    v = np.asarray(values, dtype=float)
    return float(np.sqrt(np.sum(w * v * v) * grid.dx * grid.dy))


def time_norms(values: Sequence[float], dt: float) -> tuple[float, float]:
    """Rectangle-rule L1 and L2 norms in time of per-step values."""
    v = np.asarray(values, dtype=float)
    return float(np.sum(v) * dt), float(np.sqrt(np.sum(v * v) * dt))


class TimeNormObserver:
    """Per-step L2(Omega) norm of phi, for norms in time.

    The initial state (n = 0) is skipped: the accumulators feed the
    rectangle rule with right endpoints, matching the first-order stepper.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.values: list[float] = []

    def __call__(self, state: State) -> None:
        if state.n == 0:
            return
        self.values.append(l2_norm(self.grid, state.phi))

    def norms(self, dt: float) -> tuple[float, float]:
        return time_norms(self.values, dt)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# ---- study records ---------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    dt: float
    err_l2: float


@dataclass(frozen=True)
class EtaRow:
    eta: float
    err_l1_time: float
    err_l2_time: float


@dataclass(frozen=True)
class CondRow:
    eta: float
    kappa_ap: float
    kappa_ap_converged: bool
    kappa_naive: Optional[float]
    kappa_naive_converged: Optional[bool]


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    order: float


@dataclass(frozen=True)
class EtaStudy:
    rows: tuple[EtaRow, ...]
    slope_l1: float
    slope_l2: float


@dataclass(frozen=True)
class CondStudy:
    rows: tuple[CondRow, ...]


# ---- study drivers ---------------------------------------------------


def _require_strip(disc: DiscConfig, study: str) -> None:
    """The studies mesh the strip only; refuse another mode before any work."""
    if disc.mode != "strip":
        raise ConfigError([f"InvalidMode: {study} runs on the strip, got mode {disc.mode!r}"])


def _require_sweep(
    study: str, tag: str, what: str, values: Sequence[float], fitted: bool = True
) -> None:
    """Refuse a sweep the study cannot run or fit, before any grid is built.

    A fitted study draws a line through the logs of the swept values, so it
    needs 2 distinct values, all > 0; the condition study needs 1.
    """
    need, distinct = (2 if fitted else 1), len(set(values))
    if distinct < need:
        raise ConfigError([f"{tag}: {study} needs at least {need} distinct {what}, got {distinct}"])
    bad = [v for v in values if not v > 0]
    if fitted and bad:
        raise ConfigError([f"{tag}: {study} fits a line through the logs of the {what}, "
                           f"so each must be > 0, got {bad[0]!r}"])


def run_mms_convergence(
    phys: PhysConfig,
    disc: DiscConfig,
    deltas: Sequence[float],
    source: str = "eq3_mms",
    scheme: str = "ap",
) -> ConvergenceStudy:
    """L2 error at t = T against the manufactured solution, per mesh step.

    Each mesh step replaces both ``disc.dx`` and ``disc.dy``.  ``source`` is
    a name of ``manufactured.SOURCES``; one without an exact solution or
    without a source term is refused with a ConfigError, and so are a mode
    other than 'strip', fewer than two distinct mesh steps and a step that
    is not > 0, through which no order can be fitted.  The single-field
    ``scheme`` is refused at eta = 0 with EtaZeroUndefinedError.
    """
    _require_strip(disc, "mms-convergence")
    _require_sweep("mms-convergence", "InvalidGrids", "mesh steps", deltas)
    ms = SOURCES[source](phys)
    if ms.phi is None or ms.forcing is None:
        raise ConfigError(
            [f"InvalidSource: {source!r} has no exact solution with a source term "
             "to converge to"]
        )
    rows = []
    for d in sorted(deltas, reverse=True):
        mesh = replace(disc, dx=d, dy=d)
        grid = build_grid(phys, mesh)
        final = run(build_system(grid, phys, mesh, scheme), ms.forcing, ms.phi_ini)
        x, y = grid.node_coords()
        err = l2_norm(grid, final.phi - ms.phi(final.t, x, y))
        rows.append(ConvergenceRow(h=d, dt=disc.dt, err_l2=err))
    order = fit_loglog_slope([r.h for r in rows], [r.err_l2 for r in rows])
    return ConvergenceStudy(rows=tuple(rows), order=order)


def run_eta_sweep(
    phys: PhysConfig, disc: DiscConfig, etas: Sequence[float], scheme: str = "ap"
) -> EtaStudy:
    """Distance to the eta = 0 limit for the separable ramp source, per eta.

    Each eta replaces ``phys.eta``; the sweep always runs the ``eq4`` source
    from phi_ini = 0 on the strip, for which the limit solution is
    identically zero at lambda = 0, so the error norms are plain norms of
    phi_eta.  Another lambda or mode is refused with a ConfigError, and so
    are fewer than two distinct etas and an eta that is not > 0, through
    which no slope can be fitted.  The O(eta) regime needs the parallel term
    (pi/2L)^2/eta to dominate the perpendicular one nu (2 pi)^4 over the
    sweep: at nu = 0.01 the crossover sits near eta = 1, at nu = 1 near
    eta = 1e-2.
    """
    _require_strip(disc, "eta-sweep")
    _require_sweep("eta-sweep", "InvalidEtas", "etas", etas)
    if phys.lambda_ref != 0:
        raise ConfigError(
            [f"InvalidLambda: eta-sweep measures the distance to the zero limit, which "
             f"holds at lambda = 0 only, got lambda {phys.lambda_ref!r}"]
        )
    rows = []
    for eta in sorted(etas, reverse=True):
        p = replace(phys, eta=eta)
        grid = build_grid(p, disc)
        obs = TimeNormObserver(grid)
        ms = SOURCES["eq4"](p)
        run(build_system(grid, p, disc, scheme), ms.forcing, ms.phi_ini, observers=[obs])
        l1, l2 = obs.norms(disc.dt)
        rows.append(EtaRow(eta=eta, err_l1_time=l1, err_l2_time=l2))
    slope_l1 = fit_loglog_slope([r.eta for r in rows], [r.err_l1_time for r in rows])
    slope_l2 = fit_loglog_slope([r.eta for r in rows], [r.err_l2_time for r in rows])
    return EtaStudy(rows=tuple(rows), slope_l1=slope_l1, slope_l2=slope_l2)


def run_condition_study(
    phys: PhysConfig, disc: DiscConfig, etas: Sequence[float]
) -> CondStudy:
    """Equilibrated condition number per eta, coupled and single-field.

    Each eta replaces ``phys.eta``; a mode other than 'strip' and an empty
    sweep are refused with a ConfigError.  The single-field entry is absent
    at eta = 0 (that scheme divides by eta) and whenever its factorization
    hits a sub-threshold pivot, which happens once eta is small enough to
    make the matrix numerically singular: near eta = 1e-13 on these strip
    grids, whose factorization tests the pivots of the row-scaled
    cosine-mode blocks.  The coupled scheme factors at every eta down to 0.
    The matrix does not depend on the source or the state, only on the
    grid, eta, nu and dt.
    """
    _require_strip(disc, "condition-study")
    _require_sweep("condition-study", "InvalidEtas", "etas", etas, fitted=False)
    rows = []
    for eta in sorted(etas, reverse=True):
        p = replace(phys, eta=eta)
        grid = build_grid(p, disc)
        ap = build_system(grid, p, disc, "ap")
        est = estimate_cond2(ap.matrix, lu_factorize(ap.matrix), equilibrate=True)
        kn: Optional[CondEstimate] = None
        if eta > 0:
            nv = build_system(grid, p, disc, "naive")
            try:
                kn = estimate_cond2(nv.matrix, lu_factorize(nv.matrix), equilibrate=True)
            except SingularPivotError:
                kn = None
        rows.append(
            CondRow(
                eta=eta,
                kappa_ap=est.value,
                kappa_ap_converged=est.converged,
                kappa_naive=None if kn is None else kn.value,
                kappa_naive_converged=None if kn is None else kn.converged,
            )
        )
    return CondStudy(rows=tuple(rows))


# ---- linear stability ----------------------------------------------

_AMPLIFICATION_TOL = 1e-10
_AMPLIFICATION_MAX_ITER = 10_000


@dataclass(frozen=True)
class AmplificationEstimate:
    value: float
    converged: bool
    iterations: int


def amplification_factor(system: System, factors: LUFactors) -> AmplificationEstimate:
    """Spectral radius of the step map G = M^-1 P, by power iteration.

    M is ``system.matrix``, ``factors`` its factors, and P is
    ``system.prev_op``.  About the fixed point phi = lambda, q = 0 the
    linearized sheath data is flat, so G is the exact linear step map there
    and rho(G) <= 1 is linear stability.  Each iteration costs one
    `lu_solve` and one product with P.  The estimate is the modulus of the
    dominant eigenvalue when that is real and simple; it converges at the
    ratio of the two largest moduli, and stops once it changes by at most
    1e-10 of itself.  Deterministic; if 10^4 iterations do not converge the
    value is returned with ``converged=False``.
    """
    rng = np.random.default_rng(POWER_SEED)
    rho, k, ok = power_iteration(
        lambda v: lu_solve(factors, system.prev_op @ v),
        system.matrix.shape[0],
        rng,
        _AMPLIFICATION_TOL,
        _AMPLIFICATION_MAX_ITER,
    )
    return AmplificationEstimate(value=float(rho), converged=ok, iterations=k)


# ---- compatibility of the initial data --------------------------------


@dataclass(frozen=True)
class CompatibilityReport:
    lhs: float  # integral of S at t = 0 over Omega
    rhs: float  # int_0^l d_x q|_{x=-L} - d_x q|_{x=L} dy; nu d_y^4 phi integrates to 0
    mismatch: float
    ok: bool


def validate_compatibility(
    phys: PhysConfig, phi_ini: Callable, source: Optional[Callable]
) -> CompatibilityReport:
    """Check the initial compatibility between source, data and sheath.

    Integrated over Omega, -d_t d_y^2 phi and nu d_y^4 phi vanish under the
    wall conditions d_y phi = d_y^3 phi = 0 (in the discrete model too: the
    trapezoid weights are a left null vector of the mirror second
    difference), and -d_x^2 q leaves its fluxes through the limiter faces.
    So this checks, by trapezoidal quadrature,

        int_Omega S|_{t=0}  ==  int_0^l (d_x q|_{x=-L} - d_x q|_{x=L}) dy

    with d_x q = `assembly.sheath_law` of phi_ini on each face, and warns
    (advisory only) when the mismatch exceeds 1e-6 max(1, |lhs|).  Omega is
    the full-height strip |x| <= L and, when l < 1, the band L <= |x| <= 0.5,
    l <= y <= 1, each rectangle on 401 x 401 points; each face has 401.
    """
    L, l, lam = phys.L, phys.limiter_height, phys.lambda_ref
    n = 401  # quadrature points per direction
    rectangles = [(np.linspace(-L, L, n), np.linspace(0.0, 1.0, n))]
    if l < 1.0:
        band_ys = np.linspace(l, 1.0, n)
        rectangles += [(np.linspace(-0.5, -L, n), band_ys), (np.linspace(L, 0.5, n), band_ys)]
    lhs = 0.0
    if source is not None:
        for xs, ys in rectangles:
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            s0 = np.broadcast_to(np.asarray(source(0.0, X, Y), dtype=float), X.shape)
            lhs += float(np.trapezoid(np.trapezoid(s0, ys, axis=1), xs))

    ys = np.linspace(0.0, l, n)
    phi_w, phi_e = (
        np.broadcast_to(np.asarray(phi_ini(np.full_like(ys, x), ys), dtype=float), ys.shape)
        for x in (-L, L)
    )
    rhs = float(np.trapezoid(sheath_law(-1, phi_w, lam) - sheath_law(1, phi_e, lam), ys))

    mismatch = abs(lhs - rhs)
    ok = mismatch <= 1e-6 * max(1.0, abs(lhs))
    if not ok:
        warnings.warn(
            f"initial data incompatible with the source: |lhs - rhs| = {mismatch:.3e}",
            stacklevel=2,
        )
    return CompatibilityReport(lhs=lhs, rhs=rhs, mismatch=mismatch, ok=ok)
