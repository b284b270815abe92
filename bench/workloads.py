"""The three benchmark workloads and the correctness gate of each.

Every workload calls the public functions of the edgepot modules and times
them from outside the package.  A stepping workload repeats whole runs
(grid, system, factorization, STEPS steps, one condition estimate) until its
time is up; the condition sweep repeats the sweep over (eta, scheme).  The
gates run outside the timed regions.
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from edgepot import assembly, geometry, linsolve, timeloop, verification
from edgepot.errors import EdgepotError, SingularPivotError
from edgepot.geometry import DiscConfig, PhysConfig
from edgepot.manufactured import corrected_mms, eq4_source

clock = time.perf_counter

L, NU, LAMBDA = 0.4, 1.0, 0.0
FINE_H, FINE_DT = 0.00625, 1e-4  # finest criterion-1 grid
STEPS = 100  # steps per stepping run: 10^4 would take about 330 s
MMD_EVERY = 10
COND_H, COND_DT = 0.0125, 1e-3
COND_ETAS = (1e-2, 1e-4, 1e-6, 1e-8, 0.0)
ETA_JITTER = 0.1  # a seed draws each eta > 0 log-uniformly within +-10%
LU_ENTRY_BYTES = 12  # one float64 value and one int32 index per stored factor entry

# Gate bounds, well above the values seen at these grids and far below what
# a wrong solve gives.
BWD_TOL = 1e-12  # backward error of the last step; seen 2e-15 .. 1e-14
MMS_REL_TOL = 0.05  # relative L2 error after STEPS steps, time error dominates; seen 9.5e-3
MMD_TOL = 1e-8  # x-variation of p = phi - eta q; seen 1.5e-10
COND_SPREAD_MAX = 10.0  # coupled kappa max/min over the etas that factor (criterion 2)
NAIVE_GROWTH_MIN = 10.0  # naive kappa(1e-6)/kappa(1e-2); seen 39 at this grid


def draw_etas(nominal, seed: int) -> list[float]:
    """Seed 0 gives the nominal values; eta = 0 stays exact."""
    rng = random.Random(seed)
    out = []
    for eta in nominal:
        factor = math.exp(rng.uniform(math.log(1 - ETA_JITTER), math.log(1 + ETA_JITTER)))
        out.append(eta if seed == 0 or eta == 0 else eta * factor)
    return out


def build_system(grid, phys, disc, scheme):
    # The builders may later merge into one build_system(..., scheme); accept either.
    builder = getattr(assembly, f"build_{scheme}_system", None)
    if builder is not None:
        return builder(grid, phys, disc)
    return assembly.build_system(grid, phys, disc, scheme)


def lu_fill(factors) -> int:
    """nnz(L) + nnz(U), the count SuperLU's fill is quoted in; each is a copy, freed at once."""
    return factors.L.nnz + factors.U.nnz


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def another_fits(start: float, last_start: float, seconds: float) -> bool:
    """True while one more repeat, as long as the last one, ends within `seconds` of start."""
    now = clock()
    return (now - start) + (now - last_start) <= seconds


def backward_error(matrix, u, b) -> float:
    """||A u - b|| / (||A|| ||u|| + ||b||) in the infinity norm."""
    a_norm = float(abs(matrix).sum(axis=1).max())
    r = float(np.abs(matrix @ u - b).max())
    return r / (a_norm * float(np.abs(u).max()) + float(np.abs(b).max()))


# ---- stepping workloads --------------------------------------------------


@dataclass(frozen=True)
class SteppingCase:
    phys: PhysConfig
    disc: DiscConfig
    forcing: assembly.Forcing
    phi_ini: Callable
    exact: Optional[Callable]  # exact phi(t, x, y) for the error gate
    observe: bool  # TimeNormObserver every step, micro_macro_deviation every MMD_EVERY


def mms_fine(seed: int) -> SteppingCase:
    (eta,) = draw_etas([1e-3], seed)
    ms = corrected_mms(eta, NU, LAMBDA)
    return SteppingCase(
        phys=PhysConfig(eta=eta, nu=NU, lambda_ref=LAMBDA, L=L),
        disc=DiscConfig(dx=FINE_H, dy=FINE_H, dt=FINE_DT, mode="strip"),
        forcing=ms.forcing,
        phi_ini=ms.phi_ini,
        exact=ms.phi,
        observe=False,
    )


def full_limiter(seed: int) -> SteppingCase:
    (eta,) = draw_etas([1e-3], seed)
    return SteppingCase(
        phys=PhysConfig(eta=eta, nu=NU, lambda_ref=LAMBDA, L=L, limiter_height=0.5),
        disc=DiscConfig(dx=FINE_H, dy=FINE_H, dt=FINE_DT, mode="full"),
        forcing=assembly.Forcing(volume=lambda t, x, y: eq4_source(t, x, y, L)),
        phi_ini=lambda x, y: np.zeros_like(x),
        exact=None,
        observe=True,
    )


@dataclass
class SteppingRun:
    setup: float
    total: float  # set-up plus all steps
    steps: list[float]
    cond: float
    cond_iters: int
    problems: list[str]
    details: dict
    unknowns: int
    nnz: int
    factors: object = None  # kept by the last run only, for the fill count


def stepping_run(case: SteppingCase, tracer) -> SteppingRun:
    span = tracer.span
    forcing = case.forcing
    if tracer.enabled:
        forcing = replace(forcing, volume=tracer.wrap("manufactured.source", forcing.volume))
    t0 = clock()
    with span("geometry.build_grid"):
        grid = geometry.build_grid(case.phys, case.disc)
    with span("assembly.build_system.ap"):
        system = build_system(grid, case.phys, case.disc, "ap")
    with span("linsolve.factorize"):
        factors = linsolve.lu_factorize(system.matrix)
    setup = clock() - t0
    if tracer.enabled:
        tracer.solve_bytes = LU_ENTRY_BYTES * lu_fill(factors)

    state = timeloop.init_state(grid, case.phys, case.phi_ini)
    norms = verification.TimeNormObserver(grid)
    mmd = []
    steps = []
    for n in range(1, STEPS + 1):
        a = clock()
        with span("bench.step"):
            with span("timeloop.step"):
                new = timeloop.step(state, factors, system, forcing)
            if case.observe:
                with span("verification.observer"):
                    norms(new)
                if n % MMD_EVERY == 0:
                    with span("assembly.mmd"):
                        mmd.append(assembly.micro_macro_deviation(grid, new.u, case.phys.eta))
        steps.append(clock() - a)
        prev, state = state, new
    total = clock() - t0

    a = clock()
    with span("linsolve.cond"):
        est = linsolve.estimate_cond2(system.matrix, factors, equilibrate=True)
    cond = clock() - a

    problems, details = stepping_gate(case, grid, system, prev, state, mmd, est)
    return SteppingRun(
        setup=setup,
        total=total,
        steps=steps,
        cond=cond,
        cond_iters=est.iterations_sigma_max + est.iterations_sigma_min,
        problems=problems,
        details=details,
        unknowns=grid.N,
        nnz=system.matrix.nnz,
        factors=factors,
    )


def stepping_gate(case, grid, system, prev, state, mmd, est):
    problems = []
    details = {"t": state.t, "kappa": est.value}
    if not np.isfinite(state.u).all():
        return ["state not finite"], details
    b = assembly.assemble_ap_rhs(system, prev, case.forcing)
    bwd = backward_error(system.matrix, state.u, b)
    details["backward_error"] = bwd
    if not bwd <= BWD_TOL:
        problems.append(f"backward error {bwd:.3e} > {BWD_TOL:.0e}")
    if case.exact is not None:
        x, y = grid.node_coords()
        ref = case.exact(state.t, x, y)
        err = verification.l2_norm(grid, state.phi - ref) / verification.l2_norm(grid, ref)
        details["rel_l2_error"] = err
        if not err <= MMS_REL_TOL:
            problems.append(f"relative L2 error {err:.3e} > {MMS_REL_TOL}")
    if mmd:
        worst = max(mmd)
        details["micro_macro_deviation"] = worst
        if not worst <= MMD_TOL:
            problems.append(f"micro_macro_deviation {worst:.3e} > {MMD_TOL:.0e}")
    if not est.converged:
        problems.append("condition estimate did not converge")
    return problems, details


def run_stepping(case: SteppingCase, seconds: float, min_runs: int, tracer):
    """Whole runs while the next one ends within `seconds`; only the last run keeps its factors."""
    runs, failures = [], []
    start = last = clock()
    while len(runs) + len(failures) < min_runs or another_fits(start, last, seconds):
        if runs:
            runs[-1].factors = None  # free before the next factorization
        last = clock()
        try:
            runs.append(stepping_run(case, tracer))
        except EdgepotError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    return runs, failures


def pct(values, q) -> float:
    """Nearest-rank percentile: always one of the values."""
    return float(np.percentile(values, q, method="inverted_cdf"))


def stepping_metrics(runs, rss_mb) -> dict:
    steps = [s for r in runs for s in r.steps]
    return {
        "setup_s": (float(np.median([r.setup for r in runs])), "s"),
        "step_ms_p50": (pct(steps, 50) * 1e3, "ms"),
        "step_ms_p95": (pct(steps, 95) * 1e3, "ms"),
        "run_s": (float(np.median([r.total for r in runs])), "s"),
        "cond_s": (float(np.median([r.cond for r in runs])), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---- condition sweep -----------------------------------------------------


@dataclass
class CondOp:
    eta: float
    scheme: str
    setup: float
    refused: Optional[str] = None
    cond: float = 0.0
    iters: int = 0
    kappa: float = 0.0
    converged: bool = False


def cond_configs(eta: float) -> tuple[PhysConfig, DiscConfig]:
    return (
        PhysConfig(eta=eta, nu=NU, lambda_ref=LAMBDA, L=L),
        DiscConfig(dx=COND_H, dy=COND_H, dt=COND_DT, mode="strip"),
    )


def cond_op(eta: float, scheme: str, tracer) -> CondOp:
    span = tracer.span
    phys, disc = cond_configs(eta)
    t0 = clock()
    with span("geometry.build_grid"):
        grid = geometry.build_grid(phys, disc)
    with span(f"assembly.build_system.{scheme}"):
        system = build_system(grid, phys, disc, scheme)
    try:
        with span("linsolve.factorize"):
            factors = linsolve.lu_factorize(system.matrix)
    except SingularPivotError as exc:
        return CondOp(eta, scheme, setup=clock() - t0, refused=str(exc))
    setup = clock() - t0
    if tracer.enabled:
        tracer.solve_bytes = LU_ENTRY_BYTES * lu_fill(factors)
    a = clock()
    with span("linsolve.cond"):
        est = linsolve.estimate_cond2(system.matrix, factors, equilibrate=True)
    return CondOp(
        eta,
        scheme,
        setup=setup,
        cond=clock() - a,
        iters=est.iterations_sigma_max + est.iterations_sigma_min,
        kappa=est.value,
        converged=est.converged,
    )


def warm_up() -> None:
    """The first estimates in a process run several times slower; take that cost untimed.

    A small grid does not always take it, so this is the coupled system of
    the condition sweep at its nominal first eta.
    """
    system, factors = _cond_system(COND_ETAS[0])
    for _ in range(2):
        linsolve.estimate_cond2(system.matrix, factors, equilibrate=True)


def cond_counts(eta: float) -> dict:
    """Work counts of the coupled system at the first eta."""
    system, factors = _cond_system(eta)
    fill = lu_fill(factors)
    return {
        "unknowns": system.grid.N,
        "nnz": system.matrix.nnz,
        "lu_fill": fill,
        "solve_bytes_computed": LU_ENTRY_BYTES * fill,
    }


def _cond_system(eta: float):
    phys, disc = cond_configs(eta)
    system = build_system(geometry.build_grid(phys, disc), phys, disc, "ap")
    return system, linsolve.lu_factorize(system.matrix)


def cond_sweep_ops(etas):
    """(eta, scheme) in the condition study's order; the naive scheme is undefined at 0."""
    return [(eta, s) for eta in sorted(etas, reverse=True) for s in ("ap", "naive") if s == "ap" or eta > 0]


def cond_gate(sweep: list[CondOp], etas) -> list[str]:
    """Criterion-2 relations on the etas that factor; every estimate converged."""
    problems = [
        f"{op.scheme} eta={op.eta:.3g}: estimate did not converge"
        for op in sweep
        if op.refused is None and not op.converged
    ]
    ap = [op.kappa for op in sweep if op.scheme == "ap" and op.refused is None]
    if ap and not max(ap) / min(ap) < COND_SPREAD_MAX:
        problems.append(f"coupled kappa spread {max(ap) / min(ap):.2f} >= {COND_SPREAD_MAX}")
    naive = {op.eta: op.kappa for op in sweep if op.scheme == "naive" and op.refused is None}
    lo, hi = etas[2], etas[0]  # the drawn 1e-6 and 1e-2
    if lo in naive and hi in naive and not naive[lo] / naive[hi] >= NAIVE_GROWTH_MIN:
        problems.append(f"naive kappa growth {naive[lo] / naive[hi]:.1f} < {NAIVE_GROWTH_MIN}")
    return problems


def run_cond_sweep(etas, seconds: float, min_sweeps: int, tracer):
    """Sweeps while the next one ends within `seconds`."""
    sweeps = []
    start = last = clock()
    while len(sweeps) < min_sweeps or another_fits(start, last, seconds):
        last = clock()
        sweeps.append([cond_op(eta, scheme, tracer) for eta, scheme in cond_sweep_ops(etas)])
    return sweeps


def cond_metrics(sweeps, rss_mb) -> dict:
    """Medians over sweeps of each sweep's mean; step percentiles over every estimate.

    The systems differ two- to three-fold in estimate time (scheme and
    iteration count), so an order statistic over the systems jumps from one
    group to the other when a single system runs slow on a shared machine;
    a mean over a whole sweep does not, and the median over sweeps drops a
    slow sweep.  `run_s` and `cond_s` take the systems that factor.  A step
    here is one power-iteration step of the estimator.
    """

    def per_sweep(value, factored_only=True):
        return float(np.median([
            np.mean([value(op) for op in sweep if op.refused is None or not factored_only]) for sweep in sweeps
        ]))

    per_iter = [op.cond / op.iters for sweep in sweeps for op in sweep if op.refused is None]
    return {
        "setup_s": (per_sweep(lambda op: op.setup, factored_only=False), "s"),
        "step_ms_p50": (pct(per_iter, 50) * 1e3, "ms"),
        "step_ms_p95": (pct(per_iter, 95) * 1e3, "ms"),
        "run_s": (per_sweep(lambda op: op.setup + op.cond), "s"),
        "cond_s": (per_sweep(lambda op: op.cond), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
