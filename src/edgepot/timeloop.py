"""Semi-implicit Euler integration: factorize once, then solve per step."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .assembly import Forcing, System, ZERO_FORCING, assemble_ap_rhs
from .errors import NonFiniteInitialError
from .geometry import Grid, PhysConfig
from .linsolve import LUFactors, lu_factorize, lu_solve

_X_CONST_TOL = 1e-12


@dataclass(frozen=True)
class State:
    """Solution at time t = n * dt.

    ``u`` is the flat unknown vector.  For the coupled scheme phi and q
    interleave per node, so ``phi`` and ``q`` are strided views; for the
    single-field scheme ``u`` is phi itself and ``q`` is None.  Both views
    follow the grid's node enumeration (ghost columns included).
    """

    t: float
    n: int
    u: np.ndarray
    scheme: str = "ap"

    @property
    def phi(self) -> np.ndarray:
        return self.u[0::2] if self.scheme == "ap" else self.u

    @property
    def q(self) -> Optional[np.ndarray]:
        return self.u[1::2] if self.scheme == "ap" else None


def init_state(
    grid: Grid, phys: PhysConfig, phi_ini: Callable, scheme: str = "ap"
) -> State:
    """Sample phi from phi_ini(x, y) (ghost columns included), q = 0, n = 0."""
    x, y = grid.node_coords()
    phi0 = np.asarray(phi_ini(x, y), dtype=np.float64)
    if phi0.shape != x.shape:
        phi0 = np.broadcast_to(phi0, x.shape).astype(np.float64)
    if not np.isfinite(phi0).all():
        bad = int(np.flatnonzero(~np.isfinite(phi0))[0])
        raise NonFiniteInitialError(
            f"phi_ini not finite at node (x={x[bad]}, y={y[bad]})"
        )
    _warn_if_x_dependent(grid, phi0)
    if scheme == "ap":
        u = np.zeros(grid.N)
        u[0::2] = phi0
    else:
        u = phi0.copy()
    return State(t=0.0, n=0, u=u, scheme=scheme)


def _warn_if_x_dependent(grid: Grid, phi0: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(phi0).max()))
    if grid.row_spread(phi0, grid.plasma_ordinals) > _X_CONST_TOL * scale:
        warnings.warn(
            "initial data varies along x; the model only constrains "
            "d_y phi at t = 0 and assumes x-independent initial data",
            stacklevel=3,
        )


def step(
    state: State, factors: LUFactors, system: System, forcing: Forcing = ZERO_FORCING
) -> State:
    """Advance one time step; the matrix is never re-factorized here."""
    b = assemble_ap_rhs(system, state, forcing)
    u = lu_solve(factors, b)
    return State(
        t=state.t + system.disc.dt,
        n=state.n + 1,
        u=u,
        scheme=state.scheme,
    )


def n_steps(t_end: float, dt: float) -> int:
    """ceil(T/dt), warning when T/dt is not an integer within rounding."""
    ratio = t_end / dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-9 * max(1.0, abs(ratio)):
        return n
    warnings.warn(
        f"NonIntegralStepCount: T/dt = {ratio}; running ceil = {math.ceil(ratio)} steps",
        stacklevel=2,
    )
    return math.ceil(ratio)


def run(
    system: System,
    forcing: Forcing,
    phi_ini: Callable,
    observers: Iterable[Callable[[State], None]] = (),
) -> State:
    """Integrate ``system`` to t = T with one factorization; observers see every state.

    The system carries the grid, configs and scheme it was built for.
    Observers are called once on the initial state (n = 0) and after each
    accepted step.  Independent runs share nothing mutable and may execute
    concurrently.
    """
    factors = lu_factorize(system.matrix)
    state = init_state(system.grid, system.phys, phi_ini, scheme=system.scheme)
    for obs in observers:
        obs(state)
    for _ in range(n_steps(system.phys.t_end, system.disc.dt)):
        state = step(state, factors, system, forcing)
        for obs in observers:
            obs(state)
    return state
