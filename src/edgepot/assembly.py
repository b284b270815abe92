"""Assembly of the constant linear systems and per-step right-hand sides.

One builder, ``build_system(grid, phys, disc, scheme)``, assembles two
discretizations of the same model:

* ``ap``: the coupled scheme in (phi, q), well-posed uniformly in eta,
  obtained from the splitting phi = p + eta q with d_x p = 0 and q = 0 on
  x = -L;
* ``naive``: the single-field scheme in phi alone, which carries 1/eta and
  is undefined at eta = 0.

Both use centred differences in space and a semi-implicit Euler step in
time: everything is implicit except the exponential sheath term at the
limiter faces, which is linearized around the previous step with a unit
stabilization shift so that the matrix is constant for the whole run.

Per plasma node the coupled scheme carries one evolution row

    -(D_yy phi)/dt - D_xx q + nu D_yyyy phi   (implicit side)

and one q-slot row: the coupling row D_xx phi - eta D_xx q = 0, except on
the column x = -L where the gauge anchor q = 0 replaces it (D_xx and the
face fluxes annihilate x-constants, so q is determined only up to a
function of y; the anchor fixes it).  The ghost columns are closed by one
flux-match row per face node, D_x phi = eta D_x q, and one sheath row

    west:  D_x q - phi^{n+1} = 1 - exp(lambda - phi^n) - phi^n
    east:  D_x q + phi^{n+1} = -(1 - exp(lambda - phi^n)) + phi^n.

Row r of the matrix is aligned with unknown r: evolution rows sit in the
phi slots, coupling/anchor rows in the q slots, flux-match rows in the
ghost phi slots and sheath rows in the ghost q slots.

The single-field scheme is the coupled one with q eliminated.  For
eta > 0 the coupling row gives D_xx q = D_xx phi / eta and the flux-match
row D_x q = D_x phi / eta, so the evolution x-term becomes
-(1/eta) D_xx phi and the sheath row, multiplied by eta, becomes

    west:  D_x phi - eta phi^{n+1} = eta (1 - exp(lambda - phi^n) - phi^n)
    east:  D_x phi + eta phi^{n+1} = eta (-(1 - exp(lambda - phi^n)) + phi^n).

Only the evolution and sheath rows remain, in the phi-only layout: every
row and column index is the coupled slot // 2, the node ordinal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps

from .errors import EtaZeroUndefinedError, NonFiniteSourceError, SingularStructureError
from .geometry import PHI, Q, DiscConfig, Grid, PhysConfig
from .stencils import dx_central_row, dxx_row, dyy_row, dyyyy_row


class RowKind(enum.IntEnum):
    EVOLUTION = 0
    COUPLING = 1
    ANCHOR = 2
    FACE_FLUX_MATCH = 3
    FACE_SHEATH = 4


@dataclass(frozen=True)
class Forcing:
    """Volume source S(t, x, y) plus optional manufactured sheath data g(t, y).

    The sheath corrections are additive right-hand-side data for the face
    conditions (in the q-form for the coupled scheme, scaled by eta for the
    single-field one).  They are zero for the physical model and only set
    by manufactured solutions that do not satisfy the sheath law exactly.
    """

    volume: Optional[Callable] = None
    sheath_west: Optional[Callable] = None
    sheath_east: Optional[Callable] = None


ZERO_FORCING = Forcing()


def check_csr(matrix: sps.csr_matrix) -> None:
    """Assert the CSR invariants: square, no empty row/column, sorted columns."""
    n, m = matrix.shape
    if n != m:
        raise SingularStructureError(f"matrix is {n}x{m}, not square")
    row_counts = np.diff(matrix.indptr)
    if (row_counts == 0).any():
        raise SingularStructureError(f"empty row {int(np.argmin(row_counts))}")
    col_seen = np.zeros(m, dtype=bool)
    col_seen[matrix.indices] = True
    if not col_seen.all():
        raise SingularStructureError(f"empty column {int(np.argmin(col_seen))}")
    if not matrix.has_sorted_indices:
        raise SingularStructureError("column indices not sorted within rows")


class _Accumulator:
    """COO triplets in the coupled (phi, q) slot layout.

    ``fold = 2`` maps every row and column slot onto the phi-only layout of
    the single-field scheme (slot // 2 is the node ordinal).
    """

    def __init__(self, fold: int):
        self.fold = fold
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, r: int, entries, factor: float = 1.0) -> None:
        for k, c in entries:
            self.rows.append(r)
            self.cols.append(k)
            self.vals.append(factor * c)

    def to_csr(self, n: int) -> sps.csr_matrix:
        rows = np.asarray(self.rows, dtype=np.intp) // self.fold
        cols = np.asarray(self.cols, dtype=np.intp) // self.fold
        m = sps.csr_matrix((self.vals, (rows, cols)), shape=(n, n), dtype=np.float64)
        m.sum_duplicates()
        m.eliminate_zeros()  # eta = 0 contributions are structural zeros
        m.sort_indices()
        return m


@dataclass
class System:
    """Constant matrix of one scheme plus the precomputed right-hand-side machinery.

    Row r of ``matrix`` carries the equation tagged ``row_kinds[r]``; the
    index arrays locate the rows and unknowns the per-step right-hand side
    touches, in the scheme's own layout.
    """

    grid: Grid
    phys: PhysConfig
    disc: DiscConfig
    scheme: str
    matrix: sps.csr_matrix
    row_kinds: np.ndarray
    prev_op: sps.csr_matrix  # maps u^n to the explicit evolution part
    src_rows: np.ndarray  # evolution row index per plasma node
    src_x: np.ndarray
    src_y: np.ndarray
    west_rows: np.ndarray  # sheath row index per west face node
    west_phi: np.ndarray  # slot of phi^n at the west face
    west_y: np.ndarray
    east_rows: np.ndarray
    east_phi: np.ndarray
    east_y: np.ndarray

    def rows_of_kind(self, kind: RowKind) -> np.ndarray:
        return np.flatnonzero(self.row_kinds == int(kind))


def build_system(grid: Grid, phys: PhysConfig, disc: DiscConfig, scheme: str) -> System:
    """Assemble the constant system of ``scheme`` ('ap' or 'naive')."""
    if scheme not in ("ap", "naive"):
        raise ValueError(f"unknown scheme {scheme!r}")
    eta, nu, dt = phys.eta, phys.nu, disc.dt
    ap = scheme == "ap"
    if not ap and eta == 0:
        raise EtaZeroUndefinedError(
            "EtaZeroUndefined: the single-field scheme divides by eta; "
            "use the coupled scheme at eta = 0"
        )
    fold = 1 if ap else 2
    x_field, x_coef = (Q, -1.0) if ap else (PHI, -1.0 / eta)
    sheath_field, sheath_phi = (Q, 1.0) if ap else (PHI, eta)
    acc = _Accumulator(fold)
    prev = _Accumulator(fold)
    n = grid.N // fold
    kinds = np.zeros(n, dtype=np.uint8)

    src_rows, src_x, src_y = [], [], []
    for j in range(grid.Ny):
        for i in grid.plasma_cols(j):
            r = grid.slot(PHI, i, j)
            kinds[r // fold] = RowKind.EVOLUTION
            row_dyy = dyy_row(grid, PHI, i, j)
            acc.add(r, row_dyy, -1.0 / dt)
            acc.add(r, dyyyy_row(grid, PHI, i, j), nu)
            acc.add(r, dxx_row(grid, x_field, i, j), x_coef)
            prev.add(r, row_dyy, -1.0 / dt)
            src_rows.append(r)
            src_x.append(grid.x(i))
            src_y.append(grid.y(j))
            if not ap:
                continue

            r = grid.slot(Q, i, j)
            if i == grid.I1:
                kinds[r] = RowKind.ANCHOR
                acc.add(r, [(grid.slot(Q, grid.I1, j), 1.0)])
            else:
                kinds[r] = RowKind.COUPLING
                acc.add(r, dxx_row(grid, PHI, i, j))
                acc.add(r, dxx_row(grid, Q, i, j), -eta)

    west_rows, west_phi, west_y = [], [], []
    east_rows, east_phi, east_y = [], [], []
    for j in grid.face_rows():
        for iface, ghost, sign, rows, phis, ys in (
            (grid.I1, grid.I1 - 1, -1.0, west_rows, west_phi, west_y),
            (grid.I2, grid.I2 + 1, +1.0, east_rows, east_phi, east_y),
        ):
            if ap:
                r = grid.slot(PHI, ghost, j)
                kinds[r] = RowKind.FACE_FLUX_MATCH
                acc.add(r, dx_central_row(grid, PHI, iface, j))
                acc.add(r, dx_central_row(grid, Q, iface, j), -eta)

            r = grid.slot(Q, ghost, j)
            kinds[r // fold] = RowKind.FACE_SHEATH
            acc.add(r, dx_central_row(grid, sheath_field, iface, j))
            acc.add(r, [(grid.slot(PHI, iface, j), sign * sheath_phi)])
            rows.append(r)
            phis.append(grid.slot(PHI, iface, j))
            ys.append(grid.y(j))

    matrix = acc.to_csr(n)
    check_csr(matrix)

    def index(slots):
        return np.asarray(slots, dtype=np.intp) // fold

    return System(
        grid=grid,
        phys=phys,
        disc=disc,
        scheme=scheme,
        matrix=matrix,
        row_kinds=kinds,
        prev_op=prev.to_csr(n),
        src_rows=index(src_rows),
        src_x=np.asarray(src_x),
        src_y=np.asarray(src_y),
        west_rows=index(west_rows),
        west_phi=index(west_phi),
        west_y=np.asarray(west_y),
        east_rows=index(east_rows),
        east_phi=index(east_phi),
        east_y=np.asarray(east_y),
    )


def _sheath_data(system: System, u_n: np.ndarray):
    lam = system.phys.lambda_ref
    pw = u_n[system.west_phi]
    pe = u_n[system.east_phi]
    west = 1.0 - np.exp(lam - pw) - pw
    east = -(1.0 - np.exp(lam - pe)) + pe
    return west, east


def assemble_ap_rhs(system: System, state, forcing: Forcing) -> np.ndarray:
    """Right-hand side for the step from state.t to state.t + dt.

    Evolution rows: -(D_yy phi^n)/dt + S(t^{n+1}); coupling, anchor and
    flux-match rows: 0; sheath rows: the linearized face data from phi^n.
    """
    t_next = state.t + system.disc.dt
    b = system.prev_op @ state.u
    if forcing.volume is not None:
        b[system.src_rows] += forcing.volume(t_next, system.src_x, system.src_y)
    west, east = _sheath_data(system, state.u)
    if forcing.sheath_west is not None:
        west = west + forcing.sheath_west(t_next, system.west_y)
    if forcing.sheath_east is not None:
        east = east + forcing.sheath_east(t_next, system.east_y)
    if system.scheme == "naive":
        eta = system.phys.eta
        west = eta * west
        east = eta * east
    b[system.west_rows] = west
    b[system.east_rows] = east
    if not np.isfinite(b).all():
        raise NonFiniteSourceError(
            f"right-hand side not finite at t = {t_next} "
            f"(first bad row {int(np.flatnonzero(~np.isfinite(b))[0])})"
        )
    return b


def micro_macro_deviation(grid: Grid, u: np.ndarray, eta: float) -> float:
    """Max over rows of the x-variation of p = phi - eta q.

    The coupling and flux-match rows force p to be constant along x, so
    after a solve this is bounded by the solver residual; it is the cheap
    per-step diagnostic of the splitting.
    """
    p = u[0::2] - eta * u[1::2]
    # Nodes are enumerated row by row (ghosts included on face rows, the
    # seam column once on band rows); a new row starts where y changes.
    y = grid.node_coords()[1]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    return float(np.max(np.maximum.reduceat(p, starts) - np.minimum.reduceat(p, starts)))


def write_matrix_market(matrix: sps.spmatrix, path) -> None:
    """Dump in MatrixMarket coordinate format (1-based, full precision)."""
    coo = matrix.tocoo()
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")
