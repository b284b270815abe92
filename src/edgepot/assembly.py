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
flux-match row per face node, D_x phi = eta D_x q, and one sheath row.  On
the face of side s (-1 at x = -L, +1 at x = +L) the sheath law asks for
d_x q = ``sheath_law(s, phi)`` = -s (1 - exp(lambda - phi)); with the unit
shift about phi^n its row is

    D_x q + s phi^{n+1} = -s (1 - exp(lambda - phi^n)) + s phi^n.

Row r of the matrix is aligned with unknown r: evolution rows sit in the
phi slots, coupling/anchor rows in the q slots, flux-match rows in the
ghost phi slots and sheath rows in the ghost q slots.

The single-field scheme is the coupled one with q eliminated.  For
eta > 0 the coupling row gives D_xx q = D_xx phi / eta and the flux-match
row D_x q = D_x phi / eta, so the evolution x-term becomes
-(1/eta) D_xx phi and the sheath row, multiplied by eta, becomes

    D_x phi + s eta phi^{n+1} = eta (-s (1 - exp(lambda - phi^n)) + s phi^n).

Only the evolution and sheath rows remain, in the phi-only layout: every
row and column index is the coupled slot // 2, the node ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps

from .errors import EtaZeroUndefinedError, NonFiniteSourceError, SingularStructureError
from .geometry import PHI, Q, DiscConfig, Grid, PhysConfig
from .stencils import dx_central_row, dxx_row, dyy_row, dyyyy_row


SCHEMES = ("ap", "naive")


def sheath_law(side, phi, lambda_ref: float):
    """The d_x q that the sheath law asks for on face ``side`` (-1 west, +1 east)."""
    return -side * (1.0 - np.exp(lambda_ref - phi))


@dataclass(frozen=True)
class Forcing:
    """Volume source S(t, x, y) plus optional manufactured sheath data g(t, side, y).

    ``assemble_ap_rhs`` calls ``volume(t, x, y)`` once per step with x of
    shape (1, nc), the x of the plasma columns, and y of shape (nr, 1), the
    y of the plasma rows.  It must broadcast like a numpy ufunc: any result
    that broadcasts to (nr, nc), a scalar or a y-only column included, is
    taken at the plasma nodes.

    ``sheath(t, side, y)`` is additive right-hand-side data for the sheath
    rows (in the q-form for the coupled scheme, scaled by eta for the
    single-field one), called once per step with one side (-1 west, +1
    east) and one y per sheath row.  It is None for the physical model and
    only set by manufactured solutions that do not satisfy the sheath law
    exactly.
    """

    volume: Optional[Callable] = None
    sheath: Optional[Callable] = None


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


def _select(cols: np.ndarray, n_cols: int, value: float = 1.0) -> sps.csr_matrix:
    """One row per entry of ``cols``, holding ``value`` in that column."""
    n = len(cols)
    return sps.csr_matrix((np.full(n, value), (np.arange(n), cols)), shape=(n, n_cols))


def _on_field(rows: sps.csr_matrix, field: int) -> sps.csr_matrix:
    """Stencil rows that read the phi slots, moved to read ``field`` (slots are 2 ordinal + field)."""
    if field == PHI:
        return rows
    return sps.csr_matrix((rows.data, rows.indices + (field - PHI), rows.indptr), shape=rows.shape)


def _place(blocks, n: int, fold: int) -> sps.csr_matrix:
    """Stack (coupled row slots, operator) blocks into one n x n CSR matrix.

    ``fold = 2`` maps every row and column slot onto the phi-only layout of
    the single-field scheme (slot // 2 is the node ordinal).
    """
    coo = [(rows, op.tocoo()) for rows, op in blocks]
    r = np.concatenate([rows[op.row] for rows, op in coo]) // fold
    c = np.concatenate([op.col for _, op in coo]) // fold
    v = np.concatenate([op.data for _, op in coo])
    m = sps.csr_matrix((v, (r, c)), shape=(n, n), dtype=np.float64)
    m.sum_duplicates()
    m.eliminate_zeros()  # eta = 0 contributions are structural zeros
    return m


@dataclass
class System:
    """Constant matrix of one scheme plus the precomputed right-hand-side machinery.

    The index arrays locate the rows and unknowns the per-step right-hand
    side touches, in the scheme's own layout.  ``matrix.column_blocks``
    records the grid's column blocks and interface (`geometry.ColumnBlocks`)
    in that layout, for `linsolve.lu_factorize`.
    """

    grid: Grid
    phys: PhysConfig
    disc: DiscConfig
    scheme: str
    matrix: sps.csr_matrix
    prev_op: sps.csr_matrix  # maps u^n to the explicit evolution part
    src_rows: np.ndarray  # evolution row index per plasma node
    src_x: np.ndarray  # x of the plasma columns, shape (1, nc)
    src_y: np.ndarray  # y of the plasma rows, shape (nr, 1)
    src_at: np.ndarray  # flat position of each plasma node in the nr x nc rectangle
    sheath_rows: np.ndarray  # sheath row per face node, west face first
    sheath_phi: np.ndarray  # slot of phi^n at each face node
    sheath_side: np.ndarray  # -1 on the west face, +1 on the east
    sheath_y: np.ndarray  # y of each sheath row


def build_system(grid: Grid, phys: PhysConfig, disc: DiscConfig, scheme: str) -> System:
    """Assemble the constant system of ``scheme`` (one of ``SCHEMES``)."""
    if scheme not in SCHEMES:
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
    sheath_field, phi_coef = (Q, 1.0) if ap else (PHI, eta)
    N = grid.N

    k = grid.plasma_ordinals
    i, j = grid.phi_nodes[k].T
    prev = dyy_row(grid, PHI, i, j) * (-1.0 / dt)
    dxx = dxx_row(grid, PHI, i, j)
    dxx_x = _on_field(dxx, x_field)
    evolution = prev + dyyyy_row(grid, PHI, i, j) * nu + dxx_x * x_coef
    src_rows = 2 * k + PHI
    blocks = [(src_rows, evolution)]
    if ap:
        a, c = i == grid.I1, i != grid.I1
        coupling = dxx[c] + dxx_x[c] * -eta
        blocks += [
            (2 * k[a] + Q, _select(2 * k[a] + Q, N)),
            (2 * k[c] + Q, coupling),
        ]

    # both faces in one pass: face column I1 (side -1) or I2 (+1), ghost beyond it
    jf = np.asarray(grid.face_rows())
    side = np.repeat([-1, 1], len(jf))
    jj = np.tile(jf, 2)
    col = np.where(side < 0, grid.I1, grid.I2)
    ghost = col + side
    dx = dx_central_row(grid, PHI, col, jj)
    dx_sheath = _on_field(dx, sheath_field)  # D_x q, or D_x phi in the single-field scheme
    if ap:  # flux match D_x phi = eta D_x q
        blocks.append((grid.slot(PHI, ghost, jj), dx + dx_sheath * -eta))
    sheath_rows, face_phi = grid.slot(Q, ghost, jj), grid.slot(PHI, col, jj)
    sheath = dx_sheath + _select(face_phi, N, side * phi_coef)
    blocks.append((sheath_rows, sheath))

    n = N // fold
    matrix = _place(blocks, n, fold)
    check_csr(matrix)
    matrix.column_blocks = grid.column_blocks(fields=2 // fold)
    src_i, at_i = np.unique(i, return_inverse=True)
    src_j, at_j = np.unique(j, return_inverse=True)
    return System(
        grid=grid,
        phys=phys,
        disc=disc,
        scheme=scheme,
        matrix=matrix,
        prev_op=_place([(src_rows, prev)], n, fold),
        src_rows=src_rows // fold,
        src_x=grid.x(src_i)[None, :],
        src_y=grid.y(src_j)[:, None],
        src_at=at_j * len(src_i) + at_i,
        sheath_rows=sheath_rows // fold,
        sheath_phi=face_phi // fold,
        sheath_side=side,
        sheath_y=grid.y(jj),
    )


def assemble_ap_rhs(system: System, state, forcing: Forcing) -> np.ndarray:
    """Right-hand side for the step from state.t to state.t + dt.

    Evolution rows: -(D_yy phi^n)/dt + S(t^{n+1}); coupling, anchor and
    flux-match rows: 0; sheath rows: the linearized face data from phi^n.
    """
    t_next = state.t + system.disc.dt
    b = system.prev_op @ state.u
    if forcing.volume is not None:
        # once on the plasma rows x columns; full mode also evaluates (and
        # drops) the limiter-solid corners of that rectangle
        shape = (system.src_y.shape[0], system.src_x.shape[1])
        volume = np.broadcast_to(forcing.volume(t_next, system.src_x, system.src_y), shape)
        b[system.src_rows] += volume.reshape(-1)[system.src_at]
    phi, side = state.u[system.sheath_phi], system.sheath_side
    sheath = sheath_law(side, phi, system.phys.lambda_ref) + side * phi
    if forcing.sheath is not None:
        sheath += forcing.sheath(t_next, side, system.sheath_y)
    if system.scheme == "naive":
        sheath = system.phys.eta * sheath
    b[system.sheath_rows] = sheath
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
    return grid.row_spread(u[0::2] - eta * u[1::2], slice(None))


def write_matrix_market(matrix: sps.spmatrix, path) -> None:
    """Dump in MatrixMarket coordinate format (1-based, full precision)."""
    import scipy.io  # on first use: it adds about 1.5 MB resident to a run that never dumps

    # through an open file: given a path it cannot open, mmwrite returns without writing
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, matrix, symmetry="general")
