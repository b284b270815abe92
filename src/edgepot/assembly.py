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

Each row kind is a fixed-width table of columns and weights, built from
the stencil tables and written into one CSR matrix by `stencils.table_csr`;
``prev_op`` is the -D_yy/dt part of the evolution table.  An evolution
weight is (D2 / dy^2)(-1/dt) + (D4 / dy^4) nu, then the x part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps

from .errors import EdgepotError, NumericalError
from .geometry import PHI, Q, DiscConfig, Grid, PhysConfig
from .stencils import DX, DXX, table_csr, x_table, y_table


SCHEMES = ("ap", "naive")
SHEATH_HEADROOM = 700.0  # largest |lambda - phi| taken at a face; exp overflows above 709.78


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
    """Assert the CSR invariants: square, no empty row/column, sorted unique columns per row."""
    n, m = matrix.shape
    if n != m:
        raise EdgepotError(f"matrix is {n}x{m}, not square")
    row_counts = np.diff(matrix.indptr)
    if (row_counts == 0).any():
        raise EdgepotError(f"empty row {int(np.argmin(row_counts))}")
    col_seen = np.zeros(m, dtype=bool)
    col_seen[matrix.indices] = True
    if not col_seen.all():
        raise EdgepotError(f"empty column {int(np.argmin(col_seen))}")
    if not matrix.has_canonical_format:
        raise EdgepotError("column indices not sorted, or repeated, within rows")


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
        raise NumericalError(
            "EtaZeroUndefined: the single-field scheme divides by eta; "
            "use the coupled scheme at eta = 0"
        )
    fold = 1 if ap else 2
    fields = 2 // fold  # unknowns per node: node ordinal o holds fields * o + field
    x_field, x_coef = (Q, -1.0) if ap else (PHI, -1.0 / eta)
    sheath_field, phi_coef = (Q, 1.0) if ap else (PHI, eta)

    def unknowns(ordinals):  # columns of every unknown at each table node, phi before q
        return (fields * ordinals[..., None] + np.arange(fields)).reshape(len(ordinals), -1)

    def minus_eta_q(w):  # weights of D phi - eta D q on unknowns(x table), w those of D
        return np.column_stack([w, w * -eta]).ravel()

    k = grid.plasma_ordinals
    i, j = grid.phi_nodes[k].T
    x = unknowns(x_table(grid, i, j))
    y, d2, d4 = y_table(grid, i, j)
    y = fields * y + PHI
    prev = (d2 * (1.0 / grid.dy**2)) * (-1.0 / dt)
    y_part = prev + (d4 * (1.0 / grid.dy**4)) * nu
    dxx = DXX * (1.0 / grid.dx**2)
    # the node's own grid row: the x part on x_field, the y part's centre at phi
    own_row = np.zeros((len(k), 3 * fields))
    own_row[:, x_field::fields] = dxx * x_coef
    own_row[:, fields + PHI] += y_part[:, 2]
    src_rows = 2 * k + PHI
    kinds = [(src_rows // fold, np.hstack([y[:, :2], x, y[:, 3:]]),
              np.hstack([y_part[:, :2], own_row, y_part[:, 3:]]))]
    if ap:  # coupling D_xx phi - eta D_xx q = 0, or the anchor q = 0 on column I1
        anchor = np.eye(6)[fields + Q]
        kinds.append((2 * k + Q, x, np.where((i == grid.I1)[:, None], anchor, minus_eta_q(dxx))))

    # both faces in one pass: face column I1 (side -1) or I2 (+1), ghost beyond it
    jf = np.asarray(grid.face_rows())
    side = np.repeat([-1, 1], len(jf))
    jj = np.tile(jf, 2)
    col = np.where(side < 0, grid.I1, grid.I2)
    ghost = col + side
    face = unknowns(x_table(grid, col, jj))
    dx = DX * (1.0 / (2.0 * grid.dx))
    if ap:  # flux match D_x phi = eta D_x q
        kinds.append((grid.slot(PHI, ghost, jj), face, minus_eta_q(dx)))
    sheath_rows, face_phi = grid.slot(Q, ghost, jj), grid.slot(PHI, col, jj)
    sheath = np.zeros((len(jj), 3 * fields))
    sheath[:, sheath_field::fields] = dx  # D_x q, or D_x phi in the single-field scheme
    sheath[:, fields + PHI] = side * phi_coef
    kinds.append((sheath_rows // fold, face, sheath))

    n = grid.N // fold
    matrix = table_csr((n, n), kinds)
    check_csr(matrix)
    matrix.column_blocks = grid.column_blocks(fields=fields)
    i0 = i.min()  # the plasma nodes fill rows 0 .. Ny-1 by columns i0 .. i0+nc-1
    nc = i.max() - i0 + 1
    return System(
        grid=grid,
        phys=phys,
        disc=disc,
        scheme=scheme,
        matrix=matrix,
        prev_op=table_csr((n, n), [(src_rows // fold, y[:, 1:4], prev[:, 1:4])]),  # D2 reaches +-1
        src_rows=src_rows // fold,
        src_x=grid.x(np.arange(i0, i0 + nc))[None, :],
        src_y=grid.y(np.arange(grid.Ny))[:, None],
        src_at=j * nc + (i - i0),
        sheath_rows=sheath_rows // fold,
        sheath_phi=face_phi // fold,
        sheath_side=side,
        sheath_y=grid.y(jj),
    )


def assemble_ap_rhs(system: System, state, forcing: Forcing) -> np.ndarray:
    """Right-hand side for the step from state.t to state.t + dt.

    Evolution rows: -(D_yy phi^n)/dt + S(t^{n+1}); coupling, anchor and
    flux-match rows: 0; sheath rows: the linearized face data from phi^n.
    A NumericalError refuses the step when |lambda - phi^n| exceeds
    ``SHEATH_HEADROOM`` at a face, before exp can overflow.
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
    exponent = system.phys.lambda_ref - phi
    over = np.flatnonzero(np.abs(exponent) > SHEATH_HEADROOM)
    if over.size:
        r = over[0]
        raise NumericalError(
            f"sheath exponent lambda - phi = {exponent[r]:.6g} beyond the headroom "
            f"+-{SHEATH_HEADROOM:g} on the {'west' if side[r] < 0 else 'east'} face at "
            f"y = {system.sheath_y[r]:g}; refusing step {state.n + 1} to t = {t_next:g}"
        )
    sheath = sheath_law(side, phi, system.phys.lambda_ref) + side * phi
    if forcing.sheath is not None:
        sheath += forcing.sheath(t_next, side, system.sheath_y)
    if system.scheme == "naive":
        sheath = system.phys.eta * sheath
    b[system.sheath_rows] = sheath
    if not np.isfinite(b).all():
        raise NumericalError(
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
