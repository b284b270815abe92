"""Computational domain, mesh and unknown-index layout.

The domain is the rectangle [-0.5, 0.5] x [0, 1] minus the limiter solid
(|x| > L, y < l).  Two geometry modes are supported:

* ``strip``: requires l = 1; only the plasma strip [-L, L] x [0, 1] is
  meshed.  The limiter faces x = +-L become the x-extremes of the grid.
* ``full``: the complete geometry with the band above the limiter; the
  columns x = -0.5 and x = +0.5 are identified (periodic) for y >= l.

One ghost column per field is stored outside each limiter face for every
row that carries the face boundary conditions.  Ghosts in the y direction
are never stored; they are eliminated analytically in the stencil module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingNeighborError, OutOfDomainError

PHI = 0
Q = 1

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class PhysConfig:
    """Physical parameters.

    eta            parallel resistivity (>= 0; the stiffness parameter)
    nu             perpendicular ionic viscosity (> 0)
    lambda_ref     reference potential inside the limiter
    L              limiter half-gap, faces at x = +-L (0 < L < 0.5)
    limiter_height limiter top at y = l (0 < l <= 1)
    t_end          final time (> 0)
    """

    eta: float
    nu: float = 1.0
    lambda_ref: float = 0.0
    L: float = 0.4
    limiter_height: float = 1.0
    t_end: float = 1.0


@dataclass(frozen=True)
class DiscConfig:
    """Mesh steps, time step and geometry mode ('strip' or 'full')."""

    dx: float
    dy: float
    dt: float
    mode: str = "strip"


def _is_integer(v: float) -> bool:
    return abs(v - round(v)) <= _ALIGN_TOL * max(1.0, abs(v))


def config_violations(phys: PhysConfig, disc: DiscConfig) -> list[str]:
    """Collect all invariant violations; empty list means valid."""
    out = []
    if not phys.eta >= 0:
        out.append(f"InvalidPhysConfig: eta must be >= 0, got {phys.eta}")
    if not phys.nu > 0:
        out.append(f"InvalidPhysConfig: nu must be > 0, got {phys.nu}")
    if not 0 < phys.L < 0.5:
        out.append(f"InvalidPhysConfig: L must lie in (0, 0.5), got {phys.L}")
    if not 0 < phys.limiter_height <= 1:
        out.append(f"InvalidPhysConfig: l must lie in (0, 1], got {phys.limiter_height}")
    if not phys.t_end > 0:
        out.append(f"InvalidPhysConfig: T must be > 0, got {phys.t_end}")
    for name, v in (("dx", disc.dx), ("dy", disc.dy), ("dt", disc.dt)):
        if not v > 0:
            out.append(f"NonPositiveStep: {name} must be > 0, got {v}")
    if disc.mode not in ("strip", "full"):
        out.append(f"InvalidPhysConfig: unknown mode {disc.mode!r}")
    if out:
        return out

    l = phys.limiter_height
    if disc.mode == "strip":
        if l != 1.0:
            out.append(f"StripModeRequiresLEqualOne: got l = {l}")
        if not _is_integer(2 * phys.L / disc.dx):
            out.append(f"NonAlignedMesh: 2L/dx = {2 * phys.L / disc.dx} is not an integer")
        if not _is_integer(1.0 / disc.dy):
            out.append(f"NonAlignedMesh: 1/dy = {1.0 / disc.dy} is not an integer")
    else:
        if l == 1.0:
            out.append("FullModeRequiresBand: l = 1 leaves no band above the limiter; use strip mode")
        if not _is_integer((0.5 - phys.L) / disc.dx):
            out.append(f"NonAlignedMesh: (0.5-L)/dx = {(0.5 - phys.L) / disc.dx} is not an integer")
        if not _is_integer(phys.L / disc.dx):
            out.append(f"NonAlignedMesh: L/dx = {phys.L / disc.dx} is not an integer")
        if not _is_integer(l / disc.dy):
            out.append(f"NonAlignedMesh: l/dy = {l / disc.dy} is not an integer")
        if not _is_integer((1.0 - l) / disc.dy):
            out.append(f"NonAlignedMesh: (1-l)/dy = {(1.0 - l) / disc.dy} is not an integer")

    if not out:
        ny = round(1.0 / disc.dy) + 1
        if ny < 5:
            out.append(f"GridTooCoarse: {ny} rows; the fourth y-difference needs at least 5")
        if disc.mode == "full":
            band = round((1.0 - l) / disc.dy) + 1
            if band < 5:
                out.append(
                    f"GridTooCoarse: {band} rows above the limiter; "
                    "the fourth y-difference needs at least 5"
                )
    return out


def validate_config(phys: PhysConfig, disc: DiscConfig) -> tuple[PhysConfig, DiscConfig]:
    """Return the configs unchanged if valid, else raise ConfigError with all violations."""
    violations = config_violations(phys, disc)
    if violations:
        raise ConfigError(violations)
    return phys, disc


@dataclass(frozen=True)
class ColumnBlocks:
    """Column blocks and interface of a grid's unknowns.

    ``blocks[b][j, k]`` is the unknown at position k of grid row j of block
    b; every row of a block holds the same positions.  ``interface`` lists
    every other unknown.  `assembly.build_system` records this on the
    matrix it returns, as ``matrix.column_blocks``, for
    `linsolve.lu_factorize`.
    """

    blocks: tuple[np.ndarray, ...]
    interface: np.ndarray


class Grid:
    """Immutable mesh with a flat unknown layout.

    Unknowns are ordered row-major by (j, i, field) with field phi before q,
    which bounds the matrix bandwidth by a few grid rows.  phi and q live on
    the same node set (plasma plus stored ghost columns), so
    ``slot(field, i, j) = 2 * ordinal(i, j) + field``.

    Column indices are physical: in strip mode i runs 0..Nx-1 with ghosts at
    -1 and Nx; in full mode i runs over 0..ncols-1 with x = -0.5 + i*dx and
    the seam column x = +0.5 folded onto i = 0.
    """

    def __init__(self, phys: PhysConfig, disc: DiscConfig):
        validate_config(phys, disc)
        self.mode = disc.mode
        self.L = phys.L
        self.limiter_height = phys.limiter_height
        self.dx = disc.dx
        self.dy = disc.dy
        self.Ny = round(1.0 / disc.dy) + 1

        if self.mode == "strip":
            self.Nx = round(2 * phys.L / disc.dx) + 1
            self.I1 = 0
            self.I2 = self.Nx - 1
            self._x0 = -phys.L
            self.j_l = self.Ny - 1
            self.n_band_cols = 0
        else:
            self.I1 = round((0.5 - phys.L) / disc.dx)
            self.I2 = round((0.5 + phys.L) / disc.dx)
            self.Nx = self.I2 - self.I1 + 1
            self._x0 = -0.5
            self.j_l = round(phys.limiter_height / disc.dy)
            # x = +0.5 identified with x = -0.5: one unknown per pair
            self.n_band_cols = round(1.0 / disc.dx)

        self._build_index()

    # ---- coordinates -------------------------------------------------

    def x(self, i):
        return self._x0 + i * self.dx

    def y(self, j):
        return j * self.dy

    def face_rows(self) -> range:
        """Rows that carry ghost columns and the face boundary conditions."""
        return range(self.Ny) if self.mode == "strip" else range(self.j_l)

    def column_extent(self, i):
        """(bottom row, top row) of the plasma column i (scalar or array)."""
        spans = (self.mode == "strip") | ((self.I1 <= i) & (i <= self.I2))
        return np.where(spans, 0, self.j_l)[()], self.Ny - 1

    def canonical_col(self, i, j):
        """Fold the periodic seam twin onto its stored column."""
        if self.mode == "full":
            return np.where(np.asarray(j) >= self.j_l, np.mod(i, self.n_band_cols), i)[()]
        return i

    def x_neighbors(self, i, j):
        """Stored columns left/right of (i, j); periodic wrap on band rows."""
        i, j = np.broadcast_arrays(i, j)
        band = (self.mode == "full") & (j >= self.j_l)
        bad = ~band & ((i <= self.I1 - 1) | (i >= self.I2 + 1))
        if bad.any():
            k = np.argmax(bad)
            raise MissingNeighborError(
                f"node (i={i.flat[k]}, j={j.flat[k]}) has no stored neighbor on both sides"
            )
        return self.canonical_col(i - 1, j), self.canonical_col(i + 1, j)

    # ---- index layout ------------------------------------------------

    def _build_index(self):
        # Ordinal table over rows j and columns i = -1 .. max(I2 + 1, ncols)
        # (table column i + 1), -1 where no node is stored.  Face rows store
        # I1 - 1 .. I2 + 1 (ghosts included), band rows 0 .. ncols - 1.
        cols = np.arange(-1, max(self.I2 + 1, self.n_band_cols) + 1)
        face = np.arange(self.Ny) < self.face_rows().stop
        stored = np.where(
            face[:, None],
            (self.I1 - 1 <= cols) & (cols <= self.I2 + 1),
            (0 <= cols) & (cols < self.n_band_cols),
        )
        plasma = stored & ~(face[:, None] & ((cols == self.I1 - 1) | (cols == self.I2 + 1)))
        jj, cc = np.nonzero(stored)  # row-major: the enumeration order
        self._table = np.full(stored.shape, -1, dtype=np.intp)
        self._table[jj, cc] = np.arange(len(jj))
        self.phi_nodes = np.column_stack([cols[cc], jj])
        self._plasma_ordinals = np.flatnonzero(plasma[jj, cc])
        self.N = 2 * len(jj)
        self._x_arr = self.x(self.phi_nodes[:, 0])
        self._y_arr = self.y(self.phi_nodes[:, 1])
        self._quad_weights = self._compute_quad_weights(plasma[:, 1:])

    def ordinal(self, i, j):
        """Position of node (i, j) in the phi enumeration (ghosts included)."""
        i, j = np.broadcast_arrays(self.canonical_col(i, j) + 1, j)
        inside = (0 <= j) & (j < self.Ny) & (0 <= i) & (i < self._table.shape[1])
        k = np.where(inside, self._table[j * inside, i * inside], -1)  # 0 * index is in range
        if (k < 0).any():
            bad = np.argmax(k < 0)
            raise OutOfDomainError(f"(i={i.flat[bad] - 1}, j={j.flat[bad]}) is not a stored node")
        return k[()]

    def slot(self, field: int, i, j):
        """Flat unknown index of the coupled (phi, q) layout."""
        return 2 * self.ordinal(i, j) + field

    def locate(self, slot: int) -> tuple[int, int, int]:
        """Inverse of slot(): (field, i, j)."""
        i, j = self.phi_nodes[slot // 2]
        return slot % 2, i, j

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y arrays aligned with the phi enumeration."""
        return self._x_arr, self._y_arr

    @property
    def plasma_ordinals(self) -> np.ndarray:
        """Ordinals of the plasma (non-ghost) nodes, in enumeration order."""
        return self._plasma_ordinals

    def column_blocks(self, fields: int) -> ColumnBlocks:
        """The column blocks and interface, as indices of ``fields`` unknowns per node.

        Node ordinal k holds unknowns ``fields * k + field``, the rule of
        `slot` (fields = 2 for the coupled layout, 1 for the single-field
        one).  On the strip one block holds every node.  In full geometry
        the interface is the columns I1 - 1, I1 and I2 + 1 on every row; the
        blocks are the gap columns I1 + 1 .. I2 on every row and the band
        columns I2 + 2 .. I1 - 2, wrapping through the seam, on the rows
        j_l .. Ny - 1.  When I1 = 1 the band block is empty, and on the band
        rows I2 + 1 is the seam twin of I1 - 1.  No x- or y-stencil couples
        the two blocks.
        """
        if self.mode == "strip":
            blocks = [np.arange(len(self.phi_nodes)).reshape(self.Ny, -1)]
            interface = np.empty(0, np.intp)
        else:
            rows = np.arange(self.Ny)[:, None]
            gap = self.ordinal(np.arange(self.I1 + 1, self.I2 + 1)[None, :], rows)
            chain = np.arange(self.I2 + 2, self.n_band_cols + self.I1 - 1) % self.n_band_cols
            edges = np.array([[self.I1 - 1, self.I1, self.I2 + 1]])
            interface = np.unique(self.ordinal(edges, rows))
            blocks = [gap, self.ordinal(chain[None, :], rows[self.j_l :])] if chain.size else [gap]

        def unknowns(ordinals):
            return fields * ordinals[..., None] + np.arange(fields)

        return ColumnBlocks(
            blocks=tuple(unknowns(b).reshape(len(b), -1) for b in blocks),
            interface=unknowns(interface).ravel(),
        )

    def row_spread(self, values: np.ndarray, nodes) -> float:
        """Max over grid rows of max - min of ``values`` at the ordinals ``nodes``.

        ``values`` is aligned with the node enumeration; ``nodes`` selects
        ordinals in enumeration order, so each row's nodes are contiguous.
        """
        v = values[nodes]
        j = self.phi_nodes[nodes, 1]
        starts = np.flatnonzero(np.r_[True, j[1:] != j[:-1]])
        return float(np.max(np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)))

    # ---- quadrature --------------------------------------------------

    def _compute_quad_weights(self, plasma: np.ndarray) -> np.ndarray:
        """Trapezoidal node weights: (plasma cells adjacent to the node) / 4.

        ``plasma`` marks the plasma nodes by row and column i >= 0.  A cell
        exists where its four corners are plasma.  In full mode the columns
        are cut to 0 .. ncols - 1, so the roll in x supplies the cells across
        the seam on band rows; in strip mode the east ghost column, never
        plasma, keeps the roll from wrapping.  Ghost nodes get weight zero.
        """
        if self.mode == "full":
            plasma = plasma[:, : self.n_band_cols]
        corners = plasma[:-1] & plasma[1:]
        cells = corners & np.roll(corners, -1, axis=1)
        cells = np.pad(cells, ((1, 1), (0, 0))).astype(int)
        count = cells[:-1] + cells[1:]
        count += np.roll(count, 1, axis=1)
        i, j = self.phi_nodes[self._plasma_ordinals].T
        w = np.zeros(len(self.phi_nodes))
        w[self._plasma_ordinals] = count[j, i] / 4.0
        return w

    @property
    def quad_weights(self) -> np.ndarray:
        """Quadrature weights aligned with the phi enumeration (ghosts zero)."""
        return self._quad_weights


def build_grid(phys: PhysConfig, disc: DiscConfig) -> Grid:
    """Validate the configuration and construct the mesh."""
    return Grid(phys, disc)

