"""Computational domain, mesh, node classification and unknown-index layout.

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

import enum
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


class NodeClass(enum.Enum):
    INTERIOR = "Interior"
    SIGMA_PAR_BOTTOM = "SigmaParBottom"
    SIGMA_PAR_TOP = "SigmaParTop"
    SIGMA_PAR_LIMITER_TOP = "SigmaParLimiterTop"
    FACE_WEST = "FaceWest"
    FACE_EAST = "FaceEast"
    PERIODIC_SEAM = "PeriodicSeam"
    GHOST_WEST = "GhostWest"
    GHOST_EAST = "GhostEast"


@dataclass(frozen=True)
class NodeClassification:
    primary: NodeClass
    anchor_line: bool = False
    limiter_top: bool = False  # corner (+-L, l): face node lying on the y = l boundary


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
        return out
    if any(s.startswith("NonPositiveStep") or s.startswith("InvalidPhysConfig") for s in out):
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


class Grid:
    """Immutable mesh with node classification and a flat unknown layout.

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

    def x(self, i: int) -> float:
        return self._x0 + i * self.dx

    def y(self, j: int) -> float:
        return j * self.dy

    def face_rows(self) -> range:
        """Rows that carry ghost columns and the face boundary conditions."""
        return range(self.Ny) if self.mode == "strip" else range(self.j_l)

    def row_has_ghosts(self, j: int) -> bool:
        if self.mode == "strip":
            return True
        return j < self.j_l

    def plasma_cols(self, j: int) -> range:
        """Plasma column indices of row j (canonical seam column included once)."""
        if self.mode == "strip" or j < self.j_l:
            return range(self.I1, self.I2 + 1)
        return range(self.n_band_cols)

    def column_extent(self, i: int) -> tuple[int, int]:
        """(bottom row, top row) of the plasma column i."""
        if self.mode == "strip" or self.I1 <= i <= self.I2:
            return 0, self.Ny - 1
        return self.j_l, self.Ny - 1

    def canonical_col(self, i: int, j: int) -> int:
        """Fold the periodic seam twin onto its stored column."""
        if self.mode == "full" and j >= self.j_l:
            return i % self.n_band_cols
        return i

    def x_neighbors(self, i: int, j: int) -> tuple[int, int]:
        """Stored columns left/right of (i, j); periodic wrap on band rows."""
        if self.mode == "full" and j >= self.j_l:
            m = self.n_band_cols
            return (i - 1) % m, (i + 1) % m
        if not (self.I1 - 1 < i < self.I2 + 1):
            raise MissingNeighborError(
                f"node (i={i}, j={j}) has no stored neighbor on both sides"
            )
        return i - 1, i + 1

    # ---- index layout ------------------------------------------------

    def _build_index(self):
        nodes = []
        ghosts = []
        for j in range(self.Ny):
            if self.row_has_ghosts(j):
                cols = range(self.I1 - 1, self.I2 + 2)
            else:
                cols = self.plasma_cols(j)
            for i in cols:
                nodes.append((i, j))
                if self.row_has_ghosts(j) and (i == self.I1 - 1 or i == self.I2 + 1):
                    ghosts.append((i, j))
        self.phi_nodes = nodes
        self._ordinal = {node: k for k, node in enumerate(nodes)}
        self.n_phi = len(nodes) - len(ghosts)
        self.n_q = self.n_phi
        self.n_ghost = 2 * len(ghosts)  # one phi and one q unknown per ghost node
        self.N = 2 * len(nodes)

        ghost_set = set(ghosts)
        self._ghost_nodes = ghost_set
        self._plasma_ordinals = np.array(
            [k for k, node in enumerate(nodes) if node not in ghost_set], dtype=np.intp
        )
        self._x_arr = np.array([self.x(i) for i, _ in nodes])
        self._y_arr = np.array([self.y(j) for _, j in nodes])
        self._quad_weights = self._compute_quad_weights()

    def ordinal(self, i: int, j: int) -> int:
        """Position of node (i, j) in the phi enumeration (ghosts included)."""
        try:
            return self._ordinal[(self.canonical_col(i, j), j)]
        except KeyError:
            raise OutOfDomainError(f"(i={i}, j={j}) is not a stored node") from None

    def slot(self, field: int, i: int, j: int) -> int:
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

    # ---- classification ----------------------------------------------

    def classify(self, i: int, j: int) -> NodeClassification:
        """Deterministic classification of a plasma or ghost node."""
        if not 0 <= j < self.Ny:
            raise OutOfDomainError(f"row {j} outside [0, {self.Ny - 1}]")
        ghost_rows = self.row_has_ghosts(j)
        if ghost_rows and i == self.I1 - 1:
            return NodeClassification(NodeClass.GHOST_WEST)
        if ghost_rows and i == self.I2 + 1:
            return NodeClassification(NodeClass.GHOST_EAST)

        if self.mode == "full" and j >= self.j_l:
            if not 0 <= i <= self.n_band_cols:
                raise OutOfDomainError(f"(i={i}, j={j}) outside the periodic band")
            ic = i % self.n_band_cols
            anchor = ic == self.I1
            on_l = j == self.j_l
            top = j == self.Ny - 1
            if ic == self.I1 or ic == self.I2:
                primary = NodeClass.FACE_WEST if ic == self.I1 else NodeClass.FACE_EAST
                if not on_l:
                    # above the corner the face column is ordinary plasma
                    primary = NodeClass.SIGMA_PAR_TOP if top else NodeClass.INTERIOR
                    return NodeClassification(primary, anchor_line=anchor)
                return NodeClassification(primary, anchor_line=anchor, limiter_top=True)
            if ic == 0:
                # seam column x = +-0.5
                if top:
                    return NodeClassification(NodeClass.SIGMA_PAR_TOP)
                if on_l:
                    return NodeClassification(NodeClass.SIGMA_PAR_LIMITER_TOP)
                return NodeClassification(NodeClass.PERIODIC_SEAM)
            inside_gap = self.I1 < ic < self.I2
            if top:
                return NodeClassification(NodeClass.SIGMA_PAR_TOP)
            if on_l and not inside_gap:
                return NodeClassification(NodeClass.SIGMA_PAR_LIMITER_TOP)
            return NodeClassification(NodeClass.INTERIOR)

        # strip rows / full rows below the limiter top
        if not self.I1 <= i <= self.I2:
            raise OutOfDomainError(
                f"(i={i}, j={j}) is not a stored node (limiter solid or outside the mesh)"
            )
        if i == self.I1:
            return NodeClassification(NodeClass.FACE_WEST, anchor_line=True)
        if i == self.I2:
            return NodeClassification(NodeClass.FACE_EAST)
        if j == 0:
            return NodeClassification(NodeClass.SIGMA_PAR_BOTTOM)
        if j == self.Ny - 1:
            return NodeClassification(NodeClass.SIGMA_PAR_TOP)
        return NodeClassification(NodeClass.INTERIOR)

    # ---- quadrature --------------------------------------------------

    def _compute_quad_weights(self) -> np.ndarray:
        """Trapezoidal node weights: (plasma cells adjacent to the node) / 4.

        Ghost nodes get weight zero.  On band rows the wrap supplies the
        cells across the seam, so every physical cell is counted once.
        """
        cells = set()
        for j in range(self.Ny - 1):
            below = set(self.plasma_cols(j))
            above = set(self.plasma_cols(j + 1))
            band_row = self.mode == "full" and j >= self.j_l
            for i in self.plasma_cols(j):
                right = (i + 1) % self.n_band_cols if band_row else i + 1
                if i in below and right in below and i in above and right in above:
                    cells.add((i, j))

        w = np.zeros(len(self.phi_nodes))
        for (i, j), k in self._ordinal.items():
            if self.row_has_ghosts(j) and (i == self.I1 - 1 or i == self.I2 + 1):
                continue
            count = 0
            for jc in (j - 1, j):
                if not 0 <= jc <= self.Ny - 2:
                    continue
                band_row = self.mode == "full" and jc >= self.j_l
                ics = [i, (i - 1) % self.n_band_cols if band_row else i - 1]
                for ic in ics:
                    if (ic, jc) in cells:
                        count += 1
            w[k] = count / 4.0
        return w

    @property
    def quad_weights(self) -> np.ndarray:
        """Quadrature weights aligned with the phi enumeration (ghosts zero)."""
        return self._quad_weights


def build_grid(phys: PhysConfig, disc: DiscConfig) -> Grid:
    """Validate the configuration and construct the mesh."""
    return Grid(phys, disc)


def classify_node(grid: Grid, i: int, j: int) -> NodeClassification:
    """Classification of node (i, j); OutOfDomainError for limiter-interior queries."""
    return grid.classify(i, j)
