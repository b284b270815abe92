"""Sparse LU factorization, triangular solves and a 2-norm condition estimator.

`lu_factorize` takes one of two paths.  `assembly.build_system` records on
the matrix it returns where its unknowns sit (`geometry.ColumnBlocks`, as
``matrix.column_blocks``): column blocks, each holding the same positions
on every grid row it spans, and an interface of the remaining unknowns.
The `LUFactors` it returns hold what the path factored: ``pieces``, the
SuperLU factors of the whole matrix or one set of cosine-mode factors per
column block, and ``interface``, the dense Schur-complement factors or
None.  ``L`` and ``U`` stack the pieces' triangular factors and the
interface's, so their nnz is the fill; the cosine-mode path has no
permutations of A.

* **cosine-mode path.**  A block whose diagonal part has the Kronecker form

      A_bb = I (x) X1 + D (x) X2 + D^2 (x) X3,

  where D is the unscaled mirror second difference in y
  (`stencils.mirror_dyy`), with rows (1, -2, 1) inside and (-2, 2) at the
  walls, and X1, X2, X3 are m x m.
  Let C be the unnormalised DCT-I along y, C[k, j] = e_j cos(pi j k /
  (Ny - 1)) with E = diag(e) = diag(1, 2, ..., 2, 1); C C = 2 (Ny - 1) I.
  V = C E^-1 diagonalises D: D = V diag(mu) V^-1 with mu_k =
  2 cos(pi k / (Ny - 1)) - 2 and V^-1 = E C / (2 (Ny - 1)).  So A_bb =
  (V (x) I) B (V^-1 (x) I) with B = blockdiag_k(X1 + mu_k X2 + mu_k^2 X3).
  E scales whole modes, so it commutes with B and cancels: A_bb^-1 =
  (C (x) I) B^-1 (C (x) I) / (2 (Ny - 1)) and A_bb^-T = (E C (x) I) B^-T
  (C E^-1 (x) I) / (2 (Ny - 1)).  A block solve is a DCT-I along y, Ny
  independent banded solves along x and a DCT-I (the fast direct method of
  Hockney, J. ACM 1965, and Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
  1970).  B is row-scaled to unit max entry per row and factored by one
  SuperLU call.
  - The form is checked on A's own compressed rows, with no rebuilt copy
    of A: the X's come from the middle block row; block rows 2 .. Ny - 3,
    where D and D^2 have one stencil, must repeat that row shifted by
    whole blocks, and it must be symmetric and reach no further than two
    blocks; only the four wall block rows are compared with rows of the
    form, as arrays over their four block columns and the pattern of the
    X's (an entry off those against 0).  B is formed as arrays on the m x m
    pattern of the X's, repeated once per mode, and goes to SuperLU in
    compressed-column form.
  - A strip grid is one block, every unknown, and no interface.
  - A full grid is two blocks, the gap columns I1 + 1 .. I2 on every row
    and the band columns I2 + 2 .. I1 - 2 (periodic) above the limiter,
    plus an interface, the columns I1 - 1, I1 and I2 + 1 on every row
    (`Grid.column_blocks`).  The interface is eliminated through the dense
    Schur complement S = A_II - sum_b A_Ib A_bb^-1 A_bI (the capacitance
    matrix method of Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal.
    1971, and Proskurowski & Widlund, Math. Comp. 1976).  S is built per
    cosine mode from block solves whose right-hand sides are unit vectors
    at the few positions next to the interface, then row-scaled and
    factored by LAPACK (see the memory paragraph below).  A solve is one
    cosine-mode solve per block, one dense interface solve and a
    correction of the mode coefficients.
    The anchor column I1 must be in the interface: without it the gap
    block's cosine mode 0 carries no phi in its evolution rows and is
    singular.
  A matrix that does not have its recorded form (blocks and interface
  that do not partition the unknowns, a layout without an interface that
  is not one block of every unknown in order, an entry between two blocks,
  or a block off the Kronecker form) falls back to SuperLU, with a warning
  on this module's logger that names the reason.
* **SuperLU path.**  Any other matrix (one without a recorded layout, test
  matrices) is factored as it stands by SuperLU
  (scipy.sparse.linalg.splu) with threshold partial pivoting; the factors
  satisfy Pr A Pc = L U.

A direct method is required here: the systems are ill-conditioned by
construction and a factor-once / solve-per-step loop beats an
unpreconditioned iterative method.

The pivot test is scale-aware on each path.  The SuperLU path refuses a
pivot <= 1e-14 max|A|.  On the cosine-mode path the blocks of B span entry
scales from 1/dx^2 to 16 nu/dy^4 by construction, so a threshold taken
from the largest entry would measure that spread, not singularity; there
each row of B, and of S, has unit max entry and a pivot <= 1e-14 is
refused.

The condition estimator runs power iteration on A^T A for sigma_max and on
(A^T A)^{-1}, through the factors, for sigma_min.  With ``equilibrate=True``
the estimate applies to the Ruiz row/column-scaled matrix B = Dr A Dc,
i.e. to the system as a scaled solver sees it, while still reusing the
factors of A for the inverse applications.  Its cost is sparse products
and solves: Ruiz takes two products with S = A o A per sweep, carrying the
squared scalings dr^2 and dc^2 so that each update is a division and a
square root in place; a sigma_max iteration is two products, with B and
through the CSC view B^T (a CSR copy of B^T would make them about 8%
faster at N = 42,182, but it holds 3.5 MB during the estimate, where a
stepping run reaches its peak resident size); a sigma_min iteration is
two solves, whose results are scaled by Dr^-2 and Dc^-1, formed once.

Each factorization first returns the C heap's free pages to the OS (glibc
``malloc_trim``; skipped where the C library has none).  SuperLU keeps its
workspace, sized from nnz and mostly untouched, as the factor storage;
freeing it raises glibc's dynamic mmap and trim thresholds, so without the
trim whether the previous factorization's freed memory stays resident
depends on the heap layout, and the peak resident size of a process that
factors repeatedly varies by about 10 MB from run to run at N = 42,182.

The mode matrices go to SuperLU in their natural column order
(``permc_spec="NATURAL"``).  B is block diagonal with banded blocks (4
sub- and 5 superdiagonals at N = 42,182), so COLAMD's order costs time and
saves no fill: there SuperLU took 15 ms in natural order against 23 ms,
with 256,570 fill entries against 256,578, and on the criterion-2 systems
at h = 0.0125 the fill is within 0.5% of COLAMD's.

The column-block factorization holds little beyond its factors while it
runs.  S is built one read position at a time: for position r of a block,
the rows of A_bb^-1 at r and the columns at the written positions form an
Ny x (Ny W) array (W written positions), and only the interface rows that
read r take it, so no n_I x (Ny W) product or 4-D intermediate exists.  S
is row-scaled in place; LAPACK factors a Fortran-order copy of it (S is
kept in C order, where the row updates of its build are contiguous).  The
mode matrices go to SuperLU with one-column panels and no relaxed
supernodes (``panel_size=1, relax=1``).  B is a block diagonal of bands
about ten entries wide, so there is little for wide panels or relaxed
supernodes to gather: with SuperLU's defaults a factorization at
N = 42,182 raised the resident size by 15 MB more at its peak and took
93 ms instead of 84 ms.  On the full grids the traced peak of
`lu_factorize` beyond what it returns is about 1.4 times the 8 n_I^2
bytes of S, against 3.2 times for a Schur complement formed through an
n_I x (Ny W) product.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import EdgepotError, SingularPivotError
from .geometry import ColumnBlocks
from .stencils import mirror_dyy

_PIVOT_RTOL = 1e-14
_KRON_RTOL = 1e-13  # rebuilt Kronecker form against the matrix, relative to max|A|
_MIN_BLOCK_ROWS = 5  # the middle block row must carry the interior D^2 stencil
_WALL_D = mirror_dyy(4).toarray()  # D on a column of four rows, as the wall block rows read it
POWER_SEED = 1234  # seed of the start vectors of every power iteration
POWER_MAX_ITER = 10_000  # iteration cap of every power iteration
_COND_TOL = 1e-4  # relative step at which the condition estimate stops
_log = logging.getLogger(__name__)
# SuperLU options of the mode matrices only (see the module docstring).
_MODE_SPLU_OPTIONS = {"permc_spec": "NATURAL", "panel_size": 1, "relax": 1}

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


class _OffLayout(Exception):
    """A matrix is not of the form of its recorded column blocks; the message says where."""


@dataclass(frozen=True)
class _Coupling:
    """A block's coupling to the interface, in a solve with A or with A^T.

    In the solve's matrix, the interface rows read the in-row positions
    ``read`` of the block, through ``a_ib`` (interface x (row, read
    position)); the block rows take the interface values through ``a_bi``
    ((row, written position) x interface); ``w[p]`` holds the columns of
    B_p^-1 / (2 (ny - 1)) at the written positions (of B_p^-T / (2 (ny - 1))
    for A^T), p the cosine mode.
    """

    read: np.ndarray
    a_ib: sps.csr_matrix
    a_bi: sps.csr_matrix
    w: np.ndarray  # (ny, m, written positions)


def _dct1(u: np.ndarray) -> np.ndarray:
    """C u, C the unnormalised DCT-I along axis 0 (see the module docstring)."""
    return scipy.fft.dct(u, type=1, axis=0)


@dataclass(frozen=True)
class _CosineModes:
    """One column block and the factors of its row-scaled mode matrix R B.

    A solve is `from_modes(mode_solve(u))`: C B^-1 C / (2 (ny - 1)) with
    A_bb, E C B^-T C E^-1 / (2 (ny - 1)) with A_bb^T.
    """

    index: np.ndarray  # (ny, m) unknowns
    scale: np.ndarray  # R / (2 (ny - 1)), R = 1 / (row max of B), aligned with the rows of B
    lu: spla.SuperLU  # of R B
    coupling: dict = field(default_factory=dict)  # "N", "T" -> _Coupling, with an interface

    def to_modes(self, u: np.ndarray, trans: str) -> np.ndarray:
        """(C (x) I) u, or (C E^-1 (x) I) u for trans 'T', for u laid out as (ny, m)."""
        if trans == "T":
            u = u.copy()
            u[1:-1] *= 0.5
        return _dct1(u)

    def from_modes(self, c: np.ndarray, trans: str) -> np.ndarray:
        """(C (x) I) c, or (E C (x) I) c for trans 'T', for c laid out as (ny, m)."""
        u = _dct1(c)
        if trans == "T":
            u[1:-1] *= 2.0
        return u

    def solve_b(self, v: np.ndarray, trans: str) -> np.ndarray:
        """B^-1 v (B^-T v for trans 'T') / (2 (ny - 1)), for v with one row per row of B."""
        scale = self.scale if v.ndim == 1 else self.scale[:, None]
        if trans == "N":
            return self.lu.solve(scale * v)
        return scale * self.lu.solve(v, trans="T")

    def mode_solve(self, u: np.ndarray, trans: str) -> np.ndarray:
        """B^-1 (C (x) I) u (B^-T (C E^-1 (x) I) u for 'T') / (2 (ny - 1)), laid out as u."""
        return self.solve_b(self.to_modes(u, trans).ravel(), trans).reshape(u.shape)

    def solve(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        """A_bb^-1 rhs (A_bb^-T rhs for trans 'T'), for a block of every unknown in order."""
        return self.from_modes(self.mode_solve(rhs.reshape(self.index.shape), trans), trans).ravel()

    def inverse_columns(self, positions: np.ndarray, trans: str) -> np.ndarray:
        """(ny, m, k): the k columns ``positions`` of B_p^-1 (B_p^-T) / (2 (ny - 1)), per mode p."""
        ny, m = self.index.shape
        e = np.zeros((ny, m, len(positions)))
        e[:, positions, np.arange(len(positions))] = 1.0
        return self.solve_b(e.reshape(-1, len(positions)), trans).reshape(ny, m, -1)


@dataclass(frozen=True)
class _Interface:
    """Interface unknowns and the dense LU factors of the row-scaled Schur complement."""

    index: np.ndarray
    row_scale: np.ndarray  # D = diag(1 / row max of S)
    lu_piv: tuple  # scipy.linalg.lu_factor of D S

    def solve(self, g: np.ndarray, trans: str) -> np.ndarray:
        if trans == "N":
            return scipy.linalg.lu_solve(self.lu_piv, self.row_scale * g)
        return self.row_scale * scipy.linalg.lu_solve(self.lu_piv, g, trans=1)


@dataclass(frozen=True)
class LUFactors:
    """What a factorization holds; immutable, so concurrent solves are read-only.

    ``pieces`` is either the SuperLU factors of the whole matrix, with
    Pr A Pc = L U, or one `_CosineModes` per column block.  ``interface``
    holds the dense factors of the row-scaled Schur complement, or None.
    ``L`` and ``U`` stack each piece's factors (each block's row-scaled mode
    matrix R B, B = blockdiag_k(X1 + mu_k X2 + mu_k^2 X3)) and then the
    interface's unit-lower and upper triangles, every stored entry kept,
    so their nnz is the fill; on the cosine-mode path they are not factors
    of A, which is never factored there.
    """

    n: int
    pieces: tuple
    interface: Optional[_Interface] = None

    def _stacked(self, lower: bool) -> sps.csr_matrix:
        lus = [p.lu if isinstance(p, _CosineModes) else p for p in self.pieces]
        parts = [lu.L if lower else lu.U for lu in lus]
        if self.interface is not None:
            lu = self.interface.lu_piv[0]
            r, c = np.tril_indices(len(lu)) if lower else np.triu_indices(len(lu))
            values = np.where(r == c, 1.0, lu[r, c]) if lower else lu[r, c]
            parts.append(sps.csr_matrix((values, (r, c)), shape=lu.shape))
        return parts[0].tocsr() if len(parts) == 1 else sps.block_diag(parts, format="csr")

    @property
    def L(self) -> sps.csr_matrix:
        return self._stacked(lower=True)

    @property
    def U(self) -> sps.csr_matrix:
        return self._stacked(lower=False)


def _checked_splu(
    matrix: sps.spmatrix, threshold: float, what: str = "", **options
) -> spla.SuperLU:
    """SuperLU factors of the matrix, ``options`` going to splu.

    SingularPivotError on a pivot <= threshold.
    """
    try:
        lu = spla.splu(matrix.tocsc(), **options)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularPivotError(f"SingularPivot: {exc}") from exc
    _check_pivots(lu.U.diagonal(), matrix.shape[0], threshold, what)
    return lu


def _check_pivots(diag: np.ndarray, n: int, threshold: float, what: str) -> None:
    """SingularPivotError unless ``diag`` holds n pivots, each above threshold in modulus."""
    u_diag = np.abs(diag)
    if u_diag.size < n or not (u_diag > threshold).all():
        worst = float(u_diag.min()) if u_diag.size else 0.0
        raise SingularPivotError(
            f"SingularPivot: pivot {worst:.3e} below threshold {threshold:.3e}{what}"
        )


def _kronecker_parts(a: sps.csr_matrix, ny: int, a_max: float):
    """(rows, cols, x) if A = I (x) X1 + D (x) X2 + D^2 (x) X3 with D of size ny, else None.

    x[k] holds X_{k+1} on one m x m pattern (rows, cols), in column-major
    order.  The X's come from the middle block row, where the D and D^2
    stencils are (1, -2, 1) and (1, -4, 6, -4, 1).  Block rows 2 .. ny - 3
    of D and D^2 are that one stencil, so A has the form there if the
    middle row is symmetric (blocks -1 and -2 equal blocks +1 and +2, and
    no block lies further out) and the other rows repeat its column indices
    shifted by whole blocks, and its values.  The four wall block rows are
    compared with rows of the form.  Values agree to 1e-13 max|A|.
    """
    if ny < _MIN_BLOCK_ROWS:
        return None
    if not a.has_canonical_format:  # sorted, unique column indices in every row
        a = a.copy()
        a.sum_duplicates()
    n, ptr = a.shape[0], a.indptr
    m = n // ny
    tol = _KRON_RTOL * a_max
    j = ny // 2
    mid = slice(ptr[j * m], ptr[(j + 1) * m])
    per_row = np.diff(ptr[j * m : (j + 1) * m + 1])
    col, val = a.indices[mid], a.data[mid]
    block = col // m - j
    if (np.abs(block) > 2).any():
        return None
    union, at = np.unique((col % m) * m + np.repeat(np.arange(m), per_row), return_inverse=True)
    b = np.zeros((5, union.size))  # blocks -2 .. 2 of the middle row
    b[block + 2, at] = val
    if np.abs(b[:2] - b[:2:-1]).max(initial=0.0) > tol:
        return None
    x3 = b[4]
    x2 = b[3] + 4.0 * x3
    x1 = b[2] + 2.0 * x2 - 6.0 * x3
    x = np.stack([x1, x2, x3])
    inner = slice(ptr[2 * m], ptr[(ny - 2) * m])
    shift = (np.arange(2, ny - 2) - j)[:, None] * m
    if (
        (np.diff(ptr[2 * m : (ny - 2) * m + 1]).reshape(ny - 4, m) != per_row).any()
        or (a.indices[inner].reshape(ny - 4, -1) != col + shift).any()
        or np.abs(a.data[inner].reshape(ny - 4, -1) - val).max(initial=0.0) > tol
    ):
        return None
    # wall block rows 0, 1 span block columns 0 .. 3 and rows ny - 2, ny - 1
    # span ny - 4 .. ny - 1, where D and D^2 read as on a column of four rows;
    # compared as (wall row, block column, pattern entry), any other entry with 0
    want = np.einsum("pwk,pu->wku", np.stack([np.eye(4), _WALL_D, _WALL_D @ _WALL_D]), x)
    top = (ny - 2) * m
    wall = np.r_[0 : ptr[2 * m], ptr[top] : ptr[n]]
    r = np.repeat(np.arange(4 * m), np.diff(ptr)[np.r_[0 : 2 * m, top:n]])  # of the 4 m wall rows
    c = a.indices[wall] - np.where(r < 2 * m, 0, (ny - 4) * m)  # in the window
    entry = np.full(m * m, union.size)
    entry[union] = np.arange(union.size)
    u = np.where((0 <= c) & (c < 4 * m), entry[(c % m) * m + r % m], union.size)
    on = u < union.size
    got = np.zeros_like(want)
    got[r[on] // m, c[on] // m, u[on]] = a.data[wall[on]]
    if max(np.abs(want - got).max(), np.abs(a.data[wall[~on]]).max(initial=0.0)) > tol:
        return None
    return union % m, union // m, x


def _scaled_modes(ny: int, m: int, rows, cols, x) -> tuple[sps.csc_matrix, np.ndarray]:
    """(R B, row scale) of B = blockdiag_k(X1 + mu_k X2 + mu_k^2 X3), R = diag(1 / row max of |B|).

    ``rows``, ``cols`` and ``x`` are as `_kronecker_parts` returns them.
    Every mode block takes that pattern, with values summed as
    (v1 + mu_k v2) + mu_k^2 v3, and exact zeros (mode 0 has mu = 0)
    dropped, so B is bit for bit the sparse sum of Kronecker products
    I (x) X1 + diag(mu) (x) X2 + diag(mu^2) (x) X3.  R B is built in the
    compressed-column form SuperLU takes.
    """
    mu = 2.0 * np.cos(np.pi * np.arange(ny) / (ny - 1)) - 2.0
    data = ((x[0] + mu[:, None] * x[1]) + (mu * mu)[:, None] * x[2]).ravel()
    indices = (np.arange(ny)[:, None] * m + rows).ravel()  # row of each entry, mode by mode
    row_max = np.zeros(ny * m)
    np.maximum.at(row_max, indices, np.abs(data))
    if not (row_max > 0).all():
        r = int(np.argmin(row_max))
        raise SingularPivotError(f"SingularPivot: row {r % m} of cosine mode {r // m} is zero")
    row_scale = 1.0 / row_max
    data *= row_scale[indices]
    indptr = np.concatenate([[0], np.cumsum(np.tile(np.bincount(cols, minlength=m), ny))])
    b = sps.csc_matrix((data, indices, indptr), shape=(ny * m, ny * m))
    b.eliminate_zeros()
    return b, row_scale


def _couplings(block: _CosineModes, a_ib: sps.csr_matrix, a_bi: sps.csr_matrix) -> dict:
    """The block's `_Coupling` for solves with A and with A^T.

    ``a_ib`` and ``a_bi`` are the interface-block and block-interface parts
    of A, with block columns and rows in (row, position) order.
    """
    ny, m = block.index.shape
    read = np.unique(a_ib.indices % m)  # positions the interface rows of A read
    written = np.unique(a_bi.tocoo().row % m)  # positions the interface columns of A reach
    rows = np.arange(ny)[:, None] * m
    a_ir = a_ib[:, (rows + read).ravel()].tocsr()
    a_wi = a_bi[(rows + written).ravel()].tocsr()
    return {
        "N": _Coupling(read, a_ir, a_wi, block.inverse_columns(written, "N")),
        "T": _Coupling(written, a_wi.T.tocsr(), a_ir.T.tocsr(), block.inverse_columns(read, "T")),
    }


def _schur_complement(a_ii: sps.csr_matrix, blocks) -> np.ndarray:
    """S = A_II - sum_b A_Ib A_bb^-1 A_bI, dense.

    A_bb^-1 = (C (x) I) B^-1 (C (x) I) / (2 (ny - 1)), so its entry between
    position r of row j and written position s of row j' is sum_p C[j, p]
    w[p, r, s] C[p, j'], w the block's `_Coupling` columns for A.  For each
    read position r this is the ny x (ny W) array C diag_p(w[p, r]) C, one
    GEMM; only the interface rows that read r take it, and only through the
    written positions.
    """
    s = a_ii.toarray()
    for block in blocks:
        link = block.coupling["N"]
        ny = block.index.shape[0]
        cos = _dct1(np.eye(ny))
        n_read = len(link.read)
        for k, r in enumerate(link.read):
            a_ir = link.a_ib[:, k::n_read]  # interface x grid row, at position r
            rows = np.flatnonzero(np.diff(a_ir.indptr))
            inv = cos @ (cos[:, :, None] * link.w[:, r, None, :]).reshape(ny, -1)
            s[rows] -= link.a_bi.T.dot((a_ir[rows] @ inv).T).T
    return s


def _factorize_interface(index: np.ndarray, s: np.ndarray) -> _Interface:
    """Dense LU of the row-scaled Schur complement, scaling s in place.

    SingularPivotError on a pivot <= 1e-14.
    """
    row_max = np.maximum(s.max(axis=1), -s.min(axis=1))
    if not (row_max > 0).all():
        raise SingularPivotError(
            f"SingularPivot: row {int(np.argmin(row_max))} of the interface Schur complement is zero"
        )
    row_scale = 1.0 / row_max
    s *= row_scale[:, None]
    lu_piv = scipy.linalg.lu_factor(s)
    what = " (row-scaled interface Schur complement)"
    _check_pivots(np.diag(lu_piv[0]), len(s), _PIVOT_RTOL, what)
    return _Interface(index, row_scale, lu_piv)


def _check_separated(a: sps.csr_matrix, layout: ColumnBlocks) -> None:
    """_OffLayout unless blocks and interface partition the unknowns, none joined by an entry."""
    n = a.shape[0]
    label = np.full(n, -2)
    for k, b in enumerate(layout.blocks):
        label[b.ravel()] = k
    label[layout.interface] = -1
    sizes = sum(b.size for b in layout.blocks) + layout.interface.size
    if sizes != n or (label == -2).any():
        raise _OffLayout("the blocks and the interface do not partition the unknowns")
    coo = a.tocoo()
    rl, cl = label[coo.row], label[coo.col]
    joins = np.flatnonzero((rl != cl) & (rl >= 0) & (cl >= 0))
    if joins.size:
        k = joins[0]
        raise _OffLayout(
            f"entry ({coo.row[k]}, {coo.col[k]}) joins block {rl[k]} to block {cl[k]}"
        )


def _factorize_blocks(a: sps.csr_matrix, a_max: float, layout: ColumnBlocks) -> LUFactors:
    """Factors on the cosine-mode path; _OffLayout if A does not have the layout's form.

    The form: every unknown in one block or the interface (without an
    interface, one block of every unknown in order), no entry between two
    blocks, and each block's diagonal part of the Kronecker form.
    """
    n = a.shape[0]
    iface = layout.interface
    whole = not iface.size  # then the one block's A_bb is A
    if not whole:
        _check_separated(a, layout)
    elif len(layout.blocks) != 1 or not np.array_equal(layout.blocks[0].ravel(), np.arange(n)):
        raise _OffLayout(
            "without an interface the layout must be one block of every unknown, in order"
        )
    blocks = []
    for k, b in enumerate(layout.blocks):
        idx = b.ravel()
        a_bb = a if whole else a[idx][:, idx]
        parts = _kronecker_parts(a_bb, b.shape[0], a_max)
        if parts is None:
            raise _OffLayout(f"block {k} is off the Kronecker form")
        rb, row_scale = _scaled_modes(*b.shape, *parts)
        lu = _checked_splu(rb, _PIVOT_RTOL, " (row-scaled cosine modes)", **_MODE_SPLU_OPTIONS)
        block = _CosineModes(b, row_scale / (2 * (b.shape[0] - 1)), lu)
        if not whole:
            block = replace(block, coupling=_couplings(block, a[iface][:, idx], a[idx][:, iface]))
        blocks.append(block)
    interface = None
    if not whole:
        interface = _factorize_interface(iface, _schur_complement(a[iface][:, iface], blocks))
    return LUFactors(n=n, pieces=tuple(blocks), interface=interface)


def lu_factorize(matrix: sps.spmatrix) -> LUFactors:
    """Factorize a square sparse matrix; raises SingularPivotError.

    A matrix with a recorded ``column_blocks`` layout that it fits takes the
    cosine-mode path, every other matrix SuperLU; see the module docstring.
    A matrix whose recorded layout it does not fit is logged as a warning,
    naming the reason, before it goes to SuperLU.
    """
    n, m = matrix.shape
    if n != m:
        raise EdgepotError(f"matrix is {n}x{m}, not square")
    if _malloc_trim is not None:
        _malloc_trim(0)
    a = matrix.tocsr()
    a_max = np.abs(a.data).max() if a.nnz else 0.0
    layout = getattr(matrix, "column_blocks", None)
    if layout is not None:
        try:
            return _factorize_blocks(a, a_max, layout)
        except _OffLayout as exc:
            _log.warning("column blocks not used, factoring by SuperLU: %s", exc)
    return LUFactors(n=n, pieces=(_checked_splu(a, _PIVOT_RTOL * a_max),))


def lu_solve(factors: LUFactors, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve A x = b (or A^T x = b with trans='T') through the factors.

    On the cosine-mode path, with an interface, the block solves give the
    interface right-hand side g = b_I - sum_b A_Ib A_bb^-1 b_b, S x_I = g,
    and each block subtracts B^-1 (C (x) I) A_bI x_I / (2 (ny - 1)) from its
    mode coefficients before the last DCT-I (transposed for 'T').  Any
    ``trans`` but 'N' or 'T' raises ValueError.
    """
    if trans not in ("N", "T"):
        raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (factors.n,):
        raise EdgepotError(
            f"rhs has shape {rhs.shape}, expected ({factors.n},)"
        )
    iface = factors.interface
    if iface is None:  # SuperLU's factors, or one block holding every unknown in order
        return factors.pieces[0].solve(rhs, trans=trans)
    blocks = factors.pieces
    links = [block.coupling[trans] for block in blocks]
    coeffs = [block.mode_solve(rhs[block.index], trans) for block in blocks]
    g = rhs[iface.index]
    for block, link, c in zip(blocks, links, coeffs):
        g = g - link.a_ib @ block.from_modes(c[:, link.read], trans).ravel()
    x = iface.solve(g, trans)
    out = np.empty(factors.n)
    out[iface.index] = x
    for block, link, c in zip(blocks, links, coeffs):
        z = block.to_modes((link.a_bi @ x).reshape(len(block.index), -1), trans)
        c -= np.matmul(link.w, z[:, :, None])[:, :, 0]
        out[block.index] = block.from_modes(c, trans)
    return out


def _sqrt_ratio(d: np.ndarray, sums: np.ndarray) -> None:
    """d <- sqrt(d / sums) in place; where sums is 0, d <- sqrt(d), so a d of 1 stays 1."""
    np.divide(d, sums, out=d, where=sums > 0)
    np.sqrt(d, out=d)


def ruiz_scalings(matrix: sps.spmatrix) -> tuple[np.ndarray, np.ndarray, sps.csr_matrix]:
    """Iterative 2-norm equilibration (Ruiz, RAL-TR-2001-034): returns (dr, dc, Dr A Dc).

    Each of the 20 sweeps divides every row of Dr A Dc by the square root of
    its 2-norm, then every column.  The sweeps carry the squared scalings
    r = dr^2 and c = dc^2: with S = A o A the fixed matrix of squared
    entries, the rows' sums of squares are r * (S c), so a row update is
    r <- sqrt(r / (S c)) and a column update c <- sqrt(c / (S^T r)), each
    one sparse product (the second through the CSC view ``S.T``) and a
    division and a square root in place.  A sweep costs two products with
    S.  A zero row or column keeps its scale of 1.  S, and the returned
    Dr A Dc written once at the end into its values, share the index
    arrays of the input's CSR form; the input is not modified.
    """
    a = sps.csr_matrix(matrix, dtype=np.float64)  # may share the input's arrays
    s = sps.csr_matrix((np.square(a.data), a.indices, a.indptr), shape=a.shape)
    st = s.T
    r = np.ones(s.shape[0])
    c = np.ones(s.shape[1])
    for _ in range(20):
        _sqrt_ratio(r, s @ c)
        _sqrt_ratio(c, st @ r)
    dr, dc = np.sqrt(r, out=r), np.sqrt(c, out=c)
    np.multiply(a.data, dc[s.indices], out=s.data)
    s.data *= np.repeat(dr, np.diff(s.indptr))
    return dr, dc, s


@dataclass(frozen=True)
class CondEstimate:
    value: float
    converged: bool
    iterations_sigma_max: int
    iterations_sigma_min: int


def power_iteration(apply_op, n, rng, tol):
    """(||op v||, iterations, converged) for the iterate v of unit norm.

    ||op v|| tends to the modulus of the dominant eigenvalue when that is
    simple; it has converged once it changes by at most tol of itself.  An
    iteration is one call of ``apply_op``, its norm and the division that
    makes the next iterate.  A norm of 0 returns (0, k, True); an infinite
    or NaN norm returns (norm, k, False) at once.  After ``POWER_MAX_ITER``
    iterations it returns (norm, POWER_MAX_ITER, False).
    """
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for k in range(1, POWER_MAX_ITER + 1):
        w = apply_op(v)
        lam = math.sqrt(w @ w)  # np.linalg.norm of a 1-D real array, bit for bit
        if not math.isfinite(lam):
            return lam, k, False
        if lam == 0.0:
            return 0.0, k, True
        v = w / lam
        if abs(lam - lam_old) <= tol * lam:
            return lam, k, True
        lam_old = lam
    return lam, POWER_MAX_ITER, False


def estimate_cond2(
    matrix: sps.spmatrix,
    factors: LUFactors,
    equilibrate: bool = False,
) -> CondEstimate:
    """Euclidean condition number sigma_max / sigma_min of the matrix.

    Each power iteration stops once one iteration changes its estimate by
    at most 1e-4 of itself; that bounds the step, not the error.  The
    result is a lower bound: ||A^T A v|| <= sigma_max^2 and
    ||(A^T A)^-1 v|| <= sigma_min^-2 for a unit v.  Against the dense SVD
    of the equilibrated matrix it reads 0.09-0.5% low on the h = 0.05 and
    0.025 strip and full (l = 0.5) grids, and 0.18-0.5% low on the
    h = 0.0125 and 0.00625 benchmark systems against Lanczos (``eigsh``,
    tol 1e-12) on B^T B and its inverse.

    Deterministic (seed ``POWER_SEED``).  If either power iteration hits
    ``POWER_MAX_ITER`` the value is still returned, flagged with
    ``converged=False``.
    """
    n = matrix.shape[0]
    a = matrix.tocsr()
    if equilibrate:
        dr, dc, b = ruiz_scalings(a)
        inv_dc, inv_dr2 = 1.0 / dc, 1.0 / (dr * dr)
    else:
        b, inv_dc, inv_dr2 = a, np.ones(n), np.ones(n)  # scaling by 1.0 is exact
    bt = b.T  # the CSC view of b, not a copy

    def fwd(v):
        return bt @ (b @ v)

    def inv(v):  # (B^T B)^-1 v = Dc^-1 A^-1 Dr^-2 A^-T Dc^-1 v
        y = inv_dr2 * lu_solve(factors, inv_dc * v, trans="T")
        return inv_dc * lu_solve(factors, y)

    rng = np.random.default_rng(POWER_SEED)
    smax2, k1, ok1 = power_iteration(fwd, n, rng, _COND_TOL)
    sinv2, k2, ok2 = power_iteration(inv, n, rng, _COND_TOL)
    return CondEstimate(
        value=float(np.sqrt(smax2) * np.sqrt(sinv2)),
        converged=ok1 and ok2,
        iterations_sigma_max=k1,
        iterations_sigma_min=k2,
    )
