"""Sparse LU factorization, triangular solves and a 2-norm condition estimator.

`lu_factorize` takes one of two paths.  `assembly.build_system` records on
the matrix it returns where its unknowns sit (`ColumnBlocks`, as
``matrix.column_blocks``): column blocks, each holding the same positions
on every grid row it spans, and an interface of the remaining unknowns.

* **cosine-mode path.**  A block whose diagonal part has the Kronecker form

      A_bb = I (x) X1 + D (x) X2 + D^2 (x) X3,

  where D is the unscaled mirror second difference in y
  (`stencils.mirror_dyy`), with rows (1, -2, 1) inside and (-2, 2) at the
  walls, and X1, X2, X3 are m x m.
  The DCT-I diagonalises D: D = V diag(mu) V^-1 with V[j, k] =
  cos(pi j k / (Ny - 1)) and mu_k = 2 cos(pi k / (Ny - 1)) - 2.  So
  A_bb = (V (x) I) B (V^-1 (x) I) with B = blockdiag_k(X1 + mu_k X2 +
  mu_k^2 X3), and a block solve is a cosine transform along y, Ny
  independent banded solves along x and the inverse transform (the fast
  direct method of Hockney, J. ACM 1965, and Buzbee, Golub & Nielson,
  SIAM J. Numer. Anal. 1970).  B is row-scaled to unit max entry per row
  and factored by one SuperLU call.
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
    factored by LAPACK.  A solve is one cosine-mode solve per block, one
    dense interface solve and a correction of the mode coefficients.
    The anchor column I1 must be in the interface: without it the gap
    block's cosine mode 0 carries no phi in its evolution rows and is
    singular.
  A matrix that does not have its recorded form (an entry between two
  blocks, or a block off the Kronecker form) falls back to SuperLU.
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
factors of A for the inverse applications.

Each factorization first returns the C heap's free pages to the OS (glibc
``malloc_trim``; skipped where the C library has none).  SuperLU keeps its
workspace, sized from nnz and mostly untouched, as the factor storage;
freeing it raises glibc's dynamic mmap and trim thresholds, so without the
trim whether the previous factorization's freed memory stays resident
depends on the heap layout, and the peak resident size of a process that
factors repeatedly varies by about 10 MB from run to run at N = 42,182.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import DimensionMismatchError, SingularPivotError
from .stencils import mirror_dyy

_PIVOT_RTOL = 1e-14
_KRON_RTOL = 1e-13  # rebuilt Kronecker form against the matrix, relative to max|A|
_MIN_BLOCK_ROWS = 5  # the middle block row must carry the interior D^2 stencil
_DEFAULT_SEED = 1234

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


@dataclass(frozen=True)
class ColumnBlocks:
    """Column blocks and interface of a grid's unknowns.

    ``blocks[b][j, k]`` is the unknown at position k of grid row j of block
    b; every row of a block holds the same positions.  ``interface`` lists
    every other unknown.  `assembly.build_system` records this on the
    matrix it returns, as ``matrix.column_blocks``.
    """

    blocks: tuple[np.ndarray, ...]
    interface: np.ndarray


@dataclass(frozen=True)
class _Coupling:
    """A block's coupling to the interface, in a solve with A or with A^T.

    In the solve's matrix, the interface rows read the in-row positions
    ``read`` of the block, through ``a_ib`` (interface x (row, read
    position)); the block rows take the interface values through ``a_bi``
    ((row, written position) x interface); ``w[p]`` holds the columns of
    the inverse of mode block p at the written positions (B_p^-1 for A,
    B_p^-T for A^T).
    """

    read: np.ndarray
    a_ib: sps.csr_matrix
    a_bi: sps.csr_matrix
    w: np.ndarray  # (ny, m, written positions)


@dataclass(frozen=True)
class _CosineModes:
    """One column block: its cosine transform and the factors of the scaled B."""

    index: Optional[np.ndarray]  # (ny, m) unknowns; None: every unknown, in order
    weights: np.ndarray  # (1, 2, ..., 2, 1) / (2 (ny - 1)): V^-1 = diag(weights) DCT-I
    row_scale: np.ndarray  # 1 / (row max of B), aligned with the rows of B
    lu: spla.SuperLU
    coupling: dict = field(default_factory=dict)  # "N", "T" -> _Coupling, with an interface

    @property
    def ny(self) -> int:
        return len(self.weights)

    def forward(self, u: np.ndarray) -> np.ndarray:
        """(V^-1 (x) I) u for u laid out as (ny, m)."""
        return self.weights[:, None] * scipy.fft.dct(u, type=1, axis=0)

    def inverse(self, c: np.ndarray) -> np.ndarray:
        """(V (x) I) c for c laid out as (ny, m)."""
        return scipy.fft.idct(c / self.weights[:, None], type=1, axis=0)

    def to_modes(self, u: np.ndarray, trans: str) -> np.ndarray:
        return self.forward(u) if trans == "N" else self.inverse(u)

    def from_modes(self, c: np.ndarray, trans: str) -> np.ndarray:
        return self.inverse(c) if trans == "N" else self.forward(c)

    def gather(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self.ny, -1) if self.index is None else v[self.index]

    def mode_solve(self, u: np.ndarray, trans: str) -> np.ndarray:
        """B^-1 (V^-1 (x) I) u, or B^-T (V (x) I) u for trans 'T', laid out as u."""
        if trans == "N":
            c = self.lu.solve(self.row_scale * self.forward(u).ravel())
        else:
            c = self.row_scale * self.lu.solve(self.inverse(u).ravel(), trans=trans)
        return c.reshape(u.shape)

    def inverse_columns(self, positions: np.ndarray, trans: str) -> np.ndarray:
        """(ny, m, len(positions)): columns ``positions`` of B_p^-1 (or B_p^-T) per mode p."""
        m = len(self.row_scale) // self.ny
        e = np.zeros((self.ny, m, len(positions)))
        e[:, positions, np.arange(len(positions))] = 1.0
        e = e.reshape(-1, len(positions))
        if trans == "N":
            w = self.lu.solve(self.row_scale[:, None] * e)
        else:
            w = self.row_scale[:, None] * self.lu.solve(e, trans="T")
        return w.reshape(self.ny, m, -1)


@dataclass(frozen=True)
class _Interface:
    """Interface unknowns and the dense LU factors of the row-scaled Schur complement.

    ``L``, ``U``, ``perm_r`` and ``perm_c`` satisfy Pr D S Pc = L U, as for
    SuperLU; L and U keep every stored entry, zeros included.
    """

    index: np.ndarray
    row_scale: np.ndarray  # D = diag(1 / row max of S)
    lu_piv: tuple  # scipy.linalg.lu_factor of D S

    def solve(self, g: np.ndarray, trans: str) -> np.ndarray:
        if trans == "N":
            return scipy.linalg.lu_solve(self.lu_piv, self.row_scale * g)
        return self.row_scale * scipy.linalg.lu_solve(self.lu_piv, g, trans=1)

    @property
    def L(self) -> sps.csr_matrix:
        n = len(self.index)
        r, c = np.tril_indices(n)
        return sps.csr_matrix((np.where(r == c, 1.0, self.lu_piv[0][r, c]), (r, c)), shape=(n, n))

    @property
    def U(self) -> sps.csr_matrix:
        n = len(self.index)
        r, c = np.triu_indices(n)
        return sps.csr_matrix((self.lu_piv[0][r, c], (r, c)), shape=(n, n))

    @property
    def perm_r(self) -> np.ndarray:
        order = np.arange(len(self.index))
        for k, p in enumerate(self.lu_piv[1]):  # LAPACK row swaps, applied in turn
            order[[k, p]] = order[[p, k]]
        return np.argsort(order)

    @property
    def perm_c(self) -> np.ndarray:
        return np.arange(len(self.index))


@dataclass
class LUFactors:
    """Immutable after construction; concurrent solves are read-only.

    On the SuperLU path ``L``, ``U``, ``perm_r`` and ``perm_c`` satisfy
    Pr A Pc = L U.  On the cosine-mode path they are the block-diagonal
    stack of the factors of each block's row-scaled mode matrix R B
    (B = blockdiag_k(X1 + mu_k X2 + mu_k^2 X3)) and, with an interface, of
    the row-scaled Schur complement D S; A itself is never factored there.
    """

    n: int
    _lu: Optional[spla.SuperLU] = None
    _modes: Optional[tuple[_CosineModes, ...]] = None
    _interface: Optional[_Interface] = None

    def _parts(self, name: str) -> list:
        """Attribute ``name`` of each piece: the SuperLU factors, then the interface."""
        pieces = [self._lu] if self._modes is None else [block.lu for block in self._modes]
        if self._interface is not None:
            pieces.append(self._interface)
        return [getattr(piece, name) for piece in pieces]

    def _stacked(self, name: str) -> sps.csr_matrix:
        parts = self._parts(name)
        return parts[0].tocsr() if len(parts) == 1 else sps.block_diag(parts, format="csr")

    def _perm(self, name: str) -> np.ndarray:
        parts = self._parts(name)
        offsets = np.cumsum([0] + [len(p) for p in parts[:-1]])
        return np.concatenate([p + o for p, o in zip(parts, offsets)])

    @property
    def L(self) -> sps.csr_matrix:
        return self._stacked("L")

    @property
    def U(self) -> sps.csr_matrix:
        return self._stacked("U")

    @property
    def perm_r(self) -> np.ndarray:
        return self._perm("perm_r")

    @property
    def perm_c(self) -> np.ndarray:
        return self._perm("perm_c")


def _checked_splu(matrix: sps.spmatrix, threshold: float, what: str = "") -> spla.SuperLU:
    """SuperLU factors of the matrix; SingularPivotError on a pivot <= threshold."""
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularPivotError(f"SingularPivot: {exc}") from exc
    u_diag = np.abs(lu.U.diagonal())
    if u_diag.size < matrix.shape[0] or not (u_diag > threshold).all():
        worst = float(u_diag.min()) if u_diag.size else 0.0
        raise SingularPivotError(
            f"SingularPivot: pivot {worst:.3e} below threshold {threshold:.3e}{what}"
        )
    return lu


def _kronecker_parts(a: sps.csr_matrix, ny: int, a_max: float):
    """(X1, X2, X3) if A = I (x) X1 + D (x) X2 + D^2 (x) X3 with D of size ny, else None.

    The X's come from the middle block row, where the D and D^2 stencils
    are (1, -2, 1) and (1, -4, 6, -4, 1).
    """
    if ny < _MIN_BLOCK_ROWS:
        return None
    m = a.shape[0] // ny
    j = ny // 2
    block_row = a[j * m : (j + 1) * m]

    def block(k):
        return block_row[:, (j + k) * m : (j + k + 1) * m]

    x3 = block(2)
    x2 = block(1) + 4.0 * x3
    x1 = block(0) + 2.0 * x2 - 6.0 * x3
    d = mirror_dyy(ny)
    rebuilt = sps.kron(sps.identity(ny), x1) + sps.kron(d, x2) + sps.kron(d @ d, x3)
    err = abs(rebuilt.tocsr() - a)
    if err.nnz and err.max() > _KRON_RTOL * a_max:
        return None
    return x1, x2, x3


def _factorize_modes(ny: int, x1, x2, x3):
    """(SuperLU, row scale) of the row-scaled blockdiag_k(X1 + mu_k X2 + mu_k^2 X3)."""
    mu = 2.0 * np.cos(np.pi * np.arange(ny) / (ny - 1)) - 2.0
    b = (
        sps.kron(sps.identity(ny), x1)
        + sps.kron(sps.diags(mu), x2)
        + sps.kron(sps.diags(mu * mu), x3)
    ).tocsr()
    row_max = abs(b).max(axis=1).toarray().ravel()
    if not (row_max > 0).all():
        r = int(np.argmin(row_max))
        raise SingularPivotError(
            f"SingularPivot: row {r % x1.shape[0]} of cosine mode {r // x1.shape[0]} is zero"
        )
    row_scale = 1.0 / row_max
    lu = _checked_splu(sps.diags(row_scale) @ b, _PIVOT_RTOL, " (row-scaled cosine modes)")
    return lu, row_scale


def _couplings(block: _CosineModes, a_ib: sps.csr_matrix, a_bi: sps.csr_matrix) -> dict:
    """The block's `_Coupling` for solves with A and with A^T.

    ``a_ib`` and ``a_bi`` are the interface-block and block-interface parts
    of A, with block columns and rows in (row, position) order.
    """
    ny, m = block.ny, a_ib.shape[1] // block.ny
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

    A_bb^-1 = (V (x) I) B^-1 (V^-1 (x) I), so its entry between position
    r of row j and position w of row j' is sum_p V[j, p] (B_p^-1)[r, w]
    V^-1[p, j']; only the positions the interface reads and writes enter.
    """
    s = a_ii.toarray()
    for block in blocks:
        link = block.coupling["N"]
        eye = np.eye(block.ny)
        v, v_inv = block.inverse(eye), block.forward(eye)
        w = link.w[:, link.read, :]  # (p, read, written)
        inv = np.tensordot(v, w[..., None] * v_inv[:, None, None, :], axes=(1, 0))
        inv = inv.transpose(0, 1, 3, 2).reshape(link.a_ib.shape[1], link.a_bi.shape[0])
        s -= link.a_bi.T.dot((link.a_ib @ inv).T).T
    return s


def _factorize_interface(index: np.ndarray, s: np.ndarray) -> _Interface:
    """Dense LU of the row-scaled Schur complement; SingularPivotError on a pivot <= 1e-14."""
    row_max = np.abs(s).max(axis=1)
    if not (row_max > 0).all():
        raise SingularPivotError(
            f"SingularPivot: row {int(np.argmin(row_max))} of the interface Schur complement is zero"
        )
    row_scale = 1.0 / row_max
    lu_piv = scipy.linalg.lu_factor(row_scale[:, None] * s)
    worst = float(np.abs(np.diag(lu_piv[0])).min())
    if not worst > _PIVOT_RTOL:
        raise SingularPivotError(
            f"SingularPivot: pivot {worst:.3e} below threshold {_PIVOT_RTOL:.3e} "
            "(row-scaled interface Schur complement)"
        )
    return _Interface(index, row_scale, lu_piv)


def _separated(a: sps.csr_matrix, layout: ColumnBlocks) -> bool:
    """True if the blocks and the interface partition the unknowns and no entry joins two blocks."""
    n = a.shape[0]
    label = np.full(n, -2)
    for k, b in enumerate(layout.blocks):
        label[b.ravel()] = k
    label[layout.interface] = -1
    sizes = sum(b.size for b in layout.blocks) + layout.interface.size
    if sizes != n or (label == -2).any():
        return False
    coo = a.tocoo()
    rl, cl = label[coo.row], label[coo.col]
    return not ((rl != cl) & (rl >= 0) & (cl >= 0)).any()


def _factorize_blocks(a: sps.csr_matrix, a_max: float, layout: ColumnBlocks):
    """Factors on the cosine-mode path, or None if A does not have the layout's form.

    The form: every unknown in one block or the interface, no entry between
    two blocks, and each block's diagonal part of the Kronecker form.
    """
    n = a.shape[0]
    iface = layout.interface
    whole = (
        len(layout.blocks) == 1
        and not iface.size
        and np.array_equal(layout.blocks[0].ravel(), np.arange(n))
    )
    if not (whole or _separated(a, layout)):
        return None
    blocks = []
    for b in layout.blocks:
        idx = b.ravel()
        a_bb = a if whole else a[idx][:, idx]
        parts = _kronecker_parts(a_bb, b.shape[0], a_max)
        if parts is None:
            return None
        lu, row_scale = _factorize_modes(b.shape[0], *parts)
        weights = np.full(b.shape[0], 1.0 / (b.shape[0] - 1))
        weights[[0, -1]] /= 2.0
        block = _CosineModes(None if whole else b, weights, row_scale, lu)
        if iface.size:
            block = replace(block, coupling=_couplings(block, a[iface][:, idx], a[idx][:, iface]))
        blocks.append(block)
    interface = None
    if iface.size:
        interface = _factorize_interface(iface, _schur_complement(a[iface][:, iface], blocks))
    return LUFactors(n=n, _modes=tuple(blocks), _interface=interface)


def lu_factorize(matrix: sps.spmatrix) -> LUFactors:
    """Factorize a square sparse matrix; raises SingularPivotError.

    A matrix with a recorded ``column_blocks`` layout that it fits takes the
    cosine-mode path, every other matrix SuperLU; see the module docstring.
    """
    n, m = matrix.shape
    if n != m:
        raise DimensionMismatchError(f"matrix is {n}x{m}, not square")
    if _malloc_trim is not None:
        _malloc_trim(0)
    a = matrix.tocsr()
    a_max = abs(a).max() if a.nnz else 0.0
    layout = getattr(matrix, "column_blocks", None)
    if layout is not None:
        factors = _factorize_blocks(a, a_max, layout)
        if factors is not None:
            return factors
    return LUFactors(n=n, _lu=_checked_splu(a, _PIVOT_RTOL * a_max))


def lu_solve(factors: LUFactors, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve A x = b (or A^T x = b with trans='T') through the factors.

    On the cosine-mode path each block has A_bb = (V (x) I) B (V^-1 (x) I),
    and V is symmetric, so A_bb^-1 = (V (x) I) B^-1 (V^-1 (x) I) and
    A_bb^-T = (V^-1 (x) I) B^-T (V (x) I).  With an interface, the block
    solves give the interface right-hand side g = b_I - sum_b A_Ib y_b,
    S x_I = g, and each block subtracts B^-1 (V^-1 (x) I) A_bI x_I from its
    mode coefficients before the inverse transform (transposed for 'T').
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (factors.n,):
        raise DimensionMismatchError(
            f"rhs has shape {rhs.shape}, expected ({factors.n},)"
        )
    if factors._modes is None:
        return factors._lu.solve(rhs, trans=trans)
    blocks = factors._modes
    coeffs = [block.mode_solve(block.gather(rhs), trans) for block in blocks]
    if blocks[0].index is None:  # one block holding every unknown in order
        return blocks[0].from_modes(coeffs[0], trans).ravel()
    out = np.empty(factors.n)
    iface = factors._interface
    if iface is not None:
        links = [block.coupling["N" if trans == "N" else "T"] for block in blocks]
        g = rhs[iface.index]
        for block, link, c in zip(blocks, links, coeffs):
            g = g - link.a_ib @ block.from_modes(c[:, link.read], trans).ravel()
        x = iface.solve(g, trans)
        out[iface.index] = x
        for block, link, c in zip(blocks, links, coeffs):
            z = block.to_modes((link.a_bi @ x).reshape(block.ny, -1), trans)
            c -= np.matmul(link.w, z[:, :, None])[:, :, 0]
    for block, c in zip(blocks, coeffs):
        out[block.index] = block.from_modes(c, trans)
    return out


def ruiz_scalings(
    matrix: sps.spmatrix, iters: int = 20
) -> tuple[np.ndarray, np.ndarray, sps.csr_matrix]:
    """Iterative 2-norm equilibration (Ruiz, RAL-TR-2001-034): returns (dr, dc, Dr A Dc).

    Each sweep divides every row of Dr A Dc by the square root of its
    2-norm, then every column.  The sums of squares of Dr A Dc are
    dr^2 * (S dc^2) for the rows and dc^2 * (S^T dr^2) for the columns,
    with S = A o A the fixed matrix of squared entries, so a sweep is two
    sparse products with S (the second through its CSC view ``S.T``) and
    updates only dr and dc.  A zero row or column keeps its scale.
    Dr A Dc is formed once at the end, in the data array of S; the input is
    not modified.
    """
    a = sps.csr_matrix(matrix, dtype=np.float64)  # may share the input's arrays
    b = a.copy()
    np.square(b.data, out=b.data)
    n, m = b.shape
    dr = np.ones(n)
    dc = np.ones(m)
    for _ in range(iters):
        rn = (dr * dr * (b @ (dc * dc))) ** 0.25
        rn[rn == 0] = 1.0
        dr /= rn
        cn = (dc * dc * (b.T @ (dr * dr))) ** 0.25
        cn[cn == 0] = 1.0
        dc /= cn
    np.multiply(a.data, dc[b.indices], out=b.data)
    b.data *= np.repeat(dr, np.diff(b.indptr))
    return dr, dc, b


@dataclass(frozen=True)
class CondEstimate:
    value: float
    converged: bool
    iterations_sigma_max: int
    iterations_sigma_min: int

    def __float__(self):
        return self.value


def power_iteration(apply_op, n, rng, tol, max_iter):
    """(||op v||, iterations, converged) for the iterate v of unit norm.

    ||op v|| tends to the modulus of the dominant eigenvalue when that is
    simple; it has converged once it changes by at most tol of itself.
    Raises ValueError if max_iter < 1.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    for k in range(1, max_iter + 1):
        w = apply_op(v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0, k, True
        v = w / lam
        if abs(lam - lam_old) <= tol * lam:
            return lam, k, True
        lam_old = lam
    return lam, max_iter, False


def estimate_cond2(
    matrix: sps.spmatrix,
    factors: LUFactors,
    tol: float = 1e-4,
    max_iter: int = 10_000,
    seed: int = _DEFAULT_SEED,
    equilibrate: bool = False,
) -> CondEstimate:
    """Euclidean condition number sigma_max / sigma_min of the matrix.

    Each power iteration stops once one iteration changes its estimate by
    at most ``tol`` of itself; ``tol`` bounds that step, not the error.
    The result is a lower bound: ||A^T A v|| <= sigma_max^2 and
    ||(A^T A)^-1 v|| <= sigma_min^-2 for a unit v.  With the default tol,
    against the dense SVD of the equilibrated matrix it reads 0.09-0.5% low
    on the h = 0.05 and 0.025 strip and full (l = 0.5) grids, and 0.18-0.5%
    low on the h = 0.0125 and 0.00625 benchmark systems against Lanczos
    (``eigsh``, tol 1e-12) on B^T B and its inverse.

    Deterministic for a fixed seed.  If the iteration cap is hit the value
    is still returned, flagged with ``converged=False``; ``max_iter < 1``
    raises ValueError.
    """
    n = matrix.shape[0]
    a = matrix.tocsr()
    if equilibrate:
        dr, dc, b = ruiz_scalings(a)
    else:
        dr, dc, b = np.ones(n), np.ones(n), a  # scaling by 1.0 is exact
    bt = b.T  # the CSC view of b, not a copy

    def fwd(v):
        return bt @ (b @ v)

    def inv(v):
        y = (1.0 / dr) * lu_solve(factors, v / dc, trans="T")
        return (1.0 / dc) * lu_solve(factors, y / dr)

    rng = np.random.default_rng(seed)
    smax2, k1, ok1 = power_iteration(fwd, n, rng, tol, max_iter)
    sinv2, k2, ok2 = power_iteration(inv, n, rng, tol, max_iter)
    return CondEstimate(
        value=float(np.sqrt(smax2) * np.sqrt(sinv2)),
        converged=ok1 and ok2,
        iterations_sigma_max=k1,
        iterations_sigma_min=k2,
    )
