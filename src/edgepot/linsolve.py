"""Sparse LU factorization, triangular solves and a 2-norm condition estimator.

`lu_factorize` takes one of two paths, chosen from the matrix alone:

* **strip path.**  A strip-geometry matrix (every grid row carries the
  same m unknowns, ordered row by row) has the Kronecker form

      A = I (x) X1 + D (x) X2 + D^2 (x) X3,

  where D is the unscaled mirror second difference in y
  (`stencils.mirror_dyy`), with rows (1, -2, 1) inside and (-2, 2) at the
  walls, and X1, X2, X3 are m x m.
  The DCT-I diagonalises D: D = V diag(mu) V^-1 with V[j, k] =
  cos(pi j k / (Ny - 1)) and mu_k = 2 cos(pi k / (Ny - 1)) - 2.  So
  A = (V (x) I) B (V^-1 (x) I) with B = blockdiag_k(X1 + mu_k X2 +
  mu_k^2 X3), and a solve is a cosine transform along y, Ny independent
  banded solves along x and the inverse transform (the fast direct
  method of Hockney, J. ACM 1965, and Buzbee, Golub & Nielson, SIAM J.
  Numer. Anal. 1970).  B is row-scaled to unit max entry per row and
  factored by one SuperLU call.
* **SuperLU path.**  Any other matrix (full geometry, test matrices) is
  factored as it stands by SuperLU (scipy.sparse.linalg.splu) with
  threshold partial pivoting; the factors satisfy Pr A Pc = L U.

A direct method is required here: the systems are ill-conditioned by
construction and a factor-once / solve-per-step loop beats an
unpreconditioned iterative method.

The pivot test is scale-aware on each path.  The SuperLU path refuses a
pivot <= 1e-14 max|A|.  On the strip path the blocks of B span entry scales
from 1/dx^2 to 16 nu/dy^4 by construction, so a threshold taken from the
largest entry would measure that spread, not singularity; there each row
of B has unit max entry and a pivot <= 1e-14 is refused.

The condition estimator runs power iteration on A^T A for sigma_max and on
(A^T A)^{-1}, through the factors, for sigma_min.  With ``equilibrate=True``
the estimate applies to the Ruiz row/column-scaled matrix B = Dr A Dc,
i.e. to the system as a scaled solver sees it, while still reusing the
factors of A for the inverse applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import DimensionMismatchError, SingularPivotError
from .stencils import mirror_dyy

_PIVOT_RTOL = 1e-14
_KRON_RTOL = 1e-13  # rebuilt Kronecker form against the matrix, relative to max|A|
_MIN_STRIP_ROWS = 5  # the middle block row must carry the interior D^2 stencil
_DEFAULT_SEED = 1234


@dataclass(frozen=True)
class _CosineModes:
    """Transform data of the strip path; the factors are those of the scaled B."""

    ny: int
    weights: np.ndarray  # (1, 2, ..., 2, 1) / (2 (ny - 1)): V^-1 = diag(weights) DCT-I
    row_scale: np.ndarray  # 1 / (row max of B), aligned with the rows of B

    def forward(self, u: np.ndarray) -> np.ndarray:
        """(V^-1 (x) I) u for u laid out as (ny, m)."""
        return self.weights[:, None] * scipy.fft.dct(u, type=1, axis=0)

    def inverse(self, c: np.ndarray) -> np.ndarray:
        """(V (x) I) c for c laid out as (ny, m)."""
        return scipy.fft.idct(c / self.weights[:, None], type=1, axis=0)


@dataclass
class LUFactors:
    """Immutable after construction; concurrent solves are read-only.

    On the SuperLU path ``L``, ``U``, ``perm_r`` and ``perm_c`` satisfy
    Pr A Pc = L U.  On the strip path they are the same factors of the
    row-scaled mode matrix R B (B = blockdiag_k(X1 + mu_k X2 + mu_k^2 X3)),
    that is Pr R B Pc = L U; A itself is never factored there.
    """

    n: int
    _lu: spla.SuperLU
    _modes: Optional[_CosineModes] = None

    @property
    def L(self) -> sps.csr_matrix:
        return self._lu.L.tocsr()

    @property
    def U(self) -> sps.csr_matrix:
        return self._lu.U.tocsr()

    @property
    def perm_r(self) -> np.ndarray:
        return self._lu.perm_r

    @property
    def perm_c(self) -> np.ndarray:
        return self._lu.perm_c


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


def _kronecker_parts(a: sps.csr_matrix, a_max: float):
    """(ny, X1, X2, X3) if A = I (x) X1 + D (x) X2 + D^2 (x) X3, else None.

    The block size m is half the bandwidth (D^2 couples rows j and j + 2);
    the X's come from the middle block row, where the D and D^2 stencils are
    (1, -2, 1) and (1, -4, 6, -4, 1).
    """
    n = a.shape[0]
    coo = a.tocoo()
    if not coo.nnz:
        return None
    bandwidth = int(np.abs(coo.row.astype(np.int64) - coo.col).max())
    m, odd = divmod(bandwidth, 2)
    if odd or m == 0 or n % m or n // m < _MIN_STRIP_ROWS:
        return None
    ny = n // m
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
    return ny, x1, x2, x3


def _factorize_modes(n: int, ny: int, x1, x2, x3) -> LUFactors:
    """Factor the row-scaled blockdiag_k(X1 + mu_k X2 + mu_k^2 X3)."""
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
    weights = np.full(ny, 1.0 / (ny - 1))
    weights[[0, -1]] /= 2.0
    return LUFactors(n=n, _lu=lu, _modes=_CosineModes(ny, weights, row_scale))


def lu_factorize(matrix: sps.spmatrix) -> LUFactors:
    """Factorize a square sparse matrix; raises SingularPivotError.

    Strip-geometry matrices take the cosine-transform path, every other
    matrix SuperLU; see the module docstring.
    """
    n, m = matrix.shape
    if n != m:
        raise DimensionMismatchError(f"matrix is {n}x{m}, not square")
    a = matrix.tocsr()
    a_max = abs(a).max() if a.nnz else 0.0
    parts = _kronecker_parts(a, a_max)
    if parts is not None:
        return _factorize_modes(n, *parts)
    return LUFactors(n=n, _lu=_checked_splu(a, _PIVOT_RTOL * a_max))


def lu_solve(factors: LUFactors, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve A x = b (or A^T x = b with trans='T') through the factors.

    On the strip path A = (V (x) I) B (V^-1 (x) I), and V is symmetric, so
    A^-1 = (V (x) I) B^-1 (V^-1 (x) I) and A^-T = (V^-1 (x) I) B^-T (V (x) I).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (factors.n,):
        raise DimensionMismatchError(
            f"rhs has shape {rhs.shape}, expected ({factors.n},)"
        )
    modes = factors._modes
    if modes is None:
        return factors._lu.solve(rhs, trans=trans)
    u = rhs.reshape(modes.ny, -1)
    if trans == "N":
        c = factors._lu.solve(modes.row_scale * modes.forward(u).ravel())
        return modes.inverse(c.reshape(u.shape)).ravel()
    c = modes.row_scale * factors._lu.solve(modes.inverse(u).ravel(), trans=trans)
    return modes.forward(c.reshape(u.shape)).ravel()


def ruiz_scalings(
    matrix: sps.spmatrix, iters: int = 20
) -> tuple[np.ndarray, np.ndarray, sps.csr_matrix]:
    """Iterative 2-norm equilibration: returns (dr, dc, Dr A Dc).

    Scales a private copy of the matrix in place; the row and column sums of
    squares come from ``np.bincount`` over the stored entries.
    """
    b = sps.csr_matrix(matrix, dtype=np.float64, copy=True)
    n, m = b.shape
    rows = np.repeat(np.arange(n), np.diff(b.indptr))
    dr = np.ones(n)
    dc = np.ones(m)
    for _ in range(iters):
        rn = np.bincount(rows, weights=b.data * b.data, minlength=n) ** 0.25
        rn[rn == 0] = 1.0
        dr /= rn
        b.data /= rn[rows]
        cn = np.bincount(b.indices, weights=b.data * b.data, minlength=m) ** 0.25
        cn[cn == 0] = 1.0
        dc /= cn
        b.data /= cn[b.indices]
    return dr, dc, b


@dataclass(frozen=True)
class CondEstimate:
    value: float
    converged: bool
    iterations_sigma_max: int
    iterations_sigma_min: int

    def __float__(self):
        return self.value


def _power_iteration(apply_op, n, rng, tol, max_iter):
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
            return np.sqrt(lam), k, True
        lam_old = lam
    return np.sqrt(lam), max_iter, False


def estimate_cond2(
    matrix: sps.spmatrix,
    factors: LUFactors,
    tol: float = 1e-4,
    max_iter: int = 10_000,
    seed: int = _DEFAULT_SEED,
    equilibrate: bool = False,
) -> CondEstimate:
    """Euclidean condition number sigma_max / sigma_min of the matrix.

    Deterministic for a fixed seed.  If the iteration cap is hit the value
    is still returned, flagged with ``converged=False``.
    """
    n = matrix.shape[0]
    a = matrix.tocsr()
    if equilibrate:
        dr, dc, b = ruiz_scalings(a)
    else:
        dr, dc, b = np.ones(n), np.ones(n), a  # scaling by 1.0 is exact
    bt = b.T.tocsr()

    def fwd(v):
        return bt @ (b @ v)

    def inv(v):
        y = (1.0 / dr) * lu_solve(factors, v / dc, trans="T")
        return (1.0 / dc) * lu_solve(factors, y / dr)

    rng = np.random.default_rng(seed)
    smax, k1, ok1 = _power_iteration(fwd, n, rng, tol, max_iter)
    sinv, k2, ok2 = _power_iteration(inv, n, rng, tol, max_iter)
    return CondEstimate(
        value=float(smax * sinv),
        converged=ok1 and ok2,
        iterations_sigma_max=k1,
        iterations_sigma_min=k2,
    )
