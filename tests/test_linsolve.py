import logging
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from edgepot import linsolve
from edgepot.assembly import build_system
from edgepot.errors import DimensionMismatchError, SingularPivotError
from edgepot.geometry import Q, ColumnBlocks, DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import (
    estimate_cond2,
    lu_factorize,
    lu_solve,
    ruiz_scalings,
)


def csr(dense):
    return sps.csr_matrix(np.asarray(dense, dtype=float))


def random_dd(n, seed):
    """Random strictly diagonally dominant matrix (well conditioned)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return csr(a)


def svd_designed(n, span, seed):
    """Matrix with known singular values logspace(0, span, n)."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, span, n)
    return csr(q1 @ np.diag(s) @ q2.T), s.max() / s.min()


def ruiz_reference(a, iters=20):
    """(dr, dc, Dr A Dc) by the Ruiz iteration written with diagonal-matrix products."""
    b = a.tocsr()
    dr, dc = np.ones(a.shape[0]), np.ones(a.shape[1])
    for _ in range(iters):
        rn = np.sqrt(np.asarray(b.multiply(b).sum(axis=1)).ravel()) ** 0.5
        dr /= rn
        b = sps.diags(1.0 / rn) @ b
        cn = np.sqrt(np.asarray(b.multiply(b).sum(axis=0)).ravel()) ** 0.5
        dc /= cn
        b = b @ sps.diags(1.0 / cn)
    return dr, dc, b


def on_superlu(factors):
    """The factors are SuperLU's of the whole matrix, not cosine-mode blocks."""
    return len(factors.pieces) == 1 and isinstance(factors.pieces[0], spla.SuperLU)


def factor_residual(a, factors):
    """max-norm of Pr A Pc - L U for SuperLU factors of the whole matrix."""
    (lu,) = factors.pieces
    n = a.shape[0]
    pr = sps.csr_matrix((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    pc = sps.csr_matrix((np.ones(n), (np.arange(n), lu.perm_c)), shape=(n, n))
    res = (pr @ a @ pc - factors.L @ factors.U).tocoo()
    return np.abs(res.data).max() if res.nnz else 0.0


# ---- factorization ---------------------------------------------------------


def test_identity_factors():
    a = csr(np.eye(4))
    f = lu_factorize(a)
    assert factor_residual(a, f) == 0.0
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert lu_solve(f, b) == pytest.approx(b)


def test_permutation_matrix_needs_pivoting():
    a = csr([[0.0, 1.0], [1.0, 0.0]])
    f = lu_factorize(a)
    assert lu_solve(f, np.array([1.0, 2.0])) == pytest.approx([2.0, 1.0])


def test_diagonal_solve():
    f = lu_factorize(csr(np.diag([2.0, 4.0])))
    assert lu_solve(f, np.array([2.0, 8.0])) == pytest.approx([1.0, 2.0])


def test_random_dd_factor_residual():
    a = random_dd(100, seed=11)
    f = lu_factorize(a)
    a_max = np.abs(a.data).max()
    assert factor_residual(a, f) <= 1e-12 * a_max


def test_factors_do_not_depend_on_heap_trim(monkeypatch):
    a = random_dd(100, seed=11)
    trimmed = lu_factorize(a)
    monkeypatch.setattr(linsolve, "_malloc_trim", None)  # a C library without malloc_trim
    plain = lu_factorize(a)
    assert (trimmed.L != plain.L).nnz == 0 and (trimmed.U != plain.U).nnz == 0
    assert np.array_equal(trimmed.pieces[0].perm_r, plain.pieces[0].perm_r)


def test_solve_residual_bound():
    a = random_dd(200, seed=5)
    f = lu_factorize(a)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(200)
    x = lu_solve(f, b)
    a_norm = np.abs(a.data).max() * a.shape[0]  # crude upper bound on ||A||
    assert np.linalg.norm(a @ x - b) <= 1e-10 * (
        a_norm * np.linalg.norm(x) + np.linalg.norm(b)
    )


def test_transpose_solve():
    a = random_dd(50, seed=7)
    f = lu_factorize(a)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(50)
    x = lu_solve(f, b, trans="T")
    assert np.linalg.norm(a.T @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_factor_solve_round_trip_n500():
    a = random_dd(500, seed=13)
    f = lu_factorize(a)
    rng = np.random.default_rng(14)
    y = rng.standard_normal(500)
    x = lu_solve(f, a @ y)
    assert np.linalg.norm(x - y) <= 1e-8 * np.linalg.norm(y)


def test_singular_matrix_raises():
    with pytest.raises(SingularPivotError):
        lu_factorize(csr([[1.0, 2.0], [2.0, 4.0]]))


def test_near_singular_pivot_raises():
    a = sps.csr_matrix(
        (np.array([1.0, 1e-16]), (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2)
    )
    with pytest.raises(SingularPivotError, match="threshold"):
        lu_factorize(a)


def test_dimension_mismatch():
    f = lu_factorize(csr(np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        lu_solve(f, np.ones(4))


# ---- condition estimation ---------------------------------------------------


def test_cond_identity():
    a = csr(np.eye(30))
    est = estimate_cond2(a, lu_factorize(a))
    assert est.value == pytest.approx(1.0, rel=1e-6)
    assert est.converged


def test_cond_diagonal():
    a = csr(np.diag(np.arange(1.0, 11.0)))
    est = estimate_cond2(a, lu_factorize(a))
    assert est.value == pytest.approx(10.0, rel=1e-3)


@pytest.mark.parametrize("n,span", [(50, 3.0), (200, 4.0)])
def test_cond_matches_dense_svd(n, span):
    a, _ = svd_designed(n, span, seed=n)
    sv = np.linalg.svd(a.toarray(), compute_uv=False)  # dense oracle
    truth = sv[0] / sv[-1]
    est = estimate_cond2(a, lu_factorize(a))
    assert est.converged
    assert abs(est.value - truth) / truth <= 1e-3


def test_cond_scale_equivariant():
    a, _ = svd_designed(40, 2.0, seed=9)
    f = lu_factorize(a)
    base = estimate_cond2(a, f).value
    scaled_matrix = (7.5 * a).tocsr()
    scaled = estimate_cond2(scaled_matrix, lu_factorize(scaled_matrix)).value
    assert scaled == pytest.approx(base, rel=1e-6)


def test_cond_deterministic():
    a, _ = svd_designed(60, 3.0, seed=17)
    f = lu_factorize(a)
    assert estimate_cond2(a, f).value == estimate_cond2(a, f).value


def test_cond_stagnation_flag():
    a, _ = svd_designed(60, 3.0, seed=19)
    est = estimate_cond2(a, lu_factorize(a), max_iter=2)
    assert not est.converged
    assert est.value > 0


@pytest.mark.parametrize("max_iter", [0, -1])
def test_cond_rejects_max_iter_below_one(max_iter):
    a = csr(np.eye(4))
    with pytest.raises(ValueError, match="max_iter"):
        estimate_cond2(a, lu_factorize(a), max_iter=max_iter)


def test_equilibrated_cond_of_scaled_identity():
    # row scaling is absorbed: D I is perfectly conditioned after Ruiz
    d = np.logspace(0, 6, 20)
    a = csr(np.diag(d))
    est = estimate_cond2(a, lu_factorize(a), equilibrate=True)
    assert est.value == pytest.approx(1.0, rel=1e-6)


def test_ruiz_normalizes_rows_and_columns():
    a, _ = svd_designed(30, 5.0, seed=23)
    _, _, b = ruiz_scalings(a)
    rn = np.sqrt(np.asarray(b.multiply(b).sum(axis=1)).ravel())
    cn = np.sqrt(np.asarray(b.multiply(b).sum(axis=0)).ravel())
    assert rn == pytest.approx(np.ones(30), rel=1e-3)
    assert cn == pytest.approx(np.ones(30), rel=1e-3)


def test_ruiz_matches_matrix_product_form():
    # reference: the same iteration written with diagonal-matrix products
    a, _ = svd_designed(40, 4.0, seed=29)
    dr, dc, b = ruiz_reference(a)
    got_dr, got_dc, got_b = ruiz_scalings(a)
    assert got_dr == pytest.approx(dr, rel=1e-13)
    assert got_dc == pytest.approx(dc, rel=1e-13)
    assert abs(got_b - b).max() <= 1e-13
    assert a.data == pytest.approx(svd_designed(40, 4.0, seed=29)[0].data)  # input untouched


# ---- strip path: cosine transform in y, banded solves in x -------------------


def strip_system(h, eta, scheme, dt=1e-3):
    phys = PhysConfig(eta=eta)
    disc = DiscConfig(dx=h, dy=h, dt=dt, mode="strip")
    grid = build_grid(phys, disc)
    return build_system(grid, phys, disc, scheme)


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("eta,scheme", [(1e-3, "ap"), (0.0, "ap"), (1e-3, "naive")])
@pytest.mark.parametrize("h", [0.05, 0.025])
def test_strip_path_matches_splu(h, eta, scheme, trans, refined_splu_solve):
    a = strip_system(h, eta, scheme).matrix
    f = lu_factorize(a)
    assert not on_superlu(f) and f.interface is None
    b = np.random.default_rng(31).standard_normal(a.shape[0])
    ref, lu = refined_splu_solve(a, b, trans)
    x = lu_solve(f, b, trans=trans)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)
    assert f.L.nnz + f.U.nnz < lu.L.nnz + lu.U.nnz


def test_superlu_path_for_unstructured_matrices():
    a = random_dd(100, seed=3)
    f = lu_factorize(a)
    assert on_superlu(f)
    assert factor_residual(a, f) <= 1e-12 * np.abs(a.data).max()


def test_strip_matrix_without_its_layout_takes_superlu():
    a = strip_system(0.05, 1e-3, "ap").matrix
    copy = a.copy()  # a copy does not carry the recorded column blocks
    assert hasattr(a, "column_blocks") and not hasattr(copy, "column_blocks")
    f = lu_factorize(copy)
    assert on_superlu(f)
    assert factor_residual(copy, f) <= 1e-12 * np.abs(a.data).max()


def test_strip_without_gauge_anchor_raises():
    # without the anchor rows q is fixed only up to a function of y
    system = strip_system(0.05, 1e-3, "ap")
    a = system.matrix  # in place: a copy would lose the recorded column blocks
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    grid = system.grid
    a.data[np.isin(rows, grid.slot(Q, grid.I1, np.arange(grid.Ny)))] = 0.0  # the anchor rows
    with pytest.raises(SingularPivotError):
        lu_factorize(a)


def test_strip_single_field_refused_at_tiny_eta():
    # the row-scaled pivot is 1.1e-16 here
    a = strip_system(0.0125, 1e-14, "naive").matrix
    with pytest.raises(SingularPivotError, match="threshold"):
        lu_factorize(a)


# ---- full geometry: two column blocks and a dense interface Schur complement ----


def full_system(h, l, eta, scheme, L=0.4, dt=1e-3):
    phys = PhysConfig(eta=eta, L=L, limiter_height=l)
    disc = DiscConfig(dx=h, dy=h, dt=dt, mode="full")
    return build_system(build_grid(phys, disc), phys, disc, scheme)


def backward_error(a, x, b):
    """||A x - b|| / (||A|| ||x|| + ||b||) in the infinity norm."""
    a_norm = abs(a).sum(axis=1).max()
    return np.abs(a @ x - b).max() / (a_norm * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("eta,scheme", [(1e-3, "ap"), (0.0, "ap"), (1e-3, "naive")])
@pytest.mark.parametrize("l", [0.5, 0.8])
@pytest.mark.parametrize("h", [0.05, 0.025])
def test_full_path_matches_splu(h, l, eta, scheme, trans, refined_splu_solve):
    a = full_system(h, l, eta, scheme).matrix
    f = lu_factorize(a)
    assert len(f.pieces) == 2 and f.interface is not None
    b = np.random.default_rng(31).standard_normal(a.shape[0])
    ref, _ = refined_splu_solve(a, b, trans)
    x = lu_solve(f, b, trans=trans)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


@pytest.mark.parametrize("trans", ["N", "T"])
def test_full_path_without_a_band_block(trans, refined_splu_solve):
    # L = 0.45, dx = 0.05: I1 = 1, no column lies between the ghosts on the band rows
    system = full_system(0.05, 0.5, 1e-3, "ap", L=0.45)
    assert system.grid.I1 == 1
    a = system.matrix
    f = lu_factorize(a)
    assert len(f.pieces) == 1 and f.interface is not None
    b = np.random.default_rng(37).standard_normal(a.shape[0])
    ref, _ = refined_splu_solve(a, b, trans)
    x = lu_solve(f, b, trans=trans)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)


def interface_reads(a, block):
    """How many distinct in-row positions of the block each interface row reads."""
    read = a[a.column_blocks.interface][:, block.ravel()].tocoo()  # (grid row, position) order
    pairs = np.unique(np.stack([read.row, read.col % block.shape[1]]), axis=1)
    return np.bincount(pairs[0], minlength=read.shape[0])


@pytest.mark.parametrize(
    "l,eta,scheme,L",
    [(0.5, 1e-3, "ap", 0.4), (0.8, 1e-3, "ap", 0.4), (0.5, 0.0, "ap", 0.4),
     (0.5, 1e-3, "naive", 0.4), (0.5, 1e-3, "ap", 0.45)],
    ids=["l0.5", "l0.8", "eta0", "naive", "no_band_block"],
)
def test_full_path_factors_are_the_stacked_pieces(l, eta, scheme, L):
    # the interface piece factors the row-scaled Schur complement, formed here densely
    a = full_system(0.05, l, eta, scheme, L=L).matrix
    # S is built one read position at a time: rows that read none and rows that read several
    reads = interface_reads(a, a.column_blocks.blocks[0])
    assert (reads == 0).any() and (reads > 1).any()
    f = lu_factorize(a)
    assert len(f.pieces) == len(a.column_blocks.blocks)
    iface = a.column_blocks.interface
    rest = np.setdiff1d(np.arange(a.shape[0]), iface)
    d = a.toarray()
    s = d[np.ix_(iface, iface)] - d[np.ix_(iface, rest)] @ np.linalg.solve(
        d[np.ix_(rest, rest)], d[np.ix_(rest, iface)]
    )
    s /= np.abs(s).max(axis=1)[:, None]
    lu, piv = f.interface.lu_piv
    for k, p in enumerate(piv):  # LAPACK row swaps, applied in turn
        s[[k, p]] = s[[p, k]]
    n_i = len(iface)
    assert np.abs(s - (np.tril(lu, -1) + np.eye(n_i)) @ np.triu(lu)).max() <= 1e-9
    # L and U stack every piece, the dense interface factors included
    pieces = sum(block.lu.L.nnz + block.lu.U.nnz for block in f.pieces)
    assert f.L.nnz + f.U.nnz == pieces + n_i * n_i + n_i
    assert abs(sps.triu(f.L, 1)).sum() == 0 and abs(sps.tril(f.U, -1)).sum() == 0


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("eta", [1e-6, 0.0])
def test_full_path_factors_small_eta_coupled_systems(eta, trans):
    # SuperLU refused these: at eta = 0 its pivot is 1.7e-7 against a threshold of 3.4e-6
    a = full_system(0.0125, 0.5, eta, "ap").matrix
    f = lu_factorize(a)
    assert f.interface is not None
    b = np.random.default_rng(41).standard_normal(a.shape[0])
    x = lu_solve(f, b, trans=trans)
    assert backward_error(a if trans == "N" else a.T, x, b) <= 1e-12


def test_full_path_falls_back_to_superlu_off_the_kronecker_form(caplog):
    # a different weight on one band row's y-stencil breaks the form of the band block
    system = full_system(0.05, 0.5, 1e-3, "ap")
    a = system.matrix
    band = system.matrix.column_blocks.blocks[1]
    row = band[0, 0]
    a.data[a.indptr[row] : a.indptr[row + 1]] *= 1.5
    with caplog.at_level(logging.WARNING, logger="edgepot.linsolve"):
        f = lu_factorize(a)
    assert on_superlu(f)
    assert [r.getMessage() for r in caplog.records] == [
        "column blocks not used, factoring by SuperLU: block 1 is off the Kronecker form"
    ]
    assert factor_residual(a, f) <= 1e-12 * np.abs(a.data).max()


def test_full_path_falls_back_to_superlu_across_blocks(caplog):
    # an entry from a gap row to a band column joins the two blocks
    system = full_system(0.05, 0.5, 1e-3, "ap")
    gap, band = system.matrix.column_blocks.blocks
    a = system.matrix.tolil()
    a[gap[0, 0], band[0, 0]] = 1.0
    a = a.tocsr()
    a.column_blocks = system.matrix.column_blocks
    with caplog.at_level(logging.WARNING, logger="edgepot.linsolve"):
        f = lu_factorize(a)
    assert on_superlu(f)
    assert "joins block 0 to block 1" in caplog.text


def _drop_an_interface_unknown(system):
    layout = system.matrix.column_blocks
    return ColumnBlocks(layout.blocks, layout.interface[:-1])


def _rows_reversed(system):
    (block,) = system.matrix.column_blocks.blocks
    return ColumnBlocks((block[::-1],), np.empty(0, np.intp))


@pytest.mark.parametrize(
    "make_system,layout,reason",
    [
        (lambda: full_system(0.05, 0.5, 1e-3, "ap"), _drop_an_interface_unknown,
         "the blocks and the interface do not partition the unknowns"),
        (lambda: strip_system(0.05, 1e-3, "ap"), _rows_reversed,
         "without an interface the layout must be one block of every unknown, in order"),
    ],
    ids=["not_a_partition", "no_interface_out_of_order"],
)
def test_layout_that_does_not_fit_falls_back_to_superlu(make_system, layout, reason, caplog):
    system = make_system()
    a = system.matrix
    a.column_blocks = layout(system)
    with caplog.at_level(logging.WARNING, logger="edgepot.linsolve"):
        f = lu_factorize(a)
    assert on_superlu(f)
    assert [r.getMessage() for r in caplog.records] == [
        f"column blocks not used, factoring by SuperLU: {reason}"
    ]
    assert factor_residual(a, f) <= 1e-12 * np.abs(a.data).max()


def test_full_path_factorization_holds_little_beyond_its_factors():
    # S takes 8 n_I^2 bytes; forming it through an n_I x (ny W) product takes 3 times that more
    a = full_system(0.025, 0.5, 1e-3, "ap").matrix
    n_i = len(a.column_blocks.interface)
    tracemalloc.start()
    try:
        f = lu_factorize(a)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.interface is not None
    assert peak - held <= 2 * 8 * n_i * n_i


def test_full_path_refuses_a_singular_interface():
    # without the gauge anchor, on the interface column x = -L, q is fixed only up to a function of y
    system = full_system(0.05, 0.5, 1e-3, "ap")
    a = system.matrix
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    grid = system.grid
    a.data[np.isin(rows, grid.slot(Q, grid.I1, np.arange(grid.Ny)))] = 0.0  # the anchor rows
    with pytest.raises(SingularPivotError, match="interface Schur complement"):
        lu_factorize(a)


@pytest.mark.parametrize("diag", [[1.0, 1e-14], [-1.0, -1e-14], [1.0], [1.0, np.nan], []])
def test_pivot_check_refuses_a_small_missing_or_nan_pivot(diag):
    with pytest.raises(SingularPivotError, match=re.escape("below threshold 1.000e-14 (what)")):
        linsolve._check_pivots(np.array(diag), 2, 1e-14, " (what)")
    linsolve._check_pivots(np.array([1.0, -1.1e-14]), 2, 1e-14, " (what)")


SOLVE_PATHS = {
    "superlu": lambda: random_dd(60, seed=17),
    "strip": lambda: strip_system(0.05, 1e-3, "ap").matrix,
    "full": lambda: full_system(0.05, 0.5, 1e-3, "ap").matrix,
}


@pytest.mark.parametrize("trans", ["n", "t", "H", "X"])
@pytest.mark.parametrize("path", list(SOLVE_PATHS))
def test_solve_refuses_a_trans_other_than_n_or_t(path, trans):
    # SuperLU also takes 'n', 't' and 'H'; with 'n' the cosine-mode paths solved neither A nor A^T
    f = lu_factorize(SOLVE_PATHS[path]())
    with pytest.raises(ValueError, match=f"got '{trans}'"):
        lu_solve(f, np.ones(f.n), trans=trans)


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("path", list(SOLVE_PATHS))
def test_solve_leaves_its_right_hand_side_unchanged(path, trans):
    a = SOLVE_PATHS[path]()
    f = lu_factorize(a)
    assert on_superlu(f) == (path == "superlu") and (f.interface is None) == (path != "full")
    b = np.random.default_rng(41).standard_normal(f.n)
    kept = b.copy()
    x = lu_solve(f, b, trans=trans)
    assert np.array_equal(b, kept)
    assert backward_error(a if trans == "N" else a.T, x, b) <= 1e-15


# ---- the Kronecker form and the mode matrices ----------------------------------


def kronecker_reference(a_bb, ny):
    """(X1, X2, X3), row scale and row-scaled B, formed by sparse sums of Kronecker products."""
    m = a_bb.shape[0] // ny
    j = ny // 2
    block_row = a_bb[j * m : (j + 1) * m]

    def block(k):
        return block_row[:, (j + k) * m : (j + k + 1) * m]

    x3 = block(2)
    x2 = block(1) + 4.0 * x3
    x1 = block(0) + 2.0 * x2 - 6.0 * x3
    mu = 2.0 * np.cos(np.pi * np.arange(ny) / (ny - 1)) - 2.0
    b = (
        sps.kron(sps.identity(ny), x1)
        + sps.kron(sps.diags(mu), x2)
        + sps.kron(sps.diags(mu * mu), x3)
    ).tocsr()
    row_scale = 1.0 / abs(b).max(axis=1).toarray().ravel()
    rb = (sps.diags(row_scale) @ b).tocsc()
    rb.eliminate_zeros()
    return (x1, x2, x3), row_scale, rb


@pytest.mark.parametrize("eta,scheme", [(1e-2, "ap"), (0.0, "ap"), (1e-2, "naive")])
@pytest.mark.parametrize(
    "make_system",
    [lambda eta, s, h=h: strip_system(h, eta, s) for h in (0.05, 0.0125, 0.00625)]
    + [lambda eta, s: full_system(0.0125, 0.5, eta, s)],
    ids=["strip h=0.05", "strip h=0.0125", "strip h=0.00625", "full l=0.5 h=0.0125"],
)
def test_mode_matrices_equal_the_kronecker_sums(make_system, eta, scheme):
    # B is built from arrays; the X's, row scales and B equal the Kronecker-sum formula bit for bit
    a = make_system(eta, scheme).matrix
    a_max = np.abs(a.data).max()
    for b in a.column_blocks.blocks:  # on the full grid the band block is not in column order
        ny, m = b.shape
        a_bb = a if len(a.column_blocks.interface) == 0 else a[b.ravel()][:, b.ravel()]
        rows, cols, x = linsolve._kronecker_parts(a_bb, ny, a_max)
        xs, row_scale, rb = kronecker_reference(a_bb, ny)
        for got, want in zip(x, xs):
            assert np.array_equal(sps.coo_matrix((got, (rows, cols)), shape=(m, m)).toarray(), want.toarray())
        got_rb, got_scale = linsolve._scaled_modes(ny, m, rows, cols, x)
        assert np.array_equal(got_scale, row_scale)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got_rb, attr), getattr(rb, attr))


def _bump_interior_row(a, ny, m, bump):
    a.data[a.indptr[3 * m]] += bump  # first entry of block row 3, not the middle one
    return a


def _bump_block_minus_1(rows):
    def bump_rows(a, ny, m, bump):
        for j in (ny // 2,) if rows == "middle" else range(2, ny - 2):
            lo, hi = a.indptr[j * m], a.indptr[(j + 1) * m]
            a.data[lo + np.flatnonzero(a.indices[lo:hi] // m == j - 1)[0]] += bump
        return a

    return bump_rows


def _new_entry(row_block):
    """A new entry three blocks right of the diagonal in ``row_block`` (None: the middle one)."""

    def add(a, ny, m, bump):
        r = ny // 2 if row_block is None else row_block
        e = sps.csr_matrix(([bump], ([r * m], [(r + 3) * m])), shape=a.shape)
        out = (a + e).tocsr()
        out.column_blocks = a.column_blocks
        return out

    return add


@pytest.mark.parametrize(
    "perturb",
    [_bump_interior_row, _bump_block_minus_1("middle"), _bump_block_minus_1("interior"),
     _new_entry(None), _new_entry(3), _new_entry(1)],
    ids=["interior_row", "middle_row_block_-1", "every_interior_row_block_-1",
         "middle_row_block_+3", "interior_row_block_+3", "wall_row_block_+3"],
)
def test_strip_path_falls_back_to_superlu_off_the_kronecker_form(perturb, caplog):
    # 1e-12 max|A| is ten times the tolerance of the form
    a = strip_system(0.05, 1e-3, "ap").matrix
    ny, m = a.column_blocks.blocks[0].shape
    a = perturb(a, ny, m, 1e-12 * np.abs(a.data).max())
    with caplog.at_level(logging.WARNING, logger="edgepot.linsolve"):
        f = lu_factorize(a)
    assert on_superlu(f)
    assert [r.getMessage() for r in caplog.records] == [
        "column blocks not used, factoring by SuperLU: block 0 is off the Kronecker form"
    ]


@pytest.mark.parametrize(
    "perturb", [_bump_interior_row, _bump_block_minus_1("middle")], ids=["interior_row", "middle_row"]
)
def test_strip_path_holds_the_kronecker_form_to_its_tolerance(perturb, caplog):
    a = strip_system(0.05, 1e-3, "ap").matrix
    ny, m = a.column_blocks.blocks[0].shape
    a = perturb(a, ny, m, 1e-14 * np.abs(a.data).max())
    with caplog.at_level(logging.WARNING, logger="edgepot.linsolve"):
        f = lu_factorize(a)
    assert not on_superlu(f) and not caplog.records


@pytest.mark.parametrize(
    "eta,scheme",
    [(eta, s) for eta in (1e-2, 1e-4, 1e-6, 1e-8, 0.0) for s in ("ap", "naive") if s == "ap" or eta > 0],
)
def test_condition_sweep_systems_factor_in_natural_order(eta, scheme):
    # the mode matrices are banded: COLAMD's order saves them no fill (seen at most +0.5% here)
    a = strip_system(0.0125, eta, scheme).matrix
    f = lu_factorize(a)
    assert not on_superlu(f) and f.interface is None
    (block,) = f.pieces
    n = a.shape[0]
    assert np.array_equal(block.lu.perm_c, np.arange(n))
    ny, m = a.column_blocks.blocks[0].shape
    parts = linsolve._kronecker_parts(a, ny, np.abs(a.data).max())
    rb, _ = linsolve._scaled_modes(ny, m, *parts)
    colamd = spla.splu(rb, permc_spec="COLAMD", panel_size=1, relax=1)
    fill = block.lu.L.nnz + block.lu.U.nnz
    assert abs(fill / (colamd.L.nnz + colamd.U.nnz) - 1.0) <= 0.01


# ---- Ruiz equilibration and the estimator on model matrices -----------------


MODEL_MATRICES = {
    "strip h=0.05 ap eta=0": lambda: strip_system(0.05, 0.0, "ap").matrix,
    # row scales span about 8e9, entries 1e-8 .. 8e10
    "strip h=0.05 naive eta=1e-8": lambda: strip_system(0.05, 1e-8, "naive").matrix,
    "full l=0.5 h=0.05 ap eta=1e-3": lambda: full_system(0.05, 0.5, 1e-3, "ap").matrix,
}


@pytest.mark.parametrize("name", list(MODEL_MATRICES))
def test_ruiz_matches_reference_on_model_matrices(name):
    a = MODEL_MATRICES[name]()
    before = [a.data.copy(), a.indices.copy(), a.indptr.copy()]
    dr, dc, b = ruiz_reference(a)
    got_dr, got_dc, got_b = ruiz_scalings(a)
    assert np.all(np.abs(got_dr - dr) <= 1e-13 * np.abs(dr))
    assert np.all(np.abs(got_dc - dc) <= 1e-13 * np.abs(dc))
    assert (abs(got_b - b) - 1e-13 * abs(b)).max() <= 0  # entrywise
    for now, then in zip([a.data, a.indices, a.indptr], before):
        assert np.array_equal(now, then)  # the input's arrays are left untouched


@pytest.mark.parametrize("scheme,eta", [("ap", 1e-2), ("ap", 0.0), ("naive", 1e-2), ("naive", 1e-6)])
@pytest.mark.parametrize("mode", ["strip", "full"])
def test_cond_estimate_is_a_lower_bound_within_a_percent(mode, scheme, eta):
    # tol = 1e-4 bounds the last iteration's change, not the error; seen 0.09-0.26% low here
    if mode == "strip":
        a = strip_system(0.05, eta, scheme).matrix
    else:
        a = full_system(0.05, 0.5, eta, scheme).matrix
    est = estimate_cond2(a, lu_factorize(a), equilibrate=True)
    sv = np.linalg.svd(ruiz_scalings(a)[2].toarray(), compute_uv=False)  # dense oracle
    truth = sv[0] / sv[-1]
    assert est.converged
    assert truth * (1 - 1e-2) <= est.value <= truth * (1 + 1e-12)
