import numpy as np
import pytest
import scipy.sparse as sps

from edgepot import linsolve
from edgepot.assembly import RowKind, build_system
from edgepot.errors import DimensionMismatchError, SingularPivotError
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
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


def factor_residual(a, factors):
    """max-norm of Pr A Pc - L U."""
    n = a.shape[0]
    pr = sps.csr_matrix((np.ones(n), (factors.perm_r, np.arange(n))), shape=(n, n))
    pc = sps.csr_matrix((np.ones(n), (np.arange(n), factors.perm_c)), shape=(n, n))
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
    assert np.array_equal(trimmed.perm_r, plain.perm_r)


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
    b = a.tocsr()
    dr, dc = np.ones(40), np.ones(40)
    for _ in range(20):
        rn = np.sqrt(np.asarray(b.multiply(b).sum(axis=1)).ravel()) ** 0.5
        dr /= rn
        b = sps.diags(1.0 / rn) @ b
        cn = np.sqrt(np.asarray(b.multiply(b).sum(axis=0)).ravel()) ** 0.5
        dc /= cn
        b = b @ sps.diags(1.0 / cn)
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
    assert f._modes is not None
    b = np.random.default_rng(31).standard_normal(a.shape[0])
    ref, lu = refined_splu_solve(a, b, trans)
    x = lu_solve(f, b, trans=trans)
    assert np.linalg.norm(x - ref) <= 1e-7 * np.linalg.norm(ref)
    assert f.L.nnz + f.U.nnz < lu.L.nnz + lu.U.nnz


def test_superlu_path_for_full_mode_and_unstructured_matrices():
    phys = PhysConfig(eta=1e-3, limiter_height=0.5)
    disc = DiscConfig(dx=0.05, dy=0.05, dt=1e-3, mode="full")
    full = build_system(build_grid(phys, disc), phys, disc, "ap").matrix
    for a in (full, random_dd(100, seed=3)):
        f = lu_factorize(a)
        assert f._modes is None
        assert factor_residual(a, f) <= 1e-12 * np.abs(a.data).max()


def test_strip_without_gauge_anchor_raises():
    # without the anchor rows q is fixed only up to a function of y
    system = strip_system(0.05, 1e-3, "ap")
    a = system.matrix.copy()
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    a.data[np.isin(rows, system.rows_of_kind(RowKind.ANCHOR))] = 0.0
    with pytest.raises(SingularPivotError):
        lu_factorize(a)


def test_strip_single_field_refused_at_tiny_eta():
    # the row-scaled pivot is 1.1e-16 here
    a = strip_system(0.0125, 1e-14, "naive").matrix
    with pytest.raises(SingularPivotError, match="threshold"):
        lu_factorize(a)
