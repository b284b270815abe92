"""Acceptance criteria, one test per criterion, with a printed verdict line.

These run the full-size verification studies; the whole module takes a few
minutes (dominated by the finest convergence grid: one factorization plus
10^4 back-solves on ~4e4 unknowns).
"""

import math

import mpmath as mp
import numpy as np
import scipy.sparse as sps

import edgepot.timeloop
from edgepot.assembly import ZERO_FORCING, build_system
from edgepot.geometry import DiscConfig, PhysConfig, build_grid
from edgepot.linsolve import estimate_cond2, lu_factorize, lu_solve
from edgepot.manufactured import (
    corrected_mms,
    literal_mms,
    mms_source,
    sheath_residuals,
)
from edgepot.stencils import y_table
from edgepot.timeloop import init_state, run, step
from edgepot.verification import (
    run_condition_study,
    run_eta_sweep,
    run_mms_convergence,
)


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_spatial_order():
    study = run_mms_convergence(
        PhysConfig(eta=1e-3, nu=1.0, lambda_ref=0.0, L=0.4, t_end=1.0),
        DiscConfig(dx=0.05, dy=0.05, dt=1e-4),
        deltas=[0.05, 0.025, 0.0125, 0.00625], source="eq3_mms",
    )
    errs = {r.h: r.err_l2 for r in study.rows}
    ok = 1.8 <= study.order <= 2.2
    assert _verdict(
        1, "spatial order", ok,
        f"fitted order {study.order:.3f} in [1.8, 2.2]; errors {errs}",
    )


def test_criterion_2_condition_boundedness():
    etas = [1e-2, 1e-4, 1e-6, 1e-8, 0.0]
    study = run_condition_study(
        PhysConfig(eta=0.0), DiscConfig(dx=0.025, dy=0.025, dt=1e-3), etas
    )
    kap = {r.eta: r.kappa_ap for r in study.rows}
    knv = {r.eta: r.kappa_naive for r in study.rows}
    spread = max(kap.values()) / min(kap.values())
    naive_growth = knv[1e-6] / knv[1e-2]
    ok = (
        spread < 10.0
        and math.isfinite(kap[0.0])
        and knv[0.0] is None
        and naive_growth >= 100.0
    )
    assert _verdict(
        2, "condition boundedness", ok,
        f"coupled spread x{spread:.2f} (<10), kappa(eta=0)={kap[0.0]:.3e} finite, "
        f"single-field growth x{naive_growth:.1f} (>=100)",
    )


def test_criterion_3_eta_convergence():
    study = run_eta_sweep(
        PhysConfig(eta=0.0, nu=0.01, L=0.4, t_end=1.0),
        DiscConfig(dx=0.0125, dy=0.0125, dt=1e-3),
        [1e-1, 1e-2, 1e-3, 1e-4],
    )
    s1, s2 = study.slope_l1, study.slope_l2
    ok = 0.85 <= s1 <= 1.15 and 0.85 <= s2 <= 1.15 and s1 >= 0.5 and s2 >= 0.5
    assert _verdict(
        3, "eta convergence", ok,
        f"slopes L1={s1:.3f}, L2={s2:.3f} in [0.85, 1.15] and >= 0.5",
    )


def test_criterion_4_matrix_constancy(monkeypatch):
    calls = []
    original = edgepot.timeloop.lu_factorize

    def counting(matrix):
        calls.append(matrix.copy())
        return original(matrix)

    monkeypatch.setattr(edgepot.timeloop, "lu_factorize", counting)
    phys = PhysConfig(eta=1e-3, t_end=0.1)
    disc = DiscConfig(dx=0.1, dy=0.1, dt=1e-3, mode="strip")
    grid = build_grid(phys, disc)
    ms = corrected_mms(phys.eta, phys.nu, phys.lambda_ref)
    final = run(build_system(grid, phys, disc, "ap"), ms.forcing, ms.phi_ini)
    again = build_system(grid, phys, disc, "ap").matrix
    bit_identical = (
        np.array_equal(calls[0].data, again.data)
        and np.array_equal(calls[0].indices, again.indices)
        and np.array_equal(calls[0].indptr, again.indptr)
    )
    ok = final.n == 100 and len(calls) == 1 and bit_identical
    assert _verdict(
        4, "matrix constancy", ok,
        f"{final.n} steps, {len(calls)} factorization(s), re-assembly bit-identical: "
        f"{bit_identical}",
    )


def test_criterion_5_fixed_point():
    lam = 1.0
    worst_phi = worst_q = 0.0
    for eta in (0.0, 1e-3, 1.0):
        for nu in (1.0, 10.0):
            phys = PhysConfig(eta=eta, nu=nu, lambda_ref=lam, t_end=1.0)
            disc = DiscConfig(dx=0.2, dy=0.25, dt=1e-2, mode="strip")
            grid = build_grid(phys, disc)
            system = build_system(grid, phys, disc, "ap")
            factors = lu_factorize(system.matrix)
            state = init_state(grid, phys, lambda x, y: np.full_like(x, lam))
            for _ in range(100):
                state = step(state, factors, system, ZERO_FORCING)
                worst_phi = max(worst_phi, np.abs(state.phi - lam).max())
                worst_q = max(worst_q, np.abs(state.q).max())
    ok = worst_phi < 1e-9 and worst_q < 1e-9
    assert _verdict(
        5, "fixed point", ok,
        f"max|phi - lambda| = {worst_phi:.2e}, max|q| = {worst_q:.2e} (< 1e-9) "
        "over 100 steps, (eta, nu) in {0, 1e-3, 1} x {1, 10}",
    )


def test_criterion_6_sheath_consistency_of_the_reference_solution():
    times = np.linspace(0.05, 1.0, 20)
    ys = np.linspace(0.0, 1.0, 81)  # all face nodes of the dy = 0.0125 grid
    good = corrected_mms(1e-3, 1.0, 0.0)
    rw, re = sheath_residuals(good, 0.0, 0.4, times, ys)
    bad = literal_mms(1e-3, 0.0)
    ys_lit = np.linspace(0.0, 0.35, 29)  # where the literal log argument is defined
    rw_bad, re_bad = sheath_residuals(bad, 0.0, 0.4, times, ys_lit)
    ok = max(rw, re) <= 1e-10 and min(rw_bad, re_bad) >= 0.1
    assert _verdict(
        6, "sheath consistency", ok,
        f"boundary-consistent form residual {max(rw, re):.2e} (<= 1e-10); "
        f"literal form residual {min(rw_bad, re_bad):.2f} (O(1))",
    )


def test_criterion_7_oracle_suites():
    # (a) wall closure of the fourth difference vs explicit ghost elimination
    interior = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}

    def fold(j0):
        out = {}
        for off, c in interior.items():
            j = j0 + off
            j = -j if j < 0 else j
            out[j] = out.get(j, 0.0) + c
        return out

    grid = build_grid(
        PhysConfig(eta=1e-3), DiscConfig(dx=0.1, dy=0.25, dt=1e-3, mode="strip")
    )
    stencil_ok = True
    for j0 in (0, 1):
        ordinals, _, d4 = y_table(grid, 3, j0)
        row = {}
        for k, c in zip(ordinals[0], d4[0]):
            j = int(grid.phi_nodes[k, 1])
            row[j] = row.get(j, 0.0) + c
        stencil_ok &= {j: c for j, c in row.items() if c != 0.0} == fold(j0)

    # (b) closed-form source vs high-precision FD application of the operator
    mp.mp.dps = 50
    eta, nu = mp.mpf("0.001"), mp.mpf("1")
    c = mp.mpf("1.25") / mp.pi

    def phi(tt, xx, yy):
        w = mp.cos(mp.pi * yy)
        return eta * (tt / mp.pi) ** 2 * w * mp.cos(
            mp.mpf("1.25") * mp.pi * xx
        ) - mp.log(1 - c * tt * tt * w)

    h = mp.mpf("1e-3")
    w1 = [mp.mpf(1) / 12, mp.mpf(-2) / 3, mp.mpf(0), mp.mpf(2) / 3, mp.mpf(-1) / 12]
    w2 = [mp.mpf(-1) / 12, mp.mpf(4) / 3, mp.mpf(-5) / 2, mp.mpf(4) / 3, mp.mpf(-1) / 12]
    w4 = [
        mp.mpf(-1) / 6, mp.mpf(2), mp.mpf(-13) / 2, mp.mpf(28) / 3,
        mp.mpf(-13) / 2, mp.mpf(2), mp.mpf(-1) / 6,
    ]
    src_err = 0.0
    for (t, x, y) in [(0.4, -0.2, 0.15), (0.9, 0.3, 0.85)]:
        tt, xx, yy = mp.mpf(str(t)), mp.mpf(str(x)), mp.mpf(str(y))

        def d2y(t_):
            return sum(
                w * phi(t_, xx, yy + k * h) for k, w in zip(range(-2, 3), w2)
            ) / h**2

        dt_d2y = sum(w * d2y(tt + k * h) for k, w in zip(range(-2, 3), w1)) / h
        d2x = sum(w * phi(tt, xx + k * h, yy) for k, w in zip(range(-2, 3), w2)) / h**2
        d4y = sum(w * phi(tt, xx, yy + k * h) for k, w in zip(range(-3, 4), w4)) / h**4
        oracle = float(-dt_d2y - d2x / eta + nu * d4y)
        src_err = max(src_err, abs(mms_source(t, x, y, 1e-3, 1.0) - oracle))
    source_ok = src_err <= 1e-6

    # (c) condition estimator vs a dense SVD oracle at n = 200
    rng = np.random.default_rng(200)
    q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    a = sps.csr_matrix(q1 @ np.diag(np.logspace(0, 4, 200)) @ q2.T)
    sv = np.linalg.svd(a.toarray(), compute_uv=False)
    est = estimate_cond2(a, lu_factorize(a))
    cond_err = abs(est.value - sv[0] / sv[-1]) / (sv[0] / sv[-1])
    cond_ok = cond_err <= 1e-3

    # (d) LU residual bounds
    ad = rng.standard_normal((100, 100))
    ad += np.diag(np.abs(ad).sum(axis=1) + 1.0)
    a_sparse = sps.csr_matrix(ad)
    f = lu_factorize(a_sparse)
    n = 100
    pr = sps.csr_matrix((np.ones(n), (f.pieces[0].perm_r, np.arange(n))), shape=(n, n))
    pc = sps.csr_matrix((np.ones(n), (np.arange(n), f.pieces[0].perm_c)), shape=(n, n))
    res = (pr @ a_sparse @ pc - f.L @ f.U).tocoo()
    factor_res = np.abs(res.data).max() if res.nnz else 0.0
    factor_ok = factor_res <= 1e-12 * np.abs(ad).max()
    b = rng.standard_normal(n)
    x = lu_solve(f, b)
    solve_res = np.linalg.norm(a_sparse @ x - b)
    solve_ok = solve_res <= 1e-10 * (
        np.abs(ad).max() * n * np.linalg.norm(x) + np.linalg.norm(b)
    )

    ok = stencil_ok and source_ok and cond_ok and factor_ok and solve_ok
    assert _verdict(
        7, "oracle suites", ok,
        f"stencil fold exact: {stencil_ok}; source vs FD {src_err:.2e} (<=1e-6); "
        f"cond vs SVD {cond_err:.2e} (<=1e-3); LU residual {factor_res:.2e}; "
        f"solve residual ok: {solve_ok}",
    )
