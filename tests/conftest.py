import numpy as np
import pytest
import scipy.sparse.linalg as spla

from edgepot.linsolve import ruiz_scalings


def _refined_splu_solve(a, b, trans):
    """scipy's splu solution, refined with residuals in extended precision.

    SuperLU's own forward error on these systems reaches 6e-6 (coupled,
    eta = 0, h = 0.025) against backward errors near 1e-16, and is of order
    one on single-field systems at eta = 1e-8, whose raw condition number
    reaches 1e17.  So splu factors the Ruiz-equilibrated matrix (condition
    number near 1e10 there), and three refinement passes with residuals of
    the unscaled matrix take the reference to roundoff; the comparison then
    measures the path under test rather than the reference.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("no extended precision for the reference residual")
    dr, dc, scaled = ruiz_scalings(a)
    lu = spla.splu(scaled.tocsc())
    if trans == "N":  # a = Dr^-1 S Dc^-1

        def solve(v):
            return dc * lu.solve(dr * v)

    else:

        def solve(v):
            return dr * lu.solve(dc * v, trans="T")

    m = (a if trans == "N" else a.T).tocoo()
    vals = m.data.astype(np.longdouble)
    x = solve(b).astype(np.longdouble)
    for _ in range(3):
        r = b.astype(np.longdouble)
        np.subtract.at(r, m.row, vals * x[m.col])
        dx = solve(r.astype(np.float64))
        x += dx
    x = x.astype(np.float64)
    assert np.linalg.norm(dx) <= 1e-9 * np.linalg.norm(x), "reference refinement stalled"
    return x, lu


@pytest.fixture(scope="session")
def refined_splu_solve():
    """(reference solution, splu factors) of a x = b, or a^T x = b for trans 'T'."""
    return _refined_splu_solve
