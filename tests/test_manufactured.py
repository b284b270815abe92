import mpmath as mp
import numpy as np
import pytest

from edgepot.errors import EdgepotError
from edgepot.manufactured import (
    corrected_mms,
    eq4_source,
    literal_mms,
    mms_phi,
    mms_phi_literal,
    mms_source,
    sheath_residuals,
    smooth_mms,
    smooth_phi,
    smooth_source,
)


# ---- the reference solution ------------------------------------------------


def test_phi_at_t0_is_reference_potential():
    x = np.linspace(-0.4, 0.4, 9)
    y = np.linspace(0.0, 1.0, 11)
    vals = mms_phi(0.0, x[:, None], y[None, :], eta=0.7, lambda_ref=2.5)
    assert vals == pytest.approx(2.5)


def test_phi_face_value_from_log_term():
    # at (t=1, x=-0.4, y=0) the micro term vanishes: -ln(1 - 1.25/pi)
    assert mms_phi(1.0, -0.4, 0.0, eta=123.0, lambda_ref=0.0) == pytest.approx(
        0.5073107377710957, abs=1e-12
    )


def test_phi_midplane_value_is_reference():
    # cos(pi/2) = 0 kills both non-constant terms
    assert mms_phi(1.0, 0.0, 0.5, eta=0.3, lambda_ref=1.25) == pytest.approx(
        1.25, abs=1e-12
    )


def test_phi_log_domain_guard():
    with pytest.raises(EdgepotError, match="log argument non-positive at t = 2.0, y = 0.0"):
        mms_phi(2.0, 0.0, 0.0, eta=0.0, lambda_ref=0.0)  # arg < 0 for t > ~1.58


def test_q_vanishes_on_the_anchor_line():
    # the splitting's micro field q = (phi - p) / eta, with p = phi at eta = 0
    y = np.linspace(0, 1, 11)
    eta = 0.5
    q = (mms_phi(1.0, -0.4, y, eta, 0.0) - mms_phi(1.0, -0.4, y, 0.0, 0.0)) / eta
    assert np.abs(q).max() <= 1e-15


# ---- the source -------------------------------------------------------------


def test_source_vanishes_at_t0():
    x = np.linspace(-0.4, 0.4, 9)
    y = np.linspace(0.0, 1.0, 11)
    s = mms_source(0.0, x[:, None], y[None, :], eta=0.1, nu=2.0)
    assert np.abs(s).max() == 0.0


def test_source_finite_as_eta_vanishes():
    s0 = mms_source(0.7, 0.1, 0.3, eta=0.0, nu=1.0)
    s1 = mms_source(0.7, 0.1, 0.3, eta=1e-12, nu=1.0)
    assert np.isfinite(s0)
    assert s1 == pytest.approx(s0, abs=1e-10)


def _fd_operator_oracle(t, x, y, eta, nu, lam, L=0.4, h=1e-3, dps=50):
    """Fourth-order finite differences of the model operator on mms_phi.

    Evaluated in high precision: the h^-4 scaling of the fourth difference
    makes float64 cancellation (~1e-4) exceed the 1e-6 comparison target.
    """
    mp.mp.dps = dps
    half_width = mp.mpf(str(L))
    c = 1 / (2 * half_width * mp.pi)
    k = mp.pi / (2 * half_width)

    def phi(tt, xx, yy):
        w = mp.cos(mp.pi * yy)
        return (
            eta * (tt / mp.pi) ** 2 * w * mp.cos(k * xx)
            - mp.log(1 - c * tt * tt * w)
            + lam
        )

    t, x, y, h = mp.mpf(str(t)), mp.mpf(str(x)), mp.mpf(str(y)), mp.mpf(str(h))
    w1 = [mp.mpf(1) / 12, mp.mpf(-2) / 3, mp.mpf(0), mp.mpf(2) / 3, mp.mpf(-1) / 12]
    w2 = [mp.mpf(-1) / 12, mp.mpf(4) / 3, mp.mpf(-5) / 2, mp.mpf(4) / 3, mp.mpf(-1) / 12]
    w4 = [
        mp.mpf(-1) / 6, mp.mpf(2), mp.mpf(-13) / 2, mp.mpf(28) / 3,
        mp.mpf(-13) / 2, mp.mpf(2), mp.mpf(-1) / 6,
    ]

    def d2y(tt):
        return sum(
            w * phi(tt, x, y + k * h) for k, w in zip(range(-2, 3), w2)
        ) / h**2

    dt_d2y = sum(w * d2y(t + k * h) for k, w in zip(range(-2, 3), w1)) / h
    d2x = sum(w * phi(t, x + k * h, y) for k, w in zip(range(-2, 3), w2)) / h**2
    d4y = sum(w * phi(t, x, y + k * h) for k, w in zip(range(-3, 4), w4)) / h**4
    return float(-dt_d2y - d2x / eta + nu * d4y)


@pytest.mark.parametrize(
    "t,x,y,eta,nu",
    [
        (0.3, -0.1, 0.2, 1e-3, 1.0),
        (1.0, 0.25, 0.7, 1e-2, 2.0),
        (0.5, -0.4, 0.9, 1e-1, 1.0),
        (0.8, 0.4, 0.0, 1e-3, 0.5),
    ],
)
def test_source_matches_fd_operator_oracle(t, x, y, eta, nu):
    oracle = _fd_operator_oracle(t, x, y, eta, nu, lam=0.0)
    ours = mms_source(t, x, y, eta=eta, nu=nu)
    assert abs(ours - oracle) <= 1e-6


def test_source_matches_fd_operator_oracle_at_another_L():
    t, x, y, eta, nu, L = 0.9, -0.2, 0.3, 1e-2, 1.0, 0.3
    oracle = _fd_operator_oracle(t, x, y, eta, nu, lam=0.0, L=L)
    ours = mms_source(t, x, y, eta=eta, nu=nu, L=L)
    assert abs(ours - oracle) <= 1e-6


def mms_source_by_terms(t, x, y, eta, nu, L):
    """mms_source summed term by term, each term on the whole grid."""
    r = 1.0 / (2.0 * L)
    k, c = r * np.pi, r / np.pi
    w, cx = np.cos(np.pi * y), np.cos(k * x)
    a, pi2 = c * t * t, np.pi**2
    u = 1.0 - a * w
    micro = eta * (2.0 * t * w * cx + nu * pi2 * t * t * w * cx)
    xterm = r**2 * t * t * w * cx
    t_yy_log = 2.0 * pi2 * c * t * (w + a * w * w - 2.0 * a) / u**3
    y4_log = nu * a * pi2 * pi2 * (
        6.0 * a**3 - 4.0 * a + (1.0 - 4.0 * a * a) * w + (4.0 * a - 4.0 * a**3) * w * w + a * a * w**3
    ) / u**4
    return micro + xterm + t_yy_log + y4_log


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("h", [0.05, 0.025, 0.0125, 0.00625])
def test_source_matches_its_term_by_term_sum_on_the_criterion_1_grids(h, t):
    # mms_source folds the x-dependent terms into one product and the y-only terms into one column
    x = (-0.4 + h * np.arange(round(0.8 / h) + 1))[None, :]
    y = (h * np.arange(round(1.0 / h) + 1))[:, None]
    got = mms_source(t, x, y, eta=1e-3, nu=1.0, L=0.4)
    want = mms_source_by_terms(t, x, y, eta=1e-3, nu=1.0, L=0.4)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_smooth_source_matches_fd_operator_oracle():
    t, x, y, eta, nu, lam = 0.6, 0.15, 0.45, 1e-2, 1.5, 0.2
    mp.mp.dps = 50
    h = mp.mpf("1e-3")

    def phi(tt, xx, yy):
        return (
            eta * tt * tt * mp.cos(mp.pi * yy) * mp.cos(mp.mpf("1.25") * mp.pi * xx)
            + tt * tt * mp.cos(2 * mp.pi * yy)
            + lam
        )

    tt, xx, yy = mp.mpf(str(t)), mp.mpf(str(x)), mp.mpf(str(y))
    w1 = [mp.mpf(1) / 12, mp.mpf(-2) / 3, mp.mpf(0), mp.mpf(2) / 3, mp.mpf(-1) / 12]
    w2 = [mp.mpf(-1) / 12, mp.mpf(4) / 3, mp.mpf(-5) / 2, mp.mpf(4) / 3, mp.mpf(-1) / 12]
    w4 = [
        mp.mpf(-1) / 6, mp.mpf(2), mp.mpf(-13) / 2, mp.mpf(28) / 3,
        mp.mpf(-13) / 2, mp.mpf(2), mp.mpf(-1) / 6,
    ]

    def d2y(t_):
        return sum(w * phi(t_, xx, yy + k * h) for k, w in zip(range(-2, 3), w2)) / h**2

    dt_d2y = sum(w * d2y(tt + k * h) for k, w in zip(range(-2, 3), w1)) / h
    d2x = sum(w * phi(tt, xx + k * h, yy) for k, w in zip(range(-2, 3), w2)) / h**2
    d4y = sum(w * phi(tt, xx, yy + k * h) for k, w in zip(range(-3, 4), w4)) / h**4
    oracle = float(-dt_d2y - d2x / eta + nu * d4y)
    assert abs(smooth_source(t, x, y, eta, nu) - oracle) <= 1e-6


# ---- the separable ramp source ----------------------------------------------


def test_eq4_source_values():
    assert eq4_source(0.7, 0.0, 0.3, L=0.4) == 0.0  # sin(0)
    assert eq4_source(0.0, 0.2, 0.3, L=0.4) == 0.0  # t factor
    assert eq4_source(1.0, 0.4, 0.0, L=0.4) == pytest.approx(40.0)


# ---- sheath-law consistency ---------------------------------------------------


def _sample_times_ys():
    return np.linspace(0.1, 1.0, 7), np.linspace(0.0, 1.0, 21)


def test_corrected_solution_satisfies_sheath_law():
    for L in (0.4, 0.3):
        for eta in (0.0, 1e-3, 0.5):
            ms = corrected_mms(eta, 1.0, lambda_ref=0.3, L=L)
            times, ys = _sample_times_ys()
            rw, re = sheath_residuals(ms, 0.3, L, times, ys)
            assert rw <= 1e-10 and re <= 1e-10


def test_literal_variant_violates_sheath_law():
    ms = literal_mms(1e-3, lambda_ref=0.0)
    times = np.linspace(0.5, 1.0, 4)
    ys = np.linspace(0.0, 0.3, 7)  # region where the log argument stays positive
    rw, re = sheath_residuals(ms, 0.0, 0.4, times, ys)
    assert rw >= 0.1 and re >= 0.1


def test_literal_variant_log_domain():
    # cos(pi y) rounds to 6e-17 at y = 0.5, so the argument is about -6.5e15 there
    with pytest.raises(EdgepotError, match="log argument non-positive at t = 1.0, y = 0.5"):
        mms_phi_literal(1.0, 0.0, 0.5, eta=1e-3, lambda_ref=0.0)
    with pytest.raises(EdgepotError, match="log argument non-positive at t = 1.0, y = 0.45"):
        mms_phi_literal(1.0, 0.0, 0.45, eta=1e-3, lambda_ref=0.0)  # arg < 0


def test_literal_and_corrected_agree_where_cos_is_one():
    # at y = 0 the two log arguments coincide
    a = mms_phi(0.8, 0.1, 0.0, eta=1e-3, lambda_ref=0.0)
    b = mms_phi_literal(0.8, 0.1, 0.0, eta=1e-3, lambda_ref=0.0)
    assert a == pytest.approx(b, abs=1e-14)


def test_smooth_solution_consistent_with_its_sheath_data():
    ms = smooth_mms(1e-2, 1.0, lambda_ref=0.1)
    times, ys = _sample_times_ys()
    rw, re = sheath_residuals(ms, 0.1, 0.4, times, ys)
    assert rw <= 1e-12 and re <= 1e-12


def test_smooth_phi_at_t0():
    x = np.linspace(-0.4, 0.4, 5)
    assert smooth_phi(0.0, x, 0.3, eta=1.0, lambda_ref=0.7) == pytest.approx(0.7)
