"""Manufactured solutions and their closed-form sources.

The reference solution used for the mesh-convergence study is

    phi(t, x, y) = eta (t/pi)^2 cos(pi y) cos(k x)
                   - ln(1 - C t^2 cos(pi y)) + lambda,

    k = pi/(2L),  C = 1/(2 pi L),

on the strip of any half-width L (k = 1.25 pi and C = 1.25/pi at L = 0.4).
Its x-dependent part carries the factor eta, so the 1/eta term of the
single-field operator applied to it stays finite as eta -> 0, and it
satisfies every boundary condition of the model exactly: the d_y and d_y^3
conditions on y = 0, 1 (all terms carry sin(pi y)), and the sheath law on
x = -+L, where cos(k x) vanishes while its slope is +-k: there
d_x q = +-(t/pi)^2 k cos(pi y) and the law asks for
+-(1 - e^{lambda - phi}) = +-C t^2 cos(pi y), which agree because C = k/pi^2.

A historical variant with cos(pi y) dividing the log argument instead of
multiplying it ("literal") is kept for regression purposes only: its log
argument changes sign inside the domain and it violates the sheath law by
O(1); it has no usable source term.

A second, fully smooth solution ("smooth") provides an independent
convergence check.  It does not satisfy the sheath law, so it carries
additive manufactured sheath data g(t, side, y) through the Forcing bundle.

``SOURCES`` maps every source name the command line accepts to the bundle
it selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import Forcing, sheath_law
from .errors import LogDomainError
from .geometry import PhysConfig

_KX = 1.25 * np.pi  # x wavenumber of the literal and smooth solutions (pi/(2L) at L = 0.4)


def _wavenumbers(L: float) -> tuple[float, float]:
    """(k, C) = (pi/(2L), 1/(2 pi L)), formed from 1/(2L) so that L = 0.4
    gives 1.25 pi and 1.25/pi bit for bit."""
    r = 1.0 / (2.0 * L)
    return r * np.pi, r / np.pi


def _log_arg_corrected(t, y, c):
    return 1.0 - c * t * t * np.cos(np.pi * y)


def mms_phi(t, x, y, eta: float, lambda_ref: float, L: float = 0.4):
    """Reference manufactured solution (boundary-consistent form)."""
    k, c = _wavenumbers(L)
    arg = _log_arg_corrected(t, y, c)
    if np.any(arg <= 0):
        raise LogDomainError(f"log argument non-positive at t = {t}")
    w = np.cos(np.pi * y)
    return eta * (t / np.pi) ** 2 * w * np.cos(k * x) - np.log(arg) + lambda_ref


def mms_q(t, x, y, L: float = 0.4):
    """Micro field of the splitting: q = (phi - p)/eta, independent of eta."""
    k, _ = _wavenumbers(L)
    return (t / np.pi) ** 2 * np.cos(np.pi * y) * np.cos(k * x)


def mms_q_x(t, x, y, L: float = 0.4):
    k, _ = _wavenumbers(L)
    return -((t / np.pi) ** 2) * np.cos(np.pi * y) * k * np.sin(k * x)


def mms_source(t, x, y, eta: float, nu: float, *, L: float = 0.4):
    """Model operator applied to mms_phi, in closed form.

    With phi = eta*A + B + lambda, A = (t/pi)^2 cos(pi y) cos(k x) and
    B = -ln(1 - a w), a = C t^2, w = cos(pi y):

        S = eta (-d_t d_y^2 A + nu d_y^4 A) - d_x^2 A - d_t d_y^2 B + nu d_y^4 B

    The 1/eta term reduces to -d_x^2 A because the x-part carries eta, so S
    is affine in eta and finite at eta = 0.  lambda only shifts phi and drops
    out of S, so S takes no lambda_ref.
    """
    k, c = _wavenumbers(L)
    arg = _log_arg_corrected(t, y, c)
    if np.any(arg <= 0):
        raise LogDomainError(f"log argument non-positive at t = {t}")
    w = np.cos(np.pi * y)
    a = c * t * t
    u = arg
    pi2 = np.pi**2
    # eta (-d_t d_y^2 A + nu d_y^4 A) - d_x^2 A = coef w cos(k x), with
    # -d_x^2 A = (k/pi)^2 t^2 w cos(k x); the log terms depend on y alone
    coef = eta * (2.0 * t + nu * pi2 * t * t) + (1.0 / (2.0 * L)) ** 2 * t * t
    t_yy_log = 2.0 * pi2 * c * t * (w + a * w * w - 2.0 * a) / u**3
    y4_log = (
        nu
        * a
        * pi2
        * pi2
        * (
            6.0 * a**3
            - 4.0 * a
            + (1.0 - 4.0 * a * a) * w
            + (4.0 * a - 4.0 * a**3) * w * w
            + a * a * w**3
        )
        / u**4
    )
    return (coef * w) * np.cos(k * x) + (t_yy_log + y4_log)


def mms_phi_literal(t, x, y, eta: float, lambda_ref: float):
    """Historical variant: cos(pi y) divides the log argument.

    Undefined where cos(pi y) = 0 and where the argument is non-positive;
    kept only to document that it fails the sheath boundary conditions.
    """
    w = np.cos(np.pi * y)
    if np.any(w == 0):
        raise LogDomainError("cos(pi y) = 0: literal variant undefined at y = 0.5")
    arg = 1.0 - 1.25 * t * t / (np.pi * w)
    if np.any(arg <= 0):
        raise LogDomainError(f"log argument non-positive at t = {t}")
    return eta * (t / np.pi) ** 2 * w * np.cos(_KX * x) - np.log(arg) + lambda_ref


def eq4_source(t, x, y, L: float):
    """Separable ramp source used for the eta -> 0 convergence study."""
    return 40.0 * t * np.cos(2.0 * np.pi * y) * np.sin(np.pi * x / (2.0 * L))


def smooth_phi(t, x, y, eta: float, lambda_ref: float):
    """Fully smooth fallback: eta t^2 cos(pi y) cos(1.25 pi x) + t^2 cos(2 pi y) + lambda."""
    return (
        eta * t * t * np.cos(np.pi * y) * np.cos(_KX * x)
        + t * t * np.cos(2.0 * np.pi * y)
        + lambda_ref
    )


def smooth_source(t, x, y, eta: float, nu: float):
    w = np.cos(np.pi * y)
    cx = np.cos(_KX * x)
    c2 = np.cos(2.0 * np.pi * y)
    pi2 = np.pi**2
    pi4 = pi2 * pi2
    return (
        eta * (2.0 * pi2 * t * w * cx + nu * pi4 * t * t * w * cx)
        + 1.5625 * pi2 * t * t * w * cx
        + 8.0 * pi2 * t * c2
        + 16.0 * nu * pi4 * t * t * c2
    )


@dataclass(frozen=True)
class ManufacturedSolution:
    """What a source selects: forcing, initial data and the exact solution.

    ``phi`` and ``q_x`` are None where the source has no closed-form
    solution; ``forcing`` is None where the solution has no source term to
    integrate it with (the literal variant).
    """

    forcing: Optional[Forcing]
    phi_ini: Callable  # (x, y) -> field at t = 0
    phi: Optional[Callable] = None  # (t, x, y) -> field
    q_x: Optional[Callable] = None  # x-derivative of the micro field q of the splitting
    y_max: float = 1.0  # phi is defined for 0 <= y <= y_max at every t <= 1


def _constant(value: float) -> Callable:
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


def corrected_mms(
    eta: float, nu: float, lambda_ref: float, L: float = 0.4
) -> ManufacturedSolution:
    """The boundary-consistent reference solution (default study target)."""
    return ManufacturedSolution(
        forcing=Forcing(volume=lambda t, x, y: mms_source(t, x, y, eta, nu, L=L)),
        phi_ini=_constant(lambda_ref),
        phi=lambda t, x, y: mms_phi(t, x, y, eta, lambda_ref, L),
        q_x=lambda t, x, y: mms_q_x(t, x, y, L),
    )


def literal_mms(eta: float, lambda_ref: float) -> ManufacturedSolution:
    """The historical variant at L = 0.4; documentation only, no source term.

    Its log argument turns negative above y = 0.37 at t = 1.
    """
    return ManufacturedSolution(
        forcing=None,
        phi_ini=_constant(lambda_ref),
        phi=lambda t, x, y: mms_phi_literal(t, x, y, eta, lambda_ref),
        q_x=mms_q_x,
        y_max=0.35,
    )


def smooth_mms(eta: float, nu: float, lambda_ref: float, L: float = 0.4) -> ManufacturedSolution:
    """Smooth fallback with manufactured sheath data on the faces.

    The sheath condition on the face of side s (-1 west, +1 east) becomes
    d_x q = sheath_law(s, phi) + g(t, s, y), with g chosen so the smooth
    field is the exact solution.
    """

    def q_x(t, x, y):
        return -t * t * np.cos(np.pi * y) * _KX * np.sin(_KX * x)

    def g(t, side, y):
        phi = smooth_phi(t, side * L, y, eta, lambda_ref)
        return q_x(t, side * L, y) - sheath_law(side, phi, lambda_ref)

    return ManufacturedSolution(
        forcing=Forcing(volume=lambda t, x, y: smooth_source(t, x, y, eta, nu), sheath=g),
        phi_ini=_constant(lambda_ref),
        phi=lambda t, x, y: smooth_phi(t, x, y, eta, lambda_ref),
        q_x=q_x,
    )


# Every source name the command line accepts, with the bundle it selects.
SOURCES: dict[str, Callable[[PhysConfig], ManufacturedSolution]] = {
    "eq3_mms": lambda p: corrected_mms(p.eta, p.nu, p.lambda_ref, p.L),
    "eq3_literal": lambda p: literal_mms(p.eta, p.lambda_ref),
    "eq4": lambda p: ManufacturedSolution(
        Forcing(volume=lambda t, x, y: eq4_source(t, x, y, p.L)), _constant(0.0)
    ),
    "smooth_mms": lambda p: smooth_mms(p.eta, p.nu, p.lambda_ref, p.L),
    "zero": lambda p: ManufacturedSolution(Forcing(), _constant(p.lambda_ref)),
}


def sheath_residuals(
    ms: ManufacturedSolution,
    lambda_ref: float,
    L: float,
    times,
    ys,
) -> tuple[float, float]:
    """Max sheath-law residual of an exact solution on the two faces.

    Measured in the micro form d_x q - sheath_law(side, phi) = 0, which is
    eta-free; manufactured sheath data of the bundle is honoured, so a
    solution with corrections reports zero as well.  Both faces are
    evaluated in one broadcast, side along the first axis.
    """
    side = np.array([-1, 1])[:, None, None]
    t = np.asarray(times, dtype=float)[None, :, None]
    y = np.asarray(ys, dtype=float)[None, None, :]
    law = sheath_law(side, ms.phi(t, side * L, y), lambda_ref)
    if ms.forcing is not None and ms.forcing.sheath is not None:
        law = law + ms.forcing.sheath(t, side, y)
    west, east = np.abs(ms.q_x(t, side * L, y) - law).max(axis=(1, 2))
    return float(west), float(east)
