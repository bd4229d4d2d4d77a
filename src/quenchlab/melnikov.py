"""Angle-selection integrals and the predicted angle derivative.

Projecting the parameter derivatives of the comoving equation on the
adjoint-kernel direction e^{c_x x} dTheta/dy yields two scalars: the angle
sensitivity (m_psi, negative) and the perturbation sensitivity (m_alpha).
Their ratio predicts the angle response d(phi)/d(alpha) = -m_alpha/m_psi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMpsi, NonFinite
from .model import ModelParams, potential_G, side_average
from .profiles1d import Profile1D, cn_prime_quadrature
from .quench2d import Field2D
from .textio import write_entries

#: the weighted integrand must have decayed by this factor at the domain edge
_EDGE_DECAY = 1e-6

#: m_psi must lie below -MIN_M_PSI for the predicted angle derivative
MIN_M_PSI = 1e-10


@dataclass
class MelnikovReport:
    """Selection integrals, their ratio, and quadrature-error estimates."""

    m_psi: float
    m_alpha: float
    cn_prime: float
    dphi_dalpha: float
    c_x: float
    #: error estimates by name; m_psi_truncation is a domain-truncation
    #: estimate (see m_psi_detail), not an error bar in h
    quadrature_error: dict
    geometric_term: float
    contact_line_term: float


def m_psi_detail(theta: Field2D, c_x: float):
    """Angle sensitivity m_psi = -c_x * integral of (dTheta/dy)^2 e^{c_x x},
    and a truncation estimate.

    Trapezoid quadrature with centered differences; the exponential factor
    converges on the left because the weight decays, on the right because
    the profile's transverse derivative does.  The estimate is the change
    when the integral is cut to the middle half of the domain in each
    direction: it measures the domain truncation, not the h-error.
    """
    thy = np.gradient(theta.data, theta.hy, axis=0)
    w = thy**2 * np.exp(c_x * theta.x)[None, :]
    if not np.isfinite(w).all():
        raise NonFinite("weighted integrand is not finite")
    interior_max = np.abs(w[1:-1, 1:-1]).max()
    right_edge = np.abs(w[:, -1]).max()
    if interior_max > 0 and right_edge > _EDGE_DECAY * interior_max:
        raise NonFinite(
            f"weighted integrand at the right boundary ({right_edge:.2e}) "
            f"has not decayed; domain too small")

    def integrate(sub):
        return float(np.trapezoid(np.trapezoid(sub, dx=theta.hx, axis=1),
                     dx=theta.hy, axis=0))

    full = integrate(w)
    qx = theta.nx // 4
    qy = theta.ny // 4
    half = integrate(w[qy:theta.ny - qy, qx:theta.nx - qx])
    return -c_x * full, abs(c_x) * abs(full - half)


def contact_line_integral(u_top: Profile1D, u_bottom: Profile1D,
                          p: ModelParams):
    """Weighted x-integral of G(x, u_t) - G(x, u_b) and an error estimate.

    G is the perturbation potential; the integrand is exponentially
    localized near the contact line by the weight on the left and the
    profile tails on the right.  Trapezoid at profile resolution with a
    coarse-grid Richardson error estimate.
    """
    if u_top.grid != u_bottom.grid:
        raise ValueError("top and bottom profiles must share one grid")
    x = u_top.grid.nodes()
    h = u_top.grid.h
    i0 = u_top.grid.index_of_origin()
    gt, gb = (side_average(x, potential_G(-1.0, u.values, p),
                           potential_G(1.0, u.values, p))
              for u in (u_top, u_bottom))
    f = np.exp(p.c_x * x) * (gt - gb)
    if not np.isfinite(f).all():
        raise NonFinite("contact-line integrand is not finite")
    if np.abs(f[-1]) > _EDGE_DECAY * max(np.abs(f).max(), 1e-300):
        raise NonFinite("contact-line integrand has not decayed on the right")
    full = float(np.trapezoid(f, dx=h))
    even = i0 % 2  # keep the x = 0 node on the coarse grid
    coarse = float(np.trapezoid(f[even::2], dx=2 * h))
    return full, abs(full - coarse) / 3.0


def build_report(theta: Field2D, u_top: Profile1D, u_bottom: Profile1D,
                 p: ModelParams) -> MelnikovReport:
    """Compute all selection integrals for one parameter set.

    m_alpha has two contributions: a geometric term from the frame-speed
    response, cn'(0) * integral (dTheta/dy)^2 e^{c_x x} = -cn'(0) m_psi / c_x,
    and the contact-line term -integral e^{c_x x} [G(x,u_t) - G(x,u_b)] dx.
    Then dphi/dalpha = -m_alpha/m_psi.
    """
    mp, mp_err = m_psi_detail(theta, p.c_x)
    # m_psi = -c_x * (a nonnegative integral), so this also rejects c_x = 0
    if not mp < -MIN_M_PSI:
        raise DegenerateMpsi(f"m_psi = {mp:.3e} is not negative enough")
    cnp, cnp_err = cn_prime_quadrature(p.g_left)
    contact, contact_err = contact_line_integral(u_top, u_bottom, p)
    geometric = -cnp * mp / p.c_x
    ma = geometric - contact
    return MelnikovReport(
        m_psi=mp, m_alpha=ma, cn_prime=cnp, dphi_dalpha=-ma / mp, c_x=p.c_x,
        quadrature_error={"m_psi_truncation": mp_err,
                          "contact_line": contact_err, "cn_prime": cnp_err},
        geometric_term=geometric, contact_line_term=ma - geometric)


def write_report(report: MelnikovReport, path: str):
    """Serialize the report as key = value text."""
    entries = {name: f"{getattr(report, name):.17g}"
               for name in ("c_x", "m_psi", "m_alpha", "cn_prime", "dphi_dalpha",
                            "geometric_term", "contact_line_term")}
    entries.update((f"error.{key}", f"{val:.6e}")
                   for key, val in sorted(report.quadrature_error.items()))
    write_entries(path, entries)
