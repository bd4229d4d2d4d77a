"""Discrete checks of the linearization: 1D spectra and 2D kernel directions.

The quenched-front linearization d_xx + c_x d_x + q(x) is similar, through
the exact discrete analogue of conjugation by e^{c_x x / 2}, to a symmetric
tridiagonal matrix, so its spectrum is real and cheap to compute.  In 2D
the transverse derivative of the symmetric steady state spans the kernel
of the linearized operator and e^{c_x x} times it spans the kernel of the
adjoint; both are verified as discrete residuals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import EigensolveFailure
from .melnikov import dy_centered
from .model import (ModelParams, interface_correction, origin_index,
                    reaction_derivative, transport_1d)
from .profiles1d import Grid1D, Profile1D
from .quench2d import Field2D


#: the linearizations checked here are taken at alpha = 0
_UNPERTURBED = ModelParams()


@dataclass
class LinearOperator1D:
    """Tridiagonal discretization of d_xx + c_x d_x + q(x), Dirichlet ends."""

    grid: Grid1D
    c_x: float
    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        if self.q.size != self.grid.n:
            raise ValueError("potential length must match the grid")
        if not np.isfinite(self.q).all():
            raise ValueError("potential must be finite")


def quench_front_operator(profile: Profile1D, c_x: float) -> LinearOperator1D:
    """Linearization about a quenched front: q = mu(x) - 3 u_t(x)^2.

    The bistability switch is sampled by its side-average at the x = 0
    node, matching the front solver's discretization.
    """
    return LinearOperator1D(grid=profile.grid, c_x=c_x,
                            q=reaction_derivative(profile.grid.nodes(),
                                                  profile.values, _UNPERTURBED))


def max_real_eig_1d(op: LinearOperator1D, endpoint_tol: float = 1e-5) -> float:
    """Largest eigenvalue of the discretized operator.

    Requires the potential to have flattened at the truncation ends (the
    essential-spectrum limits must be reached) and c_x h < 2 so the exact
    symmetrizing similarity exists.
    """
    h = op.grid.h
    n = op.grid.n
    for tail in (op.q[:4], op.q[-4:]):
        if np.abs(tail - tail[0]).max() > endpoint_tol:
            raise ValueError("potential still varies at the domain ends; "
                             "enlarge the truncation domain")
    lower, main, upper = transport_1d(n, h, op.c_x)
    if lower[0] * upper[0] <= 0:
        raise EigensolveFailure(f"c_x h = {op.c_x * h:.3f} too large to symmetrize")
    diag = main[1:-1] + op.q[1:-1]
    off = np.sqrt(lower * upper)[2:]
    try:
        vals = eigvalsh_tridiagonal(diag, off, select="i",
                                    select_range=(n - 3, n - 3))
    except Exception as exc:
        raise EigensolveFailure(str(exc)) from exc
    return float(vals[0])


@dataclass
class KernelCheck:
    """Relative residuals of the kernel and adjoint-kernel directions."""

    forward_residual: float
    adjoint_residual: float
    h: float


def _apply_linearized(v, q_bar, c_x, hx, hy, sign, i0=None):
    """(Lap + sign*c_x d_x + q) v on the doubly-interior nodes.

    At the quench column (full-grid index i0) the jump correction of the
    alpha = 0 equation with frame speed sign*c_x is subtracted, so the
    application stays second-order there.
    """
    vxx = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hx**2
    vyy = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hy**2
    vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hx)
    out = vxx + vyy + sign * c_x * vx + q_bar[1:-1, 1:-1] * v[1:-1, 1:-1]
    if i0 is not None and 0 < i0 < v.shape[1] - 1:
        out[:, i0 - 1] -= interface_correction(v[1:-1, i0], vx[:, i0 - 1],
                                               _UNPERTURBED, hx, sign * c_x)
    return out


def kernel_check_2d(theta: Field2D, c_x: float, band: int = 3) -> KernelCheck:
    """Residuals of L(dTheta/dy) and L*(e^{c_x x} dTheta/dy).

    L = Lap + c_x d_x + mu(x) - 3 Theta^2 with centered stencils; the
    adjoint flips the advection sign, which is exactly the transpose of
    the interior discretization.  Norms exclude a boundary band of width
    band*h where truncation pollutes the stencils.
    """
    data = theta.data
    hx, hy = theta.hx, theta.hy
    x = theta.x
    q_bar = reaction_derivative(x, data, _UNPERTURBED)

    v = dy_centered(data, hy)
    weight = np.exp(c_x * x)[None, :]
    wv = weight * v

    i0 = origin_index(x)
    fwd = _apply_linearized(v, q_bar, c_x, hx, hy, +1.0, i0=i0)
    adj = _apply_linearized(wv, q_bar, c_x, hx, hy, -1.0, i0=i0)

    k = max(band, 2)  # the dy/stencil composition already eats 2 layers
    sl = np.s_[k:-k or None, k:-k or None]
    inner_fwd = fwd[k - 1:-(k - 1) or None, k - 1:-(k - 1) or None]
    inner_adj = adj[k - 1:-(k - 1) or None, k - 1:-(k - 1) or None]
    norm_v = np.linalg.norm(v[sl])
    norm_wv = np.linalg.norm(wv[sl])
    return KernelCheck(
        forward_residual=float(np.linalg.norm(inner_fwd) / norm_v),
        adjoint_residual=float(np.linalg.norm(inner_adj) / norm_wv),
        h=hx,
    )


def conjugation_defect(theta: Field2D, c_x: float, test: np.ndarray,
                       band: int = 3) -> float:
    """Sup defect of the intertwining L*(e^{c_x x} v) = e^{c_x x} L v.

    Multiplication by e^{c_x x} maps the kernel of the linearized operator
    into the kernel of its adjoint; discretely the identity holds to O(h^2)
    for smooth test fields (exactly at c_x = 0).
    """
    data = theta.data
    hx, hy = theta.hx, theta.hy
    x = theta.x
    q_bar = reaction_derivative(x, data, _UNPERTURBED)
    weight = np.exp(c_x * x)[None, :]
    lhs = _apply_linearized(weight * test, q_bar, c_x, hx, hy, -1.0)
    rhs = weight[:, 1:-1] * _apply_linearized(test, q_bar, c_x, hx, hy, +1.0)
    k = max(band - 1, 1)
    sl = np.s_[k:-k or None, k:-k or None]
    return float(np.abs((lhs - rhs)[sl]).max())
