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

from .errors import DomainTooSmall, EigensolveFailure
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


def max_real_eig_1d(op: LinearOperator1D) -> float:
    """Largest eigenvalue of the discretized operator.

    Requires the potential to have flattened at the truncation ends (its
    four end values agree to 1e-5, so the essential-spectrum limits are
    reached) and c_x h < 2 so the exact symmetrizing similarity exists.
    """
    h = op.grid.h
    n = op.grid.n
    for tail in (op.q[:4], op.q[-4:]):
        if np.abs(tail - tail[0]).max() > 1e-5:
            raise DomainTooSmall("potential still varies at the domain ends; "
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


def _apply_linearized(v, q_bar, c_x, hx, hy, sign, i0):
    """(Lap + sign*c_x d_x + q) v on the doubly-interior nodes.

    At the quench column (full-grid index i0, None for none) the jump
    correction of the alpha = 0 equation with frame speed sign*c_x is
    subtracted, so the application stays second-order there.
    """
    vxx = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hx**2
    vyy = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hy**2
    vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hx)
    out = vxx + vyy + sign * c_x * vx + q_bar[1:-1, 1:-1] * v[1:-1, 1:-1]
    if i0 is not None and 0 < i0 < v.shape[1] - 1:
        out[:, i0 - 1] -= interface_correction(v[1:-1, i0], vx[:, i0 - 1],
                                               _UNPERTURBED, hx, sign * c_x)
    return out


def kernel_check_2d(theta: Field2D, c_x: float) -> KernelCheck:
    """Residuals of L(dTheta/dy) and L*(e^{c_x x} dTheta/dy).

    L = Lap + c_x d_x + mu(x) - 3 Theta^2 with centered stencils; the
    adjoint flips the advection sign, which is exactly the transpose of
    the interior discretization.  Norms exclude a boundary band of 3
    cells, where truncation pollutes the stencils.
    """
    data = theta.data
    hx, hy = theta.hx, theta.hy
    x = theta.x
    q_bar = reaction_derivative(x, data, _UNPERTURBED)

    v = dy_centered(data, hy)
    weight = np.exp(c_x * x)[None, :]
    wv = weight * v

    i0 = origin_index(x)
    fwd = _apply_linearized(v, q_bar, c_x, hx, hy, +1.0, i0)
    adj = _apply_linearized(wv, q_bar, c_x, hx, hy, -1.0, i0)

    k = 3  # the boundary band; the dy/stencil composition eats 2 layers
    sl = np.s_[k:-k, k:-k]
    inner_fwd = fwd[k - 1:1 - k, k - 1:1 - k]
    inner_adj = adj[k - 1:1 - k, k - 1:1 - k]
    norm_v = np.linalg.norm(v[sl])
    norm_wv = np.linalg.norm(wv[sl])
    return KernelCheck(
        forward_residual=float(np.linalg.norm(inner_fwd) / norm_v),
        adjoint_residual=float(np.linalg.norm(inner_adj) / norm_wv),
    )
