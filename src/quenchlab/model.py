"""Quenched bistable/monostable reaction terms, potentials, and equilibrium branches.

The medium jumps at x = 0: bistable kinetics u - u^3 + alpha*g_l(u) on the
left half line, monostable -u - u^3 + alpha*g_r(u) on the right.  The
perturbations g_l, g_r are polynomials of degree <= 3, given by ascending
coefficient tuples (c0, c1, c2, c3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

#: minimal admissible separation between the bistable plus-branch and the
#: right equilibrium; closer branches signal a fold / non-perturbative alpha.
FOLD_SEPARATION = 0.1

_ZERO_TOL = 1e-12

#: a grid coordinate this close to 0 is the node on the quenching line
_NODE_TOL = 1e-9

#: complex-step size: f'(u) = Im f(u + i s) / s to round-off, and a power of
#: two, so the division is exact
_STEP = 2.0 ** -200


def poly_eval(coef, u):
    """Evaluate a polynomial with ascending coefficients at u (Horner),
    in u's precision: complex u gives complex values."""
    out = np.zeros(np.shape(u), np.result_type(u, float))
    for c in reversed(coef):
        out = out * u + c
    return out if out.ndim else out.item()


def poly_derivative(coef):
    """Ascending coefficients of the derivative polynomial."""
    return tuple(k * c for k, c in enumerate(coef) if k > 0)


def poly_antiderivative(coef):
    """Ascending coefficients of the antiderivative vanishing at 0."""
    return (0.0,) + tuple(c / (k + 1) for k, c in enumerate(coef))


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: frame speeds, perturbation strength, and g_l/g_r."""

    c_x: float = 0.0
    c_y: float = 0.0
    alpha: float = 0.0
    g_left: tuple = ()
    g_right: tuple = ()

    def __post_init__(self):
        if self.c_x < 0:
            raise ValueError(f"c_x must be >= 0, got {self.c_x}")
        for name, coef in (("g_left", self.g_left), ("g_right", self.g_right)):
            if len(coef) > 4:
                raise ValueError(f"{name} degree must be <= 3, got degree {len(coef) - 1}")
        object.__setattr__(self, "g_left", tuple(float(c) for c in self.g_left))
        object.__setattr__(self, "g_right", tuple(float(c) for c in self.g_right))

    def replace(self, **kw):
        d = dict(c_x=self.c_x, c_y=self.c_y, alpha=self.alpha,
                 g_left=self.g_left, g_right=self.g_right)
        d.update(kw)
        return ModelParams(**d)


@dataclass(frozen=True)
class EquilibriumBranches:
    """Roots of the one-sided kinetics continuing -1, 0, +1 at alpha = 0."""

    z_minus: float
    z_zero: float
    z_plus: float


def potential_G(x, u, p: ModelParams):
    """Perturbation potential G(x, u) = -integral_0^u g(x, s) ds.

    The base point u = 0 fixes the additive constant; only differences of G
    enter the angle-selection integrals, so the choice is immaterial there.
    """
    x = np.asarray(x, dtype=float)
    Gl = -poly_eval(poly_antiderivative(p.g_left), u)
    Gr = -poly_eval(poly_antiderivative(p.g_right), u)
    out = np.where(x < 0, Gl, Gr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the jump at x = 0 on grids: one discretization shared by every solver
# ---------------------------------------------------------------------------

def origin_index(x):
    """Index of the grid node at x = 0 in the coordinates x, or None."""
    x = np.asarray(x, dtype=float)
    i = int(np.abs(x).argmin())
    return i if abs(x[i]) <= _NODE_TOL else None


def side_average(x, left, right):
    """Sample a quantity that jumps at x = 0 on the grid nodes x.

    left and right are its one-sided values (scalars, or arrays whose last
    axis runs along x).  Nodes off x = 0 take their own side's value; the
    x = 0 node, if the grid has one, takes the mean of the two sides.
    """
    out = np.where(np.asarray(x) < 0, left, right)
    i0 = origin_index(x)
    if i0 is not None:
        out[..., i0] = 0.5 * (np.broadcast_to(left, out.shape)[..., i0]
                              + np.broadcast_to(right, out.shape)[..., i0])
    return out


def interface_correction(u0, ux, p: ModelParams, h, c_x):
    """O(h) consistency correction at the x = 0 node, to subtract there.

    The reaction jump makes u_xx and u_xxx discontinuous there; centered
    stencils applied across the jump pick up h*(jump(u_xxx)/6 + c_x*jump(u_xx)/4),
    which this term removes so the scheme stays second order.  p supplies
    alpha and g; c_x is explicit so the adjoint can pass -c_x.
    """
    a = p.alpha
    dg = poly_eval(p.g_right, u0) - poly_eval(p.g_left, u0)
    dgp = (poly_eval(poly_derivative(p.g_right), u0)
           - poly_eval(poly_derivative(p.g_left), u0))
    jump_uxx = 2.0 * u0 - a * dg
    jump_uxxx = -c_x * jump_uxx + 2.0 * ux - a * dgp * ux
    return h * (jump_uxxx / 6.0 + c_x * jump_uxx / 4.0)


def _kinetics(x, u, p: ModelParams):
    """Pointwise kinetics mu(x) u - u^3 + alpha g(x, u), side-averaged at x = 0."""
    r = side_average(x, 1.0, -1.0) * u - u * u * u
    if p.alpha != 0.0 and (p.g_left or p.g_right):
        r += p.alpha * side_average(x, poly_eval(p.g_left, u),
                                    poly_eval(p.g_right, u))
    return r


def reaction(x, u, p: ModelParams, h):
    """Discrete kinetics mu(x) u - u^3 + alpha g(x, u) on the grid nodes x.

    x runs along the last axis of u, with spacing h.  On the x = 0 node mu
    and g are side-averaged and the jump correction of centered stencils
    (interface_correction, with the centered u_x) is subtracted.
    """
    r = _kinetics(x, u, p)
    i0 = origin_index(x)
    if i0 is not None and 0 < i0 < len(x) - 1:
        ux = (u[..., i0 + 1] - u[..., i0 - 1]) / (2.0 * h)
        r[..., i0] -= interface_correction(u[..., i0], ux, p, h, p.c_x)
    return r


def reaction_derivative(x, u, p: ModelParams):
    """Pointwise d/du of the kinetics, q = mu - 3 u^2 + alpha g'(u), sampled
    like reaction; the jump correction's part is in reaction_jacobian."""
    return _kinetics(x, u + 1j * _STEP, p).imag / _STEP


def reaction_jacobian(x, u, p: ModelParams, h):
    """Exact derivative of reaction as diagonals (sub, main, sup) along x.

    d reaction[..., i] / d u[..., i] is main[..., i], d / d u[..., i - 1] is
    sub[..., i - 1] and d / d u[..., i + 1] is sup[..., i], each by complex
    step.  A step of every node leaves the centered u_x unchanged, so it
    gives main, the x = 0 node's jump correction included.  The neighbours
    enter that correction through u_x alone, so sub = -sup there (the
    steady solve's matvec relies on it); sup is one step of the right
    neighbour, and both vanish off x = 0.
    """
    main = reaction(x, u + 1j * _STEP, p, h).imag / _STEP
    sub = np.zeros(main.shape[:-1] + (main.shape[-1] - 1,))
    sup = np.zeros_like(sub)
    i0 = origin_index(x)
    if i0 is not None and 0 < i0 < len(x) - 1:
        near = u[..., i0 - 1:i0 + 2] + np.array([0.0, 0.0, 1j * _STEP])
        sup[..., i0] = reaction(x[i0 - 1:i0 + 2], near, p, h)[..., 1].imag / _STEP
        sub[..., i0 - 1] = -sup[..., i0]
    return sub, main, sup


def transport_1d(n: int, h: float, c: float):
    """Diagonals (sub, main, sup) of the centered d2/ds2 + c d/ds on n nodes
    of spacing h: 1/h^2 -+ c/(2h) off the diagonal, -2/h^2 on it."""
    lap, d1 = 1.0 / h**2, 1.0 / (2.0 * h)
    return (np.full(n - 1, lap - c * d1), np.full(n, -2.0 / h**2),
            np.full(n - 1, lap + c * d1))


def stable_zeros(p: ModelParams) -> EquilibriumBranches:
    """Equilibrium branches z_-(alpha) < z_0(alpha) < z_+(alpha) at p.alpha.

    z_+- are the zeros of the bistable kinetics u - u^3 + alpha*g_l(u)
    continuing +-1 and z_0 is the zero of the monostable -u - u^3 +
    alpha*g_r(u) continuing 0: one Newton iteration on the model's reaction
    at one-sided coordinates, with no node at x = 0 (so h does not enter).
    Raises NoConvergence when Newton fails or the branches approach a fold.
    """
    sides, z = np.array([-1.0, 1.0, -1.0]), np.array([-1.0, 0.0, 1.0])
    for _ in range(80):
        f = reaction(sides, z, p, 1.0)
        moving = ~(np.abs(f) < _ZERO_TOL)  # a converged branch stops moving
        d = reaction_derivative(sides, z, p)[moving]
        if not moving.any() or (d == 0.0).any():
            break
        z[moving] -= f[moving] / d
    if moving.any():
        raise NoConvergence(f"root iteration from (-1, 0, 1) stalled at residual "
                            f"{np.abs(f).max():.3e}")
    z_minus, z_zero, z_plus = (float(v) for v in z)
    if not (z_minus < z_zero < z_plus):
        raise NoConvergence(
            f"branches out of order: {z_minus:.4f}, {z_zero:.4f}, {z_plus:.4f}")
    if z_plus - z_zero < FOLD_SEPARATION or z_zero - z_minus < FOLD_SEPARATION:
        raise NoConvergence(
            f"branch separation below {FOLD_SEPARATION}: alpha={p.alpha} is outside "
            "the perturbative regime")
    return EquilibriumBranches(z_minus=z_minus, z_zero=z_zero, z_plus=z_plus)
