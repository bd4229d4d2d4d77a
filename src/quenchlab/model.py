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


def poly_eval(coef, u):
    """Evaluate a polynomial with ascending coefficients at u (Horner)."""
    out = np.zeros_like(np.asarray(u, dtype=float))
    for c in reversed(coef):
        out = out * u + c
    return out if out.ndim else float(out)


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
    alpha: float


def mu(x):
    """Bistability switch: +1 for x < 0, -1 for x > 0; mu(0) = -1 (right-continuous)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0, 1.0, -1.0)
    return out if out.ndim else float(out)


def g_of(x, u, p: ModelParams):
    """Piecewise perturbation g(x, u): g_l for x < 0, g_r for x >= 0."""
    x = np.asarray(x, dtype=float)
    gl = poly_eval(p.g_left, u)
    gr = poly_eval(p.g_right, u)
    out = np.where(x < 0, gl, gr)
    return out if out.ndim else float(out)


def reaction(x, u, p: ModelParams):
    """Reaction term mu(x)*u - u^3 + alpha*g(x, u)."""
    base = mu(x) * u - np.asarray(u, dtype=float) ** 3
    out = base + p.alpha * g_of(x, u, p)
    return out if np.ndim(out) else float(out)


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


def interface_correction_jac(u0, ux, p: ModelParams, h, c_x):
    """d(correction)/d(u0), and the prefactor of d/d(ux)."""
    a = p.alpha
    dgp = (poly_eval(poly_derivative(p.g_right), u0)
           - poly_eval(poly_derivative(p.g_left), u0))
    dgpp = (poly_eval(poly_derivative(poly_derivative(p.g_right)), u0)
            - poly_eval(poly_derivative(poly_derivative(p.g_left)), u0))
    d_jump_uxx = 2.0 - a * dgp
    d_du0 = h * ((-c_x * d_jump_uxx - a * dgpp * ux) / 6.0 + c_x * d_jump_uxx / 4.0)
    d_dux = h * (2.0 - a * dgp) / 6.0
    return d_du0, d_dux


def _newton_scalar(f, fp, x0, tol=_ZERO_TOL, max_iter=80):
    x = float(x0)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) < tol:
            return x
        d = fp(x)
        if d == 0.0:
            break
        x -= fx / d
    raise NoConvergence(f"root iteration from {x0} stalled at residual {f(x):.3e}")


def stable_zeros(p: ModelParams) -> EquilibriumBranches:
    """Equilibrium branches z_-(alpha) < z_0(alpha) < z_+(alpha) at p.alpha.

    z_+- are the zeros of u - u^3 + alpha*g_l(u) continuing +-1 and z_0 is
    the zero of -u - u^3 + alpha*g_r(u) continuing 0.  Raises NoConvergence
    when Newton fails or the branches approach a fold.
    """
    alpha = p.alpha
    gl, gr = p.g_left, p.g_right
    glp, grp = poly_derivative(gl), poly_derivative(gr)

    def f_l(u):
        return u - u**3 + alpha * poly_eval(gl, u)

    def fp_l(u):
        return 1.0 - 3.0 * u**2 + alpha * poly_eval(glp, u)

    def f_r(u):
        return -u - u**3 + alpha * poly_eval(gr, u)

    def fp_r(u):
        return -1.0 - 3.0 * u**2 + alpha * poly_eval(grp, u)

    z_plus = _newton_scalar(f_l, fp_l, 1.0)
    z_minus = _newton_scalar(f_l, fp_l, -1.0)
    z_zero = _newton_scalar(f_r, fp_r, 0.0)
    if not (z_minus < z_zero < z_plus):
        raise NoConvergence(
            f"branches out of order: {z_minus:.4f}, {z_zero:.4f}, {z_plus:.4f}")
    if z_plus - z_zero < FOLD_SEPARATION or z_zero - z_minus < FOLD_SEPARATION:
        raise NoConvergence(
            f"branch separation below {FOLD_SEPARATION}: alpha={alpha} is outside "
            "the perturbative regime")
    return EquilibriumBranches(z_minus=z_minus, z_zero=z_zero, z_plus=z_plus, alpha=alpha)
