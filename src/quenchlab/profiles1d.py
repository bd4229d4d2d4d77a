"""One-dimensional farfield building blocks.

Solves the quenched fronts connecting the bistable branches to the right
equilibrium, the planar bistable traveling wave with its selected normal
speed, the perturbation-series slope of that speed, and the geometric
relation between normal speed, frame speed, and interface angle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .errors import DomainTooSmall, NoConvergence, OutOfProfileRange
from .model import (ModelParams, interface_correction, interface_correction_jac,
                    origin_index, poly_derivative, poly_eval, side_average,
                    stable_zeros)
from .textio import write_entries

SQRT2 = np.sqrt(2.0)

#: endpoint-gradient threshold used to detect undersized truncation domains
TRUNCATION_GRADIENT_TOL = 1e-5

#: max-norm residual target and iteration budget of the 1D Newton solves
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [x_min, x_max] with n nodes."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3 or not self.x_max > self.x_min:
            raise ValueError("need x_max > x_min and n >= 3")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)

    def index_of_origin(self) -> int:
        """Index of the node at x = 0; raises if 0 is not a node."""
        i = origin_index(self.nodes())
        if i is None:
            raise ValueError("grid does not contain x = 0 as a node")
        return i

    @classmethod
    def symmetric(cls, half_width: float, h: float) -> "Grid1D":
        """Grid on [-L, L] with spacing h, guaranteed to contain x = 0."""
        m = int(round(half_width / h))
        return cls(-m * h, m * h, 2 * m + 1)


DEFAULT_GRID = Grid1D.symmetric(30.0, 0.025)


@dataclass
class Profile1D:
    """A 1D front profile with asymptotic limits and solve metadata."""

    grid: Grid1D
    values: np.ndarray
    limit_left: float
    limit_right: float
    residual_norm: float
    kind: str

    _spline: object = field(default=None, repr=False, compare=False)

    def __call__(self, x):
        return self.values_at(x)

    def values_at(self, x, tail_tol: float = 1e-6):
        """Cubic interpolation; beyond the grid, converged tails extend by their limits."""
        if self._spline is None:
            self._spline = CubicSpline(self.grid.nodes(), self.values)
        x = np.asarray(x, dtype=float)
        lo, hi = self.grid.x_min, self.grid.x_max
        below, above = x < lo, x > hi
        if below.any() and abs(self.values[0] - self.limit_left) > tail_tol:
            raise OutOfProfileRange(
                f"x < {lo} requested but the left tail has not converged")
        if above.any() and abs(self.values[-1] - self.limit_right) > tail_tol:
            raise OutOfProfileRange(
                f"x > {hi} requested but the right tail has not converged")
        out = self._spline(np.clip(x, lo, hi))
        out = np.where(below, self.limit_left, out)
        out = np.where(above, self.limit_right, out)
        return out if out.ndim else float(out)


@dataclass
class WaveSolution:
    """Traveling-wave profile together with its speed."""

    profile: Profile1D
    speed: float
    alpha: float


def analytic_tanh_profile(grid: Grid1D) -> Profile1D:
    """The balanced front tanh(x/sqrt(2)) as a Profile1D reference."""
    vals = np.tanh(grid.nodes() / SQRT2)
    return Profile1D(grid=grid, values=vals, limit_left=-1.0, limit_right=1.0,
                     residual_norm=0.0, kind="analytic_tanh")


def _tridiag_solve(lower, diag, upper, rhs):
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def solve_quench_front(side: str, p: ModelParams,
                       grid: Grid1D = DEFAULT_GRID) -> Profile1D:
    """Front across the quenching jump: u'' + c_x u' + mu(x) u - u^3 + a g = 0.

    side="top" connects z_+(alpha) at -inf to z_0(alpha) at +inf and is
    strictly decreasing; side="bottom" connects z_-(alpha), increasing.
    Dirichlet truncation with the branch values; damped Newton.
    """
    if side not in ("top", "bottom"):
        raise ValueError(f"side must be 'top' or 'bottom', got {side!r}")
    x = grid.nodes()
    h = grid.h
    i0 = grid.index_of_origin()
    branches = stable_zeros(p)
    left_val = branches.z_plus if side == "top" else branches.z_minus
    right_val = branches.z_zero
    a = p.alpha

    mu_bar = side_average(x, 1.0, -1.0)
    gl, gr = p.g_left, p.g_right
    glp, grp = poly_derivative(gl), poly_derivative(gr)

    def residual(u):
        r = np.zeros_like(u)
        r[1:-1] = ((u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
                   + p.c_x * (u[2:] - u[:-2]) / (2.0 * h)
                   + mu_bar[1:-1] * u[1:-1] - u[1:-1]**3
                   + a * side_average(x, poly_eval(gl, u), poly_eval(gr, u))[1:-1])
        ux = (u[i0 + 1] - u[i0 - 1]) / (2.0 * h)
        r[i0] -= interface_correction(u[i0], ux, p, h, p.c_x)
        return r

    def newton_matrix(u):
        lower = np.full(grid.n - 1, 1.0 / h**2 - p.c_x / (2.0 * h))
        upper = np.full(grid.n - 1, 1.0 / h**2 + p.c_x / (2.0 * h))
        diag = (-2.0 / h**2 + mu_bar - 3.0 * u**2
                + a * side_average(x, poly_eval(glp, u), poly_eval(grp, u)))
        ux = (u[i0 + 1] - u[i0 - 1]) / (2.0 * h)
        d_du0, d_dux = interface_correction_jac(u[i0], ux, p, h, p.c_x)
        diag[i0] -= d_du0
        upper[i0] -= d_dux / (2.0 * h)
        lower[i0 - 1] += d_dux / (2.0 * h)
        # Dirichlet rows
        diag[0] = diag[-1] = 1.0
        upper[0] = 0.0
        lower[-1] = 0.0
        return lower, diag, upper

    mid = 0.5 * (left_val + right_val)
    amp = 0.5 * (left_val - right_val)
    u = mid + amp * np.tanh(-x / 2.0)
    u[0], u[-1] = left_val, right_val

    def masked_norm(r):
        return max(abs(r[1:-1]).max(), 0.0)

    for _ in range(NEWTON_MAX_ITER):
        r = residual(u)
        rn = masked_norm(r)
        if rn < NEWTON_TOL:
            break
        lower, diag, upper = newton_matrix(u)
        rhs = -r
        rhs[0] = rhs[-1] = 0.0
        du = _tridiag_solve(lower, diag, upper, rhs)
        step = 1.0
        for _ in range(50):
            trial = u + step * du
            if masked_norm(residual(trial)) < rn:
                u = trial
                break
            step *= 0.5
        else:
            raise NoConvergence("quench-front line search stalled")
    else:
        raise NoConvergence(f"quench front did not reach tol={NEWTON_TOL}")

    for end in (0, -1):
        grad = abs(u[end + 1] - u[end]) / h if end == 0 else abs(u[end] - u[end - 1]) / h
        if grad > TRUNCATION_GRADIENT_TOL:
            raise DomainTooSmall(
                f"endpoint gradient {grad:.2e} exceeds {TRUNCATION_GRADIENT_TOL}")
    # strict monotonicity, up to rounding ties in the saturated tails
    diffs = np.diff(u)
    if side == "top" and not np.all(diffs < 1e-12):
        raise NoConvergence("top front is not strictly decreasing")
    if side == "bottom" and not np.all(diffs > -1e-12):
        raise NoConvergence("bottom front is not strictly increasing")

    return Profile1D(grid=grid, values=u, limit_left=left_val,
                     limit_right=right_val, residual_norm=rn, kind=side)


def solve_traveling_wave(p: ModelParams,
                         grid: Grid1D = DEFAULT_GRID) -> WaveSolution:
    """Planar bistable front z'' + c z' + z - z^3 + alpha g_l(z) = 0.

    The wave speed is an unknown, determined together with the profile by a
    bordered Newton iteration under the phase condition z(0) = (z_+ + z_-)/2;
    the result is the selected normal speed.
    """
    x = grid.nodes()
    h = grid.h
    i_mid = grid.index_of_origin()
    try:
        branches = stable_zeros(p)
    except NoConvergence as exc:
        raise NoConvergence(f"bistable branches unavailable: {exc}") from exc
    z_minus, z_plus = branches.z_minus, branches.z_plus
    mid = 0.5 * (z_plus + z_minus)
    a = p.alpha
    gl = p.g_left
    glp = poly_derivative(gl)
    c = 0.0

    def residual(z, c):
        r = np.zeros_like(z)
        r[1:-1] = ((z[:-2] - 2.0 * z[1:-1] + z[2:]) / h**2
                   + c * (z[2:] - z[:-2]) / (2.0 * h)
                   + z[1:-1] - z[1:-1]**3 + a * poly_eval(gl, z[1:-1]))
        return r

    z = mid + 0.5 * (z_plus - z_minus) * np.tanh(x / SQRT2)
    z[0], z[-1] = z_minus, z_plus

    for _ in range(NEWTON_MAX_ITER):
        r = residual(z, c)
        phase = z[i_mid] - mid
        rn = max(abs(r[1:-1]).max(), abs(phase))
        if rn < NEWTON_TOL:
            break
        lower = np.full(grid.n - 1, 1.0 / h**2 - c / (2.0 * h))
        upper = np.full(grid.n - 1, 1.0 / h**2 + c / (2.0 * h))
        diag = -2.0 / h**2 + 1.0 - 3.0 * z**2 + a * poly_eval(glp, z)
        diag[0] = diag[-1] = 1.0
        upper[0] = 0.0
        lower[-1] = 0.0
        rhs = -r
        rhs[0] = rhs[-1] = 0.0
        # bordered elimination: zcol is the speed column of the Jacobian
        zcol = np.zeros_like(z)
        zcol[1:-1] = (z[2:] - z[:-2]) / (2.0 * h)
        pvec = _tridiag_solve(lower, diag, upper, rhs)
        qvec = _tridiag_solve(lower, diag, upper, zcol)
        denom = qvec[i_mid]
        if abs(denom) < 1e-14:
            raise NoConvergence("phase condition degenerate")
        dc = (pvec[i_mid] + phase) / denom
        dz = pvec - dc * qvec
        c += dc
        z = z + dz
    else:
        raise NoConvergence(f"traveling wave did not reach tol={NEWTON_TOL}")

    profile = Profile1D(grid=grid, values=z, limit_left=z_minus,
                        limit_right=z_plus, residual_norm=rn, kind="traveling_wave")
    return WaveSolution(profile=profile, speed=c, alpha=p.alpha)


_cn_cache: dict = {}


def normal_speed(p: ModelParams, grid: Grid1D = DEFAULT_GRID) -> float:
    """Selected normal speed c_n(alpha) of the bistable front (cached)."""
    key = (round(p.alpha, 14), p.g_left, grid.x_min, grid.x_max, grid.n)
    if key not in _cn_cache:
        _cn_cache[key] = solve_traveling_wave(p, grid).speed
    return _cn_cache[key]


def cn_prime_quadrature(g_left, half_width: float = 40.0, panels: int = 160) -> float:
    """Slope of the normal speed at alpha = 0 from the balanced front.

    Evaluates -int g_l(u*) u*' dy / int (u*')^2 dy with u* = tanh(y/sqrt 2)
    by composite Gauss-Legendre quadrature; both integrands decay like
    exp(-2*sqrt(2)|y|), so |y| <= 40 truncates far below 1e-10.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-half_width, half_width, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    y = (mids[:, None] + half * nodes[None, :]).ravel()
    w = np.tile(half * weights, panels)
    us = np.tanh(y / SQRT2)
    up = (1.0 - us**2) / SQRT2
    num = np.sum(w * poly_eval(g_left, us) * up)
    den = np.sum(w * up**2)
    return -num / den


def cy_from_angle(psi: float, p: ModelParams,
                  grid: Grid1D = DEFAULT_GRID) -> float:
    """Vertical frame speed c_y = c_n(alpha)/cos(psi) - c_x tan(psi)."""
    if not abs(psi) < np.pi / 2:
        raise ValueError("need |psi| < pi/2")
    cn = normal_speed(p, grid)
    return cn / np.cos(psi) - p.c_x * np.tan(psi)


def export_profile(profile: Profile1D, base_path: str, p: ModelParams | None = None):
    """Write a two-column CSV (x, u) and a key=value sidecar next to it."""
    x = profile.grid.nodes()
    with open(base_path + ".csv", "w") as fh:
        fh.write("x,u\n")
        for xi, ui in zip(x, profile.values):
            fh.write(f"{xi:.17g},{ui:.17g}\n")
    meta = {"kind": profile.kind,
            "residual_norm": f"{profile.residual_norm:.3e}",
            "limit_left": f"{profile.limit_left:.17g}",
            "limit_right": f"{profile.limit_right:.17g}"}
    if p is not None:
        meta.update(alpha=f"{p.alpha:.17g}", c_x=f"{p.c_x:.17g}")
    write_entries(base_path + ".meta", meta)
