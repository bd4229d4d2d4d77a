"""One-dimensional farfield building blocks.

Solves the quenched fronts connecting the bistable branches to the right
equilibrium, the planar bistable traveling wave with its selected normal
speed, the perturbation-series slope of that speed, and the geometric
relation between normal speed, frame speed, and interface angle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (AngleOutOfRange, DomainTooSmall, LinearSolveFailure,
                     NoConvergence, OutOfProfileRange)
from .model import (ModelParams, origin_index, poly_eval, reaction,
                    reaction_jacobian, stable_zeros, transport_1d)
from .textio import write_entries

SQRT2 = np.sqrt(2.0)

#: endpoint-gradient threshold used to detect undersized truncation domains
TRUNCATION_GRADIENT_TOL = 1e-5

#: max-norm residual target and iteration budget of the 1D Newton solves
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50

#: a profile extends beyond its grid only where its end value lies this
#: close to its limit
TAIL_TOL = 1e-6


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


@dataclass
class Profile1D:
    """A 1D front profile with asymptotic limits and solve metadata."""

    grid: Grid1D
    values: np.ndarray
    limit_left: float
    limit_right: float
    residual_norm: float
    kind: str

    def values_at(self, x):
        """Linear interpolation between the nodes; beyond the grid, converged
        tails extend by their limits."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.grid.x_min, self.grid.x_max
        if (x < lo).any() and abs(self.values[0] - self.limit_left) > TAIL_TOL:
            raise OutOfProfileRange(
                f"x < {lo} requested but the left tail has not converged")
        if (x > hi).any() and abs(self.values[-1] - self.limit_right) > TAIL_TOL:
            raise OutOfProfileRange(
                f"x > {hi} requested but the right tail has not converged")
        out = np.interp(x, self.grid.nodes(), self.values,
                        left=self.limit_left, right=self.limit_right)
        return out if out.ndim else float(out)


@dataclass
class WaveSolution:
    """Traveling-wave profile together with its speed."""

    profile: Profile1D
    speed: float


def _newton_system(transport, coord, u, p: ModelParams, h):
    """Residual and Newton matrix of the 1D equation at u.

    The residual is the transport diagonals applied to u plus the kinetics
    reaction(coord, ...) on the interior nodes, 0 on the Dirichlet end rows;
    the Newton matrix is those diagonals plus reaction_jacobian, with
    identity end rows.
    """
    lower, diag, upper = transport
    r = np.zeros_like(u)
    r[1:-1] = (lower[:-1] * u[:-2] + diag[1:-1] * u[1:-1] + upper[1:] * u[2:]
               + reaction(coord, u, p, h)[1:-1])
    lower, diag, upper = map(np.add, transport, reaction_jacobian(coord, u, p, h))
    diag[0] = diag[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    return r, (lower, diag, upper)


def _tridiag_solve(lower, diag, upper, rhs):
    """x with (lower, diag, upper) x = rhs, for one or several columns."""
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info:
        raise LinearSolveFailure(f"singular tridiagonal matrix (dgtsv info {info})")
    return x


def solve_quench_front(side: str, p: ModelParams, grid: Grid1D) -> Profile1D:
    """Front across the quenching jump: u'' + c_x u' + mu(x) u - u^3 + a g = 0.

    side="top" connects z_+(alpha) at -inf to z_0(alpha) at +inf and is
    strictly decreasing; side="bottom" connects z_-(alpha), increasing.
    Dirichlet truncation with the branch values; damped Newton.
    """
    if side not in ("top", "bottom"):
        raise ValueError(f"side must be 'top' or 'bottom', got {side!r}")
    x = grid.nodes()
    h = grid.h
    grid.index_of_origin()  # raises unless the jump at x = 0 is on a node
    branches = stable_zeros(p)
    left_val = branches.z_plus if side == "top" else branches.z_minus
    right_val = branches.z_zero
    transport = transport_1d(grid.n, h, p.c_x)
    mid = 0.5 * (left_val + right_val)
    amp = 0.5 * (left_val - right_val)
    u = mid + amp * np.tanh(-x / 2.0)
    u[0], u[-1] = left_val, right_val

    r, matrix = _newton_system(transport, x, u, p, h)
    for _ in range(NEWTON_MAX_ITER):
        rn = np.abs(r).max()
        if rn < NEWTON_TOL:
            break
        du = _tridiag_solve(*matrix, -r)
        step = 1.0
        for _ in range(50):
            trial = u + step * du
            r, matrix = _newton_system(transport, x, trial, p, h)
            if np.abs(r).max() < rn:
                u = trial
                break
            step *= 0.5
        else:
            raise NoConvergence("quench-front line search stalled")
    else:
        raise NoConvergence(f"quench front did not reach tol={NEWTON_TOL}")

    grad = max(abs(u[1] - u[0]), abs(u[-1] - u[-2])) / h
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


def solve_traveling_wave(p: ModelParams, grid: Grid1D) -> WaveSolution:
    """Planar bistable front z'' + c z' + z - z^3 + alpha g_l(z) = 0.

    The wave speed is an unknown, determined together with the profile by a
    bordered Newton iteration under the phase condition z(0) = 0, which puts
    the wave's zero, the farfield's nodal line, on the origin node; the
    result is the selected normal speed.  The medium is bistable on the
    whole line, so the model's kinetics are taken at a coordinate x < 0.
    """
    x = grid.nodes()
    h = grid.h
    bistable = np.full(grid.n, -1.0)
    i0 = grid.index_of_origin()
    try:
        branches = stable_zeros(p)
    except NoConvergence as exc:
        raise NoConvergence(f"bistable branches unavailable: {exc}") from exc
    z_minus, z_plus = branches.z_minus, branches.z_plus
    mid = 0.5 * (z_plus + z_minus)
    c = 0.0
    z = mid + 0.5 * (z_plus - z_minus) * np.tanh(x / SQRT2)
    z[0], z[-1] = z_minus, z_plus

    for _ in range(NEWTON_MAX_ITER):
        r, matrix = _newton_system(transport_1d(grid.n, h, c), bistable, z, p, h)
        phase = z[i0]
        rn = max(np.abs(r).max(), abs(phase))
        if rn < NEWTON_TOL:
            break
        # bordered elimination: zcol is the speed column of the Jacobian
        zcol = np.zeros_like(z)
        zcol[1:-1] = (z[2:] - z[:-2]) / (2.0 * h)
        pvec, qvec = _tridiag_solve(*matrix, np.column_stack((-r, zcol))).T
        denom = qvec[i0]
        if abs(denom) < 1e-14:
            raise NoConvergence("phase condition degenerate")
        dc = (pvec[i0] + phase) / denom
        dz = pvec - dc * qvec
        c += dc
        z = z + dz
    else:
        raise NoConvergence(f"traveling wave did not reach tol={NEWTON_TOL}")

    profile = Profile1D(grid=grid, values=z, limit_left=z_minus,
                        limit_right=z_plus, residual_norm=rn, kind="traveling_wave")
    return WaveSolution(profile=profile, speed=c)


def cn_prime_quadrature(g_left):
    """Slope of the normal speed at alpha = 0 from the balanced front, and an
    error estimate.

    Evaluates -int g_l(u*) u*' dy / int (u*')^2 dy with u* = tanh(y/sqrt 2)
    by the trapezoid rule on |y| <= 40 with spacing 1/8.  Both integrands
    are analytic and decay like exp(-2*sqrt(2)|y|), so the rule converges
    geometrically and the truncation is negligible; the estimate is the
    change from the rule at spacing 1/4.
    """
    us = np.tanh(np.linspace(-40.0, 40.0, 641) / SQRT2)
    up = (1.0 - us**2) / SQRT2
    num, den = poly_eval(g_left, us) * up, up**2
    # the spacing cancels in the ratio
    fine = -np.trapezoid(num) / np.trapezoid(den)
    coarse = -np.trapezoid(num[::2]) / np.trapezoid(den[::2])
    return float(fine), float(abs(fine - coarse))


def frame_speed(psi: float, cn: float, c_x: float) -> float:
    """Vertical frame speed c_y = c_n/cos(psi) - c_x tan(psi) of an interface
    at angle psi whose normal speed is c_n."""
    if not abs(psi) < np.pi / 2:
        raise AngleOutOfRange(f"interface angle {psi:.6g} needs |psi| < pi/2")
    return cn / np.cos(psi) - c_x * np.tan(psi)


def angle_from_speed(c_y: float, cn: float, c_x: float) -> float:
    """Inverse of frame_speed: the psi with c_y cos(psi) + c_x sin(psi) = c_n,
    psi = arcsin(c_n / r) - atan2(c_y, c_x) with r = hypot(c_x, c_y); odd in
    c_y when c_n = 0."""
    r = np.hypot(c_x, c_y)
    if not abs(cn) <= r:
        raise AngleOutOfRange(f"normal speed {cn:.6g} exceeds frame speed {r:.6g}")
    return float(np.arcsin(cn / r) - np.arctan2(c_y, c_x))


def export_profile(profile: Profile1D, base_path: str, p: ModelParams):
    """Write a two-column CSV (x, u) and a key=value sidecar next to it."""
    x = profile.grid.nodes()
    with open(base_path + ".csv", "w") as fh:
        fh.write("x,u\n")
        for xi, ui in zip(x, profile.values):
            fh.write(f"{xi:.17g},{ui:.17g}\n")
    meta = {"kind": profile.kind,
            "residual_norm": f"{profile.residual_norm:.3e}",
            "limit_left": f"{profile.limit_left:.17g}",
            "limit_right": f"{profile.limit_right:.17g}",
            "alpha": f"{p.alpha:.17g}", "c_x": f"{p.c_x:.17g}"}
    write_entries(base_path + ".meta", meta)
