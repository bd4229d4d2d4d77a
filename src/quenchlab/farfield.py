"""Farfield gluing and the bordered angle solver.

A partition of unity with four 90-degree sectors glues the 1D building
blocks into a farfield approximation whose left sector encodes a nodal
line of prescribed slope.  A shear transform straightens that sector so
the oblique wave becomes x-independent far to the left; the equation in
sheared coordinates, with the geometric frame speed substituted, defines
a residual in the pair (core correction w, angle psi) that a weighted
Gauss-Newton iteration drives to zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from .errors import IllConditioned, NotConverged
from .model import (ModelParams, interface_correction, interface_correction_jac,
                    origin_index, poly_derivative, poly_eval, side_average,
                    stable_zeros)
from .profiles1d import (Grid1D, Profile1D, WaveSolution, solve_quench_front,
                         solve_traveling_wave)
from .textio import write_entries
from .quench2d import Field2D, solve_theta


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def smoothstep_quintic(t):
    """C^2 ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep7(t):
    t = np.clip(t, 0.0, 1.0)
    return t**4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def _smoothstep7_d1(t):
    tc = np.clip(t, 0.0, 1.0)
    return tc**3 * (140.0 + tc * (-420.0 + tc * (420.0 - 140.0 * tc)))


def _smoothstep7_d2(t):
    tc = np.clip(t, 0.0, 1.0)
    return tc**2 * (420.0 + tc * (-1680.0 + tc * (2100.0 - 840.0 * tc)))


def shear_cutoff(x):
    """chi^-: 1 for x < -2, 0 for x > -1.

    Realized as a degree-7 (C^3) ramp: the sheared stencils differentiate
    x*chi^- twice, and a C^3 cutoff keeps those terms second-order accurate.
    """
    return _smoothstep7(-1.0 - np.asarray(x, dtype=float))


def shear_cutoff_d1(x):
    return -_smoothstep7_d1(-1.0 - np.asarray(x, dtype=float))


def shear_cutoff_d2(x):
    return _smoothstep7_d2(-1.0 - np.asarray(x, dtype=float))


def shear_profile_d1(x):
    """d/dx of S(x) = x*chi^-(x)."""
    x = np.asarray(x, dtype=float)
    return shear_cutoff(x) + x * shear_cutoff_d1(x)


def shear_profile_d2(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * shear_cutoff_d1(x) + x * shear_cutoff_d2(x)


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """Core radius of the farfield partition; window ramps are fixed quintic."""

    R: float = 12.0

    def __post_init__(self):
        if self.R <= 2.0:
            raise ValueError("core radius R must exceed 2")


_SECTOR_LO = np.pi / 4
_SECTOR_HI = 3 * np.pi / 4
_SECTOR_PAD = 0.1


def _window_angular(theta):
    """2pi-periodic sector window: 1 on (pi/4+0.1, 3pi/4-0.1), 0 outside
    (pi/4-0.1, 3pi/4+0.1); the four 90-degree shifts sum to one."""
    ph = np.mod(theta, 2.0 * np.pi)
    up = smoothstep_quintic((ph - (_SECTOR_LO - _SECTOR_PAD)) / (2.0 * _SECTOR_PAD))
    down = smoothstep_quintic((_SECTOR_HI + _SECTOR_PAD - ph) / (2.0 * _SECTOR_PAD))
    return np.minimum(up, down)


def _window_radial(r, R):
    return smoothstep_quintic(r - (R - 1.0))


def partition_of_unity(spec: PartitionSpec, x, y):
    """Evaluate (chi_t, chi_r, chi_b, chi_l, chi_0) at the given points.

    Sector angles follow the polar convention (x, y) = (-r cos t, r sin t),
    so the left farfield sits at polar angle 0 and the right at pi.  chi_0
    is one minus the four farfield windows, hence the sum is exactly one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    theta = np.arctan2(y, -x)
    cr = _window_radial(r, spec.R)
    chi_t = cr * _window_angular(theta)
    chi_r = cr * _window_angular(theta - np.pi / 2)
    chi_b = cr * _window_angular(theta - np.pi)
    chi_l = cr * _window_angular(theta - 3 * np.pi / 2)
    chi_0 = 1.0 - (chi_t + chi_r + chi_b + chi_l)
    return chi_t, chi_r, chi_b, chi_l, chi_0


def partition_derivative_bound(spec: PartitionSpec, k: int,
                               r_min: float | None = None,
                               r_max: float | None = None) -> float:
    """max over samples of |d^k chi_j| (1+r)^k for all order-k derivatives.

    Zero-homogeneity of the windows in the farfield makes this bounded
    independently of r; 48 radii cover [r_min, r_max] (defaults: the
    radial ramp up to 10 R) and 1440 angles each, and derivatives are
    centered differences with step 1e-3.
    """
    if k not in (0, 1, 2):
        raise ValueError("derivative order k must be 0, 1, or 2")
    r_lo = spec.R - 1.5 if r_min is None else r_min
    r_hi = 10.0 * spec.R if r_max is None else r_max
    radii = np.linspace(r_lo, r_hi, 48)
    angles = np.linspace(0.0, 2.0 * np.pi, 1440, endpoint=False)
    rr, tt = np.meshgrid(radii, angles)
    x = (-rr * np.cos(tt)).ravel()
    y = (rr * np.sin(tt)).ravel()

    def stack(xx, yy):
        return np.stack(partition_of_unity(spec, xx, yy)[:4])

    if k == 0:
        return float(np.abs(stack(x, y)).max())
    d = 1e-3
    if k == 1:
        gx = (stack(x + d, y) - stack(x - d, y)) / (2 * d)
        gy = (stack(x, y + d) - stack(x, y - d)) / (2 * d)
        grad = np.maximum(np.abs(gx), np.abs(gy))
        scale = (1.0 + np.hypot(x, y))[None, :]
        return float((grad * scale).max())
    c = stack(x, y)
    gxx = (stack(x + d, y) - 2 * c + stack(x - d, y)) / d**2
    gyy = (stack(x, y + d) - 2 * c + stack(x, y - d)) / d**2
    gxy = (stack(x + d, y + d) - stack(x + d, y - d)
           - stack(x - d, y + d) + stack(x - d, y - d)) / (4 * d**2)
    hess = np.maximum(np.maximum(np.abs(gxx), np.abs(gyy)), np.abs(gxy))
    scale = ((1.0 + np.hypot(x, y)) ** 2)[None, :]
    return float((hess * scale).max())


# ---------------------------------------------------------------------------
# shear transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearSpec:
    """Shear angle; the cutoff chi^- (1 for x<-2, 0 for x>-1) is fixed."""

    psi: float

    def __post_init__(self):
        if not abs(self.psi) < np.pi / 2:
            raise ValueError("need |psi| < pi/2")


def shear_map(x, y, spec: ShearSpec):
    """(x, y) -> (x, y + x chi^-(x) tan psi); identity for x > -1 or psi = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y + x * shear_cutoff(x) * np.tan(spec.psi)


def shear_inverse(xt, yt, spec: ShearSpec):
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    return xt, yt - xt * shear_cutoff(xt) * np.tan(spec.psi)


# ---------------------------------------------------------------------------
# farfield ansatz
# ---------------------------------------------------------------------------

@dataclass
class FarfieldProfiles:
    """The four farfield blocks at one alpha: fronts, oblique wave, constant."""

    p: ModelParams
    top: Profile1D
    bottom: Profile1D
    wave: WaveSolution
    z_zero: float
    wave_offset: float

    @property
    def cn(self) -> float:
        return self.wave.speed

    def wave_at(self, s):
        """Oblique-wave profile recentered so its zero crossing sits at s = 0."""
        return self.wave.profile.values_at(np.asarray(s) + self.wave_offset)

    def c_y(self, psi: float) -> float:
        return self.cn / np.cos(psi) - self.p.c_x * np.tan(psi)


def build_profiles(p: ModelParams, front_grid: Grid1D,
                   wave_grid: Grid1D) -> FarfieldProfiles:
    """Solve the 1D blocks for an ansatz on the given grids.

    Sampling the fronts on the same grid columns as the 2D field makes the
    ansatz residual vanish to solver tolerance in the pure top/bottom/right
    regions; the wave grid usually extends further to cover oblique
    arguments.
    """
    top = solve_quench_front("top", p, front_grid)
    bottom = solve_quench_front("bottom", p, front_grid)
    wave = solve_traveling_wave(p, wave_grid)
    prof = wave.profile
    xs = prof.grid.nodes()
    offset = brentq(lambda s: float(prof.values_at(s)), xs[0] / 2, xs[-1] / 2)
    if abs(offset) < 1e-9:
        offset = 0.0
    z_zero = stable_zeros(p).z_zero
    return FarfieldProfiles(p=p, top=top, bottom=bottom, wave=wave,
                            z_zero=z_zero, wave_offset=offset)


def farfield_ansatz(x, y, psi: float, profiles: FarfieldProfiles,
                    spec: PartitionSpec):
    """Glued farfield approximation in the original (unsheared) coordinates.

    The left block is the oblique wave evaluated at sin(psi) x + cos(psi) y,
    which places its nodal ray on y = -tan(psi) x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    chi_t, chi_r, chi_b, chi_l, _ = partition_of_unity(spec, x, y)
    out = chi_r * profiles.z_zero
    if np.any(chi_t):
        out = out + chi_t * profiles.top.values_at(x)
    if np.any(chi_b):
        out = out + chi_b * profiles.bottom.values_at(x)
    if np.any(chi_l):
        arg = np.sin(psi) * x + np.cos(psi) * y
        out = out + chi_l * profiles.wave_at(arg)
    return out


def ansatz_sheared(X, Y, psi: float, profiles: FarfieldProfiles,
                   spec: PartitionSpec):
    """The ansatz at the preimage of the sheared grid points, where the
    oblique wave's argument flattens to cos(psi) Y far left."""
    x, y = shear_inverse(X, Y, ShearSpec(psi))
    return farfield_ansatz(x, y, psi, profiles, spec)


# ---------------------------------------------------------------------------
# residual of the sheared equation
# ---------------------------------------------------------------------------

def _sheared_residual_interior(v: np.ndarray, psi: float, p: ModelParams,
                               x: np.ndarray, hx: float, hy: float,
                               c_y: float) -> np.ndarray:
    """Pointwise residual of the sheared comoving equation on interior nodes."""
    t = np.tan(psi)
    vxx = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hx**2
    vyy = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hy**2
    vx = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * hx)
    vy = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * hy)
    vxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * hx * hy)
    vi = v[1:-1, 1:-1]
    xi = x[1:-1]
    mu_bar = side_average(xi, 1.0, -1.0)
    a = p.alpha
    g = side_average(xi, poly_eval(p.g_left, vi), poly_eval(p.g_right, vi))
    Sx = shear_profile_d1(xi)[None, :]
    Sxx = shear_profile_d2(xi)[None, :]
    r = (vxx + vyy + p.c_x * vx + c_y * vy + mu_bar[None, :] * vi
         - vi**3 + a * g
         + t * (2.0 * Sx * vxy + t * Sx**2 * vyy + (p.c_x * Sx + Sxx) * vy))
    j0 = origin_index(xi)
    if j0 is not None:
        r[:, j0] -= interface_correction(vi[:, j0], vx[:, j0], p, hx, p.c_x)
    return r


def residual_F(w: Field2D, psi: float, spec: PartitionSpec,
               profiles: FarfieldProfiles) -> Field2D:
    """Residual field of the sheared equation at ansatz + core correction.

    w lives on the sheared grid with zero boundary values; the model is
    profiles.p and the frame speed c_y is set from the geometric speed
    relation at (alpha, psi).  Boundary entries of the returned field are
    zero.
    """
    if w.data.shape != (w.ny, w.nx):
        raise ValueError("field shape mismatch")
    X, Y = np.meshgrid(w.x, w.y)
    v = ansatz_sheared(X, Y, psi, profiles, spec) + w.data
    r = np.zeros_like(v)
    r[1:-1, 1:-1] = _sheared_residual_interior(
        v, psi, profiles.p, w.x, w.hx, w.hy, profiles.c_y(psi))
    return w.copy_with(r)


# ---------------------------------------------------------------------------
# bordered Gauss-Newton solve for (w, psi)
# ---------------------------------------------------------------------------

@dataclass
class CoreCorrection:
    """Core remainder and selected angle from the bordered solve."""

    w: Field2D
    psi: float
    alpha: float
    weighted_residual: float
    weight_rate: float
    iterations: int = 0
    kkt_norm: float = 0.0


def _jacobian_w(vi: np.ndarray, psi: float, p: ModelParams, x: np.ndarray,
                hx: float, hy: float, c_y: float) -> sp.csr_matrix:
    """Sparse derivative of the interior residual with respect to interior w."""
    nxi = vi.shape[1]
    nyi = vi.shape[0]
    ex = np.ones(nxi)
    ey = np.ones(nyi)
    Dxx = sp.diags([ex[:-1], -2 * ex, ex[:-1]], [-1, 0, 1]) / hx**2
    Dyy = sp.diags([ey[:-1], -2 * ey, ey[:-1]], [-1, 0, 1]) / hy**2
    Dx = sp.diags([-ex[:-1], ex[:-1]], [-1, 1]) / (2 * hx)
    Dy = sp.diags([-ey[:-1], ey[:-1]], [-1, 1]) / (2 * hy)
    Ix = sp.identity(nxi)
    Iy = sp.identity(nyi)
    xi = x[1:-1]
    t = np.tan(psi)
    Sx = sp.diags(np.tile(shear_profile_d1(xi), nyi))
    Sxx = sp.diags(np.tile(shear_profile_d2(xi), nyi))
    gp = side_average(xi, poly_eval(poly_derivative(p.g_left), vi),
                      poly_eval(poly_derivative(p.g_right), vi))
    q = side_average(xi, 1.0, -1.0)[None, :] - 3.0 * vi**2 + p.alpha * gp
    A = (sp.kron(Iy, Dxx + p.c_x * Dx) + sp.kron(Dyy + c_y * Dy, Ix)
         + t * (2.0 * Sx @ sp.kron(Dy, Dx) + t * Sx @ Sx @ sp.kron(Dyy, Ix)
                + (p.c_x * Sx + Sxx) @ sp.kron(Dy, Ix))
         + sp.diags(q.ravel()))
    j0 = origin_index(xi)
    if j0 is not None:
        # the jump correction on the x = 0 column depends on u0 and, through
        # ux, on the column's x-neighbours
        ux = (vi[:, j0 + 1] - vi[:, j0 - 1]) / (2 * hx)
        d_du0, d_dux = interface_correction_jac(vi[:, j0], ux, p, hx, p.c_x)
        rows = np.arange(nyi) * nxi + j0
        side = d_dux / (2 * hx)
        A = A - sp.csr_matrix(
            (np.concatenate([d_du0, side, -side]),
             (np.tile(rows, 3), np.concatenate([rows, rows + 1, rows - 1]))),
            shape=A.shape)
    return A.tocsr()


#: Gauss-Newton budget of solve_bordered: iterations, the max-norm step that
#: ends them, the weighted residual it must reach, and the psi step of the
#: centered difference that gives the psi column of the Jacobian
_GN_MAX_ITER = 30
_GN_STEP_TOL = 1e-8
_GN_RESIDUAL_TARGET = 1e-6
_GN_FD_PSI = 1e-6


def solve_bordered(p: ModelParams, spec: PartitionSpec,
                   eta: float | None = None, half_width: float = 30.0,
                   h: float = 0.25, theta: Field2D | None = None,
                   lam: float = 1e-5) -> CoreCorrection:
    """Solve the sheared equation for (w, psi) by weighted Gauss-Newton.

    The objective is |e^{eta(|x|+|y|)} F|^2 plus a small ridge lam^2 on the
    weighted core correction; the ridge selects the exponentially localized
    representative on the discrete solution manifold and leaves the angle
    insensitive to lam over several orders of magnitude.  The symmetric
    zero-angle state seeds w, and psi starts at 0.
    """
    if eta is None:
        eta = min(p.c_x, 1.0) / 4.0
    if not 0.0 < eta < max(p.c_x, 1e-12):
        raise ValueError("need weight rate 0 < eta < c_x")
    template = Field2D.on_rectangle(half_width, half_width, h)
    h1 = min(h / 4, 0.02)
    profiles = build_profiles(p, Grid1D.symmetric(half_width, h1),
                              Grid1D.symmetric(1.6 * half_width, h1))
    if theta is None:
        theta = solve_theta(p.c_x, half_width, half_width, h=h, dt=0.25, tol=1e-9)
    X, Y = np.meshgrid(template.x, template.y)
    w = theta.data - ansatz_sheared(X, Y, 0.0, profiles, spec)
    w[0, :] = w[-1, :] = 0.0
    w[:, 0] = w[:, -1] = 0.0
    psi = 0.0
    x = template.x
    hx = hy = h
    weight = np.exp(eta * (np.abs(X) + np.abs(Y)))[1:-1, 1:-1].ravel()
    norm_scale = np.sqrt(hx * hy)
    shape_i = (template.ny - 2, template.nx - 2)

    def interior_residual(wfull, psi_val):
        v = ansatz_sheared(X, Y, psi_val, profiles, spec) + wfull
        return _sheared_residual_interior(v, psi_val, p, x, hx, hy,
                                          profiles.c_y(psi_val)), v

    rn = np.inf
    kkt = np.inf
    for it in range(_GN_MAX_ITER):
        r, v = interior_residual(w, psi)
        rw = weight * r.ravel()
        rn = np.linalg.norm(rw) * norm_scale
        rp, _ = interior_residual(w, psi + _GN_FD_PSI)
        rm, _ = interior_residual(w, psi - _GN_FD_PSI)
        b = weight * ((rp - rm).ravel() / (2 * _GN_FD_PSI))
        A = _jacobian_w(v[1:-1, 1:-1], psi, p, x, hx, hy, profiles.c_y(psi))
        Aw = sp.diags(weight) @ A @ sp.diags(1.0 / weight)
        wv = weight * w[1:-1, 1:-1].ravel()
        grad_v = Aw.T @ rw + lam**2 * wv
        grad_psi = float(b @ rw)
        kkt = float(np.hypot(np.linalg.norm(grad_v), grad_psi)) * norm_scale
        M = (Aw.T @ Aw + lam**2 * sp.identity(Aw.shape[0])).tocsc()
        try:
            lu = spla.splu(M)
        except RuntimeError as exc:
            raise IllConditioned(f"normal-equation factorization failed: {exc}") from exc
        z1 = lu.solve(-(Aw.T @ rw) - lam**2 * wv)
        z2 = lu.solve(Aw.T @ b)
        den = float(b @ b - b @ (Aw @ z2))
        if not np.isfinite(den) or abs(den) < 1e-12 * max(float(b @ b), 1e-30):
            raise IllConditioned(f"angle direction degenerate (Schur {den:.3e})")
        dpsi = float((-(b @ rw) - b @ (Aw @ z1)) / den)
        dv = z1 - z2 * dpsi
        dw = (dv / weight).reshape(shape_i)
        w[1:-1, 1:-1] += dw
        psi += dpsi
        step = max(np.abs(dw).max(), abs(dpsi))
        if step < _GN_STEP_TOL:
            break
    r, _ = interior_residual(w, psi)
    rn = float(np.linalg.norm(weight * r.ravel()) * norm_scale)
    if rn > _GN_RESIDUAL_TARGET:
        raise NotConverged(
            f"weighted residual {rn:.3e} above target {_GN_RESIDUAL_TARGET} "
            f"after {it + 1} iterations")
    wfield = template.copy_with(w)
    return CoreCorrection(w=wfield, psi=float(psi), alpha=p.alpha,
                          weighted_residual=rn, weight_rate=eta,
                          iterations=it + 1, kkt_norm=kkt)


def save_correction(cc: CoreCorrection, base_path: str):
    """Persist the core correction: grid binary plus key=value metadata."""
    from .quench2d import write_field
    write_field(cc.w, base_path + ".qnch")
    write_entries(base_path + ".meta", {
        "psi": f"{cc.psi:.17g}",
        "alpha": f"{cc.alpha:.17g}",
        "eta": f"{cc.weight_rate:.17g}",
        "weighted_residual": f"{cc.weighted_residual:.6e}",
        "iterations": cc.iterations})
