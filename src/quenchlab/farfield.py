"""Farfield gluing and the bordered angle solver.

A partition of unity with four 90-degree sectors glues the 1D building
blocks into a farfield approximation whose left sector encodes a nodal
line of prescribed slope.  A shear transform straightens that sector so
the oblique wave becomes x-independent far to the left; the equation in
sheared coordinates, with the geometric frame speed substituted, defines
a residual in the pair (core correction w, angle psi) that a bordered
Newton iteration drives to zero at the least weighted norm of w.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AngleOutOfRange, IllConditioned, NotConverged
from .model import ModelParams, reaction, reaction_jacobian, transport_1d
from .profiles1d import (Grid1D, Profile1D, WaveSolution, frame_speed,
                         solve_quench_front, solve_traveling_wave)
from .textio import write_entries
from .quench2d import Field2D, solve_theta, write_field


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def smoothstep_quintic(t):
    """C^2 ramp: 0 for t <= 0, 1 for t >= 1.

    The polynomial is exactly 0 at t = 0 and 1 at t = 1, so it is evaluated
    only strictly inside the ramp; NaN passes through.
    """
    t = np.asarray(np.clip(t, 0.0, 1.0), dtype=float)
    inner = (t > 0.0) & (t < 1.0)
    s = t[inner]
    t[inner] = s**3 * (10.0 + s * (-15.0 + 6.0 * s))
    return t


#: width of the shear cutoff's ramp, which ends at x = -1
SHEAR_RAMP_WIDTH = 4.0

#: chi^- on its ramp: t^4 (35 - 84 t + 70 t^2 - 20 t^3), t = (-1 - x)/SHEAR_RAMP_WIDTH
_SHEAR_RAMP = np.polynomial.Polynomial([0, 0, 0, 0, 35, -84, 70, -20],
                                       domain=[-1, -1 - SHEAR_RAMP_WIDTH],
                                       window=[0, 1])


def _on_ramp(x):
    return np.clip(np.asarray(x, dtype=float), -1.0 - SHEAR_RAMP_WIDTH, -1.0)


def shear_cutoff(x):
    """chi^-: 1 for x < -5, 0 for x > -1.

    Realized as a degree-7 (C^3) ramp of width SHEAR_RAMP_WIDTH: the sheared
    stencils differentiate x*chi^- twice, and a C^3 cutoff spread over many
    cells keeps those terms second-order accurate.
    """
    return _SHEAR_RAMP(_on_ramp(x))


def shear_profile_d1(x):
    """d/dx of S(x) = x*chi^-(x)."""
    x = np.asarray(x, dtype=float)
    return shear_cutoff(x) + x * _SHEAR_RAMP.deriv(1)(_on_ramp(x))


def shear_profile_d2(x):
    x = np.asarray(x, dtype=float)
    xc = _on_ramp(x)
    return 2.0 * _SHEAR_RAMP.deriv(1)(xc) + x * _SHEAR_RAMP.deriv(2)(xc)


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """Core radius R of the farfield partition: the farfield windows ramp up
    over [max(R - RADIAL_RAMP_WIDTH, 0), R] (quintic) and are fully on
    beyond R."""

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


#: width of the radial window's ramp, which ends at the core radius R
RADIAL_RAMP_WIDTH = 4.0


def _window_radial(r, R):
    """0 for r < R - RADIAL_RAMP_WIDTH, 1 for r > R, a quintic ramp between.

    A core smaller than the ramp starts it at the origin instead, so the
    farfield windows vanish where the angular windows meet.
    """
    width = min(R, RADIAL_RAMP_WIDTH)
    return smoothstep_quintic((r - (R - width)) / width)


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


# ---------------------------------------------------------------------------
# shear transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearSpec:
    """Shear angle; the cutoff chi^- (1 for x < -5, 0 for x > -1) is fixed."""

    psi: float

    def __post_init__(self):
        if not abs(self.psi) < np.pi / 2:
            raise AngleOutOfRange(f"shear angle {self.psi:.6g} needs |psi| < pi/2")


def shear_inverse(xt, yt, spec: ShearSpec):
    """Preimage of the shear (x, y) -> (x, y + x chi^-(x) tan psi)."""
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    return xt, yt - xt * shear_cutoff(xt) * np.tan(spec.psi)


# ---------------------------------------------------------------------------
# farfield ansatz
# ---------------------------------------------------------------------------

@dataclass
class FarfieldProfiles:
    """The four farfield blocks at one alpha: the fronts, the oblique wave,
    and the constant right state, which is the fronts' right limit z_0."""

    p: ModelParams
    top: Profile1D
    bottom: Profile1D
    wave: WaveSolution

    @property
    def cn(self) -> float:
        return self.wave.speed

    def c_y(self, psi: float) -> float:
        return frame_speed(psi, self.cn, self.p.c_x)


def build_profiles(p: ModelParams, front_grid: Grid1D,
                   wave_grid: Grid1D) -> FarfieldProfiles:
    """Solve the 1D blocks for an ansatz on the given grids.

    The ansatz interpolates the fronts at the 2D field's columns; when
    front_grid's spacing divides the field's, those columns are nodes and
    the ansatz residual vanishes to solver tolerance in the pure
    top/bottom/right regions.  The wave grid usually extends further to
    cover oblique arguments.
    """
    return FarfieldProfiles(p=p, top=solve_quench_front("top", p, front_grid),
                            bottom=solve_quench_front("bottom", p, front_grid),
                            wave=solve_traveling_wave(p, wave_grid))


def farfield_ansatz(x, y, psi: float, profiles: FarfieldProfiles,
                    spec: PartitionSpec):
    """Glued farfield approximation in the original (unsheared) coordinates.

    The left block is the oblique wave evaluated at sin(psi) x + cos(psi) y,
    which places its nodal ray on y = -tan(psi) x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    chi_t, chi_r, chi_b, chi_l, _ = partition_of_unity(spec, x, y)
    out = chi_r * profiles.top.limit_right
    if np.any(chi_t):
        out = out + chi_t * profiles.top.values_at(x)
    if np.any(chi_b):
        out = out + chi_b * profiles.bottom.values_at(x)
    left = chi_l != 0
    if np.any(left):  # the wave is the costly block: evaluate it where it counts
        xl, yl = (np.broadcast_to(c, left.shape)[left] for c in (x, y))
        wave = np.zeros(left.shape)
        wave[left] = chi_l[left] * profiles.wave.profile.values_at(
            np.sin(psi) * xl + np.cos(psi) * yl)
        out = out + wave
    return out


def ansatz_sheared(X, Y, psi: float, profiles: FarfieldProfiles,
                   spec: PartitionSpec):
    """The ansatz at the preimage of the sheared grid points, where the
    oblique wave's argument flattens to cos(psi) Y far left."""
    x, y = shear_inverse(X, Y, ShearSpec(psi))
    return farfield_ansatz(x, y, psi, profiles, spec)


# ---------------------------------------------------------------------------
# the sheared equation
# ---------------------------------------------------------------------------

class ShearedOperator:
    """The sheared comoving equation on one grid, held as 1D factors.

    The linear part maps the values on all nodes to the interior nodes (both
    row-major, y outer).  It is the sum of F_y (x) F_x over three factor
    pairs, each factor mapping the nodes of its axis to that axis's interior
    nodes: (E_y, A_x), (D_yy, X_2) and (D_y, X_1) with A_x = d_xx + c_x d_x,
    X_2 = (1 + t^2 S'^2) E_x and X_1 = c_y E_x + t (2 S' d_x + (c_x S' + S'') E_x)
    at t = tan(psi), where S = x chi^- and E takes the interior nodes.  S
    depends on x alone, so only the x factors carry psi.
    """

    def __init__(self, template: Field2D, p: ModelParams):
        nx, ny, hx, hy = template.nx, template.ny, template.hx, template.hy
        self.p, self.xi, self.hx = p, template.x[1:-1], hx
        self.shape = (ny - 2, nx - 2)

        def interior_rows(n, diagonals):
            """Rows 1 to n - 2 of the tridiagonal (sub, main, sup) on n nodes."""
            return sp.diags(diagonals, [-1, 0, 1], shape=(n, n), format="csr")[1:-1]

        self.Ax = interior_rows(nx, transport_1d(nx, hx, p.c_x))
        self.Dyy = interior_rows(ny, transport_1d(ny, hy, 0.0))
        self.Dx = interior_rows(nx, (-0.5 / hx, 0.0, 0.5 / hx))
        self.Dy = interior_rows(ny, (-0.5 / hy, 0.0, 0.5 / hy))
        self.Ex, self.Ey = (interior_rows(n, (0.0, 1.0, 0.0)) for n in (nx, ny))
        self.s1, self.s2 = shear_profile_d1(self.xi), shear_profile_d2(self.xi)

    def _factor_pairs(self, psi, c_y):
        t, s1 = np.tan(psi), self.s1
        X2 = sp.diags(1.0 + t * t * s1 * s1) @ self.Ex
        X1 = c_y * self.Ex + t * (sp.diags(2.0 * s1) @ self.Dx
                                  + sp.diags(self.p.c_x * s1 + self.s2) @ self.Ex)
        return (self.Ey, self.Ax), (self.Dyy, X2), (self.Dy, X1)

    def residual(self, v: np.ndarray, psi: float, c_y: float) -> np.ndarray:
        """The equation's residual on the interior nodes at the field v."""
        lin = sum(fx @ (fy @ v).T for fy, fx in self._factor_pairs(psi, c_y))
        return lin.T + reaction(self.xi, v[1:-1, 1:-1], self.p, self.hx)

    def jacobian(self, v: np.ndarray, psi: float, c_y: float) -> sp.csc_matrix:
        """Derivative of residual in the interior values of v: the factor
        pairs on the interior columns plus the kinetics' tridiagonal along x."""
        lin = sum(sp.kron(fy[:, 1:-1], fx[:, 1:-1])
                  for fy, fx in self._factor_pairs(psi, c_y))
        sub, main, sup = reaction_jacobian(self.xi, v[1:-1, 1:-1], self.p, self.hx)
        # raveled, the x-neighbours across the end of an interior row are 0
        gap = np.zeros((self.shape[0], 1))
        kinetics = sp.diags([np.hstack([sub, gap]).ravel()[:-1], main.ravel(),
                             np.hstack([sup, gap]).ravel()[:-1]], [-1, 0, 1])
        return (lin + kinetics).tocsc()


def residual_F(w: Field2D, psi: float, spec: PartitionSpec,
               profiles: FarfieldProfiles, op: ShearedOperator):
    """Residual of the sheared equation at v = ansatz + core correction.

    w lives on op's grid with zero boundary values; the model is profiles.p
    and the frame speed c_y is set from the geometric speed relation at
    (alpha, psi).  Returns the residual on the interior nodes, and v.
    """
    if w.data.shape != (w.ny, w.nx):
        raise ValueError("field shape mismatch")
    # x-only terms (the shear, the fronts) run on one row of nx points
    v = ansatz_sheared(w.x, w.y[:, None], psi, profiles, spec) + w.data
    return op.residual(v, psi, profiles.c_y(psi)), v


# ---------------------------------------------------------------------------
# bordered Newton solve for (w, psi)
# ---------------------------------------------------------------------------

@dataclass
class CoreCorrection:
    """Core remainder and selected angle from one level of the bordered solve."""

    w: Field2D
    psi: float
    alpha: float
    weighted_residual: float
    weight_rate: float
    iterations: int = 0
    kkt_norm: float = 0.0  # cosine of W w and W dw/dpsi, 0 at the optimum
    #: per iteration: weighted residual at its start, kkt cosine, max-norm
    #: step, the L+U nonzeros of the factor it used, and its refinement
    #: rounds on that factor (0: the iteration factored its own Jacobian)
    history: list[tuple[float, float, float, int, int]] = field(default_factory=list)
    #: the solve on the grid of twice the spacing that seeded this one, or
    #: None at the coarsest level
    coarse: CoreCorrection | None = None

    @property
    def error_h(self) -> float | None:
        """Richardson estimate |psi_h - psi_2h| / 3 of psi's O(h^2) error,
        or None where no 2h level ran."""
        return None if self.coarse is None else abs(self.psi - self.coarse.psi) / 3.0


#: Newton budget of solve_bordered: iterations, the max-norm step that ends
#: them, the weighted residual it must reach, and the psi step of the
#: centered difference that gives the psi column of the Jacobian
_GN_MAX_ITER = 30
_GN_STEP_TOL = 1e-8
_GN_RESIDUAL_TARGET = 1e-6
_GN_FD_PSI = 1e-6

#: nested grids of solve_bordered: the largest spacing of a coarse level,
#: and the max-norm step that ends a coarse level's iterations (its answer
#: only seeds the next finer level)
_COARSEST_H = 0.5
_COARSE_STEP_TOL = 1e-3

#: refinement on a held factor: the rounds it may take, the relative size
#: of a first correction that marks the factor as stale, the least
#: relative correction that ends it, and the forcing term: the relative
#: accuracy a solve needs against the step it serves (inexact Newton,
#: Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982)
_REFINE_ROUNDS = 12
_REFINE_STALE = 0.5
_REFINE_TOL = 1e-12
_REFINE_FORCING = 1e-3


def _refine(solve, apply, rhs, x, tol):
    """Iterative refinement of x against apply(x) = rhs, each correction
    solved by solve, the inverse of an earlier matrix; each row of x and
    rhs is one system's solution and right-hand side, and each row stops
    once its correction falls to its own relative tolerance in tol (a
    scalar serves every row).

    Returns the rounds taken once every row has stopped, or 0 when a first
    correction is above _REFINE_STALE, a row's corrections stop halving
    above its tolerance, a value is not finite or the rounds run out: then
    the earlier matrix must be factored anew.
    """
    tol = np.broadcast_to(tol, (len(x),))
    active = np.ones(len(x), dtype=bool)
    last = np.full(len(x), np.inf)
    for rounds in range(1, _REFINE_ROUNDS + 1):
        dx = solve(rhs[active] - apply(x[active]))
        x[active] += dx
        size = np.linalg.norm(dx, axis=1) / np.linalg.norm(x[active], axis=1)
        if not np.all(np.isfinite(size)) or rounds == 1 and size.max() > _REFINE_STALE:
            return 0
        done = size <= tol[active]
        if np.any(~done & (size >= last[active] / 2)):  # a stall
            return 0
        last[active] = size
        active[active] = ~done
        if not active.any():
            return rounds
    return 0


class _BorderedFactor:
    """The inverse of the bordered matrix M = [A, F_psi; l^T, 0], applied
    by block elimination on an LU factor of A.

    l = W^2 z / |W z|^2 with z = A^-1 F_psi, so l^T z = 1, and the solve of
    M [x; s] = [r; rho] is y = A^-1 r, s = l^T y - rho, x = y - s z.  A is
    nearly singular on the Dirichlet box (|z| is about 1e8 at L = 30) and
    M is not, so solves on this factor refine against a later M, the same
    l bordering a later A and F_psi (matvec), to any accuracy down to
    round-off.
    """

    def __init__(self, A, fpsi, weight):
        try:
            # A's stored pattern is the symmetric 9-point stencil, so
            # minimum degree on A^T + A orders it with about half the
            # fill of the default COLAMD on A^T A
            self.lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise IllConditioned(f"Jacobian factorization failed: {exc}") from exc
        self.z = self.lu.solve(fpsi)
        wz = weight * self.z
        self.ell = weight * wz / (wz @ wz)

    def solve(self, rhs):
        """M^-1 applied to each row [r; rho] of rhs."""
        y = self.lu.solve(rhs[:, :-1].T).T
        s = y @ self.ell - rhs[:, -1]
        return np.hstack([y - s[:, None] * self.z, s[:, None]])

    def matvec(self, A, fpsi, x):
        """[A, F_psi; l^T, 0] applied to each row of x, for the given A and
        F_psi."""
        w = x[:, :-1]
        return np.hstack([(A @ w.T).T + x[:, -1:] * fpsi,
                          (w @ self.ell)[:, None]])


def _spacings(half_width: float, h: float) -> list[float]:
    """The nested grids' spacings, finest first: h, 2h, ... up to
    _COARSEST_H, while the finer grid's node count per half-width is even,
    so that every other node of it spans the same box."""
    m, out = int(round(half_width / h)), [h]
    while m % 2 == 0 and 2 * out[-1] <= _COARSEST_H:
        m //= 2
        out.append(2 * out[-1])
    return out


def solve_bordered(p: ModelParams, spec: PartitionSpec, half_width: float,
                   h: float) -> CoreCorrection:
    """Solve the sheared equation for (w, psi) by a bordered Newton iteration.

    On the Dirichlet box the Jacobian A in w is invertible, so F = 0 has a
    solution w for every psi; the angle is the one whose solution is most
    localized, the least |e^{eta(|x|+|y|)} w| with eta = min(c_x, 1)/4.
    Each iteration steps to w + a - dpsi b, where A a = -F, A b = F_psi and
    dpsi minimizes the weighted norm of that new w.  A is nearly singular
    on the box (|b| is about 1e8 at L = 30), so the step is taken from the
    bordered matrix M = [A, F_psi; l^T, 0], which is not (Keller's
    bordering; Govaerts, *Numerical Methods for Bifurcations of Dynamical
    Equilibria*, SIAM 2000, ch. 3): M [p; s_p] = [-F; 0] and
    M [q; s_q] = [0; 1] span the same line, w + p + tau q at
    psi + s_p + tau s_q, for any l with l^T b != 0, and tau minimizes the
    weighted norm on it.  M is solved on the LU factor of A that an earlier
    iteration made (_BorderedFactor), refined against the current M (chord
    Newton with refinement) only as far as the step needs (inexact Newton):
    p to _REFINE_FORCING relative, since its error is a relative error of
    this step that the next residual corrects, and q, started from the last
    iteration's q, to _REFINE_FORCING times the last step but at least to
    _REFINE_TOL, since its error moves tau and so psi's fixed point.  A is
    factored anew on the first iteration and whenever that refinement
    starts with a large correction or stalls (_refine).

    The iteration runs on nested grids of spacings h, 2h, ... (_spacings),
    coarsest first (nested iteration, Briggs, Henson and McCormick, *A
    Multigrid Tutorial*, 2000, ch. 3).  The coarsest level starts from the
    symmetric zero-angle state at its own spacing and psi = 0, and stops
    once a step falls below _COARSE_STEP_TOL; each finer level starts from
    the prolonged (w, psi) of the level below.  All levels share the 1D
    blocks, solved at the finest level's spacing.  NotConverged is raised
    unless every level takes a step below its tolerance (_GN_STEP_TOL on
    the finest) within _GN_MAX_ITER iterations and the finest level's
    weighted residual then meets _GN_RESIDUAL_TARGET.  The result is the
    finest level's; its `coarse` holds the level below.
    """
    if not p.c_x > 0:
        raise ValueError("the bordered solve needs c_x > 0")
    h1 = min(h / 4, 0.02)
    profiles = build_profiles(p, Grid1D.symmetric(half_width, h1),
                              Grid1D.symmetric(1.6 * half_width, h1))
    cc = None
    for h_level in reversed(_spacings(half_width, h)):
        if cc is None:
            theta = solve_theta(p.c_x, half_width, half_width, h=h_level,
                                dt=0.25, tol=1e-9)
            w = theta.copy_with(theta.data - ansatz_sheared(
                theta.x, theta.y[:, None], 0.0, profiles, spec))
            w.data[0, :] = w.data[-1, :] = 0.0
            w.data[:, 0] = w.data[:, -1] = 0.0
            psi = 0.0
        else:
            w = cc.w.prolonged()
            psi = cc.psi
        step_tol = _GN_STEP_TOL if h_level == h else _COARSE_STEP_TOL
        cc = _newton(p, spec, profiles, w, psi, step_tol, coarse=cc)
    if not cc.weighted_residual <= _GN_RESIDUAL_TARGET:  # a NaN fails too
        raise NotConverged(
            f"at h = {h:g}: weighted residual {cc.weighted_residual:.3e} above "
            f"target {_GN_RESIDUAL_TARGET} after {cc.iterations} iterations")
    return cc


def _newton(p: ModelParams, spec: PartitionSpec, profiles: FarfieldProfiles,
            w: Field2D, psi: float, step_tol: float,
            coarse: CoreCorrection | None) -> CoreCorrection:
    """The bordered Newton iteration of solve_bordered on w's grid, from
    (w, psi), until a max-norm step falls below step_tol."""
    eta = min(p.c_x, 1.0) / 4.0
    h = w.hx
    op = ShearedOperator(w, p)
    weight = np.exp(eta * (np.abs(w.x) + np.abs(w.y[:, None])))[1:-1, 1:-1].ravel()
    history = []
    held = None

    def weighted_norm(res):
        return float(np.linalg.norm(weight * res.ravel()) * h)

    for it in range(_GN_MAX_ITER):
        # the last iteration's Jacobian is dead: release it before this
        # one's is built
        A = None
        r, v = residual_F(w, psi, spec, profiles, op)
        rp, _ = residual_F(w, psi + _GN_FD_PSI, spec, profiles, op)
        rm, _ = residual_F(w, psi - _GN_FD_PSI, spec, profiles, op)
        A = op.jacobian(v, psi, profiles.c_y(psi))
        fpsi = (rp - rm).ravel() / (2 * _GN_FD_PSI)
        # the rows are the right-hand sides [-F; 0] and [0; 1]
        rhs = np.zeros((2, fpsi.size + 1))
        rhs[0, :-1] = -r.ravel()
        rhs[1, -1] = 1.0
        rounds = 0
        if held is not None:
            # row p from the held factor, to a fraction of this step; row q
            # from the last iteration's q, to that fraction of the last
            # step, since q's error moves tau and so psi's fixed point
            x = np.vstack([held.solve(rhs[:1]), x[1:]])
            tol = [_REFINE_FORCING, max(_REFINE_TOL, _REFINE_FORCING * step)]
            rounds = _refine(held.solve, partial(held.matvec, A, fpsi), rhs, x, tol)
        if not rounds:
            # drop the held factor (about 50 MB at L = 30, h = 0.25) before
            # the next is built, so that one factor at a time is resident
            held = None
            held = _BorderedFactor(A, fpsi, weight)
            x = held.solve(rhs)
        # the rows [pw; s_p] and [qw; s_q]
        (pw, qw), (s_p, s_q) = x[:, :-1], x[:, -1]
        wq = weight * qw
        qq = float(wq @ wq)
        if not np.isfinite(qq) or qq == 0.0:
            raise IllConditioned(f"angle direction degenerate (|W q|^2 = {qq:.3e})")
        ww = weight * w.data[1:-1, 1:-1].ravel()
        kkt = abs(float(ww @ wq)) / (np.linalg.norm(ww) * np.sqrt(qq))
        tau = -float((ww + weight * pw) @ wq) / qq
        dw = (pw + tau * qw).reshape(op.shape)
        dpsi = float(s_p + tau * s_q)
        w.data[1:-1, 1:-1] += dw
        psi += dpsi
        step = max(np.abs(dw).max(), abs(dpsi))
        history.append((weighted_norm(r), kkt, float(step), held.lu.nnz,
                        rounds))
        if step < step_tol:
            break
    else:
        raise NotConverged(f"at h = {h:g}: last step {step:.3e} above {step_tol} "
                           f"after {_GN_MAX_ITER} iterations")
    r, _ = residual_F(w, psi, spec, profiles, op)
    return CoreCorrection(w=w, psi=float(psi), alpha=p.alpha,
                          weighted_residual=weighted_norm(r), weight_rate=eta,
                          iterations=it + 1, kkt_norm=float(kkt),
                          history=history, coarse=coarse)


def save_correction(cc: CoreCorrection, base_path: str):
    """Persist the core correction: grid binary plus key=value metadata,
    with the h-error bar where a 2h level ran."""
    write_field(cc.w, base_path + ".qnch")
    meta = {"psi": f"{cc.psi:.17g}",
            "alpha": f"{cc.alpha:.17g}",
            "eta": f"{cc.weight_rate:.17g}",
            "weighted_residual": f"{cc.weighted_residual:.6e}",
            "iterations": cc.iterations}
    if cc.error_h is not None:
        meta["error_h"] = f"{cc.error_h:.6e}"
    write_entries(base_path + ".meta", meta)
