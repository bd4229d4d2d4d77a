"""Comoving-frame 2D solver on a truncated rectangle.

Semi-implicit (IMEX) time stepping for u_t = Lap(u) + c_x u_x + c_y u_y
+ mu(x) u - u^3 + alpha g(x, u) with homogeneous Neumann boundaries; the
stiff linear transport part is implicit (solved exactly in a y eigenbasis:
one LAPACK tridiagonal LU of all mode systems at construction, one solve
on it per step), the reaction explicit.  Steady states of the
stepper solve the discrete elliptic comoving equation exactly.
"""
from __future__ import annotations

import ctypes
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import LinearSolveFailure, NonFinite, NotConverged
from .model import (ModelParams, origin_index, reaction, reaction_jacobian,
                    transport_1d)

#: fields must stay inside the bistable range; beyond this we call it blow-up
AMPLITUDE_CLAMP = 2.0

_MAGIC = b"QNCH"
_FORMAT_VERSION = 1


@dataclass
class Field2D:
    """Scalar field on a uniform rectangular grid, row-major (y outer, x inner)."""

    nx: int
    ny: int
    x0: float
    y0: float
    hx: float
    hy: float
    data: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.data is None:
            self.data = np.zeros((self.ny, self.nx))
        self.data = np.asarray(self.data, dtype=float).reshape(self.ny, self.nx)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def copy_with(self, data: np.ndarray) -> "Field2D":
        return Field2D(self.nx, self.ny, self.x0, self.y0, self.hx, self.hy,
                       data=np.array(data, dtype=float))

    def prolonged(self) -> "Field2D":
        """Bilinear prolongation to the grid of half the spacing over the
        same rectangle: the shared nodes keep their values, the nodes
        between take the averages, and a zero boundary stays zero."""
        c = self.data
        fine = np.empty((2 * self.ny - 1, 2 * self.nx - 1))
        fine[::2, ::2] = c
        fine[1::2, ::2] = 0.5 * (c[:-1] + c[1:])
        fine[:, 1::2] = 0.5 * (fine[:, :-1:2] + fine[:, 2::2])
        return Field2D(2 * self.nx - 1, 2 * self.ny - 1, self.x0, self.y0,
                       self.hx / 2, self.hy / 2, data=fine)

    @classmethod
    def on_rectangle(cls, half_width_x: float, half_width_y: float, h: float) -> "Field2D":
        """Zero field on [-Lx, Lx] x [-Ly, Ly]; x = 0 and y = 0 land on nodes."""
        mx = int(round(half_width_x / h))
        my = int(round(half_width_y / h))
        return cls(nx=2 * mx + 1, ny=2 * my + 1, x0=-mx * h, y0=-my * h, hx=h, hy=h)


@dataclass
class SteadyResult:
    """Outcome of a march to steady state (run_to_steady, or the extrapolated
    march of solve_theta): final field plus an honest convergence record."""

    field: Field2D
    steps: int
    final_update_rate: float
    converged: bool


def _neumann_transport_1d(n: int, h: float, c: float):
    """Diagonals (sub, main, sup) of d2/ds2 + c d/ds on n nodes, Neumann ends.

    The ghost-node reflection doubles the inward neighbour of the second
    difference and cancels the centered first difference at both ends.
    """
    sub, main, sup = transport_1d(n, h, c)
    sub[-1] = sup[0] = 2.0 / h**2
    return sub, main, sup


#: largest max(d)/min(d) of the y symmetrizer; it grows like e^{|c_y| L_y} and
#: the round-off of the eigenbasis transforms grows with it
SYMMETRIZER_RATIO_LIMIT = 1e8


class SemiImplicitStepper:
    """IMEX stepper bound to one geometry, parameter set, and time step.

    The implicit system (I - dt T) u = r, T = I_y (x) A_x + A_y (x) I_x, is
    solved exactly by fast diagonalization (Lynch, Rice and Thomas 1964):
    A_y = V diag(lam) V^-1 with V = D^-1 Q from the symmetric tridiagonal
    D A_y D^-1 = Q diag(lam) Q^T, then one tridiagonal system
    ((1 - dt lam_k) I - dt A_x) u_k = r_k per y mode k.  All mode systems
    share one band, factored once by LAPACK's dgttrf; a solve is one dgttrs
    between the two mode transforms.  With odd_y the template holds the
    rows y = h..L_y of a field odd in y, below which the row y = 0 is held
    at zero.
    """

    def __init__(self, template: Field2D, p: ModelParams, dt: float,
                 odd_y: bool = False):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if odd_y and (p.c_y != 0 or p.alpha != 0):
            raise ValueError("odd_y needs c_y = 0 and alpha = 0")
        self.p = p
        self.dt = dt
        self.nx, self.ny = template.nx, template.ny
        self.hx, self.hy = template.hx, template.hy
        self.x = template.x
        for axis, c, h in (("x", p.c_x, self.hx), ("y", p.c_y, self.hy)):
            # below 2 the off-diagonals keep their sign: the symmetrizer
            # exists and every x system is strictly diagonally dominant
            if abs(c) * h >= 2.0:
                raise LinearSolveFailure(
                    f"cell Peclet number |c_{axis}| h_{axis} = {abs(c) * h:.3g} >= 2")
        # odd_y: the trailing block of the Neumann operator on one more row
        sub_y, main_y, sup_y = (
            tuple(a[1:] for a in _neumann_transport_1d(self.ny + 1, self.hy, 0.0))
            if odd_y else _neumann_transport_1d(self.ny, self.hy, p.c_y))

        # d_{i+1} / d_i = sqrt(sup_i / sub_{i+1}), accumulated in logs
        log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(sup_y / sub_y))))
        spread = log_d.max() - log_d.min()
        if spread > np.log(SYMMETRIZER_RATIO_LIMIT):
            raise LinearSolveFailure(
                f"y symmetrizer ratio e^{spread:.1f} exceeds "
                f"{SYMMETRIZER_RATIO_LIMIT:.0e}: |c_y| L_y too large")
        d = np.exp(log_d - 0.5 * (log_d.max() + log_d.min()))
        try:
            lam, q = eigh_tridiagonal(main_y, np.sqrt(sub_y * sup_y))
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"y eigendecomposition failed: {exc}") from exc
        self._to_modes = q.T * d[None, :]      # V^-1 = Q^T D
        self._from_modes = q / d[:, None]      # V = D^-1 Q

        # the systems ((1 - dt lam_k) I - dt A_x) of all modes k along one
        # band, mode-major; the zero off-diagonal entry where one mode's
        # block meets the next keeps the modes apart
        sub_x, main_x, sup_x = _neumann_transport_1d(self.nx, self.hx, p.c_x)
        *self._lu, info = dgttrf(
            np.tile(np.append(-dt * sub_x, 0.0), self.ny)[:-1],
            ((1.0 - dt * lam)[:, None] - dt * main_x).ravel(),
            np.tile(np.append(-dt * sup_x, 0.0), self.ny)[:-1])
        if info:
            raise LinearSolveFailure(f"mode systems singular (dgttrf info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """u with (I - dt T) u = rhs, both (ny, nx) arrays."""
        w, _ = dgttrs(*self._lu, (self._to_modes @ rhs).ravel(), overwrite_b=True)
        return self._from_modes @ w.reshape(self.ny, self.nx)

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """The model's discrete kinetics on this grid."""
        return reaction(self.x, u, self.p, self.hx)

    def step(self, u: np.ndarray) -> np.ndarray:
        out = self.solve(u + self.dt * self.reaction(u))
        peak = np.abs(out).max()               # NaN propagates through max
        if not np.isfinite(peak):
            raise NonFinite("non-finite values after implicit solve")
        if peak > AMPLITUDE_CLAMP:
            raise NonFinite(f"amplitude exceeded {AMPLITUDE_CLAMP}")
        return out


#: run_to_steady hands every RECORD_EVERY-th step to its recorder
RECORD_EVERY = 5


def run_to_steady(stepper: SemiImplicitStepper, u0: Field2D, tol: float,
                  max_steps: int = 20000, recorder=None) -> SteadyResult:
    """Step from u0 until the update rate max|u_{n+1}-u_n|/dt drops below tol.

    dt is the stepper's, and u0 lives on the stepper's grid (the upper half
    grid for an odd_y stepper).  recorder(step_index, time, data) is invoked
    every RECORD_EVERY steps.  Convergence is reported honestly via
    SteadyResult.converged.
    """
    dt = stepper.dt
    u = u0.data.copy()
    rate = np.inf
    steps = 0
    for k in range(max_steps):
        un = stepper.step(u)
        rate = np.abs(un - u).max() / dt
        u = un
        steps = k + 1
        if recorder is not None and k % RECORD_EVERY == 0:
            recorder(k, (k + 1) * dt, u)
        if rate < tol:
            break
    return SteadyResult(field=u0.copy_with(u), steps=steps,
                        final_update_rate=rate, converged=rate < tol)


#: solve_comoving_steady: the time step of Phi, the Newton budget, GMRES
#: restart length, relative tolerance and restart cycles, and step halvings
_NK_DT = 2.0
_NK_MAX_ITER = 30
_NK_RESTART = 40
_NK_RTOL = 1e-3
_NK_MAX_CYCLES = 10
_NK_MAX_HALVINGS = 10


@dataclass
class ComovingSteadyState:
    """A steady field, its frame speed c_y, its residual max|Phi(u) - u| / dt,
    the contact-point speed that residual implies, and the residual and
    GMRES iterations after each Newton step."""

    field: Field2D
    c_y: float
    residual: float
    drift: float
    history: list


def solve_comoving_steady(u0: Field2D, p: ModelParams,
                          tol: float) -> ComovingSteadyState:
    """Steady state in the frame moving at the unknown vertical speed c_y.

    Newton's method on Phi(u) - u = 0, Phi the IMEX map at dt = _NK_DT,
    whose fixed points are the zeros of the elliptic residual (Tuckerman and
    Barkley 2000), for (u, c_y) from (u0, p.c_y).  The extra equation is
    u = 0 at the x = 0 node where |u0| is least, next to the contact point;
    u0's grid must have x = 0 as an interior node.
    GMRES solves each bordered Newton system; a step is halved until the
    2-norm of the bordered residual falls.  Raises NotConverged unless
    max|Phi(u) - u| / dt reaches tol within _NK_MAX_ITER Newton steps.
    tol bounds that residual of the dt = _NK_DT map, not the update rate
    of a step at another dt: the implicit solve at dt = 2 damps the short
    waves of the elliptic residual more than a smaller step does.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, not {tol}")
    # glibc M_MMAP_THRESHOLD (-3) fixed: each Krylov basis is mapped afresh, RSS repeats
    getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)(-3, 4 << 20)
    x, hx, hy, i0 = u0.x, u0.hx, u0.hy, origin_index(u0.x)
    j0 = int(np.abs(u0.data[:, i0]).argmin())
    shape, n, phase = u0.data.shape, u0.data.size, j0 * u0.nx + i0

    def evaluate(u, c_y):
        """Phi(u) at c_y with its stepper, the steady residual, and the
        2-norm of the bordered residual."""
        stepper = SemiImplicitStepper(u0, p.replace(c_y=c_y), _NK_DT)
        phi = stepper.step(u)
        return (stepper, phi, np.abs(phi - u).max() / _NK_DT,
                np.hypot(np.linalg.norm(phi - u), u.flat[phase]))

    u, c_y, history = u0.data, p.c_y, []
    stepper, phi, res, merit = evaluate(u, c_y)
    while res > tol:
        if len(history) == _NK_MAX_ITER:
            raise NotConverged(f"steady residual {res:.2e} > {tol} after "
                               f"{_NK_MAX_ITER} Newton steps at h = {hx:g}")
        # dPhi/du v = solve(v + dt R'(u) v), R' tridiagonal along x.  Its sub
        # diagonal is -sup shifted by one, as R sees its x-neighbours only
        # through the centered u_x, so R' acts on their difference; that
        # coupling sits on the x = 0 column alone
        _, main, sup = reaction_jacobian(x, u, p, hx)
        cols = np.flatnonzero(sup.any(axis=0))
        # dPhi/dc_y = solve(dt D_y Phi(u)), D_y zero on its Neumann end rows
        dphi_dy = np.zeros(shape)
        dphi_dy[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * hy)
        b = stepper.solve(_NK_DT * dphi_dy).ravel()

        def matvec(z):
            v = z[:n].reshape(shape)
            r = main * v
            r[:, cols] += sup[:, cols] * (v[:, cols + 1] - v[:, cols - 1])
            jv = stepper.solve(v + _NK_DT * r) - v
            return np.append(jv.ravel() + z[n] * b, z[phase])

        iterations = []
        dz, _ = gmres(LinearOperator((n + 1, n + 1), matvec, dtype=float),
                      np.append((u - phi).ravel(), -u.flat[phase]),
                      rtol=_NK_RTOL, restart=_NK_RESTART, maxiter=_NK_MAX_CYCLES,
                      callback=iterations.append, callback_type="pr_norm")
        du, dc = dz[:n].reshape(shape), dz[n]
        for step in 0.5 ** np.arange(_NK_MAX_HALVINGS + 1):
            try:
                stepper, phi, res, trial = evaluate(u + step * du, c_y + step * dc)
            except NonFinite:
                continue
            if trial < merit:
                break
        else:
            raise NotConverged(f"{_NK_MAX_HALVINGS} halvings of a Newton step "
                               f"did not lower the residual at h = {hx:g}")
        u, c_y, merit = u + step * du, c_y + step * dc, trial
        history.append((float(res), len(iterations)))
    u_y = (u[j0 + 1, i0] - u[j0 - 1, i0]) / (2.0 * hy)
    drift = (u[j0, i0] - phi[j0, i0]) / (_NK_DT * u_y)
    return ComovingSteadyState(u0.copy_with(u), float(c_y), float(res),
                               float(drift), history)


#: largest jump factor rho / (1 - rho) of the extrapolated march; uncapped,
#: a jump taken while a faster mode lingers can leave the bistable range
#: (measured at c_x = 2 and 4, where the plain march converges)
_JUMP_CAP = 3.0
#: the largest relative move of rho between two steps at which a jump is taken
_RHO_SETTLED = 0.05


def _march_extrapolated(stepper: SemiImplicitStepper, u0: Field2D, tol: float,
                        max_steps: int) -> SteadyResult:
    """run_to_steady, with each update extrapolated along the slowest mode.

    A step maps u to g = Phi(u) with update f = g - u and stops, as
    run_to_steady does, once max|f| / dt < tol, returning that g.  Otherwise
    rho = <f, f_prev> / |f_prev|^2 estimates the ratio by which the updates
    shrink; once it lies in (0, 1) and moved by at most _RHO_SETTLED since
    the last step, the next step starts from g + min(rho / (1 - rho),
    _JUMP_CAP) f, the sum of the geometric tail of updates (vector Aitken
    extrapolation; Brezinski and Redivo-Zaglia 1991).  u0.data is overwritten.
    """
    # f_prev lives in u0's buffer, which the caller holds anyway
    u = f_prev = u0.data
    rate, steps, rho_prev = np.inf, 0, np.nan
    while rate >= tol and steps < max_steps:
        g = stepper.step(u)
        f = np.subtract(g, u, out=u)
        rate = float(max(f.max(), -f.min())) / stepper.dt
        steps += 1
        if rate >= tol and steps > 1:
            rho = np.vdot(f, f_prev) / np.vdot(f_prev, f_prev)
            if 0.0 < rho < 1.0 and abs(rho - rho_prev) <= _RHO_SETTLED * rho_prev:
                g += min(rho / (1.0 - rho), _JUMP_CAP) * f
            rho_prev = rho
        f_prev[...] = f
        del f                     # frees the last u, f's buffer, once u is rebound
        u = g
    return SteadyResult(field=u0.copy_with(u), steps=steps,
                        final_update_rate=rate, converged=rate < tol)


def solve_theta(c_x: float, half_width_x: float, half_width_y: float, h: float,
                dt: float, tol: float, max_steps: int = 20000) -> Field2D:
    """Symmetric perpendicular-contact steady state at alpha = 0, c_y = 0.

    Marches step data (1 for x < 0, 0 beyond) on the rows y > 0 alone, with
    u = 0 on the y = 0 row, to steady state, then mirrors it: the result
    satisfies u(x, y) = -u(x, -y) exactly, its y = 0 row is +0.0 and its
    zero level set is the x-axis.  The march extrapolates its updates along
    their slowest mode, by at most _JUMP_CAP times the last update, and
    stops on run_to_steady's test: the update rate of a plain step below
    tol, else NotConverged after max_steps steps.
    """
    p = ModelParams(c_x=c_x)
    full = Field2D.on_rectangle(half_width_x, half_width_y, h)
    m = full.ny // 2
    u0 = Field2D(full.nx, m, full.x0, full.hy, full.hx, full.hy,
                 data=np.tile(full.x < 0, (m, 1)))
    result = _march_extrapolated(SemiImplicitStepper(u0, p, dt, odd_y=True), u0,
                                 tol=tol, max_steps=max_steps)
    if not result.converged:
        raise NotConverged(
            f"update rate {result.final_update_rate:.2e} > {tol} after {result.steps} steps")
    u = result.field.data
    # 0.0 - u, not -u: the mirror of a +0.0 stays +0.0
    return full.copy_with(np.concatenate([0.0 - u[::-1], np.zeros((1, full.nx)), u]))


def write_field(u: Field2D, path: str):
    """Binary grid format: magic 'QNCH', u32 version, u32 nx, ny, f64 x0, y0,
    hx, hy, then nx*ny f64 values row-major; everything little-endian."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIdddd", _FORMAT_VERSION, u.nx, u.ny,
                             u.x0, u.y0, u.hx, u.hy))
        fh.write(u.data.astype("<f8").tobytes(order="C"))


def read_field(path: str) -> Field2D:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a grid file (magic {magic!r})")
        version, nx, ny, x0, y0, hx, hy = struct.unpack("<IIIdddd", fh.read(44))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported grid format version {version}")
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").reshape(ny, nx)
    return Field2D(nx=nx, ny=ny, x0=x0, y0=y0, hx=hx, hy=hy, data=data.copy())


def export_field_csv(u: Field2D, path: str):
    """Plain CSV (x, y, u) for plotting, written one grid row at a time so
    that no more than a row of text is held in memory."""
    # one "%" template per row: the x column fixed, "\0" where y goes
    row_format = "".join(f"{x:.17g},\0,%.17g\n" for x in u.x.tolist())
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for y, row in zip(u.y.tolist(), u.data):
            fh.write(row_format.replace("\0", f"{y:.17g}") % tuple(row.tolist()))
