"""Comoving-frame 2D solver on a truncated rectangle.

Semi-implicit (IMEX) time stepping for u_t = Lap(u) + c_x u_x + c_y u_y
+ mu(x) u - u^3 + alpha g(x, u) with homogeneous Neumann boundaries; the
stiff linear transport part is implicit (one sparse factorization per
stepper), the reaction explicit.  Steady states of the stepper solve the
discrete elliptic comoving equation exactly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, NonFinite, NotConverged
from .model import (ModelParams, interface_correction, origin_index, poly_eval,
                    side_average)

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

    def restrict(self, stride: int) -> "Field2D":
        """Node-aligned coarsening by an integer stride (same extent)."""
        if (self.nx - 1) % stride or (self.ny - 1) % stride:
            raise ValueError(f"stride {stride} does not preserve the extent")
        sub = self.data[::stride, ::stride]
        return Field2D(nx=sub.shape[1], ny=sub.shape[0], x0=self.x0, y0=self.y0,
                       hx=self.hx * stride, hy=self.hy * stride,
                       data=sub.copy())

    @classmethod
    def on_rectangle(cls, half_width_x: float, half_width_y: float, h: float) -> "Field2D":
        """Zero field on [-Lx, Lx] x [-Ly, Ly]; x = 0 and y = 0 land on nodes."""
        mx = int(round(half_width_x / h))
        my = int(round(half_width_y / h))
        return cls(nx=2 * mx + 1, ny=2 * my + 1, x0=-mx * h, y0=-my * h, hx=h, hy=h)


@dataclass
class SteadyResult:
    """Outcome of run_to_steady: final field plus an honest convergence record."""

    field: Field2D
    steps: int
    final_update_rate: float
    converged: bool


def _neumann_laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0) / h**2
    off = np.full(n - 1, 1.0) / h**2
    lap = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    lap[0, 1] = 2.0 / h**2       # ghost reflection
    lap[n - 1, n - 2] = 2.0 / h**2
    return lap.tocsr()


def _neumann_d1_1d(n: int, h: float) -> sp.csr_matrix:
    off = np.full(n - 1, 1.0) / (2.0 * h)
    d1 = sp.diags([-off, off], [-1, 1], format="lil")
    d1[0, 1] = 0.0               # reflection makes the boundary derivative zero
    d1[n - 1, n - 2] = 0.0
    return d1.tocsr()


class SemiImplicitStepper:
    """IMEX stepper bound to one geometry, parameter set, and time step."""

    def __init__(self, template: Field2D, p: ModelParams, dt: float,
                 include_reaction: bool = True):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.p = p
        self.dt = dt
        self.include_reaction = include_reaction
        self.nx, self.ny = template.nx, template.ny
        self.hx, self.hy = template.hx, template.hy
        self.x = template.x
        lap_x = _neumann_laplacian_1d(self.nx, self.hx)
        lap_y = _neumann_laplacian_1d(self.ny, self.hy)
        dx1 = _neumann_d1_1d(self.nx, self.hx)
        dy1 = _neumann_d1_1d(self.ny, self.hy)
        ix, iy = sp.identity(self.nx), sp.identity(self.ny)
        self.transport = (sp.kron(iy, lap_x + p.c_x * dx1)
                          + sp.kron(lap_y + p.c_y * dy1, ix)).tocsr()
        system = (sp.identity(self.nx * self.ny) - dt * self.transport).tocsc()
        try:
            self._solve = spla.factorized(system)
        except RuntimeError as exc:
            raise LinearSolveFailure(str(exc)) from exc
        self.mu_bar = side_average(self.x, 1.0, -1.0)
        self.i0 = origin_index(self.x)

    def reaction(self, u: np.ndarray) -> np.ndarray:
        """Pointwise reaction with jump-consistent sampling at the x = 0 column."""
        p = self.p
        r = self.mu_bar[None, :] * u - u**3
        if p.alpha != 0.0 and (p.g_left or p.g_right):
            r += p.alpha * side_average(self.x, poly_eval(p.g_left, u),
                                        poly_eval(p.g_right, u))
        if self.i0 is not None and 0 < self.i0 < self.nx - 1:
            i0 = self.i0
            ux = (u[:, i0 + 1] - u[:, i0 - 1]) / (2.0 * self.hx)
            r[:, i0] -= interface_correction(u[:, i0], ux, p, self.hx, p.c_x)
        return r

    def step(self, u: np.ndarray) -> np.ndarray:
        rhs = u + (self.dt * self.reaction(u) if self.include_reaction else 0.0)
        out = self._solve(rhs.ravel()).reshape(u.shape)
        if not np.isfinite(out).all():
            raise NonFinite("non-finite values after implicit solve")
        if np.abs(out).max() > AMPLITUDE_CLAMP:
            raise NonFinite(f"amplitude exceeded {AMPLITUDE_CLAMP}")
        return out

    def elliptic_residual(self, u: np.ndarray) -> np.ndarray:
        """Discrete steady residual Lap u + c.grad u + reaction(u)."""
        lin = (self.transport @ u.ravel()).reshape(u.shape)
        return lin + (self.reaction(u) if self.include_reaction else 0.0)


def run_to_steady(stepper: SemiImplicitStepper, u0: Field2D, tol: float = 1e-8,
                  max_steps: int = 20000, project_odd: bool = False,
                  recorder=None, record_every: int = 5) -> SteadyResult:
    """Step from u0 until the update rate max|u_{n+1}-u_n|/dt drops below tol.

    dt is the stepper's.  recorder(step_index, time, data) is invoked every
    record_every steps.  Convergence is reported honestly via
    SteadyResult.converged.
    """
    dt = stepper.dt
    u = u0.data.copy()
    if project_odd:
        u = 0.5 * (u - u[::-1, :])
    rate = np.inf
    steps = 0
    for k in range(max_steps):
        un = stepper.step(u)
        if project_odd:
            un = 0.5 * (un - un[::-1, :])
        rate = np.abs(un - u).max() / dt
        u = un
        steps = k + 1
        if recorder is not None and k % record_every == 0:
            recorder(k, (k + 1) * dt, u)
        if rate < tol:
            break
    return SteadyResult(field=u0.copy_with(u), steps=steps,
                        final_update_rate=rate, converged=rate < tol)


def solve_theta(c_x: float, half_width_x: float = 60.0, half_width_y: float = 60.0,
                h: float = 0.25, dt: float = 0.25, tol: float = 1e-9,
                max_steps: int = 20000) -> Field2D:
    """Symmetric perpendicular-contact steady state at alpha = 0, c_y = 0.

    Runs step-like odd initial data to steady state with odd symmetry in y
    re-imposed every step, so the result satisfies u(x, y) = -u(x, -y)
    exactly and has its zero level set on the x-axis.
    """
    if c_x < 0:
        raise ValueError("c_x must be >= 0")
    p = ModelParams(c_x=c_x)
    tmpl = Field2D.on_rectangle(half_width_x, half_width_y, h)
    u0 = tmpl.copy_with(np.sign(tmpl.y)[:, None] * (tmpl.x[None, :] < 0))
    result = run_to_steady(SemiImplicitStepper(u0, p, dt), u0, tol=tol,
                           max_steps=max_steps, project_odd=True)
    if not result.converged:
        raise NotConverged(
            f"update rate {result.final_update_rate:.2e} > {tol} after {result.steps} steps")
    return result.field


def elliptic_residual(u: Field2D, p: ModelParams) -> Field2D:
    """Residual of the discrete steady comoving equation at the given field."""
    stepper = SemiImplicitStepper(u, p, dt=1.0)
    return u.copy_with(stepper.elliptic_residual(u.data))


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
    """Plain CSV (x, y, u) for plotting."""
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        xs, ys = u.x, u.y
        for j in range(u.ny):
            for i in range(u.nx):
                fh.write(f"{xs[i]:.17g},{ys[j]:.17g},{u.data[j, i]:.17g}\n")
