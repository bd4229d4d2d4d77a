import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import elliptic_residual, transport
from scipy.sparse.linalg import spsolve

from quenchlab.errors import LinearSolveFailure, NonFinite, NotConverged
from quenchlab.model import ModelParams, origin_index
from quenchlab.profiles1d import Grid1D, solve_quench_front
from quenchlab import quench2d
from quenchlab.quench2d import (Field2D, SemiImplicitStepper, export_field_csv,
                                read_field, run_to_steady, solve_comoving_steady,
                                solve_theta, write_field)

SQRT2 = np.sqrt(2.0)


def test_field_geometry():
    f = Field2D.on_rectangle(10.0, 5.0, 0.25)
    assert (f.nx, f.ny) == (81, 41)
    assert f.x[origin_index(f.x)] == 0.0
    assert f.x[0] == -10.0 and f.y[-1] == 5.0
    assert origin_index(f.x + 0.1) is None


def test_prolong_is_exact_on_bilinear_fields():
    # the grid of half the spacing over the same rectangle, and a bilinear
    # field on it to round-off
    c = Field2D.on_rectangle(3.0, 2.0, 0.5)
    f = Field2D.on_rectangle(3.0, 2.0, 0.25)

    def bilinear(g):
        return (1.0 + 0.3 * g.x - 0.7 * g.y[:, None]
                + 0.2 * g.x * g.y[:, None]) * np.ones((g.ny, g.nx))

    fine = c.copy_with(bilinear(c)).prolonged()
    assert (fine.nx, fine.ny, fine.x0, fine.y0, fine.hx, fine.hy) == \
        (f.nx, f.ny, f.x0, f.y0, f.hx, f.hy)
    np.testing.assert_allclose(fine.data, bilinear(f), rtol=0.0, atol=1e-14)


def test_zero_is_fixed_point():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    out = SemiImplicitStepper(f, ModelParams(c_x=0.5), dt=0.2).step(f.data)
    assert np.all(out == 0.0)


def test_step_preserves_y_independence(rng):
    f = Field2D.on_rectangle(6.0, 6.0, 0.25)
    row = np.tanh(-f.x / 2.0) * 0.8
    f.data[:] = row[None, :]
    stepper = SemiImplicitStepper(f, ModelParams(c_x=0.3), dt=0.2)
    u = f.data
    for _ in range(5):
        u = stepper.step(u)
    assert np.max(np.abs(u - u[0, :][None, :])) < 1e-12


def test_pure_diffusion_matches_heat_kernel():
    # implicit solves alone: compare against the free-space heat solution
    h, dt, s0 = 0.25, 0.0025, 2.0
    f = Field2D.on_rectangle(20.0, 20.0, h)
    X, Y = np.meshgrid(f.x, f.y)
    r2 = X**2 + Y**2
    f.data[:] = np.exp(-r2 / (4 * s0))
    stepper = SemiImplicitStepper(f, ModelParams(), dt)
    u = f.data
    worst = 0.0
    for k in range(1, 401):
        u = stepper.solve(u)
        if k % 80 == 0:
            t = k * dt
            exact = (s0 / (s0 + t)) * np.exp(-r2 / (4 * (s0 + t)))
            worst = max(worst, np.max(np.abs(u - exact)))
    assert worst < 1e-3


def test_run_to_steady_step_start_odd():
    f = Field2D.on_rectangle(16.0, 16.0, 0.25)
    f.data[:] = np.sign(f.y)[:, None] * (f.x[None, :] < 0)
    stepper = SemiImplicitStepper(f, ModelParams(c_x=0.5), dt=0.25)
    res = run_to_steady(stepper, f, tol=1e-7)
    assert res.converged
    u = res.field.data
    assert np.max(np.abs(u + u[::-1, :])) < 1e-10  # equivariance keeps oddness
    # interface sits on the x-axis in the bistable region
    jmid = res.field.ny // 2
    assert np.max(np.abs(u[jmid, :])) < 1e-10
    left = u[:, : f.nx // 3]
    ymid = f.y[:, None] * np.ones_like(left)
    assert np.all(left[ymid > 1.0] > 0.5)


def test_iterates_stay_odd_without_projection():
    f = Field2D.on_rectangle(10.0, 10.0, 0.5)
    f.data[:] = np.sign(f.y)[:, None] * (f.x[None, :] < 0)
    stepper = SemiImplicitStepper(f, ModelParams(c_x=0.5), dt=0.25)
    u = f.data
    for _ in range(20):
        u = stepper.step(u)
        assert np.max(np.abs(u + u[::-1, :])) < 1e-12


def test_ansatz_seed_converges_faster():
    from quenchlab.farfield import (PartitionSpec, build_profiles,
                                    farfield_ansatz)

    p = ModelParams(c_x=0.5)
    half, h = 16.0, 0.25
    f_step = Field2D.on_rectangle(half, half, h)
    f_step.data[:] = np.sign(f_step.y)[:, None] * (f_step.x[None, :] < 0)
    res_step = run_to_steady(SemiImplicitStepper(f_step, p, dt=0.25), f_step,
                             tol=1e-7)

    grid1 = Grid1D.symmetric(half, h)
    profiles = build_profiles(p, grid1, Grid1D.symmetric(1.6 * half, h))
    spec = PartitionSpec(R=2.5)  # small core: the glued seed covers the plane
    f_ff = Field2D.on_rectangle(half, half, h)
    X, Y = np.meshgrid(f_ff.x, f_ff.y)
    f_ff.data[:] = farfield_ansatz(X, Y, 0.0, profiles, spec)
    res_ff = run_to_steady(SemiImplicitStepper(f_ff, p, dt=0.25), f_ff, tol=1e-7)

    assert res_ff.converged and res_step.converged
    # relaxation is gap-limited, so a better seed only buys log(error) steps:
    # measured 66 vs 72 at this scale
    assert res_ff.steps + 3 <= res_step.steps


def test_solve_theta_invariants(theta_half_small):
    th = theta_half_small
    u = th.data
    assert np.max(np.abs(u + u[::-1, :])) == 0.0  # mirrored upper half
    thy = (u[2:, :] - u[:-2, :]) / (2 * th.hy)
    assert thy.min() >= -1e-8
    jmid = th.ny // 2
    assert np.all(u[jmid, :] == 0.0)


def test_theta_limits_match_1d(theta_half_small):
    th = theta_half_small
    p = ModelParams(c_x=0.5)
    top = solve_quench_front("top", p, Grid1D.symmetric(20.0, 0.25))
    assert np.max(np.abs(th.data[-1, :] - top.values)) < 5e-3
    assert np.max(np.abs(th.data[:, 0] - np.tanh(th.y / SQRT2))) < 5e-3


def test_theta_steady_residual(theta_half_small):
    res = elliptic_residual(theta_half_small, ModelParams(c_x=0.5))
    assert np.max(np.abs(res)) < 1e-8  # 10x the steady tolerance


def _odd_full_grid_march(c_x, half_x, half_y, h, dt, tol):
    """Step data marched on the full grid with 0.5 (u - u(-y)) taken after
    every step: the field and the step count where the rate drops below tol."""
    f = Field2D.on_rectangle(half_x, half_y, h)
    stepper = SemiImplicitStepper(f, ModelParams(c_x=c_x), dt)
    u = np.sign(f.y)[:, None] * (f.x[None, :] < 0)
    for steps in range(1, 2001):
        un = stepper.step(u)
        un = 0.5 * (un - un[::-1])
        rate = np.abs(un - u).max() / dt
        u = un
        if rate < tol:
            return u, steps
    raise AssertionError("reference march did not converge")


def _half_grid_start(c_x, half_x, half_y, h, dt):
    """solve_theta's start: step data on the rows y > 0, and its odd_y stepper."""
    full = Field2D.on_rectangle(half_x, half_y, h)
    m = full.ny // 2
    u0 = Field2D(full.nx, m, full.x0, full.hy, full.hx, full.hy,
                 data=np.tile(full.x < 0, (m, 1)))
    return SemiImplicitStepper(u0, ModelParams(c_x=c_x), dt, odd_y=True), u0


def _mirrored(u):
    """The full grid's odd field from its rows y > 0."""
    return np.concatenate([0.0 - u[::-1], np.zeros((1, u.shape[1])), u])


@pytest.mark.parametrize("half_y", [10.0, 0.5])  # 0.5 = h: one unknown row
def test_half_grid_theta_matches_full_grid_march(half_y):
    h, dt, tol = 0.5, 0.25, 1e-9
    want, steps = _odd_full_grid_march(0.5, 10.0, half_y, h, dt, tol)
    # the half-grid reduction: the odd_y march is the full-grid march, step
    # for step
    half = run_to_steady(*_half_grid_start(0.5, 10.0, half_y, h, dt), tol=tol)
    assert half.converged and half.steps == steps
    march = _mirrored(half.field.data)
    assert march.shape == want.shape
    assert np.max(np.abs(march - want)) <= 1e-12
    # solve_theta extrapolates that march: it lands within tol of it, and
    # not one step before its own count
    own = quench2d._march_extrapolated(*_half_grid_start(0.5, 10.0, half_y, h, dt),
                                       tol=tol, max_steps=steps).steps
    th = solve_theta(0.5, 10.0, half_y, h=h, dt=dt, tol=tol, max_steps=own)
    with pytest.raises(NotConverged):
        solve_theta(0.5, 10.0, half_y, h=h, dt=dt, tol=tol, max_steps=own - 1)
    u = th.data
    assert np.max(np.abs(u - march)) <= tol
    assert np.all(u + u[::-1] == 0.0)
    assert not np.signbit(u[u == 0.0]).any()  # no -0.0, the y = 0 row included
    assert np.all(u[th.ny // 2] == 0.0)


@pytest.mark.parametrize("c_x", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_extrapolated_theta_lands_on_the_plain_march(c_x):
    # uncapped jumps leave the bistable range at c_x = 2 and 4 on this box
    half, h, dt, tol = 8.0, 0.25, 0.25, 1e-9
    plain = run_to_steady(*_half_grid_start(c_x, half, half, h, dt), tol=tol)
    assert plain.converged
    th = solve_theta(c_x, half, half, h=h, dt=dt, tol=tol, max_steps=plain.steps)
    assert np.max(np.abs(th.data - _mirrored(plain.field.data))) <= 10 * tol
    if c_x == 0.5:  # the extrapolation is on: 42 steps against 95
        solve_theta(c_x, half, half, h=h, dt=dt, tol=tol,
                    max_steps=int(0.6 * plain.steps))


@pytest.mark.parametrize("kw", [{"c_y": 0.1}, {"alpha": 0.1}])
def test_odd_y_stepper_needs_symmetric_kinetics(kw):
    f = Field2D(nx=11, ny=5, x0=-5.0, y0=1.0, hx=1.0, hy=1.0)
    with pytest.raises(ValueError, match="odd_y"):
        SemiImplicitStepper(f, ModelParams(c_x=0.5, **kw), dt=0.25, odd_y=True)


def test_amplitude_clamp():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    f.data[:] = 3.0
    with pytest.raises(NonFinite):
        SemiImplicitStepper(f, ModelParams(), dt=0.2).step(f.data)


def test_nan_field_fails_as_non_finite():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    f.data[3, 4] = np.nan
    with pytest.raises(NonFinite, match="non-finite values"):
        SemiImplicitStepper(f, ModelParams(), dt=0.2).step(f.data)


@pytest.mark.parametrize("c_y", [0.0, 0.2, -0.2])
def test_solve_matches_sparse_direct_solve(c_y):
    # nx != ny and hx != hy, so a swapped axis cannot pass
    f = Field2D(nx=41, ny=27, x0=-6.0, y0=-5.2, hx=0.3, hy=0.4)
    dt = 0.25
    p = ModelParams(c_x=0.5, c_y=c_y)
    stepper = SemiImplicitStepper(f, p, dt)
    r = np.random.default_rng(5).uniform(-1.0, 1.0, f.data.shape)
    system = (sp.identity(f.nx * f.ny) - dt * transport(f, p)).tocsc()
    want = spsolve(system, r.ravel()).reshape(r.shape)
    got = stepper.solve(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_odd_y_solve_matches_sparse_direct_solve():
    # rows y = h..L_y; below them the row y = 0 of f_ext is held at zero, so
    # the system is the trailing block of the operator on f_ext
    f = Field2D(nx=41, ny=13, x0=-6.0, y0=0.4, hx=0.3, hy=0.4)
    f_ext = Field2D(nx=f.nx, ny=f.ny + 1, x0=f.x0, y0=0.0, hx=f.hx, hy=f.hy)
    dt = 0.25
    p = ModelParams(c_x=0.5)
    stepper = SemiImplicitStepper(f, p, dt, odd_y=True)
    r = np.random.default_rng(6).uniform(-1.0, 1.0, f.data.shape)
    n = f_ext.nx * f_ext.ny
    system = (sp.identity(n) - dt * transport(f_ext, p)).tocsc()[f.nx:, f.nx:]
    want = spsolve(system, r.ravel()).reshape(r.shape)
    got = stepper.solve(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("c_x, c_y, half_y, match", [
    (8.0, 0.0, 5.0, "cell Peclet"),     # |c_x| h = 2
    (0.5, -8.0, 5.0, "cell Peclet"),
    (0.5, 0.5, 50.0, "symmetrizer"),    # ratio ~ e^{|c_y| L_y} = e^25
])
def test_solve_guards_fail_typed(c_x, c_y, half_y, match):
    f = Field2D.on_rectangle(5.0, half_y, 0.25)
    with pytest.raises(LinearSolveFailure, match=match):
        SemiImplicitStepper(f, ModelParams(c_x=c_x, c_y=c_y), dt=0.25)


def test_field_io_roundtrip(tmp_path, rng):
    f = Field2D.on_rectangle(3.0, 2.0, 0.5)
    f.data[:] = rng.standard_normal(f.data.shape)
    path = str(tmp_path / "grid.qnch")
    write_field(f, path)
    g = read_field(path)
    assert (g.nx, g.ny, g.x0, g.y0, g.hx, g.hy) == (f.nx, f.ny, f.x0, f.y0, f.hx, f.hy)
    np.testing.assert_array_equal(g.data, f.data)
    raw = open(path, "rb").read()
    assert raw[:4] == b"QNCH"
    assert len(raw) == 4 + 44 + 8 * f.nx * f.ny
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.qnch"
        bad.write_bytes(b"XXXX" + raw[4:])
        read_field(str(bad))


def test_field_csv_export(tmp_path):
    f = Field2D.on_rectangle(1.0, 1.0, 1.0)
    f.data[:] = 1.5
    path = tmp_path / "f.csv"
    export_field_csv(f, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + f.nx * f.ny
    # same bytes as formatting every node on its own
    f = Field2D(nx=7, ny=4, x0=-0.9, y0=-0.3, hx=0.3, hy=0.1 / 3)
    f.data[:] = np.random.default_rng(11).standard_normal(f.data.shape)
    export_field_csv(f, str(path))
    want = "x,y,u\n" + "".join(f"{f.x[i]:.17g},{f.y[j]:.17g},{f.data[j, i]:.17g}\n"
                               for j in range(f.ny) for i in range(f.nx))
    assert path.read_text() == want
    # written row by row: the traced peak stays far below the file's size
    f = Field2D.on_rectangle(50.0, 50.0, 0.5)
    f.data[:] = np.random.default_rng(12).standard_normal(f.data.shape)
    tracemalloc.start()
    try:
        export_field_csv(f, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f.nx, f.ny) == (201, 201)
    assert peak < path.stat().st_size / 10


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-7])
def test_steady_solve_rejects_non_positive_tolerance(tol):
    # "while res > tol" would end at once on a NaN tol and return the start
    u0 = Field2D.on_rectangle(4.0, 4.0, 0.5)
    with pytest.raises(ValueError, match="tol"):
        solve_comoving_steady(u0, ModelParams(c_x=0.5), tol)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt")
def test_steady_solve_returns_large_blocks_when_freed():
    # adaptive, glibc serves the second and third 13 MiB block (a Krylov
    # basis of the sweep grid) from the heap and keeps it resident when
    # freed; after a steady solve each one leaves the resident set
    code = """if True:
        import sys, numpy as np
        from quenchlab.model import ModelParams
        from quenchlab.quench2d import Field2D, solve_comoving_steady
        def rss():
            with open("/proc/self/status") as fh:
                return next(int(l.split()[1]) for l in fh if l.startswith("VmRSS"))
        if sys.argv[1] == "solve":
            solve_comoving_steady(Field2D.on_rectangle(4.0, 4.0, 0.5),
                                  ModelParams(c_x=0.5), np.inf)
        for _ in range(3):
            block = np.ones(13 << 17)
            before = rss()
            del block
            print((before - rss()) / 1024)
        """
    src = os.path.dirname(os.path.dirname(quench2d.__file__))
    released = {}
    for how in ("solve", "none"):
        out = subprocess.run([sys.executable, "-c", code, how], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        released[how] = [float(v) for v in out.stdout.split()]
    assert min(released["solve"]) > 12.5
    assert max(released["none"][1:]) < 0.5
