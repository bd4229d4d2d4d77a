import numpy as np
import pytest

from quenchlab.errors import NonFinite
from quenchlab.model import ModelParams, origin_index
from quenchlab.profiles1d import Grid1D, solve_quench_front
from quenchlab.quench2d import (Field2D, SemiImplicitStepper, export_field_csv,
                                elliptic_residual, read_field, run_to_steady,
                                solve_theta, write_field)

SQRT2 = np.sqrt(2.0)


def test_field_geometry():
    f = Field2D.on_rectangle(10.0, 5.0, 0.25)
    assert (f.nx, f.ny) == (81, 41)
    assert f.x[origin_index(f.x)] == 0.0
    assert f.x[0] == -10.0 and f.y[-1] == 5.0
    assert origin_index(f.x + 0.1) is None


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
    # reaction disabled: compare against the free-space heat solution
    h, dt, s0 = 0.25, 0.0025, 2.0
    f = Field2D.on_rectangle(20.0, 20.0, h)
    X, Y = np.meshgrid(f.x, f.y)
    r2 = X**2 + Y**2
    f.data[:] = np.exp(-r2 / (4 * s0))
    stepper = SemiImplicitStepper(f, ModelParams(), dt, include_reaction=False)
    u = f.data
    worst = 0.0
    for k in range(1, 401):
        u = stepper.step(u)
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
    # measured 67 vs 72 at this scale
    assert res_ff.steps + 3 <= res_step.steps


def test_solve_theta_invariants(theta_half_small):
    th = theta_half_small
    u = th.data
    assert np.max(np.abs(u + u[::-1, :])) == 0.0  # exact odd projection
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
    assert np.max(np.abs(res.data)) < 1e-8  # 10x the steady tolerance


def test_amplitude_clamp():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    f.data[:] = 3.0
    with pytest.raises(NonFinite):
        SemiImplicitStepper(f, ModelParams(), dt=0.2).step(f.data)


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
