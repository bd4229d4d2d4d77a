import numpy as np
import pytest

from quenchlab.farfield import (PartitionSpec,
                                ShearSpec, _jacobian_w, _sheared_residual_interior,
                                ansatz_sheared, build_profiles,
                                farfield_ansatz, partition_derivative_bound,
                                partition_of_unity, residual_F, save_correction,
                                shear_inverse, shear_map, solve_bordered)
from quenchlab.model import ModelParams
from quenchlab.profiles1d import Grid1D
from quenchlab.quench2d import (Field2D, SemiImplicitStepper, read_field,
                                solve_theta)

SPEC = PartitionSpec(R=12.0)


def test_partition_sums_to_one(rng):
    pts = rng.uniform(-100.0, 100.0, (10000, 2))
    parts = partition_of_unity(SPEC, pts[:, 0], pts[:, 1])
    total = parts[0] + parts[1] + parts[2] + parts[3] + parts[4]
    assert np.max(np.abs(total - 1.0)) <= 1e-15


def test_partition_window_placement():
    R = SPEC.R
    chi_t, chi_r, chi_b, chi_l, chi_0 = partition_of_unity(SPEC, 0.0, 2 * R)
    assert chi_t == 1.0 and chi_r == chi_b == chi_l == 0.0
    chi_t, chi_r, chi_b, chi_l, chi_0 = partition_of_unity(SPEC, 2 * R, 0.0)
    assert chi_r == 1.0 and chi_t == chi_b == chi_l == 0.0
    chi_t, chi_r, chi_b, chi_l, chi_0 = partition_of_unity(SPEC, 0.0, -2 * R)
    assert chi_b == 1.0
    chi_t, chi_r, chi_b, chi_l, chi_0 = partition_of_unity(SPEC, -2 * R, 0.0)
    assert chi_l == 1.0
    # compact core
    parts = partition_of_unity(SPEC, 3.0, -4.0)
    assert parts[4] == 1.0 and sum(parts[:4]) == 0.0


def test_partition_values_in_unit_interval(rng):
    pts = rng.uniform(-60.0, 60.0, (5000, 2))
    for part in partition_of_unity(SPEC, pts[:, 0], pts[:, 1]):
        # chi_0 = 1 - sum can undershoot zero by accumulated rounding
        assert np.all(part >= -5e-14) and np.all(part <= 1.0 + 1e-15)


def test_partition_derivative_bounds():
    assert partition_derivative_bound(SPEC, 0) <= 1.0 + 1e-12
    # scaled first derivatives are r-independent in the farfield
    near = partition_derivative_bound(SPEC, 1, r_min=2 * SPEC.R, r_max=4 * SPEC.R)
    far = partition_derivative_bound(SPEC, 1, r_min=8 * SPEC.R, r_max=10 * SPEC.R)
    assert abs(near - far) / far < 0.05
    assert np.isfinite(partition_derivative_bound(SPEC, 2))
    with pytest.raises(ValueError):
        partition_derivative_bound(SPEC, 3)


def test_shear_map_examples():
    s0 = ShearSpec(psi=0.0)
    assert shear_map(-3.0, 1.0, s0) == (-3.0, 1.0)
    s = ShearSpec(psi=np.pi / 6)
    xt, yt = shear_map(0.5, 7.0, s)
    assert (xt, yt) == (0.5, 7.0)  # cutoff vanishes for x > -1
    xt, yt = shear_map(-3.0, 1.0, s)
    assert xt == -3.0
    assert yt == pytest.approx(1.0 - 3.0 * np.tan(np.pi / 6), abs=1e-15)
    with pytest.raises(ValueError):
        ShearSpec(psi=2.0)


def test_shear_roundtrip(rng):
    s = ShearSpec(psi=0.4)
    pts = rng.uniform(-50.0, 50.0, (10000, 2))
    xt, yt = shear_map(pts[:, 0], pts[:, 1], s)
    xb, yb = shear_inverse(xt, yt, s)
    assert np.max(np.abs(xb - pts[:, 0])) == 0.0
    assert np.max(np.abs(yb - pts[:, 1])) < 1e-14


@pytest.fixture(scope="module")
def profiles_zero():
    p = ModelParams(c_x=0.5)
    return build_profiles(p, Grid1D.symmetric(40.0, 0.02),
                          Grid1D.symmetric(60.0, 0.02))


def test_ansatz_farfield_values(profiles_zero):
    # deep right: exactly the right equilibrium
    v = farfield_ansatz(30.0, 0.0, 0.1, profiles_zero, SPEC)
    assert v == pytest.approx(profiles_zero.z_zero, abs=1e-15)
    # deep top at psi=0: the top front
    v = farfield_ansatz(-3.0, 30.0, 0.0, profiles_zero, SPEC)
    assert v == pytest.approx(profiles_zero.top.values_at(-3.0), abs=1e-12)


def test_ansatz_nodal_ray(profiles_zero):
    # the left block vanishes along y = -tan(psi) x
    psi = 0.15
    for x in (-25.0, -35.0):
        y_ray = -np.tan(psi) * x
        v = farfield_ansatz(x, y_ray, psi, profiles_zero, SPEC)
        assert abs(v) < 1e-10
        assert farfield_ansatz(x, y_ray + 1.0, psi, profiles_zero, SPEC) > 0.3


def test_sheared_ansatz_flattens_left(profiles_zero):
    # far left the sheared wave depends on the sheared y only
    psi = 0.2
    X = np.full(5, -30.0)
    Y = np.linspace(-3.0, 3.0, 5)
    v = ansatz_sheared(X, Y, psi, profiles_zero, SPEC)
    expect = profiles_zero.wave_at(np.cos(psi) * Y)
    np.testing.assert_allclose(v, expect, atol=1e-12)


def test_residual_zero_in_pure_right_region(profiles_zero):
    w = Field2D.on_rectangle(30.0, 30.0, 0.5)
    r = residual_F(w, 0.05, SPEC, profiles_zero)
    X, Y = np.meshgrid(w.x, w.y)
    deep_right = (X > SPEC.R + 2) & (np.abs(Y) < X / 2)
    assert np.max(np.abs(r.data[deep_right])) < 1e-9


def test_residual_consistency_order(theta_half_fine):
    # evaluating the operator on restrictions of one fine steady state
    # measures the stencil truncation error: second order, including the
    # quench-line column
    p = ModelParams(c_x=0.5)
    sups = {}
    for stride in (2, 4):  # h = 0.25, 0.5
        h = theta_half_fine.hx * stride
        sub = theta_half_fine.data[::stride, ::stride]
        w = Field2D.on_rectangle(30.0, 30.0, h)
        grid1 = Grid1D.symmetric(30.0, h)
        profiles = build_profiles(p, grid1, Grid1D.symmetric(45.0, min(h, 0.05)))
        X, Y = np.meshgrid(w.x, w.y)
        uff = ansatz_sheared(X, Y, 0.0, profiles, SPEC)
        w.data[:] = sub - uff
        w.data[0, :] = w.data[-1, :] = 0.0
        w.data[:, 0] = w.data[:, -1] = 0.0
        r = residual_F(w, 0.0, SPEC, profiles)
        interior = r.data[1:-1, 1:-1]
        # w carries the (nonzero) true state at the frame, so the first
        # stencil layer next to the clamped boundary is polluted; skip it
        sups[stride] = np.max(np.abs(interior[3:-3, 3:-3]))
    order = np.log2(sups[4] / sups[2])
    assert 1.7 < order < 2.5


def test_residual_overlap_decreases_with_core_radius():
    # aligned profiles: pure regions cancel to solver tolerance, so the
    # annulus residual is the window-overlap mismatch, exponentially small in R
    p = ModelParams(c_x=0.5)
    h = 0.5
    w = Field2D.on_rectangle(80.0, 80.0, h)
    grid1 = Grid1D.symmetric(80.0, h)
    profiles = build_profiles(p, grid1, grid1)
    X, Y = np.meshgrid(w.x, w.y)
    rr = np.hypot(X, Y)
    sups = []
    for R in (20.0, 30.0, 40.0):
        spec = PartitionSpec(R=R)
        r = residual_F(w, 0.0, spec, profiles)
        # keep one stencil width clear of the core-mollification ring [R-1, R]
        ann = (rr >= R + 2 * h) & (rr <= 2 * R)
        sups.append(np.max(np.abs(r.data[ann])))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-6


P_FORCED = ModelParams(c_x=0.5, alpha=0.3, g_left=(0.2, 0.5, -0.3),
                       g_right=(1.0, 0.4, 0.3, 0.2))


def test_sheared_residual_matches_stepper_at_zero_shear(rng):
    # psi = 0 removes the shear terms: what is left is the comoving equation
    # of the time stepper, with the same sampling of the jump at x = 0
    f = Field2D.on_rectangle(4.0, 3.0, 0.25)
    v = rng.uniform(-1.0, 1.0, f.data.shape)
    c_y = 0.17
    got = _sheared_residual_interior(v, 0.0, P_FORCED, f.x, f.hx, f.hy, c_y)
    stepper = SemiImplicitStepper(f, P_FORCED.replace(c_y=c_y), dt=1.0)
    want = stepper.elliptic_residual(v)[1:-1, 1:-1]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_jacobian_matches_finite_differences(rng):
    # includes the derivative of the jump correction on the x = 0 column
    f = Field2D.on_rectangle(3.0, 3.0, 0.5)
    v = rng.uniform(-1.0, 1.0, f.data.shape)
    psi, c_y, eps = 0.2, 0.1, 1e-6
    args = (psi, P_FORCED, f.x, f.hx, f.hy, c_y)
    jac = _jacobian_w(v[1:-1, 1:-1], *args).toarray()
    fd = np.empty_like(jac)
    for k in range(jac.shape[1]):
        vp, vm = v.copy(), v.copy()
        vp[1:-1, 1:-1].flat[k] += eps
        vm[1:-1, 1:-1].flat[k] -= eps
        fd[:, k] = (_sheared_residual_interior(vp, *args)
                    - _sheared_residual_interior(vm, *args)).ravel() / (2 * eps)
    np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6)


@pytest.fixture(scope="module")
def bordered_small():
    p = ModelParams(c_x=0.5)
    theta = solve_theta(0.5, 20.0, 20.0, h=0.5, dt=0.25, tol=1e-9)
    spec = PartitionSpec(R=8.0)
    kw = dict(half_width=20.0, h=0.5, theta=theta)
    return p, spec, kw


def test_bordered_symmetric_state(bordered_small):
    p, spec, kw = bordered_small
    cc = solve_bordered(p, spec, **kw)
    assert abs(cc.psi) < 1e-6
    assert cc.weighted_residual < 1e-6
    assert cc.w.data[0, :].max() == 0.0  # zero boundary values
    # the correction reproduces the symmetric state minus the ansatz
    X, Y = np.meshgrid(cc.w.x, cc.w.y)
    profiles = build_profiles(p, Grid1D.symmetric(20.0, 0.02),
                              Grid1D.symmetric(32.0, 0.02))
    w_ref = kw["theta"].data - ansatz_sheared(X, Y, 0.0, profiles, spec)
    inner = np.s_[8:-8, 8:-8]
    assert np.max(np.abs(cc.w.data[inner] - w_ref[inner])) < 0.02


def test_bordered_angle_odd_in_alpha(bordered_small):
    # constant g_r: alpha -> -alpha with u -> -u is an exact symmetry
    p, spec, kw = bordered_small
    pp = ModelParams(c_x=0.5, g_right=(1.0,))
    plus = solve_bordered(pp.replace(alpha=0.05), spec, **kw)
    minus = solve_bordered(pp.replace(alpha=-0.05), spec, **kw)
    assert plus.psi > 0.02
    assert plus.psi == pytest.approx(-minus.psi, rel=1e-6)
    # first-order optimality of the weighted least-squares solve
    assert plus.kkt_norm < 1e-5


def test_bordered_slope_matches_selection_integrals(theta_half_mid,
                                                    theta_half_fine,
                                                    fronts_cx_half):
    from quenchlab.melnikov import build_report

    top, bottom = fronts_cx_half
    report = build_report(theta_half_fine, top, bottom,
                          ModelParams(c_x=0.5, g_right=(1.0,)))
    spec = PartitionSpec(R=12.0)
    psi = {}
    for alpha in (0.02, -0.02):
        p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
        cc = solve_bordered(p, spec, half_width=30.0, h=0.25,
                            theta=theta_half_mid)
        psi[alpha] = cc.psi
    slope = (psi[0.02] - psi[-0.02]) / 0.04
    assert abs(slope - report.dphi_dalpha) / report.dphi_dalpha < 0.10


def test_save_correction_roundtrip(bordered_small, tmp_path):
    p, spec, kw = bordered_small
    cc = solve_bordered(p, spec, **kw)
    base = str(tmp_path / "core")
    save_correction(cc, base)
    w = read_field(base + ".qnch")
    np.testing.assert_array_equal(w.data, cc.w.data)
    meta = (tmp_path / "core.meta").read_text()
    assert "psi = " in meta and "eta = " in meta
