import itertools
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import elliptic_residual, shear_map

from quenchlab import farfield
from quenchlab.errors import AngleOutOfRange, NotConverged
from quenchlab.farfield import (_GN_STEP_TOL, RADIAL_RAMP_WIDTH, PartitionSpec,
                                ShearedOperator, ShearSpec, ansatz_sheared,
                                build_profiles, farfield_ansatz,
                                partition_of_unity, residual_F, save_correction,
                                shear_inverse, smoothstep_quintic,
                                solve_bordered)
from quenchlab.model import ModelParams
from quenchlab.profiles1d import NEWTON_TOL, Grid1D
from quenchlab.quench2d import Field2D, read_field, solve_theta

SPEC = PartitionSpec(R=12.0)


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
    r_lo = spec.R - RADIAL_RAMP_WIDTH - 0.5 if r_min is None else r_min
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


def test_smoothstep_matches_clipped_polynomial_bit_for_bit(rng):
    # the ramp skips the polynomial at the clipped ends, where it is exactly
    # 0 and 1, so every value keeps its bits; NaN passes through
    t = np.concatenate([[0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e-300,
                         np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
                        rng.uniform(-0.5, 1.5, 1001)])
    c = np.clip(t, 0.0, 1.0)
    want = c**3 * (10.0 + c * (-15.0 + 6.0 * c))
    got = smoothstep_quintic(t)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert smoothstep_quintic(0.25) == 0.25**3 * (10.0 + 0.25 * (-15.0 + 1.5))
    assert smoothstep_quintic(2.0) == 1.0


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


@pytest.mark.parametrize("R", [2.5, 3.0])
def test_partition_continuous_at_origin(R):
    # a core smaller than the radial ramp must still switch the farfield
    # windows off at the origin, where the four angular windows meet
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    x, y = 1e-9 * np.cos(angles), 1e-9 * np.sin(angles)
    parts = partition_of_unity(PartitionSpec(R=R), x, y)
    assert np.max(np.abs(np.stack(parts[:4]))) < 1e-12


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
    xt, yt = shear_map(-6.0, 1.0, s)  # fully sheared for x < -5
    assert xt == -6.0
    assert yt == pytest.approx(1.0 - 6.0 * np.tan(np.pi / 6), abs=1e-15)
    with pytest.raises(AngleOutOfRange):
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


@pytest.mark.parametrize("alpha", [0.1, -0.1])
@pytest.mark.parametrize("g_left", [(), (0.3, -0.2, 0.5, 0.4)])
def test_wave_zero_is_on_the_origin(alpha, g_left):
    # brentq on scipy's CubicSpline through the wave is the reference
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq
    p = ModelParams(c_x=0.5, alpha=alpha, g_left=g_left, g_right=(1.0,))
    wave = build_profiles(p, Grid1D.symmetric(30.0, 0.02),
                          Grid1D.symmetric(48.0, 0.02)).wave.profile
    if g_left:  # asymmetric branches: the midpoint value is not the zero
        assert abs(wave.limit_left + wave.limit_right) > 0.02
    nodes = wave.grid.nodes()
    ref = brentq(CubicSpline(nodes, wave.values), nodes[0] / 2, nodes[-1] / 2)
    assert abs(ref) <= 1e-9
    assert abs(wave.values[wave.grid.index_of_origin()]) < NEWTON_TOL


def test_ansatz_farfield_values(profiles_zero):
    # deep right: exactly the right equilibrium
    v = farfield_ansatz(30.0, 0.0, 0.1, profiles_zero, SPEC)
    assert v == pytest.approx(profiles_zero.top.limit_right, abs=1e-15)
    # deep top at psi=0: the top front
    v = farfield_ansatz(-3.0, 30.0, 0.0, profiles_zero, SPEC)
    assert v == pytest.approx(profiles_zero.top.values_at(-3.0), abs=1e-12)


def test_ansatz_nodal_ray(profiles_zero):
    # the left block vanishes along y = -tan(psi) x, also where asymmetric
    # bistable branches move the wave's zero off their midpoint value
    p = ModelParams(c_x=0.5, alpha=0.1, g_left=(0.3, -0.2, 0.5, 0.4),
                    g_right=(1.0,))
    skewed = build_profiles(p, Grid1D.symmetric(40.0, 0.02),
                            Grid1D.symmetric(60.0, 0.02))
    psi = 0.15
    for profiles, x in itertools.product((profiles_zero, skewed), (-25.0, -35.0)):
        y_ray = -np.tan(psi) * x
        v = farfield_ansatz(x, y_ray, psi, profiles, SPEC)
        assert abs(v) < 1e-10
        assert farfield_ansatz(x, y_ray + 1.0, psi, profiles, SPEC) > 0.3


def test_sheared_ansatz_flattens_left(profiles_zero):
    # far left the sheared wave depends on the sheared y only
    psi = 0.2
    X = np.full(5, -30.0)
    Y = np.linspace(-3.0, 3.0, 5)
    v = ansatz_sheared(X, Y, psi, profiles_zero, SPEC)
    expect = profiles_zero.wave.profile.values_at(np.cos(psi) * Y)
    np.testing.assert_allclose(v, expect, atol=1e-12)


@pytest.mark.parametrize("psi", [0.0, 0.17, -0.2])
def test_sheared_ansatz_on_row_and_column_is_the_grid_bitwise(profiles_zero, psi):
    # residual_F passes x as a row and y as a column, so the x-only terms
    # run on one row; the values must keep every bit of the full grid's
    w = Field2D.on_rectangle(30.0, 30.0, 0.5)
    X, Y = np.meshgrid(w.x, w.y)
    grid = ansatz_sheared(X, Y, psi, profiles_zero, SPEC)
    rows = ansatz_sheared(w.x, w.y[:, None], psi, profiles_zero, SPEC)
    assert rows.shape == grid.shape
    np.testing.assert_array_equal(rows.view(np.int64), grid.view(np.int64))


def test_residual_zero_in_pure_right_region(profiles_zero):
    w = Field2D.on_rectangle(30.0, 30.0, 0.5)
    r, _ = residual_F(w, 0.05, SPEC, profiles_zero,
                      ShearedOperator(w, profiles_zero.p))
    X, Y = np.meshgrid(w.x, w.y)
    deep_right = (X > SPEC.R + 2) & (np.abs(Y) < X / 2)
    assert np.max(np.abs(r[deep_right[1:-1, 1:-1]])) < 1e-9


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
        interior, _ = residual_F(w, 0.0, SPEC, profiles,
                                 ShearedOperator(w, p))
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
    rr = np.hypot(X, Y)[1:-1, 1:-1]
    op = ShearedOperator(w, p)
    sups = []
    for R in (20.0, 30.0, 40.0):
        spec = PartitionSpec(R=R)
        r, _ = residual_F(w, 0.0, spec, profiles, op)
        # keep one stencil width clear of the core-mollification ring [R-4, R]
        ann = (rr >= R + 2 * h) & (rr <= 2 * R)
        sups.append(np.max(np.abs(r[ann])))
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
    got = ShearedOperator(f, P_FORCED).residual(v, 0.0, c_y)
    want = elliptic_residual(f.copy_with(v), P_FORCED.replace(c_y=c_y))[1:-1, 1:-1]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_jacobian_matches_finite_differences(rng):
    # includes the derivative of the jump correction on the x = 0 column
    f = Field2D.on_rectangle(3.0, 3.0, 0.5)
    v = rng.uniform(-1.0, 1.0, f.data.shape)
    psi, c_y, eps = 0.2, 0.1, 1e-6
    op = ShearedOperator(f, P_FORCED)
    jac = op.jacobian(v, psi, c_y).toarray()
    fd = np.empty_like(jac)
    for k in range(jac.shape[1]):
        vp, vm = v.copy(), v.copy()
        vp[1:-1, 1:-1].flat[k] += eps
        vm[1:-1, 1:-1].flat[k] -= eps
        fd[:, k] = (op.residual(vp, psi, c_y)
                    - op.residual(vm, psi, c_y)).ravel() / (2 * eps)
    np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6)


def test_sheared_operator_holds_only_1d_factors():
    # the bench grid (L = 30, h = 0.25, 241^2 nodes): full-size pieces of the
    # operator would take megabytes, its 1D factors take kilobytes
    f = Field2D.on_rectangle(30.0, 30.0, 0.25)
    tracemalloc.start()
    try:
        ShearedOperator(f, ModelParams(c_x=0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("half_width, h, want", [
    (30.0, 0.25, [0.25, 0.5]), (20.0, 0.125, [0.125, 0.25, 0.5]),
    (30.0, 0.1, [0.1, 0.2, 0.4]), (20.0, 0.5, [0.5]), (7.25, 0.25, [0.25]),
    (7.25, 0.125, [0.125, 0.25])])
def test_bordered_spacings_stop_at_coarsest_or_odd_count(half_width, h, want):
    # 7.25 / 0.25 = 29 nodes per half-width: no grid of every other node
    # spans the same box
    assert farfield._spacings(half_width, h) == want


@pytest.fixture(scope="module")
def bordered_small():
    # h = 0.5 is the coarsest spacing: one level, no nested grids
    p = ModelParams(c_x=0.5)
    spec = PartitionSpec(R=8.0)
    kw = dict(half_width=20.0, h=0.5)
    return p, spec, kw


#: the shrunken bench config, which runs two levels: h = 0.5, then 0.25
TWO_LEVELS = dict(spec=PartitionSpec(R=7.0), half_width=14.0, h=0.25)


@pytest.fixture(scope="module")
def bordered_zero(bordered_small):
    p, spec, kw = bordered_small
    return solve_bordered(p, spec, **kw)


def _small_profiles(p):
    # the 1D grids solve_bordered builds at half-width 20
    return build_profiles(p, Grid1D.symmetric(20.0, 0.02),
                          Grid1D.symmetric(32.0, 0.02))


def test_bordered_symmetric_state(bordered_small, bordered_zero):
    p, spec, kw = bordered_small
    cc = bordered_zero
    assert abs(cc.psi) < 1e-6
    assert cc.weighted_residual < 1e-6
    assert cc.w.data[0, :].max() == 0.0  # zero boundary values
    # the correction reproduces the symmetric state minus the ansatz
    theta = solve_theta(0.5, 20.0, 20.0, h=0.5, dt=0.25, tol=1e-9)
    X, Y = np.meshgrid(cc.w.x, cc.w.y)
    w_ref = theta.data - ansatz_sheared(X, Y, 0.0, _small_profiles(p), spec)
    inner = np.s_[8:-8, 8:-8]
    assert np.max(np.abs(cc.w.data[inner] - w_ref[inner])) < 0.02


def test_bordered_history(bordered_zero):
    cc = bordered_zero
    assert cc.coarse is None and cc.error_h is None
    assert len(cc.history) == cc.iterations
    _, kkt, step, _, _ = cc.history[-1]
    assert step < _GN_STEP_TOL
    assert kkt == cc.kkt_norm
    assert all(row[3] > 0 for row in cc.history)


def test_bordered_factor_fill_below_default_order(bordered_small, bordered_zero):
    # the 9-point stencil's pattern is symmetric: minimum degree on A^T + A
    # leaves 0.57 of the fill of SuperLU's default column order at this size
    p, spec, kw = bordered_small
    cc = bordered_zero
    profiles = _small_profiles(p)
    X, Y = np.meshgrid(cc.w.x, cc.w.y)
    v = ansatz_sheared(X, Y, cc.psi, profiles, spec) + cc.w.data
    A = ShearedOperator(cc.w, p).jacobian(v, cc.psi, profiles.c_y(cc.psi))
    assert cc.history[-1][3] <= 0.7 * spla.splu(A).nnz


def test_bordered_holds_one_factor_at_a_time(monkeypatch):
    # a factor at L = 30, h = 0.25 is about 50 MB: the held one must be gone
    # before the next one is built, also the coarse level's before the fine
    # level's first; iterations that refine on the held factor build none
    live, at_call = [0], []

    class Factor:
        def __init__(self, lu):
            self.solve, self.nnz = lu.solve, lu.nnz
            live[0] += 1

        def __del__(self):
            live[0] -= 1

    def splu(A, **kw):
        at_call.append(live[0])
        return Factor(spla.splu(A, **kw))

    monkeypatch.setattr(farfield, "spla", SimpleNamespace(splu=splu))
    p = ModelParams(c_x=0.5, g_right=(1.0,), alpha=0.1)
    cc = solve_bordered(p, **TWO_LEVELS)
    assert cc.coarse is not None and cc.coarse.coarse is None
    rows = cc.coarse.history + cc.history
    assert len(at_call) == sum(row[4] == 0 for row in rows)
    assert sum(row[4] == 0 for row in cc.history) < cc.iterations
    assert at_call == [0] * len(at_call)


def test_bordered_held_factor_matches_fresh_factors(bordered_small, monkeypatch):
    # refinement against the current Jacobian leaves the answer where a
    # fresh factorization on every iteration puts it
    _, spec, kw = bordered_small
    p = ModelParams(c_x=0.5, g_right=(1.0,), alpha=0.05)
    held = solve_bordered(p, spec, **kw)
    monkeypatch.setattr(farfield, "_REFINE_ROUNDS", 0)
    fresh = solve_bordered(p, spec, **kw)
    assert all(row[4] == 0 for row in fresh.history)
    assert any(row[4] > 0 for row in held.history)
    assert held.psi == pytest.approx(fresh.psi, rel=1e-13, abs=0.0)
    assert held.iterations == fresh.iterations
    assert max(held.kkt_norm, fresh.kkt_norm) < 1e-8


def test_bordered_angle_odd_in_alpha(bordered_small):
    # constant g_r: alpha -> -alpha with u -> -u is an exact symmetry
    p, spec, kw = bordered_small
    pp = ModelParams(c_x=0.5, g_right=(1.0,))
    plus = solve_bordered(pp.replace(alpha=0.05), spec, **kw)
    minus = solve_bordered(pp.replace(alpha=-0.05), spec, **kw)
    assert plus.psi > 0.02
    assert plus.psi == pytest.approx(-minus.psi, rel=1e-6)
    # nothing holds the residual above round-off level
    assert plus.weighted_residual < 1e-9
    # psi gives the least weighted norm: W w is orthogonal to W dw/dpsi
    assert plus.kkt_norm < 1e-5


def test_bordered_budget_ends_in_not_converged(monkeypatch):
    # at L = 14, R = 7 the fine level, started from the h = 0.5 level's
    # answer, takes its sixth step at 2.2e-7 although the weighted residual
    # already meets its target
    monkeypatch.setattr(farfield, "_GN_MAX_ITER", 6)
    p = ModelParams(c_x=0.5, alpha=0.1, g_right=(1.0,))
    with pytest.raises(NotConverged, match="at h = 0.25: last step 2.2"):
        solve_bordered(p, **TWO_LEVELS)


def test_bordered_coarse_budget_ends_in_not_converged(monkeypatch):
    # the h = 0.5 level needs 4 steps to reach its loose step tolerance
    monkeypatch.setattr(farfield, "_GN_MAX_ITER", 3)
    p = ModelParams(c_x=0.5, alpha=0.1, g_right=(1.0,))
    with pytest.raises(NotConverged, match="at h = 0.5: last step"):
        solve_bordered(p, **TWO_LEVELS)


@pytest.mark.parametrize("alpha", [0.1, -0.1])
def test_bordered_levels_land_where_one_level_lands(alpha, monkeypatch):
    # the h = 0.5 level only moves the fine level's start: psi is the one
    # level's to round-off, on fewer fine factorizations
    p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
    nested = solve_bordered(p, **TWO_LEVELS)
    monkeypatch.setattr(farfield, "_COARSEST_H", 0.25)
    single = solve_bordered(p, **TWO_LEVELS)
    assert nested.coarse is not None and single.coarse is None
    assert nested.psi == pytest.approx(single.psi, rel=1e-11, abs=0.0)

    def factorizations(cc):
        return sum(row[4] == 0 for row in cc.history)

    assert factorizations(nested) < factorizations(single)


@pytest.fixture(scope="module")
def two_levels():
    p = ModelParams(c_x=0.5, alpha=0.1, g_right=(1.0,))
    return p, solve_bordered(p, **TWO_LEVELS)


def test_bordered_factorizations_at_two_levels(two_levels):
    # solves on the bordered matrix refine on a held factor as far as each
    # step needs: the h = 0.5 level factors twice in 4 iterations and the
    # fine level once in 8 (3 and 1 while every solve refined to 1e-12,
    # 4 and 4 where the refinement ran against A alone)
    _, cc = two_levels
    levels = (cc.coarse, cc)
    assert [level.iterations for level in levels] == [4, 8]
    assert [sum(row[4] == 0 for row in level.history)
            for level in levels] == [2, 1]


@pytest.mark.parametrize("alpha", [0.1, -0.1])
def test_bordered_inexact_solves_land_where_fresh_factors_land(alpha, monkeypatch):
    # the fine level refines every later iteration on the factor made at
    # its prolonged start, row p only to a fraction of the step; psi and
    # the iteration counts are those of a fresh factor on every iteration
    p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
    held = solve_bordered(p, **TWO_LEVELS)
    monkeypatch.setattr(farfield, "_REFINE_ROUNDS", 0)
    fresh = solve_bordered(p, **TWO_LEVELS)
    assert all(row[4] == 0 for cc in (fresh, fresh.coarse) for row in cc.history)
    assert all(row[4] > 0 for row in held.history[1:])
    assert [held.coarse.iterations, held.iterations] == [
        fresh.coarse.iterations, fresh.iterations]
    assert held.psi == pytest.approx(fresh.psi, rel=1e-13, abs=0.0)


def _dense_refinement(spread):
    """A matrix M, the inverse of M + spread E for a random E, two
    right-hand sides as rows and their exact solutions."""
    rng = np.random.default_rng(29)
    n = 8
    M = 4.0 * np.eye(n) + rng.standard_normal((n, n))
    inv = np.linalg.inv(M + spread * rng.standard_normal((n, n)))
    rhs = rng.standard_normal((2, n))
    calls = []

    def solve(r):
        calls.append(len(r))
        return r @ inv.T

    return solve, (lambda x: x @ M.T), rhs, np.linalg.solve(M, rhs.T).T, calls


def test_refine_stops_each_row_at_its_own_tolerance():
    # row p stops at the forcing term while row q refines on, alone, to its
    # own tolerance
    solve, apply, rhs, want, calls = _dense_refinement(spread=0.03)
    x = solve(rhs)
    tol = [farfield._REFINE_FORCING, farfield._REFINE_TOL]
    rounds = farfield._refine(solve, apply, rhs, x, tol)
    assert 0 < rounds == len(calls) - 1
    assert calls[1] == 2 and calls[-1] == 1
    err = np.linalg.norm(x - want, axis=1) / np.linalg.norm(want, axis=1)
    assert 1e-10 < err[0] <= farfield._REFINE_FORCING
    assert err[1] <= 10 * farfield._REFINE_TOL


def test_refine_gives_up_on_a_stale_or_non_finite_solve():
    # a first correction above _REFINE_STALE relative returns 0, as does a
    # value that is not finite, whatever the tolerances
    solve, apply, rhs, _, calls = _dense_refinement(spread=3.0)
    x = solve(rhs)
    assert farfield._refine(solve, apply, rhs, x, 1e-3) == 0
    assert len(calls) == 2
    solve, apply, rhs, _, _ = _dense_refinement(spread=0.03)
    x = solve(rhs)
    x[1, 0] = np.nan
    assert farfield._refine(solve, apply, rhs, x, [1e-3, 1.0]) == 0


def _linearization(op, w, psi, p, profiles):
    """F, A and F_psi at (w, psi), as one bordered Newton iteration forms them."""
    r, v = residual_F(w, psi, TWO_LEVELS["spec"], profiles, op)
    d = farfield._GN_FD_PSI
    rp, _ = residual_F(w, psi + d, TWO_LEVELS["spec"], profiles, op)
    rm, _ = residual_F(w, psi - d, TWO_LEVELS["spec"], profiles, op)
    A = op.jacobian(v, psi, profiles.c_y(psi))
    return r.ravel(), A, (rp - rm).ravel() / (2 * d)


def test_bordered_solve_on_a_held_factor(two_levels):
    # factor A at the fine level's start, step once with fresh solves, and
    # solve the next iterate's bordered system by refinement on that factor
    p, cc = two_levels
    L = TWO_LEVELS["half_width"]
    profiles = build_profiles(p, Grid1D.symmetric(L, 0.02),
                              Grid1D.symmetric(1.6 * L, 0.02))
    w0, psi0 = cc.coarse.w.prolonged(), cc.coarse.psi
    op = ShearedOperator(w0, p)
    eta = min(p.c_x, 1.0) / 4.0
    weight = np.exp(eta * (np.abs(w0.x) + np.abs(w0.y[:, None])))[1:-1, 1:-1].ravel()
    r0, A0, fpsi0 = _linearization(op, w0, psi0, p, profiles)
    a, b = spla.splu(A0).solve(np.column_stack([-r0, fpsi0])).T
    wb = weight * b
    dpsi = float((weight * (w0.data[1:-1, 1:-1].ravel() + a)) @ wb) / (wb @ wb)
    w1 = w0.copy_with(w0.data.copy())
    w1.data[1:-1, 1:-1] += (a - dpsi * b).reshape(op.shape)
    psi1 = psi0 + dpsi
    r1, A1, fpsi1 = _linearization(op, w1, psi1, p, profiles)
    rhs = np.zeros((2, r1.size + 1))
    rhs[0, :-1], rhs[1, -1] = -r1, 1.0

    held = farfield._BorderedFactor(A0, fpsi0, weight)
    x = held.solve(rhs)
    assert farfield._refine(held.solve, partial(held.matvec, A1, fpsi1), rhs, x,
                            farfield._REFINE_TOL) > 0
    M = sp.bmat([[A1, fpsi1[:, None]], [held.ell[None, :], None]], format="csc")
    want = spla.spsolve(M, rhs.T).T
    assert np.all(np.linalg.norm(x - want, axis=1)
                  <= 1e-12 * np.linalg.norm(want, axis=1))

    # the step p + tau q is the least-squares step of fresh solves of A;
    # it cancels in p + tau q, so even spsolve's solution of M gives a
    # step 2e-12 away, relative
    (pw, qw), (s_p, s_q) = x[:, :-1], x[:, -1]
    a, b = spla.splu(A1).solve(np.column_stack([-r1, fpsi1])).T
    ww, wb, wq = (weight * f for f in (w1.data[1:-1, 1:-1].ravel(), b, qw))
    dpsi = float((ww + weight * a) @ wb) / (wb @ wb)
    tau = -float((ww + weight * pw) @ wq) / (wq @ wq)
    dw = a - dpsi * b
    assert np.abs(pw + tau * qw - dw).max() <= 1e-11 * np.abs(dw).max()
    assert s_p + tau * s_q == pytest.approx(dpsi, rel=1e-11)

    # a fresh factor's bordered solve refines to round-off too, where
    # refinement against A alone floored at 3e-9 at L = 30
    fresh = farfield._BorderedFactor(A1, fpsi1, weight)
    x = fresh.solve(rhs)
    assert farfield._REFINE_TOL <= 1e-12
    assert farfield._refine(fresh.solve, partial(fresh.matvec, A1, fpsi1), rhs, x,
                            farfield._REFINE_TOL) > 0


def test_bordered_error_bar_is_richardson_on_the_2h_level(tmp_path):
    # the h = 0.5 level stops at a loose step, yet its psi gives the bar of
    # a fully converged h = 0.5 solve
    p = ModelParams(c_x=0.5, alpha=0.1, g_right=(1.0,))
    fine = solve_bordered(p, **TWO_LEVELS)
    coarse = solve_bordered(p, **{**TWO_LEVELS, "h": 0.5})
    want = abs(fine.psi - coarse.psi) / 3.0
    assert fine.error_h == pytest.approx(want, rel=1e-3)
    save_correction(fine, str(tmp_path / "core"))
    meta = dict(line.split(" = ") for line in
                (tmp_path / "core.meta").read_text().splitlines())
    assert float(meta["error_h"]) == pytest.approx(fine.error_h, rel=1e-6)


def test_bordered_angle_converges_in_h():
    # the shear and radial ramps span several cells even at h = 0.5, so
    # halving h moves psi by its O(h^2) error only (0.004; 0.058 with
    # ramps of unit width)
    p = ModelParams(c_x=0.5, alpha=0.1, g_right=(1.0,))
    coarse, fine = (solve_bordered(p, PartitionSpec(R=7.0), half_width=14.0, h=h)
                    for h in (0.5, 0.25))
    assert abs(coarse.psi - fine.psi) <= 0.01


def test_bordered_slope_matches_selection_integrals(theta_half_fine,
                                                    fronts_cx_half):
    from quenchlab.melnikov import build_report

    top, bottom = fronts_cx_half
    report = build_report(theta_half_fine, top, bottom,
                          ModelParams(c_x=0.5, g_right=(1.0,)))
    spec = PartitionSpec(R=12.0)
    psi = {}
    for alpha in (0.02, -0.02):
        p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
        cc = solve_bordered(p, spec, half_width=30.0, h=0.25)
        psi[alpha] = cc.psi
    slope = (psi[0.02] - psi[-0.02]) / 0.04
    assert abs(slope - report.dphi_dalpha) / report.dphi_dalpha < 0.10


def test_bordered_and_predicted_slopes_agree_in_the_limit(theta_half_mid,
                                                         theta_half_fine,
                                                         fronts_cx_half):
    # the three methods at the linear slope, each extrapolated from two
    # grids assuming O(h^2): bordered psi/alpha at alpha = 0.01 from h = 0.5
    # and 0.25, the selection integrals' dphi/dalpha from theta at h = 0.25
    # and 0.125, and marched psi/alpha on [-30, 30]^2 from h = 0.5 and 0.25:
    # 1.693201, 1.692784 and 1.693033, so the marched leg is 1.0e-4 from
    # the bordered and 1.5e-4 from the prediction (a nodal-line fit read
    # 1.687921, 3e-3 from both)
    from dataclasses import replace

    from quenchlab.cli import ExperimentConfig, measure_steady_angle
    from quenchlab.melnikov import build_report

    def richardson(coarse, fine):
        return (4.0 * fine - coarse) / 3.0

    alpha = 0.01
    p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
    bordered = richardson(*(solve_bordered(p, PartitionSpec(R=12.0),
                                           half_width=20.0, h=h).psi / alpha
                            for h in (0.5, 0.25)))
    top, bottom = fronts_cx_half
    reports = [build_report(theta, top, bottom, p.replace(alpha=0.0))
               for theta in (theta_half_mid, theta_half_fine)]
    predicted = richardson(*(rep.dphi_dalpha for rep in reports))
    cfg = ExperimentConfig(c_x=0.5, grid2d_half_width_x=30.0,
                           grid2d_half_width_y=30.0, solver_dt=0.25,
                           measure_window_lo=-25.0)
    marched = richardson(*(measure_steady_angle(
        p, replace(cfg, grid2d_h=h),
        psi_seed=reports[1].dphi_dalpha * alpha)["psi"] / alpha
        for h in (0.5, 0.25)))
    assert abs(bordered - predicted) / predicted <= 9e-4
    assert abs(marched - bordered) / bordered <= 5e-4
    assert abs(marched - predicted) / predicted <= 5e-4


def test_save_correction_roundtrip(bordered_zero, tmp_path):
    cc = bordered_zero
    base = str(tmp_path / "core")
    save_correction(cc, base)
    w = read_field(base + ".qnch")
    np.testing.assert_array_equal(w.data, cc.w.data)
    meta = (tmp_path / "core.meta").read_text()
    assert "psi = " in meta and "eta = " in meta
    assert "error_h" not in meta  # one level: no 2h answer to compare with
