"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  The heavy steady states are shared session fixtures.
"""
import time

import numpy as np
import pytest

from quenchlab.cli import ExperimentConfig, measure_steady_angle
from quenchlab.farfield import (PartitionSpec, ShearSpec, build_profiles,
                                partition_of_unity, residual_F, shear_inverse,
                                shear_map, solve_bordered)
from quenchlab.melnikov import build_report, m_psi
from quenchlab.model import ModelParams
from quenchlab.profiles1d import (Grid1D, cn_prime_quadrature,
                                  solve_quench_front, solve_traveling_wave)
from quenchlab.quench2d import Field2D, solve_theta
from quenchlab.spectral import (LinearOperator1D, kernel_check_2d,
                                max_real_eig_1d, quench_front_operator)

SQRT2 = np.sqrt(2.0)


def _verdict(num, ok, detail, t0):
    line = (f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
            f"({time.perf_counter() - t0:6.1f} s) {detail}")
    print(line)
    return ok


@pytest.fixture(scope="session")
def theta_481():
    """Desk-scale symmetric state: [-60, 60]^2 at h = 0.25 (481^2 nodes)."""
    t0 = time.perf_counter()
    th = solve_theta(0.5, 60.0, 60.0, h=0.25, dt=0.25, tol=1e-9)
    print(f"[fixture] theta 481^2 solved in {time.perf_counter() - t0:.1f} s")
    return th


@pytest.fixture(scope="session")
def report_family1(theta_half_fine, fronts_cx_half):
    top, bottom = fronts_cx_half
    return build_report(theta_half_fine, top, bottom,
                        ModelParams(c_x=0.5, g_right=(1.0,)))


@pytest.fixture(scope="session")
def measure_cfg_fine():
    return ExperimentConfig(c_x=0.5, grid2d_half_width_x=50.0,
                            grid2d_half_width_y=50.0, grid2d_h=0.25,
                            solver_dt=0.25, measure_window_lo=-35.0,
                            measure_window_hi=-10.0)


def test_criterion_01_front_value_richardson():
    t0 = time.perf_counter()
    p = ModelParams()
    vals = {}
    for h in (0.05, 0.025, 0.0125):
        prof = solve_quench_front("top", p, Grid1D.symmetric(30.0, h))
        vals[h] = prof.values[prof.grid.index_of_origin()]
    errs = {h: v - 0.5 for h, v in vals.items()}
    order1 = np.log2(errs[0.05] / errs[0.025])
    order2 = np.log2(errs[0.025] / errs[0.0125])
    hs = np.array([0.05, 0.025, 0.0125])
    basis = np.column_stack([np.ones(3), hs**2, hs**3])
    extrapolated = np.linalg.solve(basis, [vals[h] for h in hs])[0]
    err = abs(extrapolated - 0.5)
    elapsed = time.perf_counter() - t0
    ok = (1.7 < order1 < 2.3 and 1.7 < order2 < 2.3 and err < 1e-6
          and elapsed < 10.0)
    assert _verdict(1, ok, f"orders {order1:.2f}/{order2:.2f}, "
                    f"extrapolated error {err:.2e}", t0)


def test_criterion_02_traveling_wave_balanced():
    t0 = time.perf_counter()
    sol = solve_traveling_wave(ModelParams(), Grid1D.symmetric(30.0, 0.005))
    xi = sol.profile.grid.nodes()
    m = np.abs(xi) <= 10.0
    sup = np.max(np.abs(sol.profile.values[m] - np.tanh(xi[m] / SQRT2)))
    elapsed = time.perf_counter() - t0
    ok = abs(sol.speed) < 1e-10 and sup < 1e-6 and elapsed < 5.0
    assert _verdict(2, ok, f"|c_n(0)| = {abs(sol.speed):.1e}, "
                    f"sup|z - tanh| = {sup:.2e}", t0)


def test_criterion_03_speed_slope_formula():
    t0 = time.perf_counter()
    quad = cn_prime_quadrature((1.0,))
    target = 3.0 / SQRT2
    grid = Grid1D.symmetric(30.0, 0.01)
    delta = 1e-3
    cp = solve_traveling_wave(ModelParams(alpha=delta, g_left=(1.0,)), grid).speed
    cm = solve_traveling_wave(ModelParams(alpha=-delta, g_left=(1.0,)), grid).speed
    slope = (cp - cm) / (2 * delta)
    rel = abs(abs(slope) - target) / target
    elapsed = time.perf_counter() - t0
    ok = (abs(abs(quad) - target) < 1e-8 and rel < 1e-3
          and np.sign(slope) == np.sign(quad) and elapsed < 30.0)
    assert _verdict(3, ok, f"quadrature {quad:+.8f}, bvp slope {slope:+.8f}, "
                    f"relative gap {rel:.1e}", t0)


def test_criterion_04_symmetric_state_invariants(theta_481):
    t0 = time.perf_counter()
    th = theta_481
    u = th.data
    odd_defect = np.max(np.abs(u + u[::-1, :]))
    thy = (u[2:, :] - u[:-2, :]) / (2 * th.hy)
    thy_min = thy.min()
    p = ModelParams(c_x=0.5)
    grid1 = Grid1D.symmetric(60.0, 0.25)
    top = solve_quench_front("top", p, grid1)
    bottom = solve_quench_front("bottom", p, grid1)
    row_top = np.max(np.abs(u[-1, :] - top.values))
    row_bottom = np.max(np.abs(u[0, :] - bottom.values))
    col_left = np.max(np.abs(u[:, 0] - np.tanh(th.y / SQRT2)))
    col_right = np.max(np.abs(u[:, -1]))
    boundary = max(row_top, row_bottom, col_left, col_right)
    ok = odd_defect < 1e-12 and thy_min >= -1e-8 and boundary < 5e-3
    assert _verdict(4, ok, f"oddness {odd_defect:.1e}, min dTheta/dy "
                    f"{thy_min:+.1e}, boundary match {boundary:.2e}", t0)


def test_criterion_05_angle_sensitivity_negative_and_stable():
    t0 = time.perf_counter()
    details = []
    ok = True
    for c_x in (0.2, 0.5):
        values = {}
        for h, dt in ((0.25, 0.25), (0.125, 0.1)):
            th = solve_theta(c_x, 30.0, 30.0, h=h, dt=dt, tol=1e-9)
            values[h] = m_psi(th, c_x)
        drift = abs(values[0.25] - values[0.125]) / abs(values[0.125])
        ok = ok and values[0.25] < 0 and values[0.125] < 0 and drift <= 0.01
        details.append(f"c_x={c_x}: {values[0.125]:.5f} (h-drift {100 * drift:.2f}%)")
    assert _verdict(5, ok, "; ".join(details), t0)


def test_criterion_06_sign_predictions(report_family1, theta_half_fine,
                                       fronts_cx_half, measure_cfg_fine):
    t0 = time.perf_counter()
    top, bottom = fronts_cx_half
    # family 1: right-side constant forcing opens the angle
    ok = report_family1.dphi_dalpha > 0
    # family 2: left-side even forcing closes it (negative sensitivity)
    rep2 = build_report(theta_half_fine, top, bottom,
                        ModelParams(c_x=0.5, g_left=(0.0, 0.0, 0.5)))
    ok = ok and rep2.m_alpha < 0

    cfg = ExperimentConfig(c_x=0.5, grid2d_half_width_x=50.0,
                           grid2d_half_width_y=50.0, grid2d_h=0.5,
                           solver_dt=0.25, measure_window_lo=-35.0,
                           measure_window_hi=-10.0)
    angles = {}
    for alpha in (0.2, -0.2):
        p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
        seed = report_family1.dphi_dalpha * alpha
        angles[("f1", alpha)] = measure_steady_angle(p, cfg, psi_seed=seed)["psi"]
    for alpha in (0.2, -0.2):
        p = ModelParams(c_x=0.5, alpha=alpha, g_left=(0.0, 0.0, 0.5))
        seed = rep2.dphi_dalpha * alpha
        angles[("f2", alpha)] = measure_steady_angle(p, cfg, psi_seed=seed)["psi"]
    psi0 = measure_steady_angle(ModelParams(c_x=0.5), cfg)["psi"]

    ok = ok and angles[("f1", 0.2)] > 0 and angles[("f1", -0.2)] < 0
    ok = ok and np.sign(angles[("f2", 0.2)]) == np.sign(rep2.dphi_dalpha)
    ok = ok and np.sign(angles[("f2", -0.2)]) == -np.sign(rep2.dphi_dalpha)
    ok = ok and abs(psi0) < 0.01
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    assert _verdict(
        6, ok,
        f"dphi/dalpha(f1) = {report_family1.dphi_dalpha:+.3f}, "
        f"m_alpha(f2) = {rep2.m_alpha:+.4f}, "
        f"psi(f1,+-0.2) = {angles[('f1', 0.2)]:+.4f}/{angles[('f1', -0.2)]:+.4f}, "
        f"psi(f2,+-0.2) = {angles[('f2', 0.2)]:+.5f}/{angles[('f2', -0.2)]:+.5f}, "
        f"psi(0) = {psi0:+.5f}", t0)


def test_criterion_07_quantitative_slope_agreement(report_family1,
                                                   measure_cfg_fine):
    t0 = time.perf_counter()
    predicted = report_family1.dphi_dalpha
    psi = {}
    for alpha in (0.02, -0.02):
        p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
        psi[alpha] = measure_steady_angle(p, measure_cfg_fine,
                                          psi_seed=predicted * alpha)["psi"]
    measured = (psi[0.02] - psi[-0.02]) / 0.04
    rel = abs(measured - predicted) / abs(predicted)
    ok = rel <= 0.15
    assert _verdict(7, ok, f"measured {measured:.4f} vs predicted "
                    f"{predicted:.4f} ({100 * rel:.1f}%)", t0)


def test_criterion_08_kernel_directions(theta_half_fine):
    t0 = time.perf_counter()
    checks = {s: kernel_check_2d(theta_half_fine.restrict(s), 0.5)
              for s in (2, 4)}
    order_fwd = np.log2(checks[4].forward_residual / checks[2].forward_residual)
    order_adj = np.log2(checks[4].adjoint_residual / checks[2].adjoint_residual)
    th0 = solve_theta(0.0, 16.0, 16.0, h=0.25, dt=0.25, tol=1e-9)
    chk0 = kernel_check_2d(th0, 0.0)
    sym_gap = abs(chk0.forward_residual - chk0.adjoint_residual)
    ok = order_fwd >= 1.8 and order_adj >= 1.8 and sym_gap < 1e-12
    assert _verdict(8, ok, f"orders fwd {order_fwd:.2f} / adj {order_adj:.2f}, "
                    f"self-adjoint gap {sym_gap:.1e}", t0)


def test_criterion_09_one_dimensional_spectra():
    t0 = time.perf_counter()
    grid = Grid1D(-20.0, 20.0, 2001)
    eig_const = max_real_eig_1d(
        LinearOperator1D(grid=grid, c_x=0.0, q=np.full(grid.n, -1.0)))
    bench_const = -1.0 - (np.pi / 40.0) ** 2
    front_grid = Grid1D.symmetric(20.0, 0.02)
    x = front_grid.nodes()
    eig_tanh = max_real_eig_1d(LinearOperator1D(
        grid=front_grid, c_x=0.0, q=1.0 - 3.0 * np.tanh(x / SQRT2) ** 2))
    prof = solve_quench_front("top", ModelParams(c_x=0.5),
                              Grid1D.symmetric(30.0, 0.02))
    eig_front = max_real_eig_1d(quench_front_operator(prof, 0.5))
    ok = (abs(eig_const - bench_const) < 1e-6 and abs(eig_tanh) < 2e-3
          and eig_front < -0.05)
    assert _verdict(9, ok, f"benchmark gap {abs(eig_const - bench_const):.1e}, "
                    f"translation mode {eig_tanh:+.1e}, "
                    f"front spectrum bound {eig_front:+.4f}", t0)


def test_criterion_10_structure(rng):
    t0 = time.perf_counter()
    spec = PartitionSpec(R=12.0)
    pts = rng.uniform(-150.0, 150.0, (100000, 2))
    parts = partition_of_unity(spec, pts[:, 0], pts[:, 1])
    sum_defect = np.max(np.abs(parts[0] + parts[1] + parts[2] + parts[3]
                               + parts[4] - 1.0))
    # roundtrip at the scale the shear operates on (the bordered domain)
    sspec = ShearSpec(psi=0.35)
    cloud = rng.uniform(-30.0, 30.0, (100000, 2))
    xt, yt = shear_map(cloud[:, 0], cloud[:, 1], sspec)
    xb, yb = shear_inverse(xt, yt, sspec)
    roundtrip = max(np.max(np.abs(xb - cloud[:, 0])),
                    np.max(np.abs(yb - cloud[:, 1])))

    p = ModelParams(c_x=0.5)
    h = 0.5
    w = Field2D.on_rectangle(80.0, 80.0, h)
    grid1 = Grid1D.symmetric(80.0, h)
    profiles = build_profiles(p, grid1, grid1)
    X, Y = np.meshgrid(w.x, w.y)
    rr = np.hypot(X, Y)
    sups = []
    for R in (20.0, 30.0, 40.0):
        r = residual_F(w, 0.0, PartitionSpec(R=R), profiles)
        ann = (rr >= R + 2 * h) & (rr <= 2 * R)
        sups.append(np.max(np.abs(r.data[ann])))
    ok = (sum_defect <= 1e-15 and roundtrip < 1e-14
          and sups[0] > sups[1] > sups[2])
    assert _verdict(10, ok, f"partition defect {sum_defect:.1e}, shear "
                    f"roundtrip {roundtrip:.1e}, annulus residuals "
                    + "/".join(f"{s:.1e}" for s in sups), t0)


def test_criterion_11_bordered_vs_marching(theta_half_mid, measure_cfg_fine,
                                           report_family1):
    t0 = time.perf_counter()
    spec = PartitionSpec(R=12.0)
    p0 = ModelParams(c_x=0.5)
    cc0 = solve_bordered(p0, spec, half_width=30.0, h=0.25,
                         theta=theta_half_mid)
    ok = abs(cc0.psi) < 1e-6

    details = [f"psi(0) = {cc0.psi:+.2e}"]
    for alpha in (0.1, -0.1):
        p = ModelParams(c_x=0.5, alpha=alpha, g_right=(1.0,))
        cc = solve_bordered(p, spec, half_width=30.0, h=0.25,
                            theta=theta_half_mid)
        seed = report_family1.dphi_dalpha * alpha
        measured = measure_steady_angle(p, measure_cfg_fine, psi_seed=seed)["psi"]
        gap = abs(cc.psi - measured)
        ok = ok and gap < 0.01
        details.append(f"alpha={alpha:+.1f}: bordered {cc.psi:+.5f} vs "
                       f"marching {measured:+.5f} (gap {gap:.4f})")
    assert _verdict(11, ok, "; ".join(details), t0)
