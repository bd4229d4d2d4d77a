import numpy as np
import pytest

from quenchlab.errors import AngleOutOfRange, DomainTooSmall, OutOfProfileRange
from quenchlab.model import ModelParams
from quenchlab.profiles1d import (Grid1D, Profile1D, angle_from_speed,
                                  cn_prime_quadrature, export_profile,
                                  frame_speed, solve_quench_front,
                                  solve_traveling_wave)

SQRT2 = np.sqrt(2.0)


def analytic_tanh_profile(grid: Grid1D) -> Profile1D:
    """The balanced front tanh(x/sqrt(2)) as a Profile1D reference."""
    vals = np.tanh(grid.nodes() / SQRT2)
    return Profile1D(grid=grid, values=vals, limit_left=-1.0, limit_right=1.0,
                     residual_norm=0.0, kind="analytic_tanh")


def test_grid_basics():
    g = Grid1D.symmetric(30.0, 0.025)
    assert g.h == pytest.approx(0.025)
    assert g.n == 2401
    assert g.nodes()[g.index_of_origin()] == 0.0
    with pytest.raises(ValueError):
        Grid1D(0.1, 10.0, 100).index_of_origin()


def test_front_value_at_origin_converges_second_order():
    p = ModelParams()
    vals = {}
    for h in (0.05, 0.025):
        prof = solve_quench_front("top", p, Grid1D.symmetric(30.0, h))
        vals[h] = prof.values[prof.grid.index_of_origin()]
    e_coarse = vals[0.05] - 0.5
    e_fine = vals[0.025] - 0.5
    assert 3.3 < e_coarse / e_fine < 4.7  # second-order convergence to 1/2


def test_front_slope_at_origin():
    # centered slope plus the known kink correction h*jump(u_xx)/4
    h = 0.0125
    prof = solve_quench_front("top", ModelParams(), Grid1D.symmetric(30.0, h))
    i0 = prof.grid.index_of_origin()
    slope = (prof.values[i0 + 1] - prof.values[i0 - 1]) / (2 * h)
    slope -= h * 2.0 * prof.values[i0] / 4.0
    assert slope == pytest.approx(-3.0 / (4.0 * SQRT2), abs=2e-5)


def test_front_bottom_is_reflected_top():
    p = ModelParams(c_x=0.7)
    grid = Grid1D.symmetric(30.0, 0.025)
    top = solve_quench_front("top", p, grid)
    bottom = solve_quench_front("bottom", p, grid)
    assert np.max(np.abs(bottom.values + top.values)) < 1e-10


def test_front_limits_and_monotonicity():
    prof = solve_quench_front("top", ModelParams(c_x=0.5),
                              Grid1D.symmetric(30.0, 0.025))
    assert prof.limit_left == pytest.approx(1.0)
    assert prof.limit_right == pytest.approx(0.0)
    assert np.all(np.diff(prof.values) < 1e-12)
    assert prof.residual_norm < 1e-10


def test_front_exponential_tail():
    prof = solve_quench_front("top", ModelParams(c_x=0.5),
                              Grid1D.symmetric(30.0, 0.025))
    x = prof.grid.nodes()
    m = (x > 5.0) & (x < 15.0)
    decay = np.log(np.abs(prof.values[m] - prof.limit_right))
    lam = -np.polyfit(x[m], decay, 1)[0]
    assert lam > 0.5  # exponential approach to the right state


def test_front_domain_too_small():
    with pytest.raises(DomainTooSmall):
        solve_quench_front("top", ModelParams(), Grid1D.symmetric(4.0, 0.025))


def test_profile_interpolation_and_range():
    prof = solve_quench_front("top", ModelParams(), Grid1D.symmetric(30.0, 0.025))
    nodes = prof.grid.nodes()
    np.testing.assert_allclose(prof.values_at(nodes[3:8]), prof.values[3:8],
                               atol=1e-12)
    assert prof.values_at(200.0) == prof.limit_right  # converged tail extends
    short = analytic_tanh_profile(Grid1D.symmetric(8.0, 0.02))
    with pytest.raises(OutOfProfileRange):
        short.values_at(-9.0)  # tanh(8/sqrt 2) is 2e-5 away from its limit


@pytest.mark.parametrize("kind", ["top", "traveling_wave"])
def test_values_at_is_linear_between_nodes(kind):
    p = ModelParams(c_x=0.5, alpha=0.1, g_left=(0.3, -0.2, 0.5, 0.4),
                    g_right=(1.0,))
    grid = Grid1D.symmetric(30.0, 0.02)
    prof = (solve_quench_front(kind, p, grid) if kind == "top"
            else solve_traveling_wave(p, grid).profile)
    nodes = prof.grid.nodes()
    lo, hi = prof.grid.x_min, prof.grid.x_max
    x = np.concatenate((np.random.default_rng(3).uniform(lo, hi, 20000),
                        nodes, [lo, hi]))
    got = prof.values_at(x)
    ref = np.interp(x, nodes, prof.values)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    # beyond the ends the converged tails extend by their limits
    assert prof.values_at(lo - 0.5) == prof.limit_left
    assert prof.values_at(hi + 0.5) == prof.limit_right


def test_traveling_wave_balanced():
    sol = solve_traveling_wave(ModelParams(), Grid1D.symmetric(30.0, 0.01))
    assert abs(sol.speed) < 1e-10
    xi = sol.profile.grid.nodes()
    m = np.abs(xi) <= 10.0
    assert np.max(np.abs(sol.profile.values[m] - np.tanh(xi[m] / SQRT2))) < 3e-6
    i0 = sol.profile.grid.index_of_origin()
    assert abs(sol.profile.values[i0]) < 1e-12  # phase condition


def test_traveling_wave_speed_slope_constant_g():
    grid = Grid1D.symmetric(30.0, 0.01)
    delta = 1e-3
    cp = solve_traveling_wave(ModelParams(alpha=delta, g_left=(1.0,)), grid).speed
    cm = solve_traveling_wave(ModelParams(alpha=-delta, g_left=(1.0,)), grid).speed
    slope = (cp - cm) / (2 * delta)
    target = 3.0 / SQRT2
    assert abs(abs(slope) - target) / target < 1e-3
    assert np.sign(slope) == np.sign(cn_prime_quadrature((1.0,))[0])


def test_traveling_wave_odd_g_keeps_zero_speed():
    sol = solve_traveling_wave(ModelParams(alpha=0.05, g_left=(0.0, 1.0)),
                               Grid1D.symmetric(30.0, 0.01))
    assert abs(sol.speed) < 1e-10


def test_speed_smooth_in_alpha_matches_quadrature():
    grid = Grid1D.symmetric(30.0, 0.01)
    alphas = np.array([-0.04, -0.02, 0.0, 0.02, 0.04])
    speeds = [solve_traveling_wave(ModelParams(alpha=a, g_left=(1.0,)), grid).speed
              for a in alphas]
    coef = np.polyfit(alphas, speeds, 3)  # odd series: cubic term is present
    slope = coef[2]
    target, _ = cn_prime_quadrature((1.0,))
    assert abs(slope - target) / abs(target) < 1e-3


def test_cn_prime_quadrature_values():
    from scipy.integrate import quad

    got, err = cn_prime_quadrature((1.0,))
    assert got == pytest.approx(-3.0 / SQRT2, abs=1e-14)
    assert err < 1e-14  # the trapezoid rule has converged at spacing 1/4
    # independent adaptive oracle for numerator and denominator
    num = quad(lambda y: (1 - np.tanh(y / SQRT2) ** 2) / SQRT2, -50, 50,
               epsabs=1e-13)[0]
    den = quad(lambda y: ((1 - np.tanh(y / SQRT2) ** 2) / SQRT2) ** 2, -50, 50,
               epsabs=1e-13)[0]
    assert got == pytest.approx(-num / den, abs=1e-10)
    assert num == pytest.approx(2.0, abs=1e-10)
    assert den == pytest.approx(2.0 * SQRT2 / 3.0, abs=1e-10)

    assert cn_prime_quadrature((0.0, 1.0))[0] == pytest.approx(0.0, abs=1e-12)

    got2, _ = cn_prime_quadrature((0.0, 0.0, 0.5))
    num2 = quad(lambda y: 0.5 * np.tanh(y / SQRT2) ** 2
                * (1 - np.tanh(y / SQRT2) ** 2) / SQRT2, -50, 50, epsabs=1e-13)[0]
    assert num2 == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert got2 == pytest.approx(-1.0 / (2.0 * SQRT2), abs=1e-10)


def test_frame_speed_and_angle_from_speed():
    # the speed relation c_y cos(psi) + c_x sin(psi) = c_n both ways
    cn = solve_traveling_wave(ModelParams(c_x=0.5, alpha=0.02, g_left=(1.0,)),
                              Grid1D.symmetric(30.0, 0.01)).speed
    assert frame_speed(0.0, cn, 0.5) == pytest.approx(cn, abs=1e-14)
    assert angle_from_speed(cn, cn, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert frame_speed(0.3, 0.0, 0.5) == pytest.approx(-0.5 * np.tan(0.3), abs=1e-10)
    assert angle_from_speed(-0.5 * np.tan(0.3), 0.0, 0.5) == pytest.approx(
        0.3, abs=1e-14)
    # at the symmetric point dc_y/dpsi = -c_x, and dpsi/dc_y = -1/c_x
    d = 1e-5
    slope = (frame_speed(d, 0.0, 0.5) - frame_speed(-d, 0.0, 0.5)) / (2 * d)
    assert slope == pytest.approx(-0.5, abs=1e-8)
    slope = (angle_from_speed(d, 0.0, 0.5) - angle_from_speed(-d, 0.0, 0.5)) / (2 * d)
    assert slope == pytest.approx(-2.0, abs=1e-8)
    # exactly odd in c_y when c_n = 0
    assert angle_from_speed(-0.0317, 0.0, 0.5) == -angle_from_speed(0.0317, 0.0, 0.5)
    with pytest.raises(AngleOutOfRange):
        frame_speed(2.0, 0.0, 0.5)
    with pytest.raises(AngleOutOfRange):
        angle_from_speed(0.1, 0.6, 0.5)


def test_analytic_tanh_profile():
    prof = analytic_tanh_profile(Grid1D.symmetric(20.0, 0.1))
    assert prof.kind == "analytic_tanh"
    assert prof.values_at(0.0) == pytest.approx(0.0, abs=1e-14)


def test_export_profile(tmp_path):
    prof = solve_quench_front("top", ModelParams(c_x=0.5),
                              Grid1D.symmetric(16.0, 0.05))
    base = str(tmp_path / "front")
    export_profile(prof, base, ModelParams(c_x=0.5))
    lines = (tmp_path / "front.csv").read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == prof.grid.n + 1
    meta = (tmp_path / "front.meta").read_text()
    assert "kind = top" in meta and "c_x = 0.5" in meta
