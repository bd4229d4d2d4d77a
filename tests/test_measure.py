import numpy as np
import pytest

from quenchlab.errors import InsufficientPoints, NoCrossing
from quenchlab.measure import ContactRecorder, fit_contact_angle, zero_level_set
from quenchlab.quench2d import Field2D


def field_from(fn, half=30.0, h=0.5):
    f = Field2D.on_rectangle(half, half, h)
    X, Y = np.meshgrid(f.x, f.y)
    f.data[:] = fn(X, Y)
    return f


def test_zero_level_set_plane():
    nodal = zero_level_set(field_from(lambda X, Y: Y))
    np.testing.assert_allclose(nodal.y, 0.0, atol=1e-14)
    assert len(nodal.no_crossing_x) == 0


def test_zero_level_set_tilted():
    nodal = zero_level_set(field_from(lambda X, Y: Y + X / 2.0))
    keep = np.abs(nodal.y) < 29.0  # crossings near the frame edge drop out
    np.testing.assert_allclose(nodal.y[keep], -nodal.x[keep] / 2.0, atol=1e-12)


def test_zero_level_set_reports_problem_columns():
    def fn(X, Y):
        out = Y.copy()
        out[:, X[0] > 10] = 1.0          # right farfield: no crossing
        wig = np.abs(X[0] + 20) < 1e-9   # one wiggly column
        out[:, wig] = np.sin(Y[:, wig])
        return out

    nodal = zero_level_set(field_from(fn))
    assert all(x > 10 for x in nodal.no_crossing_x)
    assert nodal.multi_crossing_x == [-20.0]
    assert -20.0 not in nodal.x


def test_zero_level_set_raises_without_any_crossing():
    with pytest.raises(NoCrossing):
        zero_level_set(field_from(lambda X, Y: np.ones_like(X)))


def test_fit_contact_angle_linear():
    nodal = zero_level_set(field_from(lambda X, Y: Y + 0.2 * X))
    m = fit_contact_angle(nodal, (-25.0, -6.0))
    assert m.psi == pytest.approx(np.arctan(0.2), abs=1e-12)
    assert m.phi == np.pi / 2 + m.psi
    assert m.rms_fit_error < 1e-12
    assert m.n_points >= 20


def test_fit_contact_angle_guards():
    nodal = zero_level_set(field_from(lambda X, Y: Y))
    with pytest.raises(ValueError):
        fit_contact_angle(nodal, (-25.0, 0.0))
    with pytest.raises(InsufficientPoints):
        fit_contact_angle(nodal, (-8.0, -6.0))


def test_angle_invariant_under_rescaling():
    f = field_from(lambda X, Y: Y + 0.13 * X)
    g = f.copy_with(5.0 * f.data)
    m1 = fit_contact_angle(zero_level_set(f), (-25.0, -6.0))
    m2 = fit_contact_angle(zero_level_set(g), (-25.0, -6.0))
    assert m1.psi == m2.psi


def test_angle_flips_under_reflection():
    f = field_from(lambda X, Y: Y + 0.13 * X)
    g = f.copy_with(f.data[::-1, :])
    m1 = fit_contact_angle(zero_level_set(f), (-25.0, -6.0))
    m2 = fit_contact_angle(zero_level_set(g), (-25.0, -6.0))
    assert m2.psi == pytest.approx(-m1.psi, abs=1e-14)


def test_contact_recorder():
    f = field_from(lambda X, Y: Y, half=5.0, h=0.5)
    rec = ContactRecorder(f)
    for k in range(12):
        rec(k, 2.0 * k, f.data + 0.1 * k)  # creeping offset
    times, heights = rec.track()
    np.testing.assert_array_equal(times, 2.0 * np.arange(12))
    np.testing.assert_allclose(heights, -0.1 * np.arange(12), atol=1e-14)


def test_drift_in_static_frame_matches_geometric_speed():
    # in a static frame the comoving steady state drifts at its frame speed
    # c_y, which the geometric relation assigns to the measured angle
    from quenchlab.cli import ExperimentConfig, measure_steady_angle
    from quenchlab.model import ModelParams
    from quenchlab.profiles1d import Grid1D, cy_from_angle

    p = ModelParams(c_x=0.5, alpha=0.1, g_left=(1.0,))
    cfg = ExperimentConfig(c_x=0.5, grid2d_half_width_x=50.0,
                           grid2d_half_width_y=50.0, grid2d_h=0.5,
                           solver_dt=0.25, measure_window_lo=-25.0,
                           measure_window_hi=-8.0)
    result = measure_steady_angle(p, cfg)
    predicted = cy_from_angle(result["psi"], p, Grid1D.symmetric(30.0, 0.01))
    assert abs(result["c_y"] - predicted) / abs(predicted) < 0.10


def test_theta_angle_is_zero(theta_half_small):
    nodal = zero_level_set(theta_half_small)
    m = fit_contact_angle(nodal, (-18.0, -8.0))
    assert abs(m.psi) < 0.005
    np.testing.assert_allclose(nodal.y[nodal.x < 0], 0.0, atol=1e-8)


def test_fit_window_insensitivity(theta_half_small):
    nodal = zero_level_set(theta_half_small)
    m1 = fit_contact_angle(nodal, (-18.0, -8.0))
    m2 = fit_contact_angle(nodal, (-15.0, -8.0))
    assert abs(m1.psi - m2.psi) <= max(m1.rms_fit_error, 1e-9)
