import numpy as np
import pytest

from quenchlab.measure import ContactRecorder
from quenchlab.quench2d import Field2D


def test_contact_recorder():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    f.data[:] = f.y[:, None]
    rec = ContactRecorder(f)
    for k in range(12):
        rec(k, 2.0 * k, f.data + 0.1 * k)  # creeping offset
    times, heights = rec.track()
    np.testing.assert_array_equal(times, 2.0 * np.arange(12))
    np.testing.assert_allclose(heights, -0.1 * np.arange(12), atol=1e-14)


def test_marched_angle_round_trips_through_frame_speed():
    # where c_n != 0 the marched psi is the exact inverse of the speed
    # relation at the solved c_y (a line fitted to the nodal line missed the
    # solved c_y by about 0.7 % here)
    from quenchlab.cli import ExperimentConfig, measure_steady_angle
    from quenchlab.model import ModelParams
    from quenchlab.profiles1d import frame_speed, solve_traveling_wave

    p = ModelParams(c_x=0.5, alpha=0.1, g_left=(1.0,))
    cfg = ExperimentConfig(c_x=0.5, grid2d_half_width_x=50.0,
                           grid2d_half_width_y=50.0, grid2d_h=0.5,
                           solver_dt=0.25, measure_window_lo=-25.0,
                           measure_window_hi=-8.0)
    result = measure_steady_angle(p, cfg)
    c_n = solve_traveling_wave(p, cfg.grid1d()).speed
    assert abs(c_n) > 0.1
    assert frame_speed(result["psi"], c_n, p.c_x) == pytest.approx(
        result["c_y"], rel=1e-14, abs=0.0)
