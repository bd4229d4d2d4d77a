import numpy as np
import pytest

from quenchlab.errors import DegenerateMpsi, NonFinite
from quenchlab.melnikov import (build_report, contact_line_integral,
                                dphi_dalpha, m_alpha, m_psi_detail,
                                write_report)
from quenchlab.model import ModelParams
from quenchlab.quench2d import Field2D

SQRT2 = np.sqrt(2.0)


def test_m_psi_vanishes_for_y_independent_field():
    f = Field2D.on_rectangle(20.0, 20.0, 0.5)
    f.data[:] = np.tanh(-f.x)[None, :]
    assert m_psi_detail(f, 0.5)[0] == 0.0


def test_m_psi_negative_on_symmetric_state(theta_half_small):
    value = m_psi_detail(theta_half_small, 0.5)[0]
    assert value < -0.1


def test_m_psi_truncation_estimate(theta_half_small):
    value, err = m_psi_detail(theta_half_small, 0.5)
    assert err < 0.05 * abs(value)


def test_m_psi_detects_undecayed_boundary():
    f = Field2D.on_rectangle(10.0, 10.0, 0.5)
    f.data[:] = f.y[:, None] * np.ones_like(f.x)[None, :]
    with pytest.raises(NonFinite):
        m_psi_detail(f, 0.5)


def test_contact_integral_zero_without_perturbation(fronts_cx_half):
    top, bottom = fronts_cx_half
    value, err = contact_line_integral(top, bottom, ModelParams(c_x=0.5))
    assert value == 0.0 and err == 0.0


def test_m_alpha_signs(theta_half_small, fronts_cx_half):
    top, bottom = fronts_cx_half
    mp = m_psi_detail(theta_half_small, 0.5)[0]
    # right-side constant forcing tilts the angle up
    p1 = ModelParams(c_x=0.5, g_right=(1.0,))
    assert m_alpha(top, bottom, p1, mp, 0.0) > 0.1
    # left-side even forcing: near-cancelling contributions, net negative
    p2 = ModelParams(c_x=0.5, g_left=(0.0, 0.0, 0.5))
    cn_prime = -1.0 / (2.0 * SQRT2)
    assert m_alpha(top, bottom, p2, mp, cn_prime) < 0.0


def test_m_alpha_linear_in_g(theta_half_small, fronts_cx_half):
    top, bottom = fronts_cx_half
    mp = m_psi_detail(theta_half_small, 0.5)[0]
    one = m_alpha(top, bottom, ModelParams(c_x=0.5, g_right=(1.0,)), mp, 0.0)
    two = m_alpha(top, bottom, ModelParams(c_x=0.5, g_right=(2.0,)), mp, 0.0)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_m_alpha_requires_transport():
    f = Field2D.on_rectangle(5.0, 5.0, 0.5)
    with pytest.raises(ValueError):
        m_alpha(None, None, ModelParams(c_x=0.0), -1.0, 0.0)


def test_dphi_dalpha_assembly():
    rep = dphi_dalpha(-0.5, 0.0, 0.0, 0.5)
    assert rep.dphi_dalpha == 0.0
    rep = dphi_dalpha(-0.5, 0.9, 0.0, 0.5)
    assert rep.dphi_dalpha == pytest.approx(1.8)
    assert rep.m_alpha == rep.geometric_term + rep.contact_line_term


def test_dphi_sign_identity(rng):
    # with m_psi < 0 the angle response carries the sign of m_alpha
    for _ in range(50):
        mp = -rng.uniform(0.1, 2.0)
        ma = rng.uniform(-2.0, 2.0)
        rep = dphi_dalpha(mp, ma, 0.0, 0.5)
        assert np.sign(rep.dphi_dalpha) == np.sign(ma)


def test_dphi_degenerate_m_psi():
    with pytest.raises(DegenerateMpsi):
        dphi_dalpha(-1e-12, 1.0, 0.0, 0.5)
    with pytest.raises(DegenerateMpsi):
        dphi_dalpha(0.3, 1.0, 0.0, 0.5)


def test_geometric_term_isolated(theta_half_small, fronts_cx_half):
    # zero left forcing: the frame-speed response is absent and m_alpha is
    # purely the contact-line integral
    top, bottom = fronts_cx_half
    p = ModelParams(c_x=0.5, g_right=(1.0,))
    rep = build_report(theta_half_small, top, bottom, p)
    assert rep.cn_prime == pytest.approx(0.0, abs=1e-12)
    assert rep.geometric_term == pytest.approx(0.0, abs=1e-12)
    contact, _ = contact_line_integral(top, bottom, p)
    assert rep.m_alpha == pytest.approx(-contact, rel=1e-12)


def test_build_report_and_write(theta_half_small, fronts_cx_half, tmp_path):
    top, bottom = fronts_cx_half
    p = ModelParams(c_x=0.5, g_right=(1.0,))
    rep = build_report(theta_half_small, top, bottom, p)
    assert rep.m_psi < 0 and rep.m_alpha > 0 and rep.dphi_dalpha > 0
    assert set(rep.quadrature_error) == {"m_psi_truncation", "contact_line",
                                         "cn_prime"}
    path = tmp_path / "report.txt"
    write_report(rep, str(path))
    lines = path.read_text().splitlines()
    assert any(ln.startswith("m_psi = ") for ln in lines)
    assert any(ln.startswith("dphi_dalpha = ") for ln in lines)
    # a half-domain truncation estimate, named so it is not read as an h-error
    assert any(ln.startswith("error.m_psi_truncation = ") for ln in lines)
    assert not any(ln.startswith("error.m_psi = ") for ln in lines)
