import numpy as np
import pytest

from quenchlab.errors import DegenerateMpsi, NonFinite
from quenchlab.melnikov import (build_report, contact_line_integral,
                                m_psi_detail, write_report)
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


#: the acceptance suite's two perturbation families: right-side constant
#: forcing, and left-side even forcing
_FAMILY_1 = ModelParams(c_x=0.5, g_right=(1.0,))
_FAMILY_2 = ModelParams(c_x=0.5, g_left=(0.0, 0.0, 0.5))


def test_m_alpha_signs(theta_half_small, fronts_cx_half):
    top, bottom = fronts_cx_half
    # right-side constant forcing tilts the angle up
    rep = build_report(theta_half_small, top, bottom, _FAMILY_1)
    assert rep.m_alpha > 0.1 and rep.dphi_dalpha > 0
    # left-side even forcing: near-cancelling contributions, net negative
    rep = build_report(theta_half_small, top, bottom, _FAMILY_2)
    assert rep.cn_prime == pytest.approx(-1.0 / (2.0 * SQRT2), abs=1e-10)
    assert rep.quadrature_error["cn_prime"] < 1e-14
    assert rep.m_alpha < 0.0 and rep.dphi_dalpha < 0.0


def test_m_alpha_linear_in_g(theta_half_small, fronts_cx_half):
    top, bottom = fronts_cx_half
    one, two = (build_report(theta_half_small, top, bottom,
                             ModelParams(c_x=0.5, g_right=(g,))).m_alpha
                for g in (1.0, 2.0))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_m_alpha_requires_transport(theta_half_small, fronts_cx_half):
    # without transport m_psi vanishes and the report is rejected
    top, bottom = fronts_cx_half
    with pytest.raises(DegenerateMpsi):
        build_report(theta_half_small, top, bottom,
                     ModelParams(c_x=0.0, g_right=(1.0,)))


def test_dphi_dalpha_assembly(theta_half_small, fronts_cx_half):
    top, bottom = fronts_cx_half
    p = _FAMILY_2.replace(g_right=(0.3, 1.0))
    rep = build_report(theta_half_small, top, bottom, p)
    assert rep.geometric_term != 0.0 and rep.contact_line_term != 0.0
    assert rep.m_alpha == rep.geometric_term + rep.contact_line_term
    assert rep.dphi_dalpha == -rep.m_alpha / rep.m_psi


def test_dphi_sign_identity(theta_half_small, fronts_cx_half):
    # with m_psi < 0 the angle response carries the sign of m_alpha
    top, bottom = fronts_cx_half
    for p in (_FAMILY_1, _FAMILY_2):
        rep = build_report(theta_half_small, top, bottom, p)
        assert rep.m_psi < 0
        assert np.sign(rep.dphi_dalpha) == np.sign(rep.m_alpha) != 0


def test_dphi_degenerate_m_psi(fronts_cx_half):
    f = Field2D.on_rectangle(20.0, 20.0, 0.5)
    f.data[:] = np.tanh(-f.x)[None, :]
    with pytest.raises(DegenerateMpsi):
        build_report(f, *fronts_cx_half, _FAMILY_1)


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
