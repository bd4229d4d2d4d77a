import numpy as np
import pytest

from quenchlab.errors import NoConvergence
from quenchlab.model import (ModelParams, mu, origin_index,
                             poly_antiderivative, poly_derivative, poly_eval,
                             potential_G, reaction, side_average, stable_zeros)


def test_mu_signs():
    assert mu(-5.0) == 1.0
    assert mu(3.0) == -1.0
    assert mu(0.0) == -1.0  # right-continuous convention
    np.testing.assert_array_equal(mu(np.array([-1.0, 0.0, 2.0])), [1.0, -1.0, -1.0])


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(c_x=-0.1)
    with pytest.raises(ValueError):
        ModelParams(g_left=(1, 2, 3, 4, 5))  # degree 4


def test_reaction_examples():
    p0 = ModelParams()
    assert reaction(-1.0, 1.0, p0) == pytest.approx(0.0, abs=1e-15)
    assert reaction(1.0, 0.0, p0) == pytest.approx(0.0, abs=1e-15)
    p = ModelParams(alpha=0.2, g_right=(1.0,))
    assert reaction(1.0, 0.0, p) == pytest.approx(0.2, abs=1e-15)


def test_reaction_odd_symmetry(rng):
    # for odd g on both sides the reaction is odd in u at fixed x
    p = ModelParams(alpha=0.07, g_left=(0.0, 1.0), g_right=(0.0, -2.0, 0.0, 0.5))
    u = rng.uniform(-1.5, 1.5, 200)
    for x in (-2.0, 3.0):
        np.testing.assert_allclose(reaction(x, -u, p), -reaction(x, u, p),
                                   rtol=0, atol=1e-14)


def test_potential_examples():
    p = ModelParams(alpha=0.3, g_right=(1.0,))
    u = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(potential_G(2.0, u, p), -u, atol=1e-15)
    assert potential_G(2.0, 0.7, ModelParams()) == 0.0
    p2 = ModelParams(g_left=(0.0, 0.0, 0.5))
    assert potential_G(-1.0, 1.0, p2) == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_potential_derivative_is_minus_g():
    # analytic: differentiating the antiderivative returns the coefficients
    for coef in [(), (1.0,), (0.5, -1.0, 0.25, 2.0)]:
        assert poly_derivative(poly_antiderivative(coef)) == tuple(coef)


def test_stable_zeros_unperturbed():
    b = stable_zeros(ModelParams())
    assert (b.z_minus, b.z_zero, b.z_plus) == (-1.0, 0.0, 1.0)


def test_stable_zeros_first_order_and_oracle():
    p = ModelParams(g_left=(1.0,), g_right=(1.0,))
    alpha = 0.01
    b = stable_zeros(p.replace(alpha=alpha))
    # independent oracle: all roots of the one-sided cubics via numpy
    left_roots = np.roots([-1.0, 0.0, 1.0, alpha])     # -u^3 + u + alpha
    right_roots = np.roots([-1.0, 0.0, -1.0, alpha])   # -u^3 - u + alpha
    zp_ref = min((r.real for r in left_roots if abs(r.imag) < 1e-12),
                 key=lambda r: abs(r - 1.0))
    z0_ref = min((r.real for r in right_roots if abs(r.imag) < 1e-12),
                 key=lambda r: abs(r))
    assert b.z_plus == pytest.approx(zp_ref, abs=1e-10)
    assert b.z_zero == pytest.approx(z0_ref, abs=1e-10)
    # first-order perturbation formulas
    assert b.z_plus == pytest.approx(1.0 + alpha / 2.0, abs=5 * alpha**2)
    assert b.z_zero == pytest.approx(alpha, abs=5 * alpha**2)


def test_stable_zeros_quadratic_keeps_origin():
    p = ModelParams(g_left=(0.0, 0.0, 0.5))
    for alpha in (0.05, -0.1, 0.2):
        assert stable_zeros(p.replace(alpha=alpha)).z_zero == 0.0


def test_stable_zeros_residuals():
    p = ModelParams(g_left=(0.3, 0.0, 0.5), g_right=(1.0,))
    b = stable_zeros(p.replace(alpha=0.05))
    assert abs(reaction(-1.0, b.z_minus, p.replace(alpha=0.05))) < 1e-12
    assert abs(reaction(-1.0, b.z_plus, p.replace(alpha=0.05))) < 1e-12
    assert abs(reaction(1.0, b.z_zero, p.replace(alpha=0.05))) < 1e-12


def test_stable_zeros_symmetric_for_odd_g(rng):
    p = ModelParams(g_left=(0.0, 1.0), g_right=(0.0, 1.0))
    b = stable_zeros(p.replace(alpha=0.04))
    assert b.z_minus == pytest.approx(-b.z_plus, abs=1e-13)
    assert b.z_zero == pytest.approx(0.0, abs=1e-13)


def test_fold_detection():
    # beyond the cusp of u - u^3 + alpha the bistable pair disappears
    with pytest.raises(NoConvergence):
        stable_zeros(ModelParams(alpha=0.4, g_left=(1.0,)))


def test_side_average_sampling():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert origin_index(x) == 2
    np.testing.assert_array_equal(side_average(x, 1.0, -1.0),
                                  [1.0, 1.0, 0.0, -1.0, -1.0])
    # array values: one-sided off x = 0, the mean on the x = 0 column
    left = np.arange(10.0).reshape(2, 5)
    right = -10.0 * left
    got = side_average(x, left, right)
    np.testing.assert_array_equal(got[:, :2], left[:, :2])
    np.testing.assert_array_equal(got[:, 3:], right[:, 3:])
    np.testing.assert_array_equal(got[:, 2], 0.5 * (left[:, 2] + right[:, 2]))
    # a grid without an x = 0 node is sampled one-sidedly everywhere
    xs = x + 0.25
    assert origin_index(xs) is None
    np.testing.assert_array_equal(side_average(xs, left, right),
                                  np.where(xs < 0, left, right))
