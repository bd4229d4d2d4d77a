import warnings

import numpy as np
import pytest

from quenchlab.errors import NoConvergence
from quenchlab.model import (ModelParams, origin_index, poly_antiderivative,
                             poly_derivative, potential_G, reaction,
                             reaction_derivative, reaction_jacobian,
                             side_average, stable_zeros)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(c_x=-0.1)
    with pytest.raises(ValueError):
        ModelParams(g_left=(1, 2, 3, 4, 5))  # degree 4


def test_reaction_examples():
    x = np.array([-1.0, 1.0])
    p0 = ModelParams()
    np.testing.assert_allclose(reaction(x, np.array([1.0, 0.0]), p0, 2.0),
                               [0.0, 0.0], rtol=0, atol=1e-15)
    p = ModelParams(alpha=0.2, g_right=(1.0,))
    np.testing.assert_allclose(reaction(x, np.array([1.0, 0.0]), p, 2.0),
                               [0.0, 0.2], rtol=0, atol=1e-15)


def test_reaction_odd_symmetry(rng):
    # for odd g on both sides the reaction is odd in u, the x = 0 node too
    p = ModelParams(c_x=0.5, alpha=0.07, g_left=(0.0, 1.0),
                    g_right=(0.0, -2.0, 0.0, 0.5))
    x = 0.5 * np.arange(-4, 5)
    u = rng.uniform(-1.5, 1.5, (200, x.size))
    np.testing.assert_allclose(reaction(x, -u, p, 0.5), -reaction(x, u, p, 0.5),
                               rtol=0, atol=1e-14)


def test_reaction_derivative_matches_differences(rng):
    # reaction_jacobian is d reaction/du on every node, the x = 0 node's jump
    # correction included; off x = 0 the kinetics are pointwise, and its
    # main diagonal is q there
    p = ModelParams(c_x=0.5, alpha=0.3, g_left=(0.2, -1.0, 0.5, 1.5),
                    g_right=(-0.4, 0.7, 1.0, -2.0))
    x = 0.25 * np.arange(-6, 7)
    off = x != 0.0
    k = np.arange(x.size)
    d = 1e-6
    for u in (rng.uniform(-1.5, 1.5, x.size),
              rng.uniform(-1.5, 1.5, (50, x.size))):
        sub, main, sup = reaction_jacobian(x, u, p, 0.25)
        jac = np.zeros(u.shape + (x.size,))  # [..., i, j] = d r_i / d u_j
        jac[..., k, k] = main
        jac[..., k[1:], k[:-1]] = sub
        jac[..., k[:-1], k[1:]] = sup
        for j in k:
            e = d * (k == j)
            fd = (reaction(x, u + e, p, 0.25) - reaction(x, u - e, p, 0.25)) / (2 * d)
            np.testing.assert_allclose(jac[..., j], fd, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(main[..., off],
                                      reaction_derivative(x, u, p)[..., off])
        # the neighbours enter through the centered u_x alone, which the
        # Newton-Krylov matvec of solve_comoving_steady relies on
        np.testing.assert_array_equal(sub[..., :-1], -sup[..., 1:])
        assert not sub[..., -1].any() and not sup[..., 0].any()


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
    r = reaction(np.array([-1.0, -1.0, 1.0]),
                 np.array([b.z_minus, b.z_plus, b.z_zero]), p.replace(alpha=0.05), 1.0)
    assert np.abs(r).max() < 1e-12


def test_stable_zeros_symmetric_for_odd_g(rng):
    p = ModelParams(g_left=(0.0, 1.0), g_right=(0.0, 1.0))
    b = stable_zeros(p.replace(alpha=0.04))
    assert b.z_minus == pytest.approx(-b.z_plus, abs=1e-13)
    assert b.z_zero == pytest.approx(0.0, abs=1e-13)


def test_fold_detection():
    # beyond the cusp of u - u^3 + alpha the bistable pair disappears
    with pytest.raises(NoConvergence):
        stable_zeros(ModelParams(alpha=0.4, g_left=(1.0,)))


def test_stable_zeros_zero_derivative_fails_typed():
    # u - u^3 + 2u has a zero derivative at the Newton starts +-1: the
    # iteration must stop with NoConvergence, not divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            stable_zeros(ModelParams(alpha=1.0, g_left=(0.0, 2.0)))


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
