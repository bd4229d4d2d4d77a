import numpy as np
import pytest
from oracles import restrict

from quenchlab.errors import DomainTooSmall
from quenchlab.model import ModelParams, reaction_derivative
from quenchlab.profiles1d import Grid1D, solve_quench_front
from quenchlab.quench2d import Field2D, solve_theta
from quenchlab.spectral import (LinearOperator1D, _apply_linearized,
                                kernel_check_2d, max_real_eig_1d,
                                quench_front_operator)
from quenchlab.textio import write_entries

SQRT2 = np.sqrt(2.0)


def conjugation_defect(theta: Field2D, c_x: float, test: np.ndarray,
                       band: int = 3) -> float:
    """Sup defect of the intertwining L*(e^{c_x x} v) = e^{c_x x} L v.

    Multiplication by e^{c_x x} maps the kernel of the linearized operator
    into the kernel of its adjoint; discretely the identity holds to O(h^2)
    for smooth test fields (exactly at c_x = 0).
    """
    data = theta.data
    hx, hy = theta.hx, theta.hy
    x = theta.x
    q_bar = reaction_derivative(x, data, ModelParams())
    weight = np.exp(c_x * x)[None, :]
    lhs = _apply_linearized(weight * test, q_bar, c_x, hx, hy, -1.0, None)
    rhs = weight[:, 1:-1] * _apply_linearized(test, q_bar, c_x, hx, hy, +1.0, None)
    k = max(band - 1, 1)
    sl = np.s_[k:-k or None, k:-k or None]
    return float(np.abs((lhs - rhs)[sl]).max())


def test_eig_constant_potential_matches_dirichlet_laplacian():
    L, n = 20.0, 2001
    grid = Grid1D(-L, L, n)
    op = LinearOperator1D(grid=grid, c_x=0.0, q=np.full(n, -1.0))
    got = max_real_eig_1d(op)
    assert got == pytest.approx(-1.0 - (np.pi / (2 * L)) ** 2, abs=1e-6)


def test_eig_balanced_front_translation_mode():
    L, h = 20.0, 0.02
    grid = Grid1D.symmetric(L, h)
    x = grid.nodes()
    op = LinearOperator1D(grid=grid, c_x=0.0, q=1.0 - 3.0 * np.tanh(x / SQRT2) ** 2)
    assert max_real_eig_1d(op) == pytest.approx(0.0, abs=2e-3)


def test_eig_agrees_with_dense_oracle():
    # the exact symmetrizing similarity must reproduce the nonsymmetric
    # operator's spectrum; check against dense eigenvalues at small n
    rng = np.random.default_rng(7)
    grid = Grid1D(-10.0, 10.0, 301)
    q = -1.0 + 0.5 * np.exp(-grid.nodes() ** 2)
    c_x = 0.6
    op = LinearOperator1D(grid=grid, c_x=c_x, q=q)
    got = max_real_eig_1d(op)
    h = grid.h
    n = grid.n - 2
    A = (np.diag(np.full(n, -2.0 / h**2) + q[1:-1])
         + np.diag(np.full(n - 1, 1.0 / h**2 + c_x / (2 * h)), 1)
         + np.diag(np.full(n - 1, 1.0 / h**2 - c_x / (2 * h)), -1))
    dense = np.linalg.eigvals(A)
    assert np.max(np.abs(dense.imag)) < 1e-8  # spectrum is real
    assert got == pytest.approx(np.max(dense.real), abs=1e-8)


def test_eig_quenched_front_strictly_negative():
    p = ModelParams(c_x=0.5)
    prof = solve_quench_front("top", p, Grid1D.symmetric(30.0, 0.02))
    op = quench_front_operator(prof, 0.5)
    assert max_real_eig_1d(op) < -0.05


def test_eig_endpoint_guard():
    grid = Grid1D(-10.0, 10.0, 501)
    q = grid.nodes()  # keeps growing at the ends
    with pytest.raises(DomainTooSmall):
        max_real_eig_1d(LinearOperator1D(grid=grid, c_x=0.0, q=q))


def test_kernel_check_residuals_small(theta_half_small):
    chk = kernel_check_2d(theta_half_small, 0.5)
    assert chk.forward_residual < 0.05
    assert chk.adjoint_residual < 0.05


def test_kernel_check_selfadjoint_case():
    th = solve_theta(0.0, 16.0, 16.0, h=0.25, dt=0.25, tol=1e-9)
    chk = kernel_check_2d(th, 0.0)
    assert abs(chk.forward_residual - chk.adjoint_residual) < 1e-12


def test_kernel_check_consistency_order(theta_half_fine):
    fine = theta_half_fine
    res = {}
    for stride in (2, 4):
        chk = kernel_check_2d(restrict(fine, stride), 0.5)
        res[stride] = chk
    assert np.log2(res[4].forward_residual / res[2].forward_residual) > 1.8
    assert np.log2(res[4].adjoint_residual / res[2].adjoint_residual) > 1.8


def test_conjugation_identity(theta_half_small):
    th = theta_half_small
    X, Y = np.meshgrid(th.x, th.y)
    v = np.exp(-0.1 * (X**2 + Y**2))
    defect = conjugation_defect(th, 0.5, v)
    assert defect < 5e-3  # O(h^2) for the smooth test field
    assert conjugation_defect(th, 0.0, v) == 0.0


def test_append_report(tmp_path):
    path = tmp_path / "rep.txt"
    write_entries(str(path), {"a": 1, "b": 2.5})
    write_entries(str(path), {"c": "x"}, mode="a")
    assert path.read_text() == "a = 1\nb = 2.5\nc = x\n"
    write_entries(str(path), {"d": 3})
    assert path.read_text() == "d = 3\n"
