"""Reference forms that only the tests use: the forward shear, the 2D
steady residual assembled as a sparse Kronecker sum, and the restriction
of a field to a coarser grid."""
import numpy as np
import scipy.sparse as sp

from quenchlab.farfield import shear_cutoff
from quenchlab.model import ModelParams, reaction
from quenchlab.quench2d import Field2D, _neumann_transport_1d


def shear_map(x, y, spec):
    """(x, y) -> (x, y + x chi^-(x) tan psi); identity for x > -1 or psi = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x, y + x * shear_cutoff(x) * np.tan(spec.psi)


def transport(u: Field2D, p: ModelParams) -> sp.csr_matrix:
    """The stepper's T = I_y (x) A_x + A_y (x) I_x on u's grid (Neumann
    ends), as a sparse matrix on the raveled field."""
    a_x = _neumann_transport_1d(u.nx, u.hx, p.c_x)
    a_y = _neumann_transport_1d(u.ny, u.hy, p.c_y)
    return (sp.kron(sp.identity(u.ny), sp.diags(a_x, [-1, 0, 1]))
            + sp.kron(sp.diags(a_y, [-1, 0, 1]), sp.identity(u.nx))).tocsr()


def elliptic_residual(u: Field2D, p: ModelParams) -> np.ndarray:
    """Discrete steady residual Lap u + c.grad u + reaction(u) at the field u."""
    lin = (transport(u, p) @ u.data.ravel()).reshape(u.data.shape)
    return lin + reaction(u.x, u.data, p, u.hx)


def restrict(u: Field2D, stride: int) -> Field2D:
    """Node-aligned coarsening of u by an integer stride (same extent)."""
    if (u.nx - 1) % stride or (u.ny - 1) % stride:
        raise ValueError(f"stride {stride} does not preserve the extent")
    sub = u.data[::stride, ::stride]
    return Field2D(nx=sub.shape[1], ny=sub.shape[0], x0=u.x0, y0=u.y0,
                   hx=u.hx * stride, hy=u.hy * stride, data=sub.copy())
