"""quenchlab: interface formation and contact-angle selection behind a
moving bistability boundary, computed on truncated grids.

Subpackages by task: `model` (kinetics and equilibrium branches),
`profiles1d` (fronts and the traveling wave), `quench2d` (comoving 2D
solver), `farfield` (glued ansatz and bordered angle solve), `measure`
(nodal-line extraction), `melnikov` (selection integrals), `spectral`
(linearization checks), `textio` (`key = value` files), `cli` (experiment
runner).
"""

from .model import EquilibriumBranches, ModelParams
from .profiles1d import Grid1D, Profile1D, WaveSolution
from .quench2d import Field2D, SteadyResult

__version__ = "0.1.0"

__all__ = [
    "EquilibriumBranches",
    "Field2D",
    "Grid1D",
    "ModelParams",
    "Profile1D",
    "SteadyResult",
    "WaveSolution",
    "__version__",
]
