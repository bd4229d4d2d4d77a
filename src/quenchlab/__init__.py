"""quenchlab: interface formation and contact-angle selection behind a
moving bistability boundary, computed on truncated grids.

Subpackages by task: `model` (kinetics and equilibrium branches),
`profiles1d` (fronts and the traveling wave), `quench2d` (comoving 2D
solver), `farfield` (glued ansatz and bordered angle solve), `measure`
(contact-point tracking), `melnikov` (selection integrals), `spectral`
(linearization checks), `textio` (`key = value` files), `cli` (experiment
runner).
"""

# only model's names: importing quenchlab.model then loads no scipy
from .model import EquilibriumBranches, ModelParams

__version__ = "0.1.0"

__all__ = ["EquilibriumBranches", "ModelParams", "__version__"]
