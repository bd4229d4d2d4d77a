"""Exception types raised by the solvers and post-processing routines."""


class QuenchLabError(Exception):
    """Base class for all quenchlab errors."""


class NoConvergence(QuenchLabError):
    """An iterative solver stagnated or exceeded its iteration budget."""


class NotConverged(NoConvergence):
    """A march to steady state or a Newton solve (the comoving steady solve,
    the bordered solve) stopped before reaching its tolerance."""


class DomainTooSmall(QuenchLabError):
    """Truncated domain too short for the requested profile's tails."""


class LinearSolveFailure(QuenchLabError):
    """Sparse linear solve failed or produced non-finite values."""


class NonFinite(QuenchLabError):
    """Field blow-up detected (non-finite entries or amplitude clamp)."""


class EigensolveFailure(QuenchLabError):
    """Eigenvalue computation did not succeed."""


class AngleOutOfRange(QuenchLabError, ValueError):
    """Interface angle at or beyond +-pi/2, where no frame speed exists, or a
    normal speed beyond the frame speed, where no angle exists."""


class OutOfProfileRange(QuenchLabError):
    """Requested coordinate lies outside a 1D profile's converged range."""


class DegenerateMpsi(QuenchLabError):
    """The angle-selection denominator is too close to zero."""


class IllConditioned(QuenchLabError):
    """Bordered solve aborted with an unacceptable conditioning estimate."""


class MissingBaseline(QuenchLabError):
    """Sweep table is malformed or lacks the entries a comparison requires."""


class ConfigError(QuenchLabError):
    """Invalid or unknown experiment configuration key/value."""
