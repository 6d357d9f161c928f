"""Error taxonomy shared across modules.

ValidationError maps to CLI exit code 1, NumericalError to exit code 2.
"""


class ValidationError(ValueError):
    """Bad input: malformed config, out-of-range parameter, wrong shape."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: CFL violation, rejected step, no root."""


class DegenerateDensityError(ValidationError):
    """Density is everywhere zero (or negative): no quantum potential."""


class UnderResolvedError(ValidationError):
    """Grid spacing too coarse to resolve a length the run samples."""


class CflError(NumericalError):
    """Requested time step exceeds the explicit stability bound."""


class StepRejected(NumericalError):
    """A time step produced an invalid state (e.g. negative density)."""


class NoBoundStateError(NumericalError):
    """The square well is too shallow or narrow to bind a state."""


class TailFitError(NumericalError):
    """Tail-exponent fit impossible (too few usable points)."""
