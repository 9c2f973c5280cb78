"""Exception taxonomy shared across the toolkit.

Every failure mode maps to one of these types so the CLI can translate
them into stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "ZetaGBError",
    "ParameterError",
    "PoleError",
    "PrecisionError",
    "SingularQError",
    "RefinementError",
    "InconclusiveError",
    "BoundaryError",
]


class ZetaGBError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ZetaGBError, ValueError):
    """Invalid argument or domain violation (bad cutoff, excluded point, ...)."""


class PoleError(ParameterError):
    """Evaluation requested exactly at the simple pole s = 1."""


class PrecisionError(ZetaGBError):
    """The requested accuracy cannot be certified in binary64.

    ``best_bound`` carries the smallest remainder bound the parameter
    schedule can reach, at its largest cutoff (None when no candidate
    was tried).
    """

    def __init__(self, message: str, best_bound: float | None = None):
        super().__init__(message)
        self.best_bound = best_bound


class SingularQError(ZetaGBError):
    """The reciprocal of Q underflowed; Q is effectively infinite here."""


class RefinementError(ZetaGBError):
    """Newton refinement diverged, stalled, or ran out of iterations."""


class InconclusiveError(ZetaGBError):
    """A winding count could not be rounded to an integer confidently.

    ``residual`` is the distance from the raw winding number to the
    nearest integer when available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class BoundaryError(InconclusiveError):
    """A zero sits on or too close to the contour; nudge the rectangle."""
