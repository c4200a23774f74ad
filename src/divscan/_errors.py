"""Exception types shared across the package."""

from __future__ import annotations


class DivscanError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(DivscanError):
    """Input matrix fails the Hermiticity tolerance; a family member that is
    not Hermiticity preserving carries its t."""

    def __init__(self, message: str, t=None):
        super().__init__(message)
        self.t = t


class DimensionMismatch(DivscanError):
    """Operands have incompatible shapes or dimensions."""


class SingularChannel(DivscanError):
    """A channel inverse was requested but the superoperator is singular.

    Carries the singular values so callers can see how close to singular
    the map actually is.
    """

    def __init__(self, message: str, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class HypothesisViolated(DivscanError):
    """An operation's mathematical hypothesis does not hold for the input."""


class DomainExceeded(DivscanError):
    """A time point (or stencil point t +/- h) falls outside the family domain."""


class DegenerateDenominator(DivscanError):
    """A closed-form denominator (partial sum of coefficients) vanished."""


class InvalidFamily(DivscanError):
    """A family's fields or members failed a check; carries the first offending t."""

    def __init__(self, message: str, t=None):
        super().__init__(message)
        self.t = t


class OutsideValidityWindow(DivscanError):
    """Parameter lies outside the window where the map is a channel."""


class InvalidState(DivscanError):
    """Covariance matrix fails the state validity inequality."""


class InvalidChannel(DivscanError):
    """Gaussian (X, Y) pair fails the channel validity inequality."""


class SingularX(DivscanError):
    """det X_t fell below the invertibility floor during a determinant scan."""


class ConfigError(DivscanError):
    """Bad CLI or config-file input; message names the field at fault."""
