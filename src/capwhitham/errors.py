"""Exception types shared across the toolkit.

The hierarchy mirrors the three failure families surfaced by the
command-line interface: domain errors (invalid or out-of-range inputs),
convergence errors (an iteration failed to reach its tolerance), and
resource-guard errors (a computation was refused because it would be too
large).  Each exception carries a ``context`` dictionary with
machine-readable diagnostics.
"""

from __future__ import annotations

__all__ = [
    "CapWhithamError",
    "DomainError",
    "NearResonanceError",
    "TruncationError",
    "ConvergenceError",
    "SizeGuardError",
]


class CapWhithamError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = dict(context)


class DomainError(CapWhithamError):
    """An argument lies outside the mathematical domain of an operation."""


class NearResonanceError(DomainError):
    """The multiplier denominator c - m_T(kappa*k) is numerically zero.

    Raised when a wavenumber ``k`` outside the kernel pair comes within
    the resonance guard of the wave speed; ``context['k']`` identifies
    the offending wavenumber.
    """


class TruncationError(DomainError):
    """The Fourier truncation order is too small for the requested data."""


class ConvergenceError(CapWhithamError):
    """An iterative solver stopped without meeting its tolerance."""


class SizeGuardError(CapWhithamError):
    """A computation was refused because its exact size bound is too large.

    ``context['size']`` holds the computed bound that tripped the guard.
    """
