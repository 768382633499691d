"""Exception types shared across the package."""

from __future__ import annotations


class StepSpectraError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(StepSpectraError):
    """An iteration hit its cap without meeting its tolerance.

    Carries the last iterate and residual so callers can diagnose or reseed.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class PoleProximityError(StepSpectraError):
    """Evaluation requested too close to a trigonometric pole."""

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class UnsupportedDomainError(StepSpectraError):
    """Special-function evaluation outside the supported (order, argument) domain."""


class SheetError(StepSpectraError):
    """A constructed spectral point landed on the wrong sheet."""


class ContourError(StepSpectraError):
    """A zero sits on or hugs a contour.  ``edge`` (0-3, counterclockwise from the
    first vertex), ``t`` (the panel parameter in [0, 1] along it), ``point`` (the
    node there) and ``modulus`` (|f| there) say where."""

    def __init__(self, message, edge=None, t=None, modulus=None, point=None):
        where = "" if edge is None else (
            f" (edge {edge}, t = {t:.6g}, at {point:.6g}, |f| = {modulus:.3g})")
        super().__init__(message + where)
        self.edge = edge
        self.t = t
        self.modulus = modulus
        self.point = point


class SchemaError(StepSpectraError):
    """Invalid potential JSON; names the offending piece index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonSummableError(StepSpectraError):
    """A separation sum cannot be certified to converge."""
