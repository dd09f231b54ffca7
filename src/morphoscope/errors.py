"""Exception hierarchy for chart-level analysis failures."""

from __future__ import annotations


class MorphoscopeError(Exception):
    """Base class for all package errors."""


class DomainError(MorphoscopeError):
    """A point or stencil left the chart domain."""


class GeometryError(MorphoscopeError):
    """Metric or map data is invalid at a point: a metric that is not
    symmetric positive definite, or non-finite values."""


class DegenerateFrameError(MorphoscopeError):
    """A frame, projector or structure lost rank and cannot be completed."""


class ClassificationError(MorphoscopeError):
    """An operation required a regular (or critical) point and got the other kind."""


class UnsupportedOrderError(MorphoscopeError):
    """A jet or symbol order outside the supported range was requested."""


class SymbolError(MorphoscopeError):
    """Symbol extraction failed (zero jet, or no compatible structure exists)."""


class NonIsolatedCriticalError(MorphoscopeError):
    """A shell scan around a critical point hit another critical point.

    The offending point is stored so callers can report where isolation fails.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class ConfigError(MorphoscopeError):
    """A scenario configuration or CLI invocation is malformed."""
