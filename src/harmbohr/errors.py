"""Exception types shared across the package."""

from __future__ import annotations


class HarmBohrError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HarmBohrError, ValueError):
    """An argument lies outside the numeric domain of an operation."""


class ValidationError(HarmBohrError, ValueError):
    """A class parameter violates the parameter domain of its family."""


class ConvergenceError(HarmBohrError, RuntimeError):
    """A series evaluation or root search could not reach the requested
    tolerance within its iteration or term budget.

    ``achieved`` carries the best available estimate (a value bundled with
    its error bound) so callers can decide whether it is still usable.
    """

    def __init__(self, message: str, achieved=None):
        super().__init__(message)
        self.achieved = achieved

