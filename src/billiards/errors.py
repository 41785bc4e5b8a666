"""Exception types shared across the package."""

import numpy as np


class BilliardsError(Exception):
    """Base class for all package errors."""


class DomainError(BilliardsError, ValueError):
    """Input outside the mathematical domain of an operation."""


class BracketError(DomainError):
    """Root bracket does not enclose a sign change."""


class ConvexityError(BilliardsError, ValueError):
    """Boundary fails the strict convexity requirement."""


class TableConfigError(BilliardsError, ValueError):
    """Table description file is malformed or inconsistent."""


class SolverError(BilliardsError, RuntimeError):
    """Iterative solver did not converge.

    Carries the best iterate found (when there is one) in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConditioningError(BilliardsError, RuntimeError):
    """Least-squares design matrix too ill-conditioned to trust."""


def _require(ok, message: str, values) -> None:
    """Raise DomainError unless ok holds for every element; the message
    ends with the first element of values (broadcast to ok) that fails."""
    if not np.all(ok):
        bad = np.broadcast_to(values, np.shape(ok))[~np.asarray(ok)]
        raise DomainError(f"{message}, got {float(bad.flat[0])!r}")
