"""Exception types shared across the package, and the one pass rule.

Every verdict that compares a per-point quantity with a tolerance goes
through `worst`, and every report names a grid point through `location`.
"""

import math

import numpy as np


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    Carries the last residual norm in .residual.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ObstructionError(DomainError):
    """A pointwise solvability condition failed on a grid.

    Carries the first offending point and the violated margin.
    """

    def __init__(self, message, point=None, margin=None):
        super().__init__(message)
        self.point = point
        self.margin = margin


class IntegrationError(RuntimeError):
    """Frame integration drifted past its rejection threshold."""


def worst(values, tol):
    """(index, sup, passed) of per-point values against a tolerance.

    NaN counts as +inf, so a NaN fails; ties go to the first index; sup is
    the value at that index, and passes only when finite and <= tol.
    """
    values = np.ravel(values)
    idx = int(np.argmax(np.where(np.isnan(values), np.inf, values)))
    sup = float(values[idx])
    return idx, sup, bool(math.isfinite(sup) and sup <= tol)


def location(chart, coords):
    """A grid point as reports name it: its chart and chart coordinates."""
    return {"chart": int(chart), "coords": [float(c) for c in coords]}
