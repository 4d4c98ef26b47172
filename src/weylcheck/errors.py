"""Exception types, the pass-rule table and the one pass rule.

Every verdict takes its default tolerance and override from `PASS_RULES`,
every verdict that compares a per-point quantity with a tolerance goes
through `worst`, and every report names a grid point through `location`.
"""

import math
from collections import namedtuple

import numpy as np

# One row per row of the README "Pass rules" table, in its order.  tol is the
# default tolerance (None: calibrated), relative_to what it multiplies
# ("absolute" for nothing), override the config key that replaces it (a
# `tolerances` entry or `theta`; None when nothing does), and weight the
# power of lambda by which the verdict's quantity scales under X -> lambda X.
PassRule = namedtuple("PassRule", "tol relative_to override weight")
PASS_RULES = {
    "weyl": PassRule(1e-7, "|rhs|", "tolerances.weyl", -2),
    "diam-weyl": PassRule(1e-7, "|rhs|", "tolerances.diam-weyl", -2),
    "c2bound": PassRule(1e-7, "|rhs|", "tolerances.c2bound", -1),
    "second-deriv": PassRule(1e-7, "|rhs|", "tolerances.second-deriv", -2),
    "gauss-residual": PassRule(1e-7, "absolute", "tolerances.gauss-residual", 0),
    "codazzi-residual": PassRule(1e-7, "absolute", "tolerances.codazzi-residual", 1),
    "support-identities hessian": PassRule(1e-7, "absolute", "tolerances.support-identities", 2),
    "support-identities gradient": PassRule(1e-7, "absolute", "tolerances.support-identities", 2),
    "support-identities curvature": PassRule(1e-7, "absolute", "tolerances.support-identities", 0),
    "solve": PassRule(1e-9, "absolute", None, 0),
    "embeddability": PassRule(None, "calibrated", "theta", 1),
    "truth": PassRule(1e-6, "absolute", None, 0),
    "frame drift": PassRule(1e-3, "the grid minimum of g's least eigenvalue", None, 2),
    "reconstruction": PassRule(1e-4, "absolute", "tolerances.reconstruct", 1),
}


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    Carries the last residual norm in .residual and, for a per-point
    residual, the point where it is largest in .point.
    """

    def __init__(self, message, residual=None, point=None):
        super().__init__(message)
        self.residual = residual
        self.point = point


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
