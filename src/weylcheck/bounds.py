"""Global curvature estimates evaluated over two-chart grids.

Each verifier compares the supremum of a mean-curvature quantity against a
purely intrinsic right-hand side and returns a BoundReport with both sups,
their locations, and every constant used.  Grid sups stand in for sups over
the sphere; reports carry the grid resolution so refinement studies can
confirm stability.

The grid (EvaluatedGrid) keeps per-point columns only: each block of chart
points is evaluated to a SurfaceData of values (whose jets die inside
evaluate_grid), reduced to its columns and dropped before the next block
starts, so its memory is the columns plus one block's pass.

The diameter-weighted estimate is exposed as `diam_weyl_report`; its
constant is C = 4 (n-1)^{-2} e^{(n-1)/4}, which collapses to e^{1/2} in
dimension three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PASS_RULES, DomainError, location, worst
from .intrinsic import build_geodesic_graph, diameter, ricci_norm, sectional_extremes
from .surfaces import GRID_EXTENT, ball_grid, evaluate_grid, metric_fn, point_blocks


@dataclass(eq=False)
class EvaluatedGrid:
    """A family evaluated over the two covering chart grids, as per-point
    columns: plain arrays over both charts' points in grid order (chart 0's
    lattice, then chart 1's), with no jet behind them.

    residuals maps each identity residual the grid was asked for (see
    RESIDUALS) to its column.
    """

    family: object
    resolution: int
    extent: float
    chart_ids: np.ndarray
    coords: np.ndarray
    X: np.ndarray
    N: np.ndarray
    H: np.ndarray
    chi_norm: np.ndarray
    scalar: np.ndarray
    laplacian: np.ndarray
    ricci_norm: np.ndarray
    sectional_min: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.coords.shape[1]

    @property
    def num_points(self):
        return self.chart_ids.size

    def location(self, index):
        return location(self.chart_ids[index], self.coords[index])

    def table(self):
        """Per-point columns in a fixed order, for grid dumps; needs the
        gauss and codazzi residuals."""
        return {
            "chart": self.chart_ids,
            "coords": self.coords,
            "H": self.H,
            "R": self.scalar,
            "lap_R": self.laplacian,
            "chi_norm": self.chi_norm,
            "gauss_residual": self.residuals["gauss-residual"],
            "codazzi_residual": self.residuals["codazzi-residual"],
        }


# The identity residual columns a grid can take, named after the verify
# checks that read them, each from one block's SurfaceData: the contracted
# Gauss and the Codazzi residual (K,), and the three support identities (K, 3).
RESIDUALS = {
    "gauss-residual": lambda sd: sd.gauss_residual(),
    "codazzi-residual": lambda sd: sd.codazzi_residual(),
    "support-identities": lambda sd: np.stack(sd.support_identities(), axis=-1),
}


def _block_columns(family, chart, block, residuals):
    """The per-point columns of one block of chart points, copied out of its
    SurfaceData, which dies with this call."""
    sd = evaluate_grid(family, chart, block)
    cs = sd.curvature
    columns = {
        "chart_ids": np.full(block.shape[0], chart),
        "coords": sd.coords,
        "X": sd.X,
        "N": sd.N,
        "H": sd.H,
        "chi_norm": sd.chi_norm,
        "scalar": cs.scalar,
        "laplacian": sd.laplacian_scalar,
        "ricci_norm": ricci_norm(cs),
        "sectional_min": sectional_extremes(cs)[0],
    }
    columns.update((name, RESIDUALS[name](sd)) for name in residuals)
    return {name: np.array(column) for name, column in columns.items()}


def evaluate_family_grid(family, resolution, extent=GRID_EXTENT, residuals=()) -> EvaluatedGrid:
    """The family over the chart ball of both charts, which cover the sphere,
    with the named RESIDUALS columns (the support identities raise
    DomainError outside the sigma_2 cone, so only a grid that asks for them
    does).

    Each chart is evaluated in blocks of at most BLOCK_POINTS points
    (surfaces.point_blocks), and each block is reduced to its columns before
    the next one starts, so no jet outlives its block; the columns joined
    over the blocks have the bits of one pass.
    """
    pts = ball_grid(resolution, extent, family.dim)
    wanted = [name for name in RESIDUALS if name in residuals]
    blocks = [_block_columns(family, chart, block, wanted)
              for chart in (0, 1) for block in point_blocks(pts)]
    columns = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    found = {name: columns.pop(name) for name in wanted}
    return EvaluatedGrid(family, resolution, extent, residuals=found, **columns)


@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    tol: float
    passed: bool
    lhs_at: dict
    rhs_at: dict
    constants: dict
    resolution: int
    extent: float
    num_points: int

    @property
    def slack(self):
        return self.rhs - self.lhs

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "passed": self.passed,
            "lhs_at": self.lhs_at,
            "rhs_at": self.rhs_at,
            "constants": self.constants,
            "grid": {
                "resolution": self.resolution,
                "extent": self.extent,
                "num_points": self.num_points,
            },
        }


def _report(name, eg, lhs_field, rhs_field, constants, tol, rhs_idx=None):
    """sup lhs_field against sup rhs_field (at rhs_idx when given); passes
    when worst(lhs - rhs, tol) does, tol by default PASS_RULES[name].tol |rhs|."""
    lhs_idx = int(np.argmax(lhs_field))
    if rhs_idx is None:
        rhs_idx = int(np.argmax(rhs_field))
    lhs = float(lhs_field[lhs_idx])
    rhs = float(rhs_field[rhs_idx])
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise DomainError(f"{name}: lhs {lhs!r} or rhs {rhs!r} is not finite")
    if tol is None:
        tol = PASS_RULES[name].tol * abs(rhs)
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        passed=worst(lhs - rhs, tol)[2],
        lhs_at=eg.location(lhs_idx),
        rhs_at=eg.location(rhs_idx),
        constants=constants,
        resolution=eg.resolution,
        extent=eg.extent,
        num_points=eg.num_points,
    )


def _require_positive_scalar(eg):
    bad = np.nonzero(eg.scalar <= 0)[0]
    if bad.size:
        where = eg.location(int(bad[0]))
        raise DomainError(
            f"scalar curvature {eg.scalar[bad[0]]:.6g} is not positive at "
            f"chart {where['chart']}, coords {where['coords']}"
        )


def weyl_report(eg: EvaluatedGrid, tol: Optional[float] = None) -> BoundReport:
    """sup H^2 against sup(2R - (Delta R)/R); needs R > 0 on the grid."""
    _require_positive_scalar(eg)
    lhs = eg.H**2
    rhs = 2.0 * eg.scalar - eg.laplacian / eg.scalar
    return _report("weyl", eg, lhs, rhs, {}, tol)


def graph_diameter(family, resolution, extent=GRID_EXTENT) -> float:
    """The family's diameter estimated from the shortest-path graph."""
    gg = build_geodesic_graph(metric_fn(family), family.dim, resolution, extent)
    return diameter(gg).value


def diam_weyl_report(eg: EvaluatedGrid, d: float, tol: Optional[float] = None,
                     d_source="provided") -> BoundReport:
    """sup H^2 against C d^2 sup(2R^2 - Delta R + (n-1)^2 R / (64 d^2)).

    d is the diameter: an exact one (d_source "provided") or a
    graph_diameter (d_source "graph").
    """
    n = eg.n
    try:
        d2 = float(d) ** 2
    except OverflowError:
        d2 = math.inf       # inf ** 2 is inf, while 1e200 ** 2 raises
    if not math.isfinite(d2):
        raise DomainError(f"diam-weyl: d**2 overflows for d = {d!r}")
    if d2 < np.finfo(float).tiny:   # zero or subnormal
        raise DomainError(f"diam-weyl: d**2 underflows for d = {d!r}")
    big_c = 4.0 * (n - 1) ** (-2) * math.exp((n - 1) / 4.0)
    lhs = eg.H**2
    inner = 2.0 * eg.scalar**2 - eg.laplacian \
        + (n - 1) ** 2 * eg.scalar / (64.0 * d2)
    rhs = big_c * d2 * inner
    constants = {"C": big_c, "d": float(d), "d_source": d_source}
    return _report("diam-weyl", eg, lhs, rhs, constants, tol)


def c2bound_report(eg: EvaluatedGrid, tol: Optional[float] = None) -> BoundReport:
    """sup ||chi|| against C_n Lambda kappa^{-1/2} for n >= 3."""
    n = eg.n
    if n < 3:
        raise ValueError("the second-derivative estimate needs dimension >= 3")
    kappa = float(eg.sectional_min.min())
    if kappa <= 0:
        raise DomainError(f"minimum sectional curvature {kappa:.6g} is not positive")
    lam = float(eg.ricci_norm.max())
    c_n = n / (2.0 * math.sqrt((n - 1) * (n - 2)))
    lhs = eg.chi_norm
    rhs_val = c_n * lam / math.sqrt(kappa)
    rhs = np.full_like(lhs, rhs_val)
    constants = {
        "C_n": c_n,
        "Lambda": lam,
        "kappa": kappa,
    }
    # the rhs is one number; it is attained where Lambda is
    return _report("c2bound", eg, lhs, rhs, constants, tol,
                   rhs_idx=int(np.argmax(eg.ricci_norm)))


def second_deriv_report(eg: EvaluatedGrid, tol: Optional[float] = None) -> BoundReport:
    """sup chi_ij chi^{ij} against sup H^2, with the scalar-curvature
    comparison recorded when R > 0 everywhere."""
    lhs = eg.chi_norm**2
    rhs = eg.H**2
    constants = {}
    extra_ok = True
    if np.all(eg.scalar > 0):
        wr = weyl_report(eg, tol)
        constants["weyl_rhs"] = wr.rhs
        extra_ok = worst(lhs, wr.rhs + wr.tol)[2]
    rep = _report("second-deriv", eg, lhs, rhs, constants, tol)
    rep.passed = bool(rep.passed and extra_ok)
    return rep
