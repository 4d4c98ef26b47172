"""Pointwise inversion of the contracted Gauss relation, the Codazzi
integrability gate, and reconstruction of the embedding from frame ODEs.

The solver inverts Ric = tr_g(chi) chi - chi g^{-1} chi per point in closed
form (n = 3): chi = sqrt(t_1 t_2 t_3 / 2) g E^{-1} g with E = R g - 2 Ric and
t_i its eigenvalues relative to g; it exists exactly where every t_i > 0 (see
_chi_values).  First derivatives of chi come from the product rule on that
formula fed with exact jet derivatives of g and Ricci, so the Codazzi
residual carries no grid-differencing noise.  The Codazzi gate's default
threshold is calibrated on three embedded reference families in both
charts; on Linux chart 1's solves run in a forked child beside chart 0's.

An IntrinsicField holds values, not jets: g and its inverse, Ricci, their
first partials, last axis k for d/dx_k, and the Christoffel symbols, formed
by from_family from surfaces.metric_jets of order 3 (Ricci, order m - 2, is
read to first partials), the one source of metric jets here, one
surfaces.BLOCK_POINTS block at a time, each block's jets dropped before the
next; order 4 and any block size give the same bits.

Reconstruction integrates X_{;ij} = -chi_ij N and N_i = chi_i^j X_{;j}
along coordinate lines with classical RK4 on the grid's integer lattice,
from the family alone, with no field and no solve: g at the nodes seeds the
frame and bounds its drift, and each RK4 stage point forms chi from the
family's Ricci, plus an optional perturbation, in _chi_values, the one
place that forms, cone-checks and residual-checks chi, for the solver too.
It marches two arrays: a node's frame state, (n + 2, n + 1) with rows X,
E_1..E_n, N (seed_frame), and a stage point's data, (3, 5, 3), whose block
i holds the coefficients of the march along axis i: [i, k, j] = Gamma^k_ij
for k < 3, [i, 3, j] = chi_ij and [i, 4, j] = (chi g^{-1})_i^j
(_continuous_data).  The fill follows the path plan's axes: the line
through the center, then the plane, then the ball, each outward from the
center by lattice levels, and each level is one array step over all of its
nodes.  A plan pass over the lattice alone lists a fill's levels before
anything marches.  A second fill in the reversed order measures holonomy,
the path dependence that appears exactly when chi fails Codazzi; it reads
nothing of the first, so on Linux it marches in a forked child beside it.
The RK4 stage data comes from one stream per fill, one stage row at a time:
a row is the points of one RK4 stage of one level (its sources, or one
substep's midpoints or ends), and the rows of consecutive levels, in march
order, go through _continuous_data in calls of exactly surfaces.BLOCK_POINTS
chart points (only a fill's last call is shorter).  Each call's data is
copied into the arrays of the rows it reaches, a row is handed out once its
last point is written, and the march reads it at once: the stage data held
at any time is one call, the points read ahead, the one row being filled
and a substep's three rows, whatever the substep count.  A whole fill
evaluated ahead would take about 0.8 GB at resolution 21 with MAX_SUBSTEPS
substeps, and putting a large level through curvature() at once raises the
peak memory of a reconstruct by about a fifth.  Evaluation is point by
point and jet products are batch-invariant, so the split into calls does
not move a bit.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import warnings
from functools import lru_cache
from typing import Optional

import numpy as np

from . import surfaces
from ._forkjoin import Forked
from .errors import (PASS_RULES, ConvergenceError, IntegrationError, ObstructionError,
                     location, worst)
from .intrinsic import (
    codazzi_residual,
    contracted_gauss_residual,
    curvature,
    principal_curvatures,
)
from .surfaces import (
    GRID_EXTENT,
    Ellipsoid,
    ball_grid,
    metric_jets,
    metric_values,
    radial_graph_bump,
    radial_graph_random,
)


@dataclasses.dataclass(eq=False)
class IntrinsicField:
    """Values over one three-dimensional chart grid: g (read by g()), the
    metric_inv curvature() formed, Ricci, their first partials dg and d_ricci,
    last axis k for d/dx_k, and the Christoffel symbols.

    Ricci comes from the metric's own curvature; perturbed() adds to it a
    perturbation p(pts) -> (value, first partials), two arrays laid out as
    ricci and d_ricci, to model data that no embedding produced.
    """

    chart: int
    coords: np.ndarray
    _g: np.ndarray
    metric_inv: np.ndarray
    dg: np.ndarray
    ricci: np.ndarray
    d_ricci: np.ndarray
    christoffel: np.ndarray

    def __post_init__(self):
        _three_dimensional(self.coords)

    def g(self):
        return self._g

    @classmethod
    def from_metric(cls, metric, chart, coords):
        """The field of metric jets a caller already has (order >= 3)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape[-1] != metric.n:
            raise ValueError("coordinate width does not match the metric")
        return cls(chart, coords, *_field_values(metric))

    @classmethod
    def from_family(cls, family, chart, pts):
        """The family's field from metric jets of order 3, formed one
        surfaces.BLOCK_POINTS block at a time, which does not move a bit;
        points of a width other than 3 or the family's dimension are
        rejected before any jet is formed."""
        pts = _three_dimensional(np.asarray(pts, dtype=float))
        parts = zip(*[_field_values(metric_jets(family, chart, block, order=3))
                      for block in surfaces.point_blocks(pts)])
        return cls(chart, pts, *map(np.concatenate, parts))

    def perturbed(self, perturbation):
        """The field with the two arrays of perturbation(coords) added to
        ricci and d_ricci."""
        value, partials = perturbation(self.coords)
        return dataclasses.replace(self, ricci=self.ricci + value, d_ricci=self.d_ricci + partials)

    def grid_resolution(self):
        """Node count per axis, inferred from the first coordinate column."""
        return int(_axis_values(self.coords[..., 0]).size)


def _three_dimensional(coords):
    """coords, or ValueError unless its points have three coordinates."""
    if coords.shape[-1] != 3:
        raise ValueError("an intrinsic field is three-dimensional only")
    return coords


def _field_values(metric):
    """(g, g^-1, dg, ricci, d_ricci, christoffel), an IntrinsicField's values,
    of metric jets of order m >= 3: the solver reads Ricci (m - 2) to first partials."""
    if metric.order < 3:
        raise ValueError(f"an intrinsic field needs metric jets of order >= 3, got {metric.order}")
    cs = curvature(metric)
    return cs.metric, cs.metric_inv, metric.jet.gradient(), cs.ricci, cs.d_ricci, cs.christoffel


def diag_ramp_perturbation(scale=0.05, slopes=(0.5, -0.3, 0.4)):
    """Ric_ii + scale (1 + slope_i x_i), a perturbation p(pts) -> (value,
    first partials) as IntrinsicField.perturbed and reconstruct take it.

    Small scales keep the input inside the solvable cone while breaking the
    Codazzi relation, which is what the negative-control tests need.
    """
    def pert(pts):
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[-1]
        val = np.zeros(pts.shape[:-1] + (n, n))
        grad = np.zeros(pts.shape[:-1] + (n, n, n))
        for i in range(n):
            val[..., i, i] = scale * (1.0 + slopes[i % len(slopes)] * pts[..., i])
            grad[..., i, i, i] = scale * slopes[i % len(slopes)]
        return val, grad
    return pert


# ------------------------------------------------------------- the solver

def _chi_values(g, ginv, ric, chart, coords):
    """chi = s g E^{-1} g with E = R g - 2 Ric and s = sqrt(t_1 t_2 t_3 / 2),
    or ObstructionError at the first of the chart points coords whose Ricci
    leaves the solvable cone, or ConvergenceError at the point of the largest
    contracted-Gauss residual if it is above PASS_RULES["solve"]'s limit;
    returns (chi, R, E^{-1}, s, gaps, residuals).  The solver and the march's
    stage points use it.

    Cayley-Hamilton turns tr(A) A - A^2 = Ric, chi's equation in a
    g-orthonormal frame, into sigma_2(A) I - sigma_3(A) A^{-1} = Ric; the
    trace gives sigma_2 = R / 2, hence A = 2 sigma_3 E^{-1} with
    sigma_3 = sqrt(t_1 t_2 t_3 / 8), t_i E's eigenvalues relative to g: the
    t_i = sum(mu) - 2 mu_i of matmap._gaps_closed_form_3 (mu: Ricci's), and
    the cone is t_i > 0 for all i, which makes every mu_i > 0 as
    t_i + t_j = 2 mu_k.  gaps, the eps-gap per point, is the least t_i: E is
    twice R g / 2 - Ric, so for the field's own Ricci the eps-gap is twice
    the least sectional curvature (see intrinsic.sectional_extremes).
    """
    r = np.einsum("...ab,...ba->...", ginv, ric)
    e = r[..., None, None] * g - 2.0 * ric
    t = principal_curvatures(g, e)
    gaps = t[..., 0]
    bad = np.nonzero(gaps <= 0)[0]
    if bad.size:
        k = int(bad[0])
        where = location(chart, coords[k])
        raise ObstructionError(
            f"Ricci leaves the solvable cone at chart {where['chart']}, "
            f"coords {where['coords']}: eps-gap {gaps[k]:.6g}",
            point=where, margin=float(gaps[k]),
        )
    einv = np.linalg.inv(e)
    s = np.sqrt(gaps * t[..., 1] * t[..., 2] / 2.0)
    chi = s[..., None, None] * (g @ einv @ g)
    residuals = contracted_gauss_residual(ginv, chi, ric)
    idx, sup, ok = worst(residuals, PASS_RULES["solve"].tol)
    if not ok:
        where = location(chart, coords[idx])
        raise ConvergenceError(
            f"solver residual above the per-point limit at chart {where['chart']}, "
            f"coords {where['coords']}: residual {sup:.6g}", residual=sup, point=where)
    return chi, r, einv, s, gaps, residuals


@dataclasses.dataclass(eq=False)
class ChiField:
    """Solver output: chi and its first partials d_values, last axis k for d/dx_k."""

    field: IntrinsicField
    values: np.ndarray
    d_values: np.ndarray
    residuals: np.ndarray
    gaps: np.ndarray

    def principal_min(self):
        return principal_curvatures(self.field.g(), self.values)[..., 0]


def solve_contracted_gauss(field: IntrinsicField) -> ChiField:
    """The unique SPD chi with tr_g(chi) chi - chi g^{-1} chi = Ric, and its partials.

    chi is the closed form s g E^{-1} g of _chi_values, E = R g - 2 Ric.
    d chi / dx_k is the product rule on it, fed by exact jet partials of g
    and Ricci: dR = tr(g^{-1} dRic) - tr(g^{-1} dg g^{-1} Ric),
    dE = dR g + R dg - 2 dRic, ds / s = (tr(E^{-1} dE) - tr(g^{-1} dg)) / 2.
    Raises _chi_values' ObstructionError at the first point where E is not
    positive definite relative to g and its ConvergenceError.
    """
    g, ginv, ric = field.g(), field.metric_inv, field.ricci
    chi, r, einv, s, gaps, residuals = _chi_values(g, ginv, ric, field.chart, field.coords)
    # contiguous copies with d/dx_k on the leading axis, which the algebra
    # reads: on a resolution-17 ellipsoid chart (2,109 points, 2 vCPUs, best
    # of 7) the solve takes 9.0 ms and peaks at 3.24 MiB with them, 18.8 ms
    # and 2.49 MiB with einsums on the last-axis layout (d chi moved by up to
    # 1.3e-15 of its max), 23 ms and 2.80 MiB on moveaxis views (bits moved
    # too): half the solve's time for 0.75 MiB, and the same bits
    dg, dric = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (field.dg, field.d_ricci))
    dr = np.einsum("...ab,k...ba->k...", ginv, dric) \
        - np.einsum("...ab,k...bc,...ca->k...", ginv, dg, ginv @ ric)
    de = dr[..., None, None] * g + r[..., None, None] * dg - 2.0 * dric
    del dric                          # before the d chi temporaries
    ds_s = 0.5 * (np.einsum("...ab,k...ba->k...", einv, de)
                  - np.einsum("...ab,k...ba->k...", ginv, dg))
    w = g @ einv                      # d (g E^{-1} g) = dg W^T + W dg - W dE W^T
    wt = np.swapaxes(w, -1, -2)
    d_chi = ds_s[..., None, None] * chi \
        + s[..., None, None] * (dg @ wt + w @ dg - w @ de @ wt)
    return ChiField(field, chi, np.moveaxis(d_chi, 0, -1), residuals, gaps)


def _continuous_data(family, chart, perturbation, pts):
    """The march's stage data at the family's chart points, (len(pts), 3, 5,
    3): block i holds the coefficients of the march along axis i, [i, k, j] =
    Gamma^k_ij for k < 3, [i, 3, j] = chi_ij and [i, 4, j] = (chi g^{-1})_i^j,
    with chi formed from Ricci plus the value of perturbation(pts), if any."""
    pts = np.asarray(pts, dtype=float)
    cs = curvature(metric_jets(family, chart, pts, order=2))
    ric = cs.ricci if perturbation is None else cs.ricci + perturbation(pts)[0]
    chi = _chi_values(cs.metric, cs.metric_inv, ric, chart, pts)[0]
    data = np.empty((len(pts), 3, 5, 3))
    data[:, :, :3] = np.swapaxes(cs.christoffel, 1, 2)
    data[:, :, 3] = chi
    data[:, :, 4] = chi @ cs.metric_inv
    return data


# ------------------------------------------------- Codazzi embeddability

def reference_families():
    """Embedded families used to calibrate the Codazzi threshold."""
    return {
        "ellipsoid": Ellipsoid((1.0, 1.2, 0.9, 1.05)),
        "graph-bump": radial_graph_bump(0.1),
        "graph-random": radial_graph_random(seed=123),
    }


def _chart_residuals(pts, chart):
    """{family name: sup Codazzi residual of the solved chi} over one chart
    of the reference families; each family's field is dropped before the
    next one is built."""
    observed = {}
    for name, fam in reference_families().items():
        f = IntrinsicField.from_family(fam, chart, pts)
        chi = solve_contracted_gauss(f)
        observed[name] = float(codazzi_residual(f.christoffel, chi.values, chi.d_values).max())
        del f, chi
    return observed


@lru_cache(maxsize=8)
def codazzi_threshold(resolution, extent=GRID_EXTENT):
    """10x the worst Codazzi residual the solver shows on embedded
    reference families at this resolution; (theta, per-family dict).

    On Linux chart 1's three solves run in a forked child (_forkjoin) while
    this process solves chart 0; each entry is computed on its own, so the
    values are those of solving all six here.  An error of chart 0, raised
    here, wins over the child's.
    """
    pts = ball_grid(resolution, extent, 3)
    with Forked(_chart_residuals, pts, 1) as chart1:
        charts = (_chart_residuals(pts, 0), chart1.result())
    observed = {f"{name}/chart{chart}": charts[chart][name]
                for name in charts[0] for chart in (0, 1)}
    return 10.0 * max(observed.values()), observed


@dataclasses.dataclass
class EmbeddabilityVerdict:
    embeddable: bool
    sup_residual: float
    threshold: float
    at: dict
    calibration: dict

    def to_dict(self):
        return dataclasses.asdict(self)


def embeddability_check(field: IntrinsicField, chi: ChiField,
                        theta: Optional[float] = None) -> EmbeddabilityVerdict:
    """Codazzi gate: embeddable iff sup residual stays below theta.

    theta defaults to the threshold calibrated on the field's chart ball
    (resolution and extent); the calibration data is echoed in the verdict.
    """
    residuals = codazzi_residual(field.christoffel, chi.values, chi.d_values)
    if theta is None:
        # a ball grid reaches its extent exactly, at the ends of each axis
        extent = float(np.abs(field.coords).max())
        theta, observed = codazzi_threshold(field.grid_resolution(), extent)
        calibration = {"resolution": field.grid_resolution(),
                       "observed": observed}
    else:
        calibration = {"provided": True}
    idx, sup, ok = worst(residuals, theta)
    return EmbeddabilityVerdict(
        embeddable=ok,
        sup_residual=sup,
        threshold=float(theta),
        at=location(field.chart, field.coords[idx]),
        calibration=calibration,
    )


# ----------------------------------------------------- frame integration

# Most RK4 substeps per lattice segment that a run configuration may ask for.
# The march's stage data comes one stage row at a time (_stage_stream): a row
# holds 45 floats a start node (3 x 5 x 3: Christoffel 27, chi 9, chi g^-1 9),
# and a fill holds one BLOCK_POINTS call, the points read ahead, the one row
# being filled and a substep's three rows, so its memory does not depend on
# the substep count.  Measured on the ellipsoid (1, 1.2, 0.9, 1.05): one
# fill's tracemalloc peak at resolution 9 is 1.77, 1.75 and 1.78 MiB at 6,
# 30 and 120 substeps, and a reconstruct's peak RSS at 30 and at 250
# substeps differs by at most 0.2 MiB at resolutions 9, 13 and 17, in the
# parent and in its child (see cli.MAX_RESOLUTION).  So the cap bounds run
# time, which grows linearly in it: at 250 substeps a reconstruct took
# 6.6 s at resolution 9 and 43 s at 17 (2 vCPUs, both fills at once).
MAX_SUBSTEPS = 250


def _axis_values(c):
    """Sorted distinct values of c rounded to 12 decimals, as np.unique
    gives them (np.unique would import numpy.ma on first use)."""
    v = np.sort(np.round(c, 12), axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _lattice(coords):
    """A grid's integer lattice: (idx, spacing, center row).

    spacing is the step between the first coordinate's values, idx the
    coordinates in units of it (rounded), and the center row the node at
    the chart origin.
    """
    center = int(np.argmin(np.linalg.norm(coords, axis=-1)))
    if np.linalg.norm(coords[center]) > 1e-12:
        raise ValueError("field grid has no center node")
    axis_vals = _axis_values(coords[:, 0])
    spacing = float(axis_vals[1] - axis_vals[0])
    return np.rint(coords / spacing).astype(int), spacing, center


def seed_frame(g):
    """The frame state at the chart center, from the metric g there: an
    (n + 2, n + 1) array of rows X, E_1..E_n, N, holding the origin, the Gram
    rows of g, and the normal along the last ambient axis.

    The rows of the Cholesky factor L satisfy L L^T = g, and padding them
    with a zero last component leaves e_{n+1} as the unique unit normal
    making [E_1..E_n, N] positively oriented (det L > 0).
    """
    n = g.shape[-1]
    frame = np.zeros((n + 2, n + 1))
    frame[1:n + 1, :n] = np.linalg.cholesky(g)
    frame[n + 1, n] = 1.0
    return frame


@dataclasses.dataclass
class Reconstruction:
    X: np.ndarray
    isometry_sup: float
    holonomy_sup: Optional[float]


def _rhs(axis, data, s):
    """d/dx_axis of frame states s (rows X, E_1..E_3, N) from stage data
    (_continuous_data): X' = E_axis, E_j' = Gamma^k_{axis j} E_k - chi_{axis j} N
    and N' = (chi g^{-1})_axis^j E_j."""
    d, e = data[:, axis], s[:, 1:4]
    ds = np.empty_like(s)
    ds[:, 0] = e[:, axis]
    ds[:, 1:4] = np.einsum("lkj,lkp->ljp", d[:, :3], e) - d[:, 3, :, None] * s[:, 4, None, :]
    ds[:, 4] = np.einsum("lj,ljp->lp", d[:, 4], e)
    return ds


def _stage_points(starts, axis, dt, nsub):
    """A level's RK4 stage points in march order, 2 nsub + 1 rows of
    len(starts): the starts, then each substep's midpoints and ends along
    the axis, one row at a time."""
    unit = np.eye(3)[axis]
    yield starts
    for s in range(nsub):
        for t in (s * dt + dt / 2.0, s * dt + dt):
            yield starts + t * unit


def _stage_stream(source, rows):
    """_continuous_data(*source, row), one (len(row), 3, 5, 3) array, for
    each row of chart points, one row at a time; source is (family, chart,
    perturbation).

    The rows' points are appended to one buffer, read only as it runs short
    of a call, and evaluated in calls of exactly surfaces.BLOCK_POINTS
    points, only the last call shorter, so one call may span several rows
    and one row several calls.  Each call's data is copied into the array of
    the row it reaches, made when that row's first data arrives; a row is
    handed out once its last point is written, and dropped by the stream
    before the next call.  So the stream holds one call, the points read
    ahead and the one row being filled.  Evaluation is point by point, so
    the data does not depend on how the calls split the rows.
    """
    size, rows = surfaces.BLOCK_POINTS, iter(rows)
    lengths = collections.deque()    # of the rows read and not yet begun
    points = np.zeros((0, 3))        # read and not yet evaluated
    row, at = None, 0                # the row being filled, written up to `at`
    while True:
        while len(points) < size and (new := next(rows, None)) is not None:
            lengths.append(len(new))
            points = np.concatenate([points, new])
        if not len(points):
            return
        data = _continuous_data(*source, points[:size])
        points = points[size:]
        used = 0
        while used < len(data):
            if row is None:
                row = np.empty((lengths.popleft(),) + data.shape[1:])
            k = min(len(row) - at, len(data) - used)
            row[at:at + k] = data[used:used + k]
            at, used = at + k, used + k
            if at == len(row):
                yield row
                row, at = None, 0
        del data                     # before the next call is evaluated


def _integrate_batch(rows, axis, dt, nsub, s):
    """March a batch of frame states s, (batch, 5, 4) with rows X, E_1..E_3,
    N, nsub RK4 substeps of dt along an axis.

    rows gives the batch's stage data, evaluated by the caller, one stage
    row of len(s) points at a time (_stage_points): the (3, 5, 3) blocks of
    _continuous_data at the starts, then at each substep's midpoints and
    ends, the ends of one substep being the starts of the next.
    """
    end = next(rows)
    for _ in range(nsub):
        start, mid, end = end, next(rows), next(rows)
        k1 = _rhs(axis, start, s)
        k2 = _rhs(axis, mid, s + dt / 2 * k1)
        k3 = _rhs(axis, mid, s + dt / 2 * k2)
        k4 = _rhs(axis, end, s + dt * k3)
        s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


def _fill_levels(idx, center, plan):
    """The levels of one fill, in march order: (axis, sign, targets, sources).

    With plan (a, b, c) the fill covers the line through the center along
    a, then the (a, b) plane along b, then the ball along c.  Each stage
    moves outward by levels |idx[axis]| = 1, 2, ..., the + side first: a
    level joins the unfilled nodes of the stage at that level (targets) to
    the filled nodes one step back toward the center (sources), and a side
    ends at its first level without such a pair.  Reads the lattice alone;
    raises IntegrationError when the levels miss a node.
    """
    total = idx.shape[0]
    reach = int(np.abs(idx).max())
    rows = np.full((2 * reach + 1,) * 3, -1)     # lattice index + reach -> row
    rows[tuple((idx + reach).T)] = np.arange(total)
    done = np.zeros(total, dtype=bool)
    done[center] = True
    levels = []
    a, b, c = plan
    for axis, in_stage in ((a, (idx[:, b] == 0) & (idx[:, c] == 0)),
                           (b, idx[:, c] == 0),
                           (c, np.ones(total, dtype=bool))):
        for sign in (1, -1):
            back = reach - sign * np.eye(3, dtype=int)[axis]
            for level in itertools.count(1):
                targets = np.nonzero(in_stage & ~done & (idx[:, axis] == sign * level))[0]
                sources = rows[tuple((idx[targets] + back).T)]
                reached = (sources >= 0) & done[sources]
                targets, sources = targets[reached], sources[reached]
                if not targets.size:
                    break
                levels.append((axis, sign, targets, sources))
                done[targets] = True
    if not done.all():
        raise IntegrationError("sweep failed to reach every grid node")
    return levels


def _sweep_fill(source, coords, g, seed, plan, h, limit):
    """Frame states marched from the seed (seed_frame) at the center node
    over the lattice of coords in plan order, with the stage data of source,
    (family, chart, perturbation), and g at the nodes for the drift.

    The levels come from _fill_levels, which fails before anything marches
    when they miss a node.  Each level is one _integrate_batch call, which
    pulls the level's 2 nsub + 1 stage rows (_stage_points) from one stream
    for the whole fill (_stage_stream), so the fill's memory does not grow
    with nsub.  Returns a copy of the states' X rows, so that the states die
    with the fill, and the sup of the frame drift |E E^T - g| over the nodes;
    raises IntegrationError at the first node whose drift exceeds limit.
    """
    idx, spacing, center = _lattice(coords)
    levels = _fill_levels(idx, center, plan)
    nsub = int(round(spacing / h))
    step = spacing / nsub
    stream = _stage_stream(source, itertools.chain.from_iterable(
        _stage_points(coords[sources], axis, sign * step, nsub)
        for axis, sign, _, sources in levels))

    states = np.zeros((coords.shape[0],) + seed.shape)
    states[center] = seed

    iso_sup = 0.0
    for axis, sign, targets, sources in levels:
        states[targets] = _integrate_batch(stream, axis, sign * step, nsub, states[sources])
        e = states[targets, 1:4]
        drift = np.abs(e @ np.swapaxes(e, -1, -2) - g[targets]).max(axis=(-2, -1))
        k, sup, ok = worst(drift, limit)
        if not ok:
            where = location(source[1], coords[targets[k]])
            raise IntegrationError(
                f"frame drift {sup:.3g} exceeds "
                f"{limit:.3g} at chart {where['chart']}, coords "
                f"{where['coords']}; chi is inconsistent with g"
            )
        iso_sup = max(iso_sup, sup)
    return states[:, 0].copy(), iso_sup


def reconstruct(family, chart, coords, perturbation=None, path_plan=(0, 1, 2),
                h=1e-2, drift_limit=PASS_RULES["frame drift"].tol,
                with_holonomy=True) -> Reconstruction:
    """Integrate the frame system of the family over the chart grid coords.

    Nothing is solved first: g at the nodes comes from metric_values, and
    each RK4 stage point forms chi (_chi_values, with its errors) from the
    family's Ricci plus the value of perturbation(pts), if given.  The
    lattice fills in the path_plan's axis order (a line, then a plane, then
    the ball); holonomy is the sup of |X - X'| between this fill and one in
    the reversed order, and vanishes to integrator accuracy exactly when chi
    satisfies the Codazzi relation.  Each lattice segment takes
    round(spacing / h) RK4 substeps, so h may not exceed the spacing.

    A node fails when its frame drift |E E^T - g| exceeds drift_limit times
    the grid minimum of g's least eigenvalue; both scale as lambda^2 with the
    body (PASS_RULES["frame drift"]), so the verdict does not depend on size.
    On Linux the reversed fill marches in a forked child (_forkjoin) while
    this process marches the forward one; neither reads the other.
    """
    if sorted(path_plan) != [0, 1, 2]:
        raise ValueError("path_plan must be a permutation of (0, 1, 2)")
    coords = _three_dimensional(np.asarray(coords, dtype=float))
    _, spacing, center = _lattice(coords)
    # the spacing is read from coordinates rounded to 12 decimals, so a step
    # equal to the nominal spacing 2 extent / (resolution - 1) must pass
    if not 0.0 < h <= spacing * (1.0 + 1e-9):
        raise ValueError(f"step h {h:g} must be positive and at most the "
                         f"lattice spacing {spacing:g}")
    g = metric_values(family, chart, coords)
    seed = seed_frame(g[center])
    limit = drift_limit * float(np.linalg.eigvalsh(g)[..., 0].min())
    args = ((family, chart, perturbation), coords, g, seed)
    plan = tuple(path_plan)
    holo = None
    if not with_holonomy:
        xs, iso = _sweep_fill(*args, plan, h, limit)
    else:
        # an error of the forward fill, raised here, wins over the child's
        with Forked(_sweep_fill, *args, plan[::-1], h, limit) as backward:
            xs, iso = _sweep_fill(*args, plan, h, limit)
            xs2, iso2 = backward.result()
        iso = max(iso, iso2)
        holo = float(np.linalg.norm(xs - xs2, axis=-1).max())
    return Reconstruction(X=xs, isometry_sup=iso, holonomy_sup=holo)


def align_rigid(recon, truth):
    """Least-squares orthogonal map + translation taking recon onto truth.

    Reflections are allowed.  Returns (Q, t, rms) with recon @ Q + t as the
    aligned cloud; warns when either cloud is rank deficient, since the map
    is then not unique.
    """
    a = np.asarray(recon, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("point clouds must share (count, dim) shape")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    a0, b0 = a - ca, b - cb
    for cloud in (a0, b0):
        sv = np.linalg.svd(cloud, compute_uv=False)
        if sv[-1] <= 1e-9 * max(sv[0], 1e-300):
            warnings.warn("point cloud is rank deficient; the alignment is "
                          "not unique", RuntimeWarning, stacklevel=2)
            break
    # scipy.linalg.orthogonal_procrustes(a0, b0), transposes included
    u, _, vt = np.linalg.svd((b0.T @ a0).T)
    q = u @ vt
    t = cb - ca @ q
    rms = float(np.sqrt(np.mean(np.sum((a @ q + t - b) ** 2, axis=1))))
    return q, t, rms
