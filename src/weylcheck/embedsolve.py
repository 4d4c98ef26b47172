"""Pointwise inversion of the contracted Gauss relation, the Codazzi
integrability gate, and reconstruction of the embedding from frame ODEs.

The solver inverts Ric = tr_g(chi) chi - chi g^{-1} chi per point in closed
form (n = 3): chi = sqrt(det E / (2 det g)) g E^{-1} g with E = R g - 2 Ric,
which exists exactly where E is positive definite relative to g (see
_chi_values).  First derivatives of chi come from the product rule on that
formula fed with exact jet derivatives of g and Ricci, so the Codazzi
residual carries no grid-differencing noise.  The Codazzi gate's default
threshold is calibrated on three embedded reference families in both
charts; on Linux chart 1's solves run in a forked child beside chart 0's.

IntrinsicField.from_family builds metric jets of order 3, as the solver
reads Ricci (order m - 2) to first derivatives and Codazzi reads Christoffel
values; order 4 gives the same bits (see weylcheck.jets).

Reconstruction integrates X_{;ij} = -chi_ij N and N_i = chi_i^j X_{;j}
along coordinate lines with classical RK4 on the grid's integer lattice.
The fill follows the path plan's axes: the line through the center, then
the plane, then the ball, each outward from the center by lattice levels,
and each level is one array step over all of its nodes.  A plan pass over
the lattice alone lists a fill's levels before anything marches.  A second
fill in the reversed order measures holonomy, the path dependence that
appears exactly when chi fails Codazzi; it reads nothing of the first, so
on Linux it marches in a forked child beside it.  The RK4 stage data comes
from one stream per fill: the stage points of consecutive levels, in fill
order, go through _continuous_data in calls of exactly STAGE_POINTS chart
points (only a fill's last call is shorter), and a level marches as soon as
its last point is evaluated.  The stream holds one level's rows plus one call's:
a whole fill evaluated ahead would take about 0.8 GB at resolution 21 with
MAX_SUBSTEPS substeps, and putting a large level through curvature() at
once raises the peak memory of a reconstruct by about a fifth.  Evaluation
is point by point and jet products are batch-invariant, so the split into
calls does not move a bit.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import warnings
from functools import lru_cache
from typing import Optional

import numpy as np

from ._forkjoin import Forked
from .errors import ConvergenceError, IntegrationError, ObstructionError, location, worst
from .intrinsic import (
    MetricJet,
    codazzi_residual,
    contracted_gauss_residual,
    curvature,
    principal_curvatures,
)
from .jets import Jet
from .surfaces import (
    GRID_EXTENT,
    Ellipsoid,
    ball_grid,
    induced_metric,
    radial_graph_bump,
    radial_graph_random,
)

SOLVE_RESIDUAL_LIMIT = 1e-9


def metric_jets(family, chart, pts, order) -> MetricJet:
    """Induced-metric jets of the family at chart points, any order >= 1."""
    return MetricJet(induced_metric(family.ambient_jets(chart, pts, order=order + 1)))


class IntrinsicField:
    """Metric jets plus Ricci jets and Christoffel values over one chart grid.

    Ricci is always derived from the metric's own curvature, so the two are
    consistent by construction; an optional perturbation (jet-valued
    callable of the coordinates) is added on top to model data that no
    embedding produced.  family is kept when known: it makes the field
    evaluable between grid nodes, which reconstruction needs.
    """

    def __init__(self, chart, coords, metric, ricci_jet, christoffel, family=None,
                 perturbation=None):
        self.chart = chart
        self.coords = np.asarray(coords, dtype=float)
        self.metric = metric
        self.ricci_jet = ricci_jet
        self.christoffel = christoffel
        self.family = family
        self.perturbation = perturbation
        if self.coords.shape[-1] != metric.n:
            raise ValueError("coordinate width does not match the metric")

    @property
    def n(self):
        return self.metric.n

    @property
    def ricci(self):
        return self.ricci_jet.value

    def g(self):
        return self.metric.values()

    @classmethod
    def from_metric(cls, metric, chart, coords, family=None, perturbation=None):
        cs = curvature(metric)
        rj = cs.ricci_jet
        if perturbation is not None:
            rj = rj + perturbation(coords, rj.order)
        return cls(chart, coords, metric, rj, cs.christoffel, family=family,
                   perturbation=perturbation)

    @classmethod
    def from_family(cls, family, chart, pts, perturbation=None):
        mj = metric_jets(family, chart, pts, order=3)
        return cls.from_metric(mj, chart, pts, family=family,
                               perturbation=perturbation)

    def perturbed(self, perturbation):
        return IntrinsicField.from_metric(self.metric, self.chart, self.coords,
                                          family=self.family,
                                          perturbation=perturbation)

    def grid_resolution(self):
        """Node count per axis, inferred from the first coordinate column."""
        return int(_axis_values(self.coords[..., 0]).size)


def diag_ramp_perturbation(scale=0.05, slopes=(0.5, -0.3, 0.4)):
    """Position-dependent diagonal Ricci perturbation, jet-valued.

    Small scales keep the input inside the solvable cone while breaking the
    Codazzi relation, which is what the negative-control tests need.
    """
    def pert(pts, order):
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[-1]
        val = np.zeros(pts.shape[:-1] + (n, n))
        grad = np.zeros(pts.shape[:-1] + (n, n, n))
        for i in range(n):
            val[..., i, i] = scale * (1.0 + slopes[i % len(slopes)] * pts[..., i])
            grad[..., i, i, i] = scale * slopes[i % len(slopes)]
        return Jet.linear(val, grad, n, order=max(order, 1))
    return pert


# ------------------------------------------------------------- the solver

def _chi_values(g, ginv, ric, chart, coords):
    """chi = s g E^{-1} g with E = R g - 2 Ric and s = sqrt(det E / (2 det g)),
    or ObstructionError at the first of the chart points coords whose Ricci
    leaves the solvable cone; returns (chi, R, E^{-1}, s, gaps).

    Cayley-Hamilton turns tr(A) A - A^2 = Ric, chi's equation in a
    g-orthonormal frame, into sigma_2(A) I - sigma_3(A) A^{-1} = Ric; the
    trace gives sigma_2 = R / 2, hence A = 2 sigma_3 E^{-1} with
    sigma_3 = sqrt(det E / 8).  E's eigenvalues relative to g are the
    t_i = sum(mu) - 2 mu_i of matmap._gaps_closed_form_3 (mu: Ricci's), and
    the cone is t_i > 0 for all i, which makes every mu_i > 0 as
    t_i + t_j = 2 mu_k.  gaps, the eps-gap per point, is the least t_i: E is
    twice R g / 2 - Ric, so for the field's own Ricci the eps-gap is twice
    the least sectional curvature (see intrinsic.sectional_extremes).
    """
    r = np.einsum("...ab,...ba->...", ginv, ric)
    e = r[..., None, None] * g - 2.0 * ric
    gaps = principal_curvatures(g, e)[..., 0]
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
    s = np.sqrt(np.linalg.det(e) / (2.0 * np.linalg.det(g)))
    return s[..., None, None] * (g @ einv @ g), r, einv, s, gaps


class ChiField:
    """Solver output: chi with first derivatives over the field's grid."""

    def __init__(self, field, values, d_values, residuals, gaps):
        self.field = field
        self.values = values
        self.d_values = d_values          # (..., n, n, n), last axis = d/dx_k
        self.residuals = residuals
        self.gaps = gaps

    @property
    def n(self):
        return self.field.n

    def as_jet(self):
        return Jet.linear(self.values, self.d_values, self.n)

    def principal_min(self):
        return principal_curvatures(self.field.g(), self.values)[..., 0]


def solve_contracted_gauss(field: IntrinsicField) -> ChiField:
    """The unique SPD chi with tr_g(chi) chi - chi g^{-1} chi = Ric (n = 3),
    and its first derivatives.

    chi is the closed form s g E^{-1} g of _chi_values, E = R g - 2 Ric.
    d chi / dx_k is the product rule on it, fed by exact jet partials of g
    and Ricci: dR = tr(g^{-1} dRic) - tr(g^{-1} dg g^{-1} Ric),
    dE = dR g + R dg - 2 dRic, ds / s = (tr(E^{-1} dE) - tr(g^{-1} dg)) / 2.
    Raises ObstructionError at the first point where E is not positive
    definite relative to g, reporting its eps-gap (E's least eigenvalue).
    """
    if field.n != 3:
        raise ValueError("the contracted-Gauss solve is three-dimensional only")
    g = field.g()
    ric = field.ricci
    ginv = np.linalg.inv(g)
    chi, r, einv, s, gaps = _chi_values(g, ginv, ric, field.chart, field.coords)
    residuals = contracted_gauss_residual(ginv, chi, ric)
    _, sup, ok = worst(residuals, SOLVE_RESIDUAL_LIMIT)
    if not ok:
        raise ConvergenceError("solver residual above the per-point limit",
                               residual=sup)
    # leading axis k: the partials d/dx_k
    dg = np.stack([field.metric.jet.derivative(k).value for k in range(3)])
    dric = np.stack([field.ricci_jet.derivative(k).value for k in range(3)])
    dr = np.einsum("...ab,k...ba->k...", ginv, dric) \
        - np.einsum("...ab,k...bc,...ca->k...", ginv, dg, ginv @ ric)
    de = dr[..., None, None] * g + r[..., None, None] * dg - 2.0 * dric
    ds_s = 0.5 * (np.einsum("...ab,k...ba->k...", einv, de)
                  - np.einsum("...ab,k...ba->k...", ginv, dg))
    w = g @ einv                      # d (g E^{-1} g) = dg W^T + W dg - W dE W^T
    wt = np.swapaxes(w, -1, -2)
    d_chi = ds_s[..., None, None] * chi \
        + s[..., None, None] * (dg @ wt + w @ dg - w @ de @ wt)
    return ChiField(field, chi, np.moveaxis(d_chi, 0, -1), residuals, gaps)


def _continuous_data(field, pts):
    """(Gamma, chi, chi g^{-1}) at arbitrary chart points, for integration."""
    if field.family is None:
        raise ValueError("off-grid evaluation needs a family-backed field")
    pts = np.asarray(pts, dtype=float)
    mj = metric_jets(field.family, field.chart, pts, order=2)
    cs = curvature(mj)
    ric = cs.ricci
    if field.perturbation is not None:
        ric = ric + field.perturbation(pts, 1).value
    chi = _chi_values(cs.metric, cs.metric_inv, ric, field.chart, pts)[0]
    return cs.christoffel, chi, chi @ cs.metric_inv


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
    of the reference families."""
    observed = {}
    for name, fam in reference_families().items():
        f = IntrinsicField.from_family(fam, chart, pts)
        chi = solve_contracted_gauss(f)
        observed[name] = float(codazzi_residual(f.christoffel, chi.as_jet()).max())
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
    residuals: np.ndarray = dataclasses.field(repr=False, default=None)

    def to_dict(self):
        return {
            "embeddable": self.embeddable,
            "sup_residual": self.sup_residual,
            "threshold": self.threshold,
            "at": self.at,
            "calibration": self.calibration,
        }


def embeddability_check(field: IntrinsicField, chi: ChiField,
                        theta: Optional[float] = None) -> EmbeddabilityVerdict:
    """Codazzi gate: embeddable iff sup residual stays below theta.

    theta defaults to the threshold calibrated on the field's chart ball
    (resolution and extent); the calibration data is echoed in the verdict.
    """
    if field.n != 3:
        raise ValueError("the embeddability gate is three-dimensional only")
    residuals = codazzi_residual(field.christoffel, chi.as_jet())
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
        residuals=residuals,
    )


# ----------------------------------------------------- frame integration

STAGE_POINTS = 512   # chart points per march _continuous_data call

# Most RK4 substeps per lattice segment that a run configuration may ask for.
# A level's stage data holds 2 nsub + 1 rows of 48 floats per start node
# (Christoffel 27, chi 9, chi g^-1 9, the point 3), 768 B per start and
# substep.  A fill's stage-data stream holds one level's rows plus one
# STAGE_POINTS chunk, and while a level's rows are joined the evaluated parts
# and the joined copy are both alive, so a fill peaks at twice the level:
# 1.5 KiB per start and substep.  Measured with tracemalloc in each process
# on the ellipsoid (1, 1.2, 0.9, 1.05), a fill's peak grows by 0.85, 1.28
# and 1.50 KiB per start and substep at resolutions 9, 13 and 17 (largest
# level 45, 109 and 193 starts; nsub 8 -> 32).  The two fills run at once
# (the reversed one in a forked child), and the largest level has 1941 starts
# at resolution 51 (cli.MAX_RESOLUTION): 250 substeps keep the two fills
# under 2 x 1941 x 501 x 768 B = 1425 MiB.  With the imports (~61 MiB), the
# field the child shares with the parent (2.2 KiB per node, 142 MiB) and
# each fill's frame arrays (~17 MiB), a reconstruct stays under 1.7 GiB.
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
    """(X, E, N) at the chart center, from the metric g there: the origin,
    the Gram rows of g, and the normal along the last ambient axis.

    The rows of the Cholesky factor L satisfy L L^T = g, and padding them
    with a zero last component leaves e_{n+1} as the unique unit normal
    making [E_1..E_n, N] positively oriented (det L > 0).
    """
    n = g.shape[-1]
    e = np.zeros((n, n + 1))
    e[:, :n] = np.linalg.cholesky(g)
    return np.zeros(n + 1), e, np.eye(n + 1)[n]


@dataclasses.dataclass
class Reconstruction:
    coords: np.ndarray
    X: np.ndarray
    isometry_sup: float
    holonomy_sup: Optional[float]
    plan: tuple
    h: float
    drift_limit: float


def _rhs(axis, gamma, chi, chi_ginv, e, nrm):
    de = np.einsum("lkj,lkp->ljp", gamma[:, :, axis, :], e) \
        - chi[:, axis, :, None] * nrm[:, None, :]
    dn = np.einsum("lj,ljp->lp", chi_ginv[:, axis, :], e)
    return e[:, axis], de, dn


def _stage_points(starts, axis, dt, nsub):
    """A level's RK4 stage points, (2 nsub + 1) rows of len(starts): the
    starts, then each substep's midpoints and ends along the axis."""
    unit = np.zeros(3)
    unit[axis] = 1.0
    offsets = np.array([t for s in range(nsub) for t in (s * dt + dt / 2.0, s * dt + dt)])
    return np.concatenate([starts[None], starts + offsets[:, None, None] * unit]).reshape(-1, 3)


def _take_rows(parts, size):
    """Move the first size rows of the evaluated parts (a list of tuples of
    arrays, consumed in place) into one tuple of arrays."""
    rows = tuple(np.empty((size,) + a.shape[1:]) for a in parts[0])
    at = 0
    while at < size:
        part = parts.pop(0)
        k = min(size - at, len(part[0]))
        for out, a in zip(rows, part):
            out[at:at + k] = a[:k]
        if k < len(part[0]):
            # a copy, so the rest does not keep the whole part alive
            parts.insert(0, tuple(a[k:].copy() for a in part))
        at += k
    return rows


def _stage_stream(field, blocks):
    """_continuous_data for each block of chart points, one block at a time.

    The blocks' points are taken as one sequence and evaluated in calls of
    exactly STAGE_POINTS points, only the last call shorter, so one call may
    span several blocks.  A block's rows are yielded as soon as its last point
    is evaluated, and blocks are read only as the calls reach them: the
    stream holds one block's rows plus at most one call's.  Evaluation is
    point by point, so the rows do not depend on how the calls split them.
    """
    pending = []                     # evaluated rows not yet handed out
    sizes = collections.deque()      # row counts of blocks not yet handed out
    rest = np.zeros((0, 3))          # points read but not yet evaluated
    for block in blocks:
        sizes.append(len(block))
        pts = np.concatenate([rest, block])
        full = len(pts) - len(pts) % STAGE_POINTS
        for i in range(0, full, STAGE_POINTS):
            pending.append(_continuous_data(field, pts[i:i + STAGE_POINTS]))
            while sizes and sum(len(p[0]) for p in pending) >= sizes[0]:
                yield _take_rows(pending, sizes.popleft())
        rest = pts[full:]
    if len(rest):
        pending.append(_continuous_data(field, rest))
    while sizes:
        yield _take_rows(pending, sizes.popleft())


def _integrate_batch(stages, axis, dt, x, e, nrm):
    """March a batch of frame states one lattice segment along an axis.

    stages is the batch's RK4 stage data, evaluated by the caller: one
    level's rows from the fill's stage-data stream, which holds that level
    plus at most one STAGE_POINTS chunk.  It gives (Gamma, chi, chi g^-1) at
    the starts, then at each substep's midpoints and ends, len(x) rows each
    (_stage_points).
    """
    stages = [d.reshape((-1, len(x)) + d.shape[1:]) for d in stages]
    nsub = len(stages[0]) // 2

    def f(row, e, nrm):
        return _rhs(axis, *(d[row] for d in stages), e, nrm)

    for s in range(nsub):
        k1 = f(2 * s, e, nrm)
        k2 = f(2 * s + 1, e + dt / 2 * k1[1], nrm + dt / 2 * k1[2])
        k3 = f(2 * s + 1, e + dt / 2 * k2[1], nrm + dt / 2 * k2[2])
        k4 = f(2 * s + 2, e + dt * k3[1], nrm + dt * k3[2])
        x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        e = e + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        nrm = nrm + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, e, nrm


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


def _sweep_fill(field, seed, plan, h, limit):
    """Frame states marched from the seed (X, E, N) at the center node over
    the lattice in plan order.

    The levels come from _fill_levels, which fails before anything marches
    when they miss a node.  Each level is one _integrate_batch call, fed by
    one stage-data stream for the whole fill (_stage_stream) that holds one
    level's rows plus one STAGE_POINTS chunk.  Returns the positions and the
    sup of the frame drift |E E^T - g| over the nodes; raises
    IntegrationError at the first node whose drift exceeds limit.
    """
    coords = field.coords
    idx, spacing, center = _lattice(coords)
    levels = _fill_levels(idx, center, plan)
    nsub = int(round(spacing / h))
    step = spacing / nsub
    stream = _stage_stream(field, (_stage_points(coords[sources], axis, sign * step, nsub)
                                   for axis, sign, _, sources in levels))

    total = coords.shape[0]
    xs = np.zeros((total, 4))
    es = np.zeros((total, 3, 4))
    ns = np.zeros((total, 4))
    xs[center], es[center], ns[center] = seed

    gvals = field.g()
    iso_sup = 0.0
    for axis, sign, targets, sources in levels:
        # the stage data goes straight into the call, so nothing keeps a
        # level's rows alive while the stream evaluates the next one
        x, e, nrm = _integrate_batch(next(stream), axis, sign * step,
                                     xs[sources], es[sources], ns[sources])
        xs[targets], es[targets], ns[targets] = x, e, nrm
        drift = np.abs(e @ np.swapaxes(e, -1, -2) - gvals[targets]).max(axis=(-2, -1))
        k, sup, ok = worst(drift, limit)
        if not ok:
            where = location(field.chart, coords[targets[k]])
            raise IntegrationError(
                f"frame drift {sup:.3g} exceeds "
                f"{limit:.3g} at chart {where['chart']}, coords "
                f"{where['coords']}; chi is inconsistent with g"
            )
        iso_sup = max(iso_sup, sup)
    return xs, iso_sup


def reconstruct(field: IntrinsicField, chi: ChiField, path_plan=(0, 1, 2),
                h=1e-2, drift_limit=1e-3, with_holonomy=True) -> Reconstruction:
    """Integrate the frame system over the chart ball.

    The lattice fills in the path_plan's axis order (a line, then a plane,
    then the ball); holonomy is the sup of |X - X'| between this fill and
    one in the reversed order, and vanishes to integrator accuracy exactly
    when chi satisfies the Codazzi relation.  Each lattice segment takes
    round(spacing / h) RK4 substeps, so h may not exceed the spacing.

    A node fails when its frame drift |E E^T - g| exceeds drift_limit times
    the grid minimum of g's least eigenvalue.  Both scale as lambda^2 when
    the body scales by lambda, so the verdict does not depend on its size.
    On Linux the reversed fill marches in a forked child (_forkjoin) while
    this process marches the forward one; neither reads the other.
    """
    if field.n != 3:
        raise ValueError("reconstruction is three-dimensional only")
    if sorted(path_plan) != [0, 1, 2]:
        raise ValueError("path_plan must be a permutation of (0, 1, 2)")
    if chi.field is not field:
        raise ValueError("chi was solved on a different field")
    _, spacing, center = _lattice(field.coords)
    # the spacing is read from coordinates rounded to 12 decimals, so a step
    # equal to the nominal spacing 2 extent / (resolution - 1) must pass
    if not 0.0 < h <= spacing * (1.0 + 1e-9):
        raise ValueError(f"step h {h:g} must be positive and at most the "
                         f"lattice spacing {spacing:g}")
    g = field.g()
    seed = seed_frame(g[center])
    limit = drift_limit * float(np.linalg.eigvalsh(g)[..., 0].min())
    plan = tuple(path_plan)
    holo = None
    if not with_holonomy:
        xs, iso = _sweep_fill(field, seed, plan, h, limit)
    else:
        # an error of the forward fill, raised here, wins over the child's
        with Forked(_sweep_fill, field, seed, plan[::-1], h, limit) as backward:
            xs, iso = _sweep_fill(field, seed, plan, h, limit)
            xs2, iso2 = backward.result()
        iso = max(iso, iso2)
        holo = float(np.linalg.norm(xs - xs2, axis=-1).max())
    return Reconstruction(coords=field.coords, X=xs, isometry_sup=iso,
                          holonomy_sup=holo, plan=plan, h=h,
                          drift_limit=drift_limit)


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
