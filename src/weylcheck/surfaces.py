"""Convex hypersurfaces in R^{n+1} over two stereographic charts (n = 2, 3).

Families are maps from the unit n-sphere into R^{n+1}: ellipsoids (the
round sphere, RoundSphere, has equal semi-axes) and radial graphs
X = rho(xhat) * xhat with rho = 1/u.  Every field at a chart point is
produced by exact jet arithmetic, with the chart map at the order the
field's readers need, in one of four chart passes: evaluate_grid,
surface_values and metric_values return plain values, and their jets die
inside them, and metric_jets the induced metric's jets, for curvature().
A pass differentiates each ambient jet once, for its tangent rows d_i X^a
(_tangent_rows), which feed the induced metric, the unit normal (their
signed maximal minors over their norm, each minor by weylcheck.jets.det, the
determinant MetricJet.inverse also reads) and chi (their partials).
evaluate_grid runs the chart map at order 4: the induced metric then carries
order 3 and its inverse order 2, and the normal and the second fundamental
form order 2, so the Gauss equation R = (tr A)^2 - tr(A^2), A = g^-1 chi,
gives R's jet to order 2, whose covariant Hessian traced with g^-1 is the
scalar-curvature Laplacian (curvature() runs on the metric's order-2 part);
chi's first derivatives are what Codazzi reads, and rho = |X|^2/2 carries
order 2 for its Hessian in the support identities.  surface_values runs the
chart map at order 2 for the values of X, g and chi, metric_values at order
1 for the values of g, and metric_jets at order m + 1 for metric jets of
order m.  A coefficient has the same bits at every order that holds it (see
weylcheck.jets), so the four agree bit for bit.

Chart 0 maps coords xi to (2 xi, 1 - |xi|^2)/(1 + |xi|^2), chart 1 flips the
last component; the transition between them is the coordinate inversion
xi -> xi/|xi|^2.  unit_sphere_jets forms these jets in closed form,
with one jet reciprocal and no jet product: w = 1 + |xi|^2 about a point p
is written from its coefficients (1 + |p|^2, 2 p_i on xi_i, 1 on xi_i^2),
c = 1/w, and xi_i / w has the coefficients p_i c_k + c_(k - e_i), a shift of
c's (Jet.mul_variable).  These are the bits of the product chain, up to the
signs of zeros.  Grids are chart balls |xi| <= extent (GRID_EXTENT by
default) while charts are evaluated up to |xi| <= CHART_RADIUS, so nothing
is ever evaluated near a chart boundary (see weylcheck.intrinsic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import _rng
from .errors import DomainError
from .intrinsic import (
    CHART_RADIUS,
    GRID_EXTENT,
    CurvatureState,
    MetricJet,
    ball_lattice,
    codazzi_residual,
    contracted_gauss_residual,
    covariant_hessian,
    curvature,
    principal_curvatures,
)
from .jets import Jet, _sum, basis_monomials, det, symmetric

AMBIENT_ORDER = 4

# Most chart points one jet pass takes: verify's grid
# (bounds.evaluate_family_grid) evaluates each chart, and the march's stage
# stream (embedsolve._stage_stream) its stage points, in consecutive blocks
# of this many.  One order-4 product gathers 3 x 210 floats a point, so each
# of its operands takes 0.86 MB for a block, whatever the grid size (a
# resolution-21 chart has 4,169 points).  Evaluation is point by point and
# jet products are batch-invariant, so the split does not move a bit.
BLOCK_POINTS = 512


def point_blocks(pts):
    """Consecutive slices of pts (.., n) of BLOCK_POINTS points, only the
    last one shorter."""
    return [pts[at:at + BLOCK_POINTS] for at in range(0, len(pts), BLOCK_POINTS)]


def unit_sphere_jets(chart, pts, order=AMBIENT_ORDER):
    """Jets of the chart parametrization of the unit sphere, one per
    ambient component, in closed form (see the module docstring)."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-1]
    if np.any(np.linalg.norm(pts, axis=-1) > CHART_RADIUS):
        raise DomainError("points outside chart radius")
    # w = 1 + |xi|^2 about p: 1 + |p|^2, 2 p_i on xi_i and 1 on xi_i^2
    monos = basis_monomials(n, order)
    w0 = 1.0
    for i in range(n):
        w0 = pts[..., i] * pts[..., i] + w0
    w = Jet.constant(w0, n, order)
    for i in range(n):
        for power, coeff in ((1, 2.0 * pts[..., i]), (2, 1.0)):
            mono = tuple(power if v == i else 0 for v in range(n))
            if sum(mono) <= order:
                w.coeffs[..., monos.index(mono)] = coeff
    winv = w.reciprocal()
    out = [2.0 * winv.mul_variable(pts[..., i], i) for i in range(n)]
    last = (2.0 * winv) - 1.0  # (1 - |xi|^2)/(1 + |xi|^2)
    if chart == 1:
        last = -1.0 * last
    out.append(last)
    return out


def _semi_axes(semi_axes):
    axes = tuple(float(a) for a in semi_axes)
    if not all(0 < a < np.inf for a in axes):
        raise ValueError("semi-axes must be positive and finite")
    return axes


class Ellipsoid:
    """Axis-aligned ellipsoid, parametrized by scaling the unit sphere."""

    def __init__(self, semi_axes):
        self.semi_axes = _semi_axes(semi_axes)
        self.dim = len(self.semi_axes) - 1

    def ambient_jets(self, chart, pts, order=AMBIENT_ORDER):
        comps = unit_sphere_jets(chart, pts, order)
        return [a * c for a, c in zip(self.semi_axes, comps)]

    def __repr__(self):
        return f"Ellipsoid{self.semi_axes}"


def RoundSphere(radius, dim=3):
    """The round sphere of the given radius: the Ellipsoid with dim + 1 equal
    semi-axes, dim the integer 2 or 3, checked before the axes are formed."""
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    if not isinstance(dim, int) or dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim!r}")
    return Ellipsoid((radius,) * (dim + 1))


class RadialGraph:
    """X = xhat / u(xhat) for a positive scalar u on the sphere.

    u is a callable taking the list of n+1 ambient-component jets and
    returning a jet; it must be smooth and positive, with u*gamma + Hess u
    positive semi-definite for the graph to be convex.
    """

    def __init__(self, u: Callable, dim=3):
        self.u = u
        self.dim = dim

    def ambient_jets(self, chart, pts, order=AMBIENT_ORDER):
        comps = unit_sphere_jets(chart, pts, order)
        uj = self.u(comps)
        if np.any(uj.value <= 0.0):
            raise DomainError("radial graph function u must stay positive")
        rho = uj.reciprocal()
        return [rho * c for c in comps]

    def __repr__(self):
        return f"RadialGraph(dim={self.dim})"


def epsilon_family(base: RadialGraph, eps: float) -> RadialGraph:
    """The graph of u + eps; adding a constant shifts every eigenvalue of
    the convexity form by eps, so the result is strictly convex."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not isinstance(base, RadialGraph):
        raise TypeError("epsilon families are defined for radial graphs")
    return RadialGraph(lambda comps: base.u(comps) + eps, dim=base.dim)


# named graph constructors, usable from config files


def radial_graph_constant(c=1.0, dim=3):
    if not 0 < c < np.inf:
        raise ValueError("constant must be positive and finite")
    c = float(c)
    return RadialGraph(lambda comps: Jet.constant(
        np.full(comps[0].batch_shape, c), comps[0].nvars, comps[0].order), dim=dim)


def radial_graph_ellipsoid(semi_axes):
    axes = _semi_axes(semi_axes)

    def u(comps):
        return _sum((c * c) * (1.0 / a**2) for a, c in zip(axes, comps)).sqrt()

    return RadialGraph(u, dim=len(axes) - 1)


def radial_graph_bump(amp=0.1, dim=3):
    """u = 1 + amp * (last ambient coordinate)^2; a small equatorial bulge."""
    if not 0 <= amp < 0.5:
        raise ValueError("bump amplitude out of the convexity-safe range")
    return RadialGraph(lambda comps: 1.0 + amp * (comps[-1] * comps[-1]), dim=dim)


def radial_graph_random(seed, amp=0.05, dim=3):
    """u = 1 + amp * (xhat^T Q xhat) for a seeded random symmetric Q with
    unit-bounded entries; small amp keeps the graph convex.  Q symmetrizes
    the draw of numpy.random.default_rng(seed).uniform(-1, 1, (dim + 1,
    dim + 1)), taken from weylcheck._rng, which gives its bits without
    loading numpy.random."""
    if not 0 <= amp < 0.2:
        raise ValueError("amplitude out of the convexity-safe range")
    q = np.array(_rng.uniform(seed, (dim + 1) ** 2)).reshape(dim + 1, dim + 1)
    q = (q + q.T) / 2.0

    def u(comps):
        # xhat^T Q xhat = sum_a xhat_a (Q xhat)_a: dim + 1 jet products
        axes = range(dim + 1)
        return 1.0 + amp * _sum(comps[a] * _sum(comps[b] * q[a, b] for b in axes)
                                for a in axes)

    return RadialGraph(u, dim=dim)


# --------------------------------------------------------------- evaluation


@dataclass(eq=False)
class SurfaceData:
    """Fields of a family over a batch of chart points, as plain arrays.

    X and N (.., n+1) are the embedding and its unit normal; g and chi
    (.., n, n) the induced metric and the second fundamental form, and d_chi
    (.., n, n, n) chi's first partials, last axis k for d/dx_k; rho = |X|^2/2
    comes with its gradient (.., n) and covariant Hessian (.., n, n), and
    support is X.N.  curvature is the CurvatureState of the order-2 metric,
    whose values g shares, and laplacian_scalar is Delta R, from the Gauss
    equation's R jet (see the module docstring).  evaluate_grid forms every
    field and drops its jets before it returns, so no jet outlives the call.
    """

    coords: np.ndarray
    X: np.ndarray
    N: np.ndarray
    g: np.ndarray
    chi: np.ndarray
    d_chi: np.ndarray
    rho: np.ndarray
    rho_grad: np.ndarray
    rho_hess: np.ndarray
    support: np.ndarray
    curvature: CurvatureState
    laplacian_scalar: np.ndarray

    @cached_property
    def principal_curvatures(self):
        """Eigenvalues of chi relative to g, ascending (.., n)."""
        return principal_curvatures(self.g, self.chi)

    @property
    def H(self):
        return self.principal_curvatures.sum(axis=-1)

    @property
    def chi_norm(self):
        """|chi|_g, the root-sum-square of the principal curvatures."""
        return np.sqrt((self.principal_curvatures**2).sum(axis=-1))

    # -- identity residuals ------------------------------------------------

    def gauss_residual(self):
        """Max-norm of the contracted Gauss residual per point, which is the
        whole Gauss equation for n <= 3 (see contracted_gauss_residual)."""
        cs = self.curvature
        return contracted_gauss_residual(cs.metric_inv, self.chi, cs.ricci)

    def codazzi_residual(self):
        """Max-norm of the antisymmetrized covariant derivative of chi."""
        return codazzi_residual(self.curvature.christoffel, self.chi, self.d_chi)

    def support_identities(self):
        """Residuals of the three support-function identities.

        Returns (r1, r2, r3) arrays: the Hessian identity for rho, the
        gradient identity 2 rho = |grad rho|^2 + (X.N)^2, and the sigma_2
        comparison sqrt(sigma2(lam)) = (X.N) sqrt(R/2) for lam the
        eigenvalues of g - Hess rho relative to g.  Points with R <= 0 get
        NaN in r3 (the comparison involves sqrt(R)); where R > 0 the lam
        must lie in the sigma_2 ellipticity cone, else DomainError.
        """
        g, grad, hess_cov = self.g, self.rho_grad, self.rho_hess
        r1 = np.abs(hess_cov - g + self.support[..., None, None] * self.chi
                    ).max(axis=(-2, -1))
        grad_sq = np.einsum("...ij,...i,...j->...", self.curvature.metric_inv, grad, grad)
        r2 = np.abs(2.0 * self.rho - grad_sq - self.support**2)

        lam = principal_curvatures(g, g - hess_cov)
        s1 = lam.sum(axis=-1)
        s2 = (s1**2 - (lam**2).sum(axis=-1)) / 2.0
        big_r = self.curvature.scalar
        pos = big_r > 0
        if np.any(pos & ((s1 <= 0) | (s2 <= 0))):
            raise DomainError("eigenvalues left the sigma_2 ellipticity cone")
        r3 = np.where(
            pos,
            np.abs(np.sqrt(np.where(pos, s2, 1.0))
                   - self.support * np.sqrt(np.where(pos, big_r, 1.0) / 2.0)),
            np.nan,
        )
        return r1, r2, r3


def _gram(tangent, out):
    """Fill out[..., i, j] = sum_a tangent[i][a] tangent[j][a], the induced
    metric of tangent rows tangent[i][a] = d_i X^a; the entries and out are
    jets and a slot Jet, or value arrays and an array."""
    return symmetric(len(tangent), lambda i, j: _sum(
        ti * tj for ti, tj in zip(tangent[i], tangent[j])), out)


def _tangent_rows(amb):
    """The tangent rows [i][a] = d_i X^a of the ambient jets X^a, one order
    below them: a pass differentiates each ambient jet once, here."""
    return [[x.derivative(i) for x in amb] for i in range(amb[0].nvars)]


def induced_metric(tangent):
    """Induced metric of the tangent rows (_tangent_rows), as an (n, n)-slot
    Jet of their order."""
    n, t = len(tangent), tangent[0][0]
    return _gram(tangent, Jet.zeros(t.batch_shape, (n, n), n, t.order))


def _normal_chi(x_vals, tangent, order):
    """Unit normal jets, oriented so that X.N >= 0 at the values x_vals
    (.., n+1), and the second fundamental form as an (n, n)-slot Jet, both
    of the given order, from the tangent rows (_tangent_rows) of order >=
    order + 1: their minors give the normal, their partials chi."""
    n = len(tangent)
    # normal: generalized cross product, the tangent rows' signed maximal minors
    rows = [[t.truncate(order) for t in row] for row in tangent]
    raw = [det([row[:a] + row[a + 1:] for row in rows]) for a in range(n + 1)]
    raw = [-1.0 * d if a % 2 else d for a, d in enumerate(raw)]
    scale = _sum(c * c for c in raw).sqrt().reciprocal()
    normal = [c * scale for c in raw]
    xdotn = sum((x_vals[..., a] * normal[a].value for a in range(n + 1)))
    sign = np.where(xdotn >= 0, 1.0, -1.0)
    normal = [c * sign for c in normal]

    chi_jet = symmetric(n, lambda i, j: -_sum(
        tangent[i][a].derivative(j).truncate(order) * normal[a] for a in range(n + 1)),
        Jet.zeros(x_vals.shape[:-1], (n, n), n, order))
    return normal, chi_jet


def check_points(family, pts):
    """pts as floats, or ValueError unless its points have the family's
    dimension: every evaluation of a family goes through here."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != family.dim:
        raise ValueError(f"points must have {family.dim} coordinates")
    return pts


def _gauss_scalar(ginv, chi):
    """Scalar curvature (tr A)^2 - tr(A^2), A = g^-1 chi, of a hypersurface
    (the Gauss equation), as a Jet of the order of the (n, n)-slot Jets ginv
    and chi."""
    n = range(chi.nvars)
    a = [[_sum(ginv[..., i, k] * chi[..., k, j] for k in n) for j in n] for i in n]
    trace = _sum(a[i][i] for i in n)
    return trace * trace - _sum(a[i][j] * a[j][i] for i in n for j in n)


def evaluate_grid(family, chart, pts) -> SurfaceData:
    """Evaluate every surface field of the family at chart points (.., n);
    each jet is dropped once it is last read, and none outlives this call."""
    pts = check_points(family, pts)
    amb = family.ambient_jets(chart, pts, order=AMBIENT_ORDER)
    x_vals = np.stack([x.value for x in amb], axis=-1)
    rho_jet = 0.5 * _sum(t * t for t in (x.truncate(2) for x in amb))
    tangent = _tangent_rows(amb)
    del amb
    metric = MetricJet(induced_metric(tangent))
    normal, chi_jet = _normal_chi(x_vals, tangent, 2)
    n_vals = np.stack([c.value for c in normal], axis=-1)
    del tangent, normal
    ginv = metric.inverse()
    cs = curvature(metric.truncate(2), ginv)
    del metric
    scalar_jet = _gauss_scalar(ginv, chi_jet)
    del ginv
    chi, d_chi = np.ascontiguousarray(chi_jet.value), chi_jet.gradient()
    del chi_jet
    _, scalar_hess = covariant_hessian(scalar_jet, cs.christoffel)
    laplacian = np.einsum("...ij,...ij->...", cs.metric_inv, scalar_hess)
    rho_grad, rho_hess = covariant_hessian(rho_jet, cs.christoffel)
    support = np.einsum("...a,...a->...", x_vals, n_vals)
    return SurfaceData(pts, x_vals, n_vals, cs.metric, chi, d_chi,
                       np.array(rho_jet.value), rho_grad, rho_hess, support, cs, laplacian)


def surface_values(family, chart, pts):
    """Values (X, g, chi) at chart points (.., n): the embedding (.., n+1),
    the induced metric and the second fundamental form (.., n, n), from
    ambient jets of order 2; the same bits as evaluate_grid's X, g and chi."""
    amb = family.ambient_jets(chart, check_points(family, pts), order=2)
    x_vals = np.stack([x.value for x in amb], axis=-1)
    tangent = _tangent_rows(amb)
    del amb
    chi = _normal_chi(x_vals, tangent, 0)[1].value
    return x_vals, _metric_values(tangent), np.ascontiguousarray(chi)


def _metric_values(tangent):
    """Induced-metric values (.., n, n) of tangent rows (_tangent_rows), from
    products of their values, with no jet products."""
    values = [[t.value for t in row] for row in tangent]
    return _gram(values, np.empty(values[0][0].shape + (len(values),) * 2))


def metric_values(family, chart, pts):
    """Induced-metric values (.., n, n), from ambient jets of order 1 only."""
    amb = family.ambient_jets(chart, check_points(family, pts), order=1)
    return _metric_values(_tangent_rows(amb))


def metric_jets(family, chart, pts, order) -> MetricJet:
    """Induced-metric jets of the family at chart points, any order >= 1,
    from ambient jets of order + 1; ValueError unless the points have the
    family's dimension."""
    amb = family.ambient_jets(chart, check_points(family, pts), order=order + 1)
    return MetricJet(induced_metric(_tangent_rows(amb)))


def metric_fn(family):
    """Adapter for the geodesic-graph builder."""
    return lambda chart, pts: metric_values(family, chart, pts)


# --------------------------------------------------------------- grids


def ball_grid(resolution, extent=GRID_EXTENT, n=3):
    """Lattice points of the coordinate ball |xi| <= extent, (K, n)."""
    return ball_lattice(resolution, extent, n)[1]
