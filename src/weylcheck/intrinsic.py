"""Curvature of a metric given as a field of Taylor jets.

Everything downstream of a metric happens here: Christoffel symbols, the
Ricci tensor, scalar curvature, the covariant Hessian of a scalar (its trace
is the scalar-curvature Laplacian of weylcheck.surfaces), sectional-curvature
ranges, eigenvalues relative to the metric, the contracted Gauss and the
Codazzi residuals, covariant derivatives of symmetric 2-tensors, the two
stereographic chart balls (lattice and transition), and a shortest-path
estimate of the diameter of a two-chart geometry.  That estimate is the
package's only use of scipy (sparse graphs and Dijkstra), which is
imported inside the two functions that need it, so the other commands
never load it.

Storage.  Every tensor field is one Jet whose trailing batch axes are its
slots, coeffs[..., *slots, monomial], in the one layout of weylcheck.jets,
the monomial axis outermost: the metric is an (n, n)-slot Jet, the
Christoffel symbols an (n, n, n)-slot Jet and Ricci an (n, n)-slot Jet.
Products are formed one slot entry at a time, once per independent entry,
on views of those arrays.  Each metric entry is differentiated once per
pass: the Christoffel symbols read one table of the partials d_k g_ab,
a <= b (18 for n = 3), each dropped after its last reader.  These jets
live only inside curvature(), which returns plain values, C-contiguous as
every value a pass hands out.  No Riemann tensor is formed:
the Ricci jet is summed from the entries R^mu_{s mu nu} its trace reads,
and in the supported dimensions (n = 2, 3) the Weyl tensor vanishes, so
Ricci and the metric fix every other curvature quantity.

Orders.  A field is formed at the order its readers use: for a metric of
order m, MetricJet.inverse() and the Christoffel symbols have order m - 1,
Ricci and the scalar curvature order m - 2; their order-(m - 2) operands
are views of the leading coefficients of the order-(m - 1) jets.
curvature() forms the inverse once per call, or truncates one its caller
formed at a higher order (verify's grid), and keeps no jet.  A CurvatureState
holds values of the metric, its inverse, Christoffel, Ricci and (for m >= 3)
its first partials, last axis k for d/dx_k, and scalar curvature;
sectional_extremes(cs) and ricci_norm(cs) are formed on request.

Conventions.  christoffel[..., k, i, j] holds Gamma^k_{ij}.  ricci[..., s, nu]
is the trace R^mu_{s mu nu} of the curvature tensor of _riemann_up and
scalar its g-trace; on the unit sphere Ricci = (n-1) g and scalar = n(n-1),
so positive curvature has positive sign.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import DomainError
from .jets import Jet, _sum, det, symmetric

if TYPE_CHECKING:
    import scipy.sparse

# Charts are evaluated inside |xi| <= CHART_RADIUS; the chart balls |xi| <=
# extent (default GRID_EXTENT) overlap as long as 1 < extent < CHART_RADIUS.
CHART_RADIUS = 1.8
GRID_EXTENT = 1.2
# Dijkstra sources diameter() runs on graphs above resolution 9
LANDMARKS = 64


class MetricJet:
    """Symmetric positive-definite metric with Taylor data at grid points.

    jet is one Jet in n variables whose trailing batch axes are the (n, n)
    metric slots.  The constructor validates symmetry and positive
    definiteness of the value matrices, and fills both triangles of its own
    jet from the upper one, so symmetry is exact downstream.
    """

    def __init__(self, jet):
        n = jet.nvars
        if jet.batch_shape[-2:] != (n, n):
            raise ValueError(f"metric jet in {n} variables needs trailing ({n}, {n}) "
                             f"slot axes, got batch shape {jet.batch_shape}")
        coeffs = jet.coeffs
        if not np.isfinite(coeffs).all():
            raise DomainError("metric jets are not finite")
        lo = np.tril_indices(n, -1)
        if not np.allclose(coeffs[..., lo[1], lo[0], :], coeffs[..., lo[0], lo[1], :],
                           rtol=1e-8, atol=1e-10):
            raise ValueError("metric jets are not symmetric")
        self.jet = symmetric(n, lambda i, j: jet[..., i, j],
                             Jet.zeros(jet.batch_shape[:-2], (n, n), n, jet.order))
        self.n = n
        self.order = jet.order
        try:
            np.linalg.cholesky(self.values())
        except np.linalg.LinAlgError:
            raise DomainError("metric is not positive definite") from None

    @property
    def batch_shape(self):
        return self.jet.batch_shape[:-2]

    def values(self):
        return np.ascontiguousarray(self.jet.value)

    def truncate(self, order):
        """The metric jet at a lower order, not checked again: a truncation
        keeps the checked values and their exact symmetry."""
        out = copy.copy(self)
        out.jet, out.order = self.jet.truncate(order), order
        return out

    def inverse(self):
        """Adjugate-over-determinant inverse, an (n, n)-slot Jet one order
        below the metric: the upper triangle's cofactors (g is symmetric)
        by jets.det, and the determinant from row 0's, one reciprocal.  Not
        cached: evaluate_grid forms it once per block and hands it to
        curvature(), which otherwise forms it once per call."""
        n, e = self.n, self.jet.truncate(self.order - 1)
        rows = [[e[..., i, j] for j in range(n)] for i in range(n)]

        def cofactor(i, j):
            minor = det([row[:j] + row[j + 1:] for row in rows[:i] + rows[i + 1:]])
            return -1.0 * minor if (i + j) % 2 else minor

        cof = {(i, j): cofactor(i, j) for i in range(n) for j in range(i, n)}
        r = _sum(rows[0][j] * cof[0, j] for j in range(n)).reciprocal()
        return symmetric(n, lambda i, j: cof[i, j] * r,
                         Jet(n, e.order, np.empty_like(e.coeffs)))

    def christoffels(self, ginv=None):
        """Gamma^k_{ij} one order below the metric, an (n, n, n)-slot Jet
        [..., k, i, j], from the inverse ginv (formed here when not given).
        Not cached: curvature() forms it once and keeps its values, which is
        all that later consumers need."""
        n, m = self.n, self.order
        if m < 1:
            raise ValueError("metric jets must carry at least first derivatives")
        if ginv is None:
            ginv = self.inverse()
        # one table of the partials dg[a, b, k] = d_k g_ab, a <= b, each formed
        # at its first read.  The pair (i, j) reads d_i g_jl, d_j g_il and
        # d_l g_ij, so the last to read d_k g_ab is the latest of the pairs
        # (a, b), (a, k) and (b, k), sorted; it is dropped after that pair,
        # which keeps at most 7 of the 18 alive (n = 3).
        dg = {}

        def partial(a, b, k):
            key = (min(a, b), max(a, b), k)
            if key not in dg:
                dg[key] = self.jet[..., a, b].derivative(k)
            return dg[key]

        gamma = Jet.zeros(self.batch_shape, (n, n, n), n, m - 1)
        for i in range(n):
            for j in range(i, n):
                # first[l] = d_i g_jl + d_j g_il - d_l g_ij
                first = [partial(j, l, i) + partial(i, l, j) - partial(i, j, l)
                         for l in range(n)]
                for a, b, k in list(dg):
                    if max((a, b), tuple(sorted((a, k))), tuple(sorted((b, k)))) == (i, j):
                        del dg[a, b, k]
                for k in range(n):
                    gamma[..., k, i, j] = gamma[..., k, j, i] = \
                        0.5 * _sum(ginv[..., k, l] * first[l] for l in range(n))
        return gamma


@dataclass
class CurvatureState:
    """Pointwise curvature values over a batch of points, no jet among them;
    d_ricci holds Ricci's first partials, last axis k for d/dx_k.  See the
    module docstring."""

    n: int
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    d_ricci: Optional[np.ndarray]
    scalar: np.ndarray


def _riemann_up(gamma: Jet, gamma_t: Jet, r, s, mu, nu) -> Jet:
    """R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s}
    + sum_lam Gamma^r_{mu lam} Gamma^lam_{nu s} - Gamma^r_{nu lam} Gamma^lam_{mu s},
    the partials taken of gamma and the products of gamma_t, its view one
    order lower (gamma[..., k, i, j] is Gamma^k_{ij})."""
    acc = gamma[..., r, nu, s].derivative(mu) - gamma[..., r, mu, s].derivative(nu)
    for lam in range(gamma.nvars):
        acc = acc + gamma_t[..., r, mu, lam] * gamma_t[..., lam, nu, s]
        acc = acc - gamma_t[..., r, nu, lam] * gamma_t[..., lam, mu, s]
    return acc


def _ricci(gamma: Jet, order) -> Jet:
    """Ricci[..., s, nu] = R^mu_{s mu nu} at the given order, an (n, n)-slot
    Jet, formed from the Riemann entries its trace reads: the mu terms are
    added in order, with an exact zero at mu = nu.  The upper triangle is
    formed, and jets.symmetric fills both."""
    n = gamma.nvars
    gamma_t = gamma.truncate(order)

    def entry(s, mu, nu):
        """R^mu_{s mu nu}: zero on mu = nu, antisymmetric in (mu, nu)."""
        if mu == nu:
            return Jet(n, order, np.zeros_like(gamma_t.coeffs[..., 0, 0, 0, :]))
        if mu < nu:
            return _riemann_up(gamma, gamma_t, mu, s, mu, nu)
        return -_riemann_up(gamma, gamma_t, mu, s, nu, mu)

    return symmetric(n, lambda s, nu: _sum(entry(s, mu, nu) for mu in range(n)),
                     Jet.zeros(gamma.batch_shape[:-3], (n, n), n, order))


def curvature(mj: MetricJet, ginv=None) -> CurvatureState:
    """Run the full intrinsic pipeline on a metric jet field.

    The metric must carry order >= 2; Ricci's first partials need order 3,
    None below that.  ginv, when given, is the metric's inverse jet
    (MetricJet.inverse) at order m - 1 or above, read to order m - 1, which
    gives the same bits as forming it here.  All outputs are plain arrays
    over the batch, copied out of the jets, which die with this call.
    """
    n, m = mj.n, mj.order
    if m < 2:
        raise ValueError("curvature needs metric jets of order >= 2")
    ro = m - 2
    ginv = mj.inverse() if ginv is None else ginv.truncate(m - 1)
    gamma = mj.christoffels(ginv)
    ricci = _ricci(gamma, ro)

    ginv_t = ginv.truncate(ro)
    scalar = _sum(ginv_t[..., s, nu] * ricci[..., s, nu] for s in range(n) for nu in range(n))

    gvals = mj.values()
    return CurvatureState(
        n=n,
        metric=gvals,
        metric_inv=np.linalg.inv(gvals),
        # a copy: a view would keep the whole Christoffel jet alive in the state
        christoffel=np.ascontiguousarray(gamma.value),
        ricci=np.ascontiguousarray(ricci.value),
        d_ricci=ricci.gradient() if ro >= 1 else None,
        scalar=np.array(scalar.value),
    )


def covariant_hessian(f: Jet, christoffel):
    """Gradient and covariant Hessian of a scalar jet f of order >= 2.

    christoffel holds Gamma^k_ij values [..., k, i, j]; returns (grad, hess)
    with grad[..., i] = d_i f and hess[..., i, j] = d_i d_j f - Gamma^k_ij d_k f.
    """
    unit = np.eye(f.nvars, dtype=int)
    grad = f.gradient()
    hess = np.stack([np.stack([f.partial(u + v) for v in unit], -1) for u in unit], -2)
    return grad, hess - np.einsum("...kij,...k->...ij", christoffel, grad)


def principal_curvatures(g, t):
    """Eigenvalues of a symmetric 2-tensor t relative to g per point,
    ascending (..., n): eigvalsh of L^-1 t L^-T with g = L L^T.  For the
    second fundamental form they are the principal curvatures."""
    inv = np.linalg.inv(np.linalg.cholesky(g))
    return np.linalg.eigvalsh(inv @ t @ np.swapaxes(inv, -1, -2))


def sectional_extremes(cs: CurvatureState):
    """Sectional-curvature range (kmin, kmax) per point.

    For n = 2 the single curvature R / 2.  For n = 3 the Weyl tensor
    vanishes, and the 2-plane g-orthogonal to a unit vector u has curvature
    R / 2 - Ric(u, u); so the range is the eigenvalue range of R g / 2 - Ric
    relative to g, and both ends are attained.  The solver's eps-gap, the
    least eigenvalue of E = R g - 2 Ric relative to g, is therefore 2 kmin.
    """
    if cs.n == 2:
        kmin = cs.scalar / 2.0
        return kmin, kmin.copy()
    if cs.n != 3:
        raise ValueError(f"unsupported dimension {cs.n}")
    ev = principal_curvatures(cs.metric, (cs.scalar / 2.0)[..., None, None] * cs.metric
                              - cs.ricci)
    return ev[..., 0], ev[..., -1]


def ricci_norm(cs: CurvatureState) -> np.ndarray:
    """|Ric|_g = sqrt(g^ik g^jl R_ij R_kl) per point."""
    ginv = cs.metric_inv
    return np.sqrt(np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, cs.ricci, cs.ricci))


def covariant_antisym(christoffel, t, dt) -> np.ndarray:
    """Antisymmetrized covariant derivative T_{ij;k} - T_{ik;j} of a symmetric
    2-tensor from its values t (..., n, n) and first partials dt, last axis k
    for d/dx_k, under the connection of symbol values christoffel [..., k, i, j].
    Returns values (..., n, n, n), axes (i, j, k).
    """
    n = christoffel.shape[-1]
    if t.shape[-2:] != (n, n) or dt.shape != t.shape + (n,):
        raise ValueError("tensor needs trailing (n, n) axes and its partials (n, n, n)")
    if not np.allclose(t, np.swapaxes(t, -1, -2), rtol=1e-8, atol=1e-10):
        raise ValueError("tensor is not symmetric")
    cov = dt \
        - np.einsum("...lki,...lj->...ijk", christoffel, t) \
        - np.einsum("...lkj,...il->...ijk", christoffel, t)
    return cov - np.swapaxes(cov, -1, -2)


def contracted_gauss_residual(ginv, chi, ric) -> np.ndarray:
    """Per-point max-norm of tr_g(chi) chi - chi g^-1 chi - Ric, the
    contracted Gauss equation.  For n <= 3 it is the whole Gauss equation:
    Riem - chi ^ chi is an algebraic curvature tensor, which has no Weyl
    part there, so it vanishes exactly where its Ricci contraction does."""
    tau = np.einsum("...ab,...ba->...", ginv, chi)
    res = tau[..., None, None] * chi - chi @ ginv @ chi - ric
    return np.abs(res).max(axis=(-2, -1))


def codazzi_residual(christoffel, chi, d_chi) -> np.ndarray:
    """Per-point max-norm of chi_{ij;k} - chi_{ik;j}, from chi and its partials."""
    return np.abs(covariant_antisym(christoffel, chi, d_chi)).max(axis=(-3, -2, -1))


def lattice_axes(resolution, extent):
    """The lattice's values on each axis, resolution points in [-extent, extent]."""
    if resolution < 5 or resolution % 2 == 0:
        raise ValueError("resolution must be odd and >= 5")
    return np.linspace(-extent, extent, resolution)


def ball_lattice(resolution, extent, n):
    """Lattice points of the chart ball |xi| <= extent in n coordinates:
    (idx, coords), their (K, n) indices into lattice_axes and coordinates."""
    axes = lattice_axes(resolution, extent)
    idx = np.stack(np.meshgrid(*([np.arange(resolution)] * n), indexing="ij"),
                   axis=-1).reshape(-1, n)
    coords = axes[idx]
    keep = np.linalg.norm(coords, axis=1) <= extent + 1e-12
    return idx[keep], coords[keep]


def transition_coords(coords):
    """The same sphere points in the opposite chart: xi -> xi / |xi|^2."""
    coords = np.asarray(coords, dtype=float)
    return coords / np.einsum("...i,...i->...", coords, coords)[..., None]


# --------------------------------------------------------------- diameter


@dataclass
class GeodesicGraph:
    """Metric graph over two stereographic chart balls joined in the overlap."""

    n: int
    resolution: int
    extent: float
    node_chart: np.ndarray
    node_coords: np.ndarray
    adjacency: scipy.sparse.csr_matrix
    num_edges: int

    @property
    def num_nodes(self):
        return self.node_chart.size


@dataclass
class DiameterEstimate:
    value: float
    num_nodes: int
    num_edges: int
    num_sources: int
    resolution: int
    extent: float


def build_geodesic_graph(metric_fn: Callable, n: int, resolution: int,
                         extent: float = GRID_EXTENT) -> GeodesicGraph:
    """Build the two-chart shortest-path graph of a metric on the n-sphere.

    metric_fn(chart, pts) must return the metric values (m, n, n) at chart
    points pts (m, n), for chart in {0, 1}.  Nodes are the ball_lattice
    points of each chart; edges join lattice neighbors (full box stencil,
    3^n - 1 directions) with length sqrt(d^T g(midpoint) d), and nodes in the
    overlap annulus are stitched to the surrounding lattice cell of their
    image in the other chart.  The adjacency holds each edge in both
    directions, one entry per (row, col) pair; num_edges counts the edges
    made, one per stencil pair and one per stitch from either chart.
    """
    if not 1.0 < extent < CHART_RADIUS:
        raise ValueError(f"extent must lie in (1, {CHART_RADIUS:g}) for the balls to overlap")
    idx, coords = ball_lattice(resolution, extent, n)
    axes = lattice_axes(resolution, extent)
    h = axes[1] - axes[0]
    per_chart = idx.shape[0]

    id_grid = np.full((2,) + (resolution,) * n, -1, dtype=np.int64)
    for c in range(2):
        id_grid[(c, *idx.T)] = np.arange(per_chart) + c * per_chart
    node_chart = np.repeat(np.arange(2), per_chart)
    node_coords = np.concatenate([coords, coords], axis=0)

    offsets = [np.array(o) for o in np.ndindex(*((3,) * n))]
    offsets = [o - 1 for o in offsets if tuple(o) > (1,) * n]  # canonical half

    rows, cols, weights = [], [], []
    for c in range(2):
        for off in offsets:
            nb = idx + off
            ok = np.all((nb >= 0) & (nb < resolution), axis=1)
            src = id_grid[(c, *idx[ok].T)]
            dst = id_grid[(c, *nb[ok].T)]
            ok2 = dst >= 0
            src, dst = src[ok2], dst[ok2]
            if src.size == 0:
                continue
            a = node_coords[src]
            disp = off * h
            mids = a + disp / 2.0
            g = metric_fn(c, mids)
            w = np.sqrt(np.einsum("i,mij,j->m", disp, g, disp))
            rows.append(src)
            cols.append(dst)
            weights.append(w)

    # stitch the overlap: nodes whose inversion lands inside the other ball
    far = np.einsum("mi,mi->m", coords, coords) >= (1.0 / extent) ** 2
    eta = transition_coords(coords[far])
    base = np.floor((eta + extent) / h).astype(np.int64)
    for corner in np.ndindex(*((2,) * n)):
        cidx = base + np.array(corner)
        ok = np.all((cidx >= 0) & (cidx < resolution), axis=1)
        for c in range(2):
            src = id_grid[(c, *idx[far][ok].T)]
            dst = id_grid[(1 - c, *cidx[ok].T)]
            ok2 = dst >= 0
            s, d = src[ok2], dst[ok2]
            if s.size == 0:
                continue
            target = node_coords[d]
            disp = target - eta[ok][ok2]
            mids = (target + eta[ok][ok2]) / 2.0
            g = metric_fn(1 - c, mids)
            w = np.sqrt(np.einsum("mi,mij,mj->m", disp, g, disp))
            rows.append(s)
            cols.append(d)
            weights.append(np.maximum(w, 1e-12))

    # store every edge both ways, one entry per (row, col) pair: a stitch
    # made from each chart keeps its shorter length, which is the length
    # undirected Dijkstra would relax it with
    total = 2 * per_chart
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    num_edges = rows.size
    key = np.concatenate([rows * total + cols, cols * total + rows])
    order = np.argsort(key)
    key, weights = key[order], np.tile(np.concatenate(weights), 2)[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    weights = np.minimum.reduceat(weights, first)
    rows, cols = np.divmod(key[first], total)

    # scipy is imported here and in diameter(), its only users, so that
    # importing weylcheck does not pay for it
    import scipy.sparse
    from scipy.sparse.csgraph import connected_components

    indptr = np.searchsorted(rows, np.arange(total + 1))
    adj = scipy.sparse.csr_matrix((weights, cols, indptr), shape=(total, total))
    # on a symmetric graph strong components are the connected ones, and
    # finding them needs no transposed copy
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        raise DomainError(f"geodesic graph is disconnected ({ncomp} components)")
    return GeodesicGraph(n=n, resolution=resolution, extent=extent,
                         node_chart=node_chart, node_coords=node_coords,
                         adjacency=adj, num_edges=num_edges)


def diameter(gg: GeodesicGraph) -> DiameterEstimate:
    """Largest shortest-path distance found from a landmark set.

    Graphs of resolution <= 9 per axis run every node as a source, and the
    value is then exactly the diameter of the graph.  Larger ones (at least
    162 nodes for n = 2, 1030 for n = 3) run LANDMARKS farthest-point-sampled
    sources, and the value is a lower bound on the graph diameter: the
    sampling can miss the farthest pair.

    The graph diameter only approximates the geodesic diameter, with no
    guaranteed sign: edge weights are midpoint-rule lengths, which are
    neither upper nor lower bounds on the segment lengths, and lattice
    paths are confined to the stencil's directions, which lengthens them.
    """
    from scipy.sparse.csgraph import dijkstra  # lazy, see build_geodesic_graph

    total = gg.num_nodes
    if gg.resolution <= 9:
        dist = dijkstra(gg.adjacency, directed=True)
        if np.isinf(dist).any():
            raise DomainError("geodesic graph is disconnected")
        return DiameterEstimate(float(dist.max()), total, gg.num_edges, total,
                                gg.resolution, gg.extent)

    best = 0.0
    mind = None
    source = 0
    for _ in range(LANDMARKS):
        dist = dijkstra(gg.adjacency, directed=True, indices=[source])[0]
        if np.isinf(dist).any():
            raise DomainError("geodesic graph is disconnected")
        best = max(best, float(dist.max()))
        mind = dist if mind is None else np.minimum(mind, dist)
        source = int(np.argmax(mind))
    return DiameterEstimate(best, total, gg.num_edges, LANDMARKS, gg.resolution, gg.extent)
