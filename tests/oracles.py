"""Reference routes and test-only helpers; no command reaches them.

- full_riemann_curvature: curvature() of an earlier version, from a whole
  (n, n, n, n)-slot Riemann Jet, the lowered Riemann tensor and the
  intrinsic scalar-curvature Laplacian that version returned; curvature()
  must agree with it in every bit, and evaluate_grid's Gauss-equation
  Laplacian with its Laplacian to rounding.
- cholesky_frame, frame_components: the g-orthonormal Cholesky frame and a
  2-tensor's components in it.
- scalar_gauss: scalar curvature by the extrinsic route H^2 - tr(chi^2).
- radial_graph_forms: g and chi of a radial graph by the graph formulas,
  against the ambient-jet pipeline of evaluate_grid.
- support_floor: min over an evaluated grid of (X - X0).N, positive exactly
  when X0 sits inside the convex body.
- apply_series, series_reciprocal, series_sqrt: a function's Taylor series
  about a Jet's value, summed by Horner's rule in Jet products, and the
  reciprocal and sqrt formed that way, as Jet.reciprocal and Jet.sqrt were
  before they became degree recurrences.
- jet_exp: exp of a Jet through apply_series.
- sphere_chain: the unit sphere's chart jets by plain Jet arithmetic, as
  unit_sphere_jets formed them before it wrote them in closed form.
- coefficient: a Jet's Taylor coefficient of one monomial.
- det_unrolled: the 2 x 2 and 3 x 3 determinants written out by hand, as
  the unit normal's minors were formed before jets.det expanded them.
- reachable: every object reachable from one, but through code and modules.
"""

import gc
import math
import types

import numpy as np

from weylcheck.errors import DomainError
from weylcheck.intrinsic import CurvatureState, MetricJet, covariant_hessian
from weylcheck.jets import Jet, basis_monomials
from weylcheck.surfaces import unit_sphere_jets


def full_riemann_curvature(mj):
    """(CurvatureState, riemann, laplacian): the state by the Gamma route
    through a whole Riemann Jet; its lowered values riemann[..., i, j, k, l],
    which contract with u^i v^j u^k v^l to the sectional numerator of the
    plane of u and v (g_ik g_jl - g_il g_jk on the unit sphere); and, for a
    metric of order >= 4, the Laplacian of the scalar curvature's jet (None
    below that)."""
    n, m = mj.n, mj.order
    ro = m - 2
    gamma = mj.christoffels()
    gamma_t = gamma.truncate(ro)

    # up[..., r, s, mu, nu] = R^r_{s mu nu}, formed for mu < nu
    up = Jet.zeros(mj.batch_shape, (n, n, n, n), n, ro)
    for r in range(n):
        for s in range(n):
            for mu in range(n):
                for nu in range(mu + 1, n):
                    acc = gamma[..., r, nu, s].derivative(mu) \
                        - gamma[..., r, mu, s].derivative(nu)
                    for lam in range(n):
                        acc = acc + gamma_t[..., r, mu, lam] * gamma_t[..., lam, nu, s]
                        acc = acc - gamma_t[..., r, nu, lam] * gamma_t[..., lam, mu, s]
                    up[..., r, s, mu, nu] = acc
                    up[..., r, s, nu, mu] = -acc

    # ricci[..., s, nu] = R^mu_{s mu nu}, upper triangle mirrored
    ric = np.trace(up.coeffs, axis1=-5, axis2=-3)
    lo = np.tril_indices(n, -1)
    ric[..., lo[0], lo[1], :] = ric[..., lo[1], lo[0], :]
    ricci = Jet(n, ro, ric)

    ginv_t = mj.inverse().truncate(ro)
    scalar = None
    for s in range(n):
        for nu in range(n):
            term = ginv_t[..., s, nu] * ricci[..., s, nu]
            scalar = term if scalar is None else scalar + term

    gvals = mj.values()
    ginv_vals = np.linalg.inv(gvals)
    riemann = np.einsum("...rl,...lsmn->...rsmn", gvals, up.value)
    gamma_vals = np.ascontiguousarray(gamma.value)

    lap = None
    if m >= 4:
        _, hess = covariant_hessian(scalar, gamma_vals)
        lap = np.einsum("...ij,...ij->...", ginv_vals, hess)

    cs = CurvatureState(n=n, metric=gvals, metric_inv=ginv_vals,
                        christoffel=gamma_vals, ricci=ricci.value,
                        d_ricci=ricci.gradient() if ro >= 1 else None,
                        scalar=scalar.value)
    return cs, riemann, lap


def cholesky_frame(g):
    """F = L^-T for g = L L^T: its columns are g-orthonormal, F^T g F = I."""
    return np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)


def frame_components(g, t):
    """The components F^T t F of a 2-tensor t in the Cholesky frame of g."""
    f = cholesky_frame(g)
    return np.swapaxes(f, -1, -2) @ t @ f


def scalar_gauss(sd):
    """Scalar curvature by the extrinsic route H^2 - tr(chi^2)."""
    cf = frame_components(sd.g, sd.chi)
    h = np.trace(cf, axis1=-2, axis2=-1)
    return h**2 - np.einsum("...ij,...ij->...", cf, cf)


def radial_graph_forms(family, chart, pts):
    """Metric and second fundamental form of a radial graph by the graph
    formulas instead of the ambient pipeline.

    g = rho^2 gamma + d rho (x) d rho with coordinate partials of rho, and
    chi = (u gamma + Hess_gamma u) / (u sqrt(u^2 + |grad u|_gamma^2)), with
    the Hessian and gradient taken in the round unit-sphere metric gamma.
    Returns (g values, chi values) for cross-checking evaluate_grid.
    """
    pts = np.asarray(pts, dtype=float)
    n = family.dim
    comps = unit_sphere_jets(chart, pts, order=4)
    uj = family.u(comps)
    rho = uj.reciprocal()

    xs = [Jet.variable(pts[..., i], i, n, 4) for i in range(n)]
    s = None
    for x in xs:
        t = x * x
        s = t if s is None else s + t
    phi = 2.0 * (1.0 + s).reciprocal()
    p2 = phi * phi
    gamma = MetricJet(Jet(n, 4, np.eye(n)[:, :, None] * p2.coeffs[..., None, None, :]))

    gamma_vals = gamma.values()
    chr_vals = gamma.christoffels().value
    drho, _ = covariant_hessian(rho, chr_vals)
    g_vals = rho.value[..., None, None] ** 2 * gamma_vals \
        + np.einsum("...i,...j->...ij", drho, drho)

    du, hess_cov = covariant_hessian(uj, chr_vals)
    grad_sq = np.einsum("...ij,...i,...j->...", np.linalg.inv(gamma_vals), du, du)
    uv = uj.value
    w = np.sqrt(uv**2 + grad_sq)
    chi_vals = (uv[..., None, None] * gamma_vals + hess_cov) / (uv * w)[..., None, None]
    return g_vals, chi_vals


def support_floor(eg, x0=None) -> float:
    """min over the grid of (X - X0).N; X0 defaults to the grid centroid.

    Positive exactly when X0 sits inside the convex body, so a nonpositive
    floor raises rather than returning.
    """
    x = eg.X
    if x0 is None:
        x0 = x.mean(axis=0)
    x0 = np.asarray(x0, dtype=float)
    vals = np.einsum("ka,ka->k", x - x0, eg.N)
    floor = float(vals.min())
    if floor <= 0:
        where = eg.location(int(np.argmin(vals)))
        raise DomainError(
            f"support floor {floor:.6g} is not positive; base point {x0.tolist()} "
            f"is outside the body (worst point: chart {where['chart']}, "
            f"coords {where['coords']})"
        )
    return floor


def apply_series(f, dk):
    """sum_k dk[k] * (f - value)^k, truncated; dk[k] may be batched."""
    u = Jet(f.nvars, f.order, f.coeffs.copy())
    u.coeffs[..., 0] = 0.0
    out = Jet.constant(np.broadcast_to(dk[-1], f.batch_shape).copy(), f.nvars, f.order)
    for k in range(len(dk) - 2, -1, -1):
        out = out * u
        out.coeffs[..., 0] += dk[k]
    return out


def series_reciprocal(f):
    """1/f from the series sum_k (-1)^k (f - c)^k / c^(k+1), c = f.value."""
    c = f.value
    return apply_series(f, [(-1.0) ** k / c ** (k + 1) for k in range(f.order + 1)])


def series_sqrt(f):
    """sqrt(f) from the binomial series sum_k binom(1/2, k) c^(1/2-k) (f - c)^k."""
    c = f.value
    dk = []
    binom = 1.0
    for k in range(f.order + 1):
        dk.append(binom * c ** (0.5 - k))
        binom *= (0.5 - k) / (k + 1)
    return apply_series(f, dk)


def jet_exp(f):
    """exp(f) as a Jet: the Taylor series of exp about f's value."""
    dk = [np.exp(f.value) / math.factorial(k) for k in range(f.order + 1)]
    return apply_series(f, dk)


def coefficient(f, gamma):
    """f's Taylor coefficient of the monomial x^gamma."""
    return f.coeffs[..., basis_monomials(f.nvars, f.order).index(tuple(gamma))]


def det_unrolled(rows):
    """Determinant of a 2 x 2 or 3 x 3 list of rows of Jets, written out."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))


def sphere_chain(chart, pts, order):
    """The unit sphere's chart jets (2 xi, +-(1 - |xi|^2)) / (1 + |xi|^2) by
    Jet products and a reciprocal, at order >= 1 and then truncated."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-1]
    xs = [Jet.variable(pts[..., i], i, n, max(order, 1)) for i in range(n)]
    w = 1.0
    for x in xs:
        w = x * x + w
    winv = w.reciprocal()
    out = [2.0 * (x * winv) for x in xs]
    last = (2.0 * winv) - 1.0
    out.append(-1.0 * last if chart == 1 else last)
    return [c.truncate(order) for c in out]


def reachable(obj):
    """Every object reachable from obj by gc referents, but through types,
    modules and functions, obj included."""
    seen, stack = set(), [obj]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))
