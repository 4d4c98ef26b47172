import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    det_unrolled,
    full_riemann_curvature,
    radial_graph_forms,
    reachable,
    scalar_gauss,
    sphere_chain,
)
from weylcheck.bounds import c2bound_report, evaluate_family_grid
from weylcheck.embedsolve import IntrinsicField, metric_jets, reference_families
from weylcheck.errors import DomainError
from weylcheck.jets import Jet, det
from weylcheck import surfaces
from weylcheck.intrinsic import (
    CurvatureState,
    MetricJet,
    codazzi_residual,
    contracted_gauss_residual,
    covariant_hessian,
    curvature,
    ricci_norm,
    sectional_extremes,
    transition_coords,
)
from weylcheck.surfaces import (
    Ellipsoid,
    RadialGraph,
    RoundSphere,
    ball_grid,
    epsilon_family,
    evaluate_grid,
    metric_values,
    radial_graph_bump,
    radial_graph_constant,
    radial_graph_ellipsoid,
    radial_graph_random,
    surface_values,
    unit_sphere_jets,
)

AXES = (1.0, 1.3, 0.8, 1.1)


def sample_points(count, n=3, radius=1.1, seed=5):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    return pts * (radius / math.sqrt(n))


class TestChartGeometry:
    def test_unit_sphere_point_values(self):
        pts = sample_points(40)
        for chart in (0, 1):
            comps = unit_sphere_jets(chart, pts)
            vals = np.stack([c.value for c in comps], axis=-1)
            np.testing.assert_allclose(np.linalg.norm(vals, axis=-1), 1.0, rtol=1e-13)

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("chart", [0, 1])
    def test_unit_sphere_closed_form_matches_jet_chain(self, chart, order):
        pts = np.concatenate([sample_points(40, radius=1.7), np.zeros((1, 3))])
        for n in (2, 3):
            got = unit_sphere_jets(chart, pts[:, :n], order)
            want = sphere_chain(chart, pts[:, :n], order)
            for g, w in zip(got, want, strict=True):
                scale = np.abs(w.coeffs).max(axis=-1, keepdims=True)
                assert (np.abs(g.coeffs - w.coeffs) <= 1e-15 * scale).all()

    def test_transition_maps_to_same_point(self):
        pts = sample_points(30, radius=1.05, seed=9)
        keep = np.linalg.norm(pts, axis=1) > 1.0 / 1.2
        pts = pts[keep]
        a = np.stack([c.value for c in unit_sphere_jets(0, pts)], -1)
        b = np.stack([c.value for c in unit_sphere_jets(1, transition_coords(pts))], -1)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_chart_point_validation(self):
        with pytest.raises(DomainError):
            evaluate_grid(RoundSphere(1.0), 0, np.array([1.5, 1.2, 0.0]))


class TestRoundSphere:
    def test_closed_form_fields(self):
        r = 2.0
        fam = RoundSphere(r)
        pts = sample_points(25)
        for chart in (0, 1):
            sd = evaluate_grid(fam, chart, pts)
            w = 1.0 + np.einsum("mi,mi->m", pts, pts)
            g_exact = (2.0 * r / w)[:, None, None] ** 2 * np.eye(3)
            np.testing.assert_allclose(sd.g, g_exact, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(sd.chi, g_exact / r, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(sd.N, sd.X / r, atol=1e-12)
            np.testing.assert_allclose(sd.H, 3.0 / r, rtol=1e-12)
            np.testing.assert_allclose(sd.support, r, rtol=1e-12)
            np.testing.assert_allclose(sd.rho, r**2 / 2.0, rtol=1e-12)
            np.testing.assert_allclose(scalar_gauss(sd), 6.0 / r**2, rtol=1e-12)

    def test_single_point_evaluate(self):
        sd = evaluate_grid(RoundSphere(1.0), 0, np.zeros(3))
        np.testing.assert_allclose(sd.X, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(sd.g, 4.0 * np.eye(3), rtol=1e-14)
        np.testing.assert_allclose(sd.chi, 4.0 * np.eye(3), rtol=1e-13)
        assert sd.support == pytest.approx(1.0)

    def test_unit_axes_ellipsoid_is_the_sphere(self):
        pts = sample_points(20)
        a = evaluate_grid(Ellipsoid((1.0,) * 4), 0, pts)
        b = evaluate_grid(RoundSphere(1.0), 0, pts)
        np.testing.assert_allclose(a.X, b.X, atol=1e-12)
        np.testing.assert_allclose(a.g, b.g, atol=1e-12)
        np.testing.assert_allclose(a.chi, b.chi, atol=1e-12)
        np.testing.assert_allclose(a.N, b.N, atol=1e-12)

    def test_constant_graph_is_the_sphere(self):
        pts = sample_points(20)
        a = evaluate_grid(radial_graph_constant(1.0), 0, pts)
        b = evaluate_grid(RoundSphere(1.0), 0, pts)
        np.testing.assert_allclose(a.X, b.X, atol=1e-12)
        np.testing.assert_allclose(a.g, b.g, atol=1e-12)
        np.testing.assert_allclose(a.chi, b.chi, atol=1e-12)


FAMILIES = {
    "ellipsoid": Ellipsoid(AXES),
    "graph-bump": radial_graph_bump(0.1),
    "graph-random": radial_graph_random(seed=123),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestEmbeddingIdentities:
    def test_unit_normal(self, name):
        sd = evaluate_grid(FAMILIES[name], 0, sample_points(30))
        np.testing.assert_allclose(np.linalg.norm(sd.N, axis=-1), 1.0, atol=1e-12)

    def test_convexity_and_orientation(self, name):
        sd = evaluate_grid(FAMILIES[name], 1, sample_points(30, seed=7))
        assert sd.support.min() > 0.0
        assert sd.principal_curvatures.min() > 0.0

    def test_second_derivatives_point_along_normal(self, name):
        fam = FAMILIES[name]
        pts = sample_points(12, seed=11)
        sd = evaluate_grid(fam, 0, pts)
        amb = fam.ambient_jets(0, pts)
        gam = metric_jets(fam, 0, pts, 4).christoffels().value
        e_vals = np.stack(
            [np.stack([x.derivative(i).value for x in amb], -1) for i in range(3)], -2
        )
        hess = np.stack(
            [np.stack([np.stack([x.derivative(i).derivative(j).value for x in amb], -1)
                       for j in range(3)], -2) for i in range(3)], -3
        )
        cov = hess - np.einsum("...kij,...ka->...ija", gam, e_vals)
        want = -np.einsum("...ij,...a->...ija", sd.chi, sd.N)
        np.testing.assert_allclose(cov, want, atol=1e-10)

    def test_gauss_residual(self, name):
        sd = evaluate_grid(FAMILIES[name], 0, sample_points(50, seed=3))
        assert sd.gauss_residual().max() <= 1e-8

    def test_codazzi_residual(self, name):
        sd = evaluate_grid(FAMILIES[name], 0, sample_points(50, seed=4))
        assert sd.codazzi_residual().max() <= 1e-8

    def test_support_identities(self, name):
        sd = evaluate_grid(FAMILIES[name], 0, sample_points(50, seed=6))
        r1, r2, r3 = sd.support_identities()
        assert r1.max() <= 1e-8
        assert r2.max() <= 1e-8
        assert np.nanmax(r3) <= 1e-8
        assert not np.isnan(r3).any()

    def test_chart_overlap_invariants(self, name):
        fam = FAMILIES[name]
        pts = sample_points(40, radius=1.15, seed=13)
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0 / 1.15]
        a = evaluate_grid(fam, 0, pts)
        b = evaluate_grid(fam, 1, transition_coords(pts))
        np.testing.assert_allclose(a.X, b.X, atol=1e-11)
        np.testing.assert_allclose(a.H, b.H, atol=1e-10)
        np.testing.assert_allclose(a.support, b.support, atol=1e-10)
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-10)
        np.testing.assert_allclose(
            a.curvature.scalar, b.curvature.scalar, atol=1e-10
        )

    def test_fast_metric_path(self, name):
        pts = sample_points(30, seed=17)
        sd = evaluate_grid(FAMILIES[name], 0, pts)
        fast = metric_values(FAMILIES[name], 0, pts)
        np.testing.assert_allclose(fast, sd.g, rtol=1e-12, atol=1e-14)


VALUE_FAMILIES = {
    "sphere": RoundSphere(1.0),
    "ellipsoid": Ellipsoid(AXES),
    "bump": radial_graph_bump(0.1),
    "random-23": radial_graph_random(seed=23),
}


@pytest.mark.parametrize("chart", [0, 1])
@pytest.mark.parametrize("name", sorted(VALUE_FAMILIES))
def test_surface_values_bytes_match_evaluate_grid(name, chart):
    """Order-2 values: X, g and chi bit for bit as the order-4 pipeline."""
    fam = VALUE_FAMILIES[name]
    pts = np.concatenate([ball_grid(5), sample_points(20, seed=19)])
    sd = evaluate_grid(fam, chart, pts)
    for got, want in zip(surface_values(fam, chart, pts), (sd.X, sd.g, sd.chi)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("evaluate", [evaluate_grid, surface_values, metric_values])
def test_point_width_checked(evaluate):
    with pytest.raises(ValueError, match="3 coordinates"):
        evaluate(RoundSphere(1.0), 0, np.zeros((4, 2)))
    # a 2-D family at 3-D points, which metric_values would turn into 3 x 3 metrics
    with pytest.raises(ValueError, match="2 coordinates"):
        evaluate(RoundSphere(1.0, dim=2), 0, np.zeros((4, 3)))


class TestSphereSupportExact:
    def test_round_sphere_residuals_vanish(self):
        sd = evaluate_grid(RoundSphere(1.0), 0, sample_points(30))
        r1, r2, r3 = sd.support_identities()
        np.testing.assert_allclose(r1, 0.0, atol=1e-10)
        np.testing.assert_allclose(r2, 0.0, atol=1e-10)
        np.testing.assert_allclose(r3, 0.0, atol=1e-10)

    def test_sphere_gauss_codazzi(self):
        sd = evaluate_grid(RoundSphere(2.0), 1, sample_points(30, seed=2))
        assert sd.gauss_residual().max() <= 1e-9
        assert sd.codazzi_residual().max() <= 1e-9


class TestRadialGraphRoutes:
    @pytest.mark.parametrize("fam", [
        radial_graph_ellipsoid(AXES),
        radial_graph_bump(0.12),
        radial_graph_random(seed=42),
    ], ids=["ellipsoid", "bump", "random"])
    def test_graph_formulas_match_pipeline(self, fam):
        pts = sample_points(40, seed=21)
        sd = evaluate_grid(fam, 0, pts)
        g_alt, chi_alt = radial_graph_forms(fam, 0, pts)
        np.testing.assert_allclose(g_alt, sd.g, rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(chi_alt, sd.chi, rtol=1e-10, atol=1e-12)

    def test_ellipsoid_parametrizations_agree_at_matched_points(self):
        graph = radial_graph_ellipsoid(AXES)
        direct = Ellipsoid(AXES)
        pts = sample_points(30, seed=31)
        sg = evaluate_grid(graph, 0, pts)
        # match surface points: rescale to the unit sphere and re-project
        unit = sg.X / np.array(AXES)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=-1), 1.0, atol=1e-12)
        chart_pts = unit[:, :3] / (1.0 + unit[:, 3:])
        sd = evaluate_grid(direct, 0, chart_pts)
        np.testing.assert_allclose(sd.X, sg.X, atol=1e-11)
        np.testing.assert_allclose(sd.H, sg.H, rtol=1e-10)
        np.testing.assert_allclose(sd.support, sg.support, rtol=1e-10)
        np.testing.assert_allclose(sd.chi_norm, sg.chi_norm, rtol=1e-10)
        np.testing.assert_allclose(
            sd.curvature.scalar, sg.curvature.scalar, rtol=1e-9
        )

    def test_nonpositive_u_rejected(self):
        bad = RadialGraph(lambda comps: 1.0 + -2.0 * (comps[-1] * comps[-1]))
        with pytest.raises(DomainError):
            evaluate_grid(bad, 0, np.zeros((1, 3)))


class TestEpsilonFamily:
    def test_constant_base_shifts_radius(self):
        fam = epsilon_family(radial_graph_constant(1.0), 0.5)
        pts = sample_points(15)
        a = evaluate_grid(fam, 0, pts)
        b = evaluate_grid(RoundSphere(2.0 / 3.0), 0, pts)
        np.testing.assert_allclose(a.X, b.X, atol=1e-12)
        np.testing.assert_allclose(a.g, b.g, atol=1e-12)
        np.testing.assert_allclose(a.chi, b.chi, atol=1e-12)

    @pytest.mark.parametrize("base", [radial_graph_bump(0.15), radial_graph_random(seed=77)],
                             ids=["bump", "random"])
    def test_family_convergence(self, base):
        pts = ball_grid(7)
        ref = evaluate_grid(base, 0, pts)
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            sd = evaluate_grid(epsilon_family(base, eps), 0, pts)
            assert sd.principal_curvatures.min() > 0.0
            gaps.append(np.abs(sd.g - ref.g).max())
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            epsilon_family(radial_graph_bump(0.1), 0.0)
        with pytest.raises(TypeError):
            epsilon_family(RoundSphere(1.0), 0.1)


class TestTwoDimensional:
    def test_two_sphere_fields(self):
        fam = RoundSphere(1.0, dim=2)
        pts = sample_points(20, n=2)
        sd = evaluate_grid(fam, 0, pts)
        np.testing.assert_allclose(sd.chi, sd.g, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(sd.H, 2.0, rtol=1e-12)
        np.testing.assert_allclose(sd.curvature.scalar, 2.0, rtol=1e-10)
        assert sd.gauss_residual().max() <= 1e-10
        assert sd.codazzi_residual().max() <= 1e-10

    def test_three_axis_ellipsoid(self):
        fam = Ellipsoid((1.0, 1.2, 0.9))
        sd = evaluate_grid(fam, 0, sample_points(30, n=2, seed=19))
        assert sd.gauss_residual().max() <= 1e-9
        r1, r2, r3 = sd.support_identities()
        assert max(r1.max(), r2.max(), np.nanmax(r3)) <= 1e-9


class TestEllipsoidLevelSet:
    """The pipeline against closed forms from the level set sum x_i^2/a_i^2
    = 1, which share no jet with it: with A = diag(a^-2), the unit normal
    nu = Ax/|Ax| and P = I - nu nu^T, the shape operator is S = PAP/|Ax|."""

    @staticmethod
    def level_set(axes, chart, pts):
        """(H, |chi|, R, |Ric|, (kmin, kmax)) per point from S."""
        a = np.asarray(axes)
        w = 1.0 + (pts**2).sum(axis=-1, keepdims=True)
        last = (2.0 - w) / w * (1.0 if chart == 0 else -1.0)
        x = a * np.concatenate([2.0 * pts / w, last], axis=-1)
        ax = x / a**2
        nu = ax / np.linalg.norm(ax, axis=-1, keepdims=True)
        proj = np.eye(4) - nu[:, :, None] * nu[:, None, :]
        shape = proj @ np.diag(a**-2.0) @ proj / np.linalg.norm(ax, axis=-1)[:, None, None]
        shape_sq = shape @ shape
        h = np.trace(shape, axis1=1, axis2=2)
        tr_sq = np.trace(shape_sq, axis1=1, axis2=2)
        ricci = h[:, None, None] * shape - shape_sq
        ricci_sq = np.trace(ricci @ ricci, axis1=1, axis2=2)
        # the least eigenvalue of S is 0, along nu; kappa ascending
        kappa = np.linalg.eigvalsh(shape)[:, 1:]
        sectional = (kappa[:, 0] * kappa[:, 1], kappa[:, 1] * kappa[:, 2])
        return h, np.sqrt(tr_sq), h**2 - tr_sq, np.sqrt(ricci_sq), sectional

    @pytest.mark.parametrize("chart", [0, 1])
    def test_pointwise_curvature(self, chart):
        pts = sample_points(50, seed=23 + chart)
        sd = evaluate_grid(Ellipsoid(AXES), chart, pts)
        cs = sd.curvature
        h, chi_norm, scalar, ricci, (kmin, kmax) = self.level_set(AXES, chart, pts)
        got = sectional_extremes(cs)
        for name, value, want in [("H", sd.H, h), ("chi_norm", sd.chi_norm, chi_norm),
                                  ("R", cs.scalar, scalar),
                                  ("ricci_norm", ricci_norm(cs), ricci),
                                  ("kmin", got[0], kmin), ("kmax", got[1], kmax)]:
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=0, err_msg=name)

    @staticmethod
    def mp_shape(mp, axes, chart, xi):
        """S = PAP/|Ax| (4 x 4) at chart coords xi, in mpmath."""
        w = 1 + sum(t**2 for t in xi)
        unit = [2 * t / w for t in xi] + [(2 - w) / w * (1 if chart == 0 else -1)]
        ax = [c / a for a, c in zip(axes, unit)]
        norm = mp.sqrt(sum(c**2 for c in ax))
        nu = [c / norm for c in ax]
        proj = mp.matrix([[(i == j) - nu[i] * nu[j] for j in range(4)] for i in range(4)])
        return proj * mp.diag([a**-2 for a in axes]) * proj / norm

    @classmethod
    def mp_scalar(cls, mp, axes, chart, xi):
        """R = H^2 - |S|^2 at chart coords xi, from S in mpmath."""
        shape = cls.mp_shape(mp, axes, chart, xi)
        h = sum(shape[i, i] for i in range(4))
        return h**2 - sum(shape[i, j]**2 for i in range(4) for j in range(4))

    @staticmethod
    def mp_jacobian(mp, axes, chart, xi):
        """J = dx/dxi (4 x 3) of the ellipsoid's chart map, in closed form."""
        w = 1 + sum(t**2 for t in xi)
        jac = [[axes[k] * (2 * (k == i) / w - 4 * xi[k] * xi[i] / w**2) for i in range(3)]
               for k in range(3)]
        jac.append([axes[3] * (1 if chart == 0 else -1) * -4 * t / w**2 for t in xi])
        return mp.matrix(jac)

    @classmethod
    def mp_metric(cls, mp, axes, chart, xi):
        """g = J^T J, the induced metric."""
        jac = cls.mp_jacobian(mp, axes, chart, xi)
        return jac.T * jac

    @classmethod
    def mp_chi(cls, mp, axes, chart, xi):
        """chi = J^T S J, the second fundamental form."""
        jac = cls.mp_jacobian(mp, axes, chart, xi)
        return jac.T * cls.mp_shape(mp, axes, chart, xi) * jac

    @pytest.mark.parametrize("chart", [0, 1])
    def test_gauss_and_codazzi_hold_for_the_level_set_chi(self, chart):
        # chi from the level set and its partials by mpmath.diff at 30 digits:
        # the pipeline's Ricci and Christoffel symbols must satisfy Gauss and
        # Codazzi with a chi that no jet of the pipeline formed
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        pts = sample_points(4, seed=41 + chart)
        cs = evaluate_grid(Ellipsoid(AXES), chart, pts).curvature

        def chi_entry(xi, i, j, k, t):
            return self.mp_chi(mp, AXES, chart, xi[:k] + (t,) + xi[k + 1:])[i, j]

        with mpmath.workdps(30):
            chi, d_chi = [], []
            for p in pts:
                xi = tuple(mp.mpf(float(c)) for c in p)
                chi.append(self.mp_chi(mp, AXES, chart, xi).tolist())
                d_chi.append([[[mpmath.diff(lambda t: chi_entry(xi, i, j, k, t), xi[k])
                                for k in range(3)] for j in range(3)] for i in range(3)])
        chi, d_chi = np.array(chi, dtype=float), np.array(d_chi, dtype=float)
        gauss = contracted_gauss_residual(cs.metric_inv, chi, cs.ricci)
        assert gauss.max() <= 1e-12 * np.abs(cs.ricci).max()
        codazzi = codazzi_residual(cs.christoffel, chi, d_chi)
        assert codazzi.max() <= 1e-12 * np.abs(d_chi).max()

    @pytest.mark.parametrize("chart", [0, 1])
    def test_laplacian_of_scalar_curvature(self, chart):
        # Delta R = |g|^-1/2 d_i(|g|^1/2 g^ij d_j R), both partials by
        # mpmath.diff at 30 digits on the level-set R, against evaluate_grid's
        # Delta R from the Gauss equation's R jet; no coefficient of the jet
        # chain enters the oracle
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        pts = sample_points(4, seed=31 + chart)
        sd = evaluate_grid(Ellipsoid(AXES), chart, pts)
        cs = sd.curvature

        def scalar(xi):
            return self.mp_scalar(mp, AXES, chart, xi)

        def flux(i, xi):
            g = self.mp_metric(mp, AXES, chart, xi)
            grad = [mpmath.diff(lambda t: scalar(xi[:j] + (t,) + xi[j + 1:]), xi[j])
                    for j in range(3)]
            return mp.sqrt(mp.det(g)) * sum((g**-1)[i, j] * grad[j] for j in range(3))

        with mpmath.workdps(30):
            want_r, want_lap = [], []
            for p in pts:
                xi = tuple(mp.mpf(float(c)) for c in p)
                div = sum(mpmath.diff(lambda t: flux(i, xi[:i] + (t,) + xi[i + 1:]), xi[i])
                          for i in range(3))
                want_r.append(float(scalar(xi)))
                want_lap.append(float(div / mp.sqrt(mp.det(self.mp_metric(mp, AXES, chart, xi)))))
        want_r, want_lap = np.array(want_r), np.array(want_lap)
        np.testing.assert_allclose(cs.scalar, want_r, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sd.laplacian_scalar, want_lap, rtol=1e-12, atol=0)
        np.testing.assert_allclose(2.0 * cs.scalar - sd.laplacian_scalar / cs.scalar,
                                   2.0 * want_r - want_lap / want_r, rtol=1e-12, atol=0)

    def test_c2bound_reads_the_grid_extremes(self):
        # kappa is the grid min of the least sectional curvature and Lambda
        # the grid max of |Ric|, at the grid's own points
        eg = evaluate_family_grid(Ellipsoid(AXES), 9)
        kmin, ricci = [], []
        for chart in (0, 1):
            pts = eg.coords[eg.chart_ids == chart]
            _, _, _, ric, (low, _) = self.level_set(AXES, chart, pts)
            kmin.append(low)
            ricci.append(ric)
        constants = c2bound_report(eg).constants
        assert constants["kappa"] == pytest.approx(np.concatenate(kmin).min(), rel=1e-12)
        assert constants["Lambda"] == pytest.approx(np.concatenate(ricci).max(), rel=1e-12)


class TestGaussNegativeControl:
    """A chi that is off by 1% fails the contracted Gauss residual, and the
    full Gauss equation of the Gamma route too."""

    @pytest.mark.parametrize("fam", [
        RoundSphere(1.0), RoundSphere(1.0, dim=2), Ellipsoid((1.0, 1.2, 0.9, 1.05)),
        radial_graph_bump(0.1),
    ], ids=["sphere-3", "sphere-2", "ellipsoid", "bump"])
    def test_scaled_chi_fails(self, fam):
        pts = sample_points(20, n=fam.dim, seed=5)
        sd = evaluate_grid(fam, 0, pts)
        sd = dataclasses.replace(sd, chi=1.01 * sd.chi, d_chi=1.01 * sd.d_chi)
        assert sd.gauss_residual().min() >= 1e-3
        chi = sd.chi
        full = full_riemann_curvature(metric_jets(fam, 0, pts, 4))[1] \
            - np.einsum("...ik,...jl->...ijkl", chi, chi) \
            + np.einsum("...il,...jk->...ijkl", chi, chi)
        assert np.abs(full).max(axis=(-4, -3, -2, -1)).min() >= 1e-3


def order5_fields(fam, chart, pts, christoffel):
    """X, N, chi, d_chi and rho with its gradient and covariant Hessian, as
    evaluate_grid formed them from order-5 ambient jets, chi to order 1."""
    amb = fam.ambient_jets(chart, pts, order=5)
    x_vals = np.stack([x.value for x in amb], axis=-1)
    normal, chi = surfaces._normal_chi(x_vals, surfaces._tangent_rows(amb), 1)
    rho = None
    for x in amb:
        t = x.truncate(2)
        t = t * t
        rho = t if rho is None else rho + t
    rho = 0.5 * rho
    fields = {"X": x_vals,
              "N": np.stack([c.value for c in normal], axis=-1),
              "chi": chi.value, "d_chi": chi.gradient(), "rho": rho.value}
    fields["rho_grad"], fields["rho_hess"] = covariant_hessian(rho, christoffel)
    fields["support"] = np.einsum("...a,...a->...", fields["X"], fields["N"])
    return fields


@pytest.mark.parametrize("chart", [0, 1])
@pytest.mark.parametrize("fam", [Ellipsoid((1.0, 1.2, 0.9, 1.05)), radial_graph_bump(0.1),
                                 radial_graph_random(23, 0.05), RoundSphere(1.0, dim=2)],
                         ids=["ellipsoid", "bump", "random-23", "sphere-2"])
def test_laplacian_by_two_routes(fam, chart):
    # Delta R from the Gauss equation's R jet (order-4 ambient jets) against
    # the intrinsic route's, from order-4 metric jets; every other array
    # keeps the bits of the order-4 oracle state and the order-5 ambient jets
    pts = ball_grid(9, n=fam.dim)
    sd = evaluate_grid(fam, chart, pts)
    want_cs, _, want = full_riemann_curvature(metric_jets(fam, chart, pts, 4))
    # Delta R vanishes on the round sphere, whose scale is then R^2
    scale = (want_cs.scalar**2).max() if isinstance(fam, RoundSphere) else np.abs(want).max()
    assert np.abs(sd.laplacian_scalar - want).max() <= 1e-11 * scale
    assert sd.curvature.d_ricci is None
    for name in ("metric", "metric_inv", "christoffel", "ricci", "scalar"):
        got, ref = getattr(sd.curvature, name), getattr(want_cs, name)
        assert got.tobytes() == ref.tobytes(), name
        assert np.array_equal(np.signbit(got), np.signbit(ref)), name
    assert sd.g is sd.curvature.metric
    for name, ref in order5_fields(fam, chart, pts, want_cs.christoffel).items():
        got = getattr(sd, name)
        assert got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("chart", [0, 1])
@pytest.mark.parametrize("fam", [Ellipsoid((1.0, 1.2, 0.9, 1.05)), radial_graph_bump(0.1),
                                 RoundSphere(1.0, dim=2)], ids=["ellipsoid", "bump", "sphere-2"])
def test_normal_minors_keep_the_unrolled_bits(fam, chart):
    # the maximal minors of the tangent rows, as the unit normal reads them
    amb = fam.ambient_jets(chart, ball_grid(9, n=fam.dim))
    rows = [[x.derivative(i).truncate(2) for x in amb] for i in range(fam.dim)]
    for a in range(fam.dim + 1):
        minor = [row[:a] + row[a + 1:] for row in rows]
        assert det(minor).coeffs.tobytes() == det_unrolled(minor).coeffs.tobytes()


@pytest.mark.parametrize("fam", [RoundSphere(1.0, dim=2), Ellipsoid(AXES), radial_graph_bump(0.1)],
                         ids=["sphere-2", "ellipsoid", "bump"])
def test_surface_data_keeps_no_jet(fam):
    # every field is a value array that owns its data: no jet, and no view
    # into a jet's coefficients, outlives evaluate_grid
    sd = evaluate_grid(fam, 0, sample_points(20, n=fam.dim, seed=8))
    assert isinstance(sd.curvature, CurvatureState)
    assert sd.g is sd.curvature.metric
    arrays = 0
    for obj in reachable(sd):
        assert not isinstance(obj, (Jet, MetricJet)), obj
        if isinstance(obj, np.ndarray):
            assert obj.base is None
            arrays += 1
    assert arrays == 15   # eleven fields and the state's five, g shared


def test_ball_grid_shape():
    pts = ball_grid(5, extent=1.2, n=3)
    assert pts.shape[1] == 3
    assert np.linalg.norm(pts, axis=1).max() <= 1.2 + 1e-9
    with pytest.raises(ValueError):
        ball_grid(6)


@pytest.fixture
def jet_op_counts(monkeypatch):
    """Counts of Jet.derivative calls and of Jet x Jet products, from here on."""
    counts = {"derivative": 0, "product": 0}
    derivative, mul = Jet.derivative, Jet.__mul__

    def counted_derivative(self, var):
        counts["derivative"] += 1
        return derivative(self, var)

    def counted_mul(self, other):
        counts["product"] += isinstance(other, Jet)
        return mul(self, other)

    monkeypatch.setattr(Jet, "derivative", counted_derivative)
    monkeypatch.setattr(Jet, "__mul__", counted_mul)
    return counts


def test_each_pass_differentiates_each_jet_once(jet_op_counts):
    # a pass takes the ambient jets' tangent rows once (for the metric, the
    # normal's minors and chi's second partials) and the metric's 18 partials
    # d_k g_ab once (for every Christoffel symbol), and forms the products it
    # formed before; all four passes below take one block (257 points)
    family, pts = reference_families()["graph-random"], ball_grid(9)
    assert len(pts) <= surfaces.BLOCK_POINTS

    def counted(run):
        jet_op_counts.update(derivative=0, product=0)
        run()
        return jet_op_counts["derivative"], jet_op_counts["product"]

    for order in (2, 3):
        metric = metric_jets(family, 0, pts, order)
        assert counted(lambda: curvature(metric)) == (42, 156), order
    assert counted(lambda: evaluate_grid(family, 0, pts)) == (78, 297)
    assert counted(lambda: surface_values(family, 0, pts)) == (36, 76)
    assert counted(lambda: IntrinsicField.from_family(family, 0, pts)) == (54, 188)
