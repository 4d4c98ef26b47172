import gc
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    cholesky_frame,
    frame_components,
    full_riemann_curvature,
    jet_exp,
    reachable,
)
from weylcheck.embedsolve import metric_jets
from weylcheck.errors import DomainError
from weylcheck.intrinsic import (
    CurvatureState,
    MetricJet,
    ball_lattice,
    build_geodesic_graph,
    covariant_antisym,
    curvature,
    diameter,
    ricci_norm,
    sectional_extremes,
)
from weylcheck.jets import Jet, _sum
from weylcheck.surfaces import (
    Ellipsoid,
    RoundSphere,
    ball_grid,
    evaluate_grid,
    radial_graph_bump,
    radial_graph_random,
)


def conformal_metric(pts, phi_fn, n=3, order=4):
    """g = phi^2 * identity with phi = phi_fn(coordinate jets)."""
    pts = np.asarray(pts, dtype=float)
    xs = [Jet.variable(pts[..., i], i, n, order) for i in range(n)]
    phi = phi_fn(xs)
    p2 = phi * phi
    return MetricJet(Jet(n, order, np.eye(n)[:, :, None] * p2.coeffs[..., None, None, :]))


def sphere_metric(pts, radius=1.0, n=3, order=4):
    # stereographic chart of the round sphere
    def phi(xs):
        s = xs[0] * xs[0]
        for x in xs[1:]:
            s = s + x * x
        return 2.0 * radius * (1.0 + s).reciprocal()

    return conformal_metric(pts, phi, n=n, order=order)


def sphere_metric_values(radius, n):
    def fn(chart, pts):
        w = 1.0 + np.einsum("mi,mi->m", pts, pts)
        f = (2.0 * radius / w) ** 2
        return f[:, None, None] * np.eye(n)

    return fn


def oracle_riemann(mj):
    """The lowered Riemann tensor by the Gamma route (see oracles)."""
    return full_riemann_curvature(mj)[1]


def riemann_from_ricci(cs):
    """The lowered Riemann tensor of a 3-metric from g, Ric and R: the Weyl
    tensor vanishes, so Riem is the Kulkarni-Nomizu product of the Schouten
    tensor P = Ric - R g / 4 with g."""
    g = cs.metric
    p = cs.ricci - (cs.scalar / 4.0)[..., None, None] * g
    return np.einsum("...ik,...jl->...ijkl", p, g) + np.einsum("...jl,...ik->...ijkl", p, g) \
        - np.einsum("...il,...jk->...ijkl", p, g) - np.einsum("...jk,...il->...ijkl", p, g)


SAMPLE_PTS = np.array([
    [0.0, 0.0, 0.0],
    [0.3, -0.2, 0.5],
    [0.9, 0.1, -0.4],
    [-0.7, 0.6, 0.2],
])


class TestRoundSphere:
    def test_unit_sphere_curvature_fields(self):
        cs = curvature(sphere_metric(SAMPLE_PTS))
        np.testing.assert_allclose(cs.scalar, 6.0, rtol=1e-10)
        np.testing.assert_allclose(cs.ricci, 2.0 * cs.metric, rtol=1e-9, atol=1e-10)
        lap = evaluate_grid(RoundSphere(1.0), 0, SAMPLE_PTS).laplacian_scalar
        np.testing.assert_allclose(lap, 0.0, atol=1e-8)
        kmin, kmax = sectional_extremes(cs)
        np.testing.assert_allclose(kmin, 1.0, rtol=1e-9)
        np.testing.assert_allclose(kmax, 1.0, rtol=1e-9)
        np.testing.assert_allclose(ricci_norm(cs), math.sqrt(12.0), rtol=1e-10)

    def test_radius_two_sphere(self):
        cs = curvature(sphere_metric(SAMPLE_PTS, radius=2.0))
        np.testing.assert_allclose(cs.scalar, 6.0 / 4.0, rtol=1e-10)
        np.testing.assert_allclose(sectional_extremes(cs)[0], 0.25, rtol=1e-9)

    def test_two_sphere(self):
        pts = SAMPLE_PTS[:, :2]
        cs = curvature(sphere_metric(pts, radius=1.0, n=2))
        np.testing.assert_allclose(cs.scalar, 2.0, rtol=1e-10)
        np.testing.assert_allclose(sectional_extremes(cs)[0], 1.0, rtol=1e-10)
        lap = evaluate_grid(RoundSphere(1.0, dim=2), 0, pts).laplacian_scalar
        np.testing.assert_allclose(lap, 0.0, atol=1e-9)

    def test_riemann_matches_constant_curvature_form(self):
        mj = sphere_metric(SAMPLE_PTS)
        g = mj.values()
        want = np.einsum("...ik,...jl->...ijkl", g, g) - np.einsum(
            "...il,...jk->...ijkl", g, g
        )
        np.testing.assert_allclose(oracle_riemann(mj), want, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(riemann_from_ricci(curvature(mj)), want,
                                   rtol=1e-9, atol=1e-10)


class TestFlat:
    def test_constant_metric(self):
        a = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
        mj = MetricJet(Jet.constant(np.broadcast_to(a, (4, 3, 3)), 3, 4))
        cs = curvature(mj)
        np.testing.assert_allclose(oracle_riemann(mj), 0.0, atol=1e-12)
        np.testing.assert_allclose(cs.ricci, 0.0, atol=1e-12)
        np.testing.assert_allclose(cs.scalar, 0.0, atol=1e-12)
        # no hypersurface family has this metric: the intrinsic route's Laplacian
        np.testing.assert_allclose(full_riemann_curvature(mj)[2], 0.0, atol=1e-12)

    def test_flat_metric_in_curvilinear_coordinates(self):
        # pull back the euclidean metric through a nonlinear diffeomorphism;
        # curvature must still vanish identically
        pts = SAMPLE_PTS * 0.5
        xs = [Jet.variable(pts[..., i], i, 3, 5) for i in range(3)]
        ys = [
            xs[0] + 0.1 * xs[1] * xs[1] + 0.05 * xs[2],
            xs[1] + 0.08 * xs[0] * xs[2],
            xs[2] + 0.06 * xs[0] * xs[0] - 0.1 * xs[1],
        ]
        jac = [[y.derivative(i) for i in range(3)] for y in ys]
        coeffs = np.empty(pts.shape[:-1] + (3, 3, jac[0][0].coeffs.shape[-1]))
        for i in range(3):
            for j in range(3):
                g_ij = jac[0][i] * jac[0][j] + jac[1][i] * jac[1][j] + jac[2][i] * jac[2][j]
                coeffs[..., i, j, :] = g_ij.coeffs
        mj = MetricJet(Jet(3, 4, coeffs))
        cs = curvature(mj)
        np.testing.assert_allclose(oracle_riemann(mj), 0.0, atol=1e-9)
        np.testing.assert_allclose(cs.ricci, 0.0, atol=1e-9)
        np.testing.assert_allclose(cs.scalar, 0.0, atol=1e-9)
        np.testing.assert_allclose(full_riemann_curvature(mj)[2], 0.0, atol=1e-7)
        kmin, kmax = sectional_extremes(cs)
        np.testing.assert_allclose(kmin, 0.0, atol=1e-9)
        np.testing.assert_allclose(kmax, 0.0, atol=1e-9)


def bumpy_metric(pts, order=4):
    def phi(xs):
        return jet_exp(1.0 + 0.2 * xs[0] + 0.1 * xs[1] * xs[2] - 0.15 * xs[2] * xs[2])

    return conformal_metric(pts, phi, order=order)


class TestTensorSymmetries:
    def test_riemann_symmetries_and_first_bianchi(self):
        r = oracle_riemann(bumpy_metric(SAMPLE_PTS))
        np.testing.assert_allclose(r, -np.swapaxes(r, -4, -3), atol=1e-10)
        np.testing.assert_allclose(r, -np.swapaxes(r, -2, -1), atol=1e-10)
        np.testing.assert_allclose(
            r, np.einsum("...ijkl->...klij", r), atol=1e-10
        )
        bianchi = r + np.einsum("...ijkl->...iklj", r) + np.einsum("...ijkl->...iljk", r)
        np.testing.assert_allclose(bianchi, 0.0, atol=1e-10)

    def test_scalar_is_g_trace_of_ricci(self):
        cs = curvature(bumpy_metric(SAMPLE_PTS))
        tr = np.einsum("...ij,...ij->...", cs.metric_inv, cs.ricci)
        np.testing.assert_allclose(tr, cs.scalar, rtol=1e-12)

    @staticmethod
    def assert_inverse_jets(mj):
        inv = mj.inverse()
        g = mj.jet.truncate(mj.order - 1)
        n = range(mj.n)
        for i in n:
            for j in n:
                acc = _sum(g[..., i, k] * inv[..., k, j] for k in n)
                want = 1.0 if i == j else 0.0
                np.testing.assert_allclose(acc.value, want, atol=1e-12)
                # all higher coefficients of the identity vanish
                np.testing.assert_allclose(acc.coeffs[..., 1:], 0.0, atol=1e-10)

    def test_inverse_jets(self):
        self.assert_inverse_jets(bumpy_metric(SAMPLE_PTS))

    @pytest.mark.parametrize("fam", [RoundSphere(1.0, dim=2), radial_graph_bump(0.1, dim=2)],
                             ids=["sphere-2", "bump-2"])
    def test_inverse_jets_in_two_dimensions(self, fam):
        mj = metric_jets(fam, 0, SAMPLE_PTS[:, :2], 3)
        assert mj.n == 2
        self.assert_inverse_jets(mj)

    def test_inverse_in_one_variable_is_the_reciprocal(self):
        # det([]) is 1, so the one cofactor is 1 and the inverse of a 1 x 1
        # metric is its entry's reciprocal, bit for bit
        rng = np.random.default_rng(1)
        coeffs = rng.uniform(0.1, 0.5, (5, 1, 1, 4))
        coeffs[..., 0] = rng.uniform(1.0, 2.0, (5, 1, 1))
        mj = MetricJet(Jet(1, 3, coeffs))
        inv = mj.inverse()
        want = mj.jet[..., 0, 0].truncate(2).reciprocal()
        assert inv.batch_shape == (5, 1, 1) and inv.order == 2
        assert inv[..., 0, 0].coeffs.tobytes() == want.coeffs.tobytes()


class TestScaling:
    def test_constant_rescaling_laws(self):
        c = 1.7
        base = curvature(sphere_metric(SAMPLE_PTS))
        scaled_jet = sphere_metric(SAMPLE_PTS).jet * (c * c)
        scaled = curvature(MetricJet(scaled_jet))
        np.testing.assert_allclose(scaled.scalar, base.scalar / c**2, rtol=1e-10)
        np.testing.assert_allclose(scaled.ricci, base.ricci, rtol=1e-10, atol=1e-12)
        # Delta R scales as c^-4; on the ellipsoid, where it does not vanish
        axes = np.array([1.0, 1.2, 0.9, 1.05])
        base_lap = evaluate_grid(Ellipsoid(axes), 0, SAMPLE_PTS).laplacian_scalar
        scaled_lap = evaluate_grid(Ellipsoid(c * axes), 0, SAMPLE_PTS).laplacian_scalar
        assert np.abs(base_lap).min() > 1.0
        np.testing.assert_allclose(scaled_lap, base_lap / c**4, atol=1e-10)
        np.testing.assert_allclose(
            sectional_extremes(scaled)[0], sectional_extremes(base)[0] / c**2, rtol=1e-10
        )


class TestLaplacian:
    def test_laplacian_against_finite_differences(self):
        # independent route: difference scalar curvature values over a stencil
        # and assemble the coordinate laplacian by hand, against evaluate_grid's
        # Delta R from the Gauss equation
        family = radial_graph_random(23, 0.05)
        base = np.array([[0.25, -0.15, 0.3]])
        h = 1e-3

        def scalar_at(p):
            return curvature(metric_jets(family, 0, p.reshape(1, 3), 2)).scalar[0]

        r0 = scalar_at(base[0])
        grad = np.zeros(3)
        hess = np.zeros((3, 3))
        for i in range(3):
            up = base[0].copy()
            dn = base[0].copy()
            up[i] += h
            dn[i] -= h
            ru, rd = scalar_at(up), scalar_at(dn)
            grad[i] = (ru - rd) / (2 * h)
            hess[i, i] = (ru - 2 * r0 + rd) / h**2
        for i in range(3):
            for j in range(i + 1, 3):
                pp = base[0].copy(); pp[i] += h; pp[j] += h
                pm = base[0].copy(); pm[i] += h; pm[j] -= h
                mp = base[0].copy(); mp[i] -= h; mp[j] += h
                mm = base[0].copy(); mm[i] -= h; mm[j] -= h
                hess[i, j] = hess[j, i] = (
                    scalar_at(pp) - scalar_at(pm) - scalar_at(mp) + scalar_at(mm)
                ) / (4 * h**2)

        sd = evaluate_grid(family, 0, base)
        cs = sd.curvature
        fd_lap = np.einsum("ij,ij->", cs.metric_inv[0], hess) - np.einsum(
            "ij,kij,k->", cs.metric_inv[0], cs.christoffel[0], grad
        )
        assert abs(fd_lap) > 0.1
        assert sd.laplacian_scalar[0] == pytest.approx(fd_lap, rel=1e-5, abs=1e-5)


class TestSectional:
    def test_samples_stay_inside_exact_range(self):
        # the curvature of random planes u ^ v, from the Gamma route's
        # Riemann tensor, never leaves the range taken from Ricci
        for mj in (bumpy_metric(SAMPLE_PTS),
                   metric_jets(radial_graph_random(23, 0.05), 1, SAMPLE_PTS, 2)):
            cs, riemann, _ = full_riemann_curvature(mj)
            kmin, kmax = sectional_extremes(curvature(mj))
            tol = 1e-12 * np.maximum(np.abs(kmin), np.abs(kmax))
            rng = np.random.default_rng(3)
            for _ in range(200):
                u, v = rng.standard_normal((2, cs.n))
                num = np.einsum("...ijkl,i,j,k,l->...", riemann, u, v, u, v)
                uu, vv, uv = (np.einsum("...ij,i,j->...", cs.metric, a, b)
                              for a, b in ((u, u), (v, v), (u, v)))
                k = num / (uu * vv - uv * uv)
                assert np.all(k >= kmin - tol) and np.all(k <= kmax + tol)

    def test_anisotropic_metric_has_spread(self):
        pts = np.array([[0.4, 0.1, -0.2]])
        cs = curvature(bumpy_metric(pts))
        kmin, kmax = sectional_extremes(cs)
        assert kmax[0] > kmin[0] + 1e-3

    def test_adapted_frame_plane_sums(self):
        def adapted_sectional_sums(cs, riemann):
            """Ricci eigenvalues mu[..., i] relative to g (ascending) and the
            sectional curvatures kappa[..., i, j] of the planes of adapted
            frame vectors i and j; each mu[..., i] equals kappa[..., i, :].sum()."""
            mu, q = np.linalg.eigh(frame_components(cs.metric, cs.ricci))
            f = cholesky_frame(cs.metric) @ q
            kappa = np.einsum("...ijkl,...ia,...jb,...ka,...lb->...ab",
                              riemann, f, f, f, f)
            return mu, kappa

        for mj in (sphere_metric(SAMPLE_PTS), bumpy_metric(SAMPLE_PTS)):
            mu, kappa = adapted_sectional_sums(curvature(mj), oracle_riemann(mj))
            np.testing.assert_allclose(kappa, np.swapaxes(kappa, -1, -2), atol=1e-10)
            np.testing.assert_allclose(mu, kappa.sum(axis=-1), rtol=1e-9, atol=1e-10)


class TestCovariantDerivative:
    def test_metric_is_parallel(self):
        mj = bumpy_metric(SAMPLE_PTS)
        g_jet = mj.jet.truncate(1)
        out = covariant_antisym(mj.christoffels().value, g_jet.value, g_jet.gradient())
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_artificial_perturbation_detected(self):
        pts = SAMPLE_PTS
        mj = bumpy_metric(pts)
        x1 = Jet.variable(pts[..., 0], 0, 3, 1)
        bump = x1.coeffs[..., None, None, :] * np.zeros((3, 3, 1))
        pert = mj.jet.truncate(1)
        coeffs = pert.coeffs.copy()
        coeffs[..., 0, 0, :] += 0.1 * x1.coeffs
        pert = Jet(3, 1, coeffs)
        assert bump.shape[-3:-1] == (3, 3)
        out = covariant_antisym(mj.christoffels().value, pert.value, pert.gradient())
        assert np.abs(out).max() > 1e-3

    def test_symmetry_required(self):
        mj = bumpy_metric(SAMPLE_PTS)
        t = mj.jet.truncate(1)
        coeffs = t.coeffs.copy()
        coeffs[..., 0, 1, 0] += 1.0
        with pytest.raises(ValueError):
            covariant_antisym(mj.christoffels().value, coeffs[..., 0], Jet(3, 1, coeffs).gradient())


class TestMetricJetValidation:
    def test_rejects_indefinite_metric(self):
        bad = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(DomainError):
            MetricJet(Jet.constant(bad, 3, 2))

    def test_rejects_asymmetric_jets(self):
        coeffs = Jet.constant(np.eye(3), 3, 2).coeffs
        coeffs[0, 1] = Jet.variable(0.0, 0, 3, 2).coeffs
        with pytest.raises(ValueError):
            MetricJet(Jet(3, 2, coeffs))

    def test_one_ulp_asymmetry_comes_out_exactly_symmetric(self):
        coeffs = bumpy_metric(SAMPLE_PTS).jet.coeffs.copy()
        lo = np.tril_indices(3, -1)
        coeffs[..., lo[0], lo[1], :] = np.nextafter(coeffs[..., lo[0], lo[1], :], np.inf)
        assert not np.array_equal(coeffs, np.swapaxes(coeffs, -3, -2))
        mj = MetricJet(Jet(3, 4, coeffs))
        g = mj.jet.coeffs
        assert np.array_equal(g, np.swapaxes(g, -3, -2))
        gamma = mj.christoffels().coeffs
        assert np.array_equal(gamma, np.swapaxes(gamma, -3, -2))
        cs = curvature(mj)
        assert np.array_equal(cs.ricci, np.swapaxes(cs.ricci, -1, -2))
        # d_ricci[..., s, nu, k]: symmetric in (s, nu)
        assert np.array_equal(cs.d_ricci, np.swapaxes(cs.d_ricci, -3, -2))

    def test_coeff_array_round_trip(self):
        mj = bumpy_metric(SAMPLE_PTS)
        arr = mj.jet.coeffs
        back = MetricJet(Jet(3, mj.order, arr))
        assert back.order == mj.order
        np.testing.assert_allclose(back.values(), mj.values(), rtol=1e-14)


ORACLE_FAMILIES = {
    "ellipsoid": lambda: Ellipsoid((1.0, 1.2, 0.9, 1.05)),
    "sphere": lambda: RoundSphere(1.0),
    "bump": lambda: radial_graph_bump(0.1),
    "random-23": lambda: radial_graph_random(23, 0.05),
}
CURVATURE_FIELDS = ("metric", "metric_inv", "christoffel", "ricci", "d_ricci", "scalar")


def assert_same_bits(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestFullRiemannOracle:
    """curvature() keeps every bit of the full-Riemann-jet pipeline."""

    @pytest.mark.parametrize("chart", [0, 1])
    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_bit_identical(self, name, chart):
        fam = ORACLE_FAMILIES[name]()
        grid = ball_grid(13)
        assert len(grid) == 925
        for pts in (grid[300:301], grid[:37], grid):
            for order in (2, 3, 4):
                mj = metric_jets(fam, chart, pts, order)
                got, (want, _, _) = curvature(mj), full_riemann_curvature(mj)
                for f in CURVATURE_FIELDS:
                    assert_same_bits(getattr(got, f), getattr(want, f))

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES) + ["bumpy-conformal"])
    def test_ricci_fixes_riemann(self, name):
        # no Weyl part in dimension 3: (g, Ric, R) give the Gamma route's Riemann
        grid = ball_grid(13)
        for order in (2, 4):
            if name == "bumpy-conformal":
                mj = bumpy_metric(grid, order)
            else:
                mj = metric_jets(ORACLE_FAMILIES[name](), 0, grid, order)
            want = oracle_riemann(mj)
            got = riemann_from_ricci(curvature(mj))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestGivenInverse:
    """curvature() reads an inverse its caller formed at a higher order."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
    def test_same_bits_as_its_own(self, name):
        mj = metric_jets(ORACLE_FAMILIES[name](), 0, ball_grid(9), 3)
        own = curvature(MetricJet(mj.jet.truncate(2)))
        given = curvature(mj.truncate(2), mj.inverse())
        for f in CURVATURE_FIELDS:
            assert_same_bits(getattr(given, f), getattr(own, f))

    def test_grid_forms_one_inverse_and_one_check_per_block(self, monkeypatch):
        inverses, checks = [], []
        real_inverse, real_init = MetricJet.inverse, MetricJet.__init__
        monkeypatch.setattr(MetricJet, "inverse",
                            lambda mj: inverses.append(mj.order) or real_inverse(mj))
        monkeypatch.setattr(MetricJet, "__init__",
                            lambda mj, jet: checks.append(jet.order) or real_init(mj, jet))
        evaluate_grid(ORACLE_FAMILIES["ellipsoid"](), 0, ball_grid(5))
        assert inverses == [3] and checks == [3]

    def test_too_low_an_order_is_rejected(self):
        mj = metric_jets(ORACLE_FAMILIES["bump"](), 0, SAMPLE_PTS, 3)
        with pytest.raises(ValueError, match="cannot raise"):
            curvature(mj, mj.truncate(2).inverse())


class TestCurvatureMemory:
    def test_order4_peak_per_point(self):
        mj = metric_jets(ORACLE_FAMILIES["ellipsoid"](), 0, ball_grid(13), 4)
        assert mj.order == 4
        curvature(mj)   # the jet basis tables are built once per process
        gc.collect()
        tracemalloc.start()
        try:
            curvature(mj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a full (n, n, n, n)-slot Riemann jet took this to 15.5 KiB a point
        assert peak / mj.batch_shape[0] <= 10 * 1024
        held = [k for k, v in vars(mj).items() if isinstance(v, Jet) and v is not mj.jet]
        assert held == []

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_state_keeps_no_jet(self, order):
        # plain value arrays that own their data: Ricci's jet dies in curvature()
        cs = curvature(metric_jets(ORACLE_FAMILIES["bump"](), 1, SAMPLE_PTS, order))
        for obj in reachable(cs):
            assert not isinstance(obj, (Jet, MetricJet)), obj
            assert not isinstance(obj, np.ndarray) or obj.base is None
        assert (cs.d_ricci is None) == (order < 3)
        # Delta R is evaluate_grid's, from the Gauss equation, at every order
        assert not hasattr(cs, "laplacian_scalar")
        if order >= 3:
            assert cs.d_ricci.shape == (len(SAMPLE_PTS), 3, 3, 3)


class TestDiameter:
    def test_unit_three_sphere_window(self):
        gg = build_geodesic_graph(sphere_metric_values(1.0, 3), 3, 17)
        est = diameter(gg)
        assert math.pi <= est.value <= 1.10 * math.pi
        assert est.num_nodes == gg.num_nodes
        assert est.resolution == 17

    def test_radius_two_two_sphere_window(self):
        gg = build_geodesic_graph(sphere_metric_values(2.0, 2), 2, 17)
        est = diameter(gg)
        assert 2 * math.pi <= est.value <= 1.10 * 2 * math.pi

    def test_scaling_exact(self):
        base_fn = sphere_metric_values(1.0, 3)
        c = 1.35

        def scaled_fn(chart, pts):
            return c**2 * base_fn(chart, pts)

        d1 = diameter(build_geodesic_graph(base_fn, 3, 9)).value
        d2 = diameter(build_geodesic_graph(scaled_fn, 3, 9)).value
        assert d2 == pytest.approx(c * d1, rel=1e-12)

    def test_refinement_does_not_increase(self):
        fn = sphere_metric_values(1.0, 2)
        d_coarse = diameter(build_geodesic_graph(fn, 2, 9)).value
        d_fine = diameter(build_geodesic_graph(fn, 2, 17)).value
        assert d_fine <= d_coarse + 1e-12

    def test_resolution_validation(self):
        fn = sphere_metric_values(1.0, 2)
        with pytest.raises(ValueError):
            build_geodesic_graph(fn, 2, 4)
        with pytest.raises(ValueError):
            build_geodesic_graph(fn, 2, 8)

    def test_edge_lengths_positive(self):
        gg = build_geodesic_graph(sphere_metric_values(1.0, 2), 2, 9)
        assert gg.adjacency.data.min() > 0.0

    @pytest.mark.parametrize("extent", [1.05, 1.5, 1.75])
    @pytest.mark.parametrize("resolution", [5, 7, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_repeated_edges(self, n, resolution, extent):
        # one entry per (row, col) pair (canonical CSR), every edge stored both
        # ways; a stitch made from both charts is one pair, so only the
        # stitches may count more edges than pairs
        gg = build_geodesic_graph(sphere_metric_values(1.0, n), n, resolution, extent)
        adj = gg.adjacency
        assert adj.has_canonical_format
        assert (adj != adj.T).nnz == 0
        idx, _ = ball_lattice(resolution, extent, n)
        nodes = set(map(tuple, idx))
        offsets = [o for o in np.ndindex(*((3,) * n)) if o != (1,) * n]
        neighbors = sum(tuple(p + np.array(o) - 1) in nodes for p in idx for o in offsets)
        rows, cols = adj.nonzero()
        same_chart = gg.node_chart[rows] == gg.node_chart[cols]
        assert same_chart.sum() == 2 * neighbors  # both charts, both ways
        stitches = gg.num_edges - neighbors
        cross = (~same_chart).sum()
        assert cross / 2 <= stitches <= cross
