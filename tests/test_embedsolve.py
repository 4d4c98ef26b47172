import itertools

import numpy as np
import pytest
from scipy.linalg import eigh as generalized_eigh
from scipy.linalg import orthogonal_procrustes

from oracles import frame_components
from weylcheck import _forkjoin, embedsolve
from weylcheck.embedsolve import (
    ChiField,
    IntrinsicField,
    align_rigid,
    codazzi_threshold,
    diag_ramp_perturbation,
    embeddability_check,
    metric_jets,
    reconstruct,
    seed_frame,
    solve_contracted_gauss,
)
from weylcheck.errors import ConvergenceError, IntegrationError, ObstructionError
from weylcheck.intrinsic import (
    MetricJet,
    codazzi_residual,
    curvature,
    principal_curvatures,
    sectional_extremes,
)
from weylcheck.jets import Jet
from weylcheck.matmap import SymMatrix, cone_report, phi, phi_inverse
from weylcheck.surfaces import (
    Ellipsoid,
    RoundSphere,
    ball_grid,
    evaluate_grid,
    radial_graph_bump,
    radial_graph_random,
)

AXES = (1.0, 1.2, 0.9, 1.05)


@pytest.fixture(scope="module")
def grid7():
    return ball_grid(7, 1.2, 3)


@pytest.fixture(scope="module")
def sphere_field(grid7):
    return IntrinsicField.from_family(RoundSphere(1.0), 0, grid7)


@pytest.fixture(scope="module")
def sphere_chi(sphere_field):
    return solve_contracted_gauss(sphere_field)


@pytest.fixture(scope="module")
def ellipsoid_field(grid7):
    return IntrinsicField.from_family(Ellipsoid(AXES), 0, grid7)


@pytest.fixture(scope="module")
def ellipsoid_chi(ellipsoid_field):
    return solve_contracted_gauss(ellipsoid_field)


class TestSolver:
    def test_round_sphere_chi_equals_g(self, sphere_field, sphere_chi):
        assert np.abs(sphere_chi.values - sphere_field.g()).max() < 1e-12
        assert np.abs(sphere_field.ricci - 2.0 * sphere_field.g()).max() < 1e-10

    def test_residual_limit(self, sphere_chi, ellipsoid_chi):
        assert sphere_chi.residuals.max() < 1e-9
        assert ellipsoid_chi.residuals.max() < 1e-9

    def test_nan_residual_rejected(self, sphere_field, monkeypatch):
        # a NaN residual is above every limit, as cmd_solve's verdict says too
        monkeypatch.setattr(embedsolve, "contracted_gauss_residual",
                            lambda ginv, chi, ric: np.full(chi.shape[:-2], np.nan))
        with pytest.raises(ConvergenceError, match="above the per-point limit"):
            solve_contracted_gauss(sphere_field)

    def test_ellipsoid_matches_embedded_truth(self, grid7, ellipsoid_field,
                                              ellipsoid_chi):
        truth = evaluate_grid(Ellipsoid(AXES), 0, grid7).chi
        rel = np.abs(ellipsoid_chi.values - truth).max() / np.abs(truth).max()
        assert rel < 1e-6

    def test_frame_roundtrip(self, ellipsoid_field, ellipsoid_chi):
        # phi of the frame chi must reproduce the frame Ricci
        g = ellipsoid_field.g()
        ric_f = frame_components(g, ellipsoid_field.ricci)
        a = frame_components(g, ellipsoid_chi.values)
        tra = np.trace(a, axis1=-2, axis2=-1)[..., None, None]
        assert np.abs(tra * a - a @ a - ric_f).max() < 1e-9

    def test_cross_check_single_point_inverse(self, ellipsoid_field,
                                              ellipsoid_chi):
        g = ellipsoid_field.g()
        ric_f = frame_components(g, ellipsoid_field.ricci)
        frame_values = frame_components(g, ellipsoid_chi.values)
        for k in range(0, ric_f.shape[0], 9):
            a = phi_inverse(SymMatrix(ric_f[k]))
            assert np.abs(a.mat - frame_values[k]).max() < 1e-10
            back = phi(a)
            assert np.abs(back.mat - ric_f[k]).max() < 1e-10

    def test_frame_choice_invariance(self, ellipsoid_field, ellipsoid_chi):
        # solving in the generalized-eigenvector frame instead of the
        # Cholesky frame must give the same coordinate tensor
        g = ellipsoid_field.g()
        ric = ellipsoid_field.ricci
        for k in range(0, g.shape[0], 7):
            mu, v = generalized_eigh(ric[k], g[k])
            t = mu.sum() - 2.0 * mu
            lam = np.sqrt(np.prod(t) / 2.0) / t
            w = g[k] @ v
            other = (w * lam) @ w.T
            assert np.abs(other - ellipsoid_chi.values[k]).max() < 1e-10

    def test_cone_membership_matches_matmap(self, ellipsoid_field,
                                            ellipsoid_chi):
        ric_f = frame_components(ellipsoid_field.g(), ellipsoid_field.ricci)
        for k in range(0, ric_f.shape[0], 11):
            rep = cone_report(ric_f[k])
            assert rep.member
            assert rep.eps_gap == pytest.approx(ellipsoid_chi.gaps[k], rel=1e-9)

    def test_eps_gap_is_twice_least_sectional(self, ellipsoid_field, ellipsoid_chi):
        kmin = sectional_extremes(curvature(ellipsoid_field.metric))[0]
        np.testing.assert_allclose(ellipsoid_chi.gaps, 2.0 * kmin, rtol=1e-12)

    def test_chi_is_spd(self, ellipsoid_chi):
        assert ellipsoid_chi.principal_min().min() > 0

    def test_scaling_laws(self, ellipsoid_field, ellipsoid_chi):
        # c^2 g: frame eigenvalues mu scale by c^-2, lambda by c^-1, and the
        # coordinate tensor by c
        c = 1.7
        scaled = MetricJet(ellipsoid_field.metric.jet * c**2)
        f2 = IntrinsicField.from_metric(scaled, 0, ellipsoid_field.coords)
        chi2 = solve_contracted_gauss(f2)
        assert np.abs(chi2.values - c * ellipsoid_chi.values).max() < 1e-9
        lam1 = principal_curvatures(ellipsoid_field.g(), ellipsoid_chi.values)
        lam2 = principal_curvatures(f2.g(), chi2.values)
        assert np.abs(lam2 - lam1 / c).max() < 1e-10
        assert np.abs(chi2.gaps - ellipsoid_chi.gaps / c**2).max() < 1e-10

    @pytest.mark.parametrize("family, perturbation", [
        (Ellipsoid(AXES), None),
        (radial_graph_random(23), diag_ramp_perturbation()),
    ], ids=["ellipsoid", "random-23-diag-ramp"])
    def test_derivatives_match_differencing(self, grid7, family, perturbation):
        # jet-propagated d chi vs central differences of fresh solves, also
        # on Ricci data that no embedding produced
        field = IntrinsicField.from_family(family, 0, grid7, perturbation=perturbation)
        chi = solve_contracted_gauss(field)
        sample = field.coords[::13]
        want = chi.d_values[::13]
        delta = 1e-5
        for k in range(3):
            off = np.zeros(3)
            off[k] = delta
            fd = (embedsolve._continuous_data(field, sample + off)[1]
                  - embedsolve._continuous_data(field, sample - off)[1]) / (2.0 * delta)
            assert np.abs(fd - want[..., k]).max() < 1e-6

    def test_rejects_other_dimensions(self):
        field = IntrinsicField.from_family(Ellipsoid((1.0, 1.2, 0.9)), 0,
                                           ball_grid(7, 1.2, 2))
        with pytest.raises(ValueError, match="three-dimensional"):
            solve_contracted_gauss(field)

    def test_flat_metric_is_obstructed(self):
        coords = np.zeros((3, 3))
        coords[1, 0] = 0.1
        coords[2, 1] = -0.2
        flat = MetricJet(Jet.constant(np.broadcast_to(np.eye(3), (3, 3, 3)), 3, 2))
        field = IntrinsicField.from_metric(flat, 0, coords)
        with pytest.raises(ObstructionError) as exc:
            solve_contracted_gauss(field)
        assert exc.value.margin <= 0
        assert "coords" in str(exc.value)

    def test_cone_exit_names_point_and_gap(self, grid7):
        def pert(pts, order):
            pts = np.asarray(pts, float)
            val = np.zeros(pts.shape[:-1] + (3, 3))
            val[..., 2, 2] = 3.0
            return Jet.linear(val, np.zeros(val.shape + (3,)), 3,
                              order=max(order, 1))

        field = IntrinsicField.from_family(RoundSphere(1.0), 0, grid7,
                                           perturbation=pert)
        with pytest.raises(ObstructionError) as exc:
            solve_contracted_gauss(field)
        assert exc.value.point["chart"] == 0
        assert exc.value.margin < 0


class TestField:
    def test_ricci_consistency(self, ellipsoid_field):
        from weylcheck.intrinsic import curvature
        cs = curvature(ellipsoid_field.metric)
        assert np.abs(cs.ricci - ellipsoid_field.ricci).max() < 1e-10

    def test_array_roundtrip(self, ellipsoid_field):
        coeffs = ellipsoid_field.metric.jet.coeffs
        order = ellipsoid_field.metric.order
        back = IntrinsicField.from_metric(MetricJet(Jet(3, order, coeffs)), 0,
                                          ellipsoid_field.coords)
        assert np.abs(back.g() - ellipsoid_field.g()).max() < 1e-14
        assert np.abs(back.ricci - ellipsoid_field.ricci).max() < 1e-12

    def test_grid_resolution_inferred(self, ellipsoid_field):
        assert ellipsoid_field.grid_resolution() == 7

    @pytest.mark.parametrize("family", [Ellipsoid(AXES), radial_graph_bump(0.1),
                                        radial_graph_random(seed=23, amp=0.05)],
                             ids=["ellipsoid", "bump", "random-23"])
    @pytest.mark.parametrize("chart", [0, 1])
    def test_solve_does_not_depend_on_metric_order(self, grid7, family, chart):
        field = IntrinsicField.from_family(family, chart, grid7)
        full = IntrinsicField.from_metric(metric_jets(family, chart, grid7, order=4),
                                          chart, grid7, family=family)
        chi, chi_full = solve_contracted_gauss(field), solve_contracted_gauss(full)
        for name in ("values", "d_values", "residuals", "gaps"):
            assert getattr(chi, name).tobytes() == getattr(chi_full, name).tobytes(), name
        assert codazzi_residual(field.christoffel, chi.as_jet()).tobytes() \
            == codazzi_residual(full.christoffel, chi_full.as_jet()).tobytes()

    def test_light_metric_jets_match_full(self, grid7):
        mj = metric_jets(Ellipsoid(AXES), 0, grid7, order=4)
        full = evaluate_grid(Ellipsoid(AXES), 0, grid7).metric
        assert np.abs(mj.jet.coeffs - full.jet.coeffs).max() < 1e-12


class TestEmbeddability:
    def test_embedded_families_pass(self, sphere_field, sphere_chi,
                                    ellipsoid_field, ellipsoid_chi):
        assert codazzi_residual(sphere_field.christoffel, sphere_chi.as_jet()).max() < 1e-10
        v = embeddability_check(ellipsoid_field, ellipsoid_chi)
        assert v.embeddable
        assert v.sup_residual <= 1e-6
        assert v.calibration["resolution"] == 7
        assert v.threshold == codazzi_threshold(7)[0]

    def test_perturbed_field_fails(self, ellipsoid_field):
        field = ellipsoid_field.perturbed(diag_ramp_perturbation(0.05))
        chi = solve_contracted_gauss(field)
        v = embeddability_check(field, chi)
        assert not v.embeddable
        assert v.sup_residual > 10.0 * v.threshold
        assert chi.principal_min().min() > 0  # still inside the cone

    def test_explicit_threshold(self, ellipsoid_field, ellipsoid_chi):
        v = embeddability_check(ellipsoid_field, ellipsoid_chi, theta=1e-20)
        assert not v.embeddable
        assert v.calibration == {"provided": True}

    def test_verdict_dict(self, ellipsoid_field, ellipsoid_chi):
        d = embeddability_check(ellipsoid_field, ellipsoid_chi).to_dict()
        assert set(d) == {"embeddable", "sup_residual", "threshold", "at",
                          "calibration"}

    def test_threshold_is_cached_and_small(self):
        theta, observed = codazzi_threshold(7)
        assert theta < 1e-8
        assert len(observed) == 6
        assert theta == 10.0 * max(observed.values())


class TestSeedFrame:
    def test_invariants_exact(self, ellipsoid_field):
        k0 = int(np.argmin(np.linalg.norm(ellipsoid_field.coords, axis=-1)))
        g = ellipsoid_field.g()[k0]
        x, e, nrm = seed_frame(g)
        assert np.array_equal(x, np.zeros(4))
        assert np.abs(e @ e.T - g).max() < 1e-14
        assert np.abs(e @ nrm).max() < 1e-14
        assert abs(nrm @ nrm - 1.0) < 1e-14
        assert np.linalg.det(np.vstack([e, nrm])) > 0


@pytest.fixture(scope="module")
def grid5():
    return ball_grid(5, 1.2, 3)


# reconstruct(h=0.1) on the ball_grid(5) ellipsoid, recorded from a march that
# evaluated every RK4 stage in a call of its own: batching the stage data by
# lattice level must not move it
ELLIPSOID5_X = np.array([
    [-0.9836082065152028, 0.0, 0.0, -1.2393315467016675],
    [-0.5769256415641659, -0.6923060045054521, -0.5192284157602649, -1.0903685066886692],
    [-0.6976732985944191, -0.8372044718000055, 0.0, -0.8790518701161965],
    [-0.5769256415641659, -0.6923060045054521, 0.5192284157602649, -1.0903685066886692],
    [-0.6976740553250427, 1.0079476687486286e-17, -0.6279033400612275, -0.8790504400521353],
    [-0.8823446389151975, 0.0, 0.0, -0.5558645476580165],
    [-0.6976740553250427, 1.0079476687486286e-17, 0.6279033400612275, -0.8790504400521353],
    [-0.576925641564166, 0.6923060045054521, -0.519228415760265, -1.0903685066886692],
    [-0.6976732985944191, 0.8372044718000055, 0.0, -0.8790518701161965],
    [-0.576925641564166, 0.6923060045054521, 0.519228415760265, -1.0903685066886692],
    [0.0, -1.1803263202934957, 0.0, -1.2393365443092086],
    [0.0, -0.8372065057510718, -0.6279039179120641, -0.879051978030943],
    [0.0, -1.0588121420489862, 0.0, -0.5558670824276474],
    [0.0, -0.8372065057510718, 0.6279039179120641, -0.879051978030943],
    [0.0, 0.0, -0.8852515946583709, -1.239324278980521],
    [0.0, 0.0, -0.7941120962311531, -0.5558611675842926],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.7941120962311531, -0.5558611675842926],
    [0.0, 0.0, 0.8852515946583709, -1.239324278980521],
    [0.0, 0.8372065057510718, -0.6279039179120641, -0.8790519780309429],
    [0.0, 1.0588121420489862, 0.0, -0.5558670824276474],
    [0.0, 0.8372065057510718, 0.6279039179120641, -0.8790519780309429],
    [0.0, 1.1803263202934955, 0.0, -1.2393365443092088],
    [0.5769256415641659, -0.6923060045054518, -0.519228415760265, -1.090368506688669],
    [0.697673298594419, -0.8372044718000052, 0.0, -0.8790518701161965],
    [0.5769256415641659, -0.6923060045054518, 0.519228415760265, -1.090368506688669],
    [0.6976740553250426, -1.6476242661985675e-17, -0.6279033400612275, -0.8790504400521353],
    [0.8823446389151975, 0.0, 0.0, -0.5558645476580165],
    [0.6976740553250426, -1.6476242661985675e-17, 0.6279033400612275, -0.8790504400521353],
    [0.5769256415641659, 0.6923060045054518, -0.519228415760265, -1.090368506688669],
    [0.697673298594419, 0.8372044718000052, 0.0, -0.8790518701161965],
    [0.5769256415641659, 0.6923060045054518, 0.519228415760265, -1.090368506688669],
    [0.9836082065152028, 0.0, 0.0, -1.2393315467016675],
])
ELLIPSOID5_ISOMETRY = 3.407058343807279e-05
ELLIPSOID5_HOLONOMY = 1.0988773683271085e-05


# reconstruct(h=0.1) on the ball_grid(5) random-23 graph, recorded from the
# march that evaluated each lattice level's stage data in calls of its own
RANDOM5_X = np.array([
    [-1.0751935861746487, -0.03644633372492857, -0.03885986238721677, -1.104253443631626],
    [-0.658593231511867, -0.6061855613519629, -0.6076558001322235, -0.958059803634502],
    [-0.7308082145982544, -0.6880563959532955, -0.027313589134230085, -0.7761502994323948],
    [-0.6399832431300109, -0.5876342978965664, 0.5202137254760977, -0.9986696967511833],
    [-0.7583077826055706, -0.02604451052112332, -0.7175623456696771, -0.7648237530969839],
    [-0.8865554405507803, -0.01614907677460679, -0.01721844789755402, -0.48928427870267627],
    [-0.7535832601597641, -0.026094834361103558, 0.6571379299691059, -0.8147265646107335],
    [-0.6565269719113629, 0.5383001359218613, -0.6069234115503354, -0.9958940529720123],
    [-0.7537825128984247, 0.659121061551702, -0.028615533278691485, -0.8131450356367154],
    [-0.6622277179187791, 0.5439893253044173, 0.5410968472810885, -1.036388803140866],
    [-0.09834730089810205, -0.9952508149949391, -0.04045682930372068, -1.149635782222919],
    [-0.07037732793705802, -0.7220469577976126, -0.7230355689942437, -0.797927922844746],
    [-0.04625750238069177, -0.8673828631048084, -0.018565597728482434, -0.5275666224398827],
    [-0.07069011345244028, -0.7060082462329067, 0.6488441565675955, -0.85050057496159],
    [-0.09897856153800295, -0.03923462107677128, -1.0395575014274907, -1.153632952468053],
    [-0.04501764209184783, -0.01784475910676613, -0.8960458972064232, -0.509802892625324],
    [0.0, 0.0, 0.0, 0.0],
    [-0.04386497790841268, -0.017388017612330657, 0.8845378900333283, -0.5586011288670574],
    [-0.0987903147120375, -0.03916032752286541, 0.9435768808546565, -1.2211555554405582],
    [-0.07069620488328159, 0.6496319498369043, -0.7082708602309186, -0.8475609038970421],
    [-0.04524813998853054, 0.8539243596256202, -0.02013569191593663, -0.572174428981157],
    [-0.07016845002124637, 0.6771226740554149, 0.6744063989020974, -0.8907723425333901],
    [-0.09818461023003633, 0.906668546238227, -0.042594940535686125, -1.2103793403314909],
    [0.48786384543002814, -0.6125865156836492, -0.6142616702608349, -1.0532899866931105],
    [0.6204656460573644, -0.7226725001321832, -0.03097116759938929, -0.8800806933719234],
    [0.4805013883968097, -0.605124344823494, 0.5313057147087397, -1.092740878929087],
    [0.6199027276130725, -0.029803814891197572, -0.7240465168134921, -0.8786422907498188],
    [0.8546827547607854, -0.019884804497760367, -0.021201924788865564, -0.6024747471602602],
    [0.6363518644767192, -0.029724024217530343, 0.6767548330939716, -0.9255154417257032],
    [0.4643627675539509, 0.5168800781867223, -0.5917484322672006, -1.0878161808302464],
    [0.605893368137885, 0.6486628996600377, -0.032637611602713626, -0.9274329473810141],
    [0.4809060242330021, 0.533481543637646, 0.5303898553855855, -1.1303496760218912],
    [0.8506448894881196, -0.04155827805797555, -0.04431098881094705, -1.2591470923851709],
])
RANDOM5_ISOMETRY = 4.4607811040986434e-05
RANDOM5_HOLONOMY = 1.103945772417539e-05


@pytest.fixture(scope="module")
def ellipsoid5(grid5):
    field = IntrinsicField.from_family(Ellipsoid(AXES), 0, grid5)
    chi = solve_contracted_gauss(field)
    return field, chi, reconstruct(field, chi, h=0.1)


class TestReconstruct:
    def test_round_sphere(self, grid5):
        field = IntrinsicField.from_family(RoundSphere(1.0), 0, grid5)
        chi = solve_contracted_gauss(field)
        rec = reconstruct(field, chi, h=2e-2)
        assert rec.isometry_sup < 5e-7
        assert rec.holonomy_sup < 1e-7
        truth = evaluate_grid(RoundSphere(1.0), 0, grid5).X
        _, _, rms = align_rigid(rec.X, truth)
        assert rms < 1e-6

    def test_non_codazzi_holonomy(self, grid5):
        base = IntrinsicField.from_family(Ellipsoid(AXES), 0, grid5)
        chi0 = solve_contracted_gauss(base)
        rec0 = reconstruct(base, chi0, h=4e-2)
        field = base.perturbed(diag_ramp_perturbation(0.05))
        chi = solve_contracted_gauss(field)
        rec = reconstruct(field, chi, h=4e-2)
        assert rec.holonomy_sup > 1e-3
        assert rec.holonomy_sup > 1e3 * rec0.holonomy_sup
        # the isometry residual stays small: drift only reflects chi vs g
        assert rec.isometry_sup < 1e-6

    def test_drift_rejection(self, grid5):
        field = IntrinsicField.from_family(RoundSphere(1.0), 0, grid5)
        chi = solve_contracted_gauss(field)
        with pytest.raises(IntegrationError, match="drift"):
            reconstruct(field, chi, h=2e-2, drift_limit=1e-18)

    def test_drift_limit_scales_with_the_body(self, grid5):
        # X -> lambda X takes g and E E^T - g to lambda^2 times themselves;
        # the limit follows g's least eigenvalue, so no scale fails the march
        ratios = []
        for lam in (1e-3, 1.0, 10.0, 1e3):
            field = IntrinsicField.from_family(Ellipsoid(tuple(lam * a for a in AXES)),
                                               0, grid5)
            chi = solve_contracted_gauss(field)
            rec = reconstruct(field, chi, h=0.1)
            ratios.append(rec.isometry_sup / np.linalg.eigvalsh(field.g())[:, 0].min())
        assert ratios == pytest.approx([ratios[1]] * 4, rel=1e-9)
        assert ratios[1] < 1e-3

    def test_nan_frame_rejected(self, grid5, monkeypatch):
        # a NaN drift fails the drift check; it must not read as zero drift
        field = IntrinsicField.from_family(RoundSphere(1.0), 0, grid5)
        chi = solve_contracted_gauss(field)

        def nan_batch(stages, axis, dt, x, e, nrm):
            return np.full_like(x, np.nan), np.full_like(e, np.nan), np.full_like(nrm, np.nan)

        monkeypatch.setattr(embedsolve, "_integrate_batch", nan_batch)
        with pytest.raises(IntegrationError, match="frame drift nan exceeds"):
            reconstruct(field, chi, h=0.1)

    def test_pinned_ellipsoid(self, ellipsoid5):
        rec = ellipsoid5[2]
        assert np.abs(rec.X - ELLIPSOID5_X).max() <= 1e-12
        assert rec.isometry_sup == pytest.approx(ELLIPSOID5_ISOMETRY, rel=1e-9)
        assert rec.holonomy_sup == pytest.approx(ELLIPSOID5_HOLONOMY, rel=1e-9)

    def test_pinned_random_graph(self, grid5):
        field = IntrinsicField.from_family(radial_graph_random(23), 0, grid5)
        rec = reconstruct(field, solve_contracted_gauss(field), h=0.1)
        assert np.abs(rec.X - RANDOM5_X).max() <= 1e-12
        assert rec.isometry_sup == pytest.approx(RANDOM5_ISOMETRY, rel=1e-9)
        assert rec.holonomy_sup == pytest.approx(RANDOM5_HOLONOMY, rel=1e-9)

    def test_stage_points_cap(self, ellipsoid5, monkeypatch):
        field, chi, rec = ellipsoid5
        calls = []
        data = embedsolve._continuous_data

        def counted(f, pts):
            calls.append(len(pts))
            return data(f, pts)

        monkeypatch.setattr(embedsolve, "_continuous_data", counted)
        reconstruct(field, chi, h=0.1)
        default_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(embedsolve, "STAGE_POINTS", 7)
        capped = reconstruct(field, chi, h=0.1)
        assert max(calls) <= 7
        assert len(calls) > default_calls
        assert np.abs(capped.X - rec.X).max() <= 1e-12

    @pytest.mark.parametrize("perturb", [False, True])
    def test_continuous_data_same_bits_in_any_batch(self, grid5, perturb):
        field = IntrinsicField.from_family(radial_graph_random(23), 0, grid5)
        if perturb:
            field = field.perturbed(diag_ramp_perturbation())
        pts = np.random.default_rng(5).uniform(-0.69, 0.69, (600, 3))
        whole = embedsolve._continuous_data(field, pts)
        cuts = np.cumsum([1, 7, 512])
        parts = [embedsolve._continuous_data(field, p) for p in np.split(pts, cuts)]
        for one, split in zip(whole, zip(*parts)):
            assert np.array_equal(one, np.concatenate(split))

    @pytest.mark.parametrize("chunk", [512, 100, 7])
    def test_stream_calls_are_full_chunks(self, ellipsoid5, monkeypatch, chunk):
        field, chi, rec = ellipsoid5
        monkeypatch.setattr(embedsolve, "STAGE_POINTS", chunk)
        # both fills in this process, so that every call is counted
        monkeypatch.setattr(_forkjoin, "FORK", False)
        idx, spacing, center = embedsolve._lattice(field.coords)
        nsub = int(round(spacing / 0.1))
        expected = []
        for plan in ((0, 1, 2), (2, 1, 0)):
            levels = embedsolve._fill_levels(idx, center, plan)
            points = (2 * nsub + 1) * sum(len(sources) for *_, sources in levels)
            full, last = divmod(points, chunk)
            expected += [chunk] * full + ([last] if last else [])
        calls = []
        data = embedsolve._continuous_data

        def counted(f, pts):
            calls.append(len(pts))
            return data(f, pts)

        monkeypatch.setattr(embedsolve, "_continuous_data", counted)
        streamed = reconstruct(field, chi, h=0.1)
        assert calls == expected
        assert np.array_equal(streamed.X, rec.X)

    @pytest.mark.parametrize("plan", list(itertools.permutations(range(3))))
    def test_fill_levels_cover_lattice_once(self, grid7, plan):
        idx, _, center = embedsolve._lattice(grid7)
        filled = [center]
        for axis, sign, targets, sources in embedsolve._fill_levels(idx, center, plan):
            assert np.isin(sources, filled).all()
            assert np.array_equal(idx[targets] - sign * np.eye(3, dtype=int)[axis],
                                  idx[sources])
            filled.extend(targets)
        assert sorted(filled) == list(range(len(grid7)))

    def test_step_bounded_by_lattice_spacing(self, sphere_field, sphere_chi):
        # 0.4 lies a few ulps above the spacing read from the grid7 lattice,
        # 0.3999999999999999, and must pass
        rec = reconstruct(sphere_field, sphere_chi, h=0.4, drift_limit=1.0,
                          with_holonomy=False)
        assert rec.X.shape == (sphere_field.coords.shape[0], 4)
        for h in (0.41, 1e300, 0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="lattice spacing 0.4"):
                reconstruct(sphere_field, sphere_chi, h=h)

    def test_no_center_node(self, grid5):
        pts = grid5[np.linalg.norm(grid5, axis=-1) > 0]
        field = IntrinsicField.from_family(Ellipsoid(AXES), 0, pts)
        with pytest.raises(ValueError, match="no center node"):
            reconstruct(field, solve_contracted_gauss(field), h=0.1)

    def test_unreachable_node(self, grid5):
        hole = np.all(np.isclose(grid5, [0.6, 0.0, 0.0]), axis=-1)
        assert hole.sum() == 1
        field = IntrinsicField.from_family(Ellipsoid(AXES), 0, grid5[~hole])
        with pytest.raises(IntegrationError, match="sweep failed to reach every grid node"):
            reconstruct(field, solve_contracted_gauss(field), h=0.1)

    def test_input_validation(self, grid5, sphere_field, sphere_chi):
        field = IntrinsicField.from_family(RoundSphere(1.0), 0, grid5)
        chi = solve_contracted_gauss(field)
        with pytest.raises(ValueError, match="permutation"):
            reconstruct(field, chi, path_plan=(0, 1, 1))
        with pytest.raises(ValueError, match="different field"):
            reconstruct(field, sphere_chi)
        with pytest.raises(ValueError, match="family-backed"):
            f2 = IntrinsicField.from_metric(field.metric, 0, field.coords)
            c2 = solve_contracted_gauss(f2)
            reconstruct(f2, c2)


class TestAlignRigid:
    def test_identity(self):
        rng = np.random.default_rng(5)
        cloud = rng.normal(size=(40, 4))
        q, t, rms = align_rigid(cloud, cloud)
        assert np.abs(q - np.eye(4)).max() < 1e-12
        assert np.abs(t).max() < 1e-12
        assert rms < 1e-12

    def test_recovers_rigid_motion(self):
        rng = np.random.default_rng(6)
        cloud = rng.normal(size=(50, 4))
        raw = rng.normal(size=(4, 4))
        q_true = np.linalg.qr(raw)[0]
        moved = cloud @ q_true + np.array([0.3, -1.2, 0.05, 2.0])
        q, t, rms = align_rigid(cloud, moved)
        assert rms < 1e-12
        assert np.abs(q - q_true).max() < 1e-10

    def test_reflection_allowed(self):
        rng = np.random.default_rng(7)
        cloud = rng.normal(size=(30, 3))
        mirrored = cloud * np.array([-1.0, 1.0, 1.0])
        q, t, rms = align_rigid(cloud, mirrored)
        assert rms < 1e-12
        assert np.linalg.det(q) < 0

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(8)
        flat = rng.normal(size=(25, 3))
        flat[:, 2] = 0.0
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            align_rigid(flat, flat)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            align_rigid(np.zeros((3, 4)), np.zeros((4, 4)))

    @staticmethod
    def procrustes_oracle(recon, truth):
        """align_rigid's (q, t, rms) with q from scipy's orthogonal_procrustes."""
        ca, cb = recon.mean(axis=0), truth.mean(axis=0)
        q, _ = orthogonal_procrustes(recon - ca, truth - cb)
        t = cb - ca @ q
        rms = float(np.sqrt(np.mean(np.sum((recon @ q + t - truth) ** 2, axis=1))))
        return q, t, rms

    @pytest.mark.parametrize("count, dim", [(8, 3), (40, 3), (125, 4), (343, 4), (729, 4)])
    def test_matches_scipy_procrustes(self, count, dim):
        # reconstruct aligns hundreds of 4-D points, a noisy rigid copy of the truth
        rng = np.random.default_rng(count * 10 + dim)
        for _ in range(20):
            truth = rng.normal(size=(count, dim))
            q_true = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            recon = (truth - rng.normal(size=dim)) @ q_true.T \
                + 1e-6 * rng.normal(size=(count, dim))
            got = align_rigid(recon, truth)
            want = self.procrustes_oracle(recon, truth)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_matches_scipy_procrustes_rank_deficient(self):
        rng = np.random.default_rng(9)
        flat = rng.normal(size=(125, 4))
        flat[:, 3] = 0.0
        other = flat @ np.linalg.qr(rng.normal(size=(4, 4)))[0] + 0.5
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            got = align_rigid(other, flat)
        for a, b in zip(got, self.procrustes_oracle(other, flat)):
            assert np.array_equal(a, b)
