"""Acceptance gate: one test per numbered release check, in order.

Each test prints a single summary line (visible with pytest -s) and
enforces its runtime budget where one is stated.  Budgets are wall-clock
on the whole criterion, so these tests do their own setup instead of
sharing fixtures.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from weylcheck.bounds import (
    c2bound_report,
    diam_weyl_report,
    evaluate_family_grid,
    weyl_report,
)
from weylcheck.cli import canonical_json, main
from weylcheck.embedsolve import (
    IntrinsicField,
    align_rigid,
    diag_ramp_perturbation,
    embeddability_check,
    reconstruct,
    solve_contracted_gauss,
)
from weylcheck.matmap import (
    SymMatrix,
    _gaps_closed_form_3,
    _invert_eigenvalues_newton,
    chi_inequality_sides,
    cone_report,
    det_gn_coefficients,
    det_gn_direct,
    norm_bound_sides,
    phi,
    phi_inverse,
)
from weylcheck.surfaces import (
    Ellipsoid,
    RoundSphere,
    ball_grid,
    epsilon_family,
    evaluate_grid,
    radial_graph_bump,
    radial_graph_random,
)
from weylcheck.symfun import (
    MultiIndex,
    gamma_inequality_sides,
    gamma_norm_inequality_sides,
    identity_sum_sides,
    sigma,
    sigma_all,
    sums_inequality_sides,
)

ELLIPSOIDS = ((1.0, 1.2, 0.9, 1.05), (1.1, 0.95, 1.0, 1.2), (0.9, 1.05, 1.25, 1.0))


def _finish(label, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
        print(f"PASS  {label}  {dt:.1f}s (budget {budget}s)")
    else:
        print(f"PASS  {label}  {dt:.1f}s")


def _rational_vec(rng, n, positive=False):
    lo = 1 if positive else -9
    return tuple(
        Fraction(int(rng.integers(lo, 10)), int(rng.integers(1, 10)))
        for _ in range(n)
    )


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.1 * np.eye(n)


def _ball_samples(rng, count, n, radius=1.1):
    v = rng.normal(size=(count, n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return v * r


def test_01_symmetric_function_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # two exact identity routes, rational arithmetic up to n = 8
    for n in range(1, 9):
        for _ in range(5):
            x = _rational_vec(rng, n)
            allk = sigma_all(x)
            for k in range(n + 1):
                assert sigma(k, x) == allk[k]
                lhs, rhs = identity_sum_sides(k, x)
                assert lhs == rhs

    # power-sum inequality, 1e4 positive samples
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        x = tuple(np.exp(rng.normal(size=n)))
        lhs, rhs = sums_inequality_sides(x)
        assert lhs <= rhs * (1 + 1e-12)

    # trace-cubic inequality on random SPD, 1e4 samples
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        lhs, rhs = chi_inequality_sides(_random_spd(rng, n))
        assert lhs <= rhs * (1 + 1e-12)

    # multi-index inequalities, 1e4 samples each
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        g = tuple(int(v) for v in rng.integers(0, 7, size=n))
        k = int(rng.integers(0, 10))
        lhs, rhs = gamma_inequality_sides(k, g)
        assert lhs <= rhs
    for _ in range(10_000):
        n = int(rng.integers(3, 9))
        g = tuple(int(v) for v in rng.multinomial(n, np.full(n, 1.0 / n)))
        k = int(rng.integers(3, n + 1))
        lhs, rhs = gamma_norm_inequality_sides(k, g)
        assert lhs <= rhs

    # n = 2 equality cases, exact
    for _ in range(50):
        x = _rational_vec(rng, 2, positive=True)
        lhs, rhs = sums_inequality_sides(x)
        assert lhs == rhs
        a, b, c = (Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
                   for _ in range(3))
        mat = ((a + c, b), (b, c))  # SPD iff (a+c)c > b^2
        if (a + c) * c > b * b:
            lhs, rhs = chi_inequality_sides(mat)
            assert lhs == rhs
    _finish("01 symmetric-function suite", t0, budget=10.0)


def test_02_matrix_map_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for n in (3, 4, 5):
        for _ in range(1000):
            a = SymMatrix(_random_spd(rng, n))
            b = phi(a)
            back = phi_inverse(b)
            assert np.linalg.norm(back.mat - a.mat, "fro") <= 1e-9 * a.norm()
            lhs, rhs = norm_bound_sides(a)
            assert lhs <= rhs * (1 + 1e-12)
            if n == 3:
                mu = b.eigenvalues
                closed = _gaps_closed_form_3(mu)
                newton = _invert_eigenvalues_newton(mu)
                assert np.abs(closed - newton).max() <= 1e-10

    # the image-cone margin grows when a multiple of I is added
    for n in (3, 4, 5):
        for _ in range(100):
            b = phi(SymMatrix(_random_spd(rng, n))).mat
            gaps = [cone_report(b + t * np.eye(n)).eps_gap
                    for t in (0.0, 0.25, 0.5, 1.0, 2.0)]
            assert all(g1 < g2 for g1, g2 in zip(gaps, gaps[1:]))
    _finish("02 matrix-map suite", t0, budget=30.0)


def test_03_determinant_expansion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for n in range(3, 7):
        coeffs = det_gn_coefficients(n)
        assert all(c >= 0 for c in coeffs.values())
        for _ in range(100):
            x = _rational_vec(rng, n)
            total = Fraction(0)
            for gamma, c in coeffs.items():
                term = c
                for xi, e in zip(x, gamma):
                    term *= xi**e
                total += term
            assert total == det_gn_direct(x)
    assert det_gn_coefficients(3)[MultiIndex((1, 1, 1))] == 4
    _finish("03 determinant expansion", t0, budget=30.0)


def test_04_hypersurface_identity_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    families = [RoundSphere(1.0, dim=2), RoundSphere(1.0, dim=3)]
    families += [Ellipsoid(a) for a in ELLIPSOIDS]
    for fam in families:
        for chart in (0, 1):
            pts = _ball_samples(rng, 100, fam.dim)
            sd = evaluate_grid(fam, chart, pts)
            assert sd.gauss_residual().max() <= 1e-7
            assert sd.codazzi_residual().max() <= 1e-7
            r1, r2, r3 = sd.support_identities()
            assert np.isfinite(r3).all()  # curvature stays positive here
            assert max(r1.max(), r2.max(), r3.max()) <= 1e-7
    _finish("04 hypersurface identity residuals", t0, budget=60.0)


def test_05_bound_regression_values():
    t0 = time.perf_counter()
    rel = 1e-6
    s3 = evaluate_family_grid(RoundSphere(1.0), 9)

    w = weyl_report(s3)
    assert w.passed
    assert w.lhs == pytest.approx(9.0, rel=rel)
    assert w.rhs == pytest.approx(12.0, rel=rel)

    s2 = evaluate_family_grid(RoundSphere(1.0, dim=2), 9)
    w2 = weyl_report(s2)
    assert w2.passed
    assert w2.lhs == pytest.approx(4.0, abs=1e-9)
    assert w2.rhs == pytest.approx(4.0, abs=1e-9)
    assert abs(w2.lhs - w2.rhs) <= 1e-9  # the round two-sphere is sharp

    c2 = c2bound_report(s3)
    assert c2.passed
    assert c2.lhs == pytest.approx(math.sqrt(3.0), rel=rel)
    assert c2.rhs == pytest.approx(3.674234614174767, rel=rel)

    dw = diam_weyl_report(s3, d=math.pi)
    assert dw.passed
    assert dw.lhs == pytest.approx(9.0, rel=rel)
    assert dw.rhs == pytest.approx(1172.2185229601705, rel=rel)
    _finish("05 bound regression values", t0)


def test_06_curvature_to_chi_roundtrip():
    t0 = time.perf_counter()
    pts = ball_grid(17, 1.2, 3)
    for axes in ELLIPSOIDS:
        fam = Ellipsoid(axes)
        for chart in (0, 1):
            field = IntrinsicField.from_family(fam, chart, pts)
            chi = solve_contracted_gauss(field)
            truth = evaluate_grid(fam, chart, pts).chi
            scale = np.abs(truth).max(axis=(-2, -1))
            err = np.abs(chi.values - truth).max(axis=(-2, -1))
            assert np.all(err <= 1e-6 * scale)
            assert chi.gaps.min() > 0  # cone membership at every point
            assert chi.principal_min().min() > 0
            # spot-check the margin against the standalone cone test
            g = field.g()
            linv = np.linalg.inv(np.linalg.cholesky(g))
            for k in (0, len(pts) // 2, len(pts) - 1):
                b = linv[k] @ field.ricci[k] @ linv[k].T
                rep = cone_report((b + b.T) / 2.0)
                assert rep.member
                assert rep.eps_gap == pytest.approx(chi.gaps[k], rel=1e-9)
    _finish("06 curvature-to-chi roundtrip", t0, budget=120.0)


def test_07_embeddability_discrimination():
    t0 = time.perf_counter()
    pts = ball_grid(7, 1.2, 3)
    for fam in (Ellipsoid((1.1, 0.95, 1.0, 1.2)), radial_graph_bump(0.12)):
        field = IntrinsicField.from_family(fam, 0, pts)
        chi = solve_contracted_gauss(field)
        verdict = embeddability_check(field, chi)
        assert verdict.embeddable
        assert verdict.sup_residual <= verdict.threshold

    base = IntrinsicField.from_family(Ellipsoid(ELLIPSOIDS[0]), 0, pts)
    field = base.perturbed(diag_ramp_perturbation(0.05))
    chi = solve_contracted_gauss(field)
    verdict = embeddability_check(field, chi)
    assert not verdict.embeddable
    assert verdict.sup_residual >= 10.0 * verdict.threshold
    _finish("07 embeddability discrimination", t0)


def test_08_frame_reconstruction():
    t0 = time.perf_counter()
    fam = Ellipsoid(ELLIPSOIDS[0])
    pts = ball_grid(7, 1.2, 3)
    truth = evaluate_grid(fam, 0, pts).X

    fine = reconstruct(fam, 0, pts, h=1e-2)
    _, _, rms_fine = align_rigid(fine.X, truth)
    assert rms_fine <= 1e-4
    assert fine.holonomy_sup <= 1e-6

    coarse = reconstruct(fam, 0, pts, h=2e-2, with_holonomy=False)
    _, _, rms_coarse = align_rigid(coarse.X, truth)
    assert rms_coarse / rms_fine >= 12.0  # near the fourth-order factor 16

    small = ball_grid(5, 1.2, 3)
    rec_p = reconstruct(fam, 0, small, diag_ramp_perturbation(0.05), h=2e-2)
    assert rec_p.holonomy_sup >= 1e-3
    _finish("08 frame reconstruction", t0, budget=120.0)


def test_09_graph_family_convexity():
    t0 = time.perf_counter()
    pts = ball_grid(7, 1.2, 3)
    eps_list = (0.1, 0.05, 0.025)
    for base in (radial_graph_bump(0.15), radial_graph_random(seed=77)):
        ref = evaluate_grid(base, 0, pts)
        devs = []
        for eps in eps_list:
            sd = evaluate_grid(epsilon_family(base, eps), 0, pts)
            assert sd.principal_curvatures.min() > 0.0
            devs.append(float(np.abs(sd.g - ref.g).max()))
        assert devs[0] > devs[1] > devs[2] > 0.0
        slopes = [d / e for d, e in zip(devs, eps_list)]
        assert max(slopes) <= 2.0 * min(slopes)
    _finish("09 graph family convexity", t0)


def test_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "resolution": 7,
        "family": {"variant": "radial_graph", "kind": "random",
                   "amplitude": 0.05},
    }))
    texts = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(["verify", "--config", str(cfg), "--seed", "7",
                     "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        report.pop("timing")
        texts.append(canonical_json(report))
    assert texts[0] == texts[1]
    capsys.readouterr()
    _finish("10 cli determinism", t0)
