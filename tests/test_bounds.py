import math
import tracemalloc

import numpy as np
import pytest

from oracles import reachable, support_floor
from weylcheck import bounds, surfaces
from weylcheck.bounds import (
    EvaluatedGrid,
    c2bound_report,
    diam_weyl_report,
    evaluate_family_grid,
    graph_diameter,
    second_deriv_report,
    weyl_report,
)
from weylcheck.errors import DomainError
from weylcheck.intrinsic import CurvatureState, MetricJet
from weylcheck.jets import Jet
from weylcheck.surfaces import (
    Ellipsoid,
    RoundSphere,
    SurfaceData,
    ball_grid,
    radial_graph_random,
)

# rhs of the diameter-weighted estimate on the unit 3-sphere with d = pi:
# exp(1/2) * pi^2 * (2*36 + 4*6/(64 pi^2)) = exp(1/2) * (72 pi^2 + 3/8)
S3_DIAM_RHS = math.exp(0.5) * (72.0 * math.pi**2 + 3.0 / 8.0)


@pytest.fixture(scope="module")
def s3_grid():
    return evaluate_family_grid(RoundSphere(1.0), resolution=9)


@pytest.fixture(scope="module")
def s2_grid():
    return evaluate_family_grid(RoundSphere(1.0, dim=2), resolution=9)


@pytest.fixture(scope="module")
def ell_grid():
    return evaluate_family_grid(Ellipsoid((1.0, 1.15, 0.9, 1.05)), resolution=9)


class TestWeyl:
    def test_unit_three_sphere(self, s3_grid):
        rep = weyl_report(s3_grid)
        assert rep.lhs == pytest.approx(9.0, rel=1e-9)
        assert rep.rhs == pytest.approx(12.0, rel=1e-9)
        assert rep.slack == pytest.approx(3.0, rel=1e-8)
        assert rep.passed

    def test_two_sphere_equality(self, s2_grid):
        # H^2 = 4 and 2R - (lap R)/R = 4: both sides agree to roundoff
        rep = weyl_report(s2_grid)
        assert rep.lhs == pytest.approx(4.0, abs=1e-9)
        assert rep.rhs == pytest.approx(4.0, abs=1e-9)
        assert abs(rep.slack) <= 1e-9
        assert rep.passed

    def test_ellipsoid_passes(self, ell_grid):
        rep = weyl_report(ell_grid)
        assert rep.passed
        assert rep.slack > 0

    def test_default_tolerance_policy(self, s3_grid):
        rep = weyl_report(s3_grid)
        assert rep.tol == pytest.approx(1e-7 * abs(rep.rhs), rel=1e-12)

    def test_small_rhs_one_percent_violation_fails(self):
        # the ellipsoid x 1e4 has a weyl rhs of 2.4e-7, so an absolute floor
        # of 1e-7 on the tolerance would pass an lhs 1% above the rhs
        eg = evaluate_family_grid(Ellipsoid([1e4 * a for a in (1.0, 1.2, 0.9, 1.05)]),
                                  resolution=9)
        rep = weyl_report(eg)
        assert rep.passed and rep.rhs < 1e-6
        eg.H = eg.H * math.sqrt(1.01 * rep.rhs / rep.lhs)
        rep = weyl_report(eg)
        assert rep.lhs == pytest.approx(1.01 * rep.rhs, rel=1e-12)
        assert not rep.passed

    def test_argmax_locations_recorded(self, ell_grid):
        rep = weyl_report(ell_grid)
        for loc in (rep.lhs_at, rep.rhs_at):
            assert loc["chart"] in (0, 1)
            assert len(loc["coords"]) == 3
        # each side is its field's sup, recorded where it is attained; H^2
        # varies over the ellipsoid, so its least value would differ
        lhs = ell_grid.H**2
        rhs = 2.0 * ell_grid.scalar - ell_grid.laplacian / ell_grid.scalar
        assert lhs.min() < lhs.max()
        assert rep.lhs == lhs.max() and rep.rhs == rhs.max()
        assert rep.lhs_at == ell_grid.location(int(np.argmax(lhs)))
        assert rep.rhs_at == ell_grid.location(int(np.argmax(rhs)))

    def test_nonpositive_scalar_names_point(self, s3_grid):
        eg = evaluate_family_grid(RoundSphere(1.0), resolution=5)
        eg.scalar = eg.scalar.copy()
        eg.scalar[7] = -0.25
        with pytest.raises(DomainError, match="chart"):
            weyl_report(eg)

    def test_report_dict_roundtrip(self, s3_grid):
        d = weyl_report(s3_grid).to_dict()
        assert d["name"] == "weyl"
        assert d["slack"] == d["rhs"] - d["lhs"]
        assert d["grid"]["resolution"] == 9


class TestDiamWeyl:
    def test_unit_sphere_frozen_value(self, s3_grid):
        rep = diam_weyl_report(s3_grid, d=math.pi)
        assert rep.constants["C"] == pytest.approx(math.exp(0.5), rel=1e-12)
        assert rep.lhs == pytest.approx(9.0, rel=1e-9)
        assert rep.rhs == pytest.approx(S3_DIAM_RHS, rel=1e-6)
        assert rep.rhs == pytest.approx(1172.2185229601705, rel=1e-6)
        assert rep.passed

    def test_graph_diameter_close_to_exact(self):
        eg = evaluate_family_grid(RoundSphere(1.0), resolution=17)
        with_pi = diam_weyl_report(eg, d=math.pi)
        with_graph = diam_weyl_report(eg, d=graph_diameter(RoundSphere(1.0), 17),
                                      d_source="graph")
        assert with_graph.constants["d_source"] == "graph"
        assert with_graph.rhs == pytest.approx(with_pi.rhs, rel=0.10)
        assert with_graph.passed

    def test_ellipsoid_passes(self, ell_grid):
        rep = diam_weyl_report(ell_grid, d=math.pi * 1.2)
        assert rep.passed

    def test_dimension_constant(self, s2_grid):
        rep = diam_weyl_report(s2_grid, d=math.pi)
        assert rep.constants["C"] == pytest.approx(4.0 * math.exp(0.25), rel=1e-12)


class TestC2Bound:
    def test_unit_three_sphere(self, s3_grid):
        rep = c2bound_report(s3_grid)
        assert rep.lhs == pytest.approx(math.sqrt(3.0), rel=1e-9)
        c3 = 3.0 / (2.0 * math.sqrt(2.0))
        assert rep.constants["C_n"] == pytest.approx(c3, rel=1e-12)
        assert rep.constants["kappa"] == pytest.approx(1.0, rel=1e-8)
        assert rep.constants["Lambda"] == pytest.approx(math.sqrt(12.0), rel=1e-9)
        assert rep.rhs == pytest.approx(c3 * math.sqrt(12.0), rel=1e-6)
        assert rep.rhs == pytest.approx(3.674234614174767, rel=1e-6)
        assert rep.passed

    def test_ellipsoid_passes(self, ell_grid):
        rep = c2bound_report(ell_grid)
        assert rep.constants["kappa"] > 0
        assert rep.passed

    def test_rhs_recorded_where_lambda_is(self, ell_grid):
        # the rhs is one number, attained where |Ric| is largest; |Ric|
        # varies over the ellipsoid, so its least value is elsewhere
        rep = c2bound_report(ell_grid)
        ric = ell_grid.ricci_norm
        assert ric.min() < ric.max() == rep.constants["Lambda"]
        assert rep.rhs_at == ell_grid.location(int(np.argmax(ric)))
        assert rep.rhs_at != ell_grid.location(int(np.argmin(ric)))

    def test_dimension_two_rejected(self, s2_grid):
        with pytest.raises(ValueError, match="dimension"):
            c2bound_report(s2_grid)


class TestSecondDeriv:
    def test_unit_three_sphere(self, s3_grid):
        rep = second_deriv_report(s3_grid)
        assert rep.lhs == pytest.approx(3.0, rel=1e-9)
        assert rep.rhs == pytest.approx(9.0, rel=1e-9)
        assert rep.constants["weyl_rhs"] == pytest.approx(12.0, rel=1e-9)
        assert rep.passed

    def test_ellipsoid_passes(self, ell_grid):
        rep = second_deriv_report(ell_grid)
        assert rep.passed
        assert rep.lhs <= rep.constants["weyl_rhs"] + rep.tol

    @pytest.mark.parametrize("chi_norm,passed", [(1.4, True), (2.9, False)])
    def test_weyl_comparison_decides(self, chi_norm, passed):
        # hand-made columns: |chi|^2 <= H^2 = 9 holds for both, and the weyl
        # rhs 2R - (Delta R)/R = 2 is above 1.96 and below 8.41
        k = 3
        eg = EvaluatedGrid(
            family=None, resolution=5, extent=1.2,
            chart_ids=np.zeros(k, dtype=int), coords=np.zeros((k, 3)),
            X=np.zeros((k, 4)), N=np.zeros((k, 4)),
            H=np.full(k, 3.0), chi_norm=np.full(k, chi_norm), scalar=np.ones(k),
            laplacian=np.zeros(k), ricci_norm=np.ones(k), sectional_min=np.ones(k))
        rep = second_deriv_report(eg)
        assert (rep.lhs, rep.rhs) == (chi_norm**2, 9.0)
        assert rep.constants["weyl_rhs"] == 2.0
        assert rep.passed is passed


class TestScaling:
    def test_pass_ratio_invariance(self):
        # both sides of each estimate scale as c^-2 under radius scaling
        small = evaluate_family_grid(RoundSphere(1.0), resolution=7)
        big = evaluate_family_grid(RoundSphere(2.0), resolution=7)
        r1 = weyl_report(small)
        r2 = weyl_report(big)
        assert r2.lhs / r1.lhs == pytest.approx(0.25, rel=1e-10)
        assert r2.rhs / r1.rhs == pytest.approx(0.25, rel=1e-10)
        assert (r1.lhs / r1.rhs) == pytest.approx(r2.lhs / r2.rhs, rel=1e-10)

        d1 = diam_weyl_report(small, d=math.pi)
        d2 = diam_weyl_report(big, d=2.0 * math.pi)
        assert (d1.lhs / d1.rhs) == pytest.approx(d2.lhs / d2.rhs, rel=1e-10)

        c1 = c2bound_report(small)
        c2 = c2bound_report(big)
        assert (c1.lhs / c1.rhs) == pytest.approx(c2.lhs / c2.rhs, rel=1e-10)


class TestSupportFloor:
    def test_sphere_centered(self, s3_grid):
        assert support_floor(s3_grid, x0=np.zeros(4)) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_offset_base_point(self):
        # resolution 13 puts a lattice node exactly at xi = (1,0,0), where
        # the normal's first component peaks at 1, so the min is exactly 0.7
        eg = evaluate_family_grid(RoundSphere(1.0), resolution=13)
        got = support_floor(eg, x0=(0.3, 0.0, 0.0, 0.0))
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_offset_floor_off_lattice(self, s3_grid):
        got = support_floor(s3_grid, x0=(0.3, 0.0, 0.0, 0.0))
        assert 0.7 <= got <= 0.705

    def test_default_centroid(self, ell_grid):
        assert support_floor(ell_grid) > 0

    def test_outside_base_point_raises(self, s3_grid):
        with pytest.raises(DomainError, match="outside"):
            support_floor(s3_grid, x0=(2.0, 0.0, 0.0, 0.0))


class TestDeterminism:
    def test_reports_repeat_exactly(self):
        a = evaluate_family_grid(Ellipsoid((1.0, 1.15, 0.9, 1.05)), resolution=7)
        b = evaluate_family_grid(Ellipsoid((1.0, 1.15, 0.9, 1.05)), resolution=7)
        assert weyl_report(a).to_dict() == weyl_report(b).to_dict()
        assert c2bound_report(a).to_dict() == c2bound_report(b).to_dict()

    def test_table_columns(self):
        eg = evaluate_family_grid(RoundSphere(1.0), 9, residuals={"gauss-residual", "codazzi-residual"})
        cols = eg.table()
        assert list(cols) == ["chart", "coords", "H", "R", "lap_R", "chi_norm",
                              "gauss_residual", "codazzi_residual"]
        assert cols["H"].shape == (eg.num_points,)
        assert cols["gauss_residual"].max() < 1e-7

    def test_no_residual_work_unless_asked(self, monkeypatch):
        for name in bounds.RESIDUALS:
            monkeypatch.setitem(bounds.RESIDUALS, name, None)
        eg = evaluate_family_grid(RoundSphere(1.0), resolution=5)
        assert eg.residuals == {}


# one family of each config variant in three dimensions, and the 2-sphere
BLOCK_FAMILIES = {
    "sphere": lambda: RoundSphere(1.0),
    "ellipsoid": lambda: Ellipsoid((1.0, 1.15, 0.9, 1.05)),
    "random-23": lambda: radial_graph_random(23),
    "sphere-2d": lambda: RoundSphere(1.0, dim=2),
}


GRID_COLUMNS = ("chart_ids", "coords", "X", "N", "H", "chi_norm", "scalar",
                "laplacian", "ricci_norm", "sectional_min")


def _grid_columns(eg):
    """Every per-point column of the grid, residuals included."""
    cols = {name: getattr(eg, name) for name in GRID_COLUMNS}
    cols.update(eg.residuals)
    return cols


def _spied_grid(monkeypatch, family, resolution):
    """The grid with every residual, and the (chart, points) of each
    evaluate_grid call that made it."""
    calls = []

    def spy(family, chart, pts):
        calls.append((chart, pts.shape[0]))
        return surfaces.evaluate_grid(family, chart, pts)

    monkeypatch.setattr(bounds, "evaluate_grid", spy)
    return evaluate_family_grid(family, resolution, residuals=bounds.RESIDUALS), calls


@pytest.fixture(scope="module")
def one_block_columns():
    """Columns of each BLOCK_FAMILIES grid at resolution 9, each chart in
    one block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surfaces, "BLOCK_POINTS", 10**9)
        grids = {name: _spied_grid(mp, make(), 9) for name, make in BLOCK_FAMILIES.items()}
    assert all(len(calls) == 2 for _, calls in grids.values())
    return {name: _grid_columns(eg) for name, (eg, _) in grids.items()}


class TestBlocks:
    @pytest.mark.parametrize("size", [1, 37])
    @pytest.mark.parametrize("name", list(BLOCK_FAMILIES))
    def test_blocks_give_one_block_bits(self, one_block_columns, monkeypatch, name, size):
        family = BLOCK_FAMILIES[name]()
        monkeypatch.setattr(surfaces, "BLOCK_POINTS", size)
        eg, calls = _spied_grid(monkeypatch, family, 9)
        blocks = math.ceil(len(ball_grid(9, n=family.dim)) / size)
        assert [chart for chart, _ in calls] == [0] * blocks + [1] * blocks
        assert max(points for _, points in calls) <= size
        want = one_block_columns[name]
        got = _grid_columns(eg)
        assert list(got) == list(want)
        for key, column in want.items():
            assert got[key].dtype == column.dtype, key
            assert got[key].shape == column.shape, key
            assert got[key].tobytes() == column.tobytes(), key

    def test_grid_transient_memory(self):
        # the whole grid with every residual, at resolution 17 (4,218 points):
        # it peaks at 3.7 MiB, one 512-point block's jets at 3.0 MiB, and the
        # columns take 192 B a point.  Order-5 ambient jets and an order-4
        # curvature() for Delta R peaked at 6.4 MiB (5.7 MiB a block), one
        # pass per chart at 23.7 MiB, and keeping each block's jets retained
        # 17.1 MiB
        family = Ellipsoid((1.0, 1.2, 0.9, 1.05))
        evaluate_family_grid(family, resolution=5)   # the jet basis tables
        tracemalloc.start()
        try:
            eg = evaluate_family_grid(family, resolution=17, residuals=bounds.RESIDUALS)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eg.num_points == 4218
        assert peak <= 5.5 * 2**20
        assert retained <= 1 * 2**20

    @pytest.mark.parametrize("name", ["ellipsoid", "random-23"])
    def test_no_jet_outlives_its_block(self, name):
        eg = evaluate_family_grid(BLOCK_FAMILIES[name](), 9, residuals=bounds.RESIDUALS)
        for obj in reachable(eg):
            assert not isinstance(obj, (Jet, MetricJet, SurfaceData, CurvatureState)), obj
