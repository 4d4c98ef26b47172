import json
import types
import warnings

import numpy as np
import pytest

from weylcheck import bounds, cli, embedsolve, surfaces
from weylcheck.cli import (
    ConfigError,
    RunConfig,
    canonical_json,
    main,
)
from weylcheck.errors import PASS_RULES, DomainError
from weylcheck.jets import Jet
from weylcheck.surfaces import Ellipsoid, RadialGraph


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig.from_dict({})
        assert cfg.resolution == 9
        assert cfg.checks == cli.VALID_CHECKS
        assert cfg.to_dict()["family"] == {"variant": "sphere"}

    @pytest.mark.parametrize("data,frag", [
        ({"resolution": 4}, "odd"),
        ({"resolution": 3}, "odd"),
        ({"extent": 2.5}, "extent"),
        ({"chart": 2}, "chart"),
        ({"checks": ["weyl", "nope"]}, "unknown check"),
        ({"tolerances": {"weyl": 0.0}}, "positive"),
        ({"tolerances": {"bogus": 1e-7}}, "unknown"),
        ({"seed": -1}, "seed"),
        ({"diameter": -2.0}, "diameter"),
        ({"h": 0.0}, "step size"),
        ({"path_plan": [0, 1, 1]}, "permutation"),
        ({"eps_list": []}, "eps_list"),
        ({"surprise": 1}, "unknown config keys"),
        ({"tolerances": 5}, "tolerances must be an object"),
        ({"extent": "a"}, "extent"),
        ({"h": "a"}, "step size"),
        ({"eps_list": 0.1}, "eps_list must be a list"),
        ({"path_plan": 5}, "path_plan must be a list"),
        ({"checks": "weyl"}, "checks must be a list"),
        ({"h": 0.7, "resolution": 5}, "exceeds the lattice spacing 0.6 "),
        ({"h": 1e300, "resolution": 5}, "exceeds the lattice spacing 0.6 "),
        ({"h": 1e-9, "resolution": 5}, "more than 250 RK4 substeps"),
        ({"h": 5e-324}, "RK4 substeps"),
        ({"grid_dump": "/"}, "it is a directory"),
        ({"out": "report\0.json"}, "NUL byte"),
        ({"out": ""}, "the path is empty"),
        ({"grid_dump": ""}, "the path is empty"),
        ({"tolerances": {"weyl": 10**400}}, "positive finite"),
        ({"tolerances": {"gauss-residual": float("inf")}}, "positive finite"),
        ({"theta": 10**400}, "theta must be a positive finite"),
        ({"theta": float("inf")}, "theta must be a positive finite"),
    ])
    def test_rejects(self, data, frag):
        with pytest.raises(ConfigError, match=frag):
            RunConfig.from_dict(data)

    def test_family_variants(self):
        sphere = RunConfig.from_dict(
            {"family": {"variant": "sphere", "radius": 2.0}}).build_family()
        assert isinstance(sphere, Ellipsoid) and sphere.semi_axes == (2.0,) * 4
        ell = RunConfig.from_dict(
            {"family": {"variant": "ellipsoid",
                        "semi_axes": [1.0, 1.2, 0.9, 1.05]}}).build_family()
        assert isinstance(ell, Ellipsoid)
        for kind in ("constant", "bump", "random"):
            fam = RunConfig.from_dict(
                {"family": {"variant": "radial_graph",
                            "kind": kind}}).build_family()
            assert isinstance(fam, RadialGraph)

    @pytest.mark.parametrize("family,frag", [
        ({"variant": "torus"}, "variant"),
        ({"variant": "ellipsoid"}, "missing"),
        ({"variant": "ellipsoid", "semi_axes": [1.0, -1.0, 1.0, 1.0]}, "bad family"),
        ({"variant": "radial_graph", "kind": "wavelet"}, "kind"),
        ({"variant": "sphere", "color": "red"}, "unused"),
        ("sphere", "family must be an object"),
        ({"variant": "sphere", "dim": 4}, "dimension must be 2 or 3"),
        ({"variant": "ellipsoid", "semi_axes": [1, 1]}, "dimension must be 2 or 3"),
        # null would seed from OS entropy, true run as 1, a list as entropy words
        *(({"variant": "radial_graph", "kind": "random", "seed": seed}, "family seed")
          for seed in (None, True, [1, 2], -1, 1.5, "3")),
        # each would run as 1.0 or 0.0
        ({"variant": "sphere", "radius": True}, "family radius"),
        ({"variant": "ellipsoid", "semi_axes": [True, 1.2, 0.9, 1.05]}, "family semi_axes"),
        ({"variant": "radial_graph", "kind": "constant", "value": True}, "family value"),
        *(({"variant": "radial_graph", "kind": kind, "amplitude": False}, "family amplitude")
          for kind in ("bump", "random")),
        # rejected before the sphere's axes are formed: 10**12 would ask for
        # a tuple of 10**12 + 1 of them
        *(({"variant": "sphere", "dim": dim}, "dimension must be 2 or 3")
          for dim in (10**12, True, 3.0, "3")),
        # string numbers: the ellipsoids' would run as the numbers they spell,
        # the sphere's would stop with a TypeError
        ({"variant": "ellipsoid", "semi_axes": ["1", "1.2", "0.9", "1.05"]},
         "family semi_axes must be numbers"),
        ({"variant": "radial_graph", "kind": "ellipsoid",
          "semi_axes": ["1", "1.2", "0.9", "1.05"]}, "family semi_axes must be numbers"),
        ({"variant": "sphere", "radius": "1"}, "family radius must be numbers"),
        ({"variant": "radial_graph", "kind": "constant", "value": "1"},
         "family value must be numbers"),
        ({"variant": "radial_graph", "kind": "bump", "amplitude": "0.1"},
         "family amplitude must be numbers"),
    ])
    def test_family_rejects(self, family, frag):
        with pytest.raises(ConfigError, match=frag):
            RunConfig.from_dict({"family": family}).build_family()


class TestCanonicalJson:
    def test_sorted_keys_and_format(self):
        s = canonical_json({"b": 1.5, "a": True, "c": None, "d": [1, "x"]})
        assert s.index('"a"') < s.index('"b"') < s.index('"c"')
        assert "true" in s and "null" in s

    @pytest.mark.parametrize("x", [1.0 / 3.0, np.pi, 0.1, 1e-300, -2.5e17,
                                   5.0, 1234567890.123456, 0.0, -0.0])
    def test_floats_roundtrip_bit_exact(self, x):
        # an integral float comes back a float, and -0.0 keeps its sign
        for got in (json.loads(canonical_json(x)),
                    json.loads(canonical_json({"x": [x]}))["x"][0]):
            assert type(got) is float
            assert got.hex() == x.hex()   # the bits, sign included

    def test_nonfinite_become_strings(self):
        assert canonical_json(float("nan")) == '"NaN"'
        assert canonical_json(float("inf")) == '"Infinity"'
        assert canonical_json(float("-inf")) == '"-Infinity"'

    def test_idempotent_through_parse(self):
        report = {"x": [1.5, {"deep": 2.0 / 3.0}], "name": "t", "n": 7}
        s = canonical_json(report)
        assert canonical_json(json.loads(s)) == s


NONFINITE_CASES = [
    ("verify", {"variant": "sphere", "radius": 1e200}, 3, "not finite"),
    ("verify", {"variant": "ellipsoid", "semi_axes": [1e170] * 4}, 3, "not finite"),
    ("solve", {"variant": "ellipsoid", "semi_axes": [1e170] * 4}, 3, "not finite"),
    ("verify", {"variant": "radial_graph", "kind": "constant", "value": 1e-320},
     3, "not finite"),
    ("verify", {"variant": "sphere", "radius": float("nan")}, 2, "finite"),
]


@pytest.fixture()
def sphere_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"resolution": 7}))
    return str(path)


class TestMain:
    def test_verify_all_checks_pass(self, sphere_cfg, capsys):
        code = main(["verify", "--config", sphere_cfg])
        out = capsys.readouterr().out
        assert code == 0
        for name in cli.VALID_CHECKS:
            assert name in out
        assert "FAIL" not in out

    def test_verify_subset_single_section(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify", "--resolution", "7", "--checks", "weyl",
                     "--out", str(out_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert list(report["sections"]) == ["weyl"]
        assert report["schema"] == 1
        assert report["config"]["resolution"] == 7

    def test_config_error_exit_2(self, capsys):
        assert main(["verify", "--resolution", "4", "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_type_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s4.json"
        path.write_text(json.dumps({"family": {"variant": "sphere", "dim": 4}}))
        assert main(["verify", "--config", str(path), "--quiet"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["verify", "--config", str(path)]) == 2
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_check_failure_exit_1(self, tmp_path, capsys):
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({
            "resolution": 7,
            "checks": ["gauss-residual"],
            "tolerances": {"gauss-residual": 1e-30},
        }))
        assert main(["verify", "--config", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_domain_error_exit_3(self, monkeypatch, capsys):
        def boom(cfg):
            raise DomainError("scalar curvature -1 is not positive at chart 0")
        monkeypatch.setitem(cli.COMMANDS, "verify", boom)
        assert main(["verify", "--quiet"]) == 3
        assert "numerical-domain" in capsys.readouterr().err

    def test_dimension_guards(self, tmp_path, capsys):
        path = tmp_path / "s2.json"
        path.write_text(json.dumps({
            "family": {"variant": "sphere", "dim": 2},
            "resolution": 7,
        }))
        assert main(["solve", "--config", str(path), "--quiet"]) == 2
        capsys.readouterr()
        assert main(["verify", "--config", str(path), "--quiet"]) == 2
        assert "a two-dimensional verify must list its checks" in capsys.readouterr().err
        path.write_text(json.dumps({
            "family": {"variant": "sphere", "dim": 2},
            "resolution": 7,
            "checks": ["weyl"],
        }))
        assert main(["verify", "--config", str(path), "--quiet"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command,family,code,frag", NONFINITE_CASES)
    def test_nonfinite_metric_exit_code(self, tmp_path, capsys, command, family, code,
                                        frag):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"family": family, "resolution": 5}))
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(path), "--quiet"]) == code
        err = capsys.readouterr().err
        assert frag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,family,code,frag", NONFINITE_CASES)
    def test_nonfinite_metric_prints_no_runtime_warning(self, tmp_path, capsys, command,
                                                        family, code, frag):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"family": family, "resolution": 5}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path), "--quiet"]) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        capsys.readouterr()

    @pytest.mark.parametrize("diameter", [1e300, 1e-300])
    def test_extreme_diameter_exit_3(self, tmp_path, capsys, diameter):
        path = tmp_path / "diameter.json"
        path.write_text(json.dumps({"diameter": diameter, "resolution": 5}))
        assert main(["verify", "--config", str(path), "--checks", "diam-weyl",
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numerical-domain error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Singular matrix"),
                                     ZeroDivisionError("jet constant term is zero")])
    def test_numerical_exception_exit_3(self, monkeypatch, capsys, exc):
        def raise_exc(command, cfg):
            raise exc

        monkeypatch.setattr(cli, "run", raise_exc)
        assert main(["verify", "--resolution", "5", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"numerical-domain error: {exc}" in err
        assert "Traceback" not in err

    def test_solver_residual_above_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        # the solver raises before the report is built, so `solve` never
        # reports passed: false; it exits 3 and writes nothing
        monkeypatch.setitem(PASS_RULES, "solve", PASS_RULES["solve"]._replace(tol=0.0))
        out = tmp_path / "solve.json"
        assert main(["solve", "--resolution", "5", "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical-domain error: solver residual above the per-point limit "
                       "at chart 0, coords [0.0, -0.6, -0.6]: residual 2.66454e-15\n")
        assert not out.exists()

    def test_tiny_step_exit_2_before_any_march(self, tmp_path, monkeypatch, capsys):
        marched = []
        monkeypatch.setattr(embedsolve, "_integrate_batch",
                            lambda *args: marched.append(args))
        path = tmp_path / "tiny_h.json"
        path.write_text(json.dumps({"h": 1e-9, "resolution": 5}))
        assert main(["reconstruct", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: step size h 1e-09 needs more than" in err
        assert marched == []

    @pytest.mark.parametrize("resolution", [cli.MAX_RESOLUTION + 2, 10**9 + 1])
    def test_resolution_cap_exit_2_before_any_computation(self, monkeypatch, capsys,
                                                          resolution):
        ran = []
        monkeypatch.setattr(cli, "run", lambda *args: ran.append(args))
        assert main(["verify", "--resolution", str(resolution), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: resolution {resolution} exceeds the cap " \
               f"{cli.MAX_RESOLUTION}" in err
        assert ran == []
        assert RunConfig.from_dict({"resolution": cli.MAX_RESOLUTION}).resolution \
            == cli.MAX_RESOLUTION

    def test_family_needs_radial_graph(self, capsys):
        assert main(["family", "--resolution", "5", "--quiet"]) == 2
        assert "radial_graph" in capsys.readouterr().err


class TestSolveAndFamily:
    def test_solve_report(self, tmp_path, capsys):
        out_path = tmp_path / "solve.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 7,
            "family": {"variant": "ellipsoid",
                       "semi_axes": [1.0, 1.2, 0.9, 1.05]},
        }))
        code = main(["solve", "--config", str(path), "--out", str(out_path),
                     "--quiet"])
        assert code == 0
        report = json.loads(out_path.read_text())
        sec = report["sections"]
        assert sec["solve"]["max_residual"] <= 1e-9
        assert sec["solve"]["min_eps_gap"] > 0
        assert sec["embeddability"]["embeddable"] is True
        assert sec["truth"]["chi_rel_error"] <= 1e-6
        capsys.readouterr()

    def test_codazzi_calibration_on_the_configured_ball(self, tmp_path, capsys):
        # the threshold comes from the solve's own chart ball, not the
        # default extent's (2.2427e-13 there against 2.0040e-13 here)
        out_path = tmp_path / "solve.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 9, "extent": 1.5,
            "family": {"variant": "ellipsoid",
                       "semi_axes": [1.0, 1.2, 0.9, 1.05]},
        }))
        code = main(["solve", "--config", str(path), "--out", str(out_path),
                     "--quiet"])
        assert code == 0
        verdict = json.loads(out_path.read_text())["sections"]["embeddability"]
        assert verdict["threshold"] == embedsolve.codazzi_threshold(9, 1.5)[0]
        assert verdict["threshold"] != embedsolve.codazzi_threshold(9)[0]
        capsys.readouterr()

    def test_family_table(self, tmp_path, capsys):
        out_path = tmp_path / "family.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 5,
            "family": {"variant": "radial_graph", "kind": "bump",
                       "amplitude": 0.15},
            "eps_list": [0.1, 0.05, 0.025],
        }))
        code = main(["family", "--config", str(path), "--out", str(out_path),
                     "--quiet"])
        assert code == 0
        rows = json.loads(out_path.read_text())["sections"]["family"]["rows"]
        assert [r["eps"] for r in rows] == [0.1, 0.05, 0.025]
        devs = [r["metric_deviation"] for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert all(r["min_chi_eigenvalue"] > 0 for r in rows)
        capsys.readouterr()

    def test_family_fails_on_a_deviation_that_is_not_monotone(self, tmp_path, monkeypatch,
                                                               capsys):
        # adding 1 to every entry of the second family's g (eps 0.05) lifts
        # its deviation above the first's and keeps g and chi convex
        values = cli.surface_values
        calls = []

        def lifted(family, chart, pts):
            x, g, chi = values(family, chart, pts)
            calls.append(family)
            return x, g + (1.0 if len(calls) == 2 else 0.0), chi

        monkeypatch.setattr(cli, "surface_values", lifted)
        out_path = tmp_path / "family.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 5,
            "family": {"variant": "radial_graph", "kind": "bump", "amplitude": 0.15},
            "eps_list": [0.1, 0.05],
        }))
        code = main(["family", "--config", str(path), "--out", str(out_path), "--quiet"])
        sec = json.loads(out_path.read_text())["sections"]["family"]
        assert len(calls) == 2
        assert sec["all_convex"] is True
        assert sec["deviation_monotone"] is False
        assert sec["passed"] is False
        assert code == 1
        capsys.readouterr()


VALUE_JOBS = [
    ("family", {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1}, {}),
    ("solve", {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]}, {}),
    ("reconstruct", {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]},
     {"h": 0.1}),
]


@pytest.mark.parametrize("command,family,extra", VALUE_JOBS)
def test_value_commands_skip_evaluate_grid(tmp_path, monkeypatch, capsys, command,
                                           family, extra):
    """family, solve and reconstruct read values only, never the order-4 grid."""
    def boom(*args):
        raise AssertionError("evaluate_grid called")

    for module in (surfaces, bounds, embedsolve, cli):
        if hasattr(module, "evaluate_grid"):
            monkeypatch.setattr(module, "evaluate_grid", boom)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": family, "resolution": 5, **extra}))
    assert main([command, "--config", str(path), "--quiet"]) == 0
    capsys.readouterr()


def test_family_multiplies_no_jet_above_order_2(tmp_path, monkeypatch, capsys):
    orders = set()
    mul = Jet.__mul__

    def recording(self, other):
        if isinstance(other, Jet):
            orders.add(max(self.order, other.order))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", recording)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": VALUE_JOBS[0][1], "resolution": 5}))
    assert main(["family", "--config", str(path), "--quiet"]) == 0
    assert orders and max(orders) <= 2
    capsys.readouterr()


class OffsetSphere:
    """The unit sphere moved to centre (2, 0, 0, 0): the support function
    X.N turns negative, and the eigenvalues of g - Hess rho leave the
    sigma_2 cone, while the curvature is the unit sphere's."""
    dim = 3

    def ambient_jets(self, chart, pts, order=surfaces.AMBIENT_ORDER):
        comps = surfaces.unit_sphere_jets(chart, pts, order)
        return [comps[0] + 2.0] + comps[1:]


class TestSigma2Cone:
    def test_support_identities_raise(self):
        sd = surfaces.evaluate_grid(OffsetSphere(), 0, surfaces.ball_grid(5))
        with pytest.raises(DomainError, match="left the sigma_2 ellipticity cone"):
            sd.support_identities()

    def test_grid_raises_only_with_the_support_column(self):
        residuals = {"gauss-residual", "codazzi-residual"}
        eg = bounds.evaluate_family_grid(OffsetSphere(), 5, residuals=residuals)
        assert set(eg.residuals) == residuals
        with pytest.raises(DomainError, match="left the sigma_2 ellipticity cone"):
            bounds.evaluate_family_grid(OffsetSphere(), 5, residuals={"support-identities"})

    @pytest.mark.parametrize("check,code", [("support-identities", 3), ("weyl", 0)])
    def test_exit_code(self, monkeypatch, capsys, check, code):
        monkeypatch.setattr(RunConfig, "build_family", lambda self: OffsetSphere())
        assert main(["verify", "--resolution", "5", "--checks", check, "--quiet"]) == code
        err = capsys.readouterr().err
        if code == 3:
            assert err == ("numerical-domain error: "
                           "eigenvalues left the sigma_2 ellipticity cone\n")
        else:
            assert err == ""


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 7,
            "family": {"variant": "radial_graph", "kind": "random"},
            "checks": ["weyl", "diam-weyl", "gauss-residual"],
        }))
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["verify", "--config", str(path), "--seed", "42",
                         "--out", str(out), "--quiet"]) == 0
            report = json.loads(out.read_text())
            report.pop("timing")
            texts.append(canonical_json(report))
        assert texts[0] == texts[1]
        capsys.readouterr()

    def test_report_roundtrips_losslessly(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", "--resolution", "7", "--checks", "weyl",
                     "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert canonical_json(json.loads(text)) + "\n" == text
        capsys.readouterr()


class TestHeapPolicy:
    """main() raises glibc's mmap and trim thresholds through ctypes, and
    runs the same where the library or mallopt is missing."""

    @staticmethod
    def libc(calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        return types.SimpleNamespace(mallopt=mallopt)

    def _report(self, tmp_path, name):
        out = tmp_path / name
        assert main(["verify", "--resolution", "5", "--checks", "weyl,gauss-residual",
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        report.pop("timing")
        return report

    def test_sets_both_thresholds(self, tmp_path, monkeypatch, capsys):
        import ctypes
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: self.libc(calls))
        self._report(tmp_path, "a.json")
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("missing", ["library", "mallopt"])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, capsys, missing):
        import ctypes
        expected = self._report(tmp_path, "expected.json")

        def cdll(name):
            if missing == "library":
                raise OSError("no such library")
            return types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert self._report(tmp_path, "got.json") == expected


class TestGridDump:
    HEADER = ["chart", "x1", "x2", "x3", "H", "R", "lap_R", "chi_norm",
              "gauss_residual", "codazzi_residual"]

    def test_columns_and_rows(self, tmp_path, capsys):
        dump = tmp_path / "grid.tsv"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "resolution": 5,
            "checks": ["weyl"],
            "grid_dump": str(dump),
        }))
        assert main(["verify", "--config", str(path), "--quiet"]) == 0
        lines = dump.read_text().strip().split("\n")
        header = lines[0].split("\t")
        assert header == self.HEADER
        body = [ln.split("\t") for ln in lines[1:]]
        assert all(len(row) == len(header) for row in body)
        charts = {row[0] for row in body}
        assert charts == {"0", "1"}
        h_vals = {float(row[4]) for row in body}
        assert all(abs(v - 3.0) < 1e-9 for v in h_vals)
        capsys.readouterr()

    def test_dump_rows_and_blocks(self, tmp_path, monkeypatch, capsys):
        def run(block_points, name):
            # 16-point blocks split each resolution-7 chart into many parts
            monkeypatch.setattr(surfaces, "BLOCK_POINTS", block_points)
            dump, out = tmp_path / f"{name}.tsv", tmp_path / f"{name}.json"
            path = tmp_path / f"{name}-cfg.json"
            path.write_text(json.dumps({
                "resolution": 7,
                "family": {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]},
                "checks": ["weyl", "gauss-residual"],
                "grid_dump": str(dump),
            }))
            assert main(["verify", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
            return dump.read_bytes(), json.loads(out.read_text())

        blocked, report = run(16, "blocked")
        whole, _ = run(10**9, "whole")
        rows = [line.split("\t") for line in blocked.decode().splitlines()]
        assert rows[0] == self.HEADER
        num_points = report["sections"]["weyl"]["grid"]["num_points"]
        assert num_points == 2 * len(surfaces.ball_grid(7))
        assert len(rows) - 1 == num_points
        assert all(len(row) == len(self.HEADER) for row in rows[1:])
        half = num_points // 2
        assert [row[0] for row in rows[1:]] == ["0"] * half + ["1"] * half
        assert blocked == whole
        capsys.readouterr()


class TestOutputPaths:
    """An --out or grid_dump path that cannot be written is a config error."""

    @pytest.mark.parametrize("key", ["out", "grid_dump"])
    def test_missing_directory_exit_2_before_any_computation(self, tmp_path, monkeypatch,
                                                             capsys, key):
        ran = []
        monkeypatch.setattr(cli, "run", lambda *args: ran.append(args))
        dest = tmp_path / "missing" / "report.txt"
        argv = ["verify", "--quiet"]
        if key == "out":
            argv += ["--out", str(dest)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: str(dest)}))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {dest}: no directory {dest.parent}" in err
        assert "Traceback" not in err
        assert ran == []

    def test_empty_out_exit_2_before_any_computation(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "run", lambda *args: ran.append(args))
        assert main(["verify", "--resolution", "5", "--checks", "weyl", "--out", "",
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: cannot write '': the path is empty" in err
        assert "Traceback" not in err
        assert ran == []

    def test_write_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        folder = tmp_path / "removed"
        folder.mkdir()
        dest = folder / "report.json"

        def run(command, cfg):
            folder.rmdir()
            return {"command": command}, 0

        monkeypatch.setattr(cli, "run", run)
        assert main(["verify", "--out", str(dest), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {dest}: No such file or directory" in err
        assert "Traceback" not in err

    def test_grid_dump_write_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        folder = tmp_path / "removed"
        folder.mkdir()
        dest = folder / "grid.tsv"
        grid = cli.evaluate_family_grid

        def grid_then_remove(*args):
            eg = grid(*args)
            folder.rmdir()
            return eg

        monkeypatch.setattr(cli, "evaluate_family_grid", grid_then_remove)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"resolution": 5, "checks": ["weyl"],
                                    "grid_dump": str(dest)}))
        assert main(["verify", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write {dest}: No such file or directory" in err
        assert "Traceback" not in err
