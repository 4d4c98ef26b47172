import json
import warnings

import numpy as np
import pytest

from weylcheck import bounds, cli, embedsolve, surfaces
from weylcheck.cli import (
    ConfigError,
    RunConfig,
    canonical_json,
    fmt17,
    main,
)
from weylcheck.errors import DomainError
from weylcheck.jets import Jet
from weylcheck.surfaces import Ellipsoid, RadialGraph, RoundSphere


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
    ])
    def test_rejects(self, data, frag):
        with pytest.raises(ConfigError, match=frag):
            RunConfig.from_dict(data)

    def test_family_variants(self):
        sphere = RunConfig.from_dict(
            {"family": {"variant": "sphere", "radius": 2.0}}).build_family()
        assert isinstance(sphere, RoundSphere) and sphere.radius == 2.0
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
                                   5.0, 1234567890.123456])
    def test_floats_roundtrip_bit_exact(self, x):
        assert json.loads(fmt17(x)) == x

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
        assert main(["verify", "--config", str(path), "--quiet"]) == 2
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
        monkeypatch.setattr(embedsolve, "SOLVE_RESIDUAL_LIMIT", 0.0)
        out = tmp_path / "solve.json"
        assert main(["solve", "--resolution", "5", "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == "numerical-domain error: solver residual above the per-point limit\n"
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


VALUE_JOBS = [
    ("family", {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1}, {}),
    ("solve", {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]}, {}),
    ("reconstruct", {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]},
     {"h": 0.1}),
]


@pytest.mark.parametrize("command,family,extra", VALUE_JOBS)
def test_value_commands_skip_evaluate_grid(tmp_path, monkeypatch, capsys, command,
                                           family, extra):
    """family, solve and reconstruct read values only, never the order-5 grid."""
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


class TestGridDump:
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
        assert header == ["chart", "x1", "x2", "x3", "H", "R", "lap_R",
                          "chi_norm", "gauss_residual", "codazzi_residual"]
        body = [ln.split("\t") for ln in lines[1:]]
        assert all(len(row) == len(header) for row in body)
        charts = {row[0] for row in body}
        assert charts == {"0", "1"}
        h_vals = {float(row[4]) for row in body}
        assert all(abs(v - 3.0) < 1e-9 for v in h_vals)
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
