"""Relations between CLI reports of configs that describe one geometry.

Exact relations: each pair of runs must agree in exit code, in every flag,
integer and string, and in every float to 1e-12 relative.  Residual sups sit
at rounding level (~1e-14), where a relative bound means nothing, so floats
also pass within 1e-12 absolute.  Argmax locations are skipped: they tie on
symmetric grids and name the chart, which one relation changes on purpose.
The config and timing sections differ by construction and are not compared.

Verdict relations (a rigid motion that moves the grid over the body): each
pair must agree in exit code and in every section's passed flag, and no
value is compared, since the grid sups move with the grid.
"""

import json
import math

import pytest

from weylcheck.cli import main

ELLIPSOID = [1.0, 1.2, 0.9, 1.05]
LOCATION_KEYS = ("at", "lhs_at", "rhs_at")


def run(tmp_path, command, config):
    """(exit code, report) of one quiet CLI run."""
    path = tmp_path / f"{command}-{len(list(tmp_path.iterdir()))}.json"
    cfg = path.with_suffix(".cfg")
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--out", str(path), "--quiet"])
    return code, json.loads(path.read_text())


def assert_same(a, b, path="sections"):
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            if key not in LOCATION_KEYS:
                assert_same(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (path, a, b)
    else:
        assert type(a) is type(b) and a == b, (path, a, b)


def assert_related(tmp_path, command, first, second):
    code_a, rep_a = run(tmp_path, command, first)
    code_b, rep_b = run(tmp_path, command, second)
    assert code_a == code_b
    assert_same(rep_a["sections"], rep_b["sections"])


@pytest.mark.parametrize("resolution", [5, 7])
@pytest.mark.parametrize("swap", [(0, 1), (0, 2), (1, 2)], ids=["01", "02", "12"])
def test_ellipsoid_chart_plane_permutations_verify(tmp_path, resolution, swap):
    # swapping two semi-axes of the chart plane swaps two chart coordinates,
    # which maps the ball lattice onto itself
    axes = list(ELLIPSOID)
    axes[swap[0]], axes[swap[1]] = axes[swap[1]], axes[swap[0]]
    assert_related(tmp_path, "verify",
                   {"family": {"variant": "ellipsoid", "semi_axes": ELLIPSOID},
                    "resolution": resolution},
                   {"family": {"variant": "ellipsoid", "semi_axes": axes},
                    "resolution": resolution})


@pytest.mark.parametrize("resolution", [5, 7])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_sphere_against_constant_radial_graph(tmp_path, command, resolution):
    # X = xhat / 1.3 is the round sphere of radius 1 / 1.3
    assert_related(tmp_path, command,
                   {"family": {"variant": "sphere", "radius": 1 / 1.3},
                    "resolution": resolution},
                   {"family": {"variant": "radial_graph", "kind": "constant",
                               "value": 1.3},
                    "resolution": resolution})


@pytest.mark.parametrize("resolution", [5, 7, 9])
def test_ellipsoid_solve_chart_0_against_chart_1(tmp_path, resolution):
    # the ellipsoid is symmetric under the reflection that swaps the charts
    family = {"variant": "ellipsoid", "semi_axes": ELLIPSOID}
    assert_related(tmp_path, "solve",
                   {"family": family, "resolution": resolution, "chart": 0},
                   {"family": family, "resolution": resolution, "chart": 1})


def passed_flags(sections, path="sections"):
    """{path: passed} for every section and subsection of a report."""
    flags = {}
    for key, value in sections.items():
        if isinstance(value, dict):
            if "passed" in value:
                flags[f"{path}/{key}"] = value["passed"]
            flags.update(passed_flags(value, f"{path}/{key}"))
    return flags


@pytest.mark.parametrize("resolution", [5, 7])
@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_ellipsoid_pole_axis_same_verdicts(tmp_path, command, resolution, slot):
    # swapping the pole semi-axis into a chart-plane slot rotates the body,
    # which moves the chart grids over it: the weyl lhs of one body spans
    # 13.59-14.21 over the four poles at resolutions 5 and 7 (grid error)
    axes = list(ELLIPSOID)
    axes[slot], axes[3] = axes[3], axes[slot]
    code_a, rep_a = run(tmp_path, command,
                        {"family": {"variant": "ellipsoid", "semi_axes": ELLIPSOID},
                         "resolution": resolution})
    code_b, rep_b = run(tmp_path, command,
                        {"family": {"variant": "ellipsoid", "semi_axes": axes},
                         "resolution": resolution})
    assert code_a == code_b
    flags_a = passed_flags(rep_a["sections"])
    assert flags_a and flags_a == passed_flags(rep_b["sections"])
