"""Fuzz test of the exit-code contract of weylcheck.cli.main.

Every input ends in exit 0 (all checks passed), 1 (a check failed), 2
(config error) or 3 (numerical-domain error), never in a traceback.  Exits 2
and 3 say which at the start of stderr, and exit 1 happens exactly when some
report section has "passed": false.  The runs stay cheap: resolution 5 or 7
and step sizes h >= 0.05.
"""

import contextlib
import io
import itertools
import json
import math
import sys
import warnings

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from weylcheck.cli import VALID_CHECKS, main
from weylcheck.errors import PASS_RULES

ELLIPSOID = (1.0, 1.2, 0.9, 1.05)
# the `tolerances` keys the pass rules accept, in their order
TOLERANCE_KEYS = tuple(dict.fromkeys(
    rule.override.removeprefix("tolerances.") for rule in PASS_RULES.values()
    if rule.override and rule.override.startswith("tolerances.")))


def family(variant, **keys):
    return st.fixed_dictionaries({"variant": st.just(variant), **keys})


# the sphere and the ellipsoid also scaled by lambda: radius 1e-3 to 1e4, x10, x1e4
FAMILIES = st.one_of(
    family("sphere", radius=st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e),
           dim=st.sampled_from([3, 3, 2])),
    family("ellipsoid", semi_axes=st.builds(
        lambda axes, lam: [a * lam for a in axes],
        st.sampled_from([ELLIPSOID, ELLIPSOID, ELLIPSOID[:3]]), st.sampled_from([1.0, 10.0, 1e4]))),
    family("radial_graph", kind=st.just("constant"), value=st.floats(0.5, 2.0)),
    family("radial_graph", kind=st.just("ellipsoid"), semi_axes=st.just(list(ELLIPSOID))),
    family("radial_graph", kind=st.just("bump"), amplitude=st.floats(0.0, 0.3)),
    family("radial_graph", kind=st.just("random"), seed=st.integers(0, 1000),
           amplitude=st.floats(0.0, 0.1)),
)

# valid values per config key; out is passed on the command line
VALID = {
    "family": FAMILIES,
    "resolution": st.sampled_from([5, 7]),
    "h": st.floats(0.05, 0.3),
    "extent": st.floats(1.05, 1.75),
    "chart": st.sampled_from([0, 1]),
    "checks": st.lists(st.sampled_from(VALID_CHECKS), unique=True, max_size=4),
    "tolerances": st.dictionaries(st.sampled_from(TOLERANCE_KEYS),
                                  st.floats(1e-16, 1.0), max_size=2),
    "seed": st.integers(0, 2**31),
    # 1e-300 and 1e300 are valid, but diam-weyl then stops with exit 3; tolerances
    # and theta near 1e-16 fail checks that hold to rounding (exit 1)
    "diameter": st.one_of(st.none(), st.floats(0.5, 20.0), st.sampled_from([1e-300, 1e300])),
    "theta": st.one_of(st.none(), st.floats(1e-16, 1e-6)),
    "path_plan": st.permutations([0, 1, 2]),
    "eps_list": st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=3),
    "compare_truth": st.booleans(),
    "grid_dump": st.sampled_from([None, "grid.tsv"]),
}
# always set: the defaults (resolution 9, h 0.01) make a reconstruct cost seconds
ALWAYS = ("family", "resolution", "h")

# a JSON true or false where a family spec wants a number
BOOLEAN_FAMILIES = [{"variant": "sphere", "radius": True},
                    {"variant": "ellipsoid", "semi_axes": [True, 1.2, 0.9, 1.05]},
                    {"variant": "radial_graph", "kind": "constant", "value": True},
                    {"variant": "radial_graph", "kind": "bump", "amplitude": False},
                    {"variant": "radial_graph", "kind": "random", "amplitude": False}]
INVALID = {
    "family": ["sphere", {"variant": "torus"}, {"variant": "sphere", "radius": 0},
               {"variant": "sphere", "radius": "x"}, {"variant": "sphere", "dim": 4},
               {"variant": "sphere", "colour": "red"}, {"variant": "ellipsoid"},
               {"variant": "ellipsoid", "semi_axes": [1.0, -1.0, 1.0, 1.0]},
               {"variant": "ellipsoid", "semi_axes": [1.0] * 5},
               {"variant": "radial_graph", "kind": "spiky"},
               {"variant": "radial_graph", "kind": "bump", "amplitude": 0.7},
               {"variant": "radial_graph", "kind": "random", "amplitude": 0.3},
               {"variant": "radial_graph", "kind": "constant", "value": 0.0},
               {"variant": "sphere", "radius": 10**400},
               {"variant": "ellipsoid", "semi_axes": [1.0, 10**400, 0.9, 1.05]},
               {"variant": "radial_graph", "kind": "constant", "value": 10**400},
               *({"variant": "radial_graph", "kind": "random", "seed": seed}
                 for seed in (None, True, [1, 2], -1, 1.5, "3")),
               *BOOLEAN_FAMILIES],
    "resolution": [3, 4, 6, -5, 53, 7.0, "7", True, None],
    "h": [0, -0.1, 10.0, 1e-5, "x", True],
    "extent": [1.0, 1.8, 0.5, -1.0, "a", None, True],
    "chart": [2, -1, "0", True, 0.0],
    "checks": ["weyl", ["bogus"], [1]],
    "tolerances": [[], {"bogus": 1.0}, {"weyl": -1.0}, {"weyl": 0}, {"weyl": "x"},
                   {"gauss-residual": 10**400}, {"weyl": float("inf")}],
    "seed": [-1, 1.5, "3", True],
    "diameter": [0, -2.0, "x", True],
    "theta": [0, -1e-13, "x", 10**400, float("inf")],
    "path_plan": [[0, 0, 1], [0, 1], [0, 1, 3], "012", [0.0, 1, 2]],
    "eps_list": [[], [0], [-0.1], "x", [True], [10**400], [float("inf")]],
    "compare_truth": ["yes", 1, None],
    "grid_dump": ["", "no-such-dir/grid.tsv", ".", 5],
    "bogus_key": [1],
    "--resolution": ["4", "6", "53", "-1"],
    "--seed": ["-1"],
    "--checks": ["weyl,bogus", "nope"],
    "--out": ["", "no-such-dir/report.json", "."],
}


@st.composite
def runs(draw):
    """(command, config, options): valid values for ALWAYS and a random subset
    of the other keys and options; in a third of the runs, one of them then
    takes an invalid value."""
    command = draw(st.sampled_from(["verify", "solve", "reconstruct", "family"]))
    keys = draw(st.lists(st.sampled_from(sorted(set(VALID) - set(ALWAYS))), unique=True))
    config = {key: draw(VALID[key]) for key in ALWAYS + tuple(keys)}
    opts = {}
    for opt, values in (("--resolution", VALID["resolution"].map(str)),
                        ("--seed", st.integers(0, 99).map(str)),
                        ("--checks", VALID["checks"].map(",".join))):
        if draw(st.booleans()):
            opts[opt] = draw(values)
    if draw(st.sampled_from([False, False, True])):
        bad = draw(st.sampled_from(list(INVALID)))
        (opts if bad.startswith("--") else config)[bad] = draw(st.sampled_from(INVALID[bad]))
    return command, config, opts


def _stderr_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning on stderr as an uncaught warning would print it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _in(case, path):
    """A nonempty path string placed in the case directory; others as given."""
    return str(case / path) if isinstance(path, str) and path else path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


CASES = itertools.count()
SCALED = {"variant": "ellipsoid", "semi_axes": [10.0 * a for a in ELLIPSOID]}
CHEAP = {"resolution": 5, "h": 0.1}


# exit 1 from every command, and exits 2 and 3, whatever the generated runs reach
@example(run=("verify", {"family": SCALED, **CHEAP, "tolerances": {"gauss-residual": 1e-16}}, {}))
@example(run=("verify", {**CHEAP, "diameter": 1e300}, {"--checks": "diam-weyl"}))
@example(run=("solve", {"family": SCALED, **CHEAP, "theta": 1e-16}, {}))
@example(run=("solve", {"family": {"variant": "sphere", "dim": 2}, **CHEAP}, {}))
@example(run=("reconstruct", {"family": SCALED, **CHEAP}, {}))
@example(run=("reconstruct", {**CHEAP, "tolerances": {"reconstruct": 1e-16}}, {}))
@example(run=("family", {"family": {"variant": "radial_graph", "kind": "bump"}, **CHEAP,
                         "eps_list": [0.1, 0.1]}, {}))
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_exit_code_contract(workdir, run):
    command, config, opts = run[0], dict(run[1]), dict(run[2])
    case = workdir / f"case{next(CASES)}"
    case.mkdir()
    if "grid_dump" in config:
        config["grid_dump"] = _in(case, config["grid_dump"])
    opts["--out"] = _in(case, opts.get("--out", "report.json"))
    (case / "cfg.json").write_text(json.dumps(config))
    argv = [command, "--config", str(case / "cfg.json"), "--quiet"]
    argv += [item for pair in opts.items() for item in pair]

    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = _stderr_warning
        code = main(argv)
    err = err.getvalue()
    event(f"{command}: exit {code}")   # pytest --hypothesis-show-statistics

    assert code in (0, 1, 2, 3), (argv, config)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:"), err
    elif code == 3:
        assert err.startswith("numerical-domain error:"), err
    else:
        report = json.loads((case / "report.json").read_text())
        failed = [name for name, sec in report["sections"].items()
                  if isinstance(sec, dict) and sec.get("passed") is False]
        assert (code == 1) == bool(failed), (argv, config, failed)


@pytest.mark.parametrize("family", BOOLEAN_FAMILIES, ids=lambda f: json.dumps(f))
def test_boolean_family_numbers_exit_2(tmp_path, family):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "resolution": 5}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["family", "--config", str(cfg), "--quiet"])
    assert code == 2
    assert err.getvalue().startswith("config error: family ")
    assert "not true or false" in err.getvalue()


@pytest.mark.parametrize("diameter", [1e300, 10**400, math.inf],
                         ids=["1e300", "10**400", "inf"])
def test_overflowing_diameter_names_check_and_value(tmp_path, diameter):
    # d**2 overflows a float; the message says which check and which value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"variant": "sphere"}, "resolution": 5,
                               "diameter": diameter}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--checks", "diam-weyl", "--config", str(cfg), "--quiet"])
    assert code == 3
    assert err.getvalue().startswith("numerical-domain error: diam-weyl: d**2 overflows for d = ")
    assert repr(diameter) in err.getvalue()


@pytest.mark.parametrize("diameter", [1e-300, 1e-160], ids=["1e-300", "1e-160"])
def test_underflowing_diameter_names_check_and_value(tmp_path, diameter):
    # d**2 is zero or subnormal; the message says which check and which value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"variant": "sphere"}, "resolution": 5,
                               "diameter": diameter}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["verify", "--checks", "diam-weyl", "--config", str(cfg), "--quiet"])
    assert code == 3
    assert err.getvalue().startswith("numerical-domain error: diam-weyl: d**2 underflows for d = ")
    assert repr(diameter) in err.getvalue()


@pytest.mark.parametrize("command,text", [
    ("verify", '{"resolution": 5, "tolerances": {"gauss-residual": 1%s}}' % ("0" * 400)),
    ("verify", '{"resolution": 5, "tolerances": {"weyl": 1e400}}'),
    ("reconstruct", '{"resolution": 5, "h": 0.1, "tolerances": {"reconstruct": 1e400}}'),
    ("solve", '{"resolution": 5, "theta": 1%s}' % ("0" * 400)),
    ("solve", '{"resolution": 5, "theta": 1e400}'),
    ("solve", '{"resolution": 5, "theta": 1%s}' % ("0" * 5000)),
    ("verify", '{"resolution": 5, "family": {"variant": "sphere", "radius": 1%s}}' % ("0" * 400)),
    ("verify", '{"resolution": 5, "family": {"variant": "ellipsoid", '
               '"semi_axes": [1.0, 1%s, 0.9, 1.05]}}' % ("0" * 400)),
    ("verify", '{"resolution": 5, "family": {"variant": "radial_graph", "kind": "ellipsoid", '
               '"semi_axes": [1.0, 1.2, 1%s, 1.05]}}' % ("0" * 400)),
    ("verify", '{"resolution": 5, "family": {"variant": "radial_graph", "kind": "constant", '
               '"value": 1%s}}' % ("0" * 400)),
    ("family", '{"resolution": 5, "family": {"variant": "radial_graph", "kind": "bump"}, '
               '"eps_list": [0.1, 1%s]}' % ("0" * 400)),
    ("family", '{"resolution": 5, "family": {"variant": "radial_graph", "kind": "bump"}, '
               '"eps_list": [1e400]}'),
], ids=["tolerance-10**400", "tolerance-1e400", "reconstruct-1e400", "theta-10**400",
        "theta-1e400", "theta-5001-digits", "radius-10**400", "semi_axes-10**400",
        "graph-semi_axes-10**400", "value-10**400", "eps-10**400", "eps-1e400"])
def test_nonfinite_tolerance_is_config_error(tmp_path, command, text):
    # JSON reads 1e400 as inf and 10**400 as an int no float holds; a
    # 5001-digit integer is past Python's int_max_str_digits.  The same
    # holds for a family's numbers and for eps_list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--quiet"])
    assert code == 2
    assert err.getvalue().startswith("config error:"), err.getvalue()
