"""The README "Pass rules" table against the code's table, errors.PASS_RULES,
row by row, and the report tolerances the code takes from it."""

import json
import re
from pathlib import Path

import numpy as np

from weylcheck import bounds
from weylcheck.cli import main
from weylcheck.errors import PASS_RULES

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_rows(text):
    """The cells of each row of the README "Pass rules" table, with the
    markdown escape of | undone."""
    section = text.split("### Pass rules", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")][2:]
    return [[cell.strip().replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines]


def verdict(cell):
    """`solve` (and exit 3 from the solver) -> solve: no backticks and no
    parenthesized note."""
    return re.sub(r"\s*\(.*\)", "", cell).replace("`", "").strip()


def default(cell):
    """(tol, relative_to) of a default-tolerance cell: the part before any
    ';' note reads "calibrated", "<number>" or "<number> x <what>"."""
    before = cell.partition(";")[0].strip()
    if before == "calibrated":
        return None, "calibrated"
    number, _, what = before.partition(" x ")
    return float(number), what or "absolute"


def override(cell):
    return None if cell == "none" else cell.strip("`")


def weight(cell):
    """lambda -> 1, lambda^-2 -> -2."""
    return 1 if cell == "lambda" else int(cell.removeprefix("lambda^"))


def parse(text):
    """{verdict: (tol, relative_to, override, weight)} in README order."""
    return {verdict(name): (*default(tol), override(key), weight(w))
            for name, _, tol, key, w in readme_rows(text)}


def test_readme_table_is_the_code_table():
    rows = parse(README.read_text())
    assert list(rows) == list(PASS_RULES)
    for name, rule in PASS_RULES.items():
        assert rows[name] == tuple(rule), name


def run(tmp_path, command, config):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{command}.json"
    main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    return json.loads(out.read_text())["sections"]


def test_report_tolerances_are_the_table_defaults(tmp_path):
    sections = run(tmp_path, "verify", {"family": {"variant": "ellipsoid",
                                                   "semi_axes": [1.0, 1.2, 0.9, 1.05]},
                                        "resolution": 5, "diameter": 3.0})
    for name in ("weyl", "diam-weyl", "c2bound", "second-deriv"):
        rhs = sections[name]["rhs"]
        assert sections[name]["tol"] == PASS_RULES[name].tol * abs(rhs), name
    for name in ("gauss-residual", "codazzi-residual"):
        assert sections[name]["tol"] == PASS_RULES[name].tol
    for label in ("hessian", "gradient", "curvature"):
        assert sections["support-identities"][label]["tol"] \
            == PASS_RULES[f"support-identities {label}"].tol
    sections = run(tmp_path, "reconstruct", {"resolution": 5, "h": 0.1})
    assert sections["reconstruction"]["tol"] == PASS_RULES["reconstruction"].tol


def test_overrides_replace_the_defaults(tmp_path):
    given = {"weyl": 0.5, "gauss-residual": 0.25, "support-identities": 0.125}
    sections = run(tmp_path, "verify", {"resolution": 5, "tolerances": given,
                                        "checks": list(given)})
    assert sections["weyl"]["tol"] == 0.5
    assert sections["gauss-residual"]["tol"] == 0.25
    assert {sections["support-identities"][label]["tol"]
            for label in ("hessian", "gradient", "curvature")} == {0.125}


def test_overrides_decide_the_verdicts(tmp_path, monkeypatch):
    # hand-made residual columns, 0.5 everywhere but the sigma_2 comparison's
    # 2.0, against overrides of 1.0: the defaults (1e-7) would fail them all,
    # and the support identities fail on their one failing sub-check
    def column(value):
        return lambda sd: np.full(sd.coords.shape[0], value)

    monkeypatch.setitem(bounds.RESIDUALS, "gauss-residual", column(0.5))
    monkeypatch.setitem(bounds.RESIDUALS, "support-identities", lambda sd: np.stack(
        [column(0.5)(sd), column(0.5)(sd), column(2.0)(sd)], axis=-1))
    given = {"gauss-residual": 1.0, "support-identities": 1.0}
    sections = run(tmp_path, "verify", {"resolution": 5, "tolerances": given,
                                        "checks": list(given)})
    assert sections["gauss-residual"]["passed"] is True
    support = sections["support-identities"]
    assert [support[label]["passed"] for label in ("hessian", "gradient", "curvature")] \
        == [True, True, False]
    assert support["passed"] is False
