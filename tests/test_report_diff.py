"""report_diff's drift statement on hand-made outcomes: the count of
differing leaves, the largest relative float drift with its path, and the
paths of the other differences."""

from report_diff import drift

REPORT = """{
  "reconstruction": {
    "holonomy_sup": 2.5e-05,
    "nodes": 257,
    "passed": true,
    "plan": [0, 1, 2],
    "rms_vs_truth": %s
  }
}"""


def outcome(report):
    return {"report": report, "grid dump": None, "exit code": 0, "stderr": ""}


def test_equal_reports():
    base = outcome(REPORT % "0.001")
    assert drift(base, outcome(REPORT % "0.001")) == (0, None, [])


def test_one_float_moved():
    moved = 0.001 * (1 + 1e-13)
    count, largest, other = drift(outcome(REPORT % "0.001"), outcome(REPORT % repr(moved)))
    assert (count, other) == (1, [])
    assert largest[1] == "report.reconstruction.rms_vs_truth"
    assert 0.9e-13 < largest[0] < 1.1e-13


def test_flipped_passed_flag():
    base = outcome(REPORT % "0.001")
    tree = outcome((REPORT % "0.001").replace('"passed": true', '"passed": false'))
    assert drift(base, tree) == (1, None, ["report.reconstruction.passed"])


def test_negative_zero_differs():
    assert drift(outcome(REPORT % "0.0"), outcome(REPORT % "-0.0")) \
        == (1, (0.0, "report.reconstruction.rms_vs_truth"), [])


def test_grid_dump_cells_are_leaves():
    grid = "chart\tx1\tH\n0\t-0.5\t%s\n1\t0.5\t3.0\n"
    base, tree = outcome(REPORT % "0.001"), outcome(REPORT % "0.001")
    base["grid dump"], tree["grid dump"] = grid % "3.0", grid % "3.0000000000003"
    count, largest, other = drift(base, tree)
    assert (count, largest[1], other) == (1, "grid dump[0].H", [])
    assert 0.9e-13 < largest[0] < 1.1e-13
