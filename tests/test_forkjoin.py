"""The forked child of `reconstruct` (the reversed fill), of `verify` (the
graph diameter) and of `solve` (chart 1 of the Codazzi calibration): the same
reports and errors as computing inline, and no child left behind on any path.

Every `main()` call starts with a cold Codazzi calibration, so a cached
threshold never hides the path under test, and is followed by a check that
this process has no child left, reaped or not.
"""

import json
import os
import time

import pytest

from weylcheck import _forkjoin, cli, embedsolve
from weylcheck._forkjoin import Forked
from weylcheck.errors import DomainError, IntegrationError, ObstructionError
from weylcheck.surfaces import GRID_EXTENT, Ellipsoid, ball_grid

pytestmark = pytest.mark.skipif(not _forkjoin.FORK, reason="forks on Linux only")

ELLIPSOID = {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]}
RANDOM23 = {"variant": "radial_graph", "kind": "random", "seed": 23, "amplitude": 0.05}


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(tmp_path, capsys, command, config):
    """(exit code, report without timing or None, stderr) of one main() call."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(config))
    if out.exists():
        out.unlink()
    embedsolve.codazzi_threshold.cache_clear()
    code = cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert_no_child()
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report.pop("timing")
    return code, report, capsys.readouterr().err


def inline(monkeypatch):
    monkeypatch.setattr(_forkjoin, "FORK", False)


def in_child(parent):
    return os.getpid() != parent


def wait_for(pidfile):
    """Until the child has written its pid; it must, within 30 s."""
    deadline = time.monotonic() + 30
    while not pidfile.exists() or not pidfile.read_text():
        assert time.monotonic() < deadline, "no child started"
        time.sleep(0.01)


def assert_gone(pidfile):
    with pytest.raises(ProcessLookupError):
        os.kill(int(pidfile.read_text()), 0)


# ---------------------------------------------------------------- helper

def test_result_is_the_childs_value():
    parent = os.getpid()
    with Forked(lambda a, b: (os.getpid(), a + b), 2, 3) as job:
        pid, value = job.result()
    assert value == 5 and pid != parent
    assert_no_child()


def test_child_exception_keeps_type_message_and_attributes():
    def obstruct():
        raise ObstructionError("cone exit", point={"chart": 1, "coords": [0.5]}, margin=-2.5)

    with Forked(obstruct) as job:
        with pytest.raises(ObstructionError, match="cone exit") as info:
            job.result()
    assert info.value.point == {"chart": 1, "coords": [0.5]}
    assert info.value.margin == -2.5
    assert_no_child()


def test_result_twice_reads_the_child_once():
    with Forked(os.getpid) as job:
        assert job.result() == job.result() != os.getpid()
    assert_no_child()


def test_inline_without_fork(monkeypatch):
    inline(monkeypatch)
    with Forked(os.getpid) as job:
        assert job.result() == os.getpid()


def test_child_without_result_falls_back_inline():
    parent = os.getpid()

    def work():
        if in_child(parent):
            os._exit(1)
        return "inline"

    with Forked(work) as job:
        assert job.result() == "inline"
    assert_no_child()


# ---------------------------------------------------- forked = inline

@pytest.mark.parametrize("family", [ELLIPSOID, RANDOM23], ids=["ellipsoid", "random-23"])
@pytest.mark.parametrize("resolution", [5, 7])
@pytest.mark.parametrize("command", ["verify", "reconstruct", "solve"])
def test_forked_reports_equal_inline(tmp_path, capsys, monkeypatch, command, resolution,
                                     family):
    config = {"family": family, "resolution": resolution, "h": 0.1}
    forked = run(tmp_path, capsys, command, config)
    inline(monkeypatch)
    assert run(tmp_path, capsys, command, config) == forked
    assert forked[0] in (0, 1) and forked[1] is not None


def test_reconstruct_forks_the_reversed_fill(tmp_path, capsys, monkeypatch):
    # the parent marches the forward fill only; the reversed one it never sees
    plans = []
    fill = embedsolve._sweep_fill

    def recorded(field, seed, plan, h, limit):
        plans.append(plan)
        return fill(field, seed, plan, h, limit)

    monkeypatch.setattr(embedsolve, "_sweep_fill", recorded)
    code, report, _ = run(tmp_path, capsys, "reconstruct", {"resolution": 5, "h": 0.1})
    assert code == 0
    assert plans == [(0, 1, 2)]
    assert report["sections"]["reconstruction"]["holonomy_sup"] > 0


def test_verify_forks_the_graph_diameter(tmp_path, capsys, monkeypatch):
    calls = []
    graph = cli.graph_diameter

    def recorded(*args):
        calls.append(args)
        return graph(*args)

    monkeypatch.setattr(cli, "graph_diameter", recorded)
    code, report, _ = run(tmp_path, capsys, "verify",
                          {"resolution": 5, "checks": ["diam-weyl"]})
    assert code == 0
    assert calls == []
    assert report["sections"]["diam-weyl"]["constants"]["d_source"] == "graph"


def test_given_diameter_forks_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "Forked", None)
    code, report, _ = run(tmp_path, capsys, "verify",
                          {"resolution": 5, "checks": ["diam-weyl"], "diameter": 3.0})
    assert code == 0
    assert report["sections"]["diam-weyl"]["constants"]["d_source"] == "provided"


# ------------------------------------------------------ errors from the child

def both_paths(tmp_path, capsys, monkeypatch, command, config):
    forked = run(tmp_path, capsys, command, config)
    inline(monkeypatch)
    assert run(tmp_path, capsys, command, config) == forked
    return forked


@pytest.mark.parametrize("error", [
    IntegrationError("frame drift 0.5 exceeds 0.001 on the reversed fill"),
    ObstructionError("Ricci leaves the solvable cone on the reversed fill",
                     point={"chart": 0, "coords": [0.0, 0.6, 0.0]}, margin=-0.25),
], ids=["integration", "obstruction"])
def test_reversed_fill_error_exits_3(tmp_path, capsys, monkeypatch, error):
    fill = embedsolve._sweep_fill

    def failing(field, seed, plan, h, limit):
        if plan == (2, 1, 0):
            raise error
        return fill(field, seed, plan, h, limit)

    monkeypatch.setattr(embedsolve, "_sweep_fill", failing)
    code, report, err = both_paths(tmp_path, capsys, monkeypatch, "reconstruct",
                                   {"resolution": 5, "h": 0.1})
    assert (code, report) == (3, None)
    assert err == f"numerical-domain error: {error}\n"


def test_reversed_fill_obstruction_keeps_point_and_margin(monkeypatch):
    error = ObstructionError("cone exit", point={"chart": 0, "coords": [0.0, 0.6, 0.0]},
                             margin=-0.25)
    fill = embedsolve._sweep_fill

    def failing(field, seed, plan, h, limit):
        if plan == (2, 1, 0):
            raise error
        return fill(field, seed, plan, h, limit)

    field = embedsolve.IntrinsicField.from_family(Ellipsoid((1.0, 1.2, 0.9, 1.05)), 0,
                                                  ball_grid(5, GRID_EXTENT, 3))
    chi = embedsolve.solve_contracted_gauss(field)
    monkeypatch.setattr(embedsolve, "_sweep_fill", failing)
    with pytest.raises(ObstructionError, match="cone exit") as info:
        embedsolve.reconstruct(field, chi, h=0.1)
    assert_no_child()
    assert info.value is not error      # it crossed the pipe
    assert (info.value.point, info.value.margin) == (error.point, error.margin)


def test_forward_fill_error_wins(tmp_path, capsys, monkeypatch):
    fill = embedsolve._sweep_fill

    def failing(field, seed, plan, h, limit):
        if plan == (2, 1, 0):
            raise IntegrationError("reversed")
        fill(field, seed, plan, h, limit)
        raise IntegrationError("forward")

    monkeypatch.setattr(embedsolve, "_sweep_fill", failing)
    code, _, err = both_paths(tmp_path, capsys, monkeypatch, "reconstruct",
                              {"resolution": 5, "h": 0.1})
    assert (code, err) == (3, "numerical-domain error: forward\n")


def test_disconnected_graph_exits_3_at_the_check(tmp_path, capsys, monkeypatch):
    def disconnected(*args):
        raise DomainError("geodesic graph is disconnected (2 components)")

    ran = []
    weyl = cli.weyl_report
    monkeypatch.setattr(cli, "graph_diameter", disconnected)
    monkeypatch.setattr(cli, "weyl_report", lambda *a: ran.append("weyl") or weyl(*a))
    code, report, err = both_paths(tmp_path, capsys, monkeypatch, "verify",
                                   {"resolution": 5, "checks": ["weyl", "diam-weyl"]})
    assert (code, report) == (3, None)
    assert err == "numerical-domain error: geodesic graph is disconnected (2 components)\n"
    assert ran == ["weyl", "weyl"]     # the weyl check ran first, on both paths


# ------------------------------------------- the parent fails while the child runs

def slow_in_child(parent, pidfile, work):
    def slow(*args):
        if in_child(parent):
            pidfile.write_text(str(os.getpid()))
            time.sleep(60)
        return work(*args)
    return slow


def test_grid_error_kills_the_graph_child(tmp_path, capsys, monkeypatch):
    pidfile = tmp_path / "pid"
    monkeypatch.setattr(cli, "graph_diameter",
                        slow_in_child(os.getpid(), pidfile, cli.graph_diameter))

    def grid(*args):
        wait_for(pidfile)
        raise DomainError("scalar curvature is not positive")

    monkeypatch.setattr(cli, "evaluate_family_grid", grid)
    t0 = time.perf_counter()
    code, _, err = run(tmp_path, capsys, "verify", {"resolution": 5})
    assert (code, err) == (3, "numerical-domain error: scalar curvature is not positive\n")
    assert time.perf_counter() - t0 < 30
    assert_gone(pidfile)


def test_interrupt_kills_the_graph_child(tmp_path, monkeypatch):
    pidfile = tmp_path / "pid"
    monkeypatch.setattr(cli, "graph_diameter",
                        slow_in_child(os.getpid(), pidfile, cli.graph_diameter))

    def grid(*args):
        wait_for(pidfile)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "evaluate_family_grid", grid)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["verify", "--resolution", "5", "--quiet"])
    assert_no_child()
    assert_gone(pidfile)


def test_weyl_error_kills_the_graph_child(tmp_path, capsys, monkeypatch):
    pidfile = tmp_path / "pid"
    monkeypatch.setattr(cli, "graph_diameter",
                        slow_in_child(os.getpid(), pidfile, cli.graph_diameter))

    def weyl(*args):
        wait_for(pidfile)
        raise DomainError("weyl failed")

    monkeypatch.setattr(cli, "weyl_report", weyl)
    code, _, err = run(tmp_path, capsys, "verify", {"resolution": 5})
    assert (code, err) == (3, "numerical-domain error: weyl failed\n")
    assert_gone(pidfile)


def test_forward_fill_error_kills_the_reversed_child(tmp_path, capsys, monkeypatch):
    pidfile = tmp_path / "pid"
    parent = os.getpid()
    fill = slow_in_child(parent, pidfile, embedsolve._sweep_fill)

    def failing(*args):
        if not in_child(parent):
            wait_for(pidfile)
            raise IntegrationError("forward")
        return fill(*args)

    monkeypatch.setattr(embedsolve, "_sweep_fill", failing)
    code, _, err = run(tmp_path, capsys, "reconstruct", {"resolution": 5, "h": 0.1})
    assert (code, err) == (3, "numerical-domain error: forward\n")
    assert_gone(pidfile)


# ------------------------------------------------- a child without a result

def test_reversed_fill_child_exit_falls_back(tmp_path, capsys, monkeypatch):
    config = {"resolution": 5, "h": 0.1}
    expected = run(tmp_path, capsys, "reconstruct", config)
    parent = os.getpid()
    fill = embedsolve._sweep_fill
    monkeypatch.setattr(embedsolve, "_sweep_fill",
                        lambda *a: os._exit(1) if in_child(parent) else fill(*a))
    assert run(tmp_path, capsys, "reconstruct", config) == expected


def test_graph_child_exit_falls_back(tmp_path, capsys, monkeypatch):
    config = {"resolution": 5, "checks": ["diam-weyl"]}
    expected = run(tmp_path, capsys, "verify", config)
    parent = os.getpid()
    graph = cli.graph_diameter
    monkeypatch.setattr(cli, "graph_diameter",
                        lambda *a: os._exit(1) if in_child(parent) else graph(*a))
    assert run(tmp_path, capsys, "verify", config) == expected


# ------------------------------------------------- the Codazzi calibration

def cold_threshold(resolution, extent):
    """codazzi_threshold with (theta, observed) as bits and in key order."""
    embedsolve.codazzi_threshold.cache_clear()
    theta, observed = embedsolve.codazzi_threshold(resolution, extent)
    assert_no_child()
    return theta.hex(), [(key, value.hex()) for key, value in observed.items()]


@pytest.mark.parametrize("extent", [GRID_EXTENT, 1.5])
def test_threshold_forked_equals_inline(monkeypatch, extent):
    forked = cold_threshold(7, extent)
    inline(monkeypatch)
    assert cold_threshold(7, extent) == forked
    assert [key for key, _ in forked[1]] == [
        f"{name}/chart{chart}" for name in ("ellipsoid", "graph-bump", "graph-random")
        for chart in (0, 1)]


def test_solve_forks_calibration_chart_1(tmp_path, capsys, monkeypatch):
    # the parent solves the reference families on chart 0 only
    charts = []
    residuals = embedsolve._chart_residuals

    def recorded(pts, chart):
        charts.append(chart)
        return residuals(pts, chart)

    monkeypatch.setattr(embedsolve, "_chart_residuals", recorded)
    code, report, _ = run(tmp_path, capsys, "solve", {"resolution": 5})
    assert code == 0
    assert charts == [0]
    assert len(report["sections"]["embeddability"]["calibration"]["observed"]) == 6


def test_given_theta_forks_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(embedsolve, "Forked", None)
    code, report, _ = run(tmp_path, capsys, "solve", {"resolution": 5, "theta": 1e-10})
    assert code == 0
    assert report["sections"]["embeddability"]["calibration"] == {"provided": True}


def chart_1_fails(monkeypatch, error):
    residuals = embedsolve._chart_residuals

    def failing(pts, chart):
        if chart == 1:
            raise error
        return residuals(pts, chart)

    monkeypatch.setattr(embedsolve, "_chart_residuals", failing)


def test_calibration_chart_1_error_exits_3(tmp_path, capsys, monkeypatch):
    error = ObstructionError("Ricci leaves the solvable cone on calibration chart 1",
                             point={"chart": 1, "coords": [0.0, 0.6, 0.0]}, margin=-0.25)
    chart_1_fails(monkeypatch, error)
    code, report, err = both_paths(tmp_path, capsys, monkeypatch, "solve", {"resolution": 5})
    assert (code, report) == (3, None)
    assert err == f"numerical-domain error: {error}\n"


def test_calibration_chart_1_obstruction_keeps_point_and_margin(monkeypatch):
    error = ObstructionError("cone exit", point={"chart": 1, "coords": [0.0, 0.6, 0.0]},
                             margin=-0.25)
    chart_1_fails(monkeypatch, error)
    embedsolve.codazzi_threshold.cache_clear()
    with pytest.raises(ObstructionError, match="cone exit") as info:
        embedsolve.codazzi_threshold(5)
    assert_no_child()
    assert info.value is not error      # it crossed the pipe
    assert (info.value.point, info.value.margin) == (error.point, error.margin)


def test_calibration_chart_0_error_wins(tmp_path, capsys, monkeypatch):
    def failing(pts, chart):
        raise DomainError(f"chart {chart}")

    monkeypatch.setattr(embedsolve, "_chart_residuals", failing)
    code, _, err = both_paths(tmp_path, capsys, monkeypatch, "solve", {"resolution": 5})
    assert (code, err) == (3, "numerical-domain error: chart 0\n")


def test_calibration_chart_0_error_kills_the_child(tmp_path, capsys, monkeypatch):
    pidfile = tmp_path / "pid"
    parent = os.getpid()
    residuals = slow_in_child(parent, pidfile, embedsolve._chart_residuals)

    def failing(pts, chart):
        if not in_child(parent):
            wait_for(pidfile)
            raise DomainError("chart 0")
        return residuals(pts, chart)

    monkeypatch.setattr(embedsolve, "_chart_residuals", failing)
    t0 = time.perf_counter()
    code, _, err = run(tmp_path, capsys, "solve", {"resolution": 5})
    assert (code, err) == (3, "numerical-domain error: chart 0\n")
    assert time.perf_counter() - t0 < 30
    assert_gone(pidfile)


def test_calibration_child_exit_falls_back(tmp_path, capsys, monkeypatch):
    config = {"resolution": 5}
    expected = run(tmp_path, capsys, "solve", config)
    parent = os.getpid()
    residuals = embedsolve._chart_residuals
    monkeypatch.setattr(embedsolve, "_chart_residuals",
                        lambda *a: os._exit(1) if in_child(parent) else residuals(*a))
    assert run(tmp_path, capsys, "solve", config) == expected
