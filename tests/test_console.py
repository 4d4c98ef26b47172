"""The console commands in fresh processes under PYTHONDEVMODE=1.

Each job runs `python -m weylcheck.cli COMMAND --config CONFIG` twice in its
own directory.  Every run must exit 0 with no ResourceWarning or "Exception
ignored" line on stderr (under dev mode, a pipe or a child leaked by the
forked helper shows as one), leave no process behind that names its config,
and write a strict JSON report that is canonical_json's own output, byte for
byte.  The two runs must give equal reports apart from `timing`, and equal
grid dumps, byte for byte, with one row per point.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weylcheck
from weylcheck.cli import canonical_json

SRC = str(Path(weylcheck.__file__).resolve().parent.parent)
BUMP = {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1}
RANDOM23 = {"variant": "radial_graph", "kind": "random", "seed": 23}

CONFIGS = {
    "cli": {"family": BUMP, "resolution": 5, "h": 0.1},
    # at resolution 13, each chart's 925 points span two 512-point grid
    # blocks (512 + 413), and a block's jet temporaries pass glibc's 128 KiB
    # default mmap threshold, which the resolution-5 runs never reach; the
    # grid dump, one row per point, must repeat byte for byte.  solve reads
    # the same config (it writes no dump): each chart's field spans the same
    # two blocks, in the process and in the forked child that calibrates
    # chart 1
    "cli13": {"family": BUMP, "resolution": 13, "grid_dump": "grid13.tsv"},
    # the 2-sphere takes evaluate_grid's n = 2 path (2 x 2 normal minors, the
    # single sectional curvature R / 2), with every check that n = 2 allows;
    # c2bound needs n >= 3
    "cli2": {"family": {"variant": "sphere", "dim": 2}, "resolution": 13,
             "grid_dump": "grid13.tsv",
             "checks": ["weyl", "diam-weyl", "second-deriv", "gauss-residual",
                        "codazzi-residual", "support-identities"]},
    # reconstruct streams a march level's stage rows (one row per RK4 stage,
    # one point per source) through 512-point calls.  The resolution-5 run
    # fits each fill in one call.  At resolution 9 and 24 substeps a
    # spacing, a fill's 49 rows a level (12,544 points) take 25 calls, and
    # rows of up to 45 points are joined across call boundaries.  At
    # resolution 29 a level has up to 609 sources, so a single row is longer
    # than a call
    "cli9": {"family": BUMP, "resolution": 9, "h": 0.0125},
    "cli29": {"family": BUMP, "resolution": 29, "h": 0.085},
    # the random graph's Q comes from weylcheck._rng, numpy's
    # default_rng(seed).uniform stream without numpy.random: equal runs and
    # canonical reports hold it on every numpy
    "clirandom": {"family": RANDOM23, "resolution": 5},
}
JOBS = ["verify:cli", "solve:cli", "reconstruct:cli", "family:cli", "verify:cli13",
        "verify:cli2", "solve:cli13", "reconstruct:cli9", "reconstruct:cli29",
        "verify:clirandom", "solve:clirandom"]


def console(tmp_path, command, config, *args):
    """The finished process of one dev-mode CLI run in tmp_path, given the
    config file tmp_path/<config>.json by its absolute path (written from
    CONFIGS[config] unless it exists); stderr is text."""
    cfg = tmp_path / f"{config}.json"
    if not cfg.exists():
        cfg.write_text(json.dumps(CONFIGS[config]))
    return subprocess.run(
        [sys.executable, "-m", "weylcheck.cli", command, "--config", str(cfg), *args,
         "--quiet"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDEVMODE": "1"})


def survivors(command, cfg):
    """Processes still running `weylcheck.cli COMMAND --config CFG`."""
    proc = subprocess.run(
        ["pgrep", "-fa", re.escape(f"weylcheck.cli {command} --config {cfg}")],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


def strict_canonical(path):
    """The report at path, which must be strict JSON (no bare NaN or
    Infinity) and canonical_json's output, byte for byte."""
    def bare(name):
        raise ValueError(f"bare {name} in {path.name}")

    text = path.read_text()
    report = json.loads(text, parse_constant=bare)
    assert canonical_json(report) + "\n" == text, f"{path.name} is not canonical"
    return report


@pytest.mark.parametrize("job", JOBS)
def test_job_repeats_in_fresh_dev_mode_processes(tmp_path, job):
    command, config = job.split(":")
    reports, dumps = [], []
    for run in (1, 2):
        out = tmp_path / f"{run}.json"
        proc = console(tmp_path, command, config, "--out", out.name)
        assert proc.returncode == 0, proc.stderr
        leaks = [line for line in proc.stderr.splitlines()
                 if re.search("ResourceWarning|Exception ignored", line)]
        assert not leaks, f"weylcheck {command} leaked a resource:\n{proc.stderr}"
        assert not survivors(command, tmp_path / f"{config}.json"), \
            f"a weylcheck {command} process outlived the command"
        reports.append(strict_canonical(out))
        dump = tmp_path / "grid13.tsv"
        if dump.exists():
            dumps.append(dump.read_bytes())
            dump.unlink()
    if dumps:
        assert len(dumps) == 2 and dumps[0] == dumps[1], f"{job} grid dumps differ"
        points = reports[0]["sections"]["weyl"]["grid"]["num_points"]
        rows = dumps[0].decode().splitlines()[1:]
        assert len(rows) == points, f"{len(rows)} dump rows for {points} points"
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]


def test_weyl_only_dump_equals_all_checks_dump(tmp_path):
    # verify evaluates only the residual columns its checks and the dump
    # read, so a weyl-only run must dump the same grid, byte for byte
    dumps = []
    for args in ((), ("--checks", "weyl")):
        proc = console(tmp_path, "verify", "cli13", *args)
        assert proc.returncode == 0, proc.stderr
        dumps.append((tmp_path / "grid13.tsv").read_bytes())
        (tmp_path / "grid13.tsv").unlink()
    assert dumps[0] == dumps[1], "the weyl-only grid dump differs"


def test_null_family_seed_exits_2(tmp_path):
    # a family-spec seed follows the top-level rule: null, which would draw
    # OS entropy, is a config error
    config = {"family": {**RANDOM23, "seed": None}, "resolution": 5}
    (tmp_path / "clinull.json").write_text(json.dumps(config))
    proc = console(tmp_path, "verify", "clinull")
    assert proc.returncode == 2, f"a null family seed exited {proc.returncode}, not 2"
