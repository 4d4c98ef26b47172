"""Import hygiene: no command loads scipy in the calling process, nor
numpy.random beyond what importing numpy loads.

Only verify computing a diameter uses scipy, in the forked child that
computes it (on Linux).  Every command, and importing the CLI, runs on numpy
alone, and a job loads no numpy submodule on first use that the import did
not load.  Random graphs draw from weylcheck._rng, so weylcheck never
loads numpy.random, nor hashlib, _hashlib (OpenSSL) and secrets, which it
brings, beyond what importing numpy loads (all of them before numpy 2.0).
The heap policy of cli.main stays off the import path: importing the CLI
loads no ctypes module beyond those numpy loads, and the CLI imports and
runs where ctypes cannot be imported.  Each case runs in a fresh
interpreter, because this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylcheck
from weylcheck import _forkjoin
from weylcheck.bounds import graph_diameter
from weylcheck.surfaces import GRID_EXTENT, RoundSphere

SRC = str(Path(weylcheck.__file__).resolve().parent.parent)

# prints the scipy modules loaded at the end, the numpy.random stack modules
# loaded beyond those importing numpy loads (numpy < 2 imports numpy.random
# itself), and the numpy ones the jobs loaded
PROBE = """
import contextlib, io, json, sys
import numpy
numpy_loaded = set(sys.modules)
import weylcheck.cli
before = set(sys.modules)
RANDOM_STACK = {"hashlib", "_hashlib", "secrets"}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = weylcheck.cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_in_jobs": sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"),
    "random": sorted(m for m in set(sys.modules) - numpy_loaded
                     if m in RANDOM_STACK or m.split(".")[:2] == ["numpy", "random"]),
}))
"""

BUMP = {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1}
RANDOM = {"variant": "radial_graph", "kind": "random", "seed": 23}
RUNS = {
    # the default solve draws graph-random in its Codazzi calibration
    "solve": ("solve", {"resolution": 5}),
    "reconstruct": ("reconstruct", {"resolution": 5, "h": 0.1}),
    "family": ("family", {"family": BUMP, "resolution": 5}),
    "verify": ("verify", {"resolution": 5, "diameter": 3.0}),
    "verify-random": ("verify", {"family": RANDOM, "resolution": 5, "diameter": 3.0}),
}


def probe(tmp_path, runs):
    argvs = []
    for i, (command, config) in enumerate(runs):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(config))
        argvs.append([command, "--config", str(cfg), "--quiet"])
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = probe(tmp_path, [])
    assert loaded["scipy"] == []
    assert loaded["random"] == []


@pytest.mark.parametrize("command", sorted(RUNS))
def test_command_loads_no_scipy(tmp_path, command):
    loaded = probe(tmp_path, [RUNS[command]])
    assert loaded["scipy"] == []
    assert loaded["numpy_in_jobs"] == []
    assert loaded["random"] == []


@pytest.mark.skipif(not _forkjoin.FORK, reason="computed inline off Linux")
def test_computed_diameter_loads_no_scipy(tmp_path):
    # the graph diameter, the one user of scipy, runs in a forked child
    out = tmp_path / "verify.json"
    loaded = probe(tmp_path, [("verify", {"resolution": 5, "checks": ["diam-weyl"],
                                          "out": str(out)})])
    assert loaded["scipy"] == []
    assert loaded["numpy_in_jobs"] == []
    assert loaded["random"] == []
    constants = json.loads(out.read_text())["sections"]["diam-weyl"]["constants"]
    assert constants["d_source"] == "graph"
    assert constants["d"] == graph_diameter(RoundSphere(1.0), 5, GRID_EXTENT)


# the ctypes modules importing numpy loads, and those the CLI adds to them;
# with "blocked", import ctypes fails, and a verify job then runs
CTYPES_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["ctypes"] = None
import numpy
numpy_loaded = set(sys.modules)
import weylcheck.cli
cli_added = sorted(m for m in set(sys.modules) - numpy_loaded if "ctypes" in m)
with contextlib.redirect_stdout(io.StringIO()):
    code = weylcheck.cli.main(["verify", "--resolution", "5", "--checks", "weyl", "--quiet"])
print(json.dumps({"cli_added": cli_added, "exit": code}))
"""


@pytest.mark.parametrize("ctypes_state", ["available", "blocked"])
def test_cli_import_loads_no_ctypes(ctypes_state):
    proc = subprocess.run([sys.executable, "-c", CTYPES_PROBE, ctypes_state],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"cli_added": [], "exit": 0}
