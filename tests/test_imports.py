"""Import hygiene: scipy is loaded only when verify computes a diameter.

Every other command, and importing the CLI, runs on numpy alone, and a job
loads no numpy submodule on first use that the import did not load.  Each
case runs in a fresh interpreter, because this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylcheck

SRC = str(Path(weylcheck.__file__).resolve().parent.parent)

# prints the scipy modules loaded at the end, and the numpy ones the jobs loaded
PROBE = """
import contextlib, io, json, sys
import weylcheck.cli
before = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = weylcheck.cli.main(argv)
    assert code == 0, (argv, code)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_in_jobs": sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"),
}))
"""

BUMP = {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1}
RUNS = {
    "solve": {"resolution": 5},
    "reconstruct": {"resolution": 5, "h": 0.1},
    "family": {"family": BUMP, "resolution": 5},
    "verify": {"resolution": 5, "diameter": 3.0},
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
    assert probe(tmp_path, [])["scipy"] == []


@pytest.mark.parametrize("command", sorted(RUNS))
def test_command_loads_no_scipy(tmp_path, command):
    loaded = probe(tmp_path, [(command, RUNS[command])])
    assert loaded["scipy"] == []
    assert loaded["numpy_in_jobs"] == []


def test_computed_diameter_loads_csgraph(tmp_path):
    loaded = probe(tmp_path, [("verify", {"resolution": 5, "checks": ["diam-weyl"]})])
    assert "scipy.sparse.csgraph" in loaded["scipy"]
