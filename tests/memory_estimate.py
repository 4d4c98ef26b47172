"""Peak-memory estimate of each command at the resolution cap.

    python tests/memory_estimate.py

Runs verify, solve and reconstruct on the ellipsoid (1, 1.2, 0.9, 1.05), and
family on the bump radial graph (the family command needs a radial graph),
at resolutions 9, 13 and 17 and never above, each in RUNS fresh processes.
Each process calls weylcheck.cli.main and reports its own peak RSS
(ru_maxrss) and that of its waited children (RUSAGE_CHILDREN, the forked
child), the max of the runs kept.  The per-point slope from 13 to 17, where
the 512-point blocks are full, extrapolates each of the two to
cli.MAX_RESOLUTION, points counted in one chart ball of the default extent.
Prints one table and exits 1 if a command's parent plus child passes
cli.MEMORY_BUDGET_MIB at the cap, or if a run does not exit 0.

It uses the standard library and weylcheck only, and imports weylcheck (and
so numpy) only in the processes it starts: on Linux a child's ru_maxrss
starts from the high-water mark of the process that spawned it.

pytest does not collect this file: its name has no test_ prefix.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
RESOLUTIONS = (9, 13, 17)
RUNS = 3
TIMEOUT_S = 600
ELLIPSOID = {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]}
BUMP = {"variant": "radial_graph", "kind": "bump"}
FAMILIES = {"verify": ELLIPSOID, "solve": ELLIPSOID, "reconstruct": ELLIPSOID,
            "family": BUMP}


def setup():
    """The caps and the points of one chart ball at each resolution."""
    from weylcheck.cli import MAX_RESOLUTION, MEMORY_BUDGET_MIB
    from weylcheck.surfaces import GRID_EXTENT, ball_grid
    return {"max_resolution": MAX_RESOLUTION, "budget": MEMORY_BUDGET_MIB,
            "points": {r: len(ball_grid(r, GRID_EXTENT))
                       for r in (*RESOLUTIONS, MAX_RESOLUTION)}}


def probe(argv):
    """main(argv)'s exit code, then ru_maxrss (KiB on Linux) of this process
    and of its waited children."""
    from weylcheck.cli import main
    code = main(argv)
    return [code] + [resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]


def fresh(*args, cwd=None):
    """The JSON this file prints when run with args in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def peak_mib(command, resolution, work):
    """(parent, child) peak RSS in MiB of one fresh run of command."""
    (work / "cfg.json").write_text(json.dumps(
        {"family": FAMILIES[command], "resolution": resolution}))
    code, parent, child = fresh("--probe", command, "--config", "cfg.json", "--quiet",
                                cwd=work)
    if code:
        raise SystemExit(f"{command} at resolution {resolution} exited {code}")
    return parent / 1024.0, child / 1024.0


def main():
    caps = fresh("--setup")
    cap_res, budget = caps["max_resolution"], caps["budget"]
    points = {int(r): k for r, k in caps["points"].items()}
    print(f"peak RSS in MiB, max of {RUNS} runs; points of one chart ball: "
          + ", ".join(f"{points[r]} at {r}" for r in (*RESOLUTIONS, cap_res)))
    print(f"{'command':12s}" + "".join(f"{f'at {r}':>16s}" for r in RESOLUTIONS)
          + f"{'KiB/point':>16s}{f'at {cap_res}':>16s}{'total':>8s}")
    over = []
    lo, hi = RESOLUTIONS[-2:]
    with tempfile.TemporaryDirectory() as tmp:
        for command in FAMILIES:
            peaks = {}
            for r in RESOLUTIONS:
                runs = [peak_mib(command, r, Path(tmp)) for _ in range(RUNS)]
                peaks[r] = [max(run[k] for run in runs) for k in (0, 1)]
            slope = [(peaks[hi][k] - peaks[lo][k]) / (points[hi] - points[lo])
                     for k in (0, 1)]
            at_cap = [peaks[hi][k] + slope[k] * (points[cap_res] - points[hi])
                      for k in (0, 1)]
            if sum(at_cap) > budget:
                over.append(command)
            print(f"{command:12s}"
                  + "".join(f"{peaks[r][0]:8.1f}{peaks[r][1]:+8.1f}" for r in RESOLUTIONS)
                  + f"{slope[0] * 1024:8.2f}{slope[1] * 1024:+8.2f}"
                  + f"{at_cap[0]:8.0f}{at_cap[1]:+8.0f}{sum(at_cap):8.0f}")
    print(f"parent+child; budget {budget} MiB at resolution {cap_res}: "
          + (f"{', '.join(over)} over" if over else "every command under"))
    return 1 if over else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--setup"]:
        print(json.dumps(setup()))
    elif sys.argv[1:2] == ["--probe"]:
        print(json.dumps(probe(sys.argv[2:])))
    else:
        sys.exit(main())
