"""Compare the CLI's reports at a git revision with the working tree's.

    python tests/report_diff.py --base REV

Extracts REV with `git archive` into a temporary directory, then runs
`python -m weylcheck.cli` there and in the working tree, each with
PYTHONPATH=<tree>/src, on a fixed list: each of the four commands on the
sphere, the ellipsoid (1, 1.2, 0.9, 1.05), the bump and random-23 at
resolution 9, and for each family verify with a grid dump at resolutions 9
and 13, solve on chart 1, reconstruct at h 0.05, and reconstruct at
resolution 29 and h 0.085, whose largest march levels have 609 sources, so
that stage rows span 512-point calls (27, with 517, is the first resolution
where they do).  Prints every run
whose report (less `timing`), grid dump, exit code or stderr differs, and
exits 1 if any does.  A change meant to move no bit must find no difference.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = {
    "sphere": {"variant": "sphere"},
    "ellipsoid": {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]},
    "bump": {"variant": "radial_graph", "kind": "bump"},
    "random-23": {"variant": "radial_graph", "kind": "random", "seed": 23},
}


def runs():
    """(label, command, config) of every run, family by family."""
    for name, spec in FAMILIES.items():
        base = {"family": spec, "resolution": 9}
        for command in ("verify", "solve", "reconstruct", "family"):
            yield f"{command} {name}", command, base
        for resolution in (9, 13):
            yield (f"verify {name} resolution {resolution} grid dump", "verify",
                   {**base, "resolution": resolution, "grid_dump": "grid.tsv"})
        yield f"solve {name} chart 1", "solve", {**base, "chart": 1}
        yield f"reconstruct {name} h 0.05", "reconstruct", {**base, "h": 0.05}
        yield (f"reconstruct {name} resolution 29 h 0.085", "reconstruct",
               {**base, "resolution": 29, "h": 0.085})


def outcome(tree, command, config, work):
    """{"report", "grid dump", "exit code", "stderr"} of one run of the tree's
    CLI in the empty directory work; paths are relative to it, so stderr
    does not name the directory."""
    (work / "cfg.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "weylcheck.cli", command, "--config", "cfg.json",
         "--out", "report.json", "--quiet"],
        cwd=work, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True)
    report = grid = None
    if (work / "report.json").exists():
        report = json.loads((work / "report.json").read_text())
        report.pop("timing", None)
        # the report's own format, so that -0.0 and 0.0 stay apart
        report = json.dumps(report, indent=2, sort_keys=True)
    if (work / "grid.tsv").exists():
        grid = (work / "grid.tsv").read_text()
    return {"report": report, "grid dump": grid, "exit code": proc.returncode,
            "stderr": proc.stderr}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base],
                                 capture_output=True, check=True).stdout
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive, check=True)
        differ = 0
        for k, (label, command, config) in enumerate(runs()):
            got = {}
            for side, tree in (("base", tmp / "base"), ("tree", ROOT)):
                work = tmp / f"{side}-{k}"
                work.mkdir()
                got[side] = outcome(tree, command, config, work)
            keys = [key for key in got["base"] if got["base"][key] != got["tree"][key]]
            if keys:
                differ += 1
                print(f"DIFFERS  {label}: {', '.join(keys)}")
                for key in keys:
                    if key in ("exit code", "stderr"):
                        print(f"    base {got['base'][key]!r}\n    tree {got['tree'][key]!r}")
            else:
                print(f"same     {label}")
        total = k + 1
    print(f"{differ} of {total} runs differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
