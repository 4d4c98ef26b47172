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
whose report (less `timing`), grid dump, exit code or stderr differs, with
its drift: the count of differing leaves (report entries, grid-dump cells,
the exit code, stderr), the largest |a - b| / |b| over float leaves, b the
base's, with its path, and the paths of the other differing leaves.  A float
leaf differs when its bits do, so -0.0 and 0.0 differ.  Exits 1 if any run
differs.  A change meant to move no bit must find no difference.
"""

import argparse
import json
import math
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


ABSENT = object()                  # a leaf that one side does not have


def _cell(text):
    """A grid-dump cell as an int or a float where it reads as one."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def leaves(outcome):
    """{path: leaf} of an outcome, its report parsed and its grid dump read
    as a list of {column: cell} rows."""
    found = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for k, item in enumerate(value):
                walk(item, f"{path}[{k}]")
        else:
            found[path] = value

    report, grid = outcome["report"], outcome["grid dump"]
    if grid is not None:
        header, *lines = grid.splitlines()
        grid = [dict(zip(header.split("\t"), map(_cell, line.split("\t")))) for line in lines]
    report = None if report is None else json.loads(report)
    walk({**outcome, "report": report, "grid dump": grid}, "")
    return found


def drift(base, tree):
    """(count of differing leaves, (largest |a - b| / |b|, path) over float
    leaves or None, paths of the other differing leaves) of two outcomes;
    a leaf only one side has is one of the others."""
    a, b = leaves(tree), leaves(base)
    count, largest, other = 0, None, []
    for path in list(b) + [p for p in a if p not in b]:
        x, y = a.get(path, ABSENT), b.get(path, ABSENT)
        if type(x) is type(y) and repr(x) == repr(y):
            continue
        count += 1
        if isinstance(x, float) and isinstance(y, float):
            rel = abs(x - y) / abs(y) if y else (0.0 if x == 0 else math.inf)
            rel = math.inf if math.isnan(rel) else rel
            if largest is None or rel > largest[0]:
                largest = (rel, path)
        else:
            other.append(path)
    return count, largest, other


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
                count, largest, other = drift(got["base"], got["tree"])
                print(f"    {count} leaves differ" + (
                    "" if largest is None else
                    f"; largest relative drift {largest[0]:.3g} at {largest[1]}"))
                if other:
                    print(f"    other: {', '.join(other)}")
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
