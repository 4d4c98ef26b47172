"""Mutation gate for the verdict code and the jet kernel, standard library only.

    python tests/mutants.py [--out mutants.json] [NAME ...]

Each mutant in MUTANTS is one exact source line of a module under
src/weylcheck, its replacement, and the test expected to kill it.  For each
mutant (or only those NAMEd) the runner copies src, tests, README.md and
pyproject.toml into a temporary directory, replaces the line there, and runs
the named test; only a mutant that survives it runs the whole tier-1 suite.
A mutant is killed when a run fails.  The runner stops with exit 2, before
running anything, if a mutant's line is not found exactly once in its module.
It writes a JSON summary (one entry per mutant: module, killed, killed_by)
to --out and exits 1 if any mutant survived tier-1, else 0.

pytest does not collect this file: its name has no test_ prefix.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 900

# name: (module, exact source line, replacement, test expected to kill it)
MUTANTS = {
    "bound slack sign": (
        "bounds.py",
        "        passed=worst(lhs - rhs, tol)[2],",
        "        passed=worst(lhs - rhs, -tol)[2],",
        "tests/test_bounds.py"),
    "weyl default tolerance": (
        "errors.py",
        '    "weyl": PassRule(1e-7, "|rhs|", "tolerances.weyl", -2),',
        '    "weyl": PassRule(1e-6, "|rhs|", "tolerances.weyl", -2),',
        "tests/test_pass_rules.py"),
    "worst passes at the tolerance only": (
        "errors.py",
        "    return idx, sup, bool(math.isfinite(sup) and sup <= tol)",
        "    return idx, sup, bool(math.isfinite(sup) and sup < tol)",
        "tests/test_errors.py"),
    "worst's NaN rule": (
        "errors.py",
        "    idx = int(np.argmax(np.where(np.isnan(values), np.inf, values)))",
        "    idx = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))",
        "tests/test_errors.py"),
    "worst passes an infinite sup": (
        "errors.py",
        "    return idx, sup, bool(math.isfinite(sup) and sup <= tol)",
        "    return idx, sup, bool(sup <= tol)",
        "tests/test_errors.py"),
    "truth verdict": (
        "cli.py",
        '        sections["truth"] = {"chi_rel_error": rel, '
        '"passed": worst(rel, _tolerance(cfg, "truth"))[2]}',
        '        sections["truth"] = {"chi_rel_error": rel, '
        '"passed": not worst(rel, _tolerance(cfg, "truth"))[2]}',
        "tests/test_cli.py"),
    "reconstruction verdict": (
        "cli.py",
        '        "passed": worst(rms, tol)[2],',
        '        "passed": not worst(rms, tol)[2],',
        "tests/test_cli.py"),
    "exit 1 on a failed check": (
        "cli.py",
        "    return report, (1 if failed else 0)",
        "    return report, (0 if failed else 1)",
        "tests/test_cli.py"),
    "exit 2 on a config error": (
        "cli.py",
        "        return 2",
        "        return 3",
        "tests/test_cli.py"),
    "family passes on both flags": (
        "cli.py",
        '        "passed": bool(monotone and convex),',
        '        "passed": bool(convex),',
        "tests/test_cli.py"),
    "frame-drift limit follows g": (
        "embedsolve.py",
        "    limit = drift_limit * float(np.linalg.eigvalsh(g)[..., 0].min())",
        "    limit = drift_limit",
        "tests/test_embedsolve.py"),
    "derivative without its factor": (
        "jets.py",
        "        out *= fac.reshape(fac.shape + (1,) * (out.ndim - 1))",
        "        out *= 1.0",
        "tests/test_jets.py"),
    "product skips its last layer": (
        "jets.py",
        "    for first, start, stop in layers[1:]:",
        "    for first, start, stop in layers[1:-1]:",
        "tests/test_jets.py"),
    "symmetric fills the upper triangle only": (
        "jets.py",
        "            out[..., i, j] = out[..., j, i] = entry(i, j)",
        "            out[..., i, j] = entry(i, j)",
        "tests/test_jets.py"),
    "c2bound's C_n reads n for n - 1": (
        "bounds.py",
        "    c_n = n / (2.0 * math.sqrt((n - 1) * (n - 2)))",
        "    c_n = n / (2.0 * math.sqrt(n * (n - 2)))",
        "tests/test_bounds.py"),
    "diam-weyl's C exponent doubled": (
        "bounds.py",
        "    big_c = 4.0 * (n - 1) ** (-2) * math.exp((n - 1) / 4.0)",
        "    big_c = 4.0 * (n - 1) ** (-2) * math.exp((n - 1) / 2.0)",
        "tests/test_bounds.py"),
    "a bound's lhs at its argmin": (
        "bounds.py",
        "    lhs_idx = int(np.argmax(lhs_field))",
        "    lhs_idx = int(np.argmin(lhs_field))",
        "tests/test_bounds.py"),
    "a bound's rhs at its argmin": (
        "bounds.py",
        "        rhs_idx = int(np.argmax(rhs_field))",
        "        rhs_idx = int(np.argmin(rhs_field))",
        "tests/test_bounds.py"),
    "c2bound's rhs where Lambda is least": (
        "bounds.py",
        "                   rhs_idx=int(np.argmax(eg.ricci_norm)))",
        "                   rhs_idx=int(np.argmin(eg.ricci_norm)))",
        "tests/test_bounds.py"),
    "second-deriv without its weyl comparison": (
        "bounds.py",
        "        extra_ok = worst(lhs, wr.rhs + wr.tol)[2]",
        "        extra_ok = True",
        "tests/test_bounds.py"),
    "_plain spells +inf as -Infinity": (
        "cli.py",
        '        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")',
        '        return "NaN" if math.isnan(x) else ("Infinity" if x < 0 else "-Infinity")',
        "tests/test_cli.py"),
    "chart 1 without its sign flip": (
        "surfaces.py",
        "        last = -1.0 * last",
        "        pass",
        "tests/test_surfaces.py"),
}


def mutate(tree, module, line, replacement):
    """Replace the one occurrence of line in tree's module, or ValueError."""
    path = tree / "src" / "weylcheck" / module
    lines = path.read_text().split("\n")
    hits = [k for k, text in enumerate(lines) if text == line]
    if len(hits) != 1:
        raise ValueError(f"{module}: {len(hits)} lines match {line.strip()!r}")
    lines[hits[0]] = replacement
    path.write_text("\n".join(lines))


def fails(tree, target):
    """Whether pytest on target (a test path, or None for tier-1) fails in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *([target] if target else ["--continue-on-collection-errors"])]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="mutants.json")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    names = args.names or list(MUTANTS)
    summary = {}
    with tempfile.TemporaryDirectory() as tmp:
        pristine = Path(tmp) / "pristine"
        pristine.mkdir()
        for item in COPIED:
            if (ROOT / item).is_dir():
                shutil.copytree(ROOT / item, pristine / item,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / item, pristine / item)
        # every line is checked, by replacing it with itself, before any test runs
        for name in names:
            module, line, _, _ = MUTANTS[name]
            try:
                mutate(pristine, module, line, line)
            except ValueError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
        for name in names:
            module, line, replacement, test = MUTANTS[name]
            tree = Path(tmp) / "mutant"
            shutil.rmtree(tree, ignore_errors=True)
            shutil.copytree(pristine, tree)
            mutate(tree, module, line, replacement)
            killed_by = test if fails(tree, test) else "tier-1" if fails(tree, None) else None
            summary[name] = {"module": module, "killed": killed_by is not None,
                             "killed_by": killed_by}
            print(f"{'killed' if killed_by else 'SURVIVED':8s} {name}"
                  + (f" (by {killed_by})" if killed_by else ""), flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if any(not s["killed"] for s in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
