"""Correctness gate: compare a job's report with the one recorded for its key.

References live in ``reference/<workload>.json`` as ``{key: {"exit": code,
"report": report-without-timing}}``; ``run.py --record`` writes them.  A job
fails the gate when its exit code differs, when any non-float field (a
``passed`` flag, a count, the echoed config) differs, or when a float leaves
the tolerance the acceptance tests (tests/test_acceptance.py) use for it:

- rounding-level residuals, absolute 1e-7 (test_04's identity residuals);
- the solver's chi error against the truth, absolute 1e-6 (test_06);
- every other float, relative 1e-6 (test_05's bound regression values).

Argmax locations (``at``, ``lhs_at``, ``rhs_at``) are not compared: on
symmetric families such as the round sphere every grid point ties, so
rounding alone picks the reported one, and no acceptance test checks them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RESIDUAL_ABS = 1e-7
CHI_ERROR_ABS = 1e-6
VALUE_REL = 1e-6

LOCATION_KEYS = {"at", "lhs_at", "rhs_at"}
RESIDUAL_SECTIONS = {"gauss-residual", "codazzi-residual", "support-identities"}
RESIDUAL_FIELDS = {("solve", "max_residual"), ("embeddability", "sup_residual"),
                   ("embeddability", "threshold"), ("embeddability", "calibration")}


def _tolerance(path, ref):
    """Largest allowed |value - ref| for the float at this report path."""
    if len(path) >= 3 and path[0] == "sections":
        if path[1] in RESIDUAL_SECTIONS or (path[1], path[2]) in RESIDUAL_FIELDS:
            return RESIDUAL_ABS
        if (path[1], path[2]) == ("truth", "chi_rel_error"):
            return CHI_ERROR_ABS
    return VALUE_REL * abs(ref)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(report, ref):
    """(mismatched paths, drift) of report against the reference report.

    drift is the largest |value - ref| / tolerance over the compared floats,
    so a drift of at most 1 passes; it is 0 when the floats are bit-equal.
    """
    mismatches = []
    drift = 0.0

    def walk(a, b, path):
        nonlocal drift
        if path and path[-1] in LOCATION_KEYS:
            return
        if isinstance(b, dict):
            if not isinstance(a, dict) or a.keys() != b.keys():
                mismatches.append(path)
                return
            for k in b:
                walk(a[k], b[k], path + (k,))
        elif isinstance(b, list):
            if not isinstance(a, list) or len(a) != len(b):
                mismatches.append(path)
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, path + (i,))
        elif _is_number(a) and _is_number(b) and not (isinstance(a, int) and isinstance(b, int)):
            if a == b:
                return
            tol = _tolerance(path, b)
            d = abs(a - b) / tol if tol > 0 else math.inf
            drift = max(drift, d)
            if not d <= 1.0:
                mismatches.append(path)
        elif a != b or type(a) is not type(b):
            mismatches.append(path)

    walk(report, ref, ())
    return mismatches, drift


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


def load(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def save(workload, entries):
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
