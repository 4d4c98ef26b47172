"""Layer spans for traced jobs, recorded from outside the program.

install() wraps the public functions of weylcheck's layers (jets, surfaces,
intrinsic, bounds, embedsolve, cli) in the worker process before main()
runs.  Each function is wrapped under every name through which a module
looks it up (``from .surfaces import evaluate_grid`` gives bounds and cli
their own binding), so the program's source stays untouched.  A span whose
name is already open passes straight through, which keeps recursion
(canonical_json) and nested calls of one layer as one span.

Spans are aggregated in memory by (parent, name) into calls, total and self
time (self = span minus its child spans); counters are kept beside them.
matmap and symfun are reached by no subcommand and are not wrapped.
"""

from __future__ import annotations

import functools
import math
import pathlib
import sys
import time

# Layer -> the workloads whose job_p50_s its per-layer metrics should move
# (the benchmark's one job-time metric); run.py prints it with traced runs.
LAYER_MAP = {
    "jets.mul": "verify-bulk, solve-cold; reconstruct-march as per-call overhead "
                "(a bulk-kernel change should be no worse there)",
    "surfaces.ambient_jets": "verify-bulk; solve-cold (family)",
    "surfaces.evaluate_grid": "verify-bulk; solve-cold (family)",
    "surfaces.metric_values": "verify-bulk; solve-cold (family)",
    "intrinsic.curvature": "reconstruct-march (small batches); verify-bulk (bulk)",
    "intrinsic.graph_build": "verify-bulk only",
    "intrinsic.diameter": "verify-bulk only",
    "bounds.grid": "verify-bulk",
    "bounds.reports": "verify-bulk",
    "embedsolve.metric_jets": "solve-cold; reconstruct-march",
    "embedsolve.solve": "solve-cold",
    "embedsolve.calibration": "solve-cold",
    "embedsolve.embeddability": "solve-cold",
    "embedsolve.reconstruct": "reconstruct-march only; no change elsewhere",
    "embedsolve.align": "reconstruct-march only",
    "cli.report": "every workload, slightly (report-path guard)",
}

# (span name, module, attribute path) of every wrapped function.
TARGETS = [
    ("jets.mul", "weylcheck.jets", "Jet.__mul__"),
    ("surfaces.ambient_jets", "weylcheck.surfaces", "RoundSphere.ambient_jets"),
    ("surfaces.ambient_jets", "weylcheck.surfaces", "Ellipsoid.ambient_jets"),
    ("surfaces.ambient_jets", "weylcheck.surfaces", "RadialGraph.ambient_jets"),
    ("surfaces.evaluate_grid", "weylcheck.surfaces", "evaluate_grid"),
    ("surfaces.metric_values", "weylcheck.surfaces", "metric_values"),
    ("intrinsic.curvature", "weylcheck.intrinsic", "curvature"),
    ("intrinsic.graph_build", "weylcheck.intrinsic", "build_geodesic_graph"),
    ("intrinsic.diameter", "weylcheck.intrinsic", "diameter"),
    ("bounds.grid", "weylcheck.bounds", "evaluate_family_grid"),
    ("bounds.reports", "weylcheck.bounds", "weyl_report"),
    ("bounds.reports", "weylcheck.bounds", "diam_weyl_report"),
    ("bounds.reports", "weylcheck.bounds", "c2bound_report"),
    ("bounds.reports", "weylcheck.bounds", "second_deriv_report"),
    ("embedsolve.metric_jets", "weylcheck.embedsolve", "metric_jets"),
    ("embedsolve.solve", "weylcheck.embedsolve", "solve_contracted_gauss"),
    ("embedsolve.calibration", "weylcheck.embedsolve", "codazzi_threshold"),
    ("embedsolve.embeddability", "weylcheck.embedsolve", "embeddability_check"),
    ("embedsolve.reconstruct", "weylcheck.embedsolve", "reconstruct"),
    ("embedsolve.align", "weylcheck.embedsolve", "align_rigid"),
    ("cli.report", "weylcheck.cli", "build_report"),
    ("cli.report", "weylcheck.cli", "canonical_json"),
]


class Tracer:
    """Open-span stack plus per-(parent, name) aggregates and counters."""

    def __init__(self):
        self.stack = []            # open spans: [name, start, child time]
        self.open = set()          # names of the open spans
        self.spans = {}            # (parent, name) -> [calls, total s, self s]
        self.counts = {}

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, on_return=None):
        """fn wrapped in a span; on_return(tracer, args, result) runs inside it."""
        stack, open_, spans = self.stack, self.open, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            open_.add(name)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, result)
                return result
            finally:
                dur = clock() - frame[1]
                stack.pop()
                open_.discard(name)
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += dur
                rec = spans.get((parent, name))
                if rec is None:
                    rec = spans[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]

        return wrapper

    def self_time(self, name):
        return sum(rec[2] for (_, n), rec in self.spans.items() if n == name)

    def calls(self, name):
        return sum(rec[0] for (_, n), rec in self.spans.items() if n == name)

    def to_dict(self):
        return {
            "spans": [{"parent": p, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                      for (p, n), r in sorted(self.spans.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }


# ------------------------------------------------------------ counters

def _on_mul(tracer, args, result):
    a = args[0]
    points = math.prod(a.coeffs.shape[:-1])
    # monomial pairs of total degree <= order (the products formed) and
    # coefficients per jet, from the jet's shape alone
    pairs = math.comb(a.order + 2 * a.nvars, 2 * a.nvars)
    coeffs = math.comb(a.order + a.nvars, a.nvars)
    tracer.count("jets.mul.points", points)
    # float64 gathered operands and their product (points x pairs each) plus
    # the result (points x coefficients): computed from array shapes
    tracer.count("jets.mul.bytes", 8 * points * (3 * pairs + coeffs))


def _on_evaluate_grid(tracer, args, result):
    tracer.count("surfaces.evaluate_grid.points", math.prod(result.coords.shape[:-1]))


def _on_curvature(tracer, args, result):
    points = math.prod(args[0].batch_shape)
    tracer.count("intrinsic.curvature.points", points)
    if "embedsolve.reconstruct" in tracer.open:
        tracer.count("embedsolve.march.curvature_calls")
        tracer.count("embedsolve.march.points", points)


def _on_graph(tracer, args, result):
    tracer.count("intrinsic.graph.edges", result.num_edges)


def _on_diameter(tracer, args, result):
    tracer.count("intrinsic.dijkstra.sources", result.num_sources)


def _on_solve(tracer, args, result):
    if "embedsolve.calibration" in tracer.open:
        tracer.count("embedsolve.calibration.solves")


ON_RETURN = {
    "jets.mul": _on_mul,
    "surfaces.evaluate_grid": _on_evaluate_grid,
    "intrinsic.curvature": _on_curvature,
    "intrinsic.graph_build": _on_graph,
    "intrinsic.diameter": _on_diameter,
    "embedsolve.solve": _on_solve,
}


def _resolve(module, path):
    obj = sys.modules[module]
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def install():
    """Wrap every target in the already-imported weylcheck modules.

    Returns (tracer, missing) where missing lists targets that no longer
    exist, so a refactor that renames a layer shows up as an unwrapped
    target in the results instead of stopping the run.
    """
    import weylcheck.cli  # noqa: F401  (imports every traced module)
    from weylcheck.jets import Jet

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "weylcheck" or name.startswith("weylcheck.")]
    missing = []
    for name, module, path in TARGETS:
        try:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if name == "jets.mul":
            # only Jet x Jet products are spans; scalar scaling passes through
            traced = tracer.wrap(name, original, _on_mul)

            def mul(self, other, _traced=traced, _plain=original):
                if isinstance(other, Jet):
                    return _traced(self, other)
                return _plain(self, other)

            setattr(owner, attr, functools.wraps(original)(mul))
            continue
        wrapper = tracer.wrap(name, original, ON_RETURN.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    _wrap_report_write(tracer)
    return tracer, missing


def _wrap_report_write(tracer):
    """Time the --out write as part of cli.report: cli looks up Path itself."""
    cli = sys.modules["weylcheck.cli"]

    class ReportPath(type(pathlib.Path())):
        write_text = tracer.wrap("cli.report", type(pathlib.Path()).write_text)

    cli.Path = ReportPath


def layer_values(tracer, job_s):
    """Per-layer sums of one traced job; run.py turns them into metrics."""
    t, c = tracer, tracer.counts
    return {
        "jets.mul.calls": t.calls("jets.mul"),
        "jets.mul.s": t.self_time("jets.mul"),
        "jets.mul.points": c.get("jets.mul.points", 0),
        "jets.mul.bytes_computed": c.get("jets.mul.bytes", 0),
        "surfaces.ambient_jets.s": t.self_time("surfaces.ambient_jets"),
        "surfaces.evaluate_grid.s": t.self_time("surfaces.evaluate_grid"),
        "surfaces.evaluate_grid.points": c.get("surfaces.evaluate_grid.points", 0),
        "surfaces.metric_values.s": t.self_time("surfaces.metric_values"),
        "surfaces.metric_values.calls": t.calls("surfaces.metric_values"),
        "intrinsic.curvature.s": t.self_time("intrinsic.curvature"),
        "intrinsic.curvature.calls": t.calls("intrinsic.curvature"),
        "intrinsic.curvature.points": c.get("intrinsic.curvature.points", 0),
        "intrinsic.graph_build.s": t.self_time("intrinsic.graph_build"),
        "intrinsic.graph.edges": c.get("intrinsic.graph.edges", 0),
        "intrinsic.diameter.s": t.self_time("intrinsic.diameter"),
        "intrinsic.dijkstra.sources": c.get("intrinsic.dijkstra.sources", 0),
        "bounds.grid.s": t.self_time("bounds.grid"),
        "bounds.reports.s": t.self_time("bounds.reports"),
        "embedsolve.metric_jets.s": t.self_time("embedsolve.metric_jets"),
        "embedsolve.solve.s": t.self_time("embedsolve.solve"),
        "embedsolve.solve.calls": t.calls("embedsolve.solve"),
        "embedsolve.calibration.s": t.self_time("embedsolve.calibration"),
        "embedsolve.calibration.solves": c.get("embedsolve.calibration.solves", 0),
        "embedsolve.embeddability.s": t.self_time("embedsolve.embeddability"),
        "embedsolve.reconstruct.s": t.self_time("embedsolve.reconstruct"),
        "embedsolve.march.curvature_calls": c.get("embedsolve.march.curvature_calls", 0),
        "embedsolve.march.points": c.get("embedsolve.march.points", 0),
        "embedsolve.align.s": t.self_time("embedsolve.align"),
        "cli.report.s": t.self_time("cli.report"),
        "unattributed.s": job_s - sum(rec[2] for rec in t.spans.values()),
    }
