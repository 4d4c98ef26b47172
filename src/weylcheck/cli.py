"""Command-line entry point: configure a family, run checks, emit reports.

Reports are canonical JSON: keys sorted, floats printed with 17 significant
digits (enough to reproduce every float64 bit-exactly), no locale or hash
dependence anywhere.  Identical config and seed therefore produce
byte-identical reports except for the wall-time section.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 numerical-domain error (nonpositive curvature, cone obstruction, frame
drift, a singular matrix, a jet with zero constant term to invert, a float
overflow or a bound side that is not finite).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from ._forkjoin import Forked
from .bounds import (
    c2bound_report,
    diam_weyl_report,
    evaluate_family_grid,
    graph_diameter,
    second_deriv_report,
    weyl_report,
)
from .embedsolve import (
    MAX_SUBSTEPS,
    IntrinsicField,
    align_rigid,
    embeddability_check,
    reconstruct,
    solve_contracted_gauss,
)
from .errors import ConvergenceError, DomainError, IntegrationError, worst
from .intrinsic import principal_curvatures
from .surfaces import (
    CHART_RADIUS,
    GRID_EXTENT,
    Ellipsoid,
    RadialGraph,
    RoundSphere,
    ball_grid,
    epsilon_family,
    metric_values,
    radial_graph_bump,
    radial_graph_constant,
    radial_graph_ellipsoid,
    radial_graph_random,
    surface_values,
)

VALID_CHECKS = ("weyl", "diam-weyl", "c2bound", "second-deriv",
                "gauss-residual", "codazzi-residual", "support-identities")
RESIDUAL_TOL = 1e-7

# Largest grid resolution a run may ask for, from a memory estimate of both
# processes a command runs at once (the parent and its forked child).
# verify, the hungriest command, peaks at about 60 order-5 jets (56 float64
# coefficients each, 26.25 KiB in all) per grid point: one order-5 jet
# product alone gathers 3 x 462 floats a point, about 25 jets.  The ball grid
# holds at most (pi/6) res^3 points and the imports take ~61 MiB, so the peak
# stays under 61 MiB + 26.25 KiB (pi/6) res^3: 1841 MiB at resolution 51,
# 2059 MiB (over 2 GiB) at 53.  Measured with tracemalloc in a process that
# has already run one verify, verify on the ellipsoid (1, 1.2, 0.9, 1.05)
# with every check peaks at 9.1, 7.4 and 7.4 KiB per point of both charts at
# resolutions 9, 13 and 17, so the estimate keeps a wide margin.  verify's
# child, the graph diameter, peaked at 69.2, 68.9 and 73.6 MiB RSS there, of
# which ~36 MiB is the parent's pages shared at the fork: about 1.2 KiB per
# point of both charts over 33 MiB of scipy, so ~185 MiB of its own at 51
# (130,534 points) and 2026 MiB for the two.  reconstruct at 51 stays under
# 1.7 GiB with MAX_SUBSTEPS substeps (see embedsolve.MAX_SUBSTEPS).  solve
# forks chart 1 of the Codazzi calibration; on the ellipsoid at resolutions
# 9, 13 and 17 (257, 925 and 2109 points a chart) it peaked at 41.3, 49.3
# and 62.5 MiB RSS, its child at 31.5, 39.5 and 52.7 MiB, much of that shared
# at the fork.  By tracemalloc the parent peaks at 12.0, 10.7 and 10.6 KiB
# per point and the child adds 8.7, 8.2 and 8.2 KiB of its own, so at 51
# (65,267 points) the two stay near 61 MiB + 19 KiB x 65,267 = 1272 MiB,
# under verify's estimate.
MAX_RESOLUTION = 51


class ConfigError(ValueError):
    """The run configuration is invalid."""


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


@dataclass
class RunConfig:
    family: dict = dc_field(default_factory=lambda: {"variant": "sphere"})
    resolution: int = 9
    extent: float = GRID_EXTENT
    chart: int = 0
    checks: tuple = VALID_CHECKS
    tolerances: dict = dc_field(default_factory=dict)
    seed: int = 0
    diameter: Optional[float] = None
    theta: Optional[float] = None
    h: float = 1e-2
    path_plan: tuple = (0, 1, 2)
    eps_list: tuple = (0.1, 0.05, 0.025)
    compare_truth: bool = True
    out: Optional[str] = None
    grid_dump: Optional[str] = None

    KEYS = ("family", "resolution", "extent", "chart", "checks", "tolerances",
            "seed", "diameter", "theta", "h", "path_plan", "eps_list",
            "compare_truth", "out", "grid_dump")

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(cls.KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("checks", "path_plan", "eps_list"):
            if not isinstance(data.get(key, ()), (list, tuple)):
                raise ConfigError(f"{key} must be a list")
        cfg = cls(**{k: data[k] for k in data})
        cfg.checks = tuple(cfg.checks)
        cfg.path_plan = tuple(cfg.path_plan)
        cfg.eps_list = tuple(cfg.eps_list)
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.family, dict):
            raise ConfigError("family must be an object")
        if not _is_int(self.resolution) or self.resolution < 5 \
                or self.resolution % 2 == 0:
            raise ConfigError("resolution must be an odd integer >= 5")
        if self.resolution > MAX_RESOLUTION:
            raise ConfigError(f"resolution {self.resolution} exceeds the cap "
                              f"{MAX_RESOLUTION}, the largest grid whose "
                              f"estimated peak memory stays under 2 GiB")
        if not _is_positive(self.extent) or not 1.0 < self.extent < CHART_RADIUS:
            raise ConfigError(f"extent must lie in (1, {CHART_RADIUS:g})")
        if not _is_int(self.chart) or self.chart not in (0, 1):
            raise ConfigError("chart must be 0 or 1")
        for name in self.checks:
            if name not in VALID_CHECKS:
                raise ConfigError(f"unknown check {name!r}; valid: "
                                  f"{', '.join(VALID_CHECKS)}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be an object")
        for name, tol in self.tolerances.items():
            if name not in VALID_CHECKS and name != "reconstruct":
                raise ConfigError(f"tolerance for unknown check {name!r}")
            if not _is_positive(tol):
                raise ConfigError("tolerances must be positive")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.diameter is not None and not _is_positive(self.diameter):
            raise ConfigError("diameter must be positive when given")
        if self.theta is not None and not _is_positive(self.theta):
            raise ConfigError("theta must be positive when given")
        if not _is_positive(self.h):
            raise ConfigError("step size h must be positive")
        # strict: the spacing reconstruct() reads from the grid lies within
        # 1e-12 of this one, and it allows a step 1e-9 above its own
        spacing = 2.0 * self.extent / (self.resolution - 1)
        if self.h > spacing:
            raise ConfigError(f"step size h {self.h} exceeds the lattice "
                              f"spacing {spacing} = 2 extent / (resolution - 1)")
        if spacing / self.h > MAX_SUBSTEPS + 0.5:   # round(spacing / h) > MAX
            raise ConfigError(f"step size h {self.h} needs more than "
                              f"{MAX_SUBSTEPS} RK4 substeps per lattice spacing "
                              f"{spacing}")
        if not all(_is_int(p) for p in self.path_plan) \
                or sorted(self.path_plan) != [0, 1, 2]:
            raise ConfigError("path_plan must be a permutation of (0, 1, 2)")
        if not self.eps_list or not all(_is_positive(e) for e in self.eps_list):
            raise ConfigError("eps_list must be nonempty and positive")
        if not isinstance(self.compare_truth, bool):
            raise ConfigError("compare_truth must be true or false")
        if not all(isinstance(p, (str, type(None))) for p in (self.out, self.grid_dump)):
            raise ConfigError("out and grid_dump must be path strings")
        for path in (self.out, self.grid_dump):
            if path is None:
                continue
            if not path:
                raise ConfigError("cannot write '': the path is empty")
            if "\0" in path:
                raise ConfigError(f"cannot write {path!r}: the path holds a NUL byte")
            if not Path(path).parent.is_dir():
                raise ConfigError(f"cannot write {path}: no directory "
                                  f"{Path(path).parent}")
            if Path(path).is_dir():
                raise ConfigError(f"cannot write {path}: it is a directory")

    # out and grid_dump route output, they do not shape it; leaving them
    # out keeps reports byte-identical across different destinations.
    REPORT_KEYS = tuple(k for k in KEYS if k not in ("out", "grid_dump"))

    def to_dict(self):
        return {k: getattr(self, k) for k in self.REPORT_KEYS}

    def build_family(self):
        spec = dict(self.family)
        variant = spec.pop("variant", "sphere")
        try:
            if variant == "sphere":
                fam = RoundSphere(spec.pop("radius", 1.0),
                                  dim=spec.pop("dim", 3))
            elif variant == "ellipsoid":
                fam = Ellipsoid(spec.pop("semi_axes"))
            elif variant == "radial_graph":
                kind = spec.pop("kind", "constant")
                if kind == "constant":
                    fam = radial_graph_constant(spec.pop("value", 1.0))
                elif kind == "ellipsoid":
                    fam = radial_graph_ellipsoid(spec.pop("semi_axes"))
                elif kind == "bump":
                    fam = radial_graph_bump(spec.pop("amplitude", 0.1))
                elif kind == "random":
                    fam = radial_graph_random(spec.pop("seed", self.seed),
                                              spec.pop("amplitude", 0.05))
                else:
                    raise ConfigError(f"unknown radial_graph kind {kind!r}")
            else:
                raise ConfigError(f"unknown family variant {variant!r}")
        except KeyError as exc:
            raise ConfigError(f"family spec is missing {exc}") from None
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad family parameters: {exc}") from None
        if spec:
            raise ConfigError(f"unused family keys: {sorted(spec)}")
        if not _is_int(fam.dim) or fam.dim not in (2, 3):
            raise ConfigError(f"family dimension must be 2 or 3, got {fam.dim!r}")
        return fam


# ------------------------------------------------------ canonical output

def _plain(obj):
    """Recursively convert numpy containers to plain python values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def fmt17(x):
    """A float with 17 significant digits; parses back bit-identically."""
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".17g")


def canonical_json(obj, indent=0):
    """Deterministic JSON: sorted keys, fmt17 floats, two-space indent."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
                for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def render_text(report):
    lines = [f"weylcheck {report['command']}  version {report['version']}"]
    failed = 0
    sections = report["sections"]
    for name, sec in sections.items():
        if isinstance(sec, dict) and "passed" in sec:
            status = "PASS" if sec["passed"] else "FAIL"
            failed += 0 if sec["passed"] else 1
        else:
            status = "  ok"
        detail = " ".join(
            f"{k}={fmt17(v) if isinstance(v, float) else v}"
            for k, v in sec.items()
            if isinstance(v, (int, float, str)) and k not in ("passed", "name")
        ) if isinstance(sec, dict) else str(sec)
        lines.append(f"  {name:<20} {status}  {detail}")
    lines.append(f"{len(sections)} sections, {failed} failed")
    return "\n".join(lines)


# ------------------------------------------------------------- commands

def _tol(cfg, name, default):
    return float(cfg.tolerances.get(name, default))


def _residual_section(eg, values, tol):
    idx, sup, ok = worst(values, tol)
    return {"sup": sup, "tol": tol, "passed": ok, "at": eg.location(idx)}


def cmd_verify(cfg: RunConfig):
    family = cfg.build_family()
    if family.dim < 3 and "c2bound" in cfg.checks:
        raise ConfigError("the c2bound check needs a family of dimension >= 3")
    timing = {}
    sections = {}
    # the graph diameter reads the family alone: on Linux a forked child
    # computes it while this process evaluates the grid, and its value (or
    # its error) is taken at the diam-weyl check
    graph = Forked(graph_diameter, family, cfg.resolution, cfg.extent) \
        if "diam-weyl" in cfg.checks and cfg.diameter is None else None
    with graph or contextlib.nullcontext():
        t0 = time.perf_counter()
        eg = evaluate_family_grid(family, cfg.resolution, cfg.extent)
        timing["grid"] = time.perf_counter() - t0

        for check in cfg.checks:
            t0 = time.perf_counter()
            if check == "weyl":
                sections[check] = weyl_report(
                    eg, cfg.tolerances.get("weyl")).to_dict()
            elif check == "diam-weyl":
                d, source = (cfg.diameter, "provided") if graph is None \
                    else (graph.result(), "graph")
                sections[check] = diam_weyl_report(
                    eg, d=d, tol=cfg.tolerances.get("diam-weyl"),
                    d_source=source).to_dict()
            elif check == "c2bound":
                sections[check] = c2bound_report(
                    eg, cfg.tolerances.get("c2bound")).to_dict()
            elif check == "second-deriv":
                sections[check] = second_deriv_report(
                    eg, cfg.tolerances.get("second-deriv")).to_dict()
            elif check == "gauss-residual":
                sections[check] = _residual_section(
                    eg, eg.per_point(lambda sd: sd.gauss_residual()),
                    _tol(cfg, check, RESIDUAL_TOL))
            elif check == "codazzi-residual":
                sections[check] = _residual_section(
                    eg, eg.per_point(lambda sd: sd.codazzi_residual()),
                    _tol(cfg, check, RESIDUAL_TOL))
            elif check == "support-identities":
                vals = eg.per_point(lambda sd: np.stack(sd.support_identities(), axis=-1))
                tol = _tol(cfg, check, RESIDUAL_TOL)
                subs = {label: _residual_section(eg, vals[:, k], tol)
                        for k, label in enumerate(("hessian", "gradient", "curvature"))}
                sections[check] = {
                    "passed": all(s["passed"] for s in subs.values()), **subs}
            timing[check] = time.perf_counter() - t0

    if cfg.grid_dump:
        _write_grid_dump(eg, cfg.grid_dump)
    return sections, timing


def _write_grid_dump(eg, path):
    cols = eg.table()
    n = eg.coords.shape[1]
    header = ["chart"] + [f"x{i+1}" for i in range(n)] + \
        ["H", "R", "lap_R", "chi_norm", "gauss_residual", "codazzi_residual"]
    rows = [("\t").join(header)]
    for k in range(eg.num_points):
        cells = [str(int(cols["chart"][k]))]
        cells += [format(c, ".17g") for c in eg.coords[k]]
        for key in header[n + 1:]:
            cells.append(format(float(cols[key][k]), ".17g"))
        rows.append("\t".join(cells))
    _write(path, "\n".join(rows) + "\n")


def _write(path, text):
    """Write text to the file path; a failure is a config error (exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _chart_ball(cfg: RunConfig):
    """The configured 3-D family and chart ball grid, for solve, reconstruct, family."""
    family = cfg.build_family()
    if family.dim != 3:
        raise ConfigError("this command needs a three-dimensional family")
    return family, ball_grid(cfg.resolution, cfg.extent, 3)


def _solved_field(cfg: RunConfig):
    """(family, pts, field, chi, timing): the timed solve on the chart ball."""
    family, pts = _chart_ball(cfg)
    t0 = time.perf_counter()
    field = IntrinsicField.from_family(family, cfg.chart, pts)
    chi = solve_contracted_gauss(field)
    return family, pts, field, chi, {"solve": time.perf_counter() - t0}


def cmd_solve(cfg: RunConfig):
    family, pts, field, chi, timing = _solved_field(cfg)
    # solve_contracted_gauss raises ConvergenceError (exit 3) when a residual
    # is above SOLVE_RESIDUAL_LIMIT, so a solve that gets here has passed;
    # `passed` stays, as in every section of the report
    sections = {"solve": {
        "points": int(pts.shape[0]),
        "max_residual": float(chi.residuals.max()),
        "min_eps_gap": float(chi.gaps.min()),
        "min_principal": float(chi.principal_min().min()),
        "passed": True,
    }}

    t0 = time.perf_counter()
    verdict = embeddability_check(field, chi, theta=cfg.theta)
    timing["embeddability"] = time.perf_counter() - t0
    sections["embeddability"] = {"passed": verdict.embeddable,
                                 **verdict.to_dict()}

    if cfg.compare_truth:
        t0 = time.perf_counter()
        _, _, truth = surface_values(family, cfg.chart, pts)
        rel = float(np.abs(chi.values - truth).max() / np.abs(truth).max())
        sections["truth"] = {"chi_rel_error": rel, "passed": bool(rel <= 1e-6)}
        timing["truth"] = time.perf_counter() - t0
    return sections, timing


def cmd_reconstruct(cfg: RunConfig):
    family, pts, field, chi, timing = _solved_field(cfg)
    t0 = time.perf_counter()
    rec = reconstruct(field, chi, path_plan=cfg.path_plan, h=cfg.h)
    timing["reconstruct"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    truth, _, _ = surface_values(family, cfg.chart, pts)
    _, _, rms = align_rigid(rec.X, truth)
    timing["align"] = time.perf_counter() - t0
    tol = _tol(cfg, "reconstruct", 1e-4)
    sections = {"reconstruction": {
        "nodes": int(rec.X.shape[0]),
        "h": rec.h,
        "plan": list(rec.plan),
        "isometry_sup": rec.isometry_sup,
        "holonomy_sup": rec.holonomy_sup,
        "rms_vs_truth": rms,
        "tol": tol,
        "passed": bool(rms <= tol),
    }}
    return sections, timing


def cmd_family(cfg: RunConfig):
    family, pts = _chart_ball(cfg)
    if not isinstance(family, RadialGraph):
        raise ConfigError("the family command needs a radial_graph family")
    timing = {}
    g_base = metric_values(family, cfg.chart, pts)
    rows = []
    t0 = time.perf_counter()
    for eps in cfg.eps_list:
        fam_eps = epsilon_family(family, float(eps))
        _, g_eps, chi_eps = surface_values(fam_eps, cfg.chart, pts)
        rows.append({
            "eps": float(eps),
            "min_chi_eigenvalue": float(principal_curvatures(g_eps, chi_eps).min()),
            "metric_deviation": float(np.abs(g_eps - g_base).max()),
        })
    timing["family"] = time.perf_counter() - t0
    devs = [r["metric_deviation"] for r in rows]
    ordered = sorted(range(len(rows)), key=lambda i: -rows[i]["eps"])
    monotone = all(devs[ordered[i]] > devs[ordered[i + 1]]
                   for i in range(len(ordered) - 1))
    convex = all(r["min_chi_eigenvalue"] > 0 for r in rows)
    sections = {"family": {
        "rows": rows,
        "deviation_monotone": bool(monotone),
        "all_convex": bool(convex),
        "passed": bool(monotone and convex),
    }}
    return sections, timing


COMMANDS = {"verify": cmd_verify, "solve": cmd_solve,
            "reconstruct": cmd_reconstruct, "family": cmd_family}


# ----------------------------------------------------------- entry point

def build_report(command, cfg, sections, timing):
    return _plain({
        "schema": 1,
        "version": __version__,
        "command": command,
        "config": cfg.to_dict(),
        "sections": sections,
        "timing": timing,
    })


def run(command, cfg: RunConfig):
    sections, timing = COMMANDS[command](cfg)
    report = build_report(command, cfg, sections, timing)
    failed = any(isinstance(s, dict) and s.get("passed") is False
                 for s in report["sections"].values())
    return report, (1 if failed else 0)


def _parser():
    parser = argparse.ArgumentParser(
        prog="weylcheck",
        description="curvature-bound verification and embedding "
                    "reconstruction for convex hypersurface families")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report as canonical JSON here")
        p.add_argument("--seed", type=int)
        p.add_argument("--resolution", type=int)
        p.add_argument("--checks", help="comma-separated check names")
        p.add_argument("--quiet", action="store_true")
    return parser


def load_config(args) -> RunConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.resolution is not None:
        data["resolution"] = args.resolution
    if args.checks is not None:
        data["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.out is not None:
        data["out"] = args.out
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        # overflow, division by an underflowed zero and NaN are reported by
        # the finiteness checks (exit 3), not as numpy warnings on stderr
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            report, code = run(args.command, cfg)
        text = canonical_json(report) + "\n"
        if cfg.out:
            _write(cfg.out, text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IntegrationError, ConvergenceError,
            np.linalg.LinAlgError, ZeroDivisionError, OverflowError) as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
