"""Job-level benchmark of weylcheck's four subcommands.

    python3 perfbench/run.py --workload verify-bulk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload solve-cold --smoke --seconds 1 --trace 1
    python3 perfbench/run.py --record

One client in a closed loop runs weylcheck jobs one after another.  Each job
is a fresh worker process (worker.py), as a CLI call is, because two caches
live per process (the Codazzi calibration and the jet basis tables) and
every CLI call pays for them.  The job is timed inside its worker around
weylcheck.cli.main(argv); setup (interpreter start and imports) is timed
separately, from spawn to ready.  Every report is checked against the
reference recorded for its job (reference.py); --record rewrites those
references from the current tree.

--trace 0 prints the end-to-end metrics, the same three on every workload:
job_p50_s is the mean over the cycle's slots of each slot's median job wall
time, so the workload's mix stays fixed whichever jobs a run reached;
setup_s is the median spawn-to-ready time of every worker in the run;
peak_rss_mb is the slot mean of the workers' median peak RSS.  Per-command
medians with sample counts, fail_frac and every sample are printed or kept
in the results file.  --trace 1 prints the per-layer metrics (tracing.py)
from a traced run in which each job runs once untraced and once traced; the
difference is the tracing overhead.  The last stdout line is the JSON
result; every sample and the run metadata go to results/ beside this file.
--smoke swaps in small configs (resolution 5 to 7) for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_SPAWNS = 5     # setup-only workers per run, so setup_s has samples
RUN_LIMIT_S = 170.0  # no job starts or runs past this, so a run ends within 180 s


class WorkerError(RuntimeError):
    """A worker process died before reporting."""


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv, trace, timeout):
    """Run one worker; its JSON line, or WorkerError."""
    cmd = [sys.executable, str(WORKER), repr(now()), "1" if trace else "0", json.dumps(argv)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    return json.loads(lines[-1])


def execute(job, trace, workdir, timeout):
    """Run one job in a worker: (its result line, the report without timing,
    or None when the job wrote none)."""
    cfg, out = workdir / "config.json", workdir / "report.json"
    cfg.write_text(json.dumps(job.config))
    out.unlink(missing_ok=True)
    result = spawn([job.command, "--config", str(cfg), "--out", str(out), "--quiet"],
                   trace, timeout)
    report = reference.strip_timing(json.loads(out.read_text())) if out.exists() else None
    return result, report


class Run:
    """One benchmark run: its jobs, samples and the references they meet."""

    def __init__(self, workload, workdir, run_start):
        self.references = reference.load(workload)
        self.workdir = Path(workdir)
        self.run_start = run_start
        self.setup_samples = []
        self.samples = []

    def remaining(self):
        return RUN_LIMIT_S - (now() - self.run_start)

    def setup(self):
        out = spawn(None, False, self.remaining())
        self.setup_samples.append(out["setup_s"])
        return out

    def job(self, job, trace):
        sample = {"key": job.key, "slot": job.slot, "command": job.command, "traced": trace}
        try:
            result, report = execute(job, trace, self.workdir, self.remaining())
        except WorkerError as exc:
            sample.update(ok=False, error=str(exc))
            self.samples.append(sample)
            return sample
        self.setup_samples.append(result["setup_s"])
        ref = self.references[job.key]
        if report is not None:
            mismatches, drift = reference.compare(report, ref["report"])
        else:
            mismatches, drift = [("no report",)], None
        sample.update(
            setup_s=result["setup_s"], job_s=result["job_s"], peak_rss_mb=result["peak_rss_mb"],
            exit=result["exit"], drift=drift,
            ok=result["exit"] == ref["exit"] and not mismatches,
            mismatches=["/".join(map(str, p)) for p in mismatches[:10]])
        for extra in ("layers", "trace", "unwrapped"):
            if extra in result:
                sample[extra] = result[extra]
        self.samples.append(sample)
        return sample


def tail(values):
    """(percentile, value) of the highest of p99/p90 with >= 10 samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def group(samples, field, by):
    out = {}
    for s in samples:
        if field in s:
            out.setdefault(s[by], []).append(s[field])
    return out


def cycle_mean(samples, field, slots):
    """Mean over the cycle's slots of each slot's median: a job's typical
    cost with the workload's mix held fixed, whatever jobs a run reached.
    None when a slot has no sample (its jobs all failed)."""
    groups = group(samples, field, "slot")
    if len(groups) < slots:
        return None
    return sum(statistics.median(groups[slot]) for slot in range(slots)) / slots


def loop_jobs(run, args, slots):
    """Untraced closed loop: jobs until the next would pass --seconds, and
    at least two in every slot of the cycle, so that no slot's median is a
    single, possibly stalled, job."""
    start = now()
    walls = []
    for cycle in workloads.cycles(args.workload, args.seed, args.smoke):
        for job in cycle:
            t0 = now()
            run.job(job, False)
            walls.append(now() - t0)
            per_slot = Counter(s["slot"] for s in run.samples)
            covered = len(per_slot) == slots and min(per_slot.values()) >= 2
            if run.remaining() <= 0 or (
                    now() - start + statistics.median(walls) > args.seconds and covered):
                return


def loop_traced(run, args):
    """Traced loop: whole cycles, each job once untraced then once traced,
    until the next cycle would pass --seconds; at least one cycle."""
    start = now()
    cycles_done = 0
    for cycle in workloads.cycles(args.workload, args.seed, args.smoke):
        t0 = now()
        for job in cycle:
            for trace in (False, True):
                run.job(job, trace)
                if run.remaining() <= 0:
                    return cycles_done
        cycles_done += 1
        if now() - start + (now() - t0) > args.seconds:
            return cycles_done


# (metric, numerator, denominator) of the per-call ratios
RATIOS = (("jets.mul.points_per_call", "jets.mul.points", "jets.mul.calls"),
          ("intrinsic.curvature.points_per_call", "intrinsic.curvature.points",
           "intrinsic.curvature.calls"),
          ("embedsolve.march.points_per_call", "embedsolve.march.points",
           "embedsolve.march.curvature_calls"))


def layer_metrics(run, cycles_done, slots):
    """Per-layer values per workload cycle, the ratios, overhead and drift."""
    traced = [s for s in run.samples if s.get("traced") and "layers" in s]
    per_cycle = {}
    for s in traced:
        for name, value in s["layers"].items():
            per_cycle[name] = per_cycle.get(name, 0) + value
    per_cycle = {k: v / cycles_done for k, v in per_cycle.items()}
    numerators = {num for _, num, _ in RATIOS}
    values = {k: v for k, v in per_cycle.items() if k not in numerators}
    for name, num, den in RATIOS:
        values[name] = per_cycle[num] / per_cycle[den] if per_cycle[den] else 0.0
    untraced = [s for s in run.samples if not s["traced"]]
    traced_s, untraced_s = cycle_mean(traced, "job_s", slots), cycle_mean(untraced, "job_s", slots)
    if traced_s is not None and untraced_s is not None:
        values["trace.overhead_s"] = traced_s - untraced_s
    drifts = [s["drift"] for s in run.samples if s.get("drift") is not None]
    if drifts:
        values["cli.report.max_drift"] = max(drifts)
    return values


def counts_repeat(run):
    """True when every job key gives identical counts each time it is traced."""
    seen = {}
    for s in run.samples:
        if "layers" in s:
            counts = {k: v for k, v in s["layers"].items() if not k.endswith(".s")}
            if seen.setdefault(s["key"], counts) != counts:
                return False
    return True


def git_state():
    """sha and dirty flag of the checkout; None for both outside git."""
    def git(*a):
        return subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        return {"sha": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except OSError:
        return {"sha": None, "dirty": None}


def metadata(args, environment, loadavg):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git": git_state(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **environment,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")},
        "loadavg_start": loadavg,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def describe(name, values, unit):
    line = f"  {name:<34} {statistics.median(values):12.6g} {unit:<6} n={len(values)}"
    t = tail(values)
    if t:
        line += f"  p{t[0]}={t[1]:.6g}"
    return line


def bench(args):
    spec = load_spec()
    if not (SRC / "weylcheck" / "cli.py").is_file():
        sys.exit(f"no weylcheck sources under {SRC}")
    run_start, loadavg = now(), os.getloadavg()
    compileall.compile_dir(str(SRC), quiet=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    slots = len(workloads.cycle_template(args.workload, args.smoke))
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as workdir:
        run = Run(args.workload, workdir, run_start)
        try:
            environment = run.setup()["environment"]
            for _ in range(SETUP_SPAWNS - 1):
                run.setup()
        except WorkerError as exc:
            sys.exit(f"worker setup failed: {exc}")
        meta = metadata(args, environment, loadavg)
        cycles_done = loop_traced(run, args) if args.trace else loop_jobs(run, args, slots)

    failed = sum(not s["ok"] for s in run.samples)
    timed = [s for s in run.samples if "job_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"  {'fail_frac':<34} {failed / max(len(run.samples), 1):12.6g} {'':<6} "
          f"n={len(run.samples)} ({failed} failed)")
    print(describe("setup_s", run.setup_samples, "s"))
    for cmd, values in sorted(group(untraced, "job_s", "command").items()):
        print(describe(f"{cmd}_p50_s", values, "s"))

    if args.trace:
        spec_metrics = spec["per_layer"]
        metrics = layer_metrics(run, cycles_done, slots) if timed and cycles_done else {}
        repeat = counts_repeat(run)
    else:
        spec_metrics = spec["end_to_end"]
        metrics = {"job_p50_s": cycle_mean(untraced, "job_s", slots),
                   "setup_s": statistics.median(run.setup_samples),
                   "peak_rss_mb": cycle_mean(untraced, "peak_rss_mb", slots)}
        repeat = None
    # a slot whose jobs all failed leaves None; inf drifts would break strict JSON
    metrics = {k: v for k, v in metrics.items() if v is not None and math.isfinite(v)}
    units = {m["name"]: m["unit"] for m in spec_metrics}

    if args.trace:
        for name in units:
            if name in metrics:
                print(f"  {name:<34} {metrics[name]:12.6g} {units[name]}")
        print(f"  per workload cycle ({cycles_done} traced); layer -> workloads whose job_p50_s it moves:")
        for layer, moves in tracing.LAYER_MAP.items():
            print(f"    {layer:<28} {moves}")
        unwrapped = sorted({u for s in run.samples for u in s.get("unwrapped", [])})
        if unwrapped:
            print(f"  unwrapped (missing) trace targets: {', '.join(unwrapped)}", file=sys.stderr)
    else:
        for name in ("job_p50_s", "peak_rss_mb"):
            if name in metrics:
                print(f"  {name:<34} {metrics[name]:12.6g} {units[name]:<6} n={len(untraced)} "
                      f"(mean of the {slots} cycle slots' medians)")

    complete = set(metrics) == set(units)
    result = {"correct": failed == 0 and complete and repeat is not False,
              "attempted": len(run.samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}}
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps({
        "metadata": meta, "result": result, "counts_repeat": repeat,
        "setup_samples": run.setup_samples, "samples": run.samples,
        "slots": slots}, indent=1, default=str) + "\n")
    print(f"results: {RESULTS_DIR / name}")
    print(json.dumps(result))


def record(names):
    """Rewrite reference/<workload>.json from the current tree (untraced)."""
    compileall.compile_dir(str(SRC), quiet=1)
    RESULTS_DIR.mkdir(exist_ok=True)
    for workload in names:
        entries = {}
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as workdir:
            for smoke in (False, True):
                for job in workloads.all_jobs(workload, smoke):
                    result, report = execute(job, False, Path(workdir), 600)
                    if result["exit"] != 0:
                        sys.exit(f"{job.key} exited {result['exit']}; workloads must not fail")
                    entries[job.key] = {"exit": result["exit"], "report": report}
                    print(f"{job.key}: exit 0, {result['job_s']:.2f} s", flush=True)
        reference.save(workload, entries)


def main():
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the
    # running worker, so a stopped benchmark leaves no process behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        return record([args.workload] if args.workload else list(workloads.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    bench(args)


if __name__ == "__main__":
    main()
