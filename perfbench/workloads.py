"""The benchmark's workloads: which weylcheck jobs run, in which order.

A job is one CLI call, ``weylcheck <command> --config <file>``, named by a
key such as ``verify/random-23/r21``.  A workload is a cycle of slots; each
pass over the cycle draws every slot's family (random-graph seeds among
them) and the job order from the workload seed, so the program only ever
sees generated configs.  Reference reports exist for every key a workload
can produce (see ``run.py --record``), which is why the random-graph seeds
come from a fixed pool rather than from the whole integer range.
"""

from __future__ import annotations

import random
from typing import NamedTuple

ELLIPSOID = ("ellipsoid", {"variant": "ellipsoid", "semi_axes": [1.0, 1.2, 0.9, 1.05]})
SPHERE = ("sphere", {"variant": "sphere"})
BUMP = ("bump", {"variant": "radial_graph", "kind": "bump", "amplitude": 0.1})
RANDOM = [(f"random-{seed}", {"variant": "radial_graph", "kind": "random",
                              "seed": seed, "amplitude": 0.05})
          for seed in (11, 23, 37, 53)]

# Each workload: (full-size cycle, smoke-size cycle).  A cycle entry (a
# slot) is (command, families to draw one from, extra config keys).
# verify-bulk is the bulk-array regime (resolution 21: grid jet products
# whose temporaries exceed L2, graph build, landmark Dijkstra; embedsolve
# never runs).  reconstruct-march uses the same jets and intrinsic layers on
# ~11-point batches, so a bulk-kernel gain that adds per-call overhead shows
# there.  It runs at resolution 9 like the CLI default but with h 0.05 (six
# RK4 steps per lattice segment, ~600 curvature() calls) instead of 0.01
# (~2900 calls, ~15 s a job): the regime is the same, and a run holds
# several jobs instead of two, which on a noisy machine is the difference
# between a steady median and a coin toss.  solve-cold pays the Codazzi
# calibration cold, as every CLI process does, and carries the fourth
# subcommand, family.
WORKLOADS = {
    "verify-bulk": (
        [("verify", fams, {"resolution": 21}) for fams in ([ELLIPSOID], [SPHERE], [BUMP], RANDOM)],
        [("verify", fams, {"resolution": 7}) for fams in ([ELLIPSOID], [SPHERE], [BUMP], RANDOM)],
    ),
    "reconstruct-march": (
        [("reconstruct", fams, {"h": 0.05}) for fams in ([ELLIPSOID], [BUMP], RANDOM)],
        [("reconstruct", fams, {"resolution": 5, "h": 0.1}) for fams in ([ELLIPSOID], [BUMP], RANDOM)],
    ),
    "solve-cold": (
        [("solve", fams, {"resolution": 13}) for fams in ([ELLIPSOID], [BUMP], RANDOM)]
        + [("family", fams, {"resolution": 13}) for fams in ([BUMP], RANDOM)],
        [("solve", fams, {"resolution": 5}) for fams in ([ELLIPSOID], [BUMP], RANDOM)]
        + [("family", fams, {"resolution": 5}) for fams in ([BUMP], RANDOM)],
    ),
}


class Job(NamedTuple):
    key: str      # names the job's reference report
    slot: int     # index of its entry in the cycle template
    command: str
    config: dict


def make_job(slot, command, family, extra):
    """A Job for one cycle entry (its index: slot) with a concrete family."""
    label, spec = family
    config = {"family": spec, **extra}
    res = extra.get("resolution", 9)
    key = f"{command}/{label}/r{res}" + (f"-h{extra['h']}" if "h" in extra else "")
    return Job(key, slot, command, config)


def cycle_template(workload, smoke):
    return WORKLOADS[workload][1 if smoke else 0]


def all_jobs(workload, smoke):
    """Every job the workload can produce, one per key: what --record runs."""
    return [make_job(slot, command, family, extra)
            for slot, (command, families, extra) in enumerate(cycle_template(workload, smoke))
            for family in families]


def cycles(workload, seed, smoke):
    """Endless sequence of cycles (lists of jobs), reproducible from seed."""
    rng = random.Random(f"{workload}:{seed}")
    template = cycle_template(workload, smoke)
    while True:
        jobs = [make_job(slot, command, rng.choice(families), extra)
                for slot, (command, families, extra) in enumerate(template)]
        rng.shuffle(jobs)
        yield jobs
