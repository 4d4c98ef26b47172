"""Run one weylcheck CLI job in a fresh interpreter and report what it cost.

    python3 perfbench/worker.py SPAWNED TRACE ARGV_JSON

SPAWNED is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s covers interpreter start plus importing weylcheck.cli
with numpy and scipy, as a CLI user pays it.  ARGV_JSON is the argument list
for weylcheck.cli.main, or null to stop after setup.  TRACE 1 installs the
layer spans (tracing.py) after setup is measured.  The last stdout line is a
JSON object; the process exits 0 whenever it got that far.
"""

import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _environment():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main():
    spawned, trace, argv = float(sys.argv[1]), sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, SRC_DIR)
    import weylcheck.cli
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if not os.path.abspath(weylcheck.cli.__file__).startswith(SRC_DIR + os.sep):
        sys.exit(f"weylcheck was imported from {weylcheck.cli.__file__}, not {SRC_DIR}")
    out = {"setup_s": setup_s}
    if argv is None:
        out["environment"] = _environment()
    else:
        tracer = None
        if trace:
            import tracing
            tracer, out["unwrapped"] = tracing.install()
        t0 = time.perf_counter()
        out["exit"] = weylcheck.cli.main(argv)
        out["job_s"] = time.perf_counter() - t0
        if tracer is not None:
            out["layers"] = tracing.layer_values(tracer, out["job_s"])
            out["trace"] = tracer.to_dict()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
