"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED [TRACE_FILE]

Prints one JSON line: setup_s (import, build and validate the input),
wall_s (the public call), probe_s (the host-speed probe, averaged over one
run just before and one just after the call), peak_rss_mb (this process),
the output in plain JSON form and, with TRACE_FILE, the per-layer metrics of
the call; the spans go to TRACE_FILE.  The runner starts it with PYTHONPATH
set to the repository's src directory.
"""

import json
import resource
import sys
import time
from fractions import Fraction

import workloads

PROBE_ITERATIONS = 30000


def probe():
    """time of a fixed stdlib-only loop in the library's instruction mix
    (Fraction arithmetic, dict updates keyed by tuples, calls); it does not
    touch the library, so it measures only how fast this host runs Python
    right now"""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    acc = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + x * (i % 5)
    return time.perf_counter() - t0


def main(argv):
    name, seed = argv[0], int(argv[1])
    trace_path = argv[2] if len(argv) > 2 else None
    wl = workloads.WORKLOADS[name]

    t0 = time.perf_counter()
    state = wl.build(seed)
    setup_s = time.perf_counter() - t0

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    probe_before = probe()
    t1 = time.perf_counter()
    out = wl.run(state)
    wall_s = time.perf_counter() - t1
    probe_s = (probe_before + probe()) / 2

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": workloads.jsonable(out),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(trace_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
