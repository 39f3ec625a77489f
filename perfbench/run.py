"""Benchmark for perverse: times whole public calls and checks their outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Each repetition is a fresh interpreter
(perfbench/child.py) that imports the library from ./src, builds and
validates the workload's input, makes one public call and exits, so no cache
outlives the call a user would make.  Repetitions run one at a time, closed
loop, until --seconds have passed; every output is checked against
perfbench/reference/<workload>.json.

--trace 0 reports the end-to-end metrics: medians of wall_s, setup_s and
peak_rss_mb over the repetitions.  A shared host's speed drifts by up to a
fifth between 20 s windows, so wall_s and setup_s are given in
reference-host seconds: each repetition's times are scaled by
PROBE_REF_S / probe_s, where probe_s is what a fixed stdlib-only loop took in
the same process around the call.  The raw medians are printed too.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of perfbench/tracer.py, with trace.overhead_s = median
traced wall_s - median untraced wall_s.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
Exit status: 0 when every output is correct, 1 when one is not, 2 when the
benchmark cannot run here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

CHILD = os.path.join(workloads.HERE, "child.py")
OUT_DIR = os.path.join(workloads.HERE, "out")
CHILD_TIMEOUT_S = 120

# A reference-host second is a second on a host where the probe in child.py
# takes exactly PROBE_REF_S.  The value only fixes the scale; on the host of
# the baseline in README.md the probe took 0.12 to 0.16 s.
PROBE_REF_S = 0.1

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def host_normalized(sample, name):
    "a time of one repetition in reference-host seconds"
    return sample[name] * PROBE_REF_S / sample["probe_s"]


def rep_seed(seed, rep):
    """the seed of one repetition's input and its PYTHONHASHSEED.  Each
    repetition draws other calculus trial cochains and another interpreter
    layout, so a run's median averages over many draws instead of resting on
    one; repetition 0 of seed 0 gets input seed 0, at which the references
    were recorded."""
    return (seed * 100003 + rep) % (2 ** 32 - 1)


def run_child(wl, seed, trace_path=None):
    """one repetition; returns the child's result dict, or None with the
    reason on stderr when the process failed"""
    env = dict(os.environ)
    env["PYTHONPATH"] = workloads.SRC
    env["PYTHONHASHSEED"] = str(seed)
    cmd = [sys.executable, CHILD, wl.name, str(seed)]
    if trace_path:
        cmd.append(trace_path)
    try:
        proc = subprocess.run(cmd, env=env, cwd=workloads.ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s seed %d timed out" % (wl.name, seed),
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: %s seed %d exited %d:\n%s"
              % (wl.name, seed, proc.returncode, proc.stderr[-2000:]),
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, seed, seconds, reference, trace=False):
    """repeat the workload for `seconds`; returns the result object that the
    benchmark prints, plus the raw samples under "samples".  A traced run
    gives every repetition the same input, so that its counts must agree."""
    samples, traced, mismatches = [], [], []
    failed = 0
    trace_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "trace-%s.json" % wl.name)
    start = time.monotonic()
    rep = 0
    while rep < (2 if trace else 1) or time.monotonic() - start < seconds:
        traced_rep = trace and rep % 2 == 1
        this_seed = rep_seed(seed, 0 if trace else rep)
        res = run_child(wl, this_seed, trace_path if traced_rep else None)
        rep += 1
        if res is None:
            failed += 1
            continue
        bad = wl.check(res["output"], reference, this_seed)
        if bad:
            failed += 1
            mismatches.extend(bad[:3])
        (traced if traced_rep else samples).append(res)
    for line in mismatches[:10]:
        print("perfbench: %s: %s" % (wl.name, line), file=sys.stderr)

    # a repetition that failed left no sample, so correct is False whenever
    # a list below is empty
    metrics = {}
    correct = failed == 0
    if trace:
        if traced and samples:
            metrics, repeat_ok = layer_metrics(traced, samples)
            correct = correct and repeat_ok
    elif samples:
        for name, unit in END_TO_END:
            if unit == "s":
                value = statistics.median(host_normalized(s, name)
                                          for s in samples)
            else:
                value = statistics.median(s[name] for s in samples)
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": rep, "failed": failed,
            "metrics": metrics, "samples": samples, "traced": traced}


def layer_metrics(traced, untraced):
    """medians of the traced times, the counts (which must repeat exactly
    across traced repetitions) and the tracing overhead"""
    first = traced[0]["layers"]
    repeat_ok = True
    metrics = {}
    for name, unit in tracer.METRICS:
        if name == "trace.overhead_s":
            value = (statistics.median(host_normalized(t, "wall_s")
                                       for t in traced) -
                     statistics.median(host_normalized(u, "wall_s")
                                       for u in untraced))
        elif unit in ("count", "ratio"):
            value = first[name]
            if any(t["layers"][name] != value for t in traced):
                print("perfbench: count %s differs between traced runs: %r"
                      % (name, [t["layers"][name] for t in traced]),
                      file=sys.stderr)
                repeat_ok = False
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat_ok


def tail(values):
    """the highest percentile with at least ten samples above it, as
    (percent, value), or None with fewer than eleven samples"""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def report(wl, seed, result, trace):
    "human-readable lines: every metric by name with its unit"
    n = len(result["samples"])
    print("%s  seed %d  %s  %d repetitions (%d traced), one fresh interpreter each"
          % (wl.name, seed, "traced" if trace else "untraced",
             result["attempted"], len(result["traced"])))
    for name, m in result["metrics"].items():
        line = "  %-28s %14.6g %s" % (name, m["value"], m["unit"])
        if not trace and m["unit"] == "s":
            t = tail([host_normalized(s, name) for s in result["samples"]])
            line += "  median of %d%s; raw median %.6g s" % (
                n, "" if t is None else ", p%.0f %.6g" % t,
                statistics.median(s[name] for s in result["samples"]))
        print(line)
    if result["samples"]:
        print("  %-28s %14.6g s" % ("probe_s (median)", statistics.median(
            s["probe_s"] for s in result["samples"])))
    print("  %-28s %14.6g (%d of %d failed)"
          % ("failed_frac", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "perverse", "__init__.py")):
        print("perfbench: no library at %s; run from the root of a checkout"
              % workloads.SRC, file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        res = measure(wl, args.seed, args.seconds, wl.load_reference(),
                      trace=bool(args.trace))
        report(wl, args.seed, res, args.trace)
        results[name] = res

    if len(names) == 1:
        res = results[names[0]]
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
