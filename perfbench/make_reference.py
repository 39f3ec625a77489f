"""Record the reference output of each workload, and cross-check it once by
an independent route.

    python3 perfbench/make_reference.py [--write] [WORKLOAD ...]

Without --write it only recomputes and compares with the checked-in files.
The cross-checks:
  hh-trunc3        the table equals the dense oracle hh_table_oracle;
  hh-labeled-fp    the table equals the same random algebra's table over Q;
  calculus-corpus  every record passes;
  kunneth-s2s2     every record passes, and the cup, bracket and Delta
                   transports each ran trials.
"""

import argparse
import json
import os
import sys
import time

import workloads

sys.path.insert(0, workloads.SRC)


def cross_check(name, output):
    "problems found by the independent route, as strings"
    from perverse.algebra import algebra_as_bimodule
    from perverse.fields import QQ
    from perverse.poset import Poset
    if name == "hh-trunc3":
        from perverse.hochschild import hh_table_oracle
        args = workloads.build_hh_trunc3(workloads.DEFAULT_SEED)
        oracle = workloads.jsonable(hh_table_oracle(*args))
        return [] if oracle == output else ["differs from hh_table_oracle"]
    if name == "hh-labeled-fp":
        from perverse.builders import random_pdga
        from perverse.hochschild import hh_table
        from perverse.kunneth import hh_degree_support
        A = random_pdga(QQ, Poset(4), 103)
        L = workloads.HH_LABELED_L
        over_q = workloads.jsonable(
            hh_table(A, algebra_as_bimodule(A), L, *hh_degree_support(A, L)))
        return [] if over_q == output else ["differs from the table over Q"]
    if name == "calculus-corpus":
        return ["%s: %s failed" % (alg, r["identity"])
                for alg, records in output.items() for r in records
                if r["status"] != "pass"]
    if name == "kunneth-s2s2":
        bad = ["%s failed" % r["identity"] for r in output["records"]
               if r["status"] != "pass"]
        for r in output["records"]:
            if r["identity"].split()[0] in ("cup", "bracket", "Delta") \
                    and r["trials"] == 0:
                bad.append("%s ran no trials" % r["identity"])
        return bad
    raise KeyError(name)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true")
    ap.add_argument("names", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    status = 0
    for name in args.names:
        wl = workloads.WORKLOADS[name]
        seed = workloads.DEFAULT_SEED
        output = workloads.jsonable(wl.run(wl.build(seed)))
        t0 = time.perf_counter()
        problems = cross_check(name, output)
        print("%s: cross-check %s (%.1f s)" % (
            name, "; ".join(problems) or "ok", time.perf_counter() - t0))
        if problems:
            status = 1
            continue
        if args.write:
            with open(wl.reference_path(), "w") as fh:
                json.dump({"workload": name, "seed": seed, "output": output},
                          fh, sort_keys=True)
                fh.write("\n")
        elif os.path.exists(wl.reference_path()):
            same = wl.load_reference() == output
            print("%s: %s the checked-in reference"
                  % (name, "matches" if same else "DIFFERS FROM"))
            status |= 0 if same else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
