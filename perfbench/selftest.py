"""Self-tests of the benchmark harness (stdlib unittest; not collected by the
repository's pytest run because the file name does not start with test_).

    python3 perfbench/selftest.py

They check that the output check can fail, and that every count metric of
the traced run repeats exactly between two traced runs of the same code.
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in tracer.METRICS if unit == "count"]


class OutputCheckCanFail(unittest.TestCase):
    def test_perturbed_hh_dimension_fails_the_run(self):
        wl = workloads.WORKLOADS["hh-labeled-fp"]
        reference = copy.deepcopy(wl.load_reference())
        key, dim = reference[0]
        reference[0] = [key, dim + 1]
        res = run.measure(wl, workloads.DEFAULT_SEED, 0, reference)
        self.assertGreater(res["failed"] / res["attempted"], 0)
        self.assertFalse(res["correct"])

    def test_unperturbed_reference_passes(self):
        wl = workloads.WORKLOADS["hh-labeled-fp"]
        res = run.measure(wl, workloads.DEFAULT_SEED, 0, wl.load_reference())
        self.assertEqual(res["failed"], 0)
        self.assertTrue(res["correct"])

    def test_failed_calculus_record_fails_at_any_seed(self):
        wl = workloads.WORKLOADS["calculus-corpus"]
        reference = wl.load_reference()
        output = copy.deepcopy(reference)
        self.assertEqual(wl.check(output, reference, 12345), [])
        output["trivial"][0]["status"] = "fail"
        self.assertTrue(wl.check(output, reference, 12345))
        self.assertTrue(wl.check(output, reference, workloads.DEFAULT_SEED))


class CountsRepeatExactly(unittest.TestCase):
    def test_two_traced_runs_agree_on_every_count(self):
        for name in workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name]
            with self.subTest(workload=name):
                a, b = (run.measure(wl, 3, 0, wl.load_reference(), trace=True)
                        for _ in range(2))
                self.assertTrue(a["correct"] and b["correct"])
                for metric in COUNTS + ["kunneth.aw_useful"]:
                    self.assertEqual(a["metrics"][metric]["value"],
                                     b["metrics"][metric]["value"], metric)
                self.assertEqual(set(a["metrics"]),
                                 {m for m, _ in tracer.METRICS})


if __name__ == "__main__":
    unittest.main()
