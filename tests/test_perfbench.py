"""The benchmark's per-layer trace (perfbench/tracer.py) wraps library
functions and methods by name.  A refactor that moves one of them would
leave its layer metric at zero without failing the benchmark, so every
target must resolve here, without installing the tracer.  A change that
moves work past a wrapped function hides its layer the same way, so the
traced hh workloads must still show their slot assembly, and the traced
suite and comparison workloads their braces, BV operator and D* calls, some
of which run in a module the tracer reaches only through the bindings it
rewrites in the modules that define them.  Each fresh
interpreter compiles every module it imports, so a workload's setup and
call must import only the library modules they run."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_is_defined_on_its_owner():
    tracer = _load_tracer()
    missing = []
    for module, path, _ in tracer.TARGETS:
        try:
            owner, attr = tracer._resolve(module, path)
        except AttributeError:
            missing.append((module, path))
            continue
        if attr not in vars(owner):
            missing.append((module, path))
    assert not missing, missing


def _traced_layers(workload, tmp_path):
    "the per-layer metrics of one traced repetition of a workload"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
         workload, "0", str(tmp_path / "trace.json")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload,pairs", [("hh-trunc3", 21),
                                            ("hh-labeled-fp", 46)])
def test_the_trace_sees_one_slot_matrix_per_distinct_pair_of_bases(
        workload, pairs, tmp_path):
    # the table path assembles each distinct (basis of (r, q), basis of
    # (r, q + 1)) once, and through Cochains.matrix, which the trace wraps
    layers = _traced_layers(workload, tmp_path)
    assert layers["hochschild.slots"] == pairs
    assert layers["hochschild.assembly_s"] > 0


@pytest.mark.parametrize("workload", ["calculus-corpus", "kunneth-s2s2"])
def test_the_trace_sees_the_structure_layer_wherever_it_is_called(
        workload, tmp_path):
    # the identity suite calls braces, the BV operator and D* from
    # perverse.suite, which is imported only when verify_calculus runs,
    # after the tracer is installed; the comparison calls them from kunneth
    layers = _traced_layers(workload, tmp_path)
    assert layers["structure.brace_calls"] > 0, layers
    assert layers["structure.bv_s"] > 0, layers
    if workload == "calculus-corpus":
        assert layers["hochschild.cochain_D_calls"] > 0, layers


_WORKLOAD_LOADS = """
import sys
import workloads

def loaded():
    return sorted(m for m in sys.modules if m.startswith("perverse."))

wl = workloads.WORKLOADS[sys.argv[1]]
state = wl.build(0)
print(*loaded())
wl.run(state)
print(*loaded())
"""


@pytest.mark.parametrize("workload,runs", [
    ("hh-trunc3", set()), ("hh-labeled-fp", set()),
    ("calculus-corpus", {"perverse.structure", "perverse.suite"}),
    ("kunneth-s2s2", {"perverse.structure"})],
    ids=["hh-trunc3", "hh-labeled-fp", "calculus-corpus", "kunneth-s2s2"])
def test_a_workload_imports_only_the_modules_it_runs(workload, runs):
    # no workload builds a perverse complex, and an HH table runs no
    # identity suite, so neither the setup nor the call of an hh workload
    # compiles structure or complexes; the Kunneth comparison reads
    # structure but not the suite, and no workload reads functoriality
    proc = subprocess.run(
        [sys.executable, "-c", _WORKLOAD_LOADS, workload],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, call = (set(line.split()) for line in proc.stdout.splitlines())
    lazy = {"perverse.structure", "perverse.suite", "perverse.functoriality",
            "perverse.complexes"}
    assert not lazy & setup, setup
    assert lazy & call == runs, call
