"""The benchmark's per-layer trace (perfbench/tracer.py) wraps library
functions and methods by name.  A refactor that moves one of them would
leave its layer metric at zero without failing the benchmark, so every
target must resolve here, without installing the tracer."""

import importlib.util
import os

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
