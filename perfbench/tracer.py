"""Per-layer trace of one workload call, installed from outside the library.

The tracer wraps the public functions and methods of each layer module and
every module-level binding that imported them (``structure`` imports
``apply_cochain_D``, for example), so the library itself is unchanged.  Each
wrapped call keeps a stack frame; on return its duration, its self time
(duration minus the time its wrapped children took) and, for the layers that
are not per-scalar hot paths, a span ``(name, start, end, parent)`` are
recorded in memory.  ``write`` dumps spans and totals at the end.
"""

import importlib
import json
import sys
import time

# (module, attribute path, group).  A group is the unit a metric sums over.
TARGETS = [
    ("perverse.fields", "Field.add", "fields"),
    ("perverse.fields", "Field.sub", "fields"),
    ("perverse.fields", "Field.mul", "fields"),
    ("perverse.fields", "Field.neg", "fields"),
    ("perverse.fields", "Field.inv", "fields"),
    ("perverse.fields", "Field.div", "fields"),
    ("perverse.poset", "Poset.oplus", "poset"),
    ("perverse.algebra", "PDGA.mul", "algebra"),
    ("perverse.algebra", "_TruncatedTensor.mul", "algebra"),
    ("perverse.algebra", "PDGA.mul_vec", "algebra"),
    ("perverse.algebra", "PDGA.sum_labels_ok", "algebra"),
    ("perverse.algebra", "Bimodule.act_left", "algebra"),
    ("perverse.algebra", "Bimodule.act_right", "algebra"),
    ("perverse.algebra", "Bimodule.act_left_vec", "algebra"),
    ("perverse.algebra", "Bimodule.act_right_vec", "algebra"),
    ("perverse.hochschild", "Cochains.matrix", "hochschild.assembly"),
    ("perverse.hochschild", "apply_cochain_D", "hochschild.cochain_D"),
    ("perverse.linalg", "Subquotient.__init__", "linalg.elim"),
    ("perverse.linalg", "Echelon.add", "linalg.echelon"),
    ("perverse.linalg", "Subquotient.coords", "linalg.query"),
    ("perverse.linalg", "Subquotient.is_boundary", "linalg.query"),
    ("perverse.linalg", "solve", "linalg.query"),
    ("perverse.structure", "brace_value", "structure.brace"),
    ("perverse.structure", "to_cochain", "structure.cochain_op"),
    ("perverse.structure", "BVOperator.__init__", "structure.bv"),
    ("perverse.structure", "BVOperator.delta", "structure.bv"),
    ("perverse.kunneth", "alexander_whitney", "kunneth.aw"),
    ("perverse.kunneth", "tensor_cochain", "kunneth.transport"),
]

# Called millions of times per workload: counted and timed, but no span each.
NO_SPANS = {"fields", "poset", "algebra", "linalg.echelon"}

# Every per-layer metric with its unit, in the order the benchmark lists them.
# trace.overhead_s is filled in by the runner, which also times an untraced
# repetition.
METRICS = [
    ("fields.ops", "count"),
    ("fields.self_s", "s"),
    ("poset.oplus_calls", "count"),
    ("algebra.mul_calls", "count"),
    ("algebra.self_s", "s"),
    ("hochschild.assembly_s", "s"),
    ("hochschild.slots", "count"),
    ("hochschild.nnz", "count"),
    ("hochschild.basis_max", "count"),
    ("hochschild.cochain_D_calls", "count"),
    ("linalg.elim_s", "s"),
    ("linalg.echelon_adds", "count"),
    ("linalg.query_s", "s"),
    ("linalg.queries", "count"),
    ("structure.brace_calls", "count"),
    ("structure.cochain_op_s", "s"),
    ("structure.bv_s", "s"),
    ("kunneth.aw_calls", "count"),
    ("kunneth.aw_words", "count"),
    ("kunneth.aw_useful", "ratio"),
    ("kunneth.aw_s", "s"),
    ("kunneth.transport_s", "s"),
    ("trace.overhead_s", "s"),
]


def _resolve(module, path):
    obj = importlib.import_module(module)
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or None)
        self.funcs = {}      # qualified name -> [calls, self_s]
        self.groups = {}     # group -> [calls, self_s, inclusive_s, depth]
        self.missing = []
        self._stack = []     # frames [child_s, index of nearest kept span]
        self._matrices = {}  # id -> matrix, for hochschild.slots/nnz
        self.slots = 0
        self.nnz = 0
        self.basis_max = 0
        self.aw_words = set()

    def install(self):
        """wrap every target; a target the library no longer has is
        reported on stderr and its metrics stay at zero"""
        hooks = {"Cochains.matrix": self._saw_matrix,
                 "alexander_whitney": self._saw_aw_word}
        for module, path, group in TARGETS:
            try:
                owner, attr = _resolve(module, path)
                orig = owner.__dict__[attr]
            except (KeyError, AttributeError):
                self.missing.append("%s.%s" % (module, path))
                continue
            name = "%s.%s" % (module.split(".")[-1], path)
            wrapped = self._wrap(orig, name, group, hooks.get(path))
            setattr(owner, attr, wrapped)
            if owner is sys.modules[module]:
                # rebind the function wherever a library module imported it
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("perverse."):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        if self.missing:
            print("perfbench: not traced (missing): " +
                  ", ".join(self.missing), file=sys.stderr)

    def _wrap(self, fn, name, group, hook):
        stack = self._stack
        spans = self.spans
        f = self.funcs.setdefault(name, [0, 0.0])
        g = self.groups.setdefault(group, [0, 0.0, 0.0, 0])
        keep = group not in NO_SPANS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                me = len(spans)
                spans.append(None)
            else:
                me = parent
            frame = [0.0, me]
            stack.append(frame)
            g[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                g[3] -= 1
                dur = t1 - t0
                own = dur - frame[0]
                f[0] += 1
                f[1] += own
                g[0] += 1
                g[1] += own
                if not g[3]:
                    g[2] += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[me] = (name, t0, t1, parent)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def _saw_matrix(self, mat, args, kwargs):
        if id(mat) not in self._matrices:
            self._matrices[id(mat)] = mat
            self.slots += 1
            self.nnz += len(mat.entries)
            self.basis_max = max(self.basis_max, mat.nrows, mat.ncols)

    def _saw_aw_word(self, result, args, kwargs):
        self.aw_words.add(args[3] if len(args) > 3 else kwargs["word"])

    def _group(self, group):
        return self.groups.get(group, [0, 0.0, 0.0, 0])

    def metrics(self):
        "the per-layer metrics of the traced call, except trace.overhead_s"
        g = self._group
        aw_calls = g("kunneth.aw")[0]
        return {
            "fields.ops": g("fields")[0],
            "fields.self_s": g("fields")[1],
            "poset.oplus_calls": g("poset")[0],
            "algebra.mul_calls": g("algebra")[0],
            "algebra.self_s": g("algebra")[1],
            "hochschild.assembly_s": g("hochschild.assembly")[2],
            "hochschild.slots": self.slots,
            "hochschild.nnz": self.nnz,
            "hochschild.basis_max": self.basis_max,
            "hochschild.cochain_D_calls": g("hochschild.cochain_D")[0],
            "linalg.elim_s": g("linalg.elim")[2],
            "linalg.echelon_adds": g("linalg.echelon")[0],
            "linalg.query_s": g("linalg.query")[2],
            "linalg.queries": g("linalg.query")[0],
            "structure.brace_calls": g("structure.brace")[0],
            "structure.cochain_op_s": g("structure.cochain_op")[2],
            "structure.bv_s": g("structure.bv")[2],
            "kunneth.aw_calls": aw_calls,
            "kunneth.aw_words": len(self.aw_words),
            "kunneth.aw_useful": len(self.aw_words) / aw_calls if aw_calls else 0.0,
            "kunneth.aw_s": g("kunneth.aw")[2],
            "kunneth.transport_s": g("kunneth.transport")[2],
        }

    def write(self, path):
        "spans and per-function totals as JSON"
        data = {
            "spans": [list(s) for s in self.spans],
            "span_fields": ["name", "start", "end", "parent"],
            "functions": {k: {"calls": v[0], "self_s": v[1]}
                          for k, v in sorted(self.funcs.items())},
            "groups": {k: {"calls": v[0], "self_s": v[1], "inclusive_s": v[2]}
                       for k, v in sorted(self.groups.items())},
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
