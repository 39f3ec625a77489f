"""Source checks on src/perverse that no behavioural test can see."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "perverse")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)


def source_trees():
    "(file name, parsed tree) of each module in src/perverse"
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                yield fname, ast.parse(fh.read(), fname)


def _own_nodes(fn):
    "the nodes of fn's body, without the bodies of nested scopes"
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(function, name) for each plain name a function assigns with `=` and
    never reads, nested functions included as readers; unpacking targets,
    `_`-prefixed names and global/nonlocal names are skipped"""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        stored, declared = set(), set()
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                stored.update(t.id for t in targets
                              if isinstance(t, ast.Name))
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        out += [(fn.name, name) for name in sorted(stored - read - declared)
                if not name.startswith("_")]
    return out


def test_no_function_assigns_a_name_it_never_reads():
    found = [(fname,) + hit for fname, tree in source_trees()
             for hit in unread_locals(tree)]
    assert not found, found


def private_imports(tree):
    "each `_`-prefixed name a module imports from another module"
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name():
    found = [(fname, name) for fname, tree in source_trees()
             for name in private_imports(tree)]
    assert not found, found


# parameters kept although their function never reads them, with the reason
_KEPT_PARAMETERS = {
    # perfbench/tracer.py records the AW bar word as the 4th positional
    # argument of alexander_whitney, so T keeps its place before it
    ("kunneth.py", "alexander_whitney", "T"),
}


def unread_parameters(tree):
    """(function, parameter) for each parameter of a module-level function
    or method that the body, nested scopes included, never reads.  Nested
    functions and lambdas are not checked, since their callers fix their
    signatures; nor is the first parameter (self or cls) of a method"""
    fns = [(n, 0) for n in tree.body if isinstance(n, _FUNCTIONS)]
    fns += [(n, 1) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for n in cls.body if isinstance(n, _FUNCTIONS)]
    out = []
    for fn, skip in fns:
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params = params[skip:] + [p.arg for p in (a.vararg, a.kwarg) if p]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(fn.name, p) for p in params if p not in read]
    return out


def test_no_function_has_a_parameter_it_never_reads():
    found = [(fname,) + hit for fname, tree in source_trees()
             for hit in unread_parameters(tree)
             if (fname,) + hit not in _KEPT_PARAMETERS]
    assert not found, found


def linalg_only_calls(tree):
    "(name, line) of each call of Subquotient(...) or Echelon(...) in a module"
    return [(name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for name in ("Subquotient", "Echelon")
            if name in (getattr(node.func, "id", None),
                        getattr(node.func, "attr", None))]


def test_only_linalg_builds_a_subquotient():
    # a homology dimension comes from ranks; a Subquotient is built only
    # where SlotComplex reads representatives or coordinates.  Echelon is
    # the one elimination: other modules read rank, kernel, solutions and
    # coordinates through linalg's functions and classes
    found = [(fname,) + hit for fname, tree in source_trees()
             if fname != "linalg.py" for hit in linalg_only_calls(tree)]
    assert not found, found


def true_divisions(tree):
    "the line of each `/` or `/=` in a module"
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_no_module_divides_with_a_slash():
    # over Q an integral scalar is an int, and int / int is a float; exact
    # division goes through Field.inv and Field.div
    found = [(fname, line) for fname, tree in source_trees()
             for line in true_divisions(tree)]
    assert not found, found


def callers(tree, name):
    "the names of the functions in a module whose own bodies call name"
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)
            for node in _own_nodes(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name]


def test_cochains_are_read_through_ops():
    # an operation reads a cochain through cochain_op's Op; D* pushes each
    # term forward, so only the AW transport regroups a cochain itself
    found = sorted({caller for _, tree in source_trees()
                    for caller in callers(tree, "index_cochain")})
    assert found == ["cochain_op", "tensor_cochain"], found
    gone = {"eval_cochain", "action_pairing", "cup", "bracket"}
    defined = [(fname, node.name) for fname, tree in source_trees()
               for node in ast.walk(tree)
               if isinstance(node, _FUNCTIONS + (ast.ClassDef,))
               and node.name in gone]
    assert not defined, defined
    # nor does hochschild keep a coface enumeration or a preimage table of
    # its own: D* reads the algebra's letter_preimages
    hoch = dict(source_trees())["hochschild.py"]
    named = {getattr(node, key, None) for node in ast.walk(hoch)
             for key in ("name", "attr", "id")} & {"cofaces", "preimages"}
    assert not named, named


def test_library_behaviour_does_not_depend_on_assert():
    # python -O drops assert statements, so a library check raises instead
    found = [(fname, node.lineno) for fname, tree in source_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_the_label_rule_lives_in_the_poset():
    # the label of a sequence, None past the top, is Poset.oplus_all; no
    # module keeps a copy of it under the names its copies had
    gone = {"word_label", "label_ok"}
    named = sorted({(fname, getattr(node, key))
                    for fname, tree in source_trees()
                    for node in ast.walk(tree)
                    for key in ("name", "attr", "id")
                    if getattr(node, key, None) in gone})
    assert not named, named


def _items_loop(node):
    "a loop `for key, c in v.items():` whose second target is a plain name"
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "attr", None) == "items"
            and isinstance(node.target, ast.Tuple)
            and len(node.target.elts) == 2
            and isinstance(node.target.elts[1], ast.Name))


def is_hand_extension(loop, coeffs=()):
    """a loop over v.items() whose body, under at most one `if` and through
    nested such loops, is only vec_iadd(F, out, ..., c) with a coefficient
    built from the loops' own coefficients: a linear or bilinear extension"""
    if not _items_loop(loop):
        return False
    coeffs += (loop.target.elts[1].id,)
    body = loop.body
    if len(body) == 1 and isinstance(body[0], ast.If) and not body[0].orelse:
        body = body[0].body
    if len(body) != 1:
        return False
    if isinstance(body[0], ast.For):
        return is_hand_extension(body[0], coeffs)
    call = getattr(body[0], "value", None)
    if not (isinstance(call, ast.Call) and len(call.args) == 4
            and getattr(call.func, "id", None) == "vec_iadd"):
        return False
    c = call.args[3]
    names = {n.id for n in ast.walk(c) if isinstance(n, ast.Name)}
    return isinstance(c, (ast.Name, ast.Call)) and set(coeffs) <= names


def test_every_linear_extension_goes_through_linalg():
    # linalg.linear and linalg.bilinear extend a map of basis elements to
    # vectors; no other module writes that loop
    found = [(fname, node.lineno) for fname, tree in source_trees()
             if fname != "linalg.py" for node in ast.walk(tree)
             if is_hand_extension(node)]
    assert not found, found


def test_a_matrix_is_read_through_its_columns():
    # a SparseMatrix stores its column vectors; its `entries`, a view built
    # on each read for the benchmark's per-layer trace, is defined in
    # linalg only and read by no module
    read = [(fname, node.lineno) for fname, tree in source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "entries"]
    defined = [(fname, node.lineno) for fname, tree in source_trees()
               if fname != "linalg.py" for node in ast.walk(tree)
               if isinstance(node, _FUNCTIONS) and node.name == "entries"]
    assert not read and not defined, (read, defined)
