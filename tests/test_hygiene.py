"""Source checks on src/perverse, and on the tests, that no behavioural test
can see."""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "perverse")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)


def source_trees(directory=SRC):
    "(file name, parsed tree) of each module in directory"
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname)) as fh:
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


def unread_imports(tree):
    """(line, name) of each name a module-level import binds and the module
    never reads"""
    bound = {alias.asname or alias.name.partition(".")[0]: node.lineno
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    # in the library and in the tests alike
    found = [(fname,) + hit for directory in (SRC, TESTS)
             for fname, tree in source_trees(directory)
             for hit in unread_imports(tree)]
    assert not found, found


def definitions(tree):
    """(qualified name, node) of each module-level function and class and
    each method, named Class.method, of a module-level class"""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name + "." + fn.name, fn) for fn in node.body
                        if isinstance(fn, _FUNCTIONS))


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
    out = []
    for qual, fn in definitions(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        skip = 1 if "." in qual else 0
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params = params[skip:] + [p.arg for p in (a.vararg, a.kwarg) if p]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(fn.name, p) for p in params if p not in read]
    return out


def test_no_function_has_a_parameter_it_never_reads():
    found = {(fname,) + hit for fname, tree in source_trees()
             for hit in unread_parameters(tree)}
    # an entry whose file, function or parameter is gone, or whose
    # parameter is now read, is stale
    assert not found - _KEPT_PARAMETERS, found - _KEPT_PARAMETERS
    assert not _KEPT_PARAMETERS - found, _KEPT_PARAMETERS - found


# functions, classes and methods (named Class.method) that no module of
# src/perverse reads, with the reader outside the library that keeps each
_KEPT_UNREAD = {
    ("fields.py", "Field.div"):
        "perfbench/tracer.py wraps it; tests/test_perfbench.py resolves it",
    ("algebra.py", "tensor_algebra"):
        "the one builder of _TruncatedTensor, whose mul perfbench/tracer.py "
        "wraps",
    ("hochschild.py", "hh_table_oracle"):
        "perfbench/make_reference.py checks hh-trunc3 against it",
    ("functoriality.py", "InducedHH"): "acceptance criterion 8",
    ("functoriality.py", "InducedHH.is_iso"): "acceptance criterion 8",
    ("hochschild.py", "Cochains.window_exact"):
        "the README's truncation rule, until a library query reads it",
    ("builders.py", "corpus"): "the test and benchmark inputs",
    ("builders.py", "random_pdga"): "the test and benchmark inputs",
    ("fields.py", "Field.sub"):
        "perfbench/tracer.py wraps it; tests/test_fields.py calls it",
    ("linalg.py", "SparseMatrix.entries"):
        "perfbench/tracer.py counts nnz through it",
    ("linalg.py", "solve"):
        "perfbench/tracer.py wraps it; tests/test_structure.py calls it",
}


def bound_names(fn):
    """the names a function or lambda binds in its own scope: parameters,
    stores, imports, nested definitions and handler names, less those it
    declares global or nonlocal"""
    a = fn.args
    bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
             + [p for p in (a.vararg, a.kwarg) if p]}
    declared = set()
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, _FUNCTIONS + (ast.ClassDef,)) or (
                isinstance(node, ast.ExceptHandler) and node.name):
            bound.add(node.name)
    return bound - declared


def loaded_names(trees):
    """name -> the nodes that load it, as an attribute or as a name that
    resolves to the module binding (no enclosing function binds it), or
    import it, in any of the trees"""
    out = {}

    def visit(node, local):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.setdefault(alias.name, []).append(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load) and node.id not in local:
            out.setdefault(node.id, []).append(node)
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            local = local | bound_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    for tree in trees:
        visit(tree, frozenset())
    return out


def reads_an_attribute(node):
    "an attribute load whose receiver is not a string literal"
    return isinstance(node, ast.Attribute) and not (
        isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str))


def unread_definitions(trees):
    """(file, qualified name) of each definition, dunders aside, that no
    module loads outside its own body; a method is read only as an
    attribute, so a local of its name or a str method does not keep it,
    and a module-level name is not read through a local of its name"""
    loads = loaded_names(trees.values())
    out = set()
    for fname, tree in trees.items():
        for qual, node in definitions(tree):
            name = qual.rpartition(".")[2]
            own = {id(sub) for sub in ast.walk(node)}
            readers = [ld for ld in loads.get(name, [])
                       if "." not in qual or reads_an_attribute(ld)]
            if not (name.startswith("__") and name.endswith("__")) and all(
                    id(ld) in own for ld in readers):
                out.add((fname, qual))
    return out


def test_every_function_has_a_reader():
    # dead code does not stay in the library: a name no module reads goes,
    # or _KEPT_UNREAD names the reader outside src/perverse that keeps it;
    # an entry whose definition is gone or now has a library reader is stale
    found = unread_definitions(dict(source_trees()))
    assert not found - set(_KEPT_UNREAD), found - set(_KEPT_UNREAD)
    assert not set(_KEPT_UNREAD) - found, set(_KEPT_UNREAD) - found


def defined_names(tree):
    """the bare names of a module's definitions (functions, classes and
    methods) and of its module-level assignments"""
    return {qual.rpartition(".")[2] for qual, _ in definitions(tree)} | {
        t.id for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)}


# test inputs, test checks and the ambient category of perverse complexes,
# which left the library for tests/oracles.py
_MOVED_TO_ORACLES = {"opposite", "opposite_and_enveloping",
                     "validate_bimodule", "quasi_iso_fixture", "carrier",
                     "quotient", "rows", "lower_covers", "free_perverse",
                     "unit_perverse", "_box_objects", "_box_keys",
                     "box_tensor", "internal_hom", "linear_dual",
                     "validate_perverse", "perverse_homology", "slot_diff",
                     "Bar"}

# methods whose work tests/oracles.py does under another name, or inlines
_GONE_METHODS = {"Bimodule.validate", "PerverseComplex.validate",
                 "PerverseComplex.homology", "PerverseComplex.diff",
                 "Poset.up_set"}


def test_no_oracle_has_a_copy_in_the_library():
    # the reference constructions and test-only maps live in
    # tests/oracles.py; src/perverse defines nothing of the same name, and
    # the bimodule and perverse-complex axioms are checked there, not by a
    # method of either class
    oracles = defined_names(dict(source_trees(TESTS))["oracles.py"])
    assert _MOVED_TO_ORACLES <= oracles, _MOVED_TO_ORACLES - oracles
    found = sorted((fname, name) for fname, tree in source_trees()
                   for name in defined_names(tree) & oracles)
    found += [(fname, qual) for fname, tree in source_trees()
              for qual, _ in definitions(tree) if qual in _GONE_METHODS]
    assert not found, found


def test_algebra_sits_below_complexes():
    # building and validating a pDGA compiles no perverse complex: its
    # underlying diagram and homology are slots (diagram_slots), and
    # algebra names complexes nowhere, so imports it neither at module
    # level nor when a method runs
    tree = dict(source_trees())["algebra.py"]
    found = sorted({node.lineno for node in ast.walk(tree)
                    for key in ("module", "name", "attr", "id")
                    if isinstance(text := getattr(node, key, None), str)
                    and text.rpartition(".")[2] == "complexes"})
    assert not found, found


def test_the_bar_complex_lives_beside_its_chains():
    # bar_D_word is read by suite.Chains and, when it runs, by the dense
    # oracle hh_table_oracle; no HH table or compare_hh compiles it
    found = sorted(fname for fname, tree in source_trees()
                   for qual, _ in definitions(tree) if qual == "bar_D_word")
    assert found == ["suite.py"], found


def linalg_only_calls(tree):
    """(name, line) of each call of Subquotient(...), Echelon(...) or
    kernel_basis(...) in a module"""
    return [(name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for name in ("Subquotient", "Echelon", "kernel_basis")
            if name in (getattr(node.func, "id", None),
                        getattr(node.func, "attr", None))]


def test_only_linalg_builds_a_subquotient():
    # a homology dimension comes from ranks; a Subquotient is built only
    # where SlotComplex reads representatives or coordinates, and a slot is
    # stated over its keys through linalg.kernel, so no other module
    # converts keys to indices and builds the space itself.
    # Echelon is the one elimination: other modules read rank, kernel,
    # solutions and coordinates through linalg's functions and classes
    found = [(fname,) + hit for fname, tree in source_trees()
             if fname != "linalg.py" for hit in linalg_only_calls(tree)]
    assert not found, found


def test_one_class_is_every_quotient_subspace_and_homology():
    # a quotient, a kernel and a homology are each a Subquotient: the two
    # classes it replaced do not come back
    found = named({"Quotient", "Subspace"})
    assert not found, found


def test_a_plain_complex_is_its_names_and_its_differential():
    # p_filtration reads a plain complex as its basis of names and its d of
    # one name; no second complex class keeps matrices of it beside
    # PerverseComplex
    found = named({"ChainComplex", "point_complex"})
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


def slot_writers(tree):
    """the names of the functions in a module whose own bodies assign into
    .basis[...], .d[...] or .phi[...]"""
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)
            for node in _own_nodes(fn)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            for t in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(t, ast.Subscript)
            and getattr(t.value, "attr", None) in ("basis", "d", "phi")]


def test_perverse_complexes_are_built_by_induce():
    # every construction states its slots over keys and complexes.induce
    # writes the basis, d and phi
    found = [(fname, fn) for fname, tree in source_trees()
             for fn in slot_writers(tree)
             if (fname, fn) != ("complexes.py", "induce")]
    assert not found, found


def test_library_behaviour_does_not_depend_on_assert():
    # python -O drops assert statements, so a library check raises instead
    found = [(fname, node.lineno) for fname, tree in source_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def named(gone):
    """(file, name) of each definition, import, attribute or name in
    src/perverse spelled as one of gone"""
    return sorted({(fname, getattr(node, key))
                   for fname, tree in source_trees()
                   for node in ast.walk(tree)
                   for key in ("name", "attr", "id")
                   if getattr(node, key, None) in gone})


def test_the_label_rule_lives_in_the_poset():
    # the label of a sequence, None past the top, is Poset.oplus_all; no
    # module keeps a copy of it under the names its copies had
    found = named({"word_label", "label_ok"})
    assert not found, found


def test_presence_is_read_as_one_set_per_perversity():
    # Bimodule.present_at(p) is the set of names present at p, built once
    # per p; the per-name test it replaced does not come back
    found = named({"present"})
    assert not found, found


def test_vectors_combine_through_one_signed_sum():
    # a combination of vectors is linalg.signed_sum over (parity, vector)
    # pairs, or vec_iadd in place; the pairwise helpers do not come back
    found = named({"vec_add", "vec_sub"})
    assert not found, found


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
    built from the loops' own coefficients: a linear or bilinear extension.
    Under two or more such loops, `out[key] = c` is one too"""
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
    if isinstance(body[0], ast.Assign):
        if len(coeffs) < 2 or not isinstance(body[0].targets[0],
                                             ast.Subscript):
            return False
        c = call
    elif not (isinstance(call, ast.Call) and len(call.args) == 4
              and getattr(call.func, "id", None) == "vec_iadd"):
        return False
    else:
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


def private_reads(tree):
    """(line, attribute) of each read of a `_`-prefixed attribute, dunders
    aside, on anything but self or super()"""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and getattr(node.value, "id", None) != "self"
            and getattr(getattr(node.value, "func", None), "id",
                        None) != "super"]


def test_no_module_reads_another_objects_private_attributes():
    # a name another object calls is public: Chains.push, not _push
    found = [(fname,) + hit for fname, tree in source_trees()
             for hit in private_reads(tree)]
    assert not found, found


# the identity checks of the calculus suite and of the Kunneth transports
# (Delta squared aside, a product of two matrices)
_IDENTITY_CHECKS = {
    "suite.py": {"differential", "cup_is_brace", "skew", "defect",
                 "pre_jacobi", "jacobi", "leibniz", "calculus_bracket",
                 "calculus_cup", "calculus_lie", "ginzburg", "bv_seven_term",
                 "menichi"},
    "kunneth.py": {"cup_transports", "bracket_transports",
                   "delta_transports"},
}


def test_each_identity_check_is_one_signed_term_list():
    # every sign of an identity sits next to its term in one list, summed
    # by one signed_sum; no check scales or accumulates a term on its own
    trees = dict(source_trees())
    for fname, names in _IDENTITY_CHECKS.items():
        checks = {fn.name: fn for fn in ast.walk(trees[fname])
                  if isinstance(fn, _FUNCTIONS) and fn.name in names}
        assert set(checks) == names, (fname, names - set(checks))
        for name, fn in checks.items():
            calls = [getattr(node.func, "id", None) for node in ast.walk(fn)
                     if isinstance(node, ast.Call)]
            assert calls.count("signed_sum") == 1, (fname, name)
            assert not {"vec_iadd", "vec_scale"} & set(calls), (fname, name)


def _repeated_parts(node):
    """the parts of a loop or comprehension that run once per iteration:
    a loop's test and body, a comprehension's element, conditions and
    inner iterables (its first iterable is read once)"""
    if isinstance(node, ast.While):
        return [node.test] + node.body
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.DictComp):
        parts = [node.key, node.value]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [node.elt]
    else:
        return []
    for k, gen in enumerate(node.generators):
        parts += gen.ifs + ([gen.iter] if k else [])
    return parts


def looped_calls(tree, name):
    "the line of each call of the method or function name inside a loop"
    return sorted({sub.lineno for node in ast.walk(tree)
                   for part in _repeated_parts(node)
                   for sub in ast.walk(part)
                   if isinstance(sub, ast.Call)
                   and name in (getattr(sub.func, "id", None),
                                getattr(sub.func, "attr", None))})


def test_classes_of_many_cocycles_are_read_through_one_class_matrix():
    # the homology coordinates of a list of cocycles are the columns of
    # SlotComplex.class_matrix; outside linalg coords_of reads one vector
    found = [(fname, line) for fname, tree in source_trees()
             if fname != "linalg.py"
             for line in looped_calls(tree, "coords_of")]
    assert not found, found


def _is_covers(node, bound=()):
    "a call X.covers(), or a name bound to one"
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "covers"
            or isinstance(node, ast.Name) and node.id in bound)


def _tests_an_endpoint(target, conditions):
    "some condition compares a name of the loop target with == or !="
    ends = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return any(isinstance(c, ast.Compare)
               and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in c.ops)
               and any(getattr(x, "id", None) in ends
                       for x in [c.left] + c.comparators)
               for cond in conditions for c in ast.walk(cond))


def cover_filters(tree):
    """the line of each loop or comprehension over covers() whose condition
    picks pairs by an endpoint"""
    bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _is_covers(node.value) for t in node.targets
             if isinstance(t, ast.Name)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            tests = [n.test for part in node.body for n in ast.walk(part)
                     if isinstance(n, (ast.If, ast.IfExp, ast.While))]
            loops = [(node.target, node.iter, tests)]
        else:
            loops = [(gen.target, gen.iter, gen.ifs)
                     for gen in getattr(node, "generators", ())]
        if any(_is_covers(it, bound) and _tests_an_endpoint(target, tests)
               for target, it, tests in loops):
            out.add(node.lineno)
    return sorted(out)


def test_covers_of_one_perversity_are_read_per_perversity():
    # Poset.upper_covers(p) gives the covers above one perversity; no
    # module filters the whole cover list for an endpoint
    found = [(fname, line) for fname, tree in source_trees()
             for line in cover_filters(tree)]
    assert not found, found


def test_a_composite_is_built_by_its_complex():
    # PerverseComplex.structure_map builds each composite from the cover
    # maps and keeps it; the path walk and its helper do not come back
    found = named({"path_up", "_via"})
    assert not found, found


def test_the_lattice_is_read_through_its_diamonds():
    # Poset(n) is distributive, so the minimum condition and functoriality
    # hold on every pair once they hold on every diamond: no module takes
    # the meet of a pair, and tests/oracles.py keeps it
    found = named({"meet"})
    assert not found, found


def _is_cache(node):
    "functools.cache or functools.lru_cache, called or not"
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None)) in (
        "cache", "lru_cache")


def _transposes(node):
    "node is X.rows or a call rows(...): a transpose of what it reads"
    return getattr(node, "attr", None) == "rows" or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "rows")


def cached_composites(tree):
    """the line of each structure_map call in a function that a
    functools.cache or lru_cache wraps, unless .rows() or rows(...)
    transposes it"""
    defs = {fn.name: fn for fn in ast.walk(tree)
            if isinstance(fn, _FUNCTIONS)}
    cached = [fn for fn in defs.values()
              if any(map(_is_cache, fn.decorator_list))]
    cached += [arg if isinstance(arg, ast.Lambda) else defs[arg.id]
               for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _is_cache(node.func)
               for arg in node.args[:1]
               if isinstance(arg, ast.Lambda) or getattr(arg, "id", None)
               in defs]
    parent = {child: node for fn in cached for node in ast.walk(fn)
              for child in ast.iter_child_nodes(node)}
    return sorted(node.lineno for fn in cached for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "structure_map"
                  and not _transposes(parent[node]))


def test_no_cache_holds_a_composite():
    # the complex keeps each composite it builds, so no reader caches one,
    # its columns or its rank: a cache over structure_map only transposes
    found = [(fname, line) for directory in (SRC, TESTS)
             for fname, tree in source_trees(directory)
             for line in cached_composites(tree)]
    assert not found, found


def module_level_imports(tree):
    """(line, module) of each import a module runs when it is imported, at
    module level or in a class body but in no function; a module is named
    by its last part, so `from .suite import X`, `from . import suite` and
    `import perverse.suite` all name suite"""
    out = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            continue
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module is None):
            out += [(node.lineno, alias.name.rpartition(".")[2])
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append((node.lineno, node.module.rpartition(".")[2]))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(out)


def call_time_importers(tree, module):
    "the functions of a module whose own bodies import perverse.<module>"
    return [fn.name for fn in ast.walk(tree) if isinstance(fn, _FUNCTIONS)
            for node in _own_nodes(fn)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").rpartition(".")[2] == module]


def test_the_suite_is_imported_only_where_it_runs():
    # compare_hh, the BV operator and the HH tables compile only what they
    # call: no library module imports the identity suite or functoriality
    # when it is imported, and the suite is imported only by verify_calculus,
    # the CLI's suite commands and hh_table_oracle, which reads its
    # bar_D_word, when they run
    found = [(fname, line, name) for fname, tree in source_trees()
             for line, name in module_level_imports(tree)
             if name in ("suite", "functoriality")]
    assert not found, found
    importers = sorted((fname, fn) for fname, tree in source_trees()
                       for fn in call_time_importers(tree, "suite"))
    assert importers == [("cli.py", "cmd_bv"), ("cli.py", "cmd_calculus"),
                         ("cli.py", "cmd_gerstenhaber"),
                         ("hochschild.py", "hh_table_oracle"),
                         ("structure.py", "verify_calculus")], importers


def test_complexes_is_imported_only_where_a_perverse_complex_is_built():
    # the underlying diagram of a pDGA is algebra.diagram_slots, so only
    # `perverse cofibrancy`, which builds the p-filtration of its input,
    # compiles the perverse-complex layer: no library module imports
    # complexes when it is imported, and only cmd_cofibrancy when it runs
    found = [(fname, line) for fname, tree in source_trees()
             for line, name in module_level_imports(tree)
             if name == "complexes"]
    assert not found, found
    importers = sorted((fname, fn) for fname, tree in source_trees()
                       for fn in call_time_importers(tree, "complexes"))
    assert importers == [("cli.py", "cmd_cofibrancy")], importers
