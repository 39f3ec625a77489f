"""Source checks on src/perverse that no behavioural test can see."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "perverse")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


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
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
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
