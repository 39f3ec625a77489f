"""Pinned records of the identity suites.

`verify_calculus` on the corpus, on a non-commutative algebra and on labeled
random pDGAs, and `compare_hh` on three sphere pairs, over Q and F_5, are
compared with `tests/pinned_records.json`: every record, trial count,
witness and table.  The file pins behaviour, not correctness, so a change
that changes a record shows it as a diff of that file.  Rewrite the file
after such a change with

    PYTHONPATH=src python tests/test_pinned_records.py
"""

import json
import os
from fractions import Fraction

from perverse.algebra import PDGA
from perverse.builders import corpus, random_pdga, sphere_algebra
from perverse.fields import QQ, Field
from perverse.kunneth import compare_hh, hh_degree_support
from perverse.poset import Poset
from perverse.structure import verify_calculus

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pinned_records.json")
FIELDS = (QQ, Field(5))


def noncommutative(F):
    "1, x, y with |x| = |y| = 2 and z = xy, every other product 0"
    P = Poset(3)
    return PDGA(F, P, [("1", 0, P.zero), ("x", 2, P.zero), ("y", 2, P.zero),
                       ("z", 4, P.zero)], "1",
                products={("x", "y"): {"z": F.one}})


def runs():
    "(name, thunk) of each pinned call, in file order"
    for F in FIELDS:
        for L, seed in ((4, 0), (5, 1)):
            for name, A in corpus(F, Poset(3)).items():
                yield ("%s %r L=%d seed=%d" % (name, F, L, seed),
                       lambda A=A, L=L, seed=seed: verify_calculus(
                           A, L, -3, 3, trials=8, seed=seed))
        for L in (3, 4):
            for seed in (0, 1):
                yield ("noncommutative %r L=%d seed=%d" % (F, L, seed),
                       lambda F=F, L=L, seed=seed: verify_calculus(
                           noncommutative(F), L, -3, 2, trials=6, seed=seed))
        for s in (1, 6, 103):
            A = random_pdga(F, Poset(4), s)
            yield ("random_pdga(%d) %r L=3" % (s, F),
                   lambda A=A: verify_calculus(
                       A, 3, *hh_degree_support(A, 3), trials=8, seed=0))
    P = Poset(3)
    S2, S3 = (sphere_algebra(QQ, P, n) for n in (2, 3))
    for (a, A), (b, B), L, window in (
            (("S2", S2), ("S2", S2), 2, (-1, 1)),
            (("S2", S2), ("S2", S2), 3, (-2, 2)),
            (("S2", S2), ("S3", S3), 3, (-2, 2))):
        yield ("compare_hh %s %s L=%d window=%r" % (a, b, L, window),
               lambda A=A, B=B, L=L, window=window: compare_hh(A, B, L,
                                                               window))


def jsonable(x):
    """plain JSON form of a result: tuples become lists, a dict with other
    than string keys becomes its [key, value] list in order, and a Fraction
    its string, so an integral Fraction and an int stay apart"""
    if isinstance(x, dict):
        if all(isinstance(k, str) for k in x):
            return {k: jsonable(v) for k, v in x.items()}
        return [[jsonable(k), jsonable(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def records():
    return {name: jsonable(run()) for name, run in runs()}


def dumps(x, depth=3, indent=""):
    """JSON with the top depth levels of nesting one item a line; a record
    is one line"""
    if depth == 0 or not x or not isinstance(x, (dict, list)) \
            or "identity" in x:
        return json.dumps(x)
    inner = indent + " "
    if isinstance(x, dict):
        items = ["%s%s: %s" % (inner, json.dumps(k),
                               dumps(v, depth - 1, inner))
                 for k, v in x.items()]
        return "{\n%s\n%s}" % (",\n".join(items), indent)
    items = [inner + dumps(v, depth - 1, inner) for v in x]
    return "[\n%s\n%s]" % (",\n".join(items), indent)


def failing_rows(recs):
    "(input, identity) of each failed record"
    out = []
    for name, result in recs.items():
        rows = result if isinstance(result, list) else result["records"]
        out += [(name, row["identity"]) for row in rows
                if row["status"] == "fail"]
    return out


def test_records_match_the_pinned_file():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    got = records()
    assert list(got) == list(pinned)
    for name in pinned:
        assert got[name] == pinned[name], name


def test_records_do_not_read_the_term_order_of_D_star(monkeypatch):
    # the order of apply_cochain_D's terms is unspecified: with every image
    # reversed, each record, witness and table stays as pinned
    import perverse.suite as suite
    apply = suite.apply_cochain_D

    def reversed_D(*args):
        return dict(reversed(apply(*args).items()))

    monkeypatch.setattr(suite, "apply_cochain_D", reversed_D)
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert records() == pinned


def test_no_pinned_record_fails():
    # every pinned identity holds; a record that fails is a fault to mend,
    # not a behaviour to pin
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert not failing_rows(pinned)


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        fh.write(dumps(records()) + "\n")
