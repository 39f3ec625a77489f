"""Functoriality of Hochschild cohomology along pDGA quasi-isomorphisms.

A degree-0, label-compatible algebra chain map f: A -> B induces HH(f),
computed per slot as HH(f~, B)^{-1} o HH(A, f): postcompose the A-classes
with f, precompose the B-classes with the induced word map f~, and solve on
cohomology.  is_quasi_iso checks that f itself is an isomorphism on the
homology of every slot of the underlying diagrams.  No command and no
benchmark workload reads this module; the tests do, acceptance criterion 8
among them.
"""

from .linalg import SparseMatrix, solver, linear
from .poset import leq
from .algebra import algebra_as_bimodule, restrict_bimodule, diagram_slots
from .hochschild import Cochains, Op, cochain_op, to_cochain
from .structure import iso_on_homology


def check_pdga_map(A, B, fmap):
    "degree-0, label-compatible algebra chain map sending the unit to the unit"
    F = A.field

    def f(vec):
        return linear(F, fmap.__getitem__, vec)

    if fmap[A.unit] != {B.unit: F.one}:
        raise ValueError("unit not preserved")
    for x in A.names:
        for y, c in fmap[x].items():
            if B.deg(y) != A.deg(x):
                raise ValueError("degree broken at %r" % (x,))
            if not leq(B.lam(y), A.lam(x)):
                raise ValueError("label broken at %r" % (x,))
        if f(A.d(x)) != B.d_vec(f({x: F.one})):
            raise ValueError("not a chain map at %r" % (x,))
        for y in A.names:
            if f(A.mul(x, y)) != B.mul_vec(f({x: F.one}), f({y: F.one})):
                raise ValueError("not multiplicative at %r, %r" % (x, y))
    return f


def is_quasi_iso(A, B, f):
    """whether the chain map f of vectors, A -> B, is an isomorphism on the
    homology of every slot of the underlying diagrams"""
    return iso_on_homology(diagram_slots(A), diagram_slots(B), f,
                           sorted(set(A.degrees()) | set(B.degrees())))


def induced_word_map(A, B, fmap, w):
    """f~ on middle words: apply f entrywise, drop unit components, expand
    linearly; for degree-0 maps the printed sign is +1"""
    F = A.field
    cur = {(): F.one}
    for x in w:
        fx = {y: cy for y, cy in fmap[x].items() if y != B.unit}
        cur = linear(F, lambda v: {v + (y,): cy for y, cy in fx.items()},
                     cur)
    return cur


def hc_postcompose(A, fmap, g):
    "HC(A, A) -> HC(A, B as A-bimodule): postcompose values with f"
    return linear(A.field, lambda wm: {(wm[0], y): cy for y, cy in
                                       fmap[wm[1]].items()}, g)


def hc_precompose(A, B, fmap, g):
    """HC(B, B) -> HC(A, B as A-bimodule): the Op g precomposed with the
    induced word map, which keeps word lengths"""
    return Op(A, g.deg, lambda w: linear(
        A.field, g, induced_word_map(A, B, fmap, w)), g.lengths)


class InducedHH:
    """HH(f) for a pDGA quasi-isomorphism f: A -> B, computed per slot as
    HH(f~, B)^{-1} o HH(A, f); the inverse exists on cohomology only and is
    obtained by linear solves against representative bases."""

    def __init__(self, A, B, fmap, L):
        self.A, self.B, self.fmap = A, B, fmap
        if not is_quasi_iso(A, B, check_pdga_map(A, B, fmap)):
            raise ValueError("HH(f) needs a quasi-isomorphism")
        self.ca = Cochains(A, algebra_as_bimodule(A), L)
        self.cb = Cochains(B, algebra_as_bimodule(B), L)
        self.cm = Cochains(A, restrict_bimodule(A, B, fmap), L)

    def matrix(self, r, q):
        "HH(f) on homology bases: columns map HH^q(A)_r into HH^q(B)_r"
        A, B, fmap, cm = self.A, self.B, self.fmap, self.cm
        # push A-classes and B-classes into the middle complex
        mid_of_a = cm.class_matrix(r, q, [
            hc_postcompose(A, fmap, rep)
            for rep in self.ca.representatives(r, q)])
        words = sorted({w for (w, m) in cm.basis(r, q)}, key=repr)
        mid_of_b = cm.class_matrix(r, q, [
            to_cochain(hc_precompose(A, B, fmap, cochain_op(B, rep, q)),
                       words) for rep in self.cb.representatives(r, q)])
        # solve precompose-matrix * x = postcompose-image per A-basis class,
        # eliminating the precompose matrix once
        solve = solver(mid_of_b)[1]
        cols = [solve(col) for col in mid_of_a.columns()]
        if None in cols:
            raise LookupError("HC(f~, B) not surjective on homology")
        Hb = self.cb.homology(r, q)
        if self.ca.homology(r, q).dim != Hb.dim:
            raise LookupError("homology dimensions differ")
        return SparseMatrix.from_columns(A.field, Hb.dim, cols)

    def is_iso(self, r, q):
        m = self.matrix(r, q)
        return m.nrows == m.ncols and m.rank() == m.nrows
