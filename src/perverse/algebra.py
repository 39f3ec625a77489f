"""Perverse differential graded algebras with labeled bases, and their modules.

A PDGA carries a finite basis where every element has a degree and a minimal
perversity label; the component at perversity p is the span of elements with
label <= p and all structure maps are inclusions (the p-filtered shape, which
is cofibrant).  Products of elements whose label sum exceeds the top
perversity land in the degenerate zero slot and are 0 by convention.

Vectors are dicts {basis name: scalar}.
"""

import itertools

from .linalg import (SlotComplex, vec_iadd, vec_scale, signed_sum, linear,
                     bilinear)
from .poset import leq


class PDGA:
    def __init__(self, field, poset, gens, unit, diff=None, products=None):
        """gens: list of (name, degree, perversity); unit: name of 1;
        diff: {name: vec}; products: {(a, b): vec} on non-unit pairs"""
        self.field = field
        self.poset = poset
        self.names = [g[0] for g in gens]
        self.degree = {g[0]: g[1] for g in gens}
        self.label = {g[0]: g[2] for g in gens}
        self.unit = unit
        if unit not in self.degree:
            raise ValueError("unit %r is not a generator" % (unit,))
        self.diffs = {}
        for x, v in (diff or {}).items():
            v = {y: field.of(c) for y, c in v.items() if not field.iszero(field.of(c))}
            if v:
                self.diffs[x] = v
        self.products = {}
        for (a, b), v in (products or {}).items():
            v = {y: field.of(c) for y, c in v.items() if not field.iszero(field.of(c))}
            self.products[(a, b)] = v
        # the products that survive the label filter, on every nonunit pair
        # whose label sum stays under the top; the read path of mul and of
        # the Hochschild assembly
        nonunit = self.nonunit()
        self.label_products = {
            (a, b): self.products.get((a, b), {})
            for a in nonunit for b in nonunit
            if self.sum_labels_ok(self.label[a], self.label[b])}
        # the names whose product with the unit stays under the top
        self.unit_partners = {
            x for x in self.names
            if self.sum_labels_ok(self.label[unit], self.label[x])}
        # the inverse of d and of the label-filtered product on nonunit
        # targets: y -> [(letters, c)], letters (x,) for c y in d(x) and
        # (a, b) for c y in a.b; the read path of the cochain D*
        self.letter_preimages = {}
        for xs, v in [((x,), v) for x, v in self.diffs.items()] + list(
                self.label_products.items()):
            for y, c in v.items():
                if y != unit:
                    self.letter_preimages.setdefault(y, []).append((xs, c))

    def deg(self, x):
        return self.degree[x]

    def lam(self, x):
        return self.label[x]

    def nonunit(self):
        return [x for x in self.names if x != self.unit]

    def d(self, x):
        return dict(self.diffs.get(x, {}))

    def d_vec(self, v):
        return linear(self.field, self.d, v)

    def sum_labels_ok(self, *labels):
        "the labels sum to a perversity under the top"
        return self.poset.oplus_all(labels) is not None

    def mul(self, a, b):
        "product of two basis elements, as a vector"
        if a != self.unit and b != self.unit:
            return dict(self.label_products.get((a, b), {}))
        x = b if a == self.unit else a
        return {x: self.field.one} if x in self.unit_partners else {}

    def mul_vec(self, u, v):
        return bilinear(self.field, self.mul, u, v)

    def degrees(self):
        return sorted(set(self.degree.values()))

    def validate(self):
        F, P = self.field, self.poset
        bad = []

        def check(name, witness, lhs, rhs):
            if lhs != rhs:
                bad.append({"identity": name, "witness": witness,
                            "lhs": lhs, "rhs": rhs})

        u = self.unit
        check("unit degree", u, self.degree[u], 0)
        check("unit perversity", u, self.label[u], P.zero)
        check("unit closed", u, self.d(u), {})
        for x in self.names:
            dv = self.d(x)
            if dv:
                degs = {self.degree[y] for y in dv}
                check("d degree +1", x, degs, {self.degree[x] + 1})
                for y in dv:
                    if not leq(self.lam(y), self.lam(x)):
                        bad.append({"identity": "d label", "witness": (x, y),
                                    "lhs": self.lam(y), "rhs": self.lam(x)})
            check("d squared", x, self.d_vec(dv), {})
        for a, b in itertools.product(self.names, repeat=2):
            ab = self.mul(a, b)
            target = self.poset.oplus(self.lam(a), self.lam(b))
            if target is None:
                check("degenerate slot product", (a, b),
                      self.products.get((a, b), {}), {})
                continue
            for y in ab:
                if self.degree[y] != self.degree[a] + self.degree[b]:
                    bad.append({"identity": "product degree", "witness": (a, b, y),
                                "lhs": self.degree[y],
                                "rhs": self.degree[a] + self.degree[b]})
                if not leq(self.lam(y), target):
                    bad.append({"identity": "product label", "witness": (a, b, y),
                                "lhs": self.lam(y), "rhs": target})
            check("Leibniz", (a, b), self.d_vec(ab), signed_sum(F, [
                (0, self.mul_vec(self.d(a), {b: F.one})),
                (self.degree[a], self.mul_vec({a: F.one}, self.d(b)))]))
        for a, b, c in itertools.product(self.names, repeat=3):
            if not self.sum_labels_ok(self.lam(a), self.lam(b), self.lam(c)):
                continue
            lhs = self.mul_vec(self.mul(a, b), {c: self.field.one})
            rhs = self.mul_vec({a: self.field.one}, self.mul(b, c))
            check("associativity", (a, b, c), lhs, rhs)
        # augmentation: unit-coefficient projection must be an algebra map
        augmented = all(F.iszero(self.d(x).get(u, F.zero)) for x in self.names)
        for a in self.nonunit():
            for b in self.nonunit():
                if not F.iszero(self.mul(a, b).get(u, F.zero)):
                    augmented = False
        return {"valid": not bad, "violations": bad,
                "commutative": self.is_commutative(), "augmented": augmented}

    def is_commutative(self):
        """ab = (-1)^{|a||b|} ba on every pair; a unit pair always commutes,
        so only the label-filtered products are read"""
        F, lp = self.field, self.label_products
        return all(v == vec_scale(F, F.sign(self.degree[a] * self.degree[b]),
                                  lp.get((b, a), {}))
                   for (a, b), v in lp.items())


def tensor_pdga(A, B):
    "A box B with product (a1@b1)(a2@b2) = (-1)^{|a2||b1|} (a1 a2)@(b1 b2)"
    if A.field != B.field or A.poset is not B.poset:
        raise ValueError("factors over different fields or posets")
    F, P = A.field, A.poset
    gens = []
    for a in A.names:
        for b in B.names:
            lab = P.oplus(A.lam(a), B.lam(b))
            if lab is not None:
                gens.append(((a, b), A.deg(a) + B.deg(b), lab))
    names = {g[0] for g in gens}
    unit = (A.unit, B.unit)

    def inject(va, vb):
        "the bilinear extension of x, y -> x@y, zero off the generators"
        return bilinear(F, lambda x, y: {(x, y): F.one} if (x, y) in names
                        else {}, va, vb)

    diff = {}
    for (a, b) in names:
        v = signed_sum(F, [(0, inject(A.d(a), {b: F.one})),
                           (A.deg(a), inject({a: F.one}, B.d(b)))])
        if v:
            diff[(a, b)] = v
    prods = {}
    for (a1, b1) in names:
        for (a2, b2) in names:
            if (a1, b1) == unit or (a2, b2) == unit:
                continue
            sgn = F.sign(A.deg(a2) * B.deg(b1))
            v = vec_scale(F, sgn, inject(A.mul(a1, a2), B.mul(b1, b2)))
            if v:
                prods[((a1, b1), (a2, b2))] = v
    return PDGA(F, P, gens, unit, diff=diff, products=prods)


def tensor_algebra(field, poset, gens, L, diff=None):
    """truncated tensor algebra on generators (name, degree, perversity):
    basis = words (tuples) of length <= L, concatenation product"""
    if L < 0:
        raise ValueError("negative truncation length %r" % (L,))
    degree = {g[0]: g[1] for g in gens}
    label = {g[0]: g[2] for g in gens}
    diff = diff or {}
    # {word: its label} on the words whose label stays under the top
    words = {}
    for k in range(L + 1):
        for w in itertools.product([g[0] for g in gens], repeat=k):
            lab = poset.oplus_all(label[x] for x in w)
            if lab is not None:
                words[w] = lab
    gens2 = [(w, sum(degree[x] for x in w), lab) for w, lab in words.items()]
    prods = {}
    for w1 in words:
        for w2 in words:
            if not w1 or not w2:
                continue
            w = w1 + w2
            prods[(w1, w2)] = {w: field.one} if w in words else {}
    diffs = {}
    for w in words:
        v = {}
        for i, x in enumerate(w):
            sgn = field.sign(sum(degree[y] for y in w[:i]))
            for y, c in diff.get(x, {}).items():
                w2 = w[:i] + (y,) + w[i + 1:]
                if w2 in words:
                    vec_iadd(field, v, {w2: field.of(c)}, sgn)
        if v:
            diffs[w] = v
    out = _TruncatedTensor(field, poset, gens2, (), diff=diffs, products=prods)
    out.maxlen = L
    return out


class _TruncatedTensor(PDGA):
    """tensor algebra truncated at a maximum word length; a product past
    it raises OverflowError"""

    maxlen = 0
    strict = True

    def mul(self, a, b):
        if self.strict and len(a) + len(b) > self.maxlen:
            raise OverflowError(
                "concatenation exceeds max length %d: %r * %r"
                % (self.maxlen, a, b))
        return PDGA.mul(self, a, b)

    def validate(self):
        "validated with truncating products; strictness is an access guard"
        was = self.strict
        self.strict = False
        try:
            return PDGA.validate(self)
        finally:
            self.strict = was


class Bimodule:
    """A perverse dg bimodule with labeled basis.  Presence of a basis
    element at perversity p is either upward (label <= p, like the algebra
    itself) or downward (p <= label, like the linear dual)."""

    def __init__(self, algebra, elems, diff=None, left=None, right=None):
        """elems: list of (name, degree, kind 'up'|'down', perversity);
        left: {(a, m): vec}; right: {(m, a): vec}"""
        self.algebra = algebra
        self.field = algebra.field
        self.poset = algebra.poset
        self.names = [e[0] for e in elems]
        self.degree = {e[0]: e[1] for e in elems}
        self.kind = {e[0]: e[2] for e in elems}
        self.plabel = {e[0]: e[3] for e in elems}
        # each table keeps the nonzero terms of its nonzero vectors
        self.diffs, self.left, self.right = (
            {k: w for k, v in (t or {}).items() if (w := {
                y: c for y, c in v.items() if not self.field.iszero(c)})}
            for t in (diff, left, right))
        self._present = {}

    def deg(self, m):
        return self.degree[m]

    def present_at(self, p):
        "the frozenset of names present at p, built once per p"
        if p not in self._present:
            self._present[p] = frozenset(m for m in self.names if (
                leq(self.plabel[m], p) if self.kind[m] == "up"
                else leq(p, self.plabel[m])))
        return self._present[p]

    def d(self, m):
        return dict(self.diffs.get(m, {}))

    def d_vec(self, v):
        return linear(self.field, self.d, v)

    def act_left(self, a, m):
        A = self.algebra
        if a == A.unit:
            return {m: self.field.one}
        return dict(self.left.get((a, m), {}))

    def act_right(self, m, a):
        A = self.algebra
        if a == A.unit:
            return {m: self.field.one}
        return dict(self.right.get((m, a), {}))

    def act_left_vec(self, avec, mvec):
        return bilinear(self.field, self.act_left, avec, mvec)

    def act_right_vec(self, mvec, avec):
        return bilinear(self.field, self.act_right, mvec, avec)


class ModuleSlots(SlotComplex):
    """per-slot graded homology of a perverse module with labeled basis.
    A down-type slot at r is the dual of a subcomplex, a quotient of the
    module, so its differential drops the elements absent at r"""

    def __init__(self, M):
        super().__init__(M.field)
        self.M = M
        self.truncated = "down" in M.kind.values()

    def degrees(self):
        return sorted(set(self.M.degree.values()))

    def slot_basis(self, r, k):
        return [m for m in self.M.names
                if self.M.degree[m] == k and m in self.M.present_at(r)]

    def D_key(self, m):
        return self.M.d(m)


def diagram_slots(A):
    """the underlying diagram of the pDGA A: the ModuleSlots of its names,
    up-type at their labels, and its differential.  It has no action, so no
    product is read, and a term of d(x) outside the slot of x raises
    ValueError when its matrix is built"""
    return ModuleSlots(Bimodule(
        A, [(x, A.deg(x), "up", A.lam(x)) for x in A.names], diff=A.diffs))


def diagram_homology(A):
    "{(p, k): dim} of the nonzero homology of the pDGA A's underlying diagram"
    Z, degs = diagram_slots(A), A.degrees()
    return {(p, k): h for p in A.poset.elements
            for k, h in Z.dims(p, degs[0], degs[-1]).items() if h}


def restrict_bimodule(A, B, fmap):
    "B viewed as an A-bimodule through the algebra map f"
    F = A.field
    elems = [(x, B.deg(x), "up", B.lam(x)) for x in B.names]
    # the Bimodule keeps only the nonzero vectors
    left = {(a, m): B.mul_vec(fmap[a], {m: F.one})
            for a in A.nonunit() for m in B.names}
    right = {(m, a): B.mul_vec({m: F.one}, fmap[a])
             for a in A.nonunit() for m in B.names}
    return Bimodule(A, elems, diff=B.diffs, left=left, right=right)


def algebra_as_bimodule(A):
    "A as a bimodule over itself, the restriction along the identity"
    return restrict_bimodule(A, A, {x: {x: A.field.one} for x in A.names})


def dual_name(x):
    return x + "*" if isinstance(x, str) else (x, "*")


def dual_bimodule(A):
    """DA with basis b* dual to b, |b*| = -|b|, present at r iff lam(b) <= t-r.

    Conventions: (d phi)(x) = -(-1)^{|phi|} phi(dx);
    (a.phi)(x) = (-1)^{|a|(|phi|+|x|)} phi(x a); (phi.a)(x) = phi(a x).
    """
    F, P = A.field, A.poset
    elems = [(dual_name(b), -A.deg(b), "down", P.dual(A.lam(b))) for b in A.names]
    # (a.b*) = (-1)^{|a|} sum_c (c a)_b c* and (b*.a) = sum_c (a c)_b c*;
    # the Bimodule keeps only the nonzero terms
    diff = {dual_name(b): {
        dual_name(c): F.neg(F.mul(F.sign(A.deg(b)), A.d(c).get(b, F.zero)))
        for c in A.names} for b in A.names}
    left = {(a, dual_name(b)): {
        dual_name(c): F.mul(F.sign(A.deg(a)), A.mul(c, a).get(b, F.zero))
        for c in A.names} for a in A.nonunit() for b in A.names}
    right = {(dual_name(b), a): {
        dual_name(c): A.mul(a, c).get(b, F.zero) for c in A.names}
        for a in A.nonunit() for b in A.names}
    return Bimodule(A, elems, diff=diff, left=left, right=right)

