"""Perverse differential graded algebras with labeled bases, and their modules.

A PDGA carries a finite basis where every element has a degree and a minimal
perversity label; the component at perversity p is the span of elements with
label <= p and all structure maps are inclusions (the p-filtered shape, which
is cofibrant).  Products of elements whose label sum exceeds the top
perversity land in the degenerate zero slot and are 0 by convention.

Vectors are dicts {basis name: scalar}.
"""

import itertools

from .linalg import (SparseMatrix, SlotComplex, vec_iadd, vec_add, vec_scale,
                     kernel_basis, Quotient, Subspace, linear, bilinear)
from .poset import leq
from .complexes import PerverseComplex, induce


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
        pairs = [(a, b) for a in self.names for b in self.names]
        for a, b in pairs:
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
            # Leibniz
            sgn = F.sign(self.degree[a])
            lhs = self.d_vec(ab)
            rhs = vec_add(F, self.mul_vec(self.d(a), {b: F.one}),
                          vec_scale(F, sgn, self.mul_vec({a: F.one}, self.d(b))))
            check("Leibniz", (a, b), lhs, rhs)
        for a, b, c in itertools.product(self.names, repeat=3):
            if not self.sum_labels_ok(self.lam(a), self.lam(b), self.lam(c)):
                continue
            lhs = self.mul_vec(self.mul(a, b), {c: self.field.one})
            rhs = self.mul_vec({a: self.field.one}, self.mul(b, c))
            check("associativity", (a, b, c), lhs, rhs)
        commutative = True
        for a, b in pairs:
            sgn = F.sign(self.degree[a] * self.degree[b])
            if self.mul(a, b) != vec_scale(F, sgn, self.mul(b, a)):
                commutative = False
        # augmentation: unit-coefficient projection must be an algebra map
        augmented = all(F.iszero(self.d(x).get(u, F.zero)) for x in self.names)
        for a in self.nonunit():
            for b in self.nonunit():
                if not F.iszero(self.mul(a, b).get(u, F.zero)):
                    augmented = False
        return {"valid": not bad, "violations": bad,
                "commutative": commutative, "augmented": augmented}

    def is_commutative(self):
        return self.validate()["commutative"]

    def carrier(self):
        """the underlying PerverseComplex: slot (p, k) holds the names of
        degree k with label <= p, in self.names order.  A term of d(x) off
        degree |x| + 1 or above the label of x raises ValueError, since the
        slot of x at its own label would lack it; no product is read"""
        F, P = self.field, self.poset
        for x, v in self.diffs.items():
            for y in v:
                if self.degree.get(y) != self.degree[x] + 1:
                    raise ValueError("d(%r) has a term %r off degree %d"
                                     % (x, y, self.degree[x] + 1))
                if not leq(self.label[y], self.label[x]):
                    raise ValueError("d(%r) has a term %r above its label"
                                     % (x, y))
        Z = PerverseComplex(F, P)
        slots = {}
        for p in P.elements:
            for k in self.degrees():
                keys = [x for x in self.names if self.degree[x] == k
                        and leq(self.label[x], p)]
                if keys:
                    slots[(p, k)] = (keys, Quotient(F, len(keys), []))
                    Z.basis[(p, k)] = keys
        return induce(Z, slots, lambda k, x: self.d(x))

    def homology_dims(self):
        "{(p, k): dim} of the nonzero homology of the underlying diagram"
        Z = self.carrier()
        return {(p, k): h for p in self.poset.elements
                for k, h in Z.homology(p).items() if h}

    def opposite(self):
        F = self.field
        prods = {}
        for a in self.nonunit():
            for b in self.nonunit():
                sgn = F.sign(self.degree[a] * self.degree[b])
                v = vec_scale(F, sgn, self.mul(b, a))
                if v:
                    prods[(a, b)] = v
        return PDGA(F, self.poset,
                    [(x, self.degree[x], self.label[x]) for x in self.names],
                    self.unit, diff=self.diffs, products=prods)


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
        out = {}
        for x, cx in va.items():
            for y, cy in vb.items():
                if (x, y) in names:
                    out[(x, y)] = F.mul(cx, cy)
        return out

    diff = {}
    for (a, b) in names:
        sgn = F.sign(A.deg(a))
        v = vec_add(F, inject(A.d(a), {b: F.one}),
                    vec_scale(F, sgn, inject({a: F.one}, B.d(b))))
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


def opposite_and_enveloping(A):
    op = A.opposite()
    return op, tensor_pdga(A, op)


def tensor_algebra(field, poset, gens, L, diff=None, strict=True):
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
    out.strict = strict
    return out


class _TruncatedTensor(PDGA):
    "tensor algebra truncated at a maximum word length"

    maxlen = 0
    strict = False

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

    def deg(self, m):
        return self.degree[m]

    def present(self, m, p):
        if self.kind[m] == "up":
            return leq(self.plabel[m], p)
        return leq(p, self.plabel[m])

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

    def validate(self):
        A, F = self.algebra, self.field
        bad = []

        def check(name, witness, lhs, rhs):
            if lhs != rhs:
                bad.append({"identity": name, "witness": witness,
                            "lhs": lhs, "rhs": rhs})

        for m in self.names:
            check("d_M squared", m, self.d_vec(self.d(m)), {})
            for y in self.d(m):
                check("d_M degree", (m, y), self.degree[y], self.degree[m] + 1)
        one = {A.unit: F.one}
        for m in self.names:
            mv = {m: F.one}
            check("left unit", m, self.act_left_vec(one, mv), mv)
            check("right unit", m, self.act_right_vec(mv, one), mv)
        for a in A.names:
            av = {a: F.one}
            sa = F.sign(A.deg(a))
            for m in self.names:
                mv = {m: F.one}
                smm = F.sign(self.degree[m])
                # Leibniz, both sides
                check("left Leibniz", (a, m),
                      self.d_vec(self.act_left(a, m)),
                      vec_add(F, self.act_left_vec(A.d(a), mv),
                              vec_scale(F, sa, self.act_left_vec(av, self.d(m)))))
                check("right Leibniz", (m, a),
                      self.d_vec(self.act_right(m, a)),
                      vec_add(F, self.act_right_vec(self.d(m), av),
                              vec_scale(F, smm, self.act_right_vec(mv, A.d(a)))))
                for b in A.names:
                    bv = {b: F.one}
                    check("left associativity", (a, b, m),
                          self.act_left_vec(av, self.act_left(b, m)),
                          self.act_left_vec(A.mul(a, b), mv))
                    check("right associativity", (m, a, b),
                          self.act_right_vec(self.act_right(m, a), bv),
                          self.act_right_vec(mv, A.mul(a, b)))
                    check("bimodule compatibility", (a, m, b),
                          self.act_right_vec(self.act_left(a, m), bv),
                          self.act_left_vec(av, self.act_right(m, b)))
        for a in A.names:
            for m in self.names:
                for v, wit in [(self.act_left(a, m), ("left", a, m)),
                               (self.act_right(m, a), ("right", m, a))]:
                    for y in v:
                        check("action degree", wit + (y,), self.degree[y],
                              self.degree[m] + A.deg(a))
        return {"valid": not bad, "violations": bad}


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
                if self.M.degree[m] == k and self.M.present(m, r)]

    def D_key(self, m):
        return self.M.d(m)


def algebra_as_bimodule(A):
    left = {}
    right = {}
    for a in A.nonunit():
        for m in A.names:
            v = A.mul(a, m)
            if v:
                left[(a, m)] = v
            v = A.mul(m, a)
            if v:
                right[(m, a)] = v
    elems = [(x, A.deg(x), "up", A.lam(x)) for x in A.names]
    return Bimodule(A, elems, diff=A.diffs, left=left, right=right)


def dual_name(x):
    return x + "*" if isinstance(x, str) else (x, "*")


def dual_bimodule(A):
    """DA with basis b* dual to b, |b*| = -|b|, present at r iff lam(b) <= t-r.

    Conventions: (d phi)(x) = -(-1)^{|phi|} phi(dx);
    (a.phi)(x) = (-1)^{|a|(|phi|+|x|)} phi(x a); (phi.a)(x) = phi(a x).
    """
    F, P = A.field, A.poset
    elems = [(dual_name(b), -A.deg(b), "down", P.dual(A.lam(b))) for b in A.names]
    diff = {}
    for b in A.names:
        v = {}
        sgn = F.sign(A.deg(b))
        for c in A.names:
            coef = A.d(c).get(b, F.zero)
            if not F.iszero(coef):
                v[dual_name(c)] = F.neg(F.mul(sgn, coef))
        if v:
            diff[dual_name(b)] = v
    left = {}
    right = {}
    for a in A.nonunit():
        for b in A.names:
            # (a.b*) = (-1)^{|a|} sum_c (c a)_b c* ; (b*.a) = sum_c (a c)_b c*
            lv, rv = {}, {}
            sa = F.sign(A.deg(a))
            for c in A.names:
                coef = A.mul(c, a).get(b, F.zero)
                if not F.iszero(coef):
                    lv[dual_name(c)] = F.mul(sa, coef)
                coef = A.mul(a, c).get(b, F.zero)
                if not F.iszero(coef):
                    rv[dual_name(c)] = coef
            if lv:
                left[(a, dual_name(b))] = lv
            if rv:
                right[(dual_name(b), a)] = rv
    return Bimodule(A, elems, diff=diff, left=left, right=right)


def module_hom(M, P_, degwindow):
    """perverse complex of left-equivariant maps f: M -> P_,
    f(a.m) = (-1)^{|f||a|} a.f(m); both modules over the same algebra.
    The keys of a slot are the pairs (m, n), the basis map m -> n"""
    A = M.algebra
    if P_.algebra is not A:
        raise ValueError("modules over different algebras")
    F, P = A.field, A.poset
    out = PerverseComplex(F, P)
    lo, hi = degwindow
    slots = {}
    for r in P.elements:
        for k in range(lo, hi + 2):
            # ambient: pairs (m, n) with n present wherever needed; the
            # labeled shape reduces the hom constraint to a presence test
            pairs = []
            for m in M.names:
                for n in P_.names:
                    if P_.degree[n] != M.degree[m] + k:
                        continue
                    if M.kind[m] == "up":
                        target = P.oplus(M.plabel[m], r)
                        if target is None or not P_.present(n, target):
                            continue
                    pairs.append((m, n))
            # equivariance as linear constraints on coefficients c_{m,n},
            # one row per (a, m, n) and one column per pair
            rows = {}
            cols = [{} for _ in pairs]

            def addrow(key, idx, coef):
                vec_iadd(F, cols[idx], {rows.setdefault(key, len(rows)): coef})

            for a in A.nonunit():
                for m in M.names:
                    # the equation f(a.m) = +-a.f(m) lives at perversity
                    # lam(a) + lam(m) + r; past the top it is vacuous
                    if M.kind[m] == "up" and not A.sum_labels_ok(
                            A.lam(a), M.plabel[m], r):
                        continue
                    s = F.sign(k * A.deg(a))
                    am = M.act_left(a, m)
                    for i, (m2, n2) in enumerate(pairs):
                        if m2 in am:
                            addrow((a, m, n2), i, am[m2])
                        if m2 == m:
                            for n3, c2 in P_.act_left(a, n2).items():
                                addrow((a, m, n3), i, F.neg(F.mul(s, c2)))
            sub = Subspace(F, kernel_basis(
                SparseMatrix.from_columns(F, len(rows), cols)))
            slots[(r, k)] = (pairs, sub)
            if sub.dim:
                out.basis[(r, k)] = ["f%d" % i for i in range(sub.dim)]
    # d_M transposed: m -> {m2: the coefficient of m in d m2}
    dM_in = {}
    for m2 in M.names:
        for m, x in M.d(m2).items():
            dM_in.setdefault(m, {})[m2] = x

    def d(k, key):
        "d f = d_P f - (-1)^k f d_M on the basis map m -> n"
        m, n = key
        w = {(m, n2): x for n2, x in P_.d(n).items()}
        nsk = F.sign(k + 1)
        for m2, x in dM_in.get(m, {}).items():
            vec_iadd(F, w, {(m2, n): F.mul(nsk, x)})
        return w

    return induce(out, slots, d)


def module_tensor(M, P_):
    """M box_A P_: cokernel of m.a @ p - m @ a.p, slotwise (up-type modules).
    The keys of a slot are the pairs (m, p), the basis element m @ p"""
    A = M.algebra
    if P_.algebra is not A:
        raise ValueError("modules over different algebras")
    F, P = A.field, A.poset
    out = PerverseComplex(F, P)

    def under(r, *labels):
        "the labels sum to a perversity at most r"
        lab = P.oplus_all(labels)
        return lab is not None and leq(lab, r)

    degs = sorted({M.degree[m] + P_.degree[p] for m in M.names for p in P_.names})
    slots = {}
    for r in P.elements:
        for k in range(min(degs), max(degs) + 2):
            pairs = [(m, p) for m in M.names for p in P_.names
                     if M.degree[m] + P_.degree[p] == k
                     and M.kind[m] == "up" and P_.kind[p] == "up"
                     and under(r, M.plabel[m], P_.plabel[p])]
            index = {pr: i for i, pr in enumerate(pairs)}
            rels = []
            for a in A.nonunit():
                for m in M.names:
                    for p in P_.names:
                        if M.degree[m] + A.deg(a) + P_.degree[p] != k:
                            continue
                        if M.kind[m] != "up" or P_.kind[p] != "up":
                            continue
                        if not under(r, M.plabel[m], A.lam(a), P_.plabel[p]):
                            continue
                        col = {}
                        for m2, c in M.act_right(m, a).items():
                            if (m2, p) in index:
                                vec_iadd(F, col, {index[(m2, p)]: c})
                        for p2, c in P_.act_left(a, p).items():
                            if (m, p2) in index:
                                vec_iadd(F, col, {index[(m, p2)]: F.neg(c)})
                        if col:
                            rels.append(col)
            quot = Quotient(F, len(pairs), rels)
            slots[(r, k)] = (pairs, quot)
            if quot.dim:
                out.basis[(r, k)] = [pairs[i] for i in quot.free]

    def d(k, key):
        "d (m @ p) = dm @ p + (-1)^|m| m @ dp"
        m, p = key
        w = {(m2, p): c for m2, c in M.d(m).items()}
        sgn = F.sign(M.degree[m])
        for p2, c in P_.d(p).items():
            vec_iadd(F, w, {(m, p2): F.mul(sgn, c)})
        return w

    return induce(out, slots, d)
