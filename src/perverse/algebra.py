"""Perverse differential graded algebras with labeled bases, and their modules.

A PDGA carries a finite basis where every element has a degree and a minimal
perversity label; the component at perversity p is the span of elements with
label <= p and all structure maps are inclusions (the p-filtered shape, which
is cofibrant).  Products of elements whose label sum exceeds the top
perversity land in the degenerate zero slot and are 0 by convention.

Vectors are dicts {basis name: scalar}.
"""

import itertools

from .linalg import (SparseMatrix, SlotComplex, vec_add, vec_scale,
                     kernel_basis, Quotient)
from .poset import leq
from .complexes import PerverseComplex, _Subspace


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

    def deg(self, x):
        return self.degree[x]

    def lam(self, x):
        return self.label[x]

    def nonunit(self):
        return [x for x in self.names if x != self.unit]

    def d(self, x):
        return dict(self.diffs.get(x, {}))

    def d_vec(self, v):
        out = {}
        for x, c in v.items():
            out = vec_add(self.field, out, vec_scale(self.field, c, self.d(x)))
        return out

    def sum_labels_ok(self, *labels):
        tot = [0] * (self.poset.n + 1)
        for l in labels:
            tot = [a + b for a, b in zip(tot, l)]
        return all(a <= t for a, t in zip(tot, self.poset.top))

    def mul(self, a, b):
        "product of two basis elements, as a vector"
        if not self.sum_labels_ok(self.lam(a), self.lam(b)):
            return {}
        if a == self.unit:
            return {b: self.field.one}
        if b == self.unit:
            return {a: self.field.one}
        return dict(self.products.get((a, b), {}))

    def mul_vec(self, u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                c = self.field.mul(ca, cb)
                out = vec_add(self.field, out, vec_scale(self.field, c, self.mul(a, b)))
        return out

    def slot_basis(self, p, k):
        return [x for x in self.names
                if self.degree[x] == k and leq(self.label[x], p)]

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
            if not self.sum_labels_ok(self.lam(a), self.lam(b)):
                check("degenerate slot product", (a, b),
                      self.products.get((a, b), {}), {})
                continue
            target = self.poset.oplus(self.lam(a), self.lam(b))
            for y in ab:
                if self.degree[y] != self.degree[a] + self.degree[b]:
                    bad.append({"identity": "product degree", "witness": (a, b, y),
                                "lhs": self.degree[y],
                                "rhs": self.degree[a] + self.degree[b]})
                if not leq(self.lam(y), target):
                    bad.append({"identity": "product label", "witness": (a, b, y),
                                "lhs": self.lam(y), "rhs": target})
            # Leibniz
            sgn = F.neg(F.one) if self.degree[a] % 2 else F.one
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
            s = self.degree[a] * self.degree[b]
            sgn = F.neg(F.one) if s % 2 else F.one
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

    def _slots(self):
        "the underlying diagram of complexes, as a module with no action"
        elems = [(x, self.degree[x], "up", self.label[x]) for x in self.names]
        return ModuleSlots(Bimodule(self, elems, diff=self.diffs))

    def carrier(self):
        "the underlying PerverseComplex, slot bases ordered as self.names"
        Z = PerverseComplex(self.field, self.poset)
        slots = self._slots()
        for p in self.poset.elements:
            for k in self.degrees():
                if slots.basis(p, k):
                    Z.basis[(p, k)] = list(slots.basis(p, k))
                    if slots.basis(p, k + 1):
                        Z.d[(p, k)] = slots.matrix(p, k)
        for (p, q) in self.poset.covers():
            for k in self.degrees():
                src = slots.basis(p, k)
                if not src:
                    continue
                dst = slots.index(q, k)
                m = SparseMatrix(self.field, len(dst), len(src))
                for j, x in enumerate(src):
                    m[dst[x], j] = self.field.one
                Z.phi[(p, q, k)] = m
        return Z

    def homology(self):
        "table (p, degree) -> slot Subquotient of the underlying diagram"
        slots = self._slots()
        degs = self.degrees()
        return {(p, k): slots.homology(p, k) for p in self.poset.elements
                for k in range(min(degs), max(degs) + 2)}

    def homology_dims(self):
        return {pk: H.dim for pk, H in self.homology().items() if H.dim}

    def opposite(self):
        F = self.field
        prods = {}
        for a in self.nonunit():
            for b in self.nonunit():
                s = self.degree[a] * self.degree[b]
                sgn = F.neg(F.one) if s % 2 else F.one
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
            if not A.sum_labels_ok(A.lam(a), B.lam(b)):
                continue
            lab = P.oplus(A.lam(a), B.lam(b))
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
        sgn = F.neg(F.one) if A.deg(a) % 2 else F.one
        v = vec_add(F, inject(A.d(a), {b: F.one}),
                    vec_scale(F, sgn, inject({a: F.one}, B.d(b))))
        if v:
            diff[(a, b)] = v
    prods = {}
    for (a1, b1) in names:
        for (a2, b2) in names:
            if (a1, b1) == unit or (a2, b2) == unit:
                continue
            s = A.deg(a2) * B.deg(b1)
            sgn = F.neg(F.one) if s % 2 else F.one
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
    words = [()]
    for k in range(1, L + 1):
        words += [w for w in itertools.product([g[0] for g in gens], repeat=k)]

    def word_label(w):
        out = poset.zero
        for x in w:
            out = poset.oplus(out, label[x])
            if out is None:
                return None
        return out

    words = [w for w in words if word_label(w) is not None]
    wset = set(words)
    gens2 = [(w, sum(degree[x] for x in w), word_label(w)) for w in words]
    prods = {}
    for w1 in words:
        for w2 in words:
            if not w1 or not w2:
                continue
            w = w1 + w2
            prods[(w1, w2)] = {w: field.one} if w in wset else {}
    diffs = {}
    for w in words:
        v = {}
        for i, x in enumerate(w):
            pre = sum(degree[y] for y in w[:i])
            sgn = field.neg(field.one) if pre % 2 else field.one
            for y, c in diff.get(x, {}).items():
                w2 = w[:i] + (y,) + w[i + 1:]
                if w2 in wset:
                    v = vec_add(field, v, {w2: field.mul(sgn, field.of(c))})
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
        self.diffs = {k: dict(v) for k, v in (diff or {}).items() if v}
        self.left = {k: dict(v) for k, v in (left or {}).items() if v}
        self.right = {k: dict(v) for k, v in (right or {}).items() if v}

    def deg(self, m):
        return self.degree[m]

    def present(self, m, p):
        if self.kind[m] == "up":
            return leq(self.plabel[m], p)
        return leq(p, self.plabel[m])

    def d(self, m):
        return dict(self.diffs.get(m, {}))

    def d_vec(self, v):
        out = {}
        for m, c in v.items():
            out = vec_add(self.field, out, vec_scale(self.field, c, self.d(m)))
        return out

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
        out = {}
        for a, ca in avec.items():
            for m, cm in mvec.items():
                c = self.field.mul(ca, cm)
                out = vec_add(self.field, out,
                              vec_scale(self.field, c, self.act_left(a, m)))
        return out

    def act_right_vec(self, mvec, avec):
        out = {}
        for m, cm in mvec.items():
            for a, ca in avec.items():
                c = self.field.mul(cm, ca)
                out = vec_add(self.field, out,
                              vec_scale(self.field, c, self.act_right(m, a)))
        return out

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
            sa = F.neg(F.one) if A.deg(a) % 2 else F.one
            for m in self.names:
                mv = {m: F.one}
                sm = F.neg(F.one) if (A.deg(a) + self.degree[m]) % 2 else F.one
                smm = F.neg(F.one) if self.degree[m] % 2 else F.one
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
    "per-slot graded homology of a perverse module with labeled basis"

    def __init__(self, M):
        super().__init__(M.field)
        self.M = M

    def degrees(self):
        return sorted(set(self.M.degree.values()))

    def slot_basis(self, r, k):
        return [m for m in self.M.names
                if self.M.degree[m] == k and self.M.present(m, r)]

    def matrix(self, r, k):
        return self.assemble(r, k, self.M.d)


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
        sgn = F.neg(F.one) if A.deg(b) % 2 else F.one
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
            sa = F.neg(F.one) if A.deg(a) % 2 else F.one
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
    f(a.m) = (-1)^{|f||a|} a.f(m); both modules over the same algebra"""
    A = M.algebra
    if P_.algebra is not A:
        raise ValueError("modules over different algebras")
    F, P = A.field, A.poset
    out = PerverseComplex(F, P)
    lo, hi = degwindow
    data = {}
    for r in P.elements:
        for k in range(lo, hi + 2):
            # ambient: pairs (m, n) with n present wherever needed; the
            # labeled shape reduces the hom constraint to a presence test
            pairs = []
            for m in M.names:
                for n in P_.names:
                    if P_.degree[n] != M.degree[m] + k:
                        continue
                    target = P.oplus(M.plabel[m], r) if M.kind[m] == "up" else None
                    if M.kind[m] == "up":
                        if target is None or not P_.present(n, target):
                            continue
                    pairs.append((m, n))
            # equivariance as linear constraints on coefficients c_{m,n}
            sk = F.neg(F.one) if k % 2 else F.one
            rows = {}

            def addrow(key, idx, coef):
                rows.setdefault(key, {})
                rows[key][idx] = F.add(rows[key].get(idx, F.zero), coef)

            for a in A.nonunit():
                for m in M.names:
                    # the equation f(a.m) = +-a.f(m) lives at perversity
                    # lam(a) + lam(m) + r; past the top it is vacuous
                    if M.kind[m] == "up" and not A.sum_labels_ok(
                            A.lam(a), M.plabel[m], r):
                        continue
                    s = F.one
                    if (k * A.deg(a)) % 2:
                        s = F.neg(F.one)
                    for i, (m2, n2) in enumerate(pairs):
                        c1 = M.act_left(a, m).get(m2, F.zero)
                        if not F.iszero(c1):
                            addrow((a, m, n2), i, c1)
                        if m2 == m:
                            for n3, c2 in P_.act_left(a, n2).items():
                                addrow((a, m, n3), i, F.neg(F.mul(s, c2)))
            mat = SparseMatrix(F, len(rows), len(pairs))
            for ri, key in enumerate(sorted(rows.keys(), key=repr)):
                for i, c in rows[key].items():
                    mat[ri, i] = c
            ker = kernel_basis(mat)
            data[(r, k)] = (pairs, {pr: i for i, pr in enumerate(pairs)},
                            ker)
            if ker:
                out.basis[(r, k)] = ["f%d" % i for i in range(len(ker))]
    subs = {rk: _Subspace(F, ker) for rk, (_, _, ker) in data.items()}
    for r in P.elements:
        for k in range(lo, hi + 1):
            pairs, _, ker = data[(r, k)]
            tpairs, tindex, tker = data[(r, k + 1)]
            m = SparseMatrix(F, len(tker), len(ker))
            sk = F.neg(F.one) if k % 2 else F.one
            for col, kv in enumerate(ker):
                w = {}
                for i, c in kv.items():
                    mm, nn = pairs[i]
                    for n2, x in P_.d(nn).items():
                        j = tindex.get((mm, n2))
                        if j is not None:
                            w[j] = F.add(w.get(j, F.zero), F.mul(c, x))
                for i2, (m2, n2) in enumerate(tpairs):
                    tot = F.zero
                    for i, c in kv.items():
                        mm, nn = pairs[i]
                        if nn != n2:
                            continue
                        x = M.d(m2).get(mm, F.zero)
                        if not F.iszero(x):
                            tot = F.add(tot, F.mul(c, x))
                    if not F.iszero(tot):
                        w[i2] = F.sub(w.get(i2, F.zero), F.mul(sk, tot))
                w = {i: c for i, c in w.items() if not F.iszero(c)}
                for row, c in subs[(r, k + 1)].coords(w).items():
                    m[row, col] = c
            out.d[(r, k)] = m
    for (r, r2) in P.covers():
        for k in range(lo, hi + 2):
            pairs, _, ker = data[(r, k)]
            _, tindex, _ = data[(r2, k)]
            m = SparseMatrix(F, subs[(r2, k)].dim, len(ker))
            for col, kv in enumerate(ker):
                w = {}
                for i, c in kv.items():
                    if pairs[i] in tindex:
                        w[tindex[pairs[i]]] = c
                for row, c in subs[(r2, k)].coords(w).items():
                    m[row, col] = c
            out.phi[(r, r2, k)] = m
    return out


def module_tensor(M, P_):
    """M box_A P_: cokernel of m.a @ p - m @ a.p, slotwise (up-type modules)"""
    A = M.algebra
    if P_.algebra is not A:
        raise ValueError("modules over different algebras")
    F, P = A.field, A.poset
    out = PerverseComplex(F, P)
    degs = sorted({M.degree[m] + P_.degree[p] for m in M.names for p in P_.names})
    data = {}
    for r in P.elements:
        for k in range(min(degs), max(degs) + 2):
            pairs = [(m, p) for m in M.names for p in P_.names
                     if M.degree[m] + P_.degree[p] == k
                     and M.kind[m] == "up" and P_.kind[p] == "up"
                     and A.sum_labels_ok(M.plabel[m], P_.plabel[p])
                     and leq(P.oplus(M.plabel[m], P_.plabel[p]), r)]
            index = {pr: i for i, pr in enumerate(pairs)}
            rels = []
            for a in A.nonunit():
                for m in M.names:
                    for p in P_.names:
                        if M.degree[m] + A.deg(a) + P_.degree[p] != k:
                            continue
                        if M.kind[m] != "up" or P_.kind[p] != "up":
                            continue
                        tot = [x + y + z for x, y, z in
                               zip(M.plabel[m], A.lam(a), P_.plabel[p])]
                        if any(x > t for x, t in zip(tot, P.top)):
                            continue
                        if not leq(P.oplus(P.oplus(M.plabel[m], A.lam(a)),
                                           P_.plabel[p]), r):
                            continue
                        col = {}
                        for m2, c in M.act_right(m, a).items():
                            i = index.get((m2, p))
                            if i is not None:
                                col[i] = F.add(col.get(i, F.zero), c)
                        for p2, c in P_.act_left(a, p).items():
                            i = index.get((m, p2))
                            if i is not None:
                                col[i] = F.sub(col.get(i, F.zero), c)
                        col = {i: c for i, c in col.items() if not F.iszero(c)}
                        if col:
                            rels.append(col)
            quot = Quotient(F, len(pairs), rels)
            data[(r, k)] = (pairs, index, quot)
            if quot.dim:
                out.basis[(r, k)] = [pairs[quot.free[i]] for i in range(quot.dim)]
    for r in P.elements:
        for k in range(min(degs), max(degs) + 1):
            pairs, _, quot = data[(r, k)]
            _, tindex, tquot = data[(r, k + 1)]
            mt = SparseMatrix(F, tquot.dim, quot.dim)
            for col in range(quot.dim):
                m, p = pairs[quot.free[col]]
                w = {}
                for m2, c in M.d(m).items():
                    i = tindex.get((m2, p))
                    if i is not None:
                        w[i] = F.add(w.get(i, F.zero), c)
                sgn = F.neg(F.one) if M.degree[m] % 2 else F.one
                for p2, c in P_.d(p).items():
                    i = tindex.get((m, p2))
                    if i is not None:
                        w[i] = F.add(w.get(i, F.zero), F.mul(sgn, c))
                for row, c in tquot.project(w).items():
                    mt[row, col] = c
            out.d[(r, k)] = mt
    for (r, r2) in P.covers():
        for k in range(min(degs), max(degs) + 2):
            pairs, _, quot = data[(r, k)]
            _, tindex, tquot = data[(r2, k)]
            mt = SparseMatrix(F, tquot.dim, quot.dim)
            for col in range(quot.dim):
                mp = pairs[quot.free[col]]
                w = {tindex[mp]: F.one}
                for row, c in tquot.project(w).items():
                    mt[row, col] = c
            out.phi[(r, r2, k)] = mt
    return out
