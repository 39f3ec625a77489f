"""Reference constructions the tests check the library against, and the maps
that only state a test identity.  None of them is part of `perverse`, and no
library module reads them:

- the brute-force perversity sum, the meet and join of two perversities,
  the cover relation from its definition and the diamonds under a
  perversity by search;
- the opposite and enveloping algebras and the quasi-isomorphism of
  acceptance criterion 8, test inputs, and the dg bimodule axioms, which
  algebra_as_bimodule, dual_bimodule and restrict_bimodule are checked
  against;
- the augmentation and contracting homotopy of the bar complex;
- the Eilenberg-Zilber shuffle map (Eilenberg-Mac Lane, Ann. Math. 58,
  1953), the shuffle product on Hochschild chains, the differential of a
  tensor of bar complexes and AW on vectors, which the Alexander-Whitney
  transport of perverse.kunneth is checked against;
- the box tensor presented over the full index diagram, which
  complexes.box_tensor is checked against;
- the cofibrancy certificate from a basis of each image intersection,
  which complexes.cofibrancy_certificate is checked against, a complex
  that fails its minimum condition, and functoriality checked along every
  chain of covers, which PerverseComplex.validate is checked against.
"""

import functools
import itertools
from collections import namedtuple

from perverse.fields import QQ
from perverse.linalg import (SparseMatrix, Echelon, kernel_basis, vec_iadd,
                             vec_scale, signed_sum, linear, bilinear,
                             quotient)
from perverse.poset import leq
from perverse.algebra import PDGA, tensor_pdga
from perverse.builders import truncated_polynomial
from perverse.hochschild import bar_degree, bar_ok, sdeg
from perverse.suite import Bar
from perverse.kunneth import alexander_whitney
from perverse.complexes import PerverseComplex, _box_objects, _box_keys


# ---------------------------------------------------------------------------
# perversities


def oplus_bruteforce(P, p, q):
    "the least perversity of P above p + q, from the whole poset"
    s = tuple(a + b for a, b in zip(p, q))
    cands = [r for r in P.elements if leq(s, r)]
    if not cands:
        return None
    mins = [m for m in cands if all(leq(m, c) for c in cands)]
    if len(mins) != 1:
        raise ValueError("no unique least perversity above %r" % (s,))
    return mins[0]


def _pointwise(P, op, p, q):
    "op of two perversities of P entry by entry, which must be one of P"
    v = tuple(map(op, p, q))
    if v not in P:
        raise ValueError("not a rank-%d perversity: %r" % (P.n, v))
    return v


def meet(P, p, q):
    "the pointwise minimum of two perversities of P"
    return _pointwise(P, min, p, q)


def join(P, p, q):
    "the pointwise maximum of two perversities of P"
    return _pointwise(P, max, p, q)


def covers_bruteforce(P):
    "the covering pairs (p, q) of P from the definition, cubic in |P|"
    els = P.elements
    return [(p, q) for p in els for q in els if p != q and leq(p, q)
            and not any(r != p and r != q and leq(p, r) and leq(r, q)
                        for r in els)]


def diamonds_bruteforce(P):
    """{p: the diamonds (m, x, y, j) under p}: x before y two distinct
    covers of m from covers_bruteforce, and j the least perversity above
    both, found in the whole poset, with j <= p"""
    covers = covers_bruteforce(P)
    squares = []
    for m in P.elements:
        ups = [b for a, b in covers if a == m]
        for x, y in itertools.combinations(ups, 2):
            above = [r for r in P.elements if leq(x, r) and leq(y, r)]
            j = next(r for r in above if all(leq(r, s) for s in above))
            squares.append((m, x, y, j))
    return {p: [s for s in squares if leq(s[3], p)] for p in P.elements}


# ---------------------------------------------------------------------------
# algebras and bimodules


def opposite(A):
    "A^op: the product a.b = (-1)^{|a||b|} ba"
    F = A.field
    prods = {}
    for a in A.nonunit():
        for b in A.nonunit():
            sgn = F.sign(A.degree[a] * A.degree[b])
            v = vec_scale(F, sgn, A.mul(b, a))
            if v:
                prods[(a, b)] = v
    return PDGA(F, A.poset,
                [(x, A.degree[x], A.label[x]) for x in A.names],
                A.unit, diff=A.diffs, products=prods)


def opposite_and_enveloping(A):
    op = opposite(A)
    return op, tensor_pdga(A, op)


def quasi_iso_fixture(field, poset):
    """inclusion f: A -> B where B adds an acyclic pair (y, z = dy) with all
    products into the pair equal to zero; f is a quasi-isomorphism"""
    A = truncated_polynomial(field, poset, 2)
    z0 = poset.zero
    gens = [("1", 0, z0), ("x", 2, z0), ("y", 3, z0), ("z", 4, z0)]
    prods = {(a, b): {} for a in ["x", "y", "z"] for b in ["x", "y", "z"]}
    B = PDGA(field, poset, gens, "1",
             diff={"y": {"z": field.one}}, products=prods)
    fmap = {"1": {"1": field.one}, "x": {"x": field.one}}
    return A, B, fmap


def validate_bimodule(M):
    """the dg bimodule axioms of M, each violation a record {identity,
    witness, lhs, rhs}: d_M squared and its degree, the units, Leibniz,
    associativity and compatibility of both actions, and action degrees"""
    A, F = M.algebra, M.field
    bad = []

    def check(name, witness, lhs, rhs):
        if lhs != rhs:
            bad.append({"identity": name, "witness": witness,
                        "lhs": lhs, "rhs": rhs})

    for m in M.names:
        check("d_M squared", m, M.d_vec(M.d(m)), {})
        for y in M.d(m):
            check("d_M degree", (m, y), M.degree[y], M.degree[m] + 1)
    one = {A.unit: F.one}
    for m in M.names:
        mv = {m: F.one}
        check("left unit", m, M.act_left_vec(one, mv), mv)
        check("right unit", m, M.act_right_vec(mv, one), mv)
    for a in A.names:
        av = {a: F.one}
        for m in M.names:
            mv = {m: F.one}
            # Leibniz, both sides
            check("left Leibniz", (a, m),
                  M.d_vec(M.act_left(a, m)), signed_sum(F, [
                      (0, M.act_left_vec(A.d(a), mv)),
                      (A.deg(a), M.act_left_vec(av, M.d(m)))]))
            check("right Leibniz", (m, a),
                  M.d_vec(M.act_right(m, a)), signed_sum(F, [
                      (0, M.act_right_vec(M.d(m), av)),
                      (M.degree[m], M.act_right_vec(mv, A.d(a)))]))
            for b in A.names:
                bv = {b: F.one}
                check("left associativity", (a, b, m),
                      M.act_left_vec(av, M.act_left(b, m)),
                      M.act_left_vec(A.mul(a, b), mv))
                check("right associativity", (m, a, b),
                      M.act_right_vec(M.act_right(m, a), bv),
                      M.act_right_vec(mv, A.mul(a, b)))
                check("bimodule compatibility", (a, m, b),
                      M.act_right_vec(M.act_left(a, m), bv),
                      M.act_left_vec(av, M.act_right(m, b)))
    for a in A.names:
        for m in M.names:
            for v, wit in [(M.act_left(a, m), ("left", a, m)),
                           (M.act_right(m, a), ("right", m, a))]:
                for y in v:
                    check("action degree", wit + (y,), M.degree[y],
                          M.degree[m] + A.deg(a))
    return {"valid": not bad, "violations": bad}


# ---------------------------------------------------------------------------
# the bar complex


def q_A(bar, vec):
    "augmentation to A: a[]b -> ab, zero on positive lengths"
    A = bar.A
    return linear(A.field, lambda word: {} if word[1] else A.mul(
        word[0], word[2]), vec)


def h(bar, vec):
    "contracting homotopy: prepend the unit-complement part of a"
    A, F = bar.A, bar.A.field

    def h_word(word):
        a, w, b = word
        if a == A.unit:
            return {}
        if len(w) >= bar.L:
            raise OverflowError("homotopy exceeds max length %d" % bar.L)
        word = (A.unit, (a,) + w, b)
        return {word: F.one} if bar_ok(A, word) else {}

    return linear(F, h_word, vec)


# ---------------------------------------------------------------------------
# shuffles and the Eilenberg-Zilber map


Shuffle = namedtuple("Shuffle", ["s", "t", "apos", "bpos", "cross"])
Shuffle.__doc__ = """an (s, t)-shuffle: apos and bpos are the output
positions of the two blocks, each increasing; cross lists the cross-block
inversion pairs (i, j), so the inversion count |sigma| is len(cross)"""


@functools.lru_cache(maxsize=None)
def shuffles(s, t):
    "all (s, t)-shuffles, memoized per (s, t)"
    out = []
    for apos in itertools.combinations(range(s + t), s):
        taken = set(apos)
        bpos = tuple(p for p in range(s + t) if p not in taken)
        cross = tuple((i, j) for i in range(s) for j in range(t)
                      if apos[i] > bpos[j])
        out.append(Shuffle(s, t, apos, bpos, cross))
    return tuple(out)


def pair_D(A, B, vec):
    "differential of B(A) box B(B): D box 1 + (-1)^{|u|} 1 box D"
    F = A.field
    ba, bb = Bar(A, 0), Bar(B, 0)

    def D(uv):
        u, v = uv
        out = {(u2, v): cu for u2, cu in ba.D_word(u).items()}
        return vec_iadd(F, out, {(u, v2): cv for v2, cv in
                                 bb.D_word(v).items()},
                        F.sign(bar_degree(A, u)))

    return linear(F, D, vec)


def alexander_whitney_vec(A, B, T, vec):
    return linear(A.field, lambda word: alexander_whitney(A, B, T, word), vec)


def eilenberg_zilber(A, B, T, u, v):
    """EZ of a pair of bar words into the bar of the tensor algebra; the
    shuffle sum on end-unit words, extended equivariantly over the ends
    (the extension pays the Koszul cost of peeling the ends off first)"""
    F = T.field
    a0, wa, a1 = u
    b0, wb, b1 = v
    if (a0, b0) not in T.degree or (a1, b1) not in T.degree:
        return {}
    sa = [sdeg(A, x) for x in wa]
    sb = [sdeg(B, y) for y in wb]
    par0 = B.deg(b0) * sum(sa) + A.deg(a1) * (B.deg(b0) + sum(sb))
    out = {}
    for sh in shuffles(len(wa), len(wb)):
        mid = [None] * (sh.s + sh.t)
        for i, p in enumerate(sh.apos):
            mid[p] = (wa[i], B.unit)
        for j, p in enumerate(sh.bpos):
            mid[p] = (A.unit, wb[j])
        word = ((a0, b0), tuple(mid), (a1, b1))
        if all(e in T.degree for e in mid) and bar_ok(T, word):
            cross = sum(sa[i] * sb[j] for i, j in sh.cross)
            vec_iadd(F, out, {word: F.sign(par0 + cross)})
    return out


def eilenberg_zilber_vec(A, B, T, vec):
    return linear(T.field, lambda uv: eilenberg_zilber(A, B, T, *uv), vec)


def shuffle_product(A, B, T, x, y, maxlen=None):
    """sh on Hochschild chains {(m, word): c} of the two factors, landing
    in chains of the tensor algebra: EZ of the unit-ended bar words
    m[wa]1 and n[wb]1, read back as the chain (m n)[middle].

    EZ makes the B-coefficient pay the Koszul cost of crossing the
    suspended A-word before the entries interleave; this placement makes
    sh a chain map, and the cyclic operator is then a derivation for sh on
    homology (not at chain level, where the classical cyclic-shuffle
    homotopy intervenes)."""

    def sh_pair(mwa, nwb):
        (m0, wa), (n0, wb) = mwa, nwb
        if maxlen is not None and len(wa) + len(wb) > maxlen:
            raise OverflowError("shuffle exceeds max length %d: %d + %d"
                                % (maxlen, len(wa), len(wb)))
        return {(c0, mid): c for (c0, mid, _), c in eilenberg_zilber(
            A, B, T, (m0, wa, A.unit), (n0, wb, B.unit)).items()}

    return bilinear(T.field, sh_pair, x, y)


# ---------------------------------------------------------------------------
# the box tensor over the full index diagram


def box_tensor_fulldiagram(Z, Y):
    """the colimit of complexes.box_tensor presented with difference maps
    for every relation p <= q in the index poset, not just covering ones;
    only its dimensions are stated, as placeholder basis labels"""
    if Z.field != Y.field or Z.poset is not Y.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = Z.field, Z.poset
    out = PerverseComplex(field, P)
    degs = sorted({i + j for i in Z.degrees() for j in Y.degrees()})
    if not degs:
        return out
    kmin, kmax = min(degs), max(degs)
    for r in P.elements:
        objs = _box_objects(P, r)
        for k in range(kmin, kmax + 1):
            keys = _box_keys(Z, Y, objs, k)
            rels = []
            for key in keys:
                (p, q), (i, zi, yi) = key
                for dst in objs:
                    if dst == (p, q) or not (leq(p, dst[0])
                                             and leq(q, dst[1])):
                        continue
                    fz = Z.structure_map(p, dst[0], i).columns()[zi]
                    fy = Y.structure_map(q, dst[1], k - i).columns()[yi]
                    rel = {(dst, (i, zi2, yi2)): field.mul(cz, cy)
                           for zi2, cz in fz.items() for yi2, cy in fy.items()}
                    rel[key] = field.neg(field.one)
                    rels.append(rel)
            quot = quotient(field, keys, rels)
            if quot.dim:
                out.basis[(r, k)] = ["c%d" % i for i in range(quot.dim)]
    return out


# ---------------------------------------------------------------------------
# cofibrancy


def span_equal(field, cols1, cols2):
    e1 = Echelon(field)
    for c in cols1:
        e1.add(c)
    e2 = Echelon(field)
    for c in cols2:
        e2.add(c)
    return all(e1.contains(c) for c in cols2) and all(e2.contains(c) for c in cols1)


def span_intersection(field, n, cols1, cols2):
    "basis of span(cols1) & span(cols2)"
    m1 = len(cols1)
    A = SparseMatrix.from_columns(field, n, list(cols1) + [
        vec_scale(field, field.minus_one, c) for c in cols2])
    out = Echelon(field)
    for k in kernel_basis(A):
        out.add(linear(field, cols1.__getitem__,
                       {j: c for j, c in k.items() if j < m1}))
    return list(out.cols.values())


def cofibrancy_by_spans(Z):
    """the report of complexes.cofibrancy_certificate but its count of
    minimum checks, with the minimum condition checked on every pair q1, q2
    below p, comparable or not, by a basis of im(q1 -> p) & im(q2 -> p) and
    a span comparison with im(min(q1, q2) -> p), and one injectivity check
    per cover and degree"""
    P = Z.poset
    field = Z.field
    degs = Z.degrees()
    failures = []
    injective = True
    for (p, q) in P.covers():
        for k in degs:
            f = Z.cover_map(p, q, k)
            if f.rank() != Z.dim(p, k):
                injective = False
                failures.append(("injectivity", p, q, k))
    minimum = True
    for p in P.elements:
        below = [q for q in P.elements if leq(q, p) and q != p]
        for q1, q2 in itertools.combinations(below, 2):
            m = meet(P, q1, q2)
            for k in degs:
                cols = [Z.structure_map(q, p, k).columns()
                        for q in (q1, q2, m)]
                inter = span_intersection(field, Z.dim(p, k), *cols[:2])
                if not span_equal(field, inter, cols[2]):
                    minimum = False
                    failures.append(("minimum", q1, q2, p, k))
    return {
        "injective": injective,
        "minimum_condition": minimum,
        "cofibrant_sufficient": injective and minimum,
        "injective_checks": len(P.covers()) * len(degs),
        "failures": failures,
    }


def functorial_by_chains(Z):
    """whether, for every p <= q and degree, the products of the cover maps
    along all the chains of covers from p to q are one map: every chain is
    walked, not only the diamond squares PerverseComplex.validate reads"""
    P = Z.poset
    ups = {p: [q for a, q in covers_bruteforce(P) if a == p]
           for p in P.elements}
    for p in P.elements:
        for k in Z.degrees():
            # the distinct products along the chains from p, by endpoint
            reached = {p: [SparseMatrix.identity(Z.field, Z.dim(p, k))]}
            frontier = [p]
            while frontier:
                nxt = []
                for b in frontier:
                    for q in ups[b]:
                        if q not in reached:
                            reached[q] = []
                            nxt.append(q)
                        for m in reached[b]:
                            m2 = Z.cover_map(b, q, k).mul(m)
                            if m2 not in reached[q]:
                                reached[q].append(m2)
                frontier = nxt
            if any(len(ms) > 1 for ms in reached.values()):
                return False
    return True


def minimum_condition_counterexample(P, q1, q2, field=QQ):
    """an injective functorial complex in degree 0 failing the minimum
    condition at the incomparable q1, q2: w at each perversity above q1 or
    q2, u and v above their join j, and w goes to u.  So im(q1 -> j) and
    im(q2 -> j) are both span(u), while the slot at min(q1, q2) is zero"""
    j = join(P, q1, q2)
    Z = PerverseComplex(field, P)
    for r in P.elements:
        if leq(j, r):
            Z.basis[(r, 0)] = ["u", "v"]
        elif leq(q1, r) or leq(q2, r):
            Z.basis[(r, 0)] = ["w"]
    for (a, b) in P.covers():
        da, db = Z.dim(a, 0), Z.dim(b, 0)
        if da:
            Z.phi[(a, b, 0)] = SparseMatrix.from_columns(
                field, db, [{i: field.one} for i in range(da)])
    Z.validate()
    return Z
