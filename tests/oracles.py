"""Reference constructions the tests check the library against, and the maps
that only state a test identity.  None of them is part of `perverse`, and no
library module reads them:

- the brute-force perversity sum, the meet and join of two perversities,
  the cover relation from its definition, the lower covers of a
  perversity read from the upper ones, and the diamonds under a
  perversity by search;
- the opposite and enveloping algebras, the acyclic-pair extension and
  the quasi-isomorphism of acceptance criterion 8 built from it, test
  inputs, and the dg bimodule axioms, which
  algebra_as_bimodule, dual_bimodule and restrict_bimodule are checked
  against;
- the truncated bar complex, its word list read from middle_words and its
  differential from suite.bar_D_word, with its augmentation and
  contracting homotopy;
- the Eilenberg-Zilber shuffle map (Eilenberg-Mac Lane, Ann. Math. 58,
  1953), the shuffle product on Hochschild chains, the differential of a
  tensor of bar complexes and AW on vectors, which the Alexander-Whitney
  transport of perverse.kunneth is checked against;
- the ambient category of the paper, perverse complexes built through
  complexes.induce from slots stated as a quotient or kernel over keys:
  the free complex on a perversity and the unit, the box tensor, the
  internal hom and the linear dual, which algebra.dual_bimodule is
  checked against slot by slot; the functor axioms of a perverse complex
  and its homology from ranks;
- the carrier of a pDGA, its underlying diagram as a perverse complex
  built through complexes.induce, which algebra.diagram_homology, the
  linear dual and the certificate tests read;
- the box tensor presented over the full index diagram, which box_tensor
  is checked against;
- the cofibrancy certificate from a basis of each image intersection,
  which complexes.cofibrancy_certificate is checked against, a complex
  that fails its minimum condition, and functoriality checked along every
  chain of covers, which validate_perverse is checked against.
"""

import functools
import itertools
from collections import namedtuple

from perverse.fields import QQ
from perverse.linalg import (SparseMatrix, Echelon, Subquotient, kernel_basis,
                             vec_iadd, vec_scale, signed_sum, linear, bilinear,
                             kernel, homology_dims, pivot_rows)
from perverse.poset import leq
from perverse.algebra import PDGA, tensor_pdga
from perverse.builders import truncated_polynomial
from perverse.hochschild import bar_degree, bar_ok, sdeg, middle_words
from perverse.suite import bar_D_word
from perverse.kunneth import alexander_whitney
from perverse.complexes import PerverseComplex, induce


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


def acyclic_pair(A, degree, label):
    """B = A plus an acyclic pair y, z = dy of degrees degree and degree + 1
    at one label, every product into the pair zero; returns B, the
    inclusion i: A -> B and the projection p: B -> A, both pDGA
    quasi-isomorphisms, since the pair is present at a slot exactly when
    both of its elements are"""
    F = A.field
    if {"y", "z"} & set(A.names):
        raise ValueError("A already has a generator y or z")
    B = PDGA(F, A.poset, [(x, A.degree[x], A.label[x]) for x in A.names]
             + [("y", degree, label), ("z", degree + 1, label)], A.unit,
             diff=dict(A.diffs, y={"z": F.one}), products=A.products)
    inclusion = {x: {x: F.one} for x in A.names}
    return B, inclusion, dict(inclusion, y={}, z={})


def quasi_iso_fixture(field, poset):
    """the inclusion f: A -> B of k[x]/x^2, |x| = 2, into its acyclic pair
    at degree 3 and the zero label; f is a quasi-isomorphism"""
    A = truncated_polynomial(field, poset, 2)
    B, inclusion, _ = acyclic_pair(A, 3, poset.zero)
    return A, B, inclusion


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


class Bar(namedtuple("Bar", ["A", "L"])):
    """the normalized two-sided bar complex of A truncated at middle length
    L: its admissible words a[w]b, and the differential of one word"""

    @property
    def words(self):
        A = self.A
        return [(a, w, b) for w in middle_words(A, self.L)
                for a in A.names for b in A.names if bar_ok(A, (a, w, b))]

    def D_word(self, word):
        return bar_D_word(self.A, word)


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

    def D(uv):
        u, v = uv
        out = {(u2, v): cu for u2, cu in bar_D_word(A, u).items()}
        return vec_iadd(F, out, {(u, v2): cv for v2, cv in
                                 bar_D_word(B, v).items()},
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
# the ambient category: perverse complexes with the box tensor, internal
# hom and linear dual (Hovey, "Intersection homological algebra", 2009)


def quotient(field, keys, relations):
    """the span of keys modulo the relations, vectors {key: c}: its reps
    are the unit vectors at the rows that head no relation, in order, and
    a term on a key outside keys raises KeyError"""
    index = {key: i for i, key in enumerate(keys)}
    return Subquotient(
        field, [{i: field.one} for i in range(len(keys))],
        [{index[key]: c for key, c in rel.items()} for rel in relations])


def rows(A):
    "the row vectors of the matrix A, its columns transposed"
    out = [dict() for _ in range(A.nrows)]
    for j, col in enumerate(A.columns()):
        for i, x in col.items():
            out[i][j] = x
    return out


def lower_covers(P, p):
    "the perversities p covers, ascending: those with p as an upper cover"
    return [a for a in P.elements if p in P.upper_covers(a)]


def slot_diff(Z, p, k):
    "the differential of Z from (p, k) to (p, k + 1), zero where Z keeps none"
    m = Z.d.get((p, k))
    if m is None:
        m = SparseMatrix(Z.field, Z.dim(p, k + 1), Z.dim(p, k))
    return m


def validate_perverse(Z):
    """raise ValueError unless the PerverseComplex Z is a functor to
    complexes: d has the slot shapes and squares to zero, each cover map
    has its shape and is a chain map, and every diamond square commutes"""
    P = Z.poset
    for p in P.elements:
        for k in Z.degrees():
            dk = slot_diff(Z, p, k)
            if (dk.nrows, dk.ncols) != (Z.dim(p, k + 1), Z.dim(p, k)):
                raise ValueError("d has the wrong shape at %s deg %d"
                                 % (p, k))
            if not slot_diff(Z, p, k + 1).mul(dk).is_zero():
                raise ValueError("d^2 != 0 at %s deg %d" % (p, k))
    for (p, q) in P.covers():
        for k in Z.degrees():
            f = Z.cover_map(p, q, k)
            if (f.nrows, f.ncols) != (Z.dim(q, k), Z.dim(p, k)):
                raise ValueError("structure map has the wrong shape at "
                                 "%s<=%s deg %d" % (p, q, k))
            # structure maps are chain maps
            lhs = slot_diff(Z, q, k).mul(f)
            rhs = Z.cover_map(p, q, k + 1).mul(slot_diff(Z, p, k))
            if lhs != rhs:
                raise ValueError("structure map not a chain map at "
                                 "%s<=%s deg %d" % (p, q, k))
    # functoriality: any two maximal chains of an interval of a
    # distributive lattice are joined by diamond swaps, so the composites
    # are path independent once every diamond square commutes
    for m, x, y, j in P.diamonds(P.top):
        for k in Z.degrees():
            if Z.cover_map(x, j, k).mul(Z.cover_map(m, x, k)) != \
                    Z.cover_map(y, j, k).mul(Z.cover_map(m, y, k)):
                raise ValueError("structure maps not functorial")


def perverse_homology(Z, p):
    """{k: dim H^k} of the PerverseComplex Z at p, from the lowest degree to
    the highest, from ranks"""
    degs = Z.degrees()
    return homology_dims(
        functools.partial(Z.dim, p),
        lambda k, cleared: pivot_rows(
            Z.field, slot_diff(Z, p, k).columns(), cleared),
        degs[0], degs[-1]) if degs else {}


def free_perverse(field, poset, p, basis, d):
    """F_p(N): the complex N of the names basis and the differential d
    placed at every perversity >= p, zero below, with identity structure
    maps on the up-set of p.  The keys of a slot are N's names"""
    free = {k: (names, quotient(field, names, []), names)
            for k, names in basis.items()}
    return induce(field, poset,
                  {(q, k): free[k] for q in poset.elements if leq(p, q)
                   for k in free},
                  lambda k, x: d(x))


def unit_perverse(field, poset):
    "the unit: one basis vector e in degree 0 at every perversity"
    return free_perverse(field, poset, poset.zero, {0: ["e"]}, lambda x: {})


def _box_objects(P, r):
    "the pairs (p, q) with p + q <= r pointwise"
    return [(p, q) for p in P.elements for q in P.elements
            if all(a + b <= c for a, b, c in zip(p, q, r))]


def _box_keys(Z, Y, objs, k):
    """the keys ((p, q), (i, zi, yi)) of the sum over objs of (Z_p tensor
    Y_q)^k: basis vector zi of Z_p^i tensor basis vector yi of Y_q^(k-i)"""
    return [((p, q), (i, zi, yi)) for (p, q) in objs for i in Z.degrees()
            for zi in range(Z.dim(p, i)) for yi in range(Y.dim(q, k - i))]


def box_tensor(Z, Y):
    """(Z box Y)_r = colim over {(p,q): p+q <= r pointwise} of Z_p tensor Y_q,
    presented by covering-relation difference maps."""
    if Z.field != Y.field or Z.poset is not Y.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = Z.field, Z.poset
    degs = sorted({i + j for i in Z.degrees() for j in Y.degrees()})
    if not degs:
        return PerverseComplex(field, P)
    kmin, kmax = min(degs), max(degs)
    # nonzero entries of each matrix, read once per matrix
    zcov = functools.cache(lambda p, q, i: Z.cover_map(p, q, i).columns())
    ycov = functools.cache(lambda p, q, j: Y.cover_map(p, q, j).columns())
    zdiff = functools.cache(lambda p, i: slot_diff(Z, p, i).columns())
    ydiff = functools.cache(lambda q, j: slot_diff(Y, q, j).columns())
    slots = {}
    for r in P.elements:
        objs = _box_objects(P, r)
        objset = set(objs)
        # the covers out of each object, on the Z side (0) or the Y side (1)
        edges = {(p, q): [((b, q), 0) for b in P.upper_covers(p)
                          if (b, q) in objset]
                 + [((p, b), 1) for b in P.upper_covers(q)
                    if (p, b) in objset] for (p, q) in objs}
        for k in range(kmin, kmax + 2):
            keys = _box_keys(Z, Y, objs, k)
            rels = []
            for key in keys:
                (p, q), (i, zi, yi) = key
                for dst, side in edges[(p, q)]:
                    if side == 0:
                        rel = {(dst, (i, zi2, yi)): c
                               for zi2, c in zcov(p, dst[0], i)[zi].items()}
                    else:
                        rel = {(dst, (i, zi, yi2)): c for yi2, c
                               in ycov(q, dst[1], k - i)[yi].items()}
                    rel[key] = field.neg(field.one)
                    rels.append(rel)
            quot = quotient(field, keys, rels)
            slots[(r, k)] = keys, quot, [
                (Z.basis[(p, i)][zi], Y.basis[(q, k - i)][yi], p, q, i)
                for (p, q), (i, zi, yi) in (keys[g] for rep in quot.reps
                                            for g in rep)]

    def d(k, key):
        "the tensor differential, objectwise"
        obj, (i, zi, yi) = key
        w = {(obj, (i + 1, zi2, yi)): x
             for zi2, x in zdiff(obj[0], i)[zi].items()}
        sgn = field.sign(i)
        for yi2, x in ydiff(obj[1], k - i)[yi].items():
            w[(obj, (i, zi, yi2))] = field.mul(sgn, x)
        return w

    return induce(field, P, slots, d)


def hom_slots(M, N):
    """the slots and key differential of Hom(M, N), as induce reads them:
    Hom(M, N)_r = lim over {(p,q): r <= q - p pointwise} of Hom(M_p, N_q),
    presented as the kernel of covering-relation difference maps; the index
    order is (p,q) <= (p',q') iff p' <= p and q <= q'.  A key of slot
    (r, k) is ((p, q), (i, mi, ni)): basis vector mi of M_p^i to basis
    vector ni of N_q^(i+k)"""
    if M.field != N.field or M.poset is not N.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = M.field, M.poset
    mdegs, ndegs = M.degrees(), N.degrees()

    def hom_basis(p, q, k):
        "(i, mi, ni): basis vector mi of M_p^i to basis vector ni of N_q^(i+k)"
        return [(i, mi, ni) for i in mdegs for mi in range(M.dim(p, i))
                for ni in range(N.dim(q, i + k))]

    # the rows of each map out of M, transposed once per matrix; the maps
    # of N are read through the columns the complex keeps
    mmap = functools.cache(lambda p, q, i: rows(M.structure_map(p, q, i)))
    mdiff = functools.cache(lambda p, i: rows(slot_diff(M, p, i)))
    ndiff = functools.cache(lambda q, j: slot_diff(N, q, j).columns())

    def d(k, key):
        "the hom differential objectwise: d f = d_N f - (-1)^k f d_M"
        obj, (i, mi, ni) = key
        w = {(obj, (i, mi, ni2)): x
             for ni2, x in ndiff(obj[1], i + k)[ni].items()}
        nsgn = field.sign(k + 1)
        for mi2, x in mdiff(obj[0], i - 1)[mi].items():
            w[(obj, (i - 1, mi2, ni))] = field.mul(nsgn, x)
        return w

    slots = {}
    if not mdegs or not ndegs:
        return slots, d
    degs = sorted({j - i for i in mdegs for j in ndegs})
    kmin, kmax = min(degs), max(degs)
    for r in P.elements:
        objs = [(p, q) for p in P.elements for q in P.elements
                if all(c <= b - a for a, b, c in zip(p, q, r))]
        objset = set(objs)
        # (p,q) -> (p',q) with p' covered by p, and (p,q) -> (p,q') with q'
        # covering q
        edges = [((p, q), (a, q)) for (p, q) in objs
                 for a in lower_covers(P, p) if (a, q) in objset] \
            + [((p, q), (p, b)) for (p, q) in objs
               for b in P.upper_covers(q) if (p, b) in objset]
        for k in range(kmin, kmax + 2):
            local = {obj: hom_basis(*obj, k) for obj in objs}
            # a difference map has a row (edge, t) per key t of its target:
            # the image of f along the edge minus f at the target
            eqs = []
            for e, ((p, q), (p2, q2)) in enumerate(edges):
                eqs += [((e, (i, mi2, ni2)), ((p, q), (i, mi, ni)),
                         field.mul(cm, cn))
                        for (i, mi, ni) in local[(p, q)]
                        for mi2, cm in mmap(p2, p, i)[mi].items()
                        for ni2, cn in N.structure_map(
                            q, q2, i + k).columns()[ni].items()]
                eqs += [((e, t), ((p2, q2), t), field.neg(field.one))
                        for t in local[(p2, q2)]]
            keys = [(obj, t) for obj in objs for t in local[obj]]
            sub = kernel(field, keys, eqs)
            slots[(r, k)] = (keys, sub, ["h%d" % i for i in range(sub.dim)])
    return slots, d


def internal_hom(M, N):
    "the PerverseComplex Hom(M, N) of the slots hom_slots(M, N)"
    return induce(M.field, M.poset, *hom_slots(M, N))


def linear_dual(Z):
    "D(Z) = Hom(Z, unit); closed form dims: DZ^m_r = dual of Z^{-m}_{t - r}"
    return internal_hom(Z, unit_perverse(Z.field, Z.poset))


# ---------------------------------------------------------------------------
# the underlying diagram of a pDGA as a perverse complex


def carrier(A):
    """the underlying PerverseComplex of the pDGA A: slot (p, k) holds the
    names of degree k with label <= p, in A.names order.  A term of d(x) off
    degree |x| + 1 or above the label of x raises ValueError, since the
    slot of x at its own label would lack it; no product is read"""
    F, P = A.field, A.poset
    for x, v in A.diffs.items():
        for y in v:
            if A.degree.get(y) != A.degree[x] + 1:
                raise ValueError("d(%r) has a term %r off degree %d"
                                 % (x, y, A.degree[x] + 1))
            if not leq(A.label[y], A.label[x]):
                raise ValueError("d(%r) has a term %r above its label"
                                 % (x, y))
    slots = {}
    for p in P.elements:
        for k in A.degrees():
            keys = [x for x in A.names if A.degree[x] == k
                    and leq(A.label[x], p)]
            if keys:
                slots[(p, k)] = keys, quotient(F, keys, []), keys
    return induce(F, P, slots, lambda k, x: A.d(x))


# ---------------------------------------------------------------------------
# the box tensor over the full index diagram


def box_tensor_fulldiagram(Z, Y):
    """the colimit of box_tensor presented with difference maps
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
    walked, not only the diamond squares validate_perverse reads"""
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
    validate_perverse(Z)
    return Z
