"""Tensor products of pDGAs and the Kunneth comparison for Hochschild
cohomology.

The bridge between the bar complex of A box B and the tensor of the two bar
complexes is the classical Alexander-Whitney / Eilenberg-Zilber pair, here
with the Koszul signs spelled out for graded entries.  AW o EZ is the
identity on the normalized complexes; the reverse composite is only a
homotopy equivalence and is never expanded term by term.

Elements of B(A) box B(B) are dicts {(u, v): coefficient} where u and v are
bar words (a0, middle, a1) of the two factors.  Bar words of the tensor
algebra use the paired generator names produced by tensor_pdga.
"""

import functools
import itertools
from collections import namedtuple

from .linalg import SparseMatrix, vec_add, vec_scale, vec_sub
from .algebra import tensor_pdga, algebra_as_bimodule
from .hochschild import (Bar, Cochains, word_sdeg, sdeg, _sgn,
                         index_cochain)
from .structure import cup, bracket, BVOperator, record_identity


# ---------------------------------------------------------------------------
# shuffles


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


def _cross_parity(sh, sa, sb):
    "Koszul parity of the interleaving on suspended entries of those degrees"
    return sum(sa[i] * sb[j] for i, j in sh.cross)


# ---------------------------------------------------------------------------
# bar-word plumbing


def _bar_ok(A, word):
    "normalized and label-admissible in the truncation-free sense"
    a, w, b = word
    if any(x == A.unit for x in w):
        return False
    return A.sum_labels_ok(A.lam(a), *([A.lam(x) for x in w] + [A.lam(b)]))


def bar_degree(A, word):
    a, w, b = word
    return A.deg(a) + A.deg(b) + word_sdeg(A, w)


def pair_D(A, B, vec):
    "differential of B(A) box B(B): D box 1 + (-1)^{|u|} 1 box D"
    F = A.field
    ba, bb = Bar(A, 0), Bar(B, 0)
    out = {}
    for (u, v), c in vec.items():
        for u2, cu in ba.D_word(u).items():
            out = vec_add(F, out, {(u2, v): F.mul(c, cu)})
        s = F.mul(c, _sgn(F, ba.degree(u)))
        for v2, cv in bb.D_word(v).items():
            out = vec_add(F, out, {(u, v2): F.mul(s, cv)})
    return out


# ---------------------------------------------------------------------------
# the Alexander-Whitney map


def alexander_whitney(A, B, T, word, coeff=None):
    """AW on a bar word of the tensor algebra: split at every index, with
    the A-tail multiplied into the right end and the B-head multiplied into
    the left end.

    The sign is the Koszul cost of unbraiding the two factors.  For the
    split at i, slot j keeps its suspension on the A-half when j <= i and
    on the B-half when j > i (moving it there costs |a_j|), and every
    B-symbol then crosses all the A-symbols that follow it.  This is the
    unique placement under which AW is a chain map and a retraction of EZ;
    see the ledger for the sign bookkeeping."""
    F = A.field
    if coeff is None:
        coeff = F.one
    c0, w, c1 = word
    k = len(w)
    a = [c0[0]] + [c[0] for c in w] + [c1[0]]
    b = [c0[1]] + [c[1] for c in w] + [c1[1]]
    da = [A.deg(x) for x in a]
    db = [B.deg(x) for x in b]
    out = {}
    for i in range(k + 1):
        spar = sum(da[i + 1:k + 1])
        for j in range(k + 1):
            cross = da[k + 1] + sum((da[l] - 1) if l <= i else da[l]
                                    for l in range(j + 1, k + 1))
            p = db[j] if j <= i else db[j] - 1
            spar += p * cross
        ra = {a[i + 1]: F.one}
        for x in a[i + 2:k + 2]:
            ra = A.mul_vec(ra, {x: F.one})
        rb = {b[0]: F.one}
        for y in b[1:i + 1]:
            rb = B.mul_vec(rb, {y: F.one})
        s = F.mul(coeff, _sgn(F, spar))
        for x, cx in ra.items():
            for y, cy in rb.items():
                u = (a[0], tuple(a[1:i + 1]), x)
                v = (y, tuple(b[i + 1:k + 1]), b[k + 1])
                if _bar_ok(A, u) and _bar_ok(B, v):
                    out = vec_add(F, out,
                                  {(u, v): F.mul(s, F.mul(cx, cy))})
    return out


def alexander_whitney_vec(A, B, T, vec):
    F = A.field
    out = {}
    for word, c in vec.items():
        out = vec_add(F, out, alexander_whitney(A, B, T, word, coeff=c))
    return out


# ---------------------------------------------------------------------------
# the Eilenberg-Zilber map


def eilenberg_zilber(A, B, T, u, v, coeff=None):
    """EZ of a pair of bar words into the bar of the tensor algebra; the
    shuffle sum on end-unit words, extended equivariantly over the ends
    (the extension pays the Koszul cost of peeling the ends off first)"""
    F = T.field
    if coeff is None:
        coeff = F.one
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
        if any(e not in T.degree for e in mid):
            continue
        word = ((a0, b0), tuple(mid), (a1, b1))
        if not _bar_ok(T, word):
            continue
        s = _sgn(F, par0 + _cross_parity(sh, sa, sb))
        out = vec_add(F, out, {word: F.mul(coeff, s)})
    return out


def eilenberg_zilber_vec(A, B, T, vec):
    F = T.field
    out = {}
    for (u, v), c in vec.items():
        out = vec_add(F, out, eilenberg_zilber(A, B, T, u, v, coeff=c))
    return out


# ---------------------------------------------------------------------------
# the shuffle product on Hochschild chains


def shuffle_product(A, B, T, x, y, maxlen=None):
    """sh on Hochschild chains {(m, word): c} of the two factors, landing
    in chains of the tensor algebra.

    The B-coefficient pays the Koszul cost of crossing the suspended
    A-word before the entries interleave; this placement makes sh a chain
    map, and the cyclic operator is then a derivation for sh on homology
    (not at chain level, where the classical cyclic-shuffle homotopy
    intervenes)."""
    F = T.field
    out = {}
    for (m0, wa), cx in x.items():
        for (n0, wb), cy in y.items():
            if maxlen is not None and len(wa) + len(wb) > maxlen:
                raise OverflowError(
                    "shuffle exceeds max length %d: %d + %d"
                    % (maxlen, len(wa), len(wb)))
            if (m0, n0) not in T.degree:
                continue
            sa = [sdeg(A, z) for z in wa]
            sb = [sdeg(B, z) for z in wb]
            c = F.mul(F.mul(cx, cy), _sgn(F, B.deg(n0) * sum(sa)))
            for sh in shuffles(len(wa), len(wb)):
                mid = [None] * (sh.s + sh.t)
                for i, p in enumerate(sh.apos):
                    mid[p] = (wa[i], B.unit)
                for j, p in enumerate(sh.bpos):
                    mid[p] = (A.unit, wb[j])
                if any(e not in T.degree for e in mid):
                    continue
                if not T.sum_labels_ok(T.lam((m0, n0)),
                                       *[T.lam(e) for e in mid]):
                    continue
                s = _sgn(F, _cross_parity(sh, sa, sb))
                key = ((m0, n0), tuple(mid))
                out = vec_add(F, out, {key: F.mul(c, s)})
    return out


# ---------------------------------------------------------------------------
# transporting cochains across the comparison


def _extend(A, f_by_word, q, u):
    "A^e-bilinear extension of a reduced cochain to a bar word"
    a0, w, a1 = u
    F = A.field
    base = f_by_word.get(w)
    if not base:
        return {}
    s = _sgn(F, q * A.deg(a0))
    return vec_scale(F, s, A.mul_vec(A.mul_vec({a0: F.one}, base),
                                     {a1: F.one}))


def aw_table(A, B, T, words):
    """AW of each unit-ended bar word 1[w]1 of the tensor algebra, keyed by
    its middle word w: the only AW values tensor_cochain reads"""
    return {w: alexander_whitney(A, B, T, (T.unit, w, T.unit))
            for w in words}


def tensor_cochain(A, B, T, f, qf, g, qg, aw):
    """(f box g) pulled back along AW: a Hochschild cochain on the tensor
    algebra, evaluated on the middle words of aw, a table from aw_table
    (read, never modified)"""
    F = T.field
    fw = index_cochain(F, f)
    gw = index_cochain(F, g)
    out = {}
    for w, aw_w in aw.items():
        for (u, v), c in aw_w.items():
            fv = _extend(A, fw, qf, u)
            if not fv:
                continue
            gv = _extend(B, gw, qg, v)
            if not gv:
                continue
            s = F.mul(c, _sgn(F, qg * bar_degree(A, u)))
            for xx, cxx in fv.items():
                for yy, cyy in gv.items():
                    if (xx, yy) not in T.degree:
                        continue
                    key = (w, (xx, yy))
                    val = F.add(out.get(key, F.zero),
                                F.mul(s, F.mul(cxx, cyy)))
                    out[key] = val
    return {k: c for k, c in out.items() if not F.iszero(c)}


# ---------------------------------------------------------------------------
# the comparison suite


def hh_degree_support(A, L):
    "degrees outside which length-<=L Hochschild cochains of A vanish"
    degs = [A.deg(x) for x in A.names]
    sd = [sdeg(A, x) for x in A.nonunit()] or [0]
    return (min(degs) - L * max(0, max(sd)),
            max(degs) - L * min(0, min(sd)))


def is_constant_diagram(A):
    "all basis labels at the zero perversity: every structure map is an iso"
    return all(l == A.poset.zero for l in A.label.values())


def compare_hh(A, B, L, window):
    """dimension tables of HH(A box B) against the slotwise tensor of the
    factor tables, then the cup, bracket and Delta transports along the
    comparison, checked on cohomology representatives.  Returns the two
    tables plus per-identity records in the verify_calculus format."""
    lo, hi = window
    F = A.field
    P = A.poset
    if not (is_constant_diagram(A) or is_constant_diagram(B)):
        raise ValueError("unsupported: neither factor is a constant diagram "
                         "with finite slots")
    T = tensor_pdga(A, B)
    loA, hiA = hh_degree_support(A, L)
    loB, hiB = hh_degree_support(B, L)
    cxA = Cochains(A, algebra_as_bimodule(A), L, loA, hiA)
    cxB = Cochains(B, algebra_as_bimodule(B), L, loB, hiB)
    cxT = Cochains(T, algebra_as_bimodule(T), L, lo, hi)
    cxTm = Cochains(T, algebra_as_bimodule(T), L - 1, lo, hi)
    tabA, tabB, tabT = cxA.table(), cxB.table(), cxT.table()
    # one truncation level down, to certify slot-wise convergence in L
    tabAm = Cochains(A, algebra_as_bimodule(A), L - 1, loA, hiA).table()
    tabBm = Cochains(B, algebra_as_bimodule(B), L - 1, loB, hiB).table()
    tabTm = cxTm.table()
    # AW of 1[w]1 depends on w alone: evaluate it once per middle word of
    # cxT for all the transports below
    aw = aw_table(A, B, T, cxT.words)
    records = []
    record = functools.partial(record_identity, records)

    def box_dim(tA, tB, r, q):
        tot = 0
        for q1 in range(loA, hiA + 1):
            q2 = q - q1
            if loB <= q2 <= hiB:
                tot += tA[(r, q1)] * tB[(r, q2)]
        return tot

    def stable(r, q):
        """both sides of the slot unchanged when the length truncation is
        lowered by one; word lengths the dimensions still depend on are
        truncation artifacts, not part of either homology"""
        return (tabT[(r, q)] == tabTm[(r, q)] and
                box_dim(tabA, tabB, r, q) == box_dim(tabAm, tabBm, r, q))

    product_table = {(r, q): box_dim(tabA, tabB, r, q)
                     for r in P.elements for q in range(lo, hi + 1)}
    certified = [rq for rq in sorted(product_table, key=repr)
                 if stable(*rq)]
    fails = [{"slot": rq, "tensor": tabT[rq], "product": product_table[rq]}
             for rq in certified if tabT[rq] != product_table[rq]]
    record("dimension tables agree", fails, len(certified),
           skipped=len(product_table) - len(certified))

    # representative pairs per slot, with their transported images
    def rep_pairs(r, q):
        out = []
        for q1 in range(loA, hiA + 1):
            q2 = q - q1
            if not (loB <= q2 <= hiB):
                continue
            for f in cxA.representatives(r, q1):
                for g in cxB.representatives(r, q2):
                    out.append((f, q1, g, q2))
        return out

    def transport(f, q1, g, q2):
        return tensor_cochain(A, B, T, f, q1, g, q2, aw)

    # the transported basis must span: that is the isomorphism statement
    fails, ran, skipped = [], 0, 0
    images = {}
    for r in P.elements:
        for q in range(lo, hi + 1):
            prs = rep_pairs(r, q)
            images[(r, q)] = [(fg, transport(*fg)) for fg in prs]
            if not prs:
                continue
            if (r, q) not in certified:
                skipped += 1
                continue
            ran += 1
            cols = [cxT.coords_of(r, q, img) for _, img in images[(r, q)]]
            mat = SparseMatrix.from_columns(F, cxT.homology(r, q).dim, cols)
            if mat.rank() != tabT[(r, q)] or len(cols) != tabT[(r, q)]:
                fails.append({"slot": (r, q), "rank": mat.rank(),
                              "dim": tabT[(r, q)]})
    record("transported basis spans HH of the tensor", fails, ran,
           skipped=skipped)

    def restrict(f):
        return {(w, m): c for (w, m), c in f.items() if len(w) < L}

    # cup transport: elementwise on pairs of transported classes
    fails, ran = [], 0
    for r in P.elements:
        for q in range(lo, hi + 1):
            for (f, qf, g, qg), Fg in images[(r, q)]:
                for q2 in range(lo, hi + 1):
                    for (f2, qf2, g2, qg2), Fg2 in images[(r, q2)]:
                        if not (lo <= q + q2 <= hi):
                            continue
                        ran += 1
                        lhs = cup(T, Fg, q, Fg2, q2, cxT.words)
                        ca = cup(A, f, qf, f2, qf2, cxA.words)
                        cb = cup(B, g, qg, g2, qg2, cxB.words)
                        rhs = vec_scale(
                            F, _sgn(F, qf2 * qg),
                            tensor_cochain(A, B, T, ca, qf + qf2,
                                           cb, qg + qg2, aw))
                        diff = vec_sub(F, lhs, rhs)
                        if not cxT.is_boundary(r, q + q2, diff):
                            fails.append({"slot": (r, q, q2),
                                          "degrees": (qf, qg, qf2, qg2)})
    record("cup transports to the tensor cup", fails, ran)

    # bracket transport; arity-0 insertions read one extra word length, so
    # the class comparison happens one truncation level down
    fails, ran = [], 0
    for r in P.elements:
        for q in range(lo, hi + 1):
            for (f, qf, g, qg), Fg in images[(r, q)]:
                for q2 in range(lo, hi + 1):
                    for (f2, qf2, g2, qg2), Fg2 in images[(r, q2)]:
                        if not (lo <= q + q2 - 1 <= hi):
                            continue
                        ran += 1
                        lhs = bracket(T, Fg, q, Fg2, q2, cxTm.words)
                        t1 = tensor_cochain(
                            A, B, T,
                            bracket(A, f, qf, f2, qf2, cxA.words),
                            qf + qf2 - 1,
                            cup(B, g, qg, g2, qg2, cxB.words),
                            qg + qg2, aw)
                        t2 = tensor_cochain(
                            A, B, T,
                            cup(A, f, qf, f2, qf2, cxA.words), qf + qf2,
                            bracket(B, g, qg, g2, qg2, cxB.words),
                            qg + qg2 - 1, aw)
                        rhs = vec_add(
                            F, vec_scale(F, _sgn(F, (qf2 - 1) * qg), t1),
                            vec_scale(F, _sgn(F, qf2 * (qg - 1)), t2))
                        diff = restrict(vec_sub(F, lhs, rhs))
                        if not cxTm.is_boundary(r, q + q2 - 1, diff):
                            fails.append({"slot": (r, q, q2),
                                          "degrees": (qf, qg, qf2, qg2)})
    record("bracket transports to the two-term tensor bracket", fails, ran)

    # Delta transport, when both factors carry certified duality data
    try:
        bvA = BVOperator(A, L, loA, hiA)
        bvB = BVOperator(B, L, loB, hiB)
        bvT = BVOperator(T, L, lo, hi)
    except (ValueError, LookupError) as e:
        records.append({"identity": "Delta transport", "status": "skipped",
                        "trials": 0, "witness": str(e)})
        return {"tensor_table": tabT, "product_table": product_table,
                "records": records}
    fails, ran = [], 0
    for r in P.elements:
        for q in range(lo, hi + 1):
            if not (lo <= q - 1 <= hi):
                continue
            for (f, qf, g, qg), Fg in images[(r, q)]:
                try:
                    dT, _ = bvT.delta(r, q, Fg)
                    dA, _ = bvA.delta(r, qf, f)
                    dB, _ = bvB.delta(r, qg, g)
                except LookupError:
                    continue
                ran += 1
                rhs = vec_add(
                    F,
                    tensor_cochain(A, B, T, dA, qf - 1, g, qg, aw),
                    vec_scale(F, _sgn(F, qf),
                              tensor_cochain(A, B, T, f, qf, dB, qg - 1, aw)))
                diff = restrict(vec_sub(F, dT, rhs))
                if not cxTm.is_boundary(r, q - 1, diff):
                    fails.append({"slot": (r, q), "degrees": (qf, qg)})
    record("Delta transports to Delta box 1 + (-1)^q 1 box Delta",
           fails, ran)

    return {"tensor_table": tabT, "product_table": product_table,
            "records": records}
