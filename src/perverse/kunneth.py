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

from .linalg import (SparseMatrix, vec_iadd, vec_add, vec_scale, vec_sub,
                     linear, bilinear)
from .algebra import tensor_pdga, algebra_as_bimodule
from .hochschild import (Bar, Cochains, bar_degree, bar_ok, sdeg,
                         index_cochain, cochain_op, to_cochain)
from .structure import (cup_op, bracket_op, BVOperator, record_identity,
                        run_identity)


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


def _interleave(A, B, T, wa, wb, sh):
    """the middle word of T with entries (a, 1) at the positions sh.apos and
    (1, b) at sh.bpos, or None when a paired entry is not a generator of T"""
    mid = [None] * (sh.s + sh.t)
    for i, p in enumerate(sh.apos):
        mid[p] = (wa[i], B.unit)
    for j, p in enumerate(sh.bpos):
        mid[p] = (A.unit, wb[j])
    if any(e not in T.degree for e in mid):
        return None
    return tuple(mid)


# ---------------------------------------------------------------------------
# bar-word plumbing


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


# ---------------------------------------------------------------------------
# the Alexander-Whitney map


def alexander_whitney(A, B, T, word):
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
        s = F.sign(spar)
        for x, cx in ra.items():
            for y, cy in rb.items():
                u = (a[0], tuple(a[1:i + 1]), x)
                v = (y, tuple(b[i + 1:k + 1]), b[k + 1])
                if bar_ok(A, u) and bar_ok(B, v):
                    vec_iadd(F, out, {(u, v): F.mul(cx, cy)}, s)
    return out


def alexander_whitney_vec(A, B, T, vec):
    return linear(A.field, lambda word: alexander_whitney(A, B, T, word), vec)


# ---------------------------------------------------------------------------
# the Eilenberg-Zilber map


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
        mid = _interleave(A, B, T, wa, wb, sh)
        if mid is None:
            continue
        word = ((a0, b0), mid, (a1, b1))
        if not bar_ok(T, word):
            continue
        s = F.sign(par0 + _cross_parity(sh, sa, sb))
        vec_iadd(F, out, {word: s})
    return out


def eilenberg_zilber_vec(A, B, T, vec):
    return linear(T.field, lambda uv: eilenberg_zilber(A, B, T, *uv), vec)


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

    def sh_pair(mwa, nwb):
        (m0, wa), (n0, wb) = mwa, nwb
        if maxlen is not None and len(wa) + len(wb) > maxlen:
            raise OverflowError("shuffle exceeds max length %d: %d + %d"
                                % (maxlen, len(wa), len(wb)))
        out = {}
        if (m0, n0) not in T.degree:
            return out
        sa = [sdeg(A, z) for z in wa]
        sb = [sdeg(B, z) for z in wb]
        for sh in shuffles(len(wa), len(wb)):
            mid = _interleave(A, B, T, wa, wb, sh)
            if mid is not None and T.sum_labels_ok(
                    T.lam((m0, n0)), *[T.lam(e) for e in mid]):
                vec_iadd(F, out, {((m0, n0), mid): F.sign(
                    B.deg(n0) * sum(sa) + _cross_parity(sh, sa, sb))})
        return out

    return bilinear(F, sh_pair, x, y)


# ---------------------------------------------------------------------------
# transporting cochains across the comparison


def _extend(A, f_by_word, q, u):
    "A^e-bilinear extension of a reduced cochain to a bar word"
    a0, w, a1 = u
    F = A.field
    base = f_by_word.get(w)
    if not base:
        return {}
    s = F.sign(q * A.deg(a0))
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
            s = F.mul(c, F.sign(qg * bar_degree(A, u)))
            for xx, cxx in fv.items():
                for yy, cyy in gv.items():
                    if (xx, yy) in T.degree:
                        vec_iadd(F, out, {(w, (xx, yy)): F.mul(cxx, cyy)}, s)
    return out


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
    # a square A box A builds the factor's complexes, tables and BV
    # operator once and reads them on both sides
    same = B is A
    cxA = Cochains(A, algebra_as_bimodule(A), L)
    cxB = cxA if same else Cochains(B, algebra_as_bimodule(B), L)
    cxT = Cochains(T, algebra_as_bimodule(T), L)
    cxTm = Cochains(T, cxT.M, L - 1)
    tabA = cxA.table(loA, hiA)
    tabB = tabA if same else cxB.table(loB, hiB)
    tabT = cxT.table(lo, hi)
    # one truncation level down, to certify slot-wise convergence in L
    tabAm = Cochains(A, cxA.M, L - 1).table(loA, hiA)
    tabBm = tabAm if same else Cochains(B, cxB.M, L - 1).table(loB, hiB)
    tabTm = cxTm.table(lo, hi)
    # AW of 1[w]1 depends on w alone: evaluate it once per middle word of
    # cxT for all the transports below
    aw = aw_table(A, B, T, cxT.words)
    records = []

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
    record_identity(records, "dimension tables agree", fails, len(certified),
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

    # the transported basis must span: that is the isomorphism statement
    fails, ran, skipped = [], 0, 0
    images = {}
    for r in P.elements:
        for q in range(lo, hi + 1):
            prs = rep_pairs(r, q)
            images[(r, q)] = [(fg, tensor_cochain(A, B, T, *fg, aw))
                              for fg in prs]
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
    record_identity(records, "transported basis spans HH of the tensor", fails,
                    ran, skipped=skipped)

    def image_pairs(shift):
        """pairs of transported classes at (r, q) and (r, q2) whose product
        degree q + q2 - shift lies in the window"""
        for r in P.elements:
            for q in range(lo, hi + 1):
                for x in images[(r, q)]:
                    for q2 in range(lo, hi + 1):
                        if lo <= q + q2 - shift <= hi:
                            for y in images[(r, q2)]:
                                yield None, (r, q, q2, x, y)

    def pair_witness(d):
        r, q, q2, ((_, qf, _, qg), _), ((_, qf2, _, qg2), _) = d
        return {"slot": (r, q, q2), "degrees": (qf, qg, qf2, qg2)}

    def pair_ops(d):
        """the Ops of the two transported classes of an image_pairs sample:
        the pair over T, the pair of A-factors and the pair of B-factors"""
        _, q, q2, ((f, qf, g, qg), Fg), ((f2, qf2, g2, qg2), Fg2) = d
        return ((cochain_op(T, Fg, q), cochain_op(T, Fg2, q2)),
                (cochain_op(A, f, qf), cochain_op(A, f2, qf2)),
                (cochain_op(B, g, qg), cochain_op(B, g2, qg2)))

    # cup transport: elementwise on pairs of transported classes
    def cup_transports(d):
        r, q, q2, ((_, qf, _, qg), _), ((_, qf2, _, qg2), _) = d
        t, a, b = pair_ops(d)
        lhs = to_cochain(cup_op(*t), cxT.words)
        ca = to_cochain(cup_op(*a), cxA.words)
        cb = to_cochain(cup_op(*b), cxB.words)
        rhs = vec_scale(F, F.sign(qf2 * qg), tensor_cochain(
            A, B, T, ca, qf + qf2, cb, qg + qg2, aw))
        return cxT.is_boundary(r, q + q2, vec_sub(F, lhs, rhs))

    run_identity(records, "cup transports to the tensor cup",
                 image_pairs(0), cup_transports, pair_witness)

    # bracket transport; arity-0 insertions read one extra word length, so
    # the class comparison happens one truncation level down
    def bracket_transports(d):
        r, q, q2, ((_, qf, _, qg), _), ((_, qf2, _, qg2), _) = d
        t, a, b = pair_ops(d)
        lhs = to_cochain(bracket_op(*t), cxTm.words)
        t1 = tensor_cochain(A, B, T, to_cochain(bracket_op(*a), cxA.words),
                            qf + qf2 - 1, to_cochain(cup_op(*b), cxB.words),
                            qg + qg2, aw)
        t2 = tensor_cochain(A, B, T, to_cochain(cup_op(*a), cxA.words),
                            qf + qf2, to_cochain(bracket_op(*b), cxB.words),
                            qg + qg2 - 1, aw)
        rhs = vec_add(F, vec_scale(F, F.sign((qf2 - 1) * qg), t1),
                      vec_scale(F, F.sign(qf2 * (qg - 1)), t2))
        return cxTm.is_boundary(r, q + q2 - 1,
                                cxTm.restrict(vec_sub(F, lhs, rhs)))

    run_identity(records, "bracket transports to the two-term tensor bracket",
                 image_pairs(1), bracket_transports, pair_witness)

    # Delta transport, when both factors carry certified duality data
    def delta_transports(d):
        r, q, ((f, qf, g, qg), Fg) = d
        try:
            dT, _ = bvT.delta(r, q, Fg)
            dA, _ = bvA.delta(r, qf, f)
            dB, _ = bvB.delta(r, qg, g)
        except LookupError:
            return None
        rhs = vec_add(F, tensor_cochain(A, B, T, dA, qf - 1, g, qg, aw),
                      vec_scale(F, F.sign(qf), tensor_cochain(
                          A, B, T, f, qf, dB, qg - 1, aw)))
        return cxTm.is_boundary(r, q - 1, cxTm.restrict(vec_sub(F, dT, rhs)))

    def delta_witness(d):
        r, q, ((_, qf, _, qg), _) = d
        return {"slot": (r, q), "degrees": (qf, qg)}

    try:
        bvA = BVOperator(cxA)
        bvB = bvA if same else BVOperator(cxB)
        bvT = BVOperator(cxT)
    except (ValueError, LookupError) as e:
        records.append({"identity": "Delta transport", "status": "skipped",
                        "trials": 0, "witness": str(e)})
    else:
        classes = ((None, (r, q, x)) for r in P.elements
                   for q in range(lo + 1, hi + 1) for x in images[(r, q)])
        run_identity(records,
                     "Delta transports to Delta box 1 + (-1)^q 1 box Delta",
                     classes, delta_transports, delta_witness)
    return {"tensor_table": tabT, "product_table": product_table,
            "records": records}
