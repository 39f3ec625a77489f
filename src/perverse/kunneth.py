"""Tensor products of pDGAs and the Kunneth comparison for Hochschild
cohomology.

The bridge between the bar complex of A box B and the tensor of the two bar
complexes is the classical Alexander-Whitney / Eilenberg-Zilber pair, here
with the Koszul signs spelled out for graded entries.  AW o EZ is the
identity on the normalized complexes; the reverse composite is only a
homotopy equivalence and is never expanded term by term.  The library runs
AW alone, to pull cochains back; EZ, the shuffle product and the tensor
differential live with the tests, in tests/oracles.py, which check AW
against them.

Elements of B(A) box B(B) are dicts {(u, v): coefficient} where u and v are
bar words (a0, middle, a1) of the two factors.  Bar words of the tensor
algebra use the paired generator names produced by tensor_pdga.

compare_hh imports structure when it runs, so importing this module for
hh_degree_support compiles neither structure nor complexes.  A compare_hh
call compiles structure, its cochain operations and BV operator, but not
perverse.suite (the identity suite and the Hochschild chains), which only
verify_calculus imports, nor perverse.functoriality.
"""

from .linalg import vec_iadd, vec_scale, signed_sum, bilinear
from .algebra import tensor_pdga, algebra_as_bimodule
from .hochschild import (Cochains, bar_degree, bar_ok, sdeg, index_cochain,
                         cochain_op, to_cochain)


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
    """AW of each unit-ended bar word 1[w]1 of the tensor algebra, the only
    AW values tensor_cochain reads, grouped by the middle word of the
    A-side: {wa: [(w, u, v, c), ...]} over the terms c (u, v) of AW(1[w]1)
    with u = (1, wa, x)"""
    out = {}
    for w in words:
        for (u, v), c in alexander_whitney(
                A, B, T, (T.unit, w, T.unit)).items():
            out.setdefault(u[1], []).append((w, u, v, c))
    return out


def tensor_cochain(A, B, T, f, qf, g, qg, aw):
    """(f box g) pulled back along AW: a Hochschild cochain on the tensor
    algebra, evaluated on the middle words of aw, a table from aw_table
    (read, never modified).  Only the AW terms whose A-side word is in f's
    support and whose B-side word is in g's are visited"""
    F = T.field
    fw = index_cochain(F, f)
    gw = index_cochain(F, g)
    out = {}
    for wa in fw:
        for w, u, v, c in aw.get(wa, ()):
            if v[1] not in gw:
                continue
            fv = _extend(A, fw, qf, u)
            if not fv:
                continue
            gv = _extend(B, gw, qg, v)
            if not gv:
                continue
            s = F.mul(c, F.sign(qg * bar_degree(A, u)))
            vec_iadd(F, out, bilinear(
                F, lambda x, y: {(w, (x, y)): F.one} if (x, y) in T.degree
                else {}, fv, gv), s)
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
    if L < 1:
        raise ValueError("compare_hh needs max length at least 1, got %r"
                         % (L,))
    from .structure import (cup_op, bracket_op, BVOperator, record_identity,
                            run_identity)
    lo, hi = window
    F = A.field
    P = A.poset
    if not (is_constant_diagram(A) or is_constant_diagram(B)):
        raise ValueError("unsupported: neither factor is a constant diagram "
                         "with finite slots")
    # classes repeat across slots and pairs, so every factor, Op, product,
    # transport and Delta below is evaluated once per value of its inputs
    memo = {}

    def once(fn, *args):
        "fn(*args), once per call; a cochain argument is keyed by its terms"
        key = (fn,) + tuple(frozenset(x.items()) if isinstance(x, dict)
                            else x for x in args)
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    def factor(X):
        """X's degree support, its Cochains and their tables at L and, to
        certify slot-wise convergence in L, at L - 1"""
        loX, hiX = hh_degree_support(X, L)
        cx = Cochains(X, algebra_as_bimodule(X), L)
        return (loX, hiX, cx, cx.table(loX, hiX),
                Cochains(X, cx.M, L - 1).table(loX, hiX))

    loA, hiA, cxA, tabA, tabAm = once(factor, A)
    loB, hiB, cxB, tabB, tabBm = once(factor, B)
    T = tensor_pdga(A, B)
    cxT = Cochains(T, algebra_as_bimodule(T), L)
    cxTm = Cochains(T, cxT.M, L - 1)
    tabT = cxT.table(lo, hi)
    tabTm = cxTm.table(lo, hi)
    # AW of 1[w]1 depends on w alone: evaluate it once per middle word of
    # cxT for all the transports below
    aw = aw_table(A, B, T, cxT.words)
    records = []

    def transport(f, qf, g, qg):
        return tensor_cochain(A, B, T, f, qf, g, qg, aw)

    def product(op, cx, f, qf, g, qg):
        "op (cup_op or bracket_op) of two cochains, on the words of cx"
        return to_cochain(op(once(cochain_op, cx.A, f, qf),
                             once(cochain_op, cx.A, g, qg)), cx.words)

    def delta(bv, r, q, f):
        "Delta of the class f at (r, q), None outside the stable window"
        try:
            return bv.delta(r, q, f)[0]
        except LookupError:
            return None

    def splits(q):
        "the factor degrees (q1, q2), q1 + q2 = q, inside both supports"
        return [(q1, q - q1) for q1 in range(loA, hiA + 1)
                if loB <= q - q1 <= hiB]

    def box_dim(tA, tB, r, q):
        return sum(tA[(r, q1)] * tB[(r, q2)] for q1, q2 in splits(q))

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
    images = {(r, q): [(fg, once(transport, *fg))
                       for fg in ((f, q1, g, q2) for q1, q2 in splits(q)
                                  for f in cxA.representatives(r, q1)
                                  for g in cxB.representatives(r, q2))]
              for r in P.elements for q in range(lo, hi + 1)}

    # the transported basis must span: that is the isomorphism statement
    fails, ran, skipped = [], 0, 0
    for (r, q), imgs in images.items():
        if not imgs:
            continue
        if (r, q) not in certified:
            skipped += 1
            continue
        ran += 1
        rank = cxT.class_matrix(r, q, [img for _, img in imgs]).rank()
        if rank != tabT[(r, q)] or len(imgs) != tabT[(r, q)]:
            fails.append({"slot": (r, q), "rank": rank,
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

    # cup transport: elementwise on pairs of transported classes
    def cup_transports(d):
        r, q, q2, ((f, qf, g, qg), Fg), ((f2, qf2, g2, qg2), Fg2) = d
        ca = once(product, cup_op, cxA, f, qf, f2, qf2)
        cb = once(product, cup_op, cxB, g, qg, g2, qg2)
        return cxT.is_boundary(r, q + q2, signed_sum(F, [
            (0, once(product, cup_op, cxT, Fg, q, Fg2, q2)),
            (1 + qf2 * qg, once(transport, ca, qf + qf2, cb, qg + qg2))]))

    run_identity(records, "cup transports to the tensor cup",
                 image_pairs(0), cup_transports, pair_witness)

    # bracket transport; arity-0 insertions read one extra word length, so
    # the class comparison happens one truncation level down
    def bracket_transports(d):
        r, q, q2, ((f, qf, g, qg), Fg), ((f2, qf2, g2, qg2), Fg2) = d
        a, b = (f, qf, f2, qf2), (g, qg, g2, qg2)
        t1 = once(transport, once(product, bracket_op, cxA, *a),
                  qf + qf2 - 1, once(product, cup_op, cxB, *b), qg + qg2)
        t2 = once(transport, once(product, cup_op, cxA, *a), qf + qf2,
                  once(product, bracket_op, cxB, *b), qg + qg2 - 1)
        return cxTm.is_boundary(r, q + q2 - 1, cxTm.restrict(signed_sum(F, [
            (0, once(product, bracket_op, cxTm, Fg, q, Fg2, q2)),
            (1 + (qf2 - 1) * qg, t1), (1 + qf2 * (qg - 1), t2)])))

    run_identity(records, "bracket transports to the two-term tensor bracket",
                 image_pairs(1), bracket_transports, pair_witness)

    # Delta transport, when both factors carry certified duality data
    def delta_transports(d):
        r, q, ((f, qf, g, qg), Fg) = d
        dT, dA, dB = (once(delta, *x) for x in (
            (bvT, r, q, Fg), (bvA, r, qf, f), (bvB, r, qg, g)))
        if None in (dT, dA, dB):
            return None
        return cxTm.is_boundary(r, q - 1, cxTm.restrict(signed_sum(F, [
            (0, dT), (1, once(transport, dA, qf - 1, g, qg)),
            (1 + qf, once(transport, f, qf, dB, qg - 1))])))

    def delta_witness(d):
        r, q, ((_, qf, _, qg), _) = d
        return {"slot": (r, q), "degrees": (qf, qg)}

    try:
        bvA, bvB, bvT = (once(BVOperator, cx) for cx in (cxA, cxB, cxT))
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
