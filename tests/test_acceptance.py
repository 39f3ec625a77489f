"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single verdict line
(run with -v or -s to see them) and enforces its runtime budget.
"""

import itertools
import random
import time

import pytest

from perverse.fields import QQ
from perverse.poset import Poset
from perverse.linalg import (SparseMatrix, signed_sum, vec_iadd,
                             kernel_basis, linear)
from perverse.complexes import p_filtration, cofibrancy_certificate
from perverse.algebra import algebra_as_bimodule, dual_bimodule, tensor_pdga
from perverse.builders import corpus, sphere_algebra, random_pdga
from perverse.hochschild import (Cochains, middle_words, hh_table,
                                 hh_table_oracle)
from perverse.structure import (verify_calculus, BVOperator,
                                find_duality_class, cochain_op, cup_op,
                                bracket_op, to_cochain)
from perverse.suite import Chains, GERSTENHABER_IDS, CALCULUS_IDS
from perverse.functoriality import InducedHH
from perverse.kunneth import compare_hh
from oracles import (Bar, oplus_bruteforce, h, alexander_whitney_vec,
                     eilenberg_zilber, minimum_condition_counterexample,
                     quasi_iso_fixture)

P3 = Poset(3)


def _verdict(num, desc, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    tail = "" if elapsed is None else "  (%.1fs)" % elapsed
    print("criterion %d: %s - %s%s" % (num, "PASS" if ok else "FAIL",
                                       desc, tail))
    assert not failures, failures if len(repr(failures)) < 2000 \
        else failures[:5]
    if budget is not None:
        assert elapsed < budget, "budget %ss exceeded: %.1fs" \
            % (budget, elapsed)


def _corpus_plus_randoms():
    algebras = [("corpus:" + k, A) for k, A in corpus(QQ, P3).items()]
    posets = {k: Poset(k) for k in (2, 3, 4)}
    for seed in range(50):
        P = posets[2 + seed % 3]
        algebras.append(("random:%d" % seed, random_pdga(QQ, P, seed)))
    return algebras


def test_criterion_01_poset_enumeration_and_arithmetic():
    t0 = time.time()
    failures = []
    for n in range(2, 11):
        P = Poset(n)
        if len(P) != 2 ** (n - 2):
            failures.append(("count", n, len(P)))
    for n in range(2, 9):
        P = Poset(n)
        for p in P.elements:
            for q in P.elements:
                if P.oplus(p, q) != oplus_bruteforce(P, p, q):
                    failures.append(("oplus", n, p, q))
    _verdict(1, "poset sizes 2^(n-2) and oplus vs brute force",
             failures, time.time() - t0, 5.0)


def test_criterion_02_differentials_square_to_zero():
    t0 = time.time()
    failures = []
    for name, A in _corpus_plus_randoms():
        bar = Bar(A, 4)
        for w in bar.words:
            if linear(QQ, bar.D_word, bar.D_word(w)):
                failures.append(("bar", name, w))
        ch = Chains(A, algebra_as_bimodule(A), 4)
        for w in ch.mids:
            for m in A.names:
                if linear(QQ, ch.D_key, ch.D_key((m, w))):
                    failures.append(("chain", name, (m, w)))
        cx = Cochains(A, algebra_as_bimodule(A), 4)
        for r in A.poset.elements:
            for q in range(-4, 4):
                if not cx.differential(r, q + 1).mul(
                        cx.differential(r, q)).is_zero():
                    failures.append(("cochain", name, (r, q)))
    _verdict(2, "bar/chain/cochain D^2 = 0, corpus + 50 seeded randoms, L=4",
             failures, time.time() - t0, 120.0)


def test_criterion_03_contracting_homotopy():
    t0 = time.time()
    failures = []
    L = 4
    for name, A in corpus(QQ, P3).items():
        bar = Bar(A, L)

        def dh_hd(v):
            return signed_sum(QQ, [(0, linear(QQ, bar.D_word, h(bar, v))),
                                   (0, h(bar, linear(QQ, bar.D_word, v)))])

        for word in bar.words:
            if not word[1] or len(word[1]) >= L:
                continue
            v = {word: QQ.one}
            if dh_hd(v) != v:
                failures.append((name, word))
        zero_len = [w for w in bar.words if not w[1]]
        rows = sorted(A.names)
        m = SparseMatrix(QQ, len(rows), len(zero_len))
        for j, (a, _, b) in enumerate(zero_len):
            for y, c in A.mul(a, b).items():
                m[rows.index(y), j] = c
        for k in kernel_basis(m):
            v = {zero_len[i]: c for i, c in k.items()}
            if dh_hd(v) != v:
                failures.append((name, "length-0 kernel"))
    _verdict(3, "Dh + hD = id on ker(q_A), corpus, L=4", failures,
             time.time() - t0)


# criterion 5 also gates the Menichi identity of the BV block
_CALCULUS_IDS = CALCULUS_IDS + ("Menichi identity",)

_SUITE = {}


def _suite(name):
    if name not in _SUITE:
        A = corpus(QQ, P3)[name]
        _SUITE[name] = verify_calculus(A, 4, -3, 3, trials=50, seed=0)
    return _SUITE[name]


def test_criterion_04_gerstenhaber_suite():
    t0 = time.time()
    failures = []
    for name in corpus(QQ, P3):
        for r in _suite(name):
            if r["identity"] in GERSTENHABER_IDS and r["status"] == "fail":
                failures.append((name, r))
    _verdict(4, "Gerstenhaber suite, corpus, 50 seeded trials per identity",
             failures, time.time() - t0)


def test_criterion_05_calculus_suite_with_certified_duality():
    t0 = time.time()
    failures = []
    certified = []
    for name, A in corpus(QQ, P3).items():
        try:
            find_duality_class(dual_bimodule(A))
        except (ValueError, LookupError):
            continue
        certified.append(name)
        for r in _suite(name):
            if r["identity"] in _CALCULUS_IDS and r["status"] == "fail":
                failures.append((name, r))
    assert len(certified) == 6, certified
    _verdict(5, "calculus suite on cohomology, corpus with certified duality",
             failures, time.time() - t0)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_06_bv_on_spheres(n):
    t0 = time.time()
    failures = []
    A = sphere_algebra(QQ, P3, n)
    L, lo, hi = 5, -6, 6
    nd, _ = find_duality_class(dual_bimodule(A))
    if nd != n:
        failures.append(("duality degree", nd))
    bv = BVOperator(Cochains(A, algebra_as_bimodule(A), L))
    for r in P3.elements:
        if bv.unit_obstruction(r):
            failures.append(("Delta(1)", r))
        for q in range(lo, hi + 1):
            try:
                m1, m2 = bv.matrix(r, q), bv.matrix(r, q - 1)
            except LookupError:
                continue
            if not m2.mul(m1).is_zero():
                failures.append(("Delta^2", r, q))
    # seven-term relation on every representative pair whose slot is
    # L-stable; unstable slots carry truncation phantoms only
    words = middle_words(A, L)
    cxm = Cochains(A, algebra_as_bimodule(A), L - 1)
    reps = []
    for r in P3.elements:
        for q in range(lo, hi + 1):
            if bv.cx.homology(r, q).dim != cxm.homology(r, q).dim:
                continue
            for f in bv.cx.representatives(r, q):
                try:
                    d, _ = bv.delta(r, q, f)
                except LookupError:
                    continue
                reps.append((r, q, f, d))
    ran = 0
    for (rf, qf, f, df) in reps:
        for (rg, qg, g, dg) in reps:
            rr = P3.oplus(rf, rg)
            if rr is None:
                continue
            fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
            fug = to_cochain(cup_op(fop, gop), words)
            try:
                dfug, _ = bv.delta(rr, qf + qg, fug)
            except LookupError:
                continue
            ran += 1
            diff = signed_sum(QQ, [
                (qf, to_cochain(bracket_op(fop, gop), words)),
                (1, dfug),
                (0, to_cochain(cup_op(cochain_op(A, df, qf - 1), gop), words)),
                (qf, to_cochain(cup_op(fop, cochain_op(A, dg, qg - 1)),
                                words))])
            diff = {(w, m): c for (w, m), c in diff.items() if len(w) < L}
            if not cxm.is_boundary(rr, qf + qg - 1, diff):
                failures.append(("seven-term", (rf, qf), (rg, qg)))
    assert ran > 30, ran
    _verdict(6, "BV for sphere %d: duality degree, Delta(1), Delta^2, "
                "seven-term (%d pairs), window [-6,6], L=5" % (n, ran),
             failures, time.time() - t0, 300.0)


def test_criterion_07_oracle_table_equivalence():
    t0 = time.time()
    failures = []
    for name, A in corpus(QQ, P3).items():
        M = algebra_as_bimodule(A)
        main = hh_table(A, M, 4, -4, 4)
        oracle = hh_table_oracle(A, M, 4, -4, 4)
        if main != oracle:
            failures.append((name, main, oracle))
    _verdict(7, "length-graded HH tables equal dense oracle, corpus, "
                "window [-4,4], L=4", failures, time.time() - t0)


def test_criterion_08_invariance_under_quasi_isomorphism():
    t0 = time.time()
    failures = []
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    L, lo, hi = 6, -2, 2
    ind = InducedHH(A, B, fmap, L)
    M = {}
    for r in P3.elements:
        for q in range(lo, hi + 1):
            if not ind.is_iso(r, q):
                failures.append(("iso", r, q))
            M[(r, q)] = ind.matrix(r, q)

    def image(r, q, i):
        out = {}
        for bi, rep in enumerate(ind.cb.representatives(r, q)):
            c = M[(r, q)][bi, i]
            if not QQ.iszero(c):
                vec_iadd(QQ, out, rep, c)
        return out

    ran = 0
    slots = [(r, q) for r in P3.elements for q in range(lo, hi + 1)]
    for (r1, q1), (r2, q2) in itertools.product(slots, repeat=2):
        rr = P3.oplus(r1, r2)
        if rr is None:
            continue
        for i1, f1 in enumerate(ind.ca.representatives(r1, q1)):
            g1 = image(r1, q1, i1)
            for i2, f2 in enumerate(ind.ca.representatives(r2, q2)):
                g2 = image(r2, q2, i2)
                fA = cochain_op(A, f1, q1), cochain_op(A, f2, q2)
                gB = cochain_op(B, g1, q1), cochain_op(B, g2, q2)
                if lo <= q1 + q2 <= hi:
                    cA = to_cochain(cup_op(*fA), ind.ca.words)
                    lhs = M[(rr, q1 + q2)].apply(
                        ind.ca.coords_of(rr, q1 + q2, cA))
                    cB = to_cochain(cup_op(*gB), ind.cb.words)
                    rhs = ind.cb.coords_of(rr, q1 + q2, cB)
                    ran += 1
                    if signed_sum(QQ, [(0, lhs), (1, rhs)]):
                        failures.append(("cup", (q1, q2)))
                if lo <= q1 + q2 - 1 <= hi:
                    bA = to_cochain(bracket_op(*fA), ind.ca.words)
                    lhs = M[(rr, q1 + q2 - 1)].apply(
                        ind.ca.coords_of(rr, q1 + q2 - 1, bA))
                    bB = to_cochain(bracket_op(*gB), ind.cb.words)
                    rhs = ind.cb.coords_of(rr, q1 + q2 - 1, bB)
                    ran += 1
                    if signed_sum(QQ, [(0, lhs), (1, rhs)]):
                        failures.append(("bracket", (q1, q2)))
    assert ran > 50, ran
    _verdict(8, "HH(f) iso preserving cup and bracket (%d checks), "
                "quasi-iso fixture" % ran, failures, time.time() - t0)


def test_criterion_09_kunneth():
    t0 = time.time()
    failures = []
    S2 = sphere_algebra(QQ, P3, 2)
    T = tensor_pdga(S2, S2)
    # AW o EZ = id exhaustively to total middle length 3
    bw = Bar(S2, 3).words
    pairs = 0
    for u in bw:
        for v in bw:
            if len(u[1]) + len(v[1]) > 3:
                continue
            got = alexander_whitney_vec(
                S2, S2, T, eilenberg_zilber(S2, S2, T, u, v))
            if got != {(u, v): QQ.one}:
                failures.append(("AW o EZ", u, v))
            pairs += 1
    assert pairs > 100, pairs
    # slot dims vs the box of factor tables, and transported cup/bracket/
    # Delta vs the tensor formulas, on L-stability certified slots
    rep = compare_hh(S2, S2, 4, (-4, 4))
    for r in rep["records"]:
        if r["status"] != "pass":
            failures.append(r)
        elif r["trials"] == 0:
            failures.append(("no informative trials", r["identity"]))
    _verdict(9, "AW o EZ = id to length 3 (%d pairs); tensor HH dims and "
                "transported cup/bracket/Delta for sphere2 x sphere2"
             % pairs, failures, time.time() - t0, 300.0)


def test_criterion_10_cofibrancy():
    t0 = time.time()
    failures = []
    # every p_filtration output passes the certificate; Poset(3) and
    # Poset(4) are chains, so only Poset(5) and Poset(6) have incomparable
    # pairs for the minimum condition
    rng = random.Random(5)
    for P in (P3, Poset(4), Poset(5), Poset(6)):
        for trial in range(6):
            basis, lab, cnt = {}, {}, 0
            for k in (0, 1, 2):
                names = []
                for _ in range(rng.randint(1, 2)):
                    nm = "e%d" % cnt
                    cnt += 1
                    names.append(nm)
                    lab[nm] = rng.choice(P.elements)
                basis[k] = names
            # a differential in one degree, so d^2 = 0
            diff = {}
            k = rng.choice((0, 1))
            for x in basis[k]:
                diff[x] = {}
                for y in basis[k + 1]:
                    if rng.random() < 0.5:
                        diff[x][y] = QQ.of(rng.choice([1, 2, -1]))
            Z = p_filtration(QQ, P, basis, lambda x: diff.get(x, {}), lab)
            rep = cofibrancy_certificate(Z)
            if not rep["cofibrant_sufficient"]:
                failures.append((P.n, trial, rep["failures"]))
    # a three-perversity configuration violating the minimum condition
    Z = minimum_condition_counterexample(Poset(5), (0, 0, 0, 1, 1, 1),
                                         (0, 0, 0, 0, 1, 2))
    rep = cofibrancy_certificate(Z)
    if rep["minimum_condition"] or not rep["injective"]:
        failures.append(("counterexample not detected", rep))
    _verdict(10, "p_filtration certificates pass; three-perversity "
                 "counterexample fails the minimum condition", failures,
             time.time() - t0)
