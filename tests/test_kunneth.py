import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from perverse.fields import QQ, Field
from perverse.poset import Poset
from perverse.linalg import signed_sum, vec_iadd, vec_scale, linear
from perverse.algebra import tensor_pdga, algebra_as_bimodule
from perverse.builders import (trivial_algebra, sphere_algebra,
                               truncated_polynomial, random_pdga, corpus)
from perverse.hochschild import (Cochains, middle_words, sdeg,
                                 apply_cochain_D, index_cochain, Op)
from perverse.structure import verify_calculus, BVOperator
from perverse.suite import Chains, connes_B
from perverse.kunneth import (alexander_whitney, tensor_cochain, aw_table,
                              compare_hh, bar_degree, is_constant_diagram,
                              hh_degree_support, _extend)
from oracles import (Bar, shuffles, alexander_whitney_vec, eilenberg_zilber,
                     eilenberg_zilber_vec, pair_D, shuffle_product)

P3 = Poset(3)

S2 = sphere_algebra(QQ, P3, 2)
S3 = sphere_algebra(QQ, P3, 3)
TR3 = truncated_polynomial(QQ, P3, 2, power=3)
R1 = random_pdga(QQ, P3, 11, labeled=False)
R2 = random_pdga(QQ, P3, 5, labeled=False)

PAIRS = [(S2, S2), (S2, S3), (TR3, S3), (R1, R2)]


def sub(u, v):
    return signed_sum(QQ, [(0, u), (1, v)])


def bar_words(A, L, rng=None, count=None):
    ws = list(Bar(A, L).words)
    if rng is not None:
        rng.shuffle(ws)
        ws = ws[:count]
    return ws


# ---------------------------------------------------------------------------
# shuffles


def test_shuffle_counts_match_binomials():
    for s in range(9):
        for t in range(9 - s):
            assert len(shuffles(s, t)) == math.comb(s + t, s)


def test_shuffles_are_block_monotone_and_partition():
    for s in range(5):
        for t in range(5):
            for sh in shuffles(s, t):
                assert list(sh.apos) == sorted(sh.apos)
                assert list(sh.bpos) == sorted(sh.bpos)
                assert sorted(sh.apos + sh.bpos) == list(range(s + t))


def test_shuffle_cross_pairs_are_the_inversions():
    # oracle: inversion count of the induced permutation on output slots
    for s in range(1, 5):
        for t in range(1, 5):
            for sh in shuffles(s, t):
                pos = list(sh.apos) + list(sh.bpos)
                inv = sum(1 for i in range(s + t) for j in range(i + 1, s + t)
                          if pos[i] > pos[j])
                assert len(sh.cross) == inv


def test_shuffle_enumeration_is_memoized():
    assert shuffles(3, 2) is shuffles(3, 2)


# ---------------------------------------------------------------------------
# the tensor algebra


def test_tensor_with_trivial_factor_is_the_algebra():
    T = tensor_pdga(S2, trivial_algebra(QQ, P3))
    assert sorted(T.names) == sorted((x, "1") for x in S2.names)
    for x in S2.names:
        for y in S2.names:
            want = {(z, "1"): c for z, c in S2.mul(x, y).items()}
            assert T.mul((x, "1"), (y, "1")) == want


def test_tensor_koszul_sign_on_odd_generators():
    T = tensor_pdga(S3, S3)
    assert T.mul(("x", "1"), ("1", "x")) == {("x", "x"): QQ.one}
    assert T.mul(("1", "x"), ("x", "1")) == {("x", "x"): QQ.neg(QQ.one)}


def test_tensor_validates_and_inherits_commutativity():
    T = tensor_pdga(TR3, S3)
    rep = T.validate()
    assert rep["valid"], rep["violations"]
    assert rep["commutative"]


def test_pair_differential_squares_to_zero():
    rng = random.Random(3)
    for A, B in PAIRS:
        for u in bar_words(A, 2, rng, 8):
            for v in bar_words(B, 2, rng, 8):
                assert not pair_D(A, B, pair_D(A, B, {(u, v): QQ.one}))


# ---------------------------------------------------------------------------
# Alexander-Whitney


def test_aw_on_the_unit_word():
    T = tensor_pdga(S2, S2)
    got = alexander_whitney(S2, S2, T, (T.unit, (), T.unit))
    assert got == {(("1", (), "1"), ("1", (), "1")): QQ.one}


def test_aw_length_one_keeps_only_the_normalized_split():
    T = tensor_pdga(S2, S2)
    w = (T.unit, (("x", "1"),), T.unit)
    got = alexander_whitney(S2, S2, T, w)
    # the other split would leave a unit in the B-middle, which
    # normalization kills
    assert got == {(("1", ("x",), "1"), ("1", (), "1")): QQ.one}
    w2 = (T.unit, (("1", "x"),), T.unit)
    got = alexander_whitney(S2, S2, T, w2)
    assert got == {(("1", (), "1"), ("1", ("x",), "1")): QQ.one}


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_aw_is_a_chain_map(k):
    A, B = PAIRS[k]
    T = tensor_pdga(A, B)
    bt = Bar(T, 0)
    rng = random.Random(17 + k)
    informative = 0
    for w in bar_words(T, 3, rng, 80):
        lhs = alexander_whitney_vec(A, B, T, bt.D_word(w))
        rhs = pair_D(A, B, alexander_whitney(A, B, T, w))
        assert not sub(lhs, rhs), w
        informative += bool(lhs)
    assert informative


# ---------------------------------------------------------------------------
# Eilenberg-Zilber


def test_ez_on_the_unit_pair():
    T = tensor_pdga(S2, S2)
    got = eilenberg_zilber(S2, S2, T, ("1", (), "1"), ("1", (), "1"))
    assert got == {(("1", "1"), (), ("1", "1")): QQ.one}


def test_ez_two_terms_with_the_graded_shuffle_signs():
    # |S_{1,1}| = 2; the swap crosses two suspended degree-1 entries
    T = tensor_pdga(S2, S2)
    got = eilenberg_zilber(S2, S2, T, ("1", ("x",), "1"), ("1", ("x",), "1"))
    assert got == {
        (("1", "1"), (("x", "1"), ("1", "x")), ("1", "1")): QQ.one,
        (("1", "1"), (("1", "x"), ("x", "1")), ("1", "1")): QQ.neg(QQ.one)}
    # even suspended degrees on one side kill the crossing sign
    T2 = tensor_pdga(S2, S3)
    got = eilenberg_zilber(S2, S3, T2, ("1", ("x",), "1"), ("1", ("x",), "1"))
    assert got[(("1", "1"), (("1", "x"), ("x", "1")), ("1", "1"))] == QQ.one


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_ez_is_a_chain_map(k):
    A, B = PAIRS[k]
    T = tensor_pdga(A, B)
    bt = Bar(T, 0)
    rng = random.Random(23 + k)
    informative = 0
    for u in bar_words(A, 2, rng, 9):
        for v in bar_words(B, 2, rng, 9):
            vec = {(u, v): QQ.one}
            lhs = eilenberg_zilber_vec(A, B, T, pair_D(A, B, vec))
            rhs = linear(QQ, bt.D_word, eilenberg_zilber(A, B, T, u, v))
            assert not sub(lhs, rhs), (u, v)
            informative += bool(lhs)
    assert informative


def test_aw_ez_is_the_identity_exhaustively_to_length_three():
    T = tensor_pdga(S2, S2)
    pairs = 0
    for u in bar_words(S2, 3):
        for v in bar_words(S2, 3):
            if len(u[1]) + len(v[1]) > 3:
                continue
            got = alexander_whitney_vec(
                S2, S2, T, eilenberg_zilber(S2, S2, T, u, v))
            assert got == {(u, v): QQ.one}, (u, v)
            pairs += 1
    assert pairs > 100


def test_aw_ez_is_the_identity_on_random_algebras():
    rng = random.Random(29)
    A, B = R1, R2
    T = tensor_pdga(A, B)
    informative = 0
    for u in bar_words(A, 2, rng, 10):
        for v in bar_words(B, 2, rng, 10):
            got = alexander_whitney_vec(
                A, B, T, eilenberg_zilber(A, B, T, u, v))
            want = {(u, v): QQ.one}
            if (u[0], v[0]) not in T.degree or (u[2], v[2]) not in T.degree:
                want = {}
            assert not sub(got, want), (u, v)
            informative += bool(want)
    assert informative


# ---------------------------------------------------------------------------
# the shuffle product


def test_shuffle_product_of_words_without_middles():
    T = tensor_pdga(S2, S3)
    got = shuffle_product(S2, S3, T, {("x", ()): QQ.one}, {("x", ()): QQ.one})
    assert got == {(("x", "x"), ()): QQ.one}


def test_shuffle_product_interleaves_two_terms():
    T = tensor_pdga(S2, S2)
    got = shuffle_product(S2, S2, T,
                          {("1", ("x",)): QQ.one}, {("1", ("x",)): QQ.one})
    assert got == {(("1", "1"), (("x", "1"), ("1", "x"))): QQ.one,
                   (("1", "1"), (("1", "x"), ("x", "1"))): QQ.neg(QQ.one)}


def test_shuffle_product_length_guard():
    T = tensor_pdga(S2, S2)
    x = {("1", ("x", "x")): QQ.one}
    with pytest.raises(OverflowError):
        shuffle_product(S2, S2, T, x, x, maxlen=3)
    assert shuffle_product(S2, S2, T, x, x, maxlen=4)


def _interleaved_shuffle(A, B, T, mwa, nwb):
    """independent reference for the shuffle product of two chain basis
    keys: the entries (a, 1) of wa and (1, b) of wb interleaved by each
    shuffle, signed by |n| crossing s(wa) and the Koszul sign of the
    interleaving"""
    F = T.field
    (m0, wa), (n0, wb) = mwa, nwb
    out = {}
    if (m0, n0) not in T.degree:
        return out
    sa = [sdeg(A, z) for z in wa]
    sb = [sdeg(B, z) for z in wb]
    for sh in shuffles(len(wa), len(wb)):
        mid = [None] * (len(wa) + len(wb))
        for i, p in enumerate(sh.apos):
            mid[p] = (wa[i], B.unit)
        for j, p in enumerate(sh.bpos):
            mid[p] = (A.unit, wb[j])
        if all(e in T.degree for e in mid) and T.sum_labels_ok(
                T.lam((m0, n0)), *[T.lam(e) for e in mid]):
            cross = sum(sa[i] * sb[j] for i, j in sh.cross)
            vec_iadd(F, out, {((m0, n0), tuple(mid)): F.sign(
                B.deg(n0) * sum(sa) + cross)})
    return out


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_shuffle_product_is_ez_on_unit_ended_words(field):
    # the corpus in every pair, and labeled random pDGAs, at L = 2
    pairs = list(itertools.product(corpus(field, P3).values(), repeat=2))
    P4 = Poset(4)
    labeled = [random_pdga(field, P4, s) for s in range(5)]
    pairs += list(itertools.product(labeled, repeat=2))
    for A, B in pairs:
        T = tensor_pdga(A, B)
        ka, kb = (Chains(C, algebra_as_bimodule(C), 2).graded for C in (A, B))
        for x in (key for keys in ka.values() for key, _ in keys):
            for y in (key for keys in kb.values() for key, _ in keys):
                assert shuffle_product(A, B, T, {x: field.one},
                                       {y: field.one}) == \
                    _interleaved_shuffle(A, B, T, x, y), (x, y)


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_shuffle_product_is_a_chain_map(k):
    A, B = PAIRS[k]
    T = tensor_pdga(A, B)
    L = 4
    cha = Chains(A, algebra_as_bimodule(A), L)
    chb = Chains(B, algebra_as_bimodule(B), L)
    cht = Chains(T, algebra_as_bimodule(T), L)
    rng = random.Random(31 + k)
    keysA = [(m, w) for w in middle_words(A, 2) for m in A.names]
    keysB = [(m, w) for w in middle_words(B, 2) for m in B.names]
    rng.shuffle(keysA)
    rng.shuffle(keysB)
    informative = 0
    for xk in keysA[:12]:
        for yk in keysB[:12]:
            x, y = {xk: QQ.one}, {yk: QQ.one}
            qx = cha.degree(xk)
            lhs = linear(QQ, cht.D_key, shuffle_product(A, B, T, x, y))
            rhs = signed_sum(QQ, [
                (0, shuffle_product(A, B, T, linear(QQ, cha.D_key, x), y)),
                (qx, shuffle_product(A, B, T, x, linear(QQ, chb.D_key, y)))])
            assert not sub(lhs, rhs), (xk, yk)
            informative += bool(lhs)
    if any(A.diffs.values()) or any(B.diffs.values()):
        assert informative


def test_cyclic_operator_is_a_shuffle_derivation_on_homology():
    # at chain level the identity only holds up to the cyclic-shuffle
    # homotopy; on cycles the defect must be a boundary
    A, B = S2, S3
    T = tensor_pdga(A, B)
    L = 4
    cha = Chains(A, algebra_as_bimodule(A), L)
    chb = Chains(B, algebra_as_bimodule(B), L)
    cht = Chains(T, algebra_as_bimodule(T), L)
    informative = chain_level_defects = 0
    for qx in range(-6, 7):
        for x in cha.representatives(P3.top, qx):
            for qy in range(-6, 7):
                for y in chb.representatives(P3.top, qy):
                    if max((len(w) for (_, w) in x), default=0) + \
                       max((len(w) for (_, w) in y), default=0) + 1 > L - 1:
                        continue
                    lhs = connes_B(cht, shuffle_product(A, B, T, x, y))
                    rhs = signed_sum(QQ, [
                        (0, shuffle_product(A, B, T, connes_B(cha, x), y)),
                        (qx, shuffle_product(A, B, T, x, connes_B(chb, y)))])
                    diff = sub(lhs, rhs)
                    if not (lhs or rhs):
                        continue
                    informative += 1
                    if diff:
                        chain_level_defects += 1
                        q = cht.degree(next(iter(diff)))
                        assert cht.is_boundary(P3.top, q, diff), (qx, qy)
    assert informative
    # the exact chain-level identity genuinely fails; do not "fix" the
    # shuffle signs to chase it, the chain map test above pins them
    assert chain_level_defects


# ---------------------------------------------------------------------------
# the comparison


def test_transported_cocycles_stay_cocycles():
    A = B = S2
    T = tensor_pdga(A, B)
    L = 3
    cx = Cochains(A, algebra_as_bimodule(A), L)
    cxT = Cochains(T, algebra_as_bimodule(T), L)
    aw = aw_table(A, B, T, cxT.words)
    checked = 0
    for qf in range(-2, 3):
        for f in cx.representatives(P3.top, qf):
            for qg in range(-2, 3):
                for g in cx.representatives(P3.top, qg):
                    img = tensor_cochain(A, B, T, f, qf, g, qg, aw)
                    if not img:
                        continue
                    assert not apply_cochain_D(cxT, img)
                    checked += 1
    assert checked > 10


def _full_walk_tensor_cochain(A, B, T, f, qf, g, qg, words):
    """reference for tensor_cochain: every AW term of every word, with both
    factors extended on each, whatever their supports"""
    F = T.field
    fw, gw = index_cochain(F, f), index_cochain(F, g)
    out = {}
    for w in words:
        for (u, v), c in alexander_whitney(A, B, T,
                                           (T.unit, w, T.unit)).items():
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


def _random_cochain(rng, cx, q, terms):
    "a cochain of degree q on up to `terms` random pairs of cx"
    F = cx.A.field
    pairs = [p for p, _ in cx.graded.get(q, ())]
    return {p: F.of(rng.choice([1, -1, 2, 3]))
            for p in rng.sample(pairs, min(terms, len(pairs)))}


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("p", [0, 5])
@pytest.mark.parametrize("pair", ["S2xS2", "S2xS3", "TR3xS2"])
def test_tensor_cochain_walks_only_the_supports(monkeypatch, pair, p, L):
    # the AW terms visited from f's words and filtered by g's give the
    # full walk's cochain, and no factor is extended on a word it lacks
    import perverse.kunneth as kunneth
    F = QQ if p == 0 else Field(p)
    A, B = {"S2xS2": (sphere_algebra(F, P3, 2), None),
            "S2xS3": (sphere_algebra(F, P3, 2), sphere_algebra(F, P3, 3)),
            "TR3xS2": (truncated_polynomial(F, P3, 2, power=3),
                       sphere_algebra(F, P3, 2))}[pair]
    B = B or A
    T = tensor_pdga(A, B)
    cxA = Cochains(A, algebra_as_bimodule(A), L)
    cxB = Cochains(B, algebra_as_bimodule(B), L)
    words = Cochains(T, algebra_as_bimodule(T), L).words
    aw = aw_table(A, B, T, words)
    lacking = []

    def extend(X, by_word, q, u):
        if u[1] not in by_word:
            lacking.append(u)
        return _extend(X, by_word, q, u)

    monkeypatch.setattr(kunneth, "_extend", extend)
    rng = random.Random(31 * p + L)
    nonzero = 0
    for _ in range(12):
        qf, qg = rng.choice(sorted(cxA.graded)), rng.choice(sorted(cxB.graded))
        f = _random_cochain(rng, cxA, qf, rng.randint(1, 4))
        g = _random_cochain(rng, cxB, qg, rng.randint(1, 4))
        got = tensor_cochain(A, B, T, f, qf, g, qg, aw)
        want = _full_walk_tensor_cochain(A, B, T, f, qf, g, qg, words)
        assert sorted(got.items(), key=repr) == \
            sorted(want.items(), key=repr), (f, qf, g, qg)
        nonzero += bool(want)
    assert not lacking, lacking[:3]
    assert nonzero >= 3, nonzero


def test_compare_hh_evaluates_each_input_once(monkeypatch):
    # classes repeat across slots and pairs, so within one call each
    # transport, each flattened product and each Delta runs once per value
    # of its inputs.  An Op is known by what it was built from: a
    # cochain_op by its algebra, degree and terms, a product by its name
    # and the values of its two operands.  compare_hh reads cup_op and
    # bracket_op from perverse.structure at call time, where
    # BVOperator.act_c also calls cup_op, with structure's own cochain_op
    # and an action, so those are tagged there too
    import perverse.kunneth as kunneth
    import perverse.structure as structure
    keep, value, calls = [], {}, {}

    def terms(f):
        return frozenset(f.items())

    def tagged(fn, tag):
        def build(*args):
            op = fn(*args)
            keep.append(op)     # no id below is reused within the call
            value[id(op)] = tag(*args)
            return op
        return build

    def counted(name, fn, key):
        def call(*args):
            calls.setdefault(name, []).append(key(*args))
            return fn(*args)
        return call

    for module in (kunneth, structure):
        monkeypatch.setattr(module, "cochain_op", tagged(
            module.cochain_op, lambda X, f, q: (id(X), q, terms(f))))
    for name in ("cup_op", "bracket_op"):
        monkeypatch.setattr(structure, name, tagged(
            getattr(structure, name), lambda f, g, *act, name=name:
            (name, value[id(f)], value[id(g)]) + act))
    monkeypatch.setattr(kunneth, "to_cochain", counted(
        "to_cochain", kunneth.to_cochain,
        lambda op, words: (value[id(op)], id(words))))
    monkeypatch.setattr(kunneth, "tensor_cochain", counted(
        "tensor_cochain", kunneth.tensor_cochain,
        lambda A, B, T, f, qf, g, qg, aw: (terms(f), qf, terms(g), qg)))
    monkeypatch.setattr(BVOperator, "delta", counted(
        "delta", BVOperator.delta,
        lambda bv, r, q, f: (id(bv), r, q, terms(f))))
    rep = compare_hh(S2, S2, 2, (-1, 1))
    assert all(r["status"] == "pass" for r in rep["records"]), rep["records"]
    assert sorted(calls) == ["delta", "tensor_cochain", "to_cochain"]
    for name, keys in calls.items():
        repeated = {k for k in keys if keys.count(k) > 1}
        assert not repeated, (name, len(repeated))


def test_compare_hh_evaluates_aw_once_per_middle_word(monkeypatch):
    import perverse.kunneth as kunneth
    seen = []

    def counting(A, B, T, word):
        seen.append(word)
        return alexander_whitney(A, B, T, word)

    monkeypatch.setattr(kunneth, "alexander_whitney", counting)
    rep = compare_hh(S2, S2, 2, (-1, 1))
    assert all(r["status"] == "pass" for r in rep["records"]), rep["records"]
    T = tensor_pdga(S2, S2)
    words = Cochains(T, algebra_as_bimodule(T), 2).words
    assert len(words) == 13
    assert sorted(seen, key=repr) == sorted(
        ((T.unit, w, T.unit) for w in words), key=repr)


def test_each_cochain_complex_is_built_once(monkeypatch):
    # a complex is fixed by its algebra, coefficient basis and length, so
    # within one call the suites and the BV operators they build share one
    # per key; S2 with S3 keeps compare_hh's two factor complexes apart
    built = []
    init = Cochains.__init__

    def recording(self, A, M, L, *args):
        init(self, A, M, L, *args)
        built.append((id(A), tuple(M.names), L))

    monkeypatch.setattr(Cochains, "__init__", recording)
    for run in (lambda: verify_calculus(S2, 3, -2, 2, trials=2),
                lambda: compare_hh(S2, S3, 2, (-1, 1))):
        built.clear()
        run()
        repeated = [k for k in set(built) if built.count(k) > 1]
        assert not repeated, repeated


def test_compare_hh_refuses_max_length_0_before_any_work(monkeypatch):
    # its convergence check reads the tables one length lower, and at L = 0
    # there is no such table; no complex is built before the refusal
    def refuse(*args):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(Cochains, "__init__", refuse)
    with pytest.raises(ValueError, match="max length at least 1, got 0"):
        compare_hh(S2, S2, 0, (-1, 1))


def test_compare_hh_records_pinned_under_a_faulty_cup(monkeypatch):
    # compare_hh reads cup_op from perverse.structure at call time.  The
    # doubled cup reaches BVOperator.act_c too, where it scales both sides
    # of Delta's solve, so the Delta row holds as before
    import perverse.structure as structure
    orig = structure.cup_op

    def doubled(f, g, act=None):
        op = orig(f, g, act)
        F = f.A.field
        return Op(f.A, op.deg, lambda w: vec_scale(F, F.of(2), op(w)),
                  op.lengths)

    monkeypatch.setattr(structure, "cup_op", doubled)
    z = (0, 0, 0, 0)
    assert compare_hh(S2, S2, 2, (-1, 1))["records"] == [
        {"identity": "dimension tables agree", "status": "pass",
         "trials": 0, "witness": None, "skipped": 6},
        {"identity": "transported basis spans HH of the tensor",
         "status": "pass", "trials": 0, "witness": None, "skipped": 6},
        {"identity": "cup transports to the tensor cup", "status": "fail",
         "trials": 82,
         "witness": {"slot": (z, 0, 0), "degrees": (-2, 2, 0, 0)}},
        {"identity": "bracket transports to the two-term tensor bracket",
         "status": "pass", "trials": 66, "witness": None},
        {"identity": "Delta transports to Delta box 1 + (-1)^q 1 box Delta",
         "status": "pass", "trials": 6, "witness": None},
    ]


def test_compare_hh_with_a_trivial_factor_passes_everything():
    triv = trivial_algebra(QQ, P3)
    for A, B in [(S2, triv), (triv, S2)]:
        rep = compare_hh(A, B, 3, (-3, 3))
        assert all(r["status"] == "pass" for r in rep["records"]), \
            rep["records"]
        by = {r["identity"]: r for r in rep["records"]}
        assert by["dimension tables agree"]["trials"] > 0
        assert by["cup transports to the tensor cup"]["trials"] > 0
        assert rep["tensor_table"] == rep["product_table"]


def test_compare_hh_requires_a_constant_diagram_factor():
    A = sphere_algebra(QQ, P3, 2, label=P3.top)
    B = truncated_polynomial(QQ, P3, 2, label=P3.top)
    with pytest.raises(ValueError, match="neither factor is a constant"):
        compare_hh(A, B, 3, (-2, 2))


def test_compare_hh_spheres_small_window():
    rep = compare_hh(S2, S2, 3, (-2, 3))
    by = {r["identity"]: r for r in rep["records"]}
    for r in rep["records"]:
        assert r["status"] == "pass", r
    assert by["dimension tables agree"]["trials"] > 0
    assert by["transported basis spans HH of the tensor"]["trials"] > 0
    assert by["bracket transports to the two-term tensor bracket"][
        "trials"] > 0
    assert by["Delta transports to Delta box 1 + (-1)^q 1 box Delta"][
        "trials"] > 0


def test_degree_support_and_constant_diagram_helpers():
    lo, hi = hh_degree_support(S2, 4)
    assert lo <= -4 and hi >= 2
    assert is_constant_diagram(S2)
    assert not is_constant_diagram(sphere_algebra(QQ, P3, 2, label=P3.top))


_LOADS = """
import sys
from perverse.kunneth import hh_degree_support
from perverse.fields import QQ
from perverse.poset import Poset
from perverse.builders import sphere_algebra
from perverse.algebra import algebra_as_bimodule
from perverse.hochschild import hh_table

def loaded():
    return [m for m in ("perverse.structure", "perverse.suite",
                        "perverse.functoriality", "perverse.complexes")
            if m in sys.modules]

A = sphere_algebra(QQ, Poset(3), 2)
hh_table(A, algebra_as_bimodule(A), 3, *hh_degree_support(A, 3))
print(*loaded(), sep=",")
%s
print(*loaded(), sep=",")
"""


@pytest.mark.parametrize("call,loads", [
    ("from perverse.structure import verify_calculus; "
     "verify_calculus(A, 3, -2, 2, trials=2)",
     "perverse.structure,perverse.suite"),
    ("from perverse.kunneth import compare_hh; "
     "compare_hh(A, A, 2, (-1, 1))", "perverse.structure"),
    ("from perverse.algebra import diagram_homology; "
     "diagram_homology(A)", "")],
    ids=["calculus", "kunneth", "homology"])
def test_a_call_imports_only_the_modules_it_runs(call, loads):
    # an HH table runs neither the identity suite nor a perverse complex,
    # so it compiles neither structure nor complexes; the suites, the
    # comparison and the homology of the underlying diagram build no
    # perverse complex either, and the comparison reads structure's
    # operations and BV operator but neither the identity suite nor
    # functoriality
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADS % call],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == ["", loads]
