import itertools
import math
import random

import pytest

from perverse.fields import QQ
from perverse.poset import Poset
from perverse.linalg import vec_add, vec_scale
from perverse.algebra import tensor_pdga, algebra_as_bimodule
from perverse.builders import (trivial_algebra, sphere_algebra,
                               truncated_polynomial, random_pdga)
from perverse.hochschild import (Bar, Chains, Cochains, middle_words, sdeg,
                                 apply_cochain_D, Op)
from perverse.structure import connes_B, verify_calculus
from perverse.kunneth import (shuffles, alexander_whitney,
                              alexander_whitney_vec, eilenberg_zilber,
                              eilenberg_zilber_vec, pair_D, shuffle_product,
                              tensor_cochain, aw_table, compare_hh,
                              bar_degree, is_constant_diagram,
                              hh_degree_support)

P3 = Poset(3)

S2 = sphere_algebra(QQ, P3, 2)
S3 = sphere_algebra(QQ, P3, 3)
TR3 = truncated_polynomial(QQ, P3, 2, power=3)
R1 = random_pdga(QQ, P3, 11, labeled=False)
R2 = random_pdga(QQ, P3, 5, labeled=False)

PAIRS = [(S2, S2), (S2, S3), (TR3, S3), (R1, R2)]


def sub(u, v):
    return vec_add(QQ, u, vec_scale(QQ, QQ.neg(QQ.one), v))


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
            rhs = bt.D(eilenberg_zilber(A, B, T, u, v))
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
            lhs = cht.D(shuffle_product(A, B, T, x, y))
            rhs = vec_add(
                QQ, shuffle_product(A, B, T, cha.D(x), y),
                vec_scale(QQ, QQ.one if qx % 2 == 0 else QQ.neg(QQ.one),
                          shuffle_product(A, B, T, x, chb.D(y))))
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
                    rhs = vec_add(
                        QQ,
                        shuffle_product(A, B, T, connes_B(cha, x), y),
                        vec_scale(QQ, QQ.one if qx % 2 == 0
                                  else QQ.neg(QQ.one),
                                  shuffle_product(A, B, T, x,
                                                  connes_B(chb, y))))
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
    MT = algebra_as_bimodule(T)
    aw = aw_table(A, B, T, cxT.words)
    checked = 0
    for qf in range(-2, 3):
        for f in cx.representatives(P3.top, qf):
            for qg in range(-2, 3):
                for g in cx.representatives(P3.top, qg):
                    img = tensor_cochain(A, B, T, f, qf, g, qg, aw)
                    if not img:
                        continue
                    assert not apply_cochain_D(T, MT, img, qf + qg,
                                               cxT.words)
                    checked += 1
    assert checked > 10


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


def test_compare_hh_records_pinned_under_a_faulty_cup(monkeypatch):
    import perverse.kunneth as kunneth
    orig = kunneth.cup_op

    def doubled(f, g, act=None):
        op = orig(f, g, act)
        F = f.A.field
        return Op(f.A, op.deg, lambda w: vec_scale(F, F.of(2), op(w)),
                  op.lengths)

    monkeypatch.setattr(kunneth, "cup_op", doubled)
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
