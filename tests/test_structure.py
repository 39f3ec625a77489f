import random

import pytest

from perverse.fields import QQ, Field
from perverse.poset import Poset
from perverse.linalg import (SparseMatrix, signed_sum, vec_scale,
                             solve, linear)
from perverse.algebra import (PDGA, algebra_as_bimodule, dual_bimodule,
                              dual_name)
from perverse.builders import (sphere_algebra, truncated_polynomial, corpus,
                               random_pdga)
from perverse.hochschild import (Cochains, middle_words, word_sdeg,
                                 apply_cochain_D)
from perverse.structure import (Op, cochain_op, to_cochain, brace,
                                op_combine, cup_op, bracket_op, bdual_op,
                                find_duality_class, BVOperator,
                                verify_calculus)
from perverse.suite import (Chains, mult_op, diff_op, cochain_D_op, iota,
                            lie, connes_B, random_cochain, Suite,
                            GERSTENHABER_IDS, CALCULUS_IDS, BV_IDS)
from perverse.functoriality import hc_precompose
from oracles import quasi_iso_fixture

P3 = Poset(3)
Z0 = P3.zero


def unit_cochain(A):
    return {((), A.unit): A.field.one}


def _rand_hom_cochain(A, mids, rng, lo=-5, hi=5):
    for _ in range(30):
        q = rng.randint(lo, hi)
        f = random_cochain(A, mids, q, rng)
        if f:
            return f, q
    return {}, 0


def test_random_cochain_stores_no_zero_and_keeps_every_draw():
    # over F_2 the drawn coefficient 2 is 0: it is skipped, not stored, and
    # the rng still makes the same draws as over Q, whose cochains are
    # pinned as (entries, coefficient sum) at seed 0
    drawn = {}
    for field in (Field(2), QQ):
        A = truncated_polynomial(field, P3, 2, power=3)
        words = middle_words(A, 3)
        rng = random.Random(0)
        drawn[field] = [random_cochain(A, words, q, rng)
                        for q in range(-4, 3) for _ in range(3)]
        drawn[field, "next"] = rng.random()
    F2 = Field(2)
    assert drawn[F2, "next"] == drawn[QQ, "next"]
    for f2, fq in zip(drawn[F2], drawn[QQ]):
        assert not any(F2.iszero(c) for c in f2.values())
        assert f2 == {k: F2.of(c) for k, c in fq.items()
                      if not F2.iszero(F2.of(c))}
    assert [(len(f), sum(f.values())) for f in drawn[QQ]] == [
        (1, -1), (1, -1), (2, 2), (4, 8), (5, 4), (3, 5), (2, 2), (1, -1),
        (0, 0), (2, 3), (4, 5), (1, 2), (1, 1), (1, 2), (1, -1), (2, 3),
        (3, 5), (2, 2), (1, 2), (0, 0), (1, 1)]


def _noncommutative():
    "1, x, y with |x| = |y| = 2 and z = xy, every other product 0"
    return PDGA(QQ, P3,
                [("1", 0, P3.zero), ("x", 2, P3.zero), ("y", 2, P3.zero),
                 ("z", 4, P3.zero)], "1",
                products={("x", "y"): {"z": QQ.one}})


def _nondegenerate_family():
    return [sphere_algebra(QQ, P3, 2),
            truncated_polynomial(QQ, P3, 2, power=3),
            random_pdga(QQ, P3, 0, labeled=False),
            random_pdga(QQ, P3, 5, labeled=False)]


# --- brace calculus, exact at chain level ----------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_cochain_differential_is_hochschild_bracket(seed):
    # D*f = [d_A, f] + [m, f], compared against the direct differential
    rng = random.Random(seed)
    for A in _nondegenerate_family():
        cx = Cochains(A, algebra_as_bimodule(A), 4)
        f, q = _rand_hom_cochain(A, cx.mids, rng)
        lhs = apply_cochain_D(cx, f)
        rhs = to_cochain(cochain_D_op(cochain_op(A, f, q)), cx.words)
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(4))
def test_cup_is_signed_double_brace(seed):
    rng = random.Random(100 + seed)
    for A in _nondegenerate_family():
        words = middle_words(A, 4)
        f, qf = _rand_hom_cochain(A, words, rng)
        g, qg = _rand_hom_cochain(A, words, rng)
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        lhs = to_cochain(cup_op(fop, gop), words)
        rhs = to_cochain(brace(mult_op(A), [fop, gop]), words)
        rhs = {k: QQ.mul(QQ.sign(qf), c) for k, c in rhs.items()}
        assert lhs == rhs


def test_cup_brace_sign_is_not_optional():
    # negative control: dropping the (-1)^{|f|} breaks the comparison
    A = truncated_polynomial(QQ, P3, 2, power=3)
    words = middle_words(A, 4)
    f = {(("x",), "x"): QQ.one}
    fop = cochain_op(A, f, 1)
    cup = to_cochain(cup_op(fop, fop), words)
    braced = to_cochain(brace(mult_op(A), [fop, fop]), words)
    assert cup and braced
    assert cup != braced
    signed = {k: QQ.mul(QQ.sign(1), c) for k, c in braced.items()}
    assert cup == signed


# the commutativity-defect row on one pair of basis cochains; each pair
# below takes one of the row's three faults to fail


def _defect_holds(A, L, f, qf, g, qg):
    "the commutativity-defect check of verify_calculus on (f, qf), (g, qg)"
    return Suite(A, L, -3, 3, 0, 0).defect([(f, qf), (g, qg)])


def test_defect_cup_parities_when_both_degrees_are_even():
    # the cup terms have parities qf and qf qg + qf + 1; the parities
    # qg + 1 + qf qg and qg differ from them by (qf + 1)(qg + 1), so only a
    # pair of even degrees tells them apart.  No term reads past length L
    # or the top label
    assert _defect_holds(_noncommutative(), 3, {((), "x"): QQ.one}, 2,
                         {(("x", "x"), "y"): QQ.one}, 0)


def test_defect_reads_Df_on_words_of_length_L_plus_1():
    # g on the empty word inserts a letter, so (Df) o g reads Df on words of
    # length 4 at L = 3, where f = [x|x|x] -> 1 makes it nonzero
    assert _defect_holds(_noncommutative(), 3,
                         {(("x", "x", "x"), "1"): QQ.one}, -3,
                         {((), "x"): QQ.one}, 2)


def test_defect_reads_Df_past_the_top_label():
    # in random_pdga(6) on Poset(4), v1 has label 0 and v0 the top label:
    # g = [v1] -> v0 turns the word v1|v0 into v0|v0, past the top, and
    # there Df = 2 v0 for f = [v0] -> 1
    A = random_pdga(QQ, Poset(4), 6)
    assert _defect_holds(A, 3, {(("v0",), "1"): QQ.one}, -1,
                         {(("v1",), "v0"): QQ.one}, 0)


def test_cup_unit_laws():
    rng = random.Random(7)
    for A in _nondegenerate_family():
        words = middle_words(A, 4)
        f, qf = _rand_hom_cochain(A, words, rng)
        fop = cochain_op(A, f, qf)
        uop = cochain_op(A, unit_cochain(A), 0)
        assert to_cochain(cup_op(fop, uop), words) == f
        assert to_cochain(cup_op(uop, fop), words) == f


@pytest.mark.parametrize("seed", range(4))
def test_bracket_skew_commutativity_exact(seed):
    rng = random.Random(200 + seed)
    for A in _nondegenerate_family():
        words = middle_words(A, 4)
        f, qf = _rand_hom_cochain(A, words, rng)
        g, qg = _rand_hom_cochain(A, words, rng)
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        lhs = to_cochain(bracket_op(fop, gop), words)
        rhs = to_cochain(bracket_op(gop, fop), words)
        s = QQ.sign(1 + (qf - 1) * (qg - 1))
        assert lhs == {k: QQ.mul(s, c) for k, c in rhs.items()}


@pytest.mark.parametrize("seed", range(3))
def test_pre_jacobi_exact(seed):
    # (phi{f}){g,h} expansion into the six ordered insertions
    rng = random.Random(300 + seed)
    for A in _nondegenerate_family()[:2]:
        words = middle_words(A, 4)
        phi, qp = _rand_hom_cochain(A, words, rng)
        f, qf = _rand_hom_cochain(A, words, rng)
        g, qg = _rand_hom_cochain(A, words, rng)
        h, qh = _rand_hom_cochain(A, words, rng)
        pop = cochain_op(A, phi, qp)
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        hop = cochain_op(A, h, qh)
        lhs = to_cochain(brace(brace(pop, [fop]), [gop, hop]), words)
        terms = [
            (0, brace(pop, [fop, gop, hop])),
            (0, brace(pop, [brace(fop, [gop]), hop])),
            (0, brace(pop, [brace(fop, [gop, hop])])),
            ((qf - 1) * (qg - 1), brace(pop, [gop, fop, hop])),
            ((qf - 1) * (qg - 1), brace(pop, [gop, brace(fop, [hop])])),
            ((qf - 1) * (qg + qh), brace(pop, [gop, hop, fop])),
        ]
        assert lhs == to_cochain(op_combine(A, 0, terms), words)


# --- degrees ----------------------------------------------------------------


def _random_of_one_degree(cx, rng):
    "a random cochain of up to four pairs of one degree of cx, with it"
    q = rng.choice(sorted(cx.graded))
    pairs = [p for p, _ in cx.graded[q]]
    return {p: cx.field.of(rng.choice([1, -1, 2]))
            for p in rng.sample(pairs, min(4, len(pairs)))}, q


def _ops_of_random_cochains(A, cx, cd, rng):
    """(name, Op, degrees of its coefficients) of every cochain operation,
    each built from random homogeneous cochains of cx, over A, and cd,
    over its dual"""
    f, g, h = (cochain_op(A, *_random_of_one_degree(cx, rng))
               for _ in range(3))
    c = cochain_op(A, *_random_of_one_degree(cd, rng))
    ident = {x: {x: A.field.one} for x in A.names}
    deg, ddeg = cx.M.degree, cd.M.degree
    return [("cup", cup_op(f, g), deg),
            ("action", cup_op(f, c, cd.M.act_left_vec), ddeg),
            ("brace", brace(f, [g, h]), deg),
            ("bracket", bracket_op(f, g), deg),
            ("cochain_D_op", cochain_D_op(f), deg),
            ("bdual", bdual_op(c), ddeg),
            ("mult", mult_op(A), deg),
            ("diff", diff_op(A), deg),
            ("hc_precompose", hc_precompose(A, A, ident, f), deg)]


def test_every_op_is_homogeneous():
    # D* reads the degree of each term from its pair, so an Op must give
    # terms of its own degree only: (w -> m) has degree |m| - sdeg(w).
    # Every operation, from random homogeneous cochains, on every word of
    # the complexes at L = 3 of the corpus, k[x]/x^3 and random pDGAs with
    # a product or a differential, and the precomposition along a
    # quasi-isomorphism; each must give some terms
    rng = random.Random(19)
    family = [*corpus(QQ, P3).values(),
              truncated_polynomial(QQ, P3, 2, power=3),
              *(random_pdga(QQ, P, s) for P, s in ((P3, 5), (Poset(4), 3),
                                                   (Poset(4), 103)))]
    seen, wrong = {}, []

    def check(name, op, degree, mids):
        for w, (d, _) in mids.items():
            for m in op(w):
                seen[name] = seen.get(name, 0) + 1
                if degree[m] - d != op.deg:
                    wrong.append((name, w, m, op.deg))

    for A in family:
        cx = Cochains(A, algebra_as_bimodule(A), 3)
        cd = Cochains(A, dual_bimodule(A), 3)
        for _ in range(4):
            for name, op, degree in _ops_of_random_cochains(A, cx, cd, rng):
                check(name, op, degree, cx.mids)
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    cb = Cochains(B, algebra_as_bimodule(B), 3)
    for _ in range(4):
        g = cochain_op(B, *_random_of_one_degree(cb, rng))
        check("hc_precompose", hc_precompose(A, B, fmap, g), B.degree,
              middle_words(A, 3))
    assert not wrong, wrong[:5]
    assert set(seen) == {"cup", "action", "brace", "bracket", "cochain_D_op",
                         "bdual", "mult", "diff", "hc_precompose"}, seen


# --- length supports --------------------------------------------------------


def _cochain_on_some_lengths(A, mids, rng):
    "a random homogeneous cochain on the words of a random set of lengths"
    top = max(len(w) for w in mids)
    keep = set(rng.sample(range(top + 1), rng.randint(1, top + 1)))
    return _rand_hom_cochain(A, {w: x for w, x in mids.items()
                                 if len(w) in keep}, rng, lo=-3, hi=3)


def _every_kind_of_op(A, f, g, h, p, m, d):
    "one Op of each constructor, and nested braces, built on the given Ops"
    return [
        f, m, d,
        brace(p, []), brace(p, [f]), brace(p, [f, g]), brace(p, [f, g, h]),
        brace(m, [f, g]), brace(d, [f]), brace(f, [m]),
        brace(brace(p, [f]), [g, h]), brace(brace(p, [f, g]), [h]),
        brace(p, [brace(f, [g]), h]), brace(p, [g, brace(f, [h])]),
        op_combine(A, 0, [(0, brace(p, [f, g])), (1, brace(p, [f]))]),
        bracket_op(f, g), bracket_op(bracket_op(f, g), h),
        cochain_D_op(f), cochain_D_op(brace(f, [g])),
        cup_op(f, g), cup_op(bracket_op(f, g), h),
    ]


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "sphere4",
                                  "trunc2", "trunc3", "random5",
                                  "noncommutative"])
def test_op_lengths_hold_the_whole_support(name):
    # every Op is zero on the words outside its lengths, and pruning by
    # lengths changes no value: the same Ops built on leaves that claim
    # every length up to L give the same cochains
    A = {**corpus(QQ, P3), "random5": random_pdga(QQ, P3, 5),
         "noncommutative": _noncommutative()}[name]
    L = 4
    words = middle_words(A, L)
    rng = random.Random(11)
    skipped = 0
    for _ in range(3):
        leaves = [cochain_op(A, *_cochain_on_some_lengths(A, words, rng))
                  for _ in range(4)] + [mult_op(A), diff_op(A)]
        wide = [Op(A, op.deg, op.fn, range(L + 1)) for op in leaves]
        for op, ref in zip(_every_kind_of_op(A, *leaves),
                           _every_kind_of_op(A, *wide)):
            for w in words:
                if len(w) not in op.lengths:
                    assert op(w) == {}
                    skipped += 1
            assert to_cochain(op, words) == to_cochain(ref, words)
    assert skipped or name == "trivial"


def _recording(op, name, seen):
    "op, its fn wrapped to note in seen[name] the length of each word it gets"
    fn = op.fn

    def noted(w):
        seen.setdefault(name, set()).add(len(w))
        return fn(w)

    op.fn = noted
    return op


def test_braces_never_evaluate_a_cochain_off_its_lengths():
    A = truncated_polynomial(QQ, P3, 2, power=3)
    words = middle_words(A, 4)
    f = {(("x",), "x"): QQ.one, (("x", "x", "x"), "x"): QQ.of(2)}
    g = {((), "x"): QQ.one, (("x", "x"), "1"): QQ.one}
    seen = {}
    fop = _recording(cochain_op(A, f, 1), "f", seen)
    gop = _recording(cochain_op(A, g, 2), "g", seen)
    assert to_cochain(brace(mult_op(A), [fop, gop]), words)
    assert seen == {"f": {1, 3}, "g": {0, 2}}
    seen.clear()
    lhs = apply_cochain_D(Cochains(A, algebra_as_bimodule(A), 4), f)
    assert to_cochain(cochain_D_op(fop), words) == lhs != {}
    assert seen == {"f": {1, 3}}
    # the action pairing f.[c] with c on the empty word splits each word
    # only at its end, and B_dual reads its argument one length up
    seen.clear()
    D = dual_bimodule(A)
    cop = _recording(cochain_op(A, {((), "x^2*"): QQ.one}, -4), "c", seen)
    assert to_cochain(cup_op(fop, cop, D.act_left_vec), words)
    assert seen == {"f": {1, 3}, "c": {0}}
    seen.clear()
    e = {(("x",), "x*"): QQ.one, (("x", "x", "x"), "1*"): QQ.of(2)}
    eop = _recording(cochain_op(A, e, -3), "e", seen)
    assert to_cochain(bdual_op(eop), words)
    assert seen == {"e": {1, 3}}


# --- cyclic operator on chains ---------------------------------------------


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "trunc2", "trunc3"])
def test_connes_B_squares_to_zero(name):
    A = corpus(QQ, P3)[name]
    ch = Chains(A, algebra_as_bimodule(A), 4)
    for (m, w) in [(A.unit, ()), ("x", ()), ("x", ("x",))]:
        z = {(m, w): QQ.one}
        assert connes_B(ch, connes_B(ch, z)) == {}


@pytest.mark.parametrize("seed", range(4))
def test_connes_B_anticommutes_with_boundary(seed):
    A = _nondegenerate_family()[2 + seed % 2]
    ch = Chains(A, algebra_as_bimodule(A), 4)
    rng = random.Random(seed)
    keys = [(m, w) for w in middle_words(A, 2) for m in A.names]
    z = {k: QQ.of(rng.choice([1, -1, 2])) for k in keys if rng.random() < 0.5}
    assert signed_sum(QQ, [(0, connes_B(ch, linear(QQ, ch.D_key, z))),
                           (0, linear(QQ, ch.D_key, connes_B(ch, z)))]) == {}


def test_connes_B_overflow_guard():
    A = sphere_algebra(QQ, P3, 2)
    ch = Chains(A, algebra_as_bimodule(A), 2)
    with pytest.raises(OverflowError):
        connes_B(ch, {("x", ("x", "x")): QQ.one})


def test_iota_of_unit_cochain_is_identity():
    for A in _nondegenerate_family():
        ch = Chains(A, algebra_as_bimodule(A), 4)
        uop = cochain_op(A, unit_cochain(A), 0)
        for w in middle_words(A, 3):
            for m in A.names:
                z = {(m, w): QQ.one}
                assert iota(ch, uop, z) == z


def test_iota_is_a_module_map_on_homology():
    # i_f i_g = i_{f cup g} on classes
    L = 5
    for A in (sphere_algebra(QQ, P3, 2),
              truncated_polynomial(QQ, P3, 2, power=3)):
        words = middle_words(A, L)
        cs = Chains(A, algebra_as_bimodule(A), L)
        cx = Cochains(A, algebra_as_bimodule(A), L)
        reps = [(q, rep) for q in range(-2, 5)
                for rep in cx.representatives(Z0, q)]
        chains = [(qc, z) for qc in range(0, 4)
                  for z in cs.representatives(Z0, qc)
                  if cs.margin(Z0, qc) >= 2]
        checked = 0
        for (qf, f) in reps:
            for (qg, g) in reps:
                fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
                fg = cochain_op(A, to_cochain(cup_op(fop, gop), words),
                                qf + qg)
                for qc, z in chains:
                    assert cs.is_boundary(Z0, qc + qf + qg, signed_sum(QQ, [
                        (0, iota(cs, fop, iota(cs, gop, z))),
                        (1, iota(cs, fg, z))]))
                    checked += 1
        assert checked


def test_lie_satisfies_cartan_module_axioms_on_homology():
    # L_f is the commutator of B with i_f; the other two axioms follow and
    # are checked on classes
    L = 5
    A = sphere_algebra(QQ, P3, 2)
    words = middle_words(A, L)
    ch = cs = Chains(A, algebra_as_bimodule(A), L)
    cx = Cochains(A, algebra_as_bimodule(A), L)
    reps = [(q, rep) for q in range(-2, 5)
            for rep in cx.representatives(Z0, q)]
    chains = [(qc, z) for qc in range(0, 4)
              for z in cs.representatives(Z0, qc)
              if cs.margin(Z0, qc) >= 2]
    for (qf, f) in reps:
        fop = cochain_op(A, f, qf)
        for (qg, g) in reps:
            gop = cochain_op(A, g, qg)
            br = cochain_op(A, to_cochain(bracket_op(fop, gop), words),
                            qf + qg - 1)
            fg = cochain_op(A, to_cochain(cup_op(fop, gop), words), qf + qg)
            for qc, z in chains:
                # i_{[f,g]} = (-1)^{|g|(|f|+1)} L_f i_g - i_g L_f
                assert cs.is_boundary(Z0, qc + qf + qg - 1, signed_sum(QQ, [
                    (0, iota(ch, br, z)),
                    (1 + qg * (qf + 1), lie(ch, fop, iota(ch, gop, z))),
                    (0, iota(ch, gop, lie(ch, fop, z)))]))
                # L_{f cup g} = L_f i_g + (-1)^{|f|} i_f L_g
                assert cs.is_boundary(Z0, qc + qf + qg - 1, signed_sum(QQ, [
                    (0, lie(ch, fg, z)),
                    (1, lie(ch, fop, iota(ch, gop, z))),
                    (1 + qf, iota(ch, fop, lie(ch, gop, z)))]))


def test_two_sum_lie_shape_misses_length_zero_chains():
    # any formula whose terms all evaluate the cochain on subwords or wraps
    # of the middle word is identically zero on a0[]; the commutator with B
    # is not, so the two-sum shape cannot be the right operator
    A = sphere_algebra(QQ, P3, 2)
    L = 4
    cs = Chains(A, algebra_as_bimodule(A), L)
    f = {((), "x"): QQ.one}
    fop = cochain_op(A, f, 2)
    z = {(A.unit, ()): QQ.one}
    out = lie(cs, fop, z)
    assert out == {(A.unit, ("x",)): QQ.one}
    assert not cs.is_boundary(Z0, 1, out)


# --- dual pairing and the cyclic operator on dual cochains -----------------


def _undual(x):
    if not (isinstance(x, str) and x.endswith("*")):
        raise ValueError("not a dual basis name: %r" % (x,))
    return x[:-1]


def phi_pairing(A, f):
    """turn f in HC(A, DA) into the functional on chain basis keys:
    phi(a0[w]) = (-1)^{|a0| (|a| - |a0|)} f(w)(a0)"""
    F = A.field
    out = {}
    for (w, bs), c in f.items():
        b = _undual(bs)
        s = F.sign(A.deg(b) * word_sdeg(A, w))
        out[(b, w)] = F.mul(s, c)
    return out


def phi_pairing_inv(A, phi):
    F = A.field
    out = {}
    for (b, w), c in phi.items():
        s = F.sign(A.deg(b) * word_sdeg(A, w))
        out[(w, dual_name(b))] = F.mul(s, c)
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_pairing_transport_of_the_differential(seed):
    # phi(D* e) = -(-1)^{|e|} phi(e) o D, entrywise on basis cochains
    A = random_pdga(QQ, P3, seed, labeled=False)
    D = dual_bimodule(A)
    L = 4
    cx = Cochains(A, D, L)
    words = cx.mids
    ch = Chains(A, algebra_as_bimodule(A), L)
    checked = 0
    for w in words:
        if len(w) > L - 1:
            continue
        for m in D.names:
            q = D.degree[m] - word_sdeg(A, w)
            e = {(w, m): QQ.one}
            lhs = phi_pairing(A, apply_cochain_D(cx, e))
            phi = phi_pairing(A, e)
            comp = {}
            for w2 in words:
                for b in A.names:
                    val = QQ.zero
                    for k2, c2 in ch.D_key((b, w2)).items():
                        val = QQ.add(val, QQ.mul(c2, phi.get(k2, QQ.zero)))
                    if not QQ.iszero(val):
                        comp[(b, w2)] = val
            s = QQ.sign(q + 1)
            scaled = {k: QQ.mul(s, c) for k, c in comp.items()}
            lhs = {k: c for k, c in lhs.items() if not QQ.iszero(c)}
            assert lhs == scaled
            if lhs:
                checked += 1
    assert checked


def test_pairing_roundtrip():
    A = sphere_algebra(QQ, P3, 2)
    f = {(("x",), "x*"): QQ.of(3), ((), "1*"): QQ.of(-2)}
    assert phi_pairing_inv(A, phi_pairing(A, f)) == f


@pytest.mark.parametrize("seed", range(3))
def test_bdual_matches_pairing_composition(seed):
    # B_dual f = phi^{-1}(-(-1)^{|f|} phi(f) o B) on basis cochains
    A = _nondegenerate_family()[2 + seed % 2]
    D = dual_bimodule(A)
    L = 4
    words = middle_words(A, L)
    ch = Chains(A, algebra_as_bimodule(A), L)
    checked = 0
    for w in words:
        for m in D.names:
            q = D.degree[m] - word_sdeg(A, w)
            e = {(w, m): QQ.one}
            phi = phi_pairing(A, e)
            psi = {}
            for w2 in words:
                if len(w2) + 1 > L:
                    continue
                for b in A.names:
                    val = QQ.zero
                    for k2, c2 in connes_B(ch, {(b, w2): QQ.one}).items():
                        val = QQ.add(val, QQ.mul(c2, phi.get(k2, QQ.zero)))
                    if not QQ.iszero(val):
                        psi[(b, w2)] = QQ.mul(QQ.sign(q + 1), val)
            ref = phi_pairing_inv(A, psi)
            bdual = to_cochain(bdual_op(cochain_op(A, e, q)), words)
            cur = {k: c for k, c in bdual.items()
                   if not QQ.iszero(c)}
            assert cur == ref
            if ref:
                checked += 1
    assert checked


@pytest.mark.parametrize("seed", range(2))
def test_bdual_anticommutes_and_squares_to_zero(seed):
    A = _nondegenerate_family()[1 + seed]
    D = dual_bimodule(A)
    L = 5
    cx = Cochains(A, D, L)
    words = cx.mids
    bydeg = {}
    for w in words:
        if len(w) > L - 2:
            continue
        for m in D.names:
            q = D.degree[m] - word_sdeg(A, w)
            bydeg.setdefault(q, []).append((w, m))
    rng = random.Random(seed)
    informative = 0
    for q, pairs in sorted(bydeg.items()):
        for _ in range(4):
            f = {p: QQ.of(rng.choice([1, -1, 2])) for p in pairs
                 if rng.random() < 0.6}
            if not f:
                continue
            df = apply_cochain_D(cx, f)
            bdf = to_cochain(bdual_op(cochain_op(A, df, q + 1)), words)
            bf = bdual_op(cochain_op(A, f, q))
            dbf = apply_cochain_D(cx, to_cochain(bf, words))
            total = signed_sum(QQ, [(0, bdf), (0, dbf)])
            assert all(QQ.iszero(c) for c in total.values())
            if bdf or dbf:
                informative += 1
            bbf = to_cochain(bdual_op(bf), words)
            assert all(QQ.iszero(c) for c in bbf.values())
    assert informative


# --- duality detection and the BV operator ---------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_duality_class_detected_for_spheres(n):
    A = sphere_algebra(QQ, P3, n)
    nc, Mv = find_duality_class(dual_bimodule(A))
    assert nc == n
    assert set(Mv) == {"x*"}


def test_duality_class_detected_for_truncated_polynomial():
    A = truncated_polynomial(QQ, P3, 2, power=3)
    nc, Mv = find_duality_class(dual_bimodule(A))
    assert nc == 4


def test_duality_gate_rejects_noncommutative():
    A = _noncommutative()
    assert not A.is_commutative()
    with pytest.raises(ValueError, match="non-commutative duality lift"):
        find_duality_class(dual_bimodule(A))
    # the BV block is a skip, not a raise, on a non-commutative algebra
    rows = verify_calculus(A, 3, -2, 2, trials=2, seed=0)
    assert rows[-1] == {
        "identity": "BV block", "status": "skipped", "trials": 0,
        "witness": "unsupported: non-commutative duality lift"}


def test_bv_block_is_a_skip_below_word_length_two():
    # the cyclic operator reads one word length above its output, so at
    # L = 1 the BV block is recorded as skipped with the reason
    rows = verify_calculus(sphere_algebra(QQ, P3, 2), 1, -2, 2)
    assert rows[-1] == {
        "identity": "BV block", "status": "skipped", "trials": 0,
        "witness": "need word length at least 2 for the cyclic operator"}


def test_duality_gate_reports_missing_class():
    # commutative but without a fundamental-class isomorphism
    A = PDGA(QQ, P3,
             [("1", 0, P3.zero), ("x", 2, P3.zero), ("y", 4, P3.zero)], "1",
             products={})
    assert A.is_commutative()
    with pytest.raises(LookupError, match="not a detected pDPDA"):
        find_duality_class(dual_bimodule(A))


@pytest.mark.parametrize("n", [2, 3])
def test_bv_operator_on_spheres(n):
    A = sphere_algebra(QQ, P3, n)
    bv = BVOperator(Cochains(A, algebra_as_bimodule(A), 5))
    assert bv.n == n
    for r in P3.elements:
        assert bv.unit_obstruction(r) == {}
    squares = 0
    for q in range(-6, 7):
        try:
            m1 = bv.matrix(Z0, q)
            m2 = bv.matrix(Z0, q - 1)
        except LookupError:
            continue
        if m1.ncols and m2.nrows:
            assert m2.mul(m1).is_zero()
            squares += 1
    assert squares


def test_bv_unstable_slot_raises():
    # HH^{-5} of the even sphere needs full-length words at L = 5; the
    # duality solve refuses instead of guessing
    A = sphere_algebra(QQ, P3, 2)
    bv = BVOperator(Cochains(A, algebra_as_bimodule(A), 5))
    f = bv.cx.representatives(Z0, -4)[0]
    with pytest.raises(LookupError, match="stable truncation window"):
        bv.delta(Z0, -4, f)


def _delta_per_call(bv, r, q, f):
    "Delta of f solved from scratch, as before the slots were cached"
    F, cdm, qc = bv.A.field, bv.cdm, q - 1 + bv.c.deg
    target = cdm.coords_of(r, qc, to_cochain(bv.bdual_act(f, q), cdm.words))
    reps = bv.cx.representatives(r, q - 1)
    cols = [cdm.coords_of(r, qc, to_cochain(bv.act_c(g, q - 1), cdm.words))
            for g in reps]
    mat = SparseMatrix.from_columns(F, cdm.homology(r, qc).dim, cols)
    if reps and mat.rank() != len(reps):
        raise LookupError("slot outside the stable truncation window")
    x = solve(mat, target)
    if x is None:
        raise LookupError("slot outside the stable truncation window")
    return linear(F, reps.__getitem__, x), x


def _or_lookup_error(fn, *args):
    try:
        return fn(*args)
    except LookupError:
        return LookupError


def _bv_operators(L):
    """a BVOperator of each corpus algebra that has one and of commutative
    random pDGAs with a duality class: every label is zero at seeds 1, 2
    and 4, not at 20, 52 and 77"""
    P4 = Poset(4)
    for F in (QQ, Field(5)):
        algebras = list(corpus(F, P3).values()) + [
            random_pdga(F, P4, s) for s in (1, 2, 4, 20, 52, 77)]
        for A in algebras:
            try:
                yield BVOperator(Cochains(A, algebra_as_bimodule(A), L))
            except LookupError:
                continue


def test_cached_delta_and_matrix_equal_a_solve_per_call():
    # each slot is asked twice: a cached solver or matrix gives what a
    # fresh solve gives, and a slot that raised raises again
    built = solved = raised = 0
    for bv in _bv_operators(4):
        built += 1
        F = bv.A.field
        for r in bv.A.poset.elements:
            for q in range(-4, 5):
                reps = bv.cx.representatives(r, q)
                got = [[_or_lookup_error(bv.delta, r, q, f) for f in reps]
                       for _ in range(2)]
                mats = [_or_lookup_error(bv.matrix, r, q) for _ in range(2)]
                want = [_or_lookup_error(_delta_per_call, bv, r, q, f)
                        for f in reps]
                assert repr(got[0]) == repr(got[1]) == repr(want)
                if LookupError in want:
                    assert mats == [LookupError, LookupError]
                    raised += 1
                    continue
                m = SparseMatrix.from_columns(
                    F, bv.cx.homology(r, q - 1).dim, [x for _, x in want])
                assert mats[0] is mats[1]
                assert mats[0] == m
                assert repr(mats[0].columns()) == repr(m.columns())
                solved += bool(reps)
    assert built == 24 and solved > 250 and raised > 20, (solved, raised)


def test_slots_with_the_same_bases_share_one_delta_matrix():
    # every label of sphere2 is zero, so both perversities have the same
    # slot bases, homologies and Delta
    A = sphere_algebra(QQ, P3, 2)
    bv = BVOperator(Cochains(A, algebra_as_bimodule(A), 4))
    r0, r1 = P3.elements
    mats = [(_or_lookup_error(bv.matrix, r0, q),
             _or_lookup_error(bv.matrix, r1, q)) for q in range(-3, 4)]
    assert all(m0 is m1 for m0, m1 in mats if m0 is not LookupError)
    assert sum(m0 is not LookupError and m0.ncols > 0 for m0, _ in mats) >= 3


@pytest.mark.parametrize("name,L,lo,hi", [("sphere2", 5, -4, 4),
                                          ("corpus", 4, -3, 3)])
def test_delta_is_solved_once_per_slot(name, L, lo, hi, monkeypatch):
    # inside delta, act_c runs on the HH^{q-1} representatives only (the
    # target goes through bdual_act), once per representative and slot
    # across the whole BV block
    algebras = corpus(QQ, P3)
    algebras = [algebras[name]] if name in algebras else algebras.values()
    calls, inside, ops = {}, [], {}
    orig = {k: getattr(BVOperator, k) for k in ("delta", "bdual_act", "act_c")}

    def delta(self, r, q, f):
        ops[id(self)] = self
        inside.append((id(self), r, q))
        try:
            return orig["delta"](self, r, q, f)
        finally:
            inside.pop()

    def bdual_act(self, f, fdeg):
        inside.append(None)
        try:
            return orig["bdual_act"](self, f, fdeg)
        finally:
            inside.pop()

    def act_c(self, f, fdeg):
        if inside and inside[-1] is not None:
            calls[inside[-1]] = calls.get(inside[-1], 0) + 1
        return orig["act_c"](self, f, fdeg)

    for fn in (delta, bdual_act, act_c):
        monkeypatch.setattr(BVOperator, fn.__name__, fn)
    for A in algebras:
        verify_calculus(A, L, lo, hi, trials=5, seed=0, ids=BV_IDS)
    assert sum(calls.values()) > 0
    for (key, r, q), n in calls.items():
        assert n <= len(ops[key].cx.representatives(r, q - 1)), (r, q, n)


# --- the suite --------------------------------------------------------------


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "truncx3"])
def test_identity_suite_passes(name):
    A = {"sphere2": sphere_algebra(QQ, P3, 2),
         "sphere3": sphere_algebra(QQ, P3, 3),
         "truncx3": truncated_polynomial(QQ, P3, 2, power=3)}[name]
    rows = verify_calculus(A, 5, -6, 6, trials=8, seed=1)
    assert not [r for r in rows if r["status"] == "fail"], rows
    names = [r["identity"] for r in rows]
    assert "BV seven-term relation" in names
    assert "Menichi identity" in names


def test_identity_suite_trivial_algebra():
    A = corpus(QQ, P3)["trivial"]
    rows = verify_calculus(A, 3, -2, 2, trials=4, seed=0)
    assert not [r for r in rows if r["status"] == "fail"], rows


def test_leibniz_stays_in_the_slots_of_a_labeled_random_pdga():
    # Leibniz asks is_boundary at the slot rr = (rf + rg) + rh, the top
    # perversity here, for a sum with terms on the word ('v1', 'v1', 'v2'):
    # its label (0, 0, 0, 0, 1) plus rr is past the top, so those terms lie
    # in the degenerate zero slot
    for F in (QQ, Field(5)):
        rows = verify_calculus(random_pdga(F, Poset(4), 6), 3, -6, 3,
                               trials=5, seed=1)
        row = {r["identity"]: r for r in rows}["Leibniz on cohomology"]
        assert (row["status"], row["trials"]) == ("pass", 3), row


# (identity, status, trials, witness) of verify_calculus(sphere2, 3, -2, 2,
# trials=4, seed=3), recorded from the hand-unrolled suite
_PINNED_SPHERE2_SEED3 = [
    ("differential equals [d_A,f]+[m,f]", "pass", 4, None),
    ("cup equals signed m{f,g}", "pass", 4, None),
    ("bracket skew-commutativity", "pass", 4, None),
    ("commutativity defect coboundary", "pass", 4, None),
    ("pre-Jacobi k=1 l=2", "pass", 4, None),
    ("pre-Jacobi k=2 l=1", "pass", 4, None),
    ("Jacobi on cohomology", "pass", 3, None),
    ("Leibniz on cohomology", "pass", 2, None),
    ("calculus i_[f,g]", "pass", 0, None),
    ("calculus L_{f cup g}", "pass", 2, None),
    ("calculus L_f via B", "pass", 2, None),
    ("Ginzburg identity", "pass", 3, None),
    ("Delta(1) = 0", "pass", 2, None),
    ("Delta squared = 0", "pass", 2, None),
    ("BV seven-term relation", "pass", 0, None),
    ("Menichi identity", "pass", 1, None),
]


def _sphere2_seed3_rows():
    A = sphere_algebra(QQ, P3, 2)
    return [(r["identity"], r["status"], r["trials"], r["witness"])
            for r in verify_calculus(A, 3, -2, 2, trials=4, seed=3)]


def test_verify_calculus_records_are_pinned():
    assert _sphere2_seed3_rows() == _PINNED_SPHERE2_SEED3


def test_verify_calculus_records_pinned_under_a_scaled_connes_B(monkeypatch):
    import perverse.suite as suite
    orig = suite.connes_B

    def scaled(ch, x):
        return vec_scale(ch.A.field, ch.A.field.of(3), orig(ch, x))

    monkeypatch.setattr(suite, "connes_B", scaled)
    # every B-term of the calculus identities scales alike on this input
    assert _sphere2_seed3_rows() == _PINNED_SPHERE2_SEED3


def test_verify_calculus_witnesses_are_pinned(monkeypatch):
    # with no coboundary accepted, every cohomology identity that ran fails
    # on its first applicable trial, and that trial is its witness
    from perverse.linalg import SlotComplex
    monkeypatch.setattr(SlotComplex, "is_boundary",
                        lambda self, r, q, vec: False)
    z, z1 = (0, 0, 0, 0), (0, 0, 0, 1)
    fails = {name: (trials, witness)
             for name, status, trials, witness in _sphere2_seed3_rows()
             if status == "fail"}
    assert fails == {
        "Jacobi on cohomology": (3, {"trial": 0, "slots": (z, z, z),
                                     "degrees": (0, 2, 1)}),
        "Leibniz on cohomology": (2, {"trial": 0, "slots": (z, z1, z),
                                      "degrees": (2, 2, 1)}),
        "calculus L_{f cup g}": (2, {"trial": 1, "slot": (z, 2),
                                     "degrees": (0, -2)}),
        "calculus L_f via B": (2, {"trial": 0, "slot": (z1, 2),
                                   "degree": -2}),
        "Ginzburg identity": (3, {"trial": 0, "slot": (z, 0),
                                  "degrees": (1, -2)}),
        "Menichi identity": (1, {"trial": 2, "slots": (z, z),
                                 "degrees": (2, 2)}),
    }


def test_verify_calculus_reports_exactly_the_registered_identities():
    A = sphere_algebra(QQ, P3, 2)
    names = [r["identity"]
             for r in verify_calculus(A, 3, -2, 2, trials=2, seed=0)]
    registry = GERSTENHABER_IDS + CALCULUS_IDS + BV_IDS
    assert sorted(names) == sorted(n for n in registry if n != "BV block")


@pytest.mark.parametrize("ids", [GERSTENHABER_IDS, CALCULUS_IDS, BV_IDS,
                                 ("Jacobi on cohomology", "Menichi identity")])
def test_verify_calculus_ids_keep_the_records_of_a_full_run(ids):
    # a row left out still draws its samples, so every kept record equals
    # its record in the full run
    A = truncated_polynomial(QQ, P3, 2, power=3)
    full = verify_calculus(A, 3, -2, 2, trials=3, seed=1)
    assert verify_calculus(A, 3, -2, 2, trials=3, seed=1, ids=ids) == [
        r for r in full if r["identity"] in ids]
