import itertools
import random

import pytest

from perverse.fields import QQ, Field
from perverse.poset import Poset
from perverse.linalg import (SparseMatrix, Echelon, signed_sum, vec_iadd,
                             kernel_basis, linear)
from perverse.algebra import (PDGA, Bimodule, algebra_as_bimodule,
                              dual_bimodule, restrict_bimodule)
from perverse.builders import (trivial_algebra, sphere_algebra,
                               truncated_polynomial, corpus, random_pdga)
from perverse.hochschild import (Cochains, bar_degree, middle_words,
                                 sdeg, word_sdeg, apply_cochain_D,
                                 index_cochain, hh_table, hh_table_oracle,
                                 cochain_op, to_cochain, CofaceTable)
from perverse.functoriality import (InducedHH, check_pdga_map,
                                    is_quasi_iso, hc_postcompose,
                                    hc_precompose)
from perverse import functoriality, linalg
from perverse.structure import cup_op
from perverse.suite import Chains
from perverse.kunneth import hh_degree_support
from oracles import (Bar, q_A, h, quasi_iso_fixture, acyclic_pair,
                     validate_bimodule)

P3 = Poset(3)


def identity_fmap(A):
    return {x: {x: QQ.one} for x in A.names}


# --- bar complex -----------------------------------------------------------


def test_bar_dimensions_and_degrees():
    A = sphere_algebra(QQ, P3, 2)
    bar = Bar(A, 2)
    by_len = {}
    for (a, w, b) in bar.words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {0: 4, 1: 4, 2: 4}
    assert bar_degree(A, ("1", ("x", "x"), "1")) == 2
    assert bar_degree(A, ("x", ("x",), "x")) == 5


def test_bar_d1_of_single_word():
    # D(1[x]1) = x[]1 - 1[]x for a closed generator
    A = sphere_algebra(QQ, P3, 2)
    bar = Bar(A, 2)
    d = bar.D_word(("1", ("x",), "1"))
    assert d == {("x", (), "1"): QQ.one, ("1", (), "x"): QQ.of(-1)}


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "trunc3"])
def test_bar_d_squared_corpus(name):
    A = corpus(QQ, P3)[name]
    bar = Bar(A, 4)
    for word in bar.words:
        assert linear(QQ, bar.D_word, bar.D_word(word)) == {}, word


@pytest.mark.parametrize("seed", range(10))
def test_bar_d_squared_random(seed):
    A = random_pdga(QQ, Poset(4), seed)
    bar = Bar(A, 3)
    for word in bar.words:
        assert linear(QQ, bar.D_word, bar.D_word(word)) == {}, word


def test_bar_last_sign_definition_variant_fails():
    # an eps_{k+1} sign in the last d1 term breaks D^2 = 0; the two choices
    # only differ when |s(a_k)| is odd, so use the degree-2 generator
    A = sphere_algebra(QQ, P3, 2)
    bar = Bar(A, 3)

    def D_variant(word):
        a, w, b = word
        out = dict(bar.D_word(word))
        if w:
            # flip the last d1 term from eps_k to eps_{k+1}
            s = (A.deg(w[-1]) - 1) % 2
            if s:
                for y, c in A.mul(w[-1], b).items():
                    key = (a, w[:-1], y)
                    prev = out.get(key, QQ.zero)
                    # subtracting twice the printed term flips its sign
                    two = QQ.of(2)
                    cur = QQ.add(prev, QQ.mul(two, c))
                    if QQ.iszero(cur):
                        out.pop(key, None)
                    else:
                        out[key] = cur
        return out

    def Dv(vec):
        return linear(QQ, D_variant, vec)

    bad = [w for w in bar.words if Dv(Dv({w: QQ.one}))]
    assert bad, "variant sign unexpectedly satisfies D^2 = 0"


def test_q_A_is_a_surjective_chain_map():
    A = truncated_polynomial(QQ, P3, 2, power=3)
    bar = Bar(A, 3)
    for word in bar.words:
        v = {word: QQ.one}
        assert q_A(bar, linear(QQ, bar.D_word, v)) == A.d_vec(q_A(bar, v)), \
            word
    for x in A.names:
        assert q_A(bar, {(x, (), "1"): QQ.one}) == {x: QQ.one}


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "sphere4",
                                  "trunc2", "trunc3"])
def test_contracting_homotopy_on_kernel(name):
    A = corpus(QQ, P3)[name]
    L = 4
    bar = Bar(A, L)

    def dh_hd(v):
        return signed_sum(QQ, [(0, linear(QQ, bar.D_word, h(bar, v))),
                               (0, h(bar, linear(QQ, bar.D_word, v)))])

    # positive lengths lie in ker(q_A) wordwise
    for word in bar.words:
        if not word[1] or len(word[1]) >= L:
            continue
        v = {word: QQ.one}
        assert dh_hd(v) == v, word
    # length-0 kernel: combinations with vanishing product
    zero_len = [w for w in bar.words if not w[1]]
    rows = sorted(A.names)
    m = SparseMatrix(QQ, len(rows), len(zero_len))
    for j, (a, _, b) in enumerate(zero_len):
        for y, c in A.mul(a, b).items():
            m[rows.index(y), j] = c
    for k in kernel_basis(m):
        v = {zero_len[i]: c for i, c in k.items()}
        assert dh_hd(v) == v


# --- Hochschild chains -----------------------------------------------------


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "trunc3"])
def test_chain_d_squared_corpus(name):
    A = corpus(QQ, P3)[name]
    ch = Chains(A, algebra_as_bimodule(A), 4)
    for w in ch.mids:
        for m in A.names:
            assert linear(QQ, ch.D_key, ch.D_key((m, w))) == {}, (m, w)


@pytest.mark.parametrize("seed", range(10))
def test_chain_d_squared_random(seed):
    A = random_pdga(QQ, Poset(4), seed)
    ch = Chains(A, algebra_as_bimodule(A), 3)
    for w in ch.mids:
        for m in A.names:
            assert linear(QQ, ch.D_key, ch.D_key((m, w))) == {}, (m, w)


def test_chain_d_on_length_zero():
    A = random_pdga(QQ, P3, 2)
    ch = Chains(A, algebra_as_bimodule(A), 2)
    for m in A.names:
        assert ch.D_key((m, ())) == {(y, ()): c for y, c in A.d(m).items()}


def _printed_chain_D(ch, key):
    """independent reference for the chain differential: the printed d0/d1
    formulas on m[a_1|...|a_k], with eps_i = |m| + sum_{j<i} |s(a_j)| and
    the cyclic last term signed (-1)^{eps_k |s(a_k)|}"""
    A, M, F = ch.A, ch.M, ch.A.field
    m, w = key
    k = len(w)
    out = {}
    eps = [M.degree[m]]
    for x in w:
        eps.append(eps[-1] + sdeg(A, x))
    for y, c in M.d(m).items():
        ch.push(out, y, w, c)
    for i in range(1, k + 1):
        s = F.sign(eps[i - 1])
        for y, c in A.d(w[i - 1]).items():
            ch.push(out, m, w[:i - 1] + (y,) + w[i:], F.neg(F.mul(s, c)))
    if k == 0:
        return out
    s = F.sign(M.degree[m])
    for y, c in M.act_right(m, w[0]).items():
        ch.push(out, y, w[1:], F.mul(s, c))
    for i in range(2, k + 1):
        s = F.sign(eps[i - 1])
        for y, c in A.mul(w[i - 2], w[i - 1]).items():
            ch.push(out, m, w[:i - 2] + (y,) + w[i:], F.mul(s, c))
    s = F.sign(eps[k - 1] * sdeg(A, w[k - 1]))
    for y, c in M.act_left(w[k - 1], m).items():
        ch.push(out, y, w[:k - 1], F.neg(F.mul(s, c)))
    return out


def _chain_family(F):
    """the corpus, a non-commutative algebra, labeled random pDGAs (some
    with a differential) over F, each with coefficients in itself, and a
    module restricted along a quasi-isomorphism"""
    P4 = Poset(4)
    fam = [(A, algebra_as_bimodule(A)) for A in corpus(F, P3).values()]
    fam += [(A, algebra_as_bimodule(A)) for A in (
        PDGA(F, P3, [("1", 0, P3.zero), ("x", 2, P3.zero),
                     ("y", 2, P3.zero), ("z", 4, P3.zero)], "1",
             products={("x", "y"): {"z": F.one}}),
        *(random_pdga(F, P4, s) for s in range(12)))]
    A, B, fmap = quasi_iso_fixture(F, P3)
    return fam + [(A, restrict_bimodule(A, B, fmap))]


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("L", [3, 4])
def test_chain_D_is_the_bar_differential_read_through_the_pairing(field, L):
    # D_key reads bar_D_word; the printed formulas are written out above
    for A, M in _chain_family(field):
        ch = Chains(A, M, L)
        for keys in ch.graded.values():
            for key, _ in keys:
                assert ch.D_key(key) == _printed_chain_D(ch, key), key


# --- Hochschild cochains ---------------------------------------------------


def cochain_d_squared_ok(A, M, L, lo, hi, poset):
    cx = Cochains(A, M, L)
    for r in poset.elements:
        for q in range(lo, hi):
            m2 = cx.differential(r, q + 1).mul(cx.differential(r, q))
            if not m2.is_zero():
                return False
    return True


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "trunc3"])
def test_cochain_d_squared_corpus(name):
    A = corpus(QQ, P3)[name]
    assert cochain_d_squared_ok(A, algebra_as_bimodule(A), 4, -3, 3, P3)


@pytest.mark.parametrize("seed", range(8))
def test_cochain_d_squared_random(seed):
    P = Poset(4)
    A = random_pdga(QQ, P, seed)
    assert cochain_d_squared_ok(A, algebra_as_bimodule(A), 3, -3, 3, P)


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_cochain_d_squared_dual_coefficients(seed):
    P = Poset(4)
    A = random_pdga(QQ, P, seed)
    assert cochain_d_squared_ok(A, dual_bimodule(A), 3, -6, 2, P)


def test_cochain_slot_example_sphere():
    # length-1 maps x -> 1 and x -> x sit in cochain degrees -1 and 1
    A = sphere_algebra(QQ, P3, 2)
    cx = Cochains(A, algebra_as_bimodule(A), 3)
    r = P3.zero
    assert (("x",), "1") in cx.basis(r, -1)
    assert (("x",), "x") in cx.basis(r, 1)


def test_slot_vectors_outside_the_slot_basis():
    # a zero entry outside the slot is ignored, a nonzero one is an error
    A = sphere_algebra(QQ, P3, 2)
    cx = Cochains(A, algebra_as_bimodule(A), 3)
    r = P3.zero
    assert cx.is_boundary(r, 1, {(("x",), "1"): QQ.zero})
    with pytest.raises(ValueError):
        cx.is_boundary(r, 1, {(("x",), "1"): QQ.one})


def test_slot_coordinates_drop_only_the_degenerate_zero_slot():
    # at the top slot the word (v1, v1, v2), of label (0, 0, 0, 0, 1), lies
    # in the degenerate zero slot, so its terms are dropped; a word the
    # complex does not carry, or an admissible word whose element is absent
    # at label(w) + r, still raises
    A = random_pdga(QQ, Poset(4), 6)
    cx = Cochains(A, algebra_as_bimodule(A), 3)
    P, top, w = A.poset, A.poset.elements[-1], ("v1", "v1", "v2")
    q = cx.degree((w, "v2"))
    assert P.oplus(cx.mids[w][1], top) is None
    assert cx.coords_of(top, q, {(w, "v2"): QQ.one}) == {}
    assert cx.is_boundary(top, q, {(w, "v2"): QQ.one})
    with pytest.raises(ValueError):
        cx.is_boundary(top, q - 1, {(w + ("v1",), "v2"): QQ.one})
    # v0 is labeled top, so it is absent at label(()) + zero
    assert A.lam("v0") == top
    with pytest.raises(ValueError):
        cx.is_boundary(P.zero, 2, {((), "v0"): QQ.one})


def test_class_matrix_columns_are_the_coordinates_of_each_cocycle():
    # representatives, their sums and the classes of cocycles plus a
    # boundary: column j is coords_of of the j-th cocycle, one row per
    # representative of the slot
    seen = 0
    for F in (QQ, Field(5)):
        for A in list(corpus(F, P3).values()) + [random_pdga(F, Poset(4), 6)]:
            cx = Cochains(A, algebra_as_bimodule(A), 3)
            for r in A.poset.elements:
                for q in range(-4, 4):
                    reps = cx.representatives(r, q)
                    bounds = [b for b in cx.differential(r, q - 1).columns()
                              if b]
                    keys = cx.basis(r, q)
                    shift = {keys[i]: c for i, c in
                             (bounds[0] if bounds else {}).items()}
                    cocycles = reps + [signed_sum(F, [(0, z), (0, shift)])
                                       for z in reps] + [
                        signed_sum(F, [(0, reps[0]), (1, reps[-1])])
                        for _ in reps[:1]]
                    m = cx.class_matrix(r, q, cocycles)
                    assert (m.nrows, m.ncols) == (len(reps), len(cocycles))
                    assert m.columns() == [cx.coords_of(r, q, z)
                                           for z in cocycles], (r, q)
                    seen += len(cocycles)
    assert seen > 200, seen


def test_representatives_are_one_cached_list_per_homology():
    # read twice, or at another slot with the same homology object, a
    # slot's representatives are one list, whose vectors are the
    # Subquotient's representatives keyed by the slot basis
    A = random_pdga(QQ, Poset(4), 6)
    cx = Cochains(A, algebra_as_bimodule(A), 3)
    first, seen = {}, 0
    for r in A.poset.elements:
        for q in range(-4, 4):
            reps = cx.representatives(r, q)
            H, b = cx.homology(r, q), cx.basis(r, q)
            assert cx.representatives(r, q) is reps
            assert first.setdefault(H, reps) is reps
            assert reps == [{b[i]: c for i, c in v.items()} for v in H.reps]
            seen += len(reps)
    assert seen > 10 and len(first) > 5, (seen, len(first))


def test_slot_basis_reads_one_oplus_per_word_label(monkeypatch):
    # a slot basis admits its words by label: one Poset.oplus and one
    # presence set per distinct label of the degree's words, in the order
    # by w, then m, of the per-word filter
    A = random_pdga(QQ, Poset(4), 6)
    P, oplus, present_at = A.poset, Poset.oplus, Bimodule.present_at
    calls = []

    def counted(fn):
        def call(self, *args):
            calls.append(fn.__name__)
            return fn(self, *args)
        return call

    fewer = 0
    for M in (algebra_as_bimodule(A), dual_bimodule(A)):
        cx = Cochains(A, M, 3)
        for r in P.elements:
            for q, ps in sorted(cx.graded.items()):
                want = [(w, m) for (w, m), _ in ps
                        if (lab := oplus(P, cx.mids[w][1], r)) is not None
                        and m in M.present_at(lab)]
                calls.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(Poset, "oplus", counted(oplus))
                    mp.setattr(Bimodule, "present_at", counted(present_at))
                    assert cx.slot_basis(r, q) == want, (r, q)
                words = {w for (w, _), _ in ps}
                labels = {cx.mids[w][1] for w in words}
                assert calls.count("oplus") == len(labels), (r, q)
                assert calls.count("present_at") <= len(labels), (r, q)
                fewer += len(labels) < len(words)
    assert fewer > 10, fewer


def test_class_matrix_of_an_empty_slot_and_its_refusals():
    A = sphere_algebra(QQ, P3, 4)
    cx = Cochains(A, algebra_as_bimodule(A), 3)
    r = P3.zero
    # HH^-2 of k[x]/x^2, |x| = 4, is zero at L = 3 although the slot holds
    # a boundary: its class matrix has no rows and an empty column for it
    assert cx.homology(r, -2).dim == 0
    keys = cx.basis(r, -2)
    boundary = {keys[i]: c for col in cx.differential(r, -3).columns()
                for i, c in col.items()}
    assert boundary and cx.is_boundary(r, -2, boundary)
    m = cx.class_matrix(r, -2, [boundary, {}])
    assert (m.nrows, m.ncols) == (0, 2) and m.is_zero()
    m = cx.class_matrix(r, 5, [])
    assert (m.nrows, m.ncols) == (0, 0)
    # a non-cycle, and a vector off the slot next to a representative,
    # raise as coords_of does
    non_cycle = {cx.basis(r, -3)[0]: QQ.one}
    assert not cx.differential(r, -3).is_zero()
    off_slot = {cx.basis(r, 1)[0]: QQ.one}
    for q, vecs in ((-3, [non_cycle]),
                    (0, [cx.representatives(r, 0)[0], off_slot])):
        with pytest.raises(ValueError):
            cx.coords_of(r, q, vecs[-1])
        with pytest.raises(ValueError):
            cx.class_matrix(r, q, vecs)


def _middle_words_by_scan(A, L):
    """reference table: each word of itertools.product over A.nonunit(),
    labeled by chained oplus, kept when the label stays under the top"""
    P, out = A.poset, {}
    for k in range(L + 1):
        for w in itertools.product(A.nonunit(), repeat=k):
            lab = P.zero
            for x in w:
                lab = None if lab is None else P.oplus(lab, A.lam(x))
            if lab is not None:
                out[w] = (word_sdeg(A, w), lab)
    return out


@pytest.mark.parametrize("name", sorted(corpus(QQ, P3)) + [
    "random%d" % seed for seed in (0, 1, 5, 6, 103)])
def test_middle_words_match_a_product_scan(name):
    # the table grown from admissible prefixes holds the same words in the
    # same order, with their suspended degrees and chained-oplus labels
    A = (corpus(QQ, P3)[name] if not name.startswith("random")
         else random_pdga(QQ, Poset(4), int(name[6:])))
    for L in range(5):
        assert list(middle_words(A, L).items()) == \
            list(_middle_words_by_scan(A, L).items()), L


def test_a_negative_length_is_refused():
    # as tensor_algebra refuses one: a negative length has no word table,
    # not the table of length 0, so no cochain or chain complex
    A = sphere_algebra(QQ, P3, 2)
    M = algebra_as_bimodule(A)
    for build in (lambda: middle_words(A, -1), lambda: Cochains(A, M, -1),
                  lambda: Chains(A, M, -1)):
        with pytest.raises(ValueError, match="negative truncation length"):
            build()


def _coface_family():
    """algebras and coefficients whose slot matrices exercise every coface
    rule; the dual coefficients are down-type, so presence at a label
    reverses the label test"""
    fam = dict(corpus(QQ, P3))
    fam["truncx3"] = truncated_polynomial(QQ, P3, 2, power=3)
    fam["labeled-fp"] = random_pdga(Field(32003), Poset(4), 103)
    fam["random-d"] = random_pdga(QQ, P3, 5)
    fam["noncommutative"] = PDGA(
        QQ, P3, [("1", 0, P3.zero), ("x", 2, P3.zero), ("y", 2, P3.zero),
                 ("z", 4, P3.zero)], "1",
        products={("x", "y"): {"z": QQ.one}})
    out = {name: (A, algebra_as_bimodule(A)) for name, A in fam.items()}
    out["labeled-fp-dual"] = (fam["labeled-fp"],
                              dual_bimodule(fam["labeled-fp"]))
    return out


def _pull_cochain_D(A, M, f, fdeg, words):
    """independent reference for D*: the printed formula (Df)(w) evaluated
    on each of the given words, reading f on the faces of w"""
    F = A.field
    fw = index_cochain(F, f)
    unit, diffs, prods = A.unit, A.diffs, A.label_products
    pm = (F.one, F.minus_one)
    out = {}
    for w in words:
        k = len(w)
        val = dict(M.d_vec(fw.get(w, {})))
        eps = 0
        for i in range(k):
            s = pm[(eps + fdeg) % 2]
            for y, c in diffs.get(w[i], {}).items():
                if y == unit:
                    continue
                w2 = w[:i] + (y,) + w[i + 1:]
                vec_iadd(F, val, fw.get(w2, {}), F.mul(s, c))
            eps += sdeg(A, w[i])
        if k:
            a1, ak = w[0], w[-1]
            s = pm[((A.deg(a1) + 1) * fdeg + 1) % 2]
            vec_iadd(F, val, M.act_left_vec({a1: F.one},
                                            fw.get(w[1:], {})), s)
            s = pm[(word_sdeg(A, w[:-1]) + fdeg) % 2]
            vec_iadd(F, val, M.act_right_vec(fw.get(w[:-1], {}),
                                             {ak: F.one}), s)
            eps = sdeg(A, w[0])
            for i in range(1, k):
                s = pm[(eps + fdeg + 1) % 2]
                for y, c in prods.get((w[i - 1], w[i]), {}).items():
                    if y == unit:
                        continue
                    w2 = w[:i - 1] + (y,) + w[i + 1:]
                    vec_iadd(F, val, fw.get(w2, {}), F.mul(s, c))
                eps += sdeg(A, w[i])
        out.update({(w, m): c for m, c in val.items()})
    return out


def _matrix_on_every_word(cx, r, q):
    "the slot matrix with the pull formula for D* on every destination word"
    dst = cx.index(r, q + 1)
    words = sorted({w for (w, m) in dst}, key=repr)
    cols = []
    for p in cx.basis(r, q):
        img = _pull_cochain_D(cx.A, cx.M, {p: cx.A.field.one}, q, words)
        cols.append({dst[k]: c for k, c in img.items() if k in dst})
    return SparseMatrix.from_columns(cx.A.field, len(dst), cols)


@pytest.mark.parametrize("name", sorted(_coface_family()))
def test_coface_assembly_and_rank_table(name):
    A, M = _coface_family()[name]
    L = 3
    cx = Cochains(A, M, L)
    degs = {M.degree[m] - word_sdeg(A, w) for w in cx.words for m in M.names}
    lo, hi = min(degs), max(degs)
    for r in A.poset.elements:
        for q in range(lo - 1, hi + 1):
            assert cx.differential(r, q) == _matrix_on_every_word(cx, r, q), \
                (r, q)
    assert cx.table(lo, hi) == {(r, q): cx.homology(r, q).dim
                                for r in A.poset.elements
                                for q in range(lo, hi + 1)}


@pytest.mark.parametrize("name", sorted(_coface_family()))
def test_pushed_cochain_D_equals_the_pull_formula(name):
    # random sparse cochains of one degree, on all words of the complex and
    # on random subsets of them, through a complex whose coface table holds
    # only the subset; now and then a term on a word holding the unit,
    # which no complex carries, and D* of it raises
    A, M = _coface_family()[name]
    F, rng = A.field, random.Random(name)
    cx = Cochains(A, M, 3)
    degrees = sorted(cx.graded)
    for _ in range(25):
        q = rng.choice(degrees)
        pairs = [p for p, _ in cx.graded[q]]
        f = {p: F.of(rng.choice([1, 2, -1, 3]))
             for p in rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))}
        if rng.random() < 0.2:
            with pytest.raises(KeyError):
                apply_cochain_D(cx, {**f, ((A.unit,), M.names[0]): F.one})
        words = rng.sample(cx.words, len(cx.words) // 3)
        sub = Cochains(A, M, 3)
        sub.coface = CofaceTable(A, set(words))
        for c, ws in ((cx, cx.words), (sub, words)):
            assert apply_cochain_D(c, f) == _pull_cochain_D(A, M, f, q, ws), \
                (f, q)


def _pushed_cochain_D(A, M, f, fdeg, words):
    """reference for apply_cochain_D: the push-forward loop that builds the
    word side of D* afresh for every term of f, on a set of words"""
    F, pm, gens = A.field, (A.field.one, A.field.minus_one), A.nonunit()
    acc = {}

    def add(w, vec, s, c):
        vec_iadd(F, acc.setdefault(w, {}), vec, F.mul(pm[s % 2], c))

    for (v, m), c in f.items():
        if A.unit in v:
            continue
        if v in words:
            add(v, M.d(m), 0, c)
        eps = 0
        for i, y in enumerate(v):
            for xs, cy in A.letter_preimages.get(y, ()):
                w = v[:i] + xs + v[i + 1:]
                if w in words:
                    s = eps + fdeg + (A.deg(xs[0]) if len(xs) == 2 else 0)
                    add(w, {m: cy}, s, c)
            eps += sdeg(A, y)
        for a in gens:
            if (a,) + v in words:
                add((a,) + v, M.act_left(a, m), (A.deg(a) + 1) * fdeg + 1, c)
            if v + (a,) in words:
                add(v + (a,), M.act_right(m, a), eps + fdeg, c)
    return {(w, m): c for w, vec in acc.items() for m, c in vec.items()}


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("p", [0, 5])
def test_coface_table_keeps_the_pushforward_and_its_order(p, L):
    # the same terms in the same insertion order as the per-term loop on
    # every basis pair, and the same terms on random cochains of several
    # terms, whose order is unspecified, with the coefficients of the chain
    # family and their duals
    F = QQ if p == 0 else Field(p)
    rng = random.Random(p + L)
    for A, M0 in _chain_family(F):
        for M in (M0, dual_bimodule(A)):
            cx = Cochains(A, M, L)
            for q, ps in sorted(cx.graded.items()):
                pairs = [pr for pr, _ in ps]
                for pair in pairs:
                    assert list(cx.D_key(pair).items()) == list(
                        _pushed_cochain_D(A, M, {pair: F.one}, q,
                                          cx.mids).items()), pair
                for _ in range(3):
                    f = {pr: F.of(rng.choice([1, 2, -1, 3])) for pr in
                         rng.sample(pairs, min(len(pairs), rng.randint(2, 6)))}
                    assert apply_cochain_D(cx, f) == \
                        _pushed_cochain_D(A, M, f, q, cx.mids), f


def test_each_coface_entry_is_built_once_per_complex(monkeypatch):
    # the word side of D* at v is built on the first term on v and read by
    # every later one, whatever its module element
    built = []
    missing = CofaceTable.__missing__

    def counted(self, v):
        built.append((id(self), v))
        return missing(self, v)

    monkeypatch.setattr(CofaceTable, "__missing__", counted)
    A = random_pdga(Field(32003), Poset(4), 103)
    M = algebra_as_bimodule(A)
    L = 4
    table = hh_table(A, M, L, *hh_degree_support(A, L))
    assert any(table.values())
    assert built and len(built) == len(set(built))
    assert len({id_ for id_, _ in built}) == 1


def test_each_image_is_computed_once(monkeypatch):
    # the differentials are label-blind: every slot that holds a basis key
    # reads the one image of that key
    seen = []
    for cls in (Cochains, Chains):
        def counted_D_key(self, key, D_key=cls.D_key):
            seen.append(key)
            return D_key(self, key)

        monkeypatch.setattr(cls, "D_key", counted_D_key)
    L = 3
    for seed in (6, 103):
        A = random_pdga(QQ, Poset(4), seed)
        M = algebra_as_bimodule(A)
        lo, hi = hh_degree_support(A, L)
        ch = Chains(A, M, L)
        chain_degs = {ch.degree((m, w)) for w in ch.mids for m in M.names}
        for cx, degs in [(Cochains(A, M, L), range(lo - 1, hi + 1)),
                         (ch, sorted(chain_degs))]:
            seen.clear()
            src = set()
            for r in A.poset.elements:
                for q in degs:
                    cx.differential(r, q)
                    src.update(cx.basis(r, q))
            assert len(seen) == len(src) and set(seen) == src


# --- oracle first: sanity of the dense bar-dual implementation -------------


def test_oracle_trivial_algebra():
    A = trivial_algebra(QQ, P3)
    t = hh_table_oracle(A, algebra_as_bimodule(A), 3, -2, 2)
    for (r, q), d in t.items():
        assert d == (1 if q == 0 else 0), (r, q)


def test_oracle_degree_zero_is_center():
    # for commutative d=0 algebras HH^0 is the degree-0 center: the unit line
    for name in ["sphere2", "sphere3", "trunc3"]:
        A = corpus(QQ, P3)[name]
        t = hh_table_oracle(A, algebra_as_bimodule(A), 3, 0, 0)
        for (r, q), d in t.items():
            assert d == 1, (name, r, q)


def test_oracle_known_sphere2_low_degrees():
    # H*(S^2): x central, so x itself gives a 1-dim class in degree 2, and
    # the derivation x -> x gives a class in degree 0 beyond the unit? No:
    # degree-0 cochains of positive length change the table only through
    # homology; pin the whole low window instead and require L-stability.
    A = sphere_algebra(QQ, P3, 2)
    M = algebra_as_bimodule(A)
    t4 = hh_table_oracle(A, M, 4, -2, 2)
    t5 = hh_table_oracle(A, M, 5, -2, 2)
    assert t4 == t5
    assert t4[(P3.zero, 2)] >= 1  # the class of x


# --- main implementation against the oracle --------------------------------


@pytest.mark.parametrize("name", ["trivial", "sphere2", "sphere3", "trunc2",
                                  "trunc3"])
def test_hh_matches_oracle_corpus(name):
    A = corpus(QQ, P3)[name]
    M = algebra_as_bimodule(A)
    assert hh_table(A, M, 3, -3, 3) == hh_table_oracle(A, M, 3, -3, 3)


@pytest.mark.parametrize("seed", [1, 4, 6])
def test_hh_matches_oracle_random(seed):
    P = Poset(4)
    A = random_pdga(QQ, P, seed)
    M = algebra_as_bimodule(A)
    assert hh_table(A, M, 3, -2, 2) == hh_table_oracle(A, M, 3, -2, 2)


@pytest.mark.parametrize("seed", [0, 5])
def test_hh_matches_oracle_dual_coefficients(seed):
    P = Poset(4)
    A = random_pdga(QQ, P, seed)
    M = dual_bimodule(A)
    assert hh_table(A, M, 3, -5, 1) == hh_table_oracle(A, M, 3, -5, 1)


# --- Q against prime fields ------------------------------------------------

# the corpus algebras whose HH over F_2 differs from HH over Q: the
# even-degree square-zero ones, whose cochain differential carries a 2
_F2_TORSION = {"sphere2", "sphere4", "trunc2"}


def _corpus_hh_tables(F, L):
    out = {}
    for name, A in corpus(F, P3).items():
        lo, hi = hh_degree_support(A, L)
        out[name] = hh_table(A, algebra_as_bimodule(A), L, lo, hi)
    return out


@pytest.mark.parametrize("L,slots", [(3, 4), (4, 8)])
def test_hh_over_a_large_prime_agrees_with_q(L, slots):
    q = _corpus_hh_tables(QQ, L)
    assert _corpus_hh_tables(Field(32003), L) == q
    f2 = _corpus_hh_tables(Field(2), L)
    for name, table in q.items():
        assert set(f2[name]) == set(table), name
        differ = [k for k in table if f2[name][k] != table[k]]
        # dimensions can only grow on reduction mod p
        assert all(f2[name][k] > table[k] for k in differ), name
        assert len(differ) == (slots if name in _F2_TORSION else 0), name


# --- ranks by clearing -----------------------------------------------------


def _clearing_family():
    """{name: (A, M, L)}: the corpus and labeled random pDGAs over Q, F_5
    and F_32003, each with algebra and dual coefficients, at L = 4, and
    k[x]/x^3 (|x| = 2) at L = 8"""
    algebras = {"corpus-" + n: A for n, A in corpus(QQ, P3).items()}
    for F in (QQ, Field(5), Field(32003)):
        for s in (5, 6, 7, 10, 103):
            algebras["random-%r-%d" % (F, s)] = random_pdga(F, Poset(4), s)
    fam = {}
    for name, A in algebras.items():
        fam[name + "-alg"] = (A, algebra_as_bimodule(A), 4)
        fam[name + "-dual"] = (A, dual_bimodule(A), 4)
    A = truncated_polynomial(QQ, P3, 2, power=3)
    fam["trunc3-alg"] = (A, algebra_as_bimodule(A), 8)
    return fam


def _recorded_table(cx, lo, hi):
    """the slot matrices that cx.table(lo, hi) assembles, as (r, q,
    cleared), and the keys whose images it computes, in call order"""
    calls, keys = [], []
    matrix, D_key = cx.matrix, cx.D_key

    def recorded_matrix(r, q, cleared=()):
        calls.append((r, q, cleared))
        return matrix(r, q, cleared)

    def recorded_D_key(key):
        keys.append(key)
        return D_key(key)

    cx.matrix, cx.D_key = recorded_matrix, recorded_D_key
    cx.table(lo, hi)
    del cx.matrix, cx.D_key
    return calls, keys


def test_every_cleared_column_lies_in_the_span_of_the_kept_earlier_ones():
    # clearing leaves column i of d_q out of its rank when i is a pivot row
    # of d_(q-1): d_q kills the boundary e_i + (earlier rows) headed there
    cleared_cols = 0
    for name, (A, M, L) in _clearing_family().items():
        cx = Cochains(A, M, L)
        calls, _ = _recorded_table(cx, min(cx.graded), max(cx.graded))
        for r, q, cleared in calls:
            kept = Echelon(A.field)
            for j, col in enumerate(cx.differential(r, q).columns()):
                if j in cleared:
                    assert kept.contains(col), (name, r, q, j)
                    cleared_cols += 1
                else:
                    kept.add(col)
    assert cleared_cols > 1000


def test_table_by_clearing_equals_the_full_matrix_rule_and_the_oracle():
    for name, (A, M, top) in _clearing_family().items():
        for L in range(1, top + 1):
            cx = Cochains(A, M, L)
            lo, hi = min(cx.graded), max(cx.graded)
            table = cx.table(lo, hi)
            full = {(r, q): len(cx.basis(r, q))
                    - cx.differential(r, q).rank()
                    - cx.differential(r, q - 1).rank()
                    for r in A.poset.elements for q in range(lo, hi + 1)}
            assert table == full == hh_table_oracle(A, M, L, lo, hi), \
                (name, L)


def test_the_table_computes_the_images_of_uncleared_columns_only():
    # the benchmark's hh-labeled-fp input; its slots hold 444 keys
    A = random_pdga(Field(32003), Poset(4), 103)
    lo, hi = hh_degree_support(A, 4)
    cx = Cochains(A, algebra_as_bimodule(A), 4)
    calls, keys = _recorded_table(cx, lo, hi)
    held = {key for r, q, cleared in calls
            for j, key in enumerate(cx.basis(r, q)) if j not in cleared}
    assert set(keys) == held and len(keys) == len(held) == 262


@pytest.mark.parametrize("F", [QQ, Field(5)], ids=["Q", "F5"])
def test_euler_characteristic_of_every_slot_is_that_of_its_basis(F):
    # over the whole degree range of a finite complex, the truncated one
    # included, sum (-1)^q dim H^q = sum (-1)^q dim C^q.  A rank table
    # satisfies this by construction, so H^q is read from the Subquotient,
    # whose cycles and boundaries come from two eliminations
    algebras = list(corpus(F, P3).values()) + [
        truncated_polynomial(F, P3, 2, power=3)] + [
        random_pdga(F, Poset(4), s) for s in range(8)]
    slots = 0
    for A, L in itertools.product(algebras, (2, 3, 4)):
        for cx in (Cochains(A, algebra_as_bimodule(A), L),
                   Cochains(A, dual_bimodule(A), L),
                   Chains(A, algebra_as_bimodule(A), L)):
            qs = range(min(cx.graded), max(cx.graded) + 1)
            for r in A.poset.elements:
                slots += 1
                assert sum((-1) ** q * cx.homology(r, q).dim
                           for q in qs) == sum(
                    (-1) ** q * len(cx.basis(r, q)) for q in qs), (A, L, r)
    assert slots == 414


def test_window_exact_flag():
    A = sphere_algebra(QQ, P3, 2)
    M = algebra_as_bimodule(A)
    assert Cochains(A, M, 4).window_exact(-2)
    assert not Cochains(A, M, 2).window_exact(-2)
    B = truncated_polynomial(QQ, P3, 1)  # degree-1 generator: never exact
    assert not Cochains(B, algebra_as_bimodule(B), 6).window_exact(-2)


def test_l_stability_when_exact():
    A = truncated_polynomial(QQ, P3, 3)
    M = algebra_as_bimodule(A)
    lo, hi = -2, 2
    L = max(A.degree.values()) - lo
    assert Cochains(A, M, L).window_exact(lo)
    assert hh_table(A, M, L, lo, hi) == hh_table(A, M, L + 1, lo, hi)


# --- action pairing --------------------------------------------------------


def test_action_of_unit_class_is_identity():
    A = truncated_polynomial(QQ, P3, 2, power=3)
    M = algebra_as_bimodule(A)
    words = middle_words(A, 3)
    unit = {((), "1"): QQ.one}
    for g in [{((), "x"): QQ.one},
              {(("x",), "x^2"): QQ.one, (("x", "x"), "x^2"): QQ.of(2)}]:
        # degree of g: take it from its first pair
        (w0, m0) = next(iter(g))
        q = A.deg(m0) - word_sdeg(A, w0)
        pairing = cup_op(cochain_op(A, unit, 0), cochain_op(A, g, q),
                         M.act_left_vec)
        assert to_cochain(pairing, words) == g


def test_action_pairing_hand_expansion():
    # f of length 1 (x -> 1), g of length 0 (-> x): (f.g)[x] = f(x).g() = x
    A = sphere_algebra(QQ, P3, 2)
    M = algebra_as_bimodule(A)
    f = {(("x",), "1"): QQ.one}
    g = {((), "x"): QQ.one}
    pairing = cup_op(cochain_op(A, f, -1), cochain_op(A, g, 2),
                     M.act_left_vec)
    out = to_cochain(pairing, middle_words(A, 2))
    assert out == {(("x",), "x"): QQ.one}


# --- induced maps ----------------------------------------------------------


def test_induced_identity_map():
    A = truncated_polynomial(QQ, P3, 2)
    ind = InducedHH(A, A, identity_fmap(A), 3)
    for r in P3.elements:
        for q in range(-2, 3):
            m = ind.matrix(r, q)
            assert m == SparseMatrix.identity(QQ, m.nrows), (r, q)


def test_induced_quasi_iso_fixture_is_iso():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    check_pdga_map(A, B, fmap)
    ind = InducedHH(A, B, fmap, 3)
    for r in P3.elements:
        for q in range(-2, 3):
            assert ind.is_iso(r, q), (r, q)


def test_induced_refuses_a_map_that_kills_a_class():
    # x -> 0 on k[x]/x^2 is a pDGA map with the diagram homology of an
    # isomorphism on both sides, but it kills the class of x
    A = truncated_polynomial(QQ, P3, 2)
    with pytest.raises(ValueError, match="needs a quasi-isomorphism"):
        InducedHH(A, A, {"1": {"1": QQ.one}, "x": {}}, 3)


def _one_class_killing_maps():
    """(A, fmap) for every pDGA endomorphism that is the identity but sends
    one closed generator outside the image of d to 0, on the corpus and
    random_pdga(F, Poset(3), s) for s < 12, over Q and F_5"""
    out = []
    for F in (QQ, Field(5)):
        for A in [*corpus(F, P3).values(),
                  *(random_pdga(F, P3, s) for s in range(12))]:
            hit = {y for v in A.diffs.values() for y in v}
            for x in A.nonunit():
                if x not in A.diffs and x not in hit:
                    fmap = {y: {y: F.one} for y in A.names}
                    fmap[x] = {}
                    out.append((A, fmap))
    return out


def test_induced_refuses_every_map_that_kills_one_class():
    maps = _one_class_killing_maps()
    assert len(maps) == 46
    for A, fmap in maps:
        check_pdga_map(A, A, fmap)
        with pytest.raises(ValueError, match="needs a quasi-isomorphism"):
            InducedHH(A, A, fmap, 2)


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_acyclic_pair_inclusion_and_projection_are_quasi_isos(field):
    # B = A plus y, z = dy at one degree and label; the inclusion and the
    # projection are pDGA maps and isomorphisms on every slot's homology
    algebras = [*corpus(field, P3).values(),
                *(random_pdga(field, P3, s) for s in (1, 2, 3, 5, 103))]
    checked = 0
    for A in algebras:
        for degree, label in [(1, P3.zero), (2, P3.top), (3, P3.top),
                              (4, P3.zero)]:
            B, inclusion, projection = acyclic_pair(A, degree, label)
            assert B.validate()["valid"], (degree, label)
            assert is_quasi_iso(A, B, check_pdga_map(A, B, inclusion))
            assert is_quasi_iso(B, A, check_pdga_map(B, A, projection))
            checked += 2
    assert checked == 88


def _induced_by_column_solves(ind, r, q):
    """HH(f) at (r, q) with one solve per A-class against the precompose
    matrix, as InducedHH.matrix computed it before it eliminated once"""
    A, B, fmap, cm = ind.A, ind.B, ind.fmap, ind.cm
    Ha, Hb, Hm = (cx.homology(r, q) for cx in (ind.ca, ind.cb, cm))
    mid_of_a = [cm.coords_of(r, q, hc_postcompose(A, fmap, rep))
                for rep in ind.ca.representatives(r, q)]
    words = sorted({w for (w, m) in cm.basis(r, q)}, key=repr)
    mid_of_b = [cm.coords_of(r, q, to_cochain(hc_precompose(
        A, B, fmap, cochain_op(B, rep, q)), words))
        for rep in ind.cb.representatives(r, q)]
    pre = SparseMatrix.from_columns(A.field, Hm.dim, mid_of_b)
    cols = []
    for col in mid_of_a:
        x = linalg.solve(pre, col)
        if x is None:
            raise LookupError("HC(f~, B) not surjective on homology")
        cols.append(x)
    if Ha.dim != Hb.dim:
        raise LookupError("homology dimensions differ")
    return SparseMatrix.from_columns(A.field, Hb.dim, cols)


def _induced_maps():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    T = truncated_polynomial(QQ, P3, 2)
    return [InducedHH(A, B, fmap, 3), InducedHH(T, T, identity_fmap(T), 3)]


def _matrix_or_error(fn, *args):
    try:
        return fn(*args)
    except LookupError as e:
        return repr(e)


def test_induced_matrix_equals_a_solve_per_column():
    nonzero = 0
    for ind in _induced_maps():
        for r in P3.elements:
            for q in range(-2, 3):
                got = _matrix_or_error(ind.matrix, r, q)
                want = _matrix_or_error(_induced_by_column_solves, ind, r, q)
                assert got == want, (r, q)
                assert repr(got.columns()) == repr(want.columns())
                nonzero += not got.is_zero()
    assert nonzero >= 8, nonzero


def test_induced_matrix_eliminates_once_per_slot(monkeypatch):
    # the precompose matrix is eliminated by one solver per call, never by
    # a solve per column
    def refuse(*args):
        raise AssertionError("InducedHH.matrix called linalg.solve")

    eliminated = []
    solver = linalg.solver

    def counted(A):
        eliminated.append(A)
        return solver(A)

    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(functoriality, "solve", refuse, raising=False)
    monkeypatch.setattr(functoriality, "solver", counted)
    calls = 0
    for ind in _induced_maps():
        for r in P3.elements:
            for q in range(-2, 3):
                ind.matrix(r, q)
                calls += 1
    assert len(eliminated) == calls, (len(eliminated), calls)


def test_restricted_bimodule_validates():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    rep = validate_bimodule(restrict_bimodule(A, B, fmap))
    assert rep["valid"], rep["violations"][:3]
