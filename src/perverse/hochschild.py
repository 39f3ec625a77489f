"""Bar construction and Hochschild (co)chains for labeled perverse DGAs.

Conventions.  A bar word is a[a_1|...|a_k]b with a, b in the algebra basis and
normalized middle entries (non-unit).  Degrees are cohomological: the word has
degree |a|+|b|+sum(|a_i|-1) and the differential D = d0+d1 has degree +1.
Hochschild chains are m[a_1|...|a_k] with m in a bimodule; cochains are
functions on middle words with values in the bimodule, stored as sparse dicts
{(word, module element): coefficient}.  A basis cochain (w -> m) has degree
|m| - sum(|a_i|-1).  Storage stays flat; an operation on cochains (cup,
braces, the action pairing, B_dual, the precomposition of InducedHH) reads
them as an Op, a function of the word that knows the word lengths it can be
nonzero on, and to_cochain flattens an Op back to a dict.  Only cochain_op
and the AW transport regroup a cochain with index_cochain.

Perversities enter only through slot bases: a word is admissible at r when
label(w) + r stays under the top (past it lies the degenerate zero slot) and
the module element is present at label(w) + r; middle_words holds the label
and suspended degree of each word.  The differentials themselves are
label-blind, so the image of each basis element is computed once per complex
and every slot matrix cuts it to the admissible target pairs.  D* is pushed
forward from each term (w -> m) of a cochain onto the cofaces of w, the
words that have w as a face, and an HH dimension table is read from the
ranks of the slot matrices alone.
"""

import itertools

from .linalg import (SparseMatrix, SlotComplex, vec_iadd, vec_scale, solve,
                     linear)
from .poset import leq
from .algebra import Bimodule, algebra_as_bimodule


def sdeg(A, x):
    "degree of the suspended element s(x)"
    return A.deg(x) - 1


def word_sdeg(A, w):
    return sum(A.deg(x) - 1 for x in w)


def word_eps(A, w, start=0):
    "the prefix degrees eps_i = start + word_sdeg(A, w[:i]), i = 0..len(w)"
    return list(itertools.accumulate((A.deg(x) - 1 for x in w),
                                     initial=start))


def middle_words(A, L):
    """{w: (suspended degree, label)} of the normalized middle words of
    length <= L under the top, shorter first, each length in product order
    over A.nonunit(); labels only grow, so each extends an admissible prefix"""
    P, gens = A.poset, [(x, sdeg(A, x), A.lam(x)) for x in A.nonunit()]
    level = {(): (0, P.zero)}
    out = dict(level)
    for _ in range(L):
        level = {v + (x,): (d + dx, lw) for v, (d, lab) in level.items()
                 for x, dx, lx in gens
                 if (lw := P.oplus(lab, lx)) is not None}
        out.update(level)
    return out


# ---------------------------------------------------------------------------
# two-sided bar complex


def bar_degree(A, word):
    "degree |a| + |b| + sum(|a_i| - 1) of the bar word a[a_1|...|a_k]b"
    a, w, b = word
    return A.deg(a) + A.deg(b) + word_sdeg(A, w)


def bar_ok(A, word):
    "the bar word a[w]b is normalized and its label sum stays under the top"
    a, w, b = word
    return A.unit not in w and A.sum_labels_ok(
        A.lam(a), *[A.lam(x) for x in w], A.lam(b))


class Bar:
    """truncated normalized two-sided bar complex of an augmented pDGA;
    vectors are dicts {(a, middle, b): coefficient}"""

    def __init__(self, A, L):
        self.A = A
        self.L = L
        self.words = [(a, w, b) for w in middle_words(A, L)
                      for a in A.names for b in A.names
                      if bar_ok(A, (a, w, b))]

    def _push(self, out, word, coeff):
        "add coeff * word into out when word is normalized and admissible"
        if bar_ok(self.A, word):
            vec_iadd(self.A.field, out, {word: coeff})

    def D_word(self, word):
        A, F = self.A, self.A.field
        a, w, b = word
        k = len(w)
        out = {}
        # eps_i = |a| + sum_{j<i} |s(a_j)|, 1-based
        eps = word_eps(A, w, A.deg(a))
        # d0
        for y, c in A.d(a).items():
            self._push(out, (y, w, b), c)
        for i in range(1, k + 1):
            s = F.sign(eps[i - 1])
            for y, c in A.d(w[i - 1]).items():
                w2 = w[:i - 1] + (y,) + w[i:]
                self._push(out, (a, w2, b), F.neg(F.mul(s, c)))
        s = F.sign(eps[k])
        for y, c in A.d(b).items():
            self._push(out, (a, w, y), F.mul(s, c))
        if k == 0:
            return out
        # d1
        s = F.sign(A.deg(a))
        for y, c in A.mul(a, w[0]).items():
            self._push(out, (y, w[1:], b), F.mul(s, c))
        for i in range(2, k + 1):
            s = F.sign(eps[i - 1])
            for y, c in A.mul(w[i - 2], w[i - 1]).items():
                w2 = w[:i - 2] + (y,) + w[i:]
                self._push(out, (a, w2, b), F.mul(s, c))
        # last term with the proof's sign eps_k (the displayed definition
        # prints eps_{k+1}; only eps_k satisfies D^2 = 0, see the ledger)
        s = F.sign(eps[k - 1])
        for y, c in A.mul(w[k - 1], b).items():
            self._push(out, (a, w[:k - 1], y), F.neg(F.mul(s, c)))
        return out

    def D(self, vec):
        return linear(self.A.field, self.D_word, vec)

    def q_A(self, vec):
        "augmentation to A: a[]b -> ab, zero on positive lengths"
        A = self.A
        return linear(A.field, lambda word: {} if word[1] else A.mul(
            word[0], word[2]), vec)

    def h(self, vec):
        "contracting homotopy: prepend the unit-complement part of a"
        A, F = self.A, self.A.field
        out = {}
        for (a, w, b), c in vec.items():
            if a == A.unit:
                continue
            if len(w) >= self.L:
                raise OverflowError("homotopy exceeds max length %d" % self.L)
            self._push(out, (A.unit, (a,) + w, b), c)
        return out


# ---------------------------------------------------------------------------
# Hochschild chains


class Chains(SlotComplex):
    """Hochschild chain complex of A with coefficients in an up-type
    bimodule M; vectors are dicts {(m, word): coefficient}, and a slot
    (r, q) has the pairs (m, w) of degree q with label at most r"""

    def __init__(self, A, M, L):
        super().__init__(A.field)
        self.A = A
        self.M = M
        self.L = L
        if any(k != "up" for k in M.kind.values()):
            raise ValueError("chains need an up-type module")
        self.mids = middle_words(A, L)
        # {q: [((m, w), label of the pair)]}, ordered by w, then m
        self.pairs = {}
        for w, (d, lw) in self.mids.items():
            for m in M.names:
                lab = A.poset.oplus(lw, M.plabel[m])
                if lab is not None:
                    self.pairs.setdefault(M.degree[m] + d, []).append(
                        ((m, w), lab))

    def degree(self, key):
        m, w = key
        return self.M.degree[m] + self.mids[w][0]

    def slot_basis(self, r, q):
        return [key for key, lab in self.pairs.get(q, ()) if leq(lab, r)]

    def _push(self, out, m, w, coeff):
        "add coeff * (m, w) into out when the pair is in the complex"
        if w in self.mids and self.A.poset.oplus(
                self.mids[w][1], self.M.plabel[m]) is not None:
            vec_iadd(self.A.field, out, {(m, w): coeff})

    def D_key(self, key):
        A, M, F = self.A, self.M, self.A.field
        m, w = key
        k = len(w)
        out = {}
        eps = word_eps(A, w, M.degree[m])
        # d0
        for y, c in M.d(m).items():
            self._push(out, y, w, c)
        for i in range(1, k + 1):
            s = F.sign(eps[i - 1])
            for y, c in A.d(w[i - 1]).items():
                self._push(out, m, w[:i - 1] + (y,) + w[i:],
                           F.neg(F.mul(s, c)))
        if k == 0:
            return out
        # d1
        s = F.sign(M.degree[m])
        for y, c in M.act_right(m, w[0]).items():
            self._push(out, y, w[1:], F.mul(s, c))
        for i in range(2, k + 1):
            s = F.sign(eps[i - 1])
            for y, c in A.mul(w[i - 2], w[i - 1]).items():
                self._push(out, m, w[:i - 2] + (y,) + w[i:], F.mul(s, c))
        # cyclic last term, sign as printed: (-1)^{eps_k |s(a_k)|}
        s = F.sign(eps[k - 1] * sdeg(A, w[k - 1]))
        for y, c in M.act_left(w[k - 1], m).items():
            self._push(out, y, w[:k - 1], F.neg(F.mul(s, c)))
        return out

    def D(self, vec):
        return linear(self.A.field, self.D_key, vec)

    def margin(self, r, q):
        "length headroom of the slot below the truncation bound"
        pr = self.basis(r, q)
        if not pr:
            return self.L
        return self.L - max(len(w) for (_, w) in pr)


# ---------------------------------------------------------------------------
# Hochschild cochains


class Op:
    """a homogeneous operation: middle word -> vector in the coefficients.
    Covers honest cochains as well as the two distinguished degree-2 symbols
    (the multiplication, concentrated in length 2, and the differential,
    concentrated in length 1).  lengths holds every word length the Op can
    be nonzero on; each constructor derives it, and every operation skips
    the lengths outside it.  Its values are read, never modified"""

    def __init__(self, A, deg, fn, lengths):
        self.A = A
        self.deg = deg
        self.fn = fn
        self.lengths = frozenset(lengths)

    def __call__(self, w):
        return self.fn(w)


def index_cochain(field, f):
    "regroup {(w, m): c} as {w: {m: c}}"
    out = {}
    for (w, m), c in f.items():
        vec_iadd(field, out.setdefault(w, {}), {m: c})
    return out


def cochain_op(A, f, fdeg):
    """the Op of a sparse cochain {(w, m): c}, returning its stored values;
    zero on words with unit entries"""
    fw = index_cochain(A.field, f)
    return Op(A, fdeg, lambda w: fw.get(w, {}), {len(w) for w in fw})


def to_cochain(op, words):
    "the sparse cochain {(w, m): c} of op on the given words"
    F = op.A.field
    out = {}
    for w in words:
        if len(w) not in op.lengths:
            continue
        for x, c in op(w).items():
            if not F.iszero(c):
                out[(w, x)] = c
    return out


def apply_cochain_D(A, M, f, fdeg, words):
    """the printed cochain differential D* = d0 + d1 of f = {(w, m): c}, in
    the same shape, kept on the given middle words (read only by `in`, so a
    dict or set).  Each term (v, m, c) of f is pushed forward onto the words
    that have v as a face; with e the suspended degree of v[:i] and v[i] = y:
      d_M(m) lands on v, with sign +1;
      y in d(x) lands on v[:i] + (x,) + v[i+1:], with (-1)^(e + fdeg);
      y in a.b lands on v[:i] + (a, b) + v[i+1:], with (-1)^(e + |a| + fdeg);
      a.m lands on (a,) + v, with (-1)^((|a| + 1) fdeg + 1);
      m.a lands on v + (a,), with (-1)^(sdeg(v) + fdeg).
    Words with a unit letter carry no term, and A.letter_preimages leaves
    out the unit targets of d and of the products"""
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


class Cochains(SlotComplex):
    """length-truncated normalized Hochschild cochain complex of A with
    coefficients in a bimodule M; a slot (r, q) has the admissible pairs
    (w, m) of degree q as its basis, and D_key pushes D* forward from one
    pair onto all words of the complex.  (A, M, L) fix it: the queries that
    read a degree window take it as an argument"""

    # D* of an admissible pair can be nonzero on pairs that a slot lacks
    truncated = True

    def __init__(self, A, M, L):
        super().__init__(A.field)
        self.A = A
        self.M = M
        self.L = L
        # {w: (suspended degree, label)}; D* reads its keys as the words
        self.mids = middle_words(A, L)
        self.words = list(self.mids)
        self.gens = A.nonunit()
        # {q: {w: [m, ...]}}: the pairs of degree q, ordered by w, then m
        self.pairs = {}
        for w, (d, _) in self.mids.items():
            for m in M.names:
                self.pairs.setdefault(M.degree[m] - d, {}).setdefault(
                    w, []).append(m)

    def degree(self, p):
        w, m = p
        return self.M.degree[m] - self.mids[w][0]

    def window_exact(self, lo):
        "truncation is lossless in every degree from lo up"
        nz = [self.A.deg(x) for x in self.gens]
        if not nz:
            return True
        if min(nz) < 2:
            return False
        top = max(self.M.degree.values())
        return self.L >= top - lo

    def restrict(self, f):
        "the terms of the cochain f on words this complex carries"
        return {(w, m): c for (w, m), c in f.items() if len(w) <= self.L}

    def slot_basis(self, r, q):
        "the admissible pairs (w, m) of degree q at r, ordered by w, then m"
        P, M = self.A.poset, self.M
        out = []
        for w, ms in self.pairs.get(q, {}).items():
            lab = P.oplus(self.mids[w][1], r)
            if lab is not None:
                out += [(w, m) for m in ms if M.present(m, lab)]
        return out

    def D_key(self, p):
        """D* of the basis cochain p = (w, m): its one term pushed forward
        onto the cofaces of w that this complex carries, every pair of them
        one degree up; a slot matrix keeps the pairs admissible at its r"""
        return apply_cochain_D(self.A, self.M, {p: self.A.field.one},
                               self.degree(p), self.mids)

    def _coordinates(self, r, q, vec):
        """as SlotComplex's, but a term on a word whose label plus r is past
        the top lies in the degenerate zero slot and is dropped"""
        P = self.A.poset
        return super()._coordinates(r, q, {
            (w, m): c for (w, m), c in vec.items()
            if w not in self.mids or P.oplus(self.mids[w][1], r) is not None})

    # defined here, not inherited, so that perfbench's trace can wrap it
    def matrix(self, r, q):
        """slot matrix of D* from (r, q) to (r, q+1): the image of each
        source pair, computed once, truncated to the admissible target pairs"""
        return super().matrix(r, q)

    def table(self, lo, hi):
        "{(r, q): dim HH} at every slot of degrees lo..hi, from ranks"
        return {(r, q): h for r in self.A.poset.elements
                for q, h in self.dims(r, lo, hi).items()}


def hh_table(A, M, L, lo, hi):
    return Cochains(A, M, L).table(lo, hi)


# ---------------------------------------------------------------------------
# dense oracle: dualize the bar differential directly


def hh_table_oracle(A, M, L, lo, hi):
    """HH dimension table computed by dualizing the two-sided bar complex:
    a cochain is determined by its values on 1[w]1 and extended bilinearly,
    and its differential is d_M o phi - (-1)^{|phi|} phi o D_bar.  This only
    shares the bar differential with the main implementation, not the
    printed cochain formulas; the slot bases and the homology are those of
    Cochains."""
    F = A.field
    bar = Bar(A, L)

    def phi_of(values, q, barvec):
        "extend values {w: vec in M} A^e-bilinearly to a bar vector"
        def phi(word):
            a, w, b = word
            if not values.get(w):
                return {}
            return vec_scale(F, F.sign(q * A.deg(a)), M.act_right_vec(
                M.act_left_vec({a: F.one}, values[w]), {b: F.one}))

        return linear(F, phi, barvec)

    def dphi(w0, m0, q, words):
        "values of the differential of the basis cochain w0 -> m0"
        values = {w0: {m0: F.one}}
        out = {}
        for w in words:
            bar_d = bar.D_word((A.unit, w, A.unit))
            v = vec_scale(F, F.sign(q + 1), phi_of(values, q, bar_d))
            if w == w0:
                vec_iadd(F, v, M.d_vec({m0: F.one}))
            out.update({(w, m): c for m, c in v.items()})
        return out

    class BarDual(Cochains):
        def D_key(self, p):
            q = self.degree(p)
            return dphi(*p, q, sorted(self.pairs.get(q + 1, {}), key=repr))

    return BarDual(A, M, L).table(lo, hi)


# ---------------------------------------------------------------------------
# functoriality along pDGA quasi-isomorphisms


def check_pdga_map(A, B, fmap):
    "degree-0, label-compatible algebra chain map sending the unit to the unit"
    F = A.field

    def f(vec):
        return linear(F, fmap.__getitem__, vec)

    if fmap[A.unit] != {B.unit: F.one}:
        raise ValueError("unit not preserved")
    for x in A.names:
        for y, c in fmap[x].items():
            if B.deg(y) != A.deg(x):
                raise ValueError("degree broken at %r" % (x,))
            if not leq(B.lam(y), A.lam(x)):
                raise ValueError("label broken at %r" % (x,))
        if f(A.d(x)) != B.d_vec(f({x: F.one})):
            raise ValueError("not a chain map at %r" % (x,))
        for y in A.names:
            if f(A.mul(x, y)) != B.mul_vec(f({x: F.one}), f({y: F.one})):
                raise ValueError("not multiplicative at %r, %r" % (x, y))
    return f


def is_quasi_iso(A, B):
    return A.homology_dims() == B.homology_dims()


def restrict_bimodule(A, B, fmap):
    "B viewed as an A-bimodule through the algebra map f"
    F = A.field
    elems = [(x, B.deg(x), "up", B.lam(x)) for x in B.names]
    left, right = {}, {}
    for a in A.nonunit():
        fa = fmap[a]
        for m in B.names:
            lv = B.mul_vec(fa, {m: F.one})
            rv = B.mul_vec({m: F.one}, fa)
            if lv:
                left[(a, m)] = lv
            if rv:
                right[(m, a)] = rv
    return Bimodule(A, elems, diff=B.diffs, left=left, right=right)


def induced_word_map(A, B, fmap, w):
    """f~ on middle words: apply f entrywise, drop unit components, expand
    linearly; for degree-0 maps the printed sign is +1"""
    F = A.field
    cur = {(): F.one}
    for x in w:
        fx = {y: cy for y, cy in fmap[x].items() if y != B.unit}
        cur = linear(F, lambda v: {v + (y,): cy for y, cy in fx.items()},
                     cur)
    return cur


def hc_postcompose(A, fmap, g):
    "HC(A, A) -> HC(A, B as A-bimodule): postcompose values with f"
    return linear(A.field, lambda wm: {(wm[0], y): cy for y, cy in
                                       fmap[wm[1]].items()}, g)


def hc_precompose(A, B, fmap, g):
    """HC(B, B) -> HC(A, B as A-bimodule): the Op g precomposed with the
    induced word map, which keeps word lengths"""
    return Op(A, g.deg, lambda w: linear(
        A.field, g, induced_word_map(A, B, fmap, w)), g.lengths)


class InducedHH:
    """HH(f) for a pDGA quasi-isomorphism f: A -> B, computed per slot as
    HH(f~, B)^{-1} o HH(A, f); the inverse exists on cohomology only and is
    obtained by linear solves against representative bases."""

    def __init__(self, A, B, fmap, L):
        self.A, self.B, self.fmap = A, B, fmap
        check_pdga_map(A, B, fmap)
        if not is_quasi_iso(A, B):
            raise ValueError("HH(f) needs a quasi-isomorphism")
        self.ca = Cochains(A, algebra_as_bimodule(A), L)
        self.cb = Cochains(B, algebra_as_bimodule(B), L)
        self.cm = Cochains(A, restrict_bimodule(A, B, fmap), L)

    def matrix(self, r, q):
        "HH(f) on homology bases: columns map HH^q(A)_r into HH^q(B)_r"
        F = self.A.field
        Ha = self.ca.homology(r, q)
        Hb = self.cb.homology(r, q)
        Hm = self.cm.homology(r, q)
        # push A-classes into the middle complex
        mid_of_a = []
        for rep in self.ca.representatives(r, q):
            g = hc_postcompose(self.A, self.fmap, rep)
            mid_of_a.append(self.cm.coords_of(r, q, g))
        words = sorted({w for (w, m) in self.cm.basis(r, q)}, key=repr)
        mid_of_b = []
        for rep in self.cb.representatives(r, q):
            g = hc_precompose(self.A, self.B, self.fmap,
                              cochain_op(self.B, rep, q))
            mid_of_b.append(self.cm.coords_of(r, q, to_cochain(g, words)))
        # solve precompose-matrix * x = postcompose-image per A-basis class
        pre = SparseMatrix.from_columns(F, Hm.dim, mid_of_b)
        cols = []
        for col in mid_of_a:
            x = solve(pre, col)
            if x is None:
                raise LookupError("HC(f~, B) not surjective on homology")
            cols.append(x)
        if Ha.dim != Hb.dim:
            raise LookupError("homology dimensions differ")
        return SparseMatrix.from_columns(F, Hb.dim, cols)

    def is_iso(self, r, q):
        m = self.matrix(r, q)
        return m.nrows == m.ncols and m.rank() == m.nrows
