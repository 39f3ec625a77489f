"""Bar words and Hochschild cochains for labeled perverse DGAs.

Conventions.  A bar word is a[a_1|...|a_k]b with a, b in the algebra basis and
normalized middle entries (non-unit).  Degrees are cohomological: the word has
degree |a|+|b|+sum(|a_i|-1) and the differential D = d0+d1 has degree +1.
The bar complex itself is perverse.suite.Bar: the Hochschild chains of the
suite read it, and so does the dense oracle hh_table_oracle, which imports
it when it runs, so an HH table or compare_hh never compiles it.

Cochains are functions on middle words with values in the bimodule, stored
as sparse dicts {(word, module element): coefficient}.  A basis cochain
(w -> m) has degree |m| - sum(|a_i|-1).  Storage stays flat; an operation on
cochains (cup, braces, the action pairing, B_dual, the precomposition of
functoriality.InducedHH) reads them as an Op, a function of the word that
knows the word lengths it can be nonzero on, and to_cochain flattens an Op
back to a dict.  Only cochain_op and the AW transport regroup a cochain with
index_cochain.

Perversities enter only through slot bases: a word is admissible at r when
label(w) + r stays under the top (past it lies the degenerate zero slot) and
the module element is present at label(w) + r; middle_words holds the label
and suspended degree of each word.  The differentials themselves are
label-blind, so the image of each basis element is computed once per complex
and every slot matrix cuts it to the admissible target pairs.  D* is pushed
forward from one basis cochain (w -> m) onto the cofaces of w, the words
that have w as a face, found once per word of a complex: cochain_D_image is
the one D* formula, the flat image of one pair, which D_key returns, and
apply_cochain_D is its linear extension, with an unspecified term order.
An HH dimension table is read from the ranks of the slot matrices alone, by
clearing: a column that the previous degree shows dependent is never
assembled.
"""

import itertools

from .linalg import SlotComplex, vec_iadd, vec_scale, linear


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
# two-sided bar words


def bar_degree(A, word):
    "degree |a| + |b| + sum(|a_i| - 1) of the bar word a[a_1|...|a_k]b"
    a, w, b = word
    return A.deg(a) + A.deg(b) + word_sdeg(A, w)


def bar_ok(A, word):
    "the bar word a[w]b is normalized and its label sum stays under the top"
    a, w, b = word
    return A.unit not in w and A.sum_labels_ok(
        A.lam(a), *[A.lam(x) for x in w], A.lam(b))


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


class CofaceTable(dict):
    """{v: the word side of the cochain differential D* at v} on a set of
    normalized words, built on first read: (v is in the set, its inner and
    outer faces in the set, in the order D* visits them, sdeg(v)).  An inner
    face is (word, c, e) for c y in d(x) or in a.b at v[i] = y, e the
    suspended degree of v[:i], plus |a| for a product; an outer face is
    (word, a, whether a is on the left).  A word with a unit letter has no
    face in the set, since letter_preimages leaves out the unit"""

    def __init__(self, A, words):
        self.A, self.words = A, words
        # the letters of the outer faces; a word of the longest length in
        # the set has none there
        self.letters = A.nonunit()
        self.longest = max(map(len, words), default=0)

    def __missing__(self, v):
        A, words = self.A, self.words
        eps = word_eps(A, v)
        inner = [(w, cy, eps[i] + (A.deg(xs[0]) if len(xs) == 2 else 0))
                 for i, y in enumerate(v)
                 for xs, cy in A.letter_preimages.get(y, ())
                 if (w := v[:i] + xs + v[i + 1:]) in words]
        outer = [(w, a, left) for a in self.letters
                 for left, w in ((True, (a,) + v), (False, v + (a,)))
                 if w in words] if len(v) < self.longest else []
        self[v] = entry = (v in words, inner, outer, eps[-1])
        return entry


def cochain_D_image(A, M, p, fdeg, coface):
    """D* of the basis cochain p = (v -> m) of degree fdeg: its flat image
    {(w, m'): c'} on the words of the CofaceTable coface.  The one D*
    formula: with e the suspended degree of v[:i] and v[i] = y,
      d_M(m) lands on v, with sign +1;
      y in d(x) lands on v[:i] + (x,) + v[i+1:], with (-1)^(e + fdeg);
      y in a.b lands on v[:i] + (a, b) + v[i+1:], with (-1)^(e + |a| + fdeg);
      a.m lands on (a,) + v, with (-1)^((|a| + 1) fdeg + 1);
      m.a lands on v + (a,), with (-1)^(sdeg(v) + fdeg).
    coface[v] holds the word side, so only fdeg and m are the pair's own"""
    F, (v, m) = A.field, p
    carried, inner, outer, eps = coface[v]
    out = {}
    if carried and (dm := M.d(m)):
        vec_iadd(F, out, {(v, y): cy for y, cy in dm.items()})
    for w, cy, e in inner:
        vec_iadd(F, out, {(w, m): cy}, F.sign(e + fdeg))
    for w, a, left in outer:
        vec = M.act_left(a, m) if left else M.act_right(m, a)
        if vec:
            s = (A.deg(a) + 1) * fdeg + 1 if left else eps + fdeg
            vec_iadd(F, out, {(w, y): cy for y, cy in vec.items()},
                     F.sign(s))
    return out


def apply_cochain_D(A, M, f, fdeg, coface):
    """the printed cochain differential D* = d0 + d1 of f = {(w, m): c}, in
    the same shape: the linear extension of cochain_D_image.  The order of
    its terms is unspecified"""
    return linear(A.field, lambda p: cochain_D_image(A, M, p, fdeg, coface),
                  f)


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
        self.coface = CofaceTable(A, self.mids)
        # {q: [((w, m), label of w), ...]}: the pairs of degree q, ordered
        # by w, then m, and {q: their distinct word labels}
        self.graded = {}
        for w, (d, lw) in self.mids.items():
            for m in M.names:
                self.graded.setdefault(M.degree[m] - d, []).append(
                    ((w, m), lw))
        self.labels = {q: {lw for _, lw in ps}
                       for q, ps in self.graded.items()}

    def degree(self, p):
        w, m = p
        return self.M.degree[m] - self.mids[w][0]

    def window_exact(self, lo):
        "truncation is lossless in every degree from lo up"
        nz = [self.A.deg(x) for x in self.A.nonunit()]
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
        """the admissible pairs (w, m) of degree q at r, ordered by w, then
        m; one oplus and one presence set per distinct word label"""
        P, M = self.A.poset, self.M
        # word label -> the names present at it plus r
        at = {lw: () if (lab := P.oplus(lw, r)) is None else M.present_at(lab)
              for lw in self.labels.get(q, ())}
        return [p for p, lw in self.graded.get(q, ()) if p[1] in at[lw]]

    def D_key(self, p):
        """D* of the basis cochain p = (w, m): its one term pushed forward
        onto the cofaces of w that this complex carries, every pair of them
        one degree up; a slot matrix keeps the pairs admissible at its r"""
        return cochain_D_image(self.A, self.M, p, self.degree(p),
                               self.coface)

    def _coordinates(self, r, q, vec):
        """as SlotComplex's, but a term on a word whose label plus r is past
        the top lies in the degenerate zero slot and is dropped"""
        P = self.A.poset
        return super()._coordinates(r, q, {
            (w, m): c for (w, m), c in vec.items()
            if w not in self.mids or P.oplus(self.mids[w][1], r) is not None})

    # defined here, not inherited, so that perfbench's trace can wrap it
    def matrix(self, r, q, cleared=()):
        """slot matrix of D* from (r, q) to (r, q+1): the image of each
        source pair outside `cleared`, computed once, truncated to the
        admissible target pairs"""
        return super().matrix(r, q, cleared)

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
    from .suite import Bar
    F = A.field
    bar = Bar(A, L)
    bar_d = {}  # {w: the bar differential of 1[w]1}, for this call only

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
            if w not in bar_d:
                bar_d[w] = bar.D_word((A.unit, w, A.unit))
            v = vec_scale(F, F.sign(q + 1), phi_of(values, q, bar_d[w]))
            if w == w0:
                vec_iadd(F, v, M.d_vec({m0: F.one}))
            out.update({(w, m): c for m, c in v.items()})
        return out

    class BarDual(Cochains):
        def D_key(self, p):
            q = self.degree(p)
            return dphi(*p, q, sorted({w for (w, _), _ in self.graded.get(
                q + 1, ())}, key=repr))

    return BarDual(A, M, L).table(lo, hi)
