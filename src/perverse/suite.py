"""The identity suite of verify_calculus and the chain side it reads.

The truncated two-sided bar complex Bar: Bar.D_word is the one place the
d0/d1 formulas of the bar differential are written; the Hochschild chains
read it through their pairing with the bar complex, and
hochschild.hh_table_oracle dualizes it.

Hochschild chains m[a_1|...|a_k], m in a bimodule, are M (x)_{A^e} B(A)
through m (x) a[w]b -> (-1)^{|b|(|m| + |a| + sdeg w)} (b.(m.a))[w], the
Koszul sign of moving b around to act on the left; their differential is
d_M plus (-1)^|m| times this pairing applied to D(1[w]1), which gives the
printed cyclic sign (-1)^{eps_k |s(a_k)|} of the last term.  On chains: the
contraction i_f, the Lie operator L_f and Connes' boundary B.  On cochains,
beside the operations of structure: the multiplication and differential
symbols m and d_A of degree 2 (not cochains), the composition f o g = f{g},
and the cochain differential read as [d_A, f] + [m, f].

The suite is one table of rows (name, sampler, check, witness) per block.
structure.verify_calculus imports this module when it runs, and so do the
CLI's suite commands; no library module imports it at module level, so an
HH table or compare_hh never compiles it.
"""

import random

from .linalg import SlotComplex, vec_iadd, vec_scale, signed_sum
from .poset import leq
from .algebra import algebra_as_bimodule
from .hochschild import (word_eps, middle_words, bar_ok, apply_cochain_D,
                         Cochains, Op, cochain_op, to_cochain)
from .structure import brace, op_combine, cup_op, bracket_op, bdual_op


# ---------------------------------------------------------------------------
# two-sided bar complex


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
        self.bar = Bar(A, 0)
        # {q: [((m, w), label of the pair)]}, ordered by w, then m
        self.graded = {}
        for w, (d, lw) in self.mids.items():
            for m in M.names:
                lab = A.poset.oplus(lw, M.plabel[m])
                if lab is not None:
                    self.graded.setdefault(M.degree[m] + d, []).append(
                        ((m, w), lab))

    def degree(self, key):
        m, w = key
        return self.M.degree[m] + self.mids[w][0]

    def slot_basis(self, r, q):
        return [key for key, lab in self.graded.get(q, ()) if leq(lab, r)]

    def push(self, out, m, w, coeff):
        "add coeff * (m, w) into out when the pair is in the complex"
        if w in self.mids and self.A.poset.oplus(
                self.mids[w][1], self.M.plabel[m]) is not None:
            vec_iadd(self.A.field, out, {(m, w): coeff})

    def D_key(self, key):
        """d_M(m)[w], then (-1)^|m| times the bar differential of 1[w]1
        read through the pairing of M with B(A) over A^e"""
        A, M, F = self.A, self.M, self.A.field
        m, w = key
        dm = M.degree[m]
        out = {}
        for y, c in M.d(m).items():
            self.push(out, y, w, c)
        for (a, v, b), c in self.bar.D_word((A.unit, w, A.unit)).items():
            s = F.mul(c, F.sign(dm + A.deg(b) * (
                dm + A.deg(a) + self.mids[v][0])))
            for y, cy in M.act_left_vec({b: F.one},
                                        M.act_right(m, a)).items():
                self.push(out, y, v, F.mul(s, cy))
        return out

    def margin(self, r, q):
        "length headroom of the slot below the truncation bound"
        pr = self.basis(r, q)
        if not pr:
            return self.L
        return self.L - max(len(w) for (_, w) in pr)


# ---------------------------------------------------------------------------
# operations on middle words


def mult_op(A):
    "m([a1|a2]) = (-1)^{|a1|} a1 a2, zero in other lengths; degree 2"
    F = A.field

    def fn(w):
        if len(w) != 2:
            return {}
        return vec_scale(F, F.sign(A.deg(w[0])), A.mul(w[0], w[1]))

    return Op(A, 2, fn, {2})


def diff_op(A):
    "d_A([a1]) = d(a1), zero in other lengths; degree 2"
    return Op(A, 2, lambda w: A.d(w[0]) if len(w) == 1 else {}, {1})


def circle(f, g):
    "f o g = f{g}"
    return brace(f, [g])


def cochain_D_op(f):
    "the cochain differential as [d_A, f] + [m, f]"
    A = f.A
    dA, m = diff_op(A), mult_op(A)
    return op_combine(A, f.deg + 1,
                      [(0, brace(dA, [f])), (f.deg, brace(f, [dA])),
                       (0, brace(m, [f])), (f.deg, brace(f, [m]))])


# ---------------------------------------------------------------------------
# operators on Hochschild chains (coefficients in A itself)


def iota(ch, op, x):
    """i_f(a0[a_1..a_m]) = sum_{k=0}^m (-1)^{|a0||f|} (a0 f[a_1..a_k])
    [a_{k+1}..a_m]; the k = 0 term makes i of the unit cochain the identity"""
    A = ch.A
    F = A.field
    out = {}
    for (m0, w), c in x.items():
        s = F.sign(A.deg(m0) * op.deg)
        for k in range(len(w) + 1):
            if k not in op.lengths:
                continue
            fv = op(w[:k])
            if not fv:
                continue
            head = A.mul_vec({m0: F.one}, fv)
            for y, cy in head.items():
                ch.push(out, y, w[k:], F.mul(F.mul(c, s), cy))
    return out


def lie(ch, op, x):
    """the Lie operator L_f, realized as the Cartan commutator
    B o i_f - (-1)^{|f|} i_f o B.  This makes the third calculus axiom exact
    at chain level, and the module property of i (i_f i_g = i_{f cup g} on
    homology) then forces the other two axioms on homology.  An explicit
    insertion-plus-wraparound sum for L_f cannot satisfy the axiom for
    length-0 cochains, see the contraction counterexample in the tests."""
    F = ch.A.field
    return signed_sum(F, [(0, connes_B(ch, iota(ch, op, x))),
                          (op.deg + 1, iota(ch, op, connes_B(ch, x)))])


def connes_B(ch, x):
    """B(a0[a_1..a_m]) = sum_i +- 1[a_i..a_m|a0|a_1..a_{i-1}]; terms where
    the rotated word contains the unit are normalized away"""
    A = ch.A
    F = A.field
    out = {}
    for (a0, w), c in x.items():
        if len(w) + 1 > ch.L:
            raise OverflowError("B exceeds max length %d" % ch.L)
        entries = (a0,) + w
        eps = word_eps(A, entries)
        for i in range(len(w) + 1):
            s = F.sign(eps[i] * (eps[-1] - eps[i]))
            ch.push(out, A.unit, entries[i:] + entries[:i], F.mul(c, s))
    return out


# ---------------------------------------------------------------------------
# the identity suite


def random_cochain(A, mids, q, rng):
    """random degree-q cochain on the words of mids, {w: (suspended degree,
    label)} as middle_words gives it, each term drawn with probability 1/2"""
    F = A.field
    out = {}
    for w, (d, _) in mids.items():
        deg = q + d
        for x in A.names:
            if A.deg(x) != deg:
                continue
            if rng.random() < 0.5:
                c = F.of(rng.choice([1, -1, 2]))
                if not F.iszero(c):
                    out[(w, x)] = c
    return out


def random_class(field, reps, rng):
    "random combination of homology representatives, None when empty"
    if not reps:
        return None
    out = {}
    for rep in reps:
        c = rng.choice([0, 1, -1, 2])
        if c:
            vec_iadd(field, out, rep, field.of(c))
    return out if out else dict(reps[0])


class Suite:
    """the state the identity rows of one verify_calculus call share.  Its
    samplers all draw from one seeded rng, in table order, including draws
    a check never reads.  A cocycle is drawn as (z, q, r): a combination z
    of the degree-q representatives at slot r.  Samplers leave out the
    trials whose slot sum does not exist, and checks build their own Ops,
    so a trial left out costs no cochain work.  A bv given for (A, L) lends
    the suite its cochain complex cx"""

    def __init__(self, A, L, lo, hi, trials, seed, bv=None):
        self.A, self.F, self.P = A, A.field, A.poset
        self.L, self.lo, self.hi, self.trials = L, lo, hi, trials
        self.rng = random.Random(seed)
        self.cx = (Cochains(A, algebra_as_bimodule(A), L) if bv is None
                   else bv.cx)
        self.M, self.words = self.cx.M, self.cx.words
        self.cs = Chains(A, self.M, L)
        self.bv = self.cxm = None

    def ops(self, cochains):
        "the Ops of (cochain, degree, ...) tuples"
        return [cochain_op(self.A, c[0], c[1]) for c in cochains]

    def co(self, op):
        return to_cochain(op, self.words)

    # samplers

    def random_cochains(self, k):
        """k random (cochain, degree) pairs per trial: the first two
        degrees, then their cochains, then degree and cochain of each
        further one, which gets degree 0 when drawn empty"""
        rng, lo, hi = self.rng, self.lo, self.hi
        for t in range(self.trials):
            qs = [rng.randint(lo, hi), rng.randint(lo, hi)]
            out = [(random_cochain(self.A, self.cx.mids, q, rng), q)
                   for q in qs]
            for _ in range(k - 2):
                q = rng.randint(lo, hi)
                f = random_cochain(self.A, self.cx.mids, q, rng)
                out.append((f, q if f else 0))
            yield t, out

    def cocycle(self, r, q, cx):
        return random_class(self.F, cx.representatives(r, q), self.rng)

    def cocycle_triples(self):
        """three cocycles per trial, an empty slot ending its draws, with
        the slot (rf + rg) + rh"""
        rng, P = self.rng, self.P
        for t in range(self.trials):
            picks = []
            for _ in range(3):
                r, q = rng.choice(P.elements), rng.randint(self.lo, self.hi)
                z = self.cocycle(r, q, self.cx)
                if z is None:
                    break
                picks.append((z, q, r))
            if len(picks) < 3:
                continue
            rr = P.oplus_all(p[2] for p in picks)
            if rr is not None:
                yield t, (picks, rr)

    def cocycle_pair(self):
        """two cocycles with the slot rf + rg, or None when a slot is empty
        or the sum exceeds the top perversity"""
        rng, P = self.rng, self.P
        rf, rg = rng.choice(P.elements), rng.choice(P.elements)
        qf, qg = rng.randint(self.lo, self.hi), rng.randint(self.lo, self.hi)
        f, g = self.cocycle(rf, qf, self.cx), self.cocycle(rg, qg, self.cx)
        if f is None or g is None:
            return None
        rfg = P.oplus(rf, rg)
        return None if rfg is None else ([(f, qf, rf), (g, qg, rg)], rfg)

    def cocycle_pairs(self):
        for t in range(self.trials):
            pair = self.cocycle_pair()
            if pair is not None:
                yield t, pair

    def classes_and_pairs(self, f_only=False):
        """a chain homology class (r, q, z) with length headroom for B and a
        cocycle pair per trial, with the slot (rf + rg) + r, or rf + r when
        the identity reads f only"""
        rng = self.rng
        for t in range(self.trials):
            r, q = rng.choice(self.P.elements), rng.randint(self.lo, self.hi)
            if self.cs.margin(r, q) < 1:
                continue
            z = self.cocycle(r, q, self.cs)
            pair = None if z is None else self.cocycle_pair()
            if pair is None:
                continue
            picks, rfg = pair
            rr = self.P.oplus(picks[0][2] if f_only else rfg, r)
            if rr is not None:
                yield t, ((r, q, z), picks, rr)

    # checks: each identity is one list of (sign parity, term) pairs whose
    # signed sum must vanish, at chain level or up to a coboundary

    def differential(self, fs):
        (f, qf), _ = fs
        return not signed_sum(self.F, [
            (0, apply_cochain_D(self.A, self.M, f, qf, self.cx.coface)),
            (1, self.co(cochain_D_op(cochain_op(self.A, f, qf))))])

    def cup_is_brace(self, fs):
        qf = fs[0][1]
        fop, gop = self.ops(fs)
        return not signed_sum(self.F, [
            (0, self.co(cup_op(fop, gop))),
            (qf + 1, self.co(brace(mult_op(self.A), [fop, gop])))])

    def skew(self, fs):
        (_, qf), (_, qg) = fs
        fop, gop = self.ops(fs)
        return not signed_sum(self.F, [
            (0, self.co(bracket_op(fop, gop))),
            ((qf - 1) * (qg - 1), self.co(bracket_op(gop, fop)))])

    def defect(self, fs):
        # Gerstenhaber's homotopy for f cup g - +-g cup f, in the suite's
        # conventions: D x = mu{x} + (-1)^q x{mu} with mu = m + d_A (the
        # differential row), f cup g = (-1)^qf m{f, g} (the cup row) and
        # the pre-Lie identity x{y}{z} = x{y, z} + (-1)^((qy-1)(qz-1))
        # x{z, y} + x{y{z}} (the pre-Jacobi rows).  Expanding gives
        # D(f o g) - (Df) o g + (-1)^qf f o (Dg)
        #   = -(mu{f, g} + (-1)^((qf-1)(qg-1)) mu{g, f}),
        # and mu{f, g} = m{f, g}, as d_A has length 1.  So the terms are
        # (0, D(f o g)), (1, (Df) o g), (qf, f o Dg), (qf, f cup g) and
        # (qf qg + qf + 1, g cup f).  (Df) o g reads Df on words of length
        # L + 1 when g has a term on the empty word, and past the top label
        # when g's value has a larger label than the letters it replaces,
        # so Df is evaluated as an Op, not read from a stored cochain
        A, M, coface = self.A, self.M, self.cx.coface
        (_, qf), (g, qg) = fs
        fop, gop = self.ops(fs)
        fg = self.co(circle(fop, gop))
        dg = apply_cochain_D(A, M, g, qg, coface)
        return not signed_sum(self.F, [
            (0, apply_cochain_D(A, M, fg, qf + qg - 1, coface)),
            (1, self.co(circle(cochain_D_op(fop), gop))),
            (qf, self.co(circle(fop, cochain_op(A, dg, qg + 1)))),
            (qf, self.co(cup_op(fop, gop))),
            (qf * qg + qf + 1, self.co(cup_op(gop, fop)))])

    def pre_jacobi(self, fs, k):
        "phi{f}{g,h} (k = 1) or phi{f,g}{h} (k = 2) as one-level braces"
        (_, qf), (_, qg), (_, qh), _ = fs
        fop, gop, hop, pop = self.ops(fs)
        if k == 1:
            fg = 1 + (qf - 1) * (qg - 1)
            terms = [
                (0, brace(brace(pop, [fop]), [gop, hop])),
                (1, brace(pop, [fop, gop, hop])),
                (1, brace(pop, [brace(fop, [gop]), hop])),
                (1, brace(pop, [brace(fop, [gop, hop])])),
                (fg, brace(pop, [gop, fop, hop])),
                (fg, brace(pop, [gop, brace(fop, [hop])])),
                (1 + (qf - 1) * (qg + qh), brace(pop, [gop, hop, fop])),
            ]
        else:
            gh = 1 + (qg - 1) * (qh - 1)
            terms = [
                (0, brace(brace(pop, [fop, gop]), [hop])),
                (1, brace(pop, [fop, gop, hop])),
                (1, brace(pop, [fop, brace(gop, [hop])])),
                (gh, brace(pop, [fop, hop, gop])),
                (gh, brace(pop, [brace(fop, [hop]), gop])),
                (1 + (qf + qg) * (qh - 1), brace(pop, [hop, fop, gop])),
            ]
        return not signed_sum(self.F, [(p, self.co(op)) for p, op in terms])

    def jacobi(self, d):
        picks, rr = d
        (_, qf, _), (_, qg, _), (_, qh, _) = picks
        fop, gop, hop = self.ops(picks)
        return self.cx.is_boundary(rr, qf + qg + qh - 2, signed_sum(self.F, [
            (0, self.co(bracket_op(bracket_op(fop, gop), hop))),
            (1, self.co(bracket_op(fop, bracket_op(gop, hop)))),
            ((qf - 1) * (qg - 1),
             self.co(bracket_op(gop, bracket_op(fop, hop))))]))

    def leibniz(self, d):
        picks, rr = d
        (_, qf, _), (_, qg, _), (_, qh, _) = picks
        fop, gop, hop = self.ops(picks)
        return self.cx.is_boundary(rr, qf + qg + qh - 1, signed_sum(self.F, [
            (0, self.co(bracket_op(fop, cup_op(gop, hop)))),
            (1, self.co(cup_op(bracket_op(fop, gop), hop))),
            (1 + (qf - 1) * qg, self.co(cup_op(gop, bracket_op(fop, hop))))]))

    def calculus_bracket(self, d):
        (_, q, z), picks, rr = d
        ch, ((_, qf, _), (_, qg, _)) = self.cs, picks
        fop, gop = self.ops(picks)
        br = cochain_op(self.A, self.co(bracket_op(fop, gop)), qf + qg - 1)
        # the interior-product exponent sits on the L_f i_g term here; the
        # identity suite is the arbiter of that placement
        return ch.is_boundary(rr, q + qf + qg - 1, signed_sum(self.F, [
            (0, iota(ch, br, z)),
            (1 + qg * (qf + 1), lie(ch, fop, iota(ch, gop, z))),
            (0, iota(ch, gop, lie(ch, fop, z)))]))

    def calculus_cup(self, d):
        (_, q, z), picks, rr = d
        ch, ((_, qf, _), (_, qg, _)) = self.cs, picks
        fop, gop = self.ops(picks)
        fg = cochain_op(self.A, self.co(cup_op(fop, gop)), qf + qg)
        return ch.is_boundary(rr, q + qf + qg - 1, signed_sum(self.F, [
            (0, lie(ch, fg, z)),
            (1, lie(ch, fop, iota(ch, gop, z))),
            (1 + qf, iota(ch, fop, lie(ch, gop, z)))]))

    def calculus_lie(self, d):
        (_, q, z), ((f, qf, _), _), rr = d
        ch, fop = self.cs, cochain_op(self.A, f, qf)
        return ch.is_boundary(rr, q + qf - 1, signed_sum(self.F, [
            (0, lie(ch, fop, z)),
            (1, connes_B(ch, iota(ch, fop, z))),
            (qf, iota(ch, fop, connes_B(ch, z)))]))

    def ginzburg(self, d):
        (_, q, z), picks, rr = d
        ch, ((_, qf, _), (_, qg, _)) = self.cs, picks
        fop, gop = self.ops(picks)
        br = cochain_op(self.A, self.co(bracket_op(fop, gop)), qf + qg - 1)
        fg = cochain_op(self.A, self.co(cup_op(fop, gop)), qf + qg)
        # the identity holds with the four B-terms carrying the same
        # leading minus the dual-side cyclic operator does
        return ch.is_boundary(rr, q + qf + qg - 1, signed_sum(self.F, [
            (0, iota(ch, br, z)),
            (qf, connes_B(ch, iota(ch, fg, z))),
            (1, iota(ch, fop, connes_B(ch, iota(ch, gop, z)))),
            ((qf - 1) * (qg - 1),
             iota(ch, gop, connes_B(ch, iota(ch, fop, z)))),
            (qg, iota(ch, fg, connes_B(ch, z)))]))

    def delta_squared(self, slot):
        try:
            m1 = self.bv.matrix(*slot)
            m2 = self.bv.matrix(slot[0], slot[1] - 1)
        except LookupError:
            return None
        if m1.ncols == 0 or m2.nrows == 0:
            return None
        return m2.mul(m1).is_zero()

    def bv_seven_term(self, d):
        ((f, qf, rf), (g, qg, rg)), rr = d
        A, bv = self.A, self.bv
        fop, gop = self.ops(d[0])
        try:
            dfg, _ = bv.delta(rr, qf + qg, self.co(cup_op(fop, gop)))
            df, _ = bv.delta(rf, qf, f)
            dg, _ = bv.delta(rg, qg, g)
        except LookupError:
            return None
        return self.cxm.is_boundary(rr, qf + qg - 1, self.cxm.restrict(
            signed_sum(self.F, [
                (qf, self.co(bracket_op(fop, gop))),
                (1, dfg),
                (0, self.co(cup_op(cochain_op(A, df, qf - 1), gop))),
                (qf, self.co(cup_op(fop, cochain_op(A, dg, qg - 1))))])))

    def menichi(self, d):
        ((f, qf, _), (g, qg, _)), rr = d
        # phantom classes whose representatives need the full word length
        # are truncation artifacts; the cyclic comparison needs headroom
        if max((len(w) for w, _ in [*f, *g]), default=0) > self.L - 3:
            return None
        A, bv = self.A, self.bv
        act, cdeg, cwords = bv.D.act_left_vec, bv.c.deg, bv.cdm.words
        fop, gop = self.ops(d[0])
        fug = self.co(cup_op(fop, gop))
        terms = [
            (0, bv.act_c(self.co(bracket_op(fop, gop)), qf + qg - 1)),
            (qf + 1, bv.bdual_act(fug, qf + qg)),
            (0, cup_op(fop, bv.bdual_act(g, qg), act)),
            (1 + (qf - 1) * (qg - 1), cup_op(gop, bv.bdual_act(f, qf), act)),
            (qg + 1, cup_op(cochain_op(A, fug, qf + qg), bdual_op(bv.c), act))]
        return bv.cdm.is_boundary(rr, qf + qg - 1 + cdeg, signed_sum(
            self.F, [(p, to_cochain(op, cwords)) for p, op in terms]))


def _degrees(cochains):
    return {"degrees": tuple(c[1] for c in cochains)}


def _cocycles_witness(d):
    return {"slots": tuple(p[2] for p in d[0]), **_degrees(d[0])}


def _class_witness(d):
    return {"slot": d[0][:2], **_degrees(d[1])}


# the identities verify_calculus runs, in order: (name, sampler, check,
# witness), the sampler and check taking the Suite; the registry tuples
# below are read off these rows, the one place a name is written
GERSTENHABER = (
    ("differential equals [d_A,f]+[m,f]", lambda s: s.random_cochains(2),
     Suite.differential, lambda fs: {"q": fs[0][1]}),
    ("cup equals signed m{f,g}", lambda s: s.random_cochains(2),
     Suite.cup_is_brace, _degrees),
    ("bracket skew-commutativity", lambda s: s.random_cochains(2),
     Suite.skew, _degrees),
    ("commutativity defect coboundary", lambda s: s.random_cochains(2),
     Suite.defect, _degrees),
    # witness degrees (phi, f, g, h); phi is drawn last
    ("pre-Jacobi k=1 l=2", lambda s: s.random_cochains(4),
     lambda s, fs: s.pre_jacobi(fs, 1), lambda fs: _degrees(fs[3:] + fs[:3])),
    ("pre-Jacobi k=2 l=1", lambda s: s.random_cochains(4),
     lambda s, fs: s.pre_jacobi(fs, 2), lambda fs: _degrees(fs[3:] + fs[:3])),
    ("Jacobi on cohomology", Suite.cocycle_triples, Suite.jacobi,
     _cocycles_witness),
    ("Leibniz on cohomology", Suite.cocycle_triples, Suite.leibniz,
     _cocycles_witness),
)
CALCULUS = (
    ("calculus i_[f,g]", Suite.classes_and_pairs, Suite.calculus_bracket,
     _class_witness),
    ("calculus L_{f cup g}", Suite.classes_and_pairs, Suite.calculus_cup,
     _class_witness),
    ("calculus L_f via B", lambda s: s.classes_and_pairs(f_only=True),
     Suite.calculus_lie, lambda d: {"slot": d[0][:2], "degree": d[1][0][1]}),
    ("Ginzburg identity", Suite.classes_and_pairs, Suite.ginzburg,
     _class_witness),
)
BV = (
    # every slot, with the coordinates of B_dual([c]) there
    ("Delta(1) = 0", lambda s: ((None, (r, s.bv.unit_obstruction(r)))
                                for r in s.P.elements),
     lambda s, d: not d[1], lambda d: {"slot": d[0], "coords": d[1]}),
    ("Delta squared = 0", lambda s: ((None, (r, q)) for r in s.P.elements
                                     for q in range(s.lo, s.hi + 1)),
     Suite.delta_squared, lambda slot: {"slot": slot}),
    ("BV seven-term relation", Suite.cocycle_pairs, Suite.bv_seven_term,
     _cocycles_witness),
    ("Menichi identity", Suite.cocycle_pairs, Suite.menichi,
     _cocycles_witness),
)

# the identities verify_calculus reports, by suite
GERSTENHABER_IDS = tuple(row[0] for row in GERSTENHABER)
CALCULUS_IDS = tuple(row[0] for row in CALCULUS)
BV_IDS = ("BV block",) + tuple(row[0] for row in BV)
