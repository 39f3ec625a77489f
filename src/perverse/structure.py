"""Operations on Hochschild (co)chains.

Cochain side, each built as an Op (see hochschild): cup product (with a
module action in place of the product, the action pairing f.g), brace
operator, Gerstenhaber bracket, B_dual, and the interpretation of the
cochain differential as [d_A, f] + [m, f] where m and d_A are the
(non-cochain) multiplication and differential symbols of degree 2.

Chain side: the contraction i_f, the Lie operator L_f, Connes' boundary B and
its dual B_dual acting on cochains with dual coefficients through the pairing
phi(a0[w]) = (-1)^{|a0| (|a| - |a0|)} f(w)(a0).

Duality: for a commutative algebra, search for a homology class of the dual
whose action gives an isomorphism H(A) -> H(DA) per slot, build the duality
cocycle c, and define the BV operator Delta(f) by solving Delta(f).[c] =
B_dual(f.[c]) on cohomology.  verify_calculus runs the whole identity suite
and reports pass/fail with witnesses.
"""

import random

from .linalg import (SparseMatrix, vec_iadd, vec_scale, signed_sum, solver,
                     linear)
from .algebra import (ModuleSlots, algebra_as_bimodule, dual_bimodule,
                      dual_name)
from .hochschild import (word_eps, apply_cochain_D, Chains, Cochains, Op,
                         cochain_op, to_cochain)


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


def brace_value(op0, ops, w):
    """op0{ops}[w]: sum over weakly increasing insertion spans
    0 <= i_1 <= j_1 <= ... <= i_k <= j_k <= len(w), op_t eating w[i_t:j_t],
    with sign sum_t eps_{i_t} (|op_t| - 1), eps_i = sum_{l<=i} |s(a_l)|.
    Inserted values are expanded multilinearly and fed to op0 as literal
    middle entries (unit components included: op0 decides).  Only spans
    with j_t - i_t in ops[t].lengths are visited, and op0 is evaluated only
    on outer words whose length is in op0.lengths, so every skipped term is
    zero"""
    A = op0.A
    F = A.field
    m = len(w)
    k = len(ops)
    if k == 0:
        return dict(op0(w))
    eps = word_eps(A, w)
    lengths = [sorted(o.lengths) for o in ops]
    out = {}

    # ops[:t] placed, eating used letters of w[:start]; partial expands
    # their values into (outer word up to start, coefficient) terms
    def rec(t, start, used, parity, partial):
        if t == k:
            if m - used + k not in op0.lengths:
                return
            s = F.sign(parity)
            for pw, pc in partial:
                v0 = op0(pw + w[start:])
                if v0:
                    vec_iadd(F, out, v0, F.mul(s, pc))
            return
        for i in range(start, m + 1):
            seg = w[start:i]
            for l in lengths[t]:
                j = i + l
                if j > m:
                    break
                v = ops[t](w[i:j])
                if not v:
                    continue
                nxt = [(pw + seg + (x,), F.mul(pc, cx))
                       for pw, pc in partial for x, cx in v.items()]
                rec(t + 1, j, used + l, parity + eps[i] * (ops[t].deg - 1),
                    nxt)

    rec(0, 0, 0, 0, [((), F.one)])
    return out


def brace(op0, ops):
    """op0{ops}: nonzero on m = n - k + sum_t l_t letters, for n in
    op0.lengths with n >= k (the outer word holds the k inserted values)
    and l_t in ops[t].lengths"""
    deg = op0.deg + sum(o.deg - 1 for o in ops)
    eaten = {0}
    for o in ops:
        eaten = {e + l for e in eaten for l in o.lengths}
    k = len(ops)
    lengths = {n - k + e for n in op0.lengths if n >= k for e in eaten}
    return Op(op0.A, deg, lambda w: brace_value(op0, ops, w), lengths)


def circle(f, g):
    "f o g = f{g}"
    return brace(f, [g])


def op_combine(A, deg, terms):
    "linear combination of (sign parity, Op) pairs, all of the same degree"
    return Op(A, deg, lambda w: signed_sum(A.field, [(p, op(w))
                                                     for p, op in terms]),
              set().union(*(op.lengths for _, op in terms)))


def cup_op(f, g, act=None):
    """f cup g [a_1..a_k] = sum_{i=0}^k (-1)^{|g| eps_i}
    f[a_1..a_i] g[a_{i+1}..a_k]; the split range includes the empty prefix
    and suffix so that the unit cochain is a strict unit and the brace
    cross-check f cup g = (-1)^{|f|} m{f,g} holds on the nose.  act
    multiplies the two values, A's product by default; a bimodule's left
    action D.act_left_vec makes it the action f.g of a cochain over (A, A)
    on a cochain g over (A, D)"""
    A = f.A
    F = A.field
    if act is None:
        act = A.mul_vec

    def fn(w):
        out, eps = {}, word_eps(A, w)
        for i in range(len(w) + 1):
            if i not in f.lengths or len(w) - i not in g.lengths:
                continue
            fv = f(w[:i])
            if not fv:
                continue
            gv = g(w[i:])
            if not gv:
                continue
            vec_iadd(F, out, act(fv, gv), F.sign(g.deg * eps[i]))
        return out

    return Op(A, f.deg + g.deg, fn,
              {a + b for a in f.lengths for b in g.lengths})


def bracket_op(f, g):
    "[f, g] = f{g} - (-1)^{(|f|-1)(|g|-1)} g{f}"
    return op_combine(f.A, f.deg + g.deg - 1,
                      [(0, brace(f, [g])),
                       (1 + (f.deg - 1) * (g.deg - 1), brace(g, [f]))])


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
# dual coefficients: the pairing with chains and the dual of Connes' B


def bdual_op(f):
    """B_dual of an Op f with dual coefficients: through the pairing,
    (B_dual phi)(x) = -(-1)^{|phi|} phi(B x), i.e. a signed cyclic sum of
    values at the unit dual element.  The leading sign matches the one the
    pairing puts on the cochain differential, which is what makes the
    cyclic identities come out with their stated signs.  Every cyclic word
    b.w has length len(w) + 1, so the lengths are one below f's"""
    A = f.A
    F = A.field
    ustar = dual_name(A.unit)

    def fn(w):
        out = {}
        for b in A.names:
            entries = (b,) + w
            # every rotation holds the letters of entries
            if A.unit in entries:
                continue
            eps = word_eps(A, entries)
            total = F.zero
            for i in range(len(w) + 1):
                coef = f(entries[i:] + entries[:i]).get(ustar, F.zero)
                if F.iszero(coef):
                    continue
                s = F.sign(eps[i] * (eps[-1] - eps[i]))
                total = F.add(total, F.mul(s, coef))
            if F.iszero(total):
                continue
            s = F.sign(f.deg + 1 + A.deg(b) * (eps[-1] - eps[1]))
            out[dual_name(b)] = F.mul(s, total)
        return out

    return Op(A, f.deg - 1, fn, {n - 1 for n in f.lengths if n >= 1})


# ---------------------------------------------------------------------------
# duality data and the BV operator


def find_duality_class(A, n=None):
    """search the homology of DA for a cycle whose left action gives a graded
    isomorphism H(A) -> H(DA) on every perversity slot; returns (n, cycle)
    for the first certified candidate in the deterministic basis order"""
    if not A.is_commutative():
        raise ValueError("unsupported: non-commutative duality lift")
    P = A.poset
    D = dual_bimodule(A)
    ma, md = ModuleSlots(algebra_as_bimodule(A)), ModuleSlots(D)
    adegs = sorted(A.degrees())

    def isomorphic(nc, Mv):
        "whether the left action of Mv is an isomorphism on every slot"
        for r in P.elements:
            for k in adegs:
                Hd = md.homology(r, k - nc)
                if ma.homology(r, k).dim != Hd.dim:
                    return False
                try:
                    mat = md.class_matrix(r, k - nc, [
                        D.act_left_vec(a, Mv)
                        for a in ma.representatives(r, k)])
                except ValueError:
                    return False
                if mat.rank() != Hd.dim:
                    return False
        return True

    for nc in ([n] if n is not None else sorted(
            {-k for k in md.degrees()})):
        # global candidates live in the zero-perversity slot, where every
        # dual element is present
        for Mv in md.representatives(P.zero, -nc):
            if isomorphic(nc, Mv):
                return nc, Mv
    raise LookupError("not a detected pDPDA")


class BVOperator:
    """Delta on HH representatives: Delta(f).[c] = B_dual(f.[c]) solved per
    slot against the action images of the lower-degree representative basis.
    cx is the algebra-coefficient Cochains of A at length L, built by the
    caller and shared with it; A and L are read from it"""

    def __init__(self, cx, n=None):
        A, L = cx.A, cx.L
        self.A, self.cx = A, cx
        self.n, self.cycle = find_duality_class(A, n)
        self.D = dual_bimodule(A)
        if L < 2:
            raise ValueError("need word length at least 2 for the cyclic "
                             "operator")
        # the cyclic operator on dual cochains reads one word length above
        # its output, so every class comparison that involves it happens in
        # a complex truncated one length lower (restriction is a chain map)
        self.cdm = Cochains(A, self.D, L - 1)
        self.c = cochain_op(A, {((), bs): c for bs, c in self.cycle.items()},
                            -self.n)
        # Delta at (r, q) reads its slot only through the homologies of
        # HH^{q-1} (HH^q too for the matrix) and of the dual slot it lands
        # in, one object for all slots with the same bases.  Keyed by them:
        # the HH^{q-1} representatives with the solver of their action
        # images (None if the images are dependent), and the matrices
        self._solvers, self._matrices = {}, {}

    def act_c(self, f, fdeg):
        "the Op f.[c] in HC(A, DA) of the degree-fdeg cochain f"
        return cup_op(cochain_op(self.A, f, fdeg), self.c, self.D.act_left_vec)

    def bdual_act(self, f, fdeg):
        """the Op B_dual(f.[c]); f.[c] is evaluated once on every word of cx,
        which B_dual reads on all words of cdm"""
        fc = to_cochain(self.act_c(f, fdeg), self.cx.words)
        return bdual_op(cochain_op(self.A, fc, fdeg + self.c.deg))

    def unit_obstruction(self, r):
        "coordinates of B_dual([c]); Delta(1) = 0 iff this is a boundary"
        bv = to_cochain(bdual_op(self.c), self.cdm.words)
        return self.cdm.coords_of(r, self.c.deg - 1, bv)

    def delta(self, r, q, f):
        """Delta of the cocycle f at slot (r, q): returns (cochain, coords)
        with coords in the HH^{q-1} representative basis"""
        F, cdm, qc = self.A.field, self.cdm, q - 1 + self.c.deg
        bv = to_cochain(self.bdual_act(f, q), cdm.words)
        target = cdm.coords_of(r, qc, bv)
        key = self.cx.homology(r, q - 1), cdm.homology(r, qc)
        if key not in self._solvers:
            reps = self.cx.representatives(r, q - 1)
            rank, solve = solver(cdm.class_matrix(r, qc, [
                to_cochain(self.act_c(g, q - 1), cdm.words) for g in reps]))
            # the certified duality action can only lose injectivity here
            # through word-length truncation
            self._solvers[key] = (reps,
                                  solve if rank == len(reps) else None)
        reps, solve = self._solvers[key]
        x = solve(target) if solve else None
        if x is None:
            raise LookupError("slot outside the stable truncation window")
        return linear(F, reps.__getitem__, x), x

    def matrix(self, r, q):
        """Delta as a matrix HH^q(A)_r -> HH^{q-1}(A)_r, built once for all
        slots with the same bases; callers only read it"""
        upper, lower = self.cx.homology(r, q), self.cx.homology(r, q - 1)
        # the dual slot is read only when HH^q has a representative
        key = (upper, lower,
               upper.dim and self.cdm.homology(r, q - 1 + self.c.deg))
        if key not in self._matrices:
            cols = [self.delta(r, q, f)[1]
                    for f in self.cx.representatives(r, q)]
            self._matrices[key] = SparseMatrix.from_columns(
                self.A.field, lower.dim, cols)
        return self._matrices[key]


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


def record_identity(report, identity, failures, trials, skipped=None):
    """append one identity record: it passes when there are no failures,
    and the first failure is its witness"""
    row = {
        "identity": identity,
        "status": "pass" if not failures else "fail",
        "trials": trials,
        "witness": failures[0] if failures else None,
    }
    if skipped is not None:
        row["skipped"] = skipped
    report.append(row)


def run_identity(report, identity, samples, check, witness):
    """check one identity on every trial of a sampler and record it.
    samples yields (trial or None, data); check(data) is None when the trial
    does not apply, else whether the identity holds; the first failure's
    witness(data) is recorded, led by its trial number when it has one"""
    failures, ran = [], 0
    for t, data in samples:
        ok = check(data)
        if ok is None:
            continue
        ran += 1
        if not ok and not failures:
            w = witness(data)
            failures.append(w if t is None else {"trial": t, **w})
    record_identity(report, identity, failures, ran)


class _Suite:
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
# witness), the sampler and check taking the _Suite; the registry tuples
# below are read off these rows, the one place a name is written
_GERSTENHABER = (
    ("differential equals [d_A,f]+[m,f]", lambda s: s.random_cochains(2),
     _Suite.differential, lambda fs: {"q": fs[0][1]}),
    ("cup equals signed m{f,g}", lambda s: s.random_cochains(2),
     _Suite.cup_is_brace, _degrees),
    ("bracket skew-commutativity", lambda s: s.random_cochains(2),
     _Suite.skew, _degrees),
    ("commutativity defect coboundary", lambda s: s.random_cochains(2),
     _Suite.defect, _degrees),
    # witness degrees (phi, f, g, h); phi is drawn last
    ("pre-Jacobi k=1 l=2", lambda s: s.random_cochains(4),
     lambda s, fs: s.pre_jacobi(fs, 1), lambda fs: _degrees(fs[3:] + fs[:3])),
    ("pre-Jacobi k=2 l=1", lambda s: s.random_cochains(4),
     lambda s, fs: s.pre_jacobi(fs, 2), lambda fs: _degrees(fs[3:] + fs[:3])),
    ("Jacobi on cohomology", _Suite.cocycle_triples, _Suite.jacobi,
     _cocycles_witness),
    ("Leibniz on cohomology", _Suite.cocycle_triples, _Suite.leibniz,
     _cocycles_witness),
)
_CALCULUS = (
    ("calculus i_[f,g]", _Suite.classes_and_pairs, _Suite.calculus_bracket,
     _class_witness),
    ("calculus L_{f cup g}", _Suite.classes_and_pairs, _Suite.calculus_cup,
     _class_witness),
    ("calculus L_f via B", lambda s: s.classes_and_pairs(f_only=True),
     _Suite.calculus_lie, lambda d: {"slot": d[0][:2], "degree": d[1][0][1]}),
    ("Ginzburg identity", _Suite.classes_and_pairs, _Suite.ginzburg,
     _class_witness),
)
_BV = (
    # every slot, with the coordinates of B_dual([c]) there
    ("Delta(1) = 0", lambda s: ((None, (r, s.bv.unit_obstruction(r)))
                                for r in s.P.elements),
     lambda s, d: not d[1], lambda d: {"slot": d[0], "coords": d[1]}),
    ("Delta squared = 0", lambda s: ((None, (r, q)) for r in s.P.elements
                                     for q in range(s.lo, s.hi + 1)),
     _Suite.delta_squared, lambda slot: {"slot": slot}),
    ("BV seven-term relation", _Suite.cocycle_pairs, _Suite.bv_seven_term,
     _cocycles_witness),
    ("Menichi identity", _Suite.cocycle_pairs, _Suite.menichi,
     _cocycles_witness),
)

# the identities verify_calculus reports, by suite
GERSTENHABER_IDS = tuple(row[0] for row in _GERSTENHABER)
CALCULUS_IDS = tuple(row[0] for row in _CALCULUS)
BV_IDS = ("BV block",) + tuple(row[0] for row in _BV)


def verify_calculus(A, L, lo, hi, trials=20, seed=0, ids=None, bv=None):
    """run the identity suite and return a list of records
    {identity, status, trials, witness}.  Chain-level identities are exact;
    cohomology identities are decided by coboundary-membership solves.
    ids, when given, names the identities to check and record; a row it
    leaves out still draws its samples, so the others see the same draws.
    The BV block runs when ids is None or names one of BV_IDS: on bv, a
    BVOperator already built for (A, L), when one is given; else when A is
    commutative with a detected duality class and L is at least 2;
    otherwise its record says why it was skipped."""
    s = _Suite(A, L, lo, hi, trials, seed, bv)
    report = []

    def run(rows):
        for identity, sample, check, witness in rows:
            if ids is None or identity in ids:
                run_identity(report, identity, sample(s),
                             lambda data, check=check: check(s, data),
                             witness)
            else:
                for _ in sample(s):
                    pass

    run(_GERSTENHABER + _CALCULUS)
    if ids is not None and not set(ids) & set(BV_IDS):
        return report
    if bv is None:
        try:
            bv = BVOperator(s.cx)
        except (ValueError, LookupError) as e:
            report.append({"identity": BV_IDS[0], "status": "skipped",
                           "trials": 0, "witness": str(e)})
            return report
    s.bv = bv
    s.cxm = Cochains(A, s.M, L - 1)
    run(_BV)
    return report
