"""Operations on Hochschild (co)chains.

Cochain side: cup product, brace operator, Gerstenhaber bracket, and the
interpretation of the cochain differential as [d_A, f] + [m, f] where m and
d_A are the (non-cochain) multiplication and differential symbols of degree 2.

Chain side: the contraction i_f, the Lie operator L_f, Connes' boundary B and
its dual B_dual acting on cochains with dual coefficients through the pairing
phi(a0[w]) = (-1)^{|a0| (|a| - |a0|)} f(w)(a0).

Duality: for a commutative algebra, search for a homology class of the dual
whose action gives an isomorphism H(A) -> H(DA) per slot, build the duality
cocycle c, and define the BV operator Delta(f) by solving Delta(f).[c] =
B_dual(f.[c]) on cohomology.  verify_calculus runs the whole identity suite
and reports pass/fail with witnesses.
"""

import functools
import random

from .linalg import (SparseMatrix, SlotComplex, vec_add, vec_scale, vec_sub,
                     solve)
from .algebra import (ModuleSlots, algebra_as_bimodule, dual_bimodule,
                      dual_name)
from .hochschild import (sdeg, word_sdeg, middle_words, _sgn, eval_cochain,
                         index_cochain, apply_cochain_D, Chains, Cochains,
                         action_pairing)


def _undual(x):
    if not (isinstance(x, str) and x.endswith("*")):
        raise ValueError("not a dual basis name: %r" % (x,))
    return x[:-1]


# ---------------------------------------------------------------------------
# operations on middle words


class Op:
    """a homogeneous operation: middle word -> vector in A.  Covers honest
    cochains as well as the two distinguished degree-2 symbols (the
    multiplication, concentrated in length 2, and the differential,
    concentrated in length 1)."""

    def __init__(self, A, deg, fn):
        self.A = A
        self.deg = deg
        self.fn = fn

    def __call__(self, w):
        return self.fn(w)


def cochain_op(A, f, fdeg):
    "wrap a sparse cochain {(w, a): c}; zero on words with unit entries"
    fw = index_cochain(A.field, f)
    return Op(A, fdeg, lambda w: dict(eval_cochain(fw, w)))


def mult_op(A):
    "m([a1|a2]) = (-1)^{|a1|} a1 a2, zero in other lengths; degree 2"
    F = A.field

    def fn(w):
        if len(w) != 2:
            return {}
        return vec_scale(F, _sgn(F, A.deg(w[0])), A.mul(w[0], w[1]))

    return Op(A, 2, fn)


def diff_op(A):
    "d_A([a1]) = d(a1), zero in other lengths; degree 2"
    return Op(A, 2, lambda w: A.d(w[0]) if len(w) == 1 else {})


def unit_cochain(A):
    return {((), A.unit): A.field.one}


def to_cochain(op, words):
    F = op.A.field
    out = {}
    for w in words:
        for x, c in op(w).items():
            if not F.iszero(c):
                out[(w, x)] = c
    return out


def brace_value(op0, ops, w):
    """op0{ops}[w]: sum over weakly increasing insertion spans
    0 <= i_1 <= j_1 <= ... <= i_k <= j_k <= len(w), op_t eating w[i_t:j_t],
    with sign sum_t eps_{i_t} (|op_t| - 1), eps_i = sum_{l<=i} |s(a_l)|.
    Inserted values are expanded multilinearly and fed to op0 as literal
    middle entries (unit components included: op0 decides)."""
    A = op0.A
    F = A.field
    m = len(w)
    k = len(ops)
    if k == 0:
        return dict(op0(w))
    eps = [0]
    for x in w:
        eps.append(eps[-1] + sdeg(A, x))
    out = {}
    spans = []

    def rec(t, start, parity):
        if t == k:
            spans.append((parity, list(cur)))
            return
        for i in range(start, m + 1):
            for j in range(i, m + 1):
                cur.append((i, j))
                rec(t + 1, j, parity + eps[i] * (ops[t].deg - 1))
                cur.pop()

    cur = []
    rec(0, 0, 0)
    for parity, pos in spans:
        vals = []
        dead = False
        for t, (i, j) in enumerate(pos):
            v = ops[t](w[i:j])
            if not v:
                dead = True
                break
            vals.append(v)
        if dead:
            continue
        # expand the k inserted vectors into scalar outer words
        partial = [((), F.one)]
        prev = 0
        for t, (i, j) in enumerate(pos):
            seg = w[prev:i]
            nxt = []
            for pw, pc in partial:
                for x, cx in vals[t].items():
                    nxt.append((pw + seg + (x,), F.mul(pc, cx)))
            partial = nxt
            prev = pos[t][1]
        s = _sgn(F, parity)
        for pw, pc in partial:
            outer = pw + w[prev:]
            v0 = op0(outer)
            if not v0:
                continue
            out = vec_add(F, out, vec_scale(F, F.mul(s, pc), v0))
    return out


def brace(op0, ops):
    deg = op0.deg + sum(o.deg - 1 for o in ops)
    return Op(op0.A, deg, lambda w: brace_value(op0, ops, w))


def circle(f, g):
    "f o g = f{g}"
    return brace(f, [g])


def op_combine(A, deg, terms):
    "linear combination of (sign parity, Op) pairs, all of the same degree"
    F = A.field

    def fn(w):
        out = {}
        for parity, op in terms:
            out = vec_add(F, out, vec_scale(F, _sgn(F, parity), op(w)))
        return out

    return Op(A, deg, fn)


def cup_op(f, g):
    """f cup g [a_1..a_k] = sum_{i=0}^k (-1)^{|g| eps_i}
    f[a_1..a_i] g[a_{i+1}..a_k]; the split range includes the empty prefix
    and suffix so that the unit cochain is a strict unit and the brace
    cross-check f cup g = (-1)^{|f|} m{f,g} holds on the nose"""
    A = f.A
    F = A.field

    def fn(w):
        out = {}
        for i in range(len(w) + 1):
            fv = f(w[:i])
            if not fv:
                continue
            gv = g(w[i:])
            if not gv:
                continue
            s = _sgn(F, g.deg * word_sdeg(A, w[:i]))
            out = vec_add(F, out, vec_scale(F, s, A.mul_vec(fv, gv)))
        return out

    return Op(A, f.deg + g.deg, fn)


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


# dict-level convenience wrappers

def cup(A, f, fdeg, g, gdeg, words):
    return to_cochain(cup_op(cochain_op(A, f, fdeg), cochain_op(A, g, gdeg)),
                      words)


def bracket(A, f, fdeg, g, gdeg, words):
    return to_cochain(bracket_op(cochain_op(A, f, fdeg),
                                 cochain_op(A, g, gdeg)), words)


# ---------------------------------------------------------------------------
# operators on Hochschild chains (coefficients in A itself)


def iota(ch, op, x):
    """i_f(a0[a_1..a_m]) = sum_{k=0}^m (-1)^{|a0||f|} (a0 f[a_1..a_k])
    [a_{k+1}..a_m]; the k = 0 term makes i of the unit cochain the identity"""
    A = ch.A
    F = A.field
    out = {}
    for (m0, w), c in x.items():
        s = _sgn(F, A.deg(m0) * op.deg)
        for k in range(len(w) + 1):
            fv = op(w[:k])
            if not fv:
                continue
            head = A.mul_vec({m0: F.one}, fv)
            for y, cy in head.items():
                out = ch._push(out, y, w[k:], F.mul(F.mul(c, s), cy))
    return out


def lie(ch, op, x):
    """the Lie operator L_f, realized as the Cartan commutator
    B o i_f - (-1)^{|f|} i_f o B.  This makes the third calculus axiom exact
    at chain level, and the module property of i (i_f i_g = i_{f cup g} on
    homology) then forces the other two axioms on homology.  An explicit
    insertion-plus-wraparound sum for L_f cannot satisfy the axiom for
    length-0 cochains, see the contraction counterexample in the tests."""
    F = ch.A.field
    out = connes_B(ch, iota(ch, op, x))
    t = iota(ch, op, connes_B(ch, x))
    return vec_add(F, out, vec_scale(F, _sgn(F, op.deg + 1), t))


def connes_B(ch, x):
    """B(a0[a_1..a_m]) = sum_i +- 1[a_i..a_m|a0|a_1..a_{i-1}]; terms where
    the rotated word contains the unit are normalized away"""
    A = ch.A
    F = A.field
    out = {}
    for (a0, w), c in x.items():
        if len(w) + 1 > ch.L:
            raise OverflowError("B exceeds max length %d" % ch.L)
        sd = [sdeg(A, a0)] + [sdeg(A, y) for y in w]
        tot = sum(sd)
        entries = (a0,) + w
        for i in range(len(w) + 1):
            pre = sum(sd[:i])
            s = _sgn(F, pre * (tot - pre))
            out = ch._push(out, A.unit, entries[i:] + entries[:i],
                           F.mul(c, s))
    return out


# ---------------------------------------------------------------------------
# dual coefficients: the pairing with chains and the dual of Connes' B


def phi_pairing(A, f):
    """turn f in HC(A, DA) into the functional on chain basis keys:
    phi(a0[w]) = (-1)^{|a0| (|a| - |a0|)} f(w)(a0)"""
    F = A.field
    out = {}
    for (w, bs), c in f.items():
        b = _undual(bs)
        s = _sgn(F, A.deg(b) * word_sdeg(A, w))
        out[(b, w)] = F.mul(s, c)
    return out


def phi_pairing_inv(A, phi):
    F = A.field
    out = {}
    for (b, w), c in phi.items():
        s = _sgn(F, A.deg(b) * word_sdeg(A, w))
        out[(w, dual_name(b))] = F.mul(s, c)
    return out


def connes_B_dual(A, f, fdeg, words):
    """B_dual on cochains with dual coefficients: through the pairing,
    (B_dual phi)(x) = -(-1)^{|phi|} phi(B x), i.e. a signed cyclic sum of
    values at the unit dual element.  The leading sign matches the one the
    pairing puts on the cochain differential, which is what makes the
    cyclic identities come out with their stated signs"""
    F = A.field
    fw = index_cochain(F, f)
    ustar = dual_name(A.unit)
    out = {}
    for w in words:
        for b in A.names:
            sd = [sdeg(A, b)] + [sdeg(A, y) for y in w]
            tot = sum(sd)
            entries = (b,) + w
            total = F.zero
            for i in range(len(w) + 1):
                cyc = entries[i:] + entries[:i]
                if any(x == A.unit for x in cyc):
                    continue
                coef = eval_cochain(fw, cyc).get(ustar, F.zero)
                if F.iszero(coef):
                    continue
                pre = sum(sd[:i])
                total = F.add(total, F.mul(_sgn(F, pre * (tot - pre)), coef))
            if F.iszero(total):
                continue
            s = _sgn(F, fdeg + 1 + A.deg(b) * word_sdeg(A, w))
            out[(w, dual_name(b))] = F.mul(s, total)
    return out


# ---------------------------------------------------------------------------
# slot homology of chains


class ChainsSlots(SlotComplex):
    "per-slot bases, differential matrices and homology of Hochschild chains"

    def __init__(self, A, L, lo, hi):
        super().__init__(A.field)
        self.A = A
        self.ch = Chains(A, algebra_as_bimodule(A), L)
        self.L = L
        self.lo, self.hi = lo, hi

    def slot_basis(self, r, q):
        return self.ch.slot_basis(r, q)

    def matrix(self, r, q):
        # labels only decrease under D: the image stays inside the slot
        return self.assemble(r, q, self.ch.D_key)

    def margin(self, r, q):
        "length headroom of the slot below the truncation bound"
        pr = self.basis(r, q)
        if not pr:
            return self.L
        return self.L - max(len(w) for (_, w) in pr)


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
    cands = []
    for nc in ([n] if n is not None else sorted(
            {-k for k in md.degrees()})):
        # global candidates live in the zero-perversity slot, where every
        # dual element is present
        for rep in md.representatives(P.zero, -nc):
            cands.append((nc, rep))
    for nc, Mv in cands:
        ok = True
        for r in P.elements:
            for k in adegs:
                Ha = ma.homology(r, k)
                Hd = md.homology(r, k - nc)
                if Ha.dim != Hd.dim:
                    ok = False
                    break
                if Ha.dim == 0:
                    continue
                cols = []
                try:
                    for a in ma.representatives(r, k):
                        img = D.act_left_vec(a, Mv)
                        cols.append(md.coords_of(r, k - nc, img))
                except ValueError:
                    ok = False
                    break
                mat = SparseMatrix.from_columns(A.field, Hd.dim, cols)
                if mat.rank() != Hd.dim:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return nc, Mv
    raise LookupError("not a detected pDPDA")


class BVOperator:
    """Delta on HH representatives: Delta(f).[c] = B_dual(f.[c]) solved per
    slot against the action images of the lower-degree representative basis"""

    def __init__(self, A, L, lo, hi, n=None):
        self.A = A
        self.n, self.cycle = find_duality_class(A, n)
        self.D = dual_bimodule(A)
        if L < 2:
            raise ValueError("need word length at least 2 for the cyclic "
                             "operator")
        self.cx = Cochains(A, algebra_as_bimodule(A), L, lo, hi)
        self.cd = Cochains(A, self.D, L, lo, hi)
        # the cyclic operator on dual cochains reads one word length above
        # its output, so every class comparison that involves it happens in
        # a complex truncated one length lower (restriction is a chain map)
        self.cdm = Cochains(A, self.D, L - 1, lo, hi)
        self.c = {((), bs): c for bs, c in self.cycle.items()}
        self.cdeg = -self.n
        self.lo, self.hi = lo, hi

    def _restrict(self, f):
        "drop the word lengths the truncated dual complex does not carry"
        return {(w, m): c for (w, m), c in f.items() if len(w) < self.cd.L}

    def act_c(self, f, fdeg):
        "f.[c] in HC(A, DA)"
        return action_pairing(self.A, self.D, f, fdeg, self.c, self.cdeg,
                              self.cd.words)

    def bdual_act(self, f, fdeg):
        return connes_B_dual(self.A, self.act_c(f, fdeg), fdeg + self.cdeg,
                             self.cd.words)

    def unit_obstruction(self, r):
        "coordinates of B_dual([c]); Delta(1) = 0 iff this is a boundary"
        bv = connes_B_dual(self.A, self.c, self.cdeg, self.cd.words)
        return self.cdm.coords_of(r, self.cdeg - 1, self._restrict(bv))

    def delta(self, r, q, f):
        """Delta of the cocycle f at slot (r, q): returns (cochain, coords)
        with coords in the HH^{q-1} representative basis"""
        F = self.A.field
        bv = self._restrict(self.bdual_act(f, q))
        target = self.cdm.coords_of(r, q - 1 + self.cdeg, bv)
        reps = self.cx.representatives(r, q - 1)
        cols = [self.cdm.coords_of(r, q - 1 + self.cdeg,
                                   self._restrict(self.act_c(g, q - 1)))
                for g in reps]
        H = self.cdm.homology(r, q - 1 + self.cdeg)
        mat = SparseMatrix.from_columns(F, H.dim, cols)
        if reps and mat.rank() != len(reps):
            # the certified duality action can only lose injectivity here
            # through word-length truncation
            raise LookupError("slot outside the stable truncation window")
        x = solve(mat, target)
        if x is None:
            raise LookupError("slot outside the stable truncation window")
        out = {}
        for i, ci in x.items():
            out = vec_add(F, out, vec_scale(F, ci, reps[i]))
        return out, x

    def matrix(self, r, q):
        "Delta as a matrix HH^q(A)_r -> HH^{q-1}(A)_r"
        F = self.A.field
        lower = self.cx.homology(r, q - 1)
        cols = [self.delta(r, q, f)[1]
                for f in self.cx.representatives(r, q)]
        return SparseMatrix.from_columns(F, lower.dim, cols)


# ---------------------------------------------------------------------------
# the identity suite


def random_cochain(A, words, q, rng, density=0.5):
    "random degree-q cochain supported on the given words"
    F = A.field
    out = {}
    for w in words:
        for x in A.names:
            if A.deg(x) - word_sdeg(A, w) != q:
                continue
            if rng.random() < density:
                out[(w, x)] = F.of(rng.choice([1, -1, 2]))
    return out


def random_class(field, reps, rng):
    "random combination of homology representatives, None when empty"
    if not reps:
        return None
    out = {}
    for rep in reps:
        c = rng.choice([0, 1, -1, 2])
        if c:
            out = vec_add(field, out, vec_scale(field, field.of(c), rep))
    return out if out else dict(reps[0])


# the identities verify_calculus reports, by suite
GERSTENHABER_IDS = (
    "differential equals [d_A,f]+[m,f]", "cup equals signed m{f,g}",
    "bracket skew-commutativity", "commutativity defect coboundary",
    "pre-Jacobi k=1 l=2", "pre-Jacobi k=2 l=1", "Jacobi on cohomology",
    "Leibniz on cohomology")
CALCULUS_IDS = (
    "calculus i_[f,g]", "calculus L_{f cup g}", "calculus L_f via B",
    "Ginzburg identity")
BV_IDS = (
    "BV block", "Delta(1) = 0", "Delta squared = 0",
    "BV seven-term relation", "Menichi identity")


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


def verify_calculus(A, L, lo, hi, trials=20, seed=0, with_bv=None):
    """run the identity suite and return a list of records
    {identity, status, witness?}.  Chain-level identities are exact;
    cohomology identities are decided by coboundary-membership solves.
    with_bv: None = auto (commutative algebras only)."""
    F = A.field
    P = A.poset
    rng = random.Random(seed)
    words = middle_words(A, L)
    report = []

    record = functools.partial(record_identity, report)

    def rand_pair():
        q1, q2 = rng.randint(lo, hi), rng.randint(lo, hi)
        f = random_cochain(A, words, q1, rng)
        g = random_cochain(A, words, q2, rng)
        return (f, q1), (g, q2)

    # --- exact chain-level identities -------------------------------------
    fails = []
    for t in range(trials):
        (f, qf), _ = rand_pair()
        fop = cochain_op(A, f, qf)
        lhs = apply_cochain_D(A, algebra_as_bimodule(A), f, qf, words)
        rhs = to_cochain(cochain_D_op(fop), words)
        if lhs != rhs:
            fails.append({"trial": t, "q": qf})
    record("differential equals [d_A,f]+[m,f]", fails, trials)

    fails = []
    for t in range(trials):
        (f, qf), (g, qg) = rand_pair()
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        lhs = to_cochain(cup_op(fop, gop), words)
        rhs = to_cochain(brace(mult_op(A), [fop, gop]), words)
        rhs = {k: F.mul(_sgn(F, qf), c) for k, c in rhs.items()}
        if lhs != rhs:
            fails.append({"trial": t, "degrees": (qf, qg)})
    record("cup equals signed m{f,g}", fails, trials)

    fails = []
    for t in range(trials):
        (f, qf), (g, qg) = rand_pair()
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        lhs = to_cochain(bracket_op(fop, gop), words)
        rhs = to_cochain(bracket_op(gop, fop), words)
        s = _sgn(F, 1 + (qf - 1) * (qg - 1))
        rhs = {k: F.mul(s, c) for k, c in rhs.items()}
        if lhs != rhs:
            fails.append({"trial": t, "degrees": (qf, qg)})
    record("bracket skew-commutativity", fails, trials)

    fails = []
    for t in range(trials):
        (f, qf), (g, qg) = rand_pair()
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        fg = to_cochain(circle(fop, gop), words)
        lhs = apply_cochain_D(A, algebra_as_bimodule(A), fg,
                              qf + qg - 1, words)
        df = apply_cochain_D(A, algebra_as_bimodule(A), f, qf, words)
        dg = apply_cochain_D(A, algebra_as_bimodule(A), g, qg, words)
        lhs = vec_sub(F, lhs, to_cochain(
            circle(cochain_op(A, df, qf + 1), gop), words))
        t2 = to_cochain(circle(fop, cochain_op(A, dg, qg + 1)), words)
        lhs = vec_sub(F, lhs, vec_scale(F, _sgn(F, qf + 1), t2))
        guf = to_cochain(cup_op(gop, fop), words)
        fug = to_cochain(cup_op(fop, gop), words)
        rhs = vec_scale(F, _sgn(F, qg - 1),
                        vec_sub(F, guf, vec_scale(F, _sgn(F, qf * qg), fug)))
        if lhs != rhs:
            fails.append({"trial": t, "degrees": (qf, qg)})
    record("commutativity defect coboundary", fails, trials)

    fails = []
    for t in range(trials):
        (f, qf), (g, qg) = rand_pair()
        h = random_cochain(A, words, rng.randint(lo, hi), rng)
        qh = next((A.deg(x) - word_sdeg(A, w) for (w, x) in h), 0)
        phi = random_cochain(A, words, rng.randint(lo, hi), rng)
        qp = next((A.deg(x) - word_sdeg(A, w) for (w, x) in phi), 0)
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
        rhs = to_cochain(op_combine(A, 0, terms), words)
        if lhs != rhs:
            fails.append({"trial": t, "degrees": (qp, qf, qg, qh)})
    record("pre-Jacobi k=1 l=2", fails, trials)

    fails = []
    for t in range(trials):
        (f, qf), (g, qg) = rand_pair()
        h = random_cochain(A, words, rng.randint(lo, hi), rng)
        qh = next((A.deg(x) - word_sdeg(A, w) for (w, x) in h), 0)
        phi = random_cochain(A, words, rng.randint(lo, hi), rng)
        qp = next((A.deg(x) - word_sdeg(A, w) for (w, x) in phi), 0)
        pop = cochain_op(A, phi, qp)
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        hop = cochain_op(A, h, qh)
        lhs = to_cochain(brace(brace(pop, [fop, gop]), [hop]), words)
        terms = [
            (0, brace(pop, [fop, gop, hop])),
            (0, brace(pop, [fop, brace(gop, [hop])])),
            ((qg - 1) * (qh - 1), brace(pop, [fop, hop, gop])),
            ((qg - 1) * (qh - 1), brace(pop, [brace(fop, [hop]), gop])),
            ((qf + qg) * (qh - 1), brace(pop, [hop, fop, gop])),
        ]
        rhs = to_cochain(op_combine(A, 0, terms), words)
        if lhs != rhs:
            fails.append({"trial": t, "degrees": (qp, qf, qg, qh)})
    record("pre-Jacobi k=2 l=1", fails, trials)

    # --- cohomology-level Gerstenhaber identities -------------------------
    cx = Cochains(A, algebra_as_bimodule(A), L, lo - 1, hi + 1)

    def cocycle_triples():
        "seeded random cocycle triples from representative bases"
        for t in range(trials):
            picks = []
            for _ in range(3):
                r = rng.choice(P.elements)
                q = rng.randint(lo, hi)
                z = random_class(F, cx.representatives(r, q), rng)
                if z is None:
                    break
                picks.append((z, q, r))
            if len(picks) == 3:
                yield t, picks

    fails = []
    ran = 0
    for t, picks in cocycle_triples():
        (f, qf, rf), (g, qg, rg), (h, qh, rh) = picks
        rr = P.oplus(P.oplus(rf, rg), rh) if P.oplus(rf, rg) else None
        if rr is None:
            continue
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        hop = cochain_op(A, h, qh)
        lhs = to_cochain(bracket_op(bracket_op(fop, gop), hop), words)
        rhs = to_cochain(bracket_op(fop, bracket_op(gop, hop)), words)
        t2 = to_cochain(bracket_op(gop, bracket_op(fop, hop)), words)
        rhs = vec_sub(F, rhs, vec_scale(F, _sgn(F, (qf - 1) * (qg - 1)), t2))
        diff = vec_sub(F, lhs, rhs)
        q = qf + qg + qh - 2
        if not cx.is_boundary(rr, q, diff):
            fails.append({"trial": t, "slots": (rf, rg, rh),
                          "degrees": (qf, qg, qh)})
    record("Jacobi on cohomology", fails, ran)

    fails = []
    ran = 0
    for t, picks in cocycle_triples():
        (f, qf, rf), (g, qg, rg), (h, qh, rh) = picks
        rr = P.oplus(P.oplus(rf, rg), rh) if P.oplus(rf, rg) else None
        if rr is None:
            continue
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        hop = cochain_op(A, h, qh)
        lhs = to_cochain(bracket_op(fop, cup_op(gop, hop)), words)
        rhs = to_cochain(cup_op(bracket_op(fop, gop), hop), words)
        t2 = to_cochain(cup_op(gop, bracket_op(fop, hop)), words)
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, (qf - 1) * qg), t2))
        diff = vec_sub(F, lhs, rhs)
        q = qf + qg + qh - 1
        if not cx.is_boundary(rr, q, diff):
            fails.append({"trial": t, "slots": (rf, rg, rh),
                          "degrees": (qf, qg, qh)})
    record("Leibniz on cohomology", fails, ran)

    # --- calculus identities on chain homology ----------------------------
    cs = ChainsSlots(A, L, lo, hi)

    def chain_classes(margin):
        "random chain homology classes with enough length headroom for B"
        for t in range(trials):
            r = rng.choice(P.elements)
            q = rng.randint(lo, hi)
            if cs.margin(r, q) < margin:
                continue
            z = random_class(F, cs.representatives(r, q), rng)
            if z is None:
                continue
            yield t, r, q, z

    def cocycle_pair():
        rf = rng.choice(P.elements)
        rg = rng.choice(P.elements)
        qf = rng.randint(lo, hi)
        qg = rng.randint(lo, hi)
        f = random_class(F, cx.representatives(rf, qf), rng)
        g = random_class(F, cx.representatives(rg, qg), rng)
        if f is None or g is None or P.oplus(rf, rg) is None:
            return None
        return (f, qf, rf), (g, qg, rg)

    ch = cs.ch

    fails = []
    ran = 0
    for t, r, q, z in chain_classes(1):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), (g, qg, rg) = pair
        rr = P.oplus(P.oplus(rf, rg), r)
        if rr is None:
            continue
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        br = cochain_op(A, to_cochain(bracket_op(fop, gop), words),
                        qf + qg - 1)
        lhs = iota(ch, br, z)
        # the interior-product exponent sits on the L_f i_g term here; the
        # identity suite is the arbiter of that placement
        rhs = vec_scale(F, _sgn(F, qg * (qf + 1)),
                        lie(ch, fop, iota(ch, gop, z)))
        rhs = vec_sub(F, rhs, iota(ch, gop, lie(ch, fop, z)))
        if not cs.is_boundary(rr, q + qf + qg - 1, vec_sub(F, lhs, rhs)):
            fails.append({"trial": t, "slot": (r, q),
                          "degrees": (qf, qg)})
    record("calculus i_[f,g]", fails, ran)

    fails = []
    ran = 0
    for t, r, q, z in chain_classes(1):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), (g, qg, rg) = pair
        rr = P.oplus(P.oplus(rf, rg), r)
        if rr is None:
            continue
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        fg = cochain_op(A, to_cochain(cup_op(fop, gop), words), qf + qg)
        lhs = lie(ch, fg, z)
        rhs = lie(ch, fop, iota(ch, gop, z))
        t2 = iota(ch, fop, lie(ch, gop, z))
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, qf), t2))
        if not cs.is_boundary(rr, q + qf + qg - 1, vec_sub(F, lhs, rhs)):
            fails.append({"trial": t, "slot": (r, q),
                          "degrees": (qf, qg)})
    record("calculus L_{f cup g}", fails, ran)

    fails = []
    ran = 0
    for t, r, q, z in chain_classes(1):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), _ = pair
        rr = P.oplus(rf, r)
        if rr is None:
            continue
        ran += 1
        fop = cochain_op(A, f, qf)
        lhs = lie(ch, fop, z)
        rhs = connes_B(ch, iota(ch, fop, z))
        t2 = iota(ch, fop, connes_B(ch, z))
        rhs = vec_sub(F, rhs, vec_scale(F, _sgn(F, qf), t2))
        if not cs.is_boundary(rr, q + qf - 1, vec_sub(F, lhs, rhs)):
            fails.append({"trial": t, "slot": (r, q), "degree": qf})
    record("calculus L_f via B", fails, ran)

    fails = []
    ran = 0
    for t, r, q, z in chain_classes(1):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), (g, qg, rg) = pair
        rr = P.oplus(P.oplus(rf, rg), r)
        if rr is None:
            continue
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        br = cochain_op(A, to_cochain(bracket_op(fop, gop), words),
                        qf + qg - 1)
        fg = cochain_op(A, to_cochain(cup_op(fop, gop), words), qf + qg)
        lhs = iota(ch, br, z)
        rhs = vec_scale(F, _sgn(F, qf), connes_B(ch, iota(ch, fg, z)))
        rhs = vec_sub(F, rhs, iota(ch, fop, connes_B(ch, iota(ch, gop, z))))
        t2 = iota(ch, gop, connes_B(ch, iota(ch, fop, z)))
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, (qf - 1) * (qg - 1)), t2))
        t3 = iota(ch, fg, connes_B(ch, z))
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, qg), t3))
        # the identity holds with the four B-terms carrying the same
        # leading minus the dual-side cyclic operator does
        if not cs.is_boundary(rr, q + qf + qg - 1, vec_add(F, lhs, rhs)):
            fails.append({"trial": t, "slot": (r, q),
                          "degrees": (qf, qg)})
    record("Ginzburg identity", fails, ran)

    # --- BV block ---------------------------------------------------------
    if with_bv is None:
        with_bv = A.is_commutative()
    if not with_bv:
        report.append({"identity": "BV block", "status": "skipped",
                       "trials": 0,
                       "witness": "unsupported: non-commutative duality lift"})
        return report
    try:
        bv = BVOperator(A, L, lo, hi)
    except LookupError as e:
        report.append({"identity": "BV block", "status": "skipped",
                       "trials": 0, "witness": str(e)})
        return report
    cxm = Cochains(A, algebra_as_bimodule(A), L - 1, lo - 1, hi + 1)

    fails = []
    for r in P.elements:
        co = bv.unit_obstruction(r)
        if co:
            fails.append({"slot": r, "coords": co})
    record("Delta(1) = 0", fails, len(P.elements))

    fails = []
    ran = 0
    for r in P.elements:
        for q in range(lo, hi + 1):
            try:
                m1 = bv.matrix(r, q)
                m2 = bv.matrix(r, q - 1)
            except LookupError:
                continue
            if m1.ncols == 0 or m2.nrows == 0:
                continue
            ran += 1
            if not m2.mul(m1).is_zero():
                fails.append({"slot": (r, q)})
    record("Delta squared = 0", fails, ran)

    fails = []
    ran = 0
    for t in range(trials):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), (g, qg, rg) = pair
        rr = P.oplus(rf, rg)
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        fug = to_cochain(cup_op(fop, gop), words)
        lhs = vec_scale(F, _sgn(F, qf),
                        to_cochain(bracket_op(fop, gop), words))
        try:
            rhs, _ = bv.delta(rr, qf + qg, fug)
            df, _ = bv.delta(rf, qf, f)
            dg, _ = bv.delta(rg, qg, g)
        except LookupError:
            continue
        ran += 1
        t2 = to_cochain(cup_op(cochain_op(A, df, qf - 1), gop), words)
        rhs = vec_sub(F, rhs, t2)
        t3 = to_cochain(cup_op(fop, cochain_op(A, dg, qg - 1)), words)
        rhs = vec_sub(F, rhs, vec_scale(F, _sgn(F, qf), t3))
        diff = {(w, m): c for (w, m), c in vec_sub(F, lhs, rhs).items()
                if len(w) < L}
        if not cxm.is_boundary(rr, qf + qg - 1, diff):
            fails.append({"trial": t, "slots": (rf, rg),
                          "degrees": (qf, qg)})
    record("BV seven-term relation", fails, ran)

    fails = []
    ran = 0
    for t in range(trials):
        pair = cocycle_pair()
        if pair is None:
            continue
        (f, qf, rf), (g, qg, rg) = pair
        # phantom classes whose representatives need the full word length
        # are truncation artifacts; the cyclic comparison needs headroom
        if max((len(w) for (w, m) in f), default=0) > L - 3 or \
                max((len(w) for (w, m) in g), default=0) > L - 3:
            continue
        rr = P.oplus(rf, rg)
        ran += 1
        fop, gop = cochain_op(A, f, qf), cochain_op(A, g, qg)
        fug = to_cochain(cup_op(fop, gop), words)
        br = to_cochain(bracket_op(fop, gop), words)
        lhs = bv.act_c(br, qf + qg - 1)
        rhs = vec_scale(F, _sgn(F, qf),
                        connes_B_dual(A, bv.act_c(fug, qf + qg),
                                      qf + qg + bv.cdeg, bv.cd.words))
        t2 = action_pairing(A, bv.D, f, qf,
                            connes_B_dual(A, bv.act_c(g, qg), qg + bv.cdeg,
                                          bv.cd.words),
                            qg + bv.cdeg - 1, bv.cd.words)
        rhs = vec_sub(F, rhs, t2)
        t3 = action_pairing(A, bv.D, g, qg,
                            connes_B_dual(A, bv.act_c(f, qf), qf + bv.cdeg,
                                          bv.cd.words),
                            qf + bv.cdeg - 1, bv.cd.words)
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, (qf - 1) * (qg - 1)), t3))
        t4 = action_pairing(A, bv.D, fug, qf + qg,
                            connes_B_dual(A, bv.c, bv.cdeg, bv.cd.words),
                            bv.cdeg - 1, bv.cd.words)
        rhs = vec_add(F, rhs, vec_scale(F, _sgn(F, qg), t4))
        q = qf + qg - 1 + bv.cdeg
        diff = bv._restrict(vec_sub(F, lhs, rhs))
        if not bv.cdm.is_boundary(rr, q, diff):
            fails.append({"trial": t, "slots": (rf, rg),
                          "degrees": (qf, qg)})
    record("Menichi identity", fails, ran)

    return report

