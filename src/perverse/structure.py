"""Operations on Hochschild cochains, the BV operator and verify_calculus.

Cochain side, each built as an Op (see hochschild): cup product (with a
module action in place of the product, the action pairing f.g), brace
operator, Gerstenhaber bracket, and B_dual, the dual of Connes' boundary B,
acting on cochains with dual coefficients through the pairing
phi(a0[w]) = (-1)^{|a0| (|a| - |a0|)} f(w)(a0).

Duality: for a commutative algebra, search for a homology class of the dual
whose action gives an isomorphism H(A) -> H(DA) per slot, build the duality
cocycle c, and define the BV operator Delta(f) by solving Delta(f).[c] =
B_dual(f.[c]) on cohomology.  iso_on_homology is that per-slot test for any
map of vectors between two ModuleSlots; functoriality's quasi-isomorphism
check runs it on the underlying diagrams.  verify_calculus runs the
identity suite of perverse.suite and reports pass/fail with witnesses.  It
imports the suite when it runs, so compare_hh and the BV operator, which
read this module, compile neither the suite nor the chain side it reads.
"""

from .linalg import SparseMatrix, vec_iadd, signed_sum, solver, linear
from .algebra import ModuleSlots, diagram_slots, dual_bimodule, dual_name
from .hochschild import word_eps, Cochains, Op, cochain_op, to_cochain


# ---------------------------------------------------------------------------
# operations on middle words


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


def iso_on_homology(src, dst, f, degrees, shift=0):
    """whether the map f of vectors is an isomorphism H(src) -> H(dst) of
    degree shift at each perversity and each k in degrees: equal dimensions,
    and the classes of f on the representatives of (r, k) have full rank in
    (r, k + shift); an image outside a slot or not a cycle there is a no"""
    for r in src.M.poset.elements:
        for k in degrees:
            H = dst.homology(r, k + shift)
            if src.homology(r, k).dim != H.dim:
                return False
            try:
                mat = dst.class_matrix(r, k + shift, [
                    f(a) for a in src.representatives(r, k)])
            except ValueError:
                return False
            if mat.rank() != H.dim:
                return False
    return True


def find_duality_class(D, n=None):
    """search the homology of D = DA, the dual bimodule of a pDGA A, for a
    cycle whose left action gives a graded isomorphism H(A) -> H(DA) on
    every perversity slot; returns (n, cycle) for the first certified
    candidate in the deterministic basis order"""
    A = D.algebra
    if not A.is_commutative():
        raise ValueError("unsupported: non-commutative duality lift")
    ma, md = diagram_slots(A), ModuleSlots(D)
    for nc in ([n] if n is not None else sorted(
            {-k for k in md.degrees()})):
        # global candidates live in the zero-perversity slot, where every
        # dual element is present
        for Mv in md.representatives(A.poset.zero, -nc):
            if iso_on_homology(ma, md, lambda a: D.act_left_vec(a, Mv),
                               A.degrees(), -nc):
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
        self.D = dual_bimodule(A)
        self.n, self.cycle = find_duality_class(self.D, n)
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
# identity records and the suite runner


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
    from .suite import Suite, GERSTENHABER, CALCULUS, BV, BV_IDS
    s = Suite(A, L, lo, hi, trials, seed, bv)
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

    run(GERSTENHABER + CALCULUS)
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
    run(BV)
    return report
