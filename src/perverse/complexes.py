"""Perverse chain complexes: functors from the perversity poset to complexes.

Grading is upper (cohomological), the differential has degree +1.  A
PerverseComplex stores, for each perversity p and degree k, a list of basis
labels, the differential matrix into (p, k+1), and structure-map matrices for
covering pairs p < q.  Box tensor is computed as a colimit presented by
covering-relation difference maps; internal hom as the matching limit
(kernel); the linear dual is hom into the monoidal unit; a p-filtration as
the subcomplex of a labeled complex below each perversity.

A plain complex enters as its names and its differential: `basis` maps a
degree k to its list of names, and `d(name)` is the differential of one
name of degree k, a vector over names of degree k + 1; a labeled complex
also has `labels`, a perversity per name.

Each of these constructions, and the carrier of a pDGA, states a slot over
some ambient keys, as a `linalg.quotient` of their span by relations or the
`linalg.kernel` of equations on it, and gives the differential of one key;
`induce` builds the complex from that: the basis, the slot's d and the
structure maps, which send each key to itself.  The carrier is the pDGA's
underlying perverse chain complex, and `diagram_homology` its homology,
which `perverse homology` prints.
"""

import functools

from .linalg import (SparseMatrix, homology_dims, pivot_rows, linear,
                     quotient, kernel)
from .poset import leq


class PerverseComplex:
    def __init__(self, field, poset):
        self.field = field
        self.poset = poset
        self.basis = {}  # (p, k) -> list of labels
        self.d = {}      # (p, k) -> SparseMatrix to (p, k+1)
        self.phi = {}    # (p, q, k) -> SparseMatrix, p covered by q
        self._composite = {}  # (p, q, k) -> structure_map(p, q, k)

    def dim(self, p, k):
        return len(self.basis.get((p, k), ()))

    def degrees(self):
        return sorted({k for (_, k) in self.basis})

    def diff(self, p, k):
        m = self.d.get((p, k))
        if m is None:
            m = SparseMatrix(self.field, self.dim(p, k + 1), self.dim(p, k))
        return m

    def cover_map(self, p, q, k):
        m = self.phi.get((p, q, k))
        if m is None:
            m = SparseMatrix(self.field, self.dim(q, k), self.dim(p, k))
        return m

    def structure_map(self, p, q, k):
        """composite structure map for any p <= q: the map from b, the
        first upper cover of p below q, after the cover map p -> b.  It is
        built on the first read and kept, so the slots must be written
        before it"""
        m = self._composite.get((p, q, k))
        if m is None:
            if not leq(p, q):
                raise ValueError("%r is not below %r" % (p, q))
            if p == q:
                m = SparseMatrix.identity(self.field, self.dim(p, k))
            else:
                b = next(b for b in self.poset.upper_covers(p) if leq(b, q))
                m = self.structure_map(b, q, k).mul(self.cover_map(p, b, k))
            self._composite[p, q, k] = m
        return m

    def validate(self):
        P = self.poset
        for p in P.elements:
            for k in self.degrees():
                dk = self.diff(p, k)
                if (dk.nrows, dk.ncols) != (self.dim(p, k + 1),
                                            self.dim(p, k)):
                    raise ValueError("d has the wrong shape at %s deg %d"
                                     % (p, k))
                if not self.diff(p, k + 1).mul(dk).is_zero():
                    raise ValueError("d^2 != 0 at %s deg %d" % (p, k))
        for (p, q) in P.covers():
            for k in self.degrees():
                f = self.cover_map(p, q, k)
                if (f.nrows, f.ncols) != (self.dim(q, k), self.dim(p, k)):
                    raise ValueError("structure map has the wrong shape at "
                                     "%s<=%s deg %d" % (p, q, k))
                # structure maps are chain maps
                lhs = self.diff(q, k).mul(f)
                rhs = self.cover_map(p, q, k + 1).mul(self.diff(p, k))
                if lhs != rhs:
                    raise ValueError("structure map not a chain map at "
                                     "%s<=%s deg %d" % (p, q, k))
        # functoriality: any two maximal chains of an interval of a
        # distributive lattice are joined by diamond swaps, so the composites
        # are path independent once every diamond square commutes
        for m, x, y, j in P.diamonds(P.top):
            for k in self.degrees():
                if self.cover_map(x, j, k).mul(self.cover_map(m, x, k)) != \
                        self.cover_map(y, j, k).mul(self.cover_map(m, y, k)):
                    raise ValueError("structure maps not functorial")

    def homology(self, p):
        "{k: dim H^k} at p from the lowest degree to the highest, from ranks"
        degs = self.degrees()
        return homology_dims(
            functools.partial(self.dim, p),
            lambda k, cleared: pivot_rows(self.field,
                                          self.diff(p, k).columns(), cleared),
            degs[0], degs[-1]) if degs else {}


def free_perverse(field, poset, p, basis, d):
    """F_p(N): the complex N of the names basis and the differential d
    placed at every perversity >= p, zero below, with identity structure
    maps on the up-set of p.  The keys of a slot are N's names"""
    free = {k: (names, quotient(field, names, []), names)
            for k, names in basis.items()}
    return induce(field, poset,
                  {(q, k): free[k] for q in poset.up_set(p) for k in free},
                  lambda k, x: d(x))


def unit_perverse(field, poset):
    "the unit: one basis vector e in degree 0 at every perversity"
    return free_perverse(field, poset, poset.zero, {0: ["e"]}, lambda x: {})


def induce(field, poset, slots, d):
    """the PerverseComplex presented over ambient keys, slot by slot.

    slots maps (r, k) to (keys, space, names): the ambient basis keys of
    the slot, the Subquotient of their span that the slot is, and the
    names of its basis; a slot without names has no basis entry.
    d(k, key) is the ambient differential of one key of degree k, a vector
    over keys of degree k + 1, and a structure map sends each key to
    itself.  Both are carried over keys and then projected onto the target
    slot; a term on a key that the target slot lacks is dropped."""
    out = PerverseComplex(field, poset)
    index = {rk: {key: i for i, key in enumerate(keys)}
             for rk, (keys, _, _) in slots.items()}
    dkey = functools.cache(d)

    def induced(src, dst, image):
        keys, space, _ = slots[src]
        tindex, tspace = index[dst], slots[dst][1]

        def cut(i):
            "the image of the i-th key, at the keys of dst"
            return {tindex[key]: x for key, x in image(keys[i]).items()
                    if key in tindex}

        return SparseMatrix.from_columns(field, tspace.dim, [
            tspace.coords(linear(field, cut, rep)) for rep in space.reps])

    for (r, k), (_, _, names) in slots.items():
        if names:
            out.basis[(r, k)] = list(names)
        if (r, k + 1) in slots:
            out.d[(r, k)] = induced((r, k), (r, k + 1),
                                    functools.partial(dkey, k))
        for r2 in poset.upper_covers(r):
            if (r2, k) in slots:
                out.phi[(r, r2, k)] = induced((r, k), (r2, k),
                                              lambda key: {key: field.one})
    return out


def carrier(A):
    """the underlying PerverseComplex of the pDGA A: slot (p, k) holds the
    names of degree k with label <= p, in A.names order.  A term of d(x) off
    degree |x| + 1 or above the label of x raises ValueError, since the
    slot of x at its own label would lack it; no product is read"""
    F, P = A.field, A.poset
    for x, v in A.diffs.items():
        for y in v:
            if A.degree.get(y) != A.degree[x] + 1:
                raise ValueError("d(%r) has a term %r off degree %d"
                                 % (x, y, A.degree[x] + 1))
            if not leq(A.label[y], A.label[x]):
                raise ValueError("d(%r) has a term %r above its label"
                                 % (x, y))
    slots = {}
    for p in P.elements:
        for k in A.degrees():
            keys = [x for x in A.names if A.degree[x] == k
                    and leq(A.label[x], p)]
            if keys:
                slots[(p, k)] = keys, quotient(F, keys, []), keys
    return induce(F, P, slots, lambda k, x: A.d(x))


def diagram_homology(A):
    "{(p, k): dim} of the nonzero homology of the pDGA A's underlying diagram"
    Z = carrier(A)
    return {(p, k): h for p in A.poset.elements
            for k, h in Z.homology(p).items() if h}


def _box_objects(P, r):
    "the pairs (p, q) with p + q <= r pointwise"
    return [(p, q) for p in P.elements for q in P.elements
            if all(a + b <= c for a, b, c in zip(p, q, r))]


def _box_keys(Z, Y, objs, k):
    """the keys ((p, q), (i, zi, yi)) of the sum over objs of (Z_p tensor
    Y_q)^k: basis vector zi of Z_p^i tensor basis vector yi of Y_q^(k-i)"""
    return [((p, q), (i, zi, yi)) for (p, q) in objs for i in Z.degrees()
            for zi in range(Z.dim(p, i)) for yi in range(Y.dim(q, k - i))]


def box_tensor(Z, Y):
    """(Z box Y)_r = colim over {(p,q): p+q <= r pointwise} of Z_p tensor Y_q,
    presented by covering-relation difference maps."""
    if Z.field != Y.field or Z.poset is not Y.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = Z.field, Z.poset
    degs = sorted({i + j for i in Z.degrees() for j in Y.degrees()})
    if not degs:
        return PerverseComplex(field, P)
    kmin, kmax = min(degs), max(degs)
    # nonzero entries of each matrix, read once per matrix
    zcov = functools.cache(lambda p, q, i: Z.cover_map(p, q, i).columns())
    ycov = functools.cache(lambda p, q, j: Y.cover_map(p, q, j).columns())
    zdiff = functools.cache(lambda p, i: Z.diff(p, i).columns())
    ydiff = functools.cache(lambda q, j: Y.diff(q, j).columns())
    slots = {}
    for r in P.elements:
        objs = _box_objects(P, r)
        objset = set(objs)
        # the covers out of each object, on the Z side (0) or the Y side (1)
        edges = {(p, q): [((b, q), 0) for b in P.upper_covers(p)
                          if (b, q) in objset]
                 + [((p, b), 1) for b in P.upper_covers(q)
                    if (p, b) in objset] for (p, q) in objs}
        for k in range(kmin, kmax + 2):
            keys = _box_keys(Z, Y, objs, k)
            rels = []
            for key in keys:
                (p, q), (i, zi, yi) = key
                for dst, side in edges[(p, q)]:
                    if side == 0:
                        rel = {(dst, (i, zi2, yi)): c
                               for zi2, c in zcov(p, dst[0], i)[zi].items()}
                    else:
                        rel = {(dst, (i, zi, yi2)): c for yi2, c
                               in ycov(q, dst[1], k - i)[yi].items()}
                    rel[key] = field.neg(field.one)
                    rels.append(rel)
            quot = quotient(field, keys, rels)
            slots[(r, k)] = keys, quot, [
                (Z.basis[(p, i)][zi], Y.basis[(q, k - i)][yi], p, q, i)
                for (p, q), (i, zi, yi) in (keys[g] for rep in quot.reps
                                            for g in rep)]

    def d(k, key):
        "the tensor differential, objectwise"
        obj, (i, zi, yi) = key
        w = {(obj, (i + 1, zi2, yi)): x
             for zi2, x in zdiff(obj[0], i)[zi].items()}
        sgn = field.sign(i)
        for yi2, x in ydiff(obj[1], k - i)[yi].items():
            w[(obj, (i, zi, yi2))] = field.mul(sgn, x)
        return w

    return induce(field, P, slots, d)


def internal_hom(M, N):
    """Hom(M, N)_r = lim over {(p,q): r <= q - p pointwise} of Hom(M_p, N_q),
    presented as the kernel of covering-relation difference maps; the index
    order is (p,q) <= (p',q') iff p' <= p and q <= q'."""
    if M.field != N.field or M.poset is not N.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = M.field, M.poset
    mdegs, ndegs = M.degrees(), N.degrees()
    if not mdegs or not ndegs:
        return PerverseComplex(field, P)
    degs = sorted({j - i for i in mdegs for j in ndegs})
    kmin, kmax = min(degs), max(degs)

    def hom_basis(p, q, k):
        "(i, mi, ni): basis vector mi of M_p^i to basis vector ni of N_q^(i+k)"
        return [(i, mi, ni) for i in mdegs for mi in range(M.dim(p, i))
                for ni in range(N.dim(q, i + k))]

    # the rows of each map out of M, transposed once per matrix; the maps
    # of N are read through the columns the complex keeps
    mmap = functools.cache(lambda p, q, i: M.structure_map(p, q, i).rows())
    mdiff = functools.cache(lambda p, i: M.diff(p, i).rows())
    ndiff = functools.cache(lambda q, j: N.diff(q, j).columns())
    slots = {}
    for r in P.elements:
        objs = [(p, q) for p in P.elements for q in P.elements
                if all(c <= b - a for a, b, c in zip(p, q, r))]
        objset = set(objs)
        # (p,q) -> (p',q) with p' covered by p, and (p,q) -> (p,q') with q'
        # covering q
        edges = [((p, q), (a, q)) for (p, q) in objs
                 for a in P.lower_covers(p) if (a, q) in objset] \
            + [((p, q), (p, b)) for (p, q) in objs
               for b in P.upper_covers(q) if (p, b) in objset]
        for k in range(kmin, kmax + 2):
            local = {obj: hom_basis(*obj, k) for obj in objs}
            # a difference map has a row (edge, t) per key t of its target:
            # the image of f along the edge minus f at the target
            eqs = []
            for e, ((p, q), (p2, q2)) in enumerate(edges):
                eqs += [((e, (i, mi2, ni2)), ((p, q), (i, mi, ni)),
                         field.mul(cm, cn))
                        for (i, mi, ni) in local[(p, q)]
                        for mi2, cm in mmap(p2, p, i)[mi].items()
                        for ni2, cn in N.structure_map(
                            q, q2, i + k).columns()[ni].items()]
                eqs += [((e, t), ((p2, q2), t), field.neg(field.one))
                        for t in local[(p2, q2)]]
            keys = [(obj, t) for obj in objs for t in local[obj]]
            sub = kernel(field, keys, eqs)
            slots[(r, k)] = (keys, sub, ["h%d" % i for i in range(sub.dim)])

    def d(k, key):
        "the hom differential objectwise: d f = d_N f - (-1)^k f d_M"
        obj, (i, mi, ni) = key
        w = {(obj, (i, mi, ni2)): x
             for ni2, x in ndiff(obj[1], i + k)[ni].items()}
        nsgn = field.sign(k + 1)
        for mi2, x in mdiff(obj[0], i - 1)[mi].items():
            w[(obj, (i - 1, mi2, ni))] = field.mul(nsgn, x)
        return w

    return induce(field, P, slots, d)


def linear_dual(Z):
    "D(Z) = Hom(Z, unit); closed form dims: DZ^m_r = dual of Z^{-m}_{t - r}"
    return internal_hom(Z, unit_perverse(Z.field, Z.poset))


def p_filtration(field, poset, basis, d, labels):
    """the perverse complex Filt_p = {c : labels(c) <= p and labels(dc) <= p}
    inside the plain complex of the names basis and the differential d;
    labels maps a name to its perversity.  The keys of a slot are the names
    below p"""
    degs = sorted(basis)
    if not degs:
        return PerverseComplex(field, poset)
    kmin, kmax = degs[0], degs[-1]
    slots = {}
    for p in poset.elements:
        below = {k: [x for x in basis.get(k, []) if leq(labels[x], p)]
                 for k in range(kmin, kmax + 3)}
        for k in range(kmin, kmax + 2):
            # kernel of d followed by the projection to the labels not <= p
            ok = set(below[k + 1])
            sub = kernel(field, below[k], [
                (y, x, c) for x in below[k] for y, c in d(x).items()
                if y not in ok])
            slots[(p, k)] = below[k], sub, ["f%d" % i for i in range(sub.dim)]
    return induce(field, poset, slots, lambda k, x: d(x))


def cofibrancy_certificate(Z):
    """sufficient-condition check: all structure maps injective and image
    intersections satisfy the minimum condition
    im(q1 -> p) & im(q2 -> p) = im(min(q1,q2) -> p), checked on the
    diamonds (m, x, y, j) under each p only.

    Z must be functorial (`validate()` checks it; `induce` builds such a
    complex).  Fix p and write F(q) = im(q -> p) for q <= p.  Then F is
    monotone, so F(a & b) lies in F(a) & F(b), and the two are equal
    exactly when rank(a & b -> p) = rank(a -> p) + rank(b -> p) - the rank
    of the two column lists together.  For a diamond x & y = m.

    The condition holds on every pair a, b <= p once it holds on every
    diamond under p.  By induction on rank(a) + rank(b) - 2 rank(a & b),
    rank the sum of the entries; a pair with a <= b or b <= a holds.  Say
    e = a & b lies under both strictly.  If a does not cover e, take c
    with e < c < a, a covering c, and d = c | b, which is <= p.
    Distributivity gives a & d = (a & c) | (a & b) = c, and c & b = e.  The
    modular law rank(c | b) + rank(c & b) = rank(c) + rank(b) makes the
    rank sums of (a, d) and (c, b) smaller by rank(c) - rank(e) and
    rank(a) - rank(c).  So, as b <= d, F(a) & F(b) lies in
    F(a) & F(d) = F(c), hence in F(c) & F(b) = F(e).  If b does not cover
    e, swap a and b.  If both cover e, then a = e + e_i and b = e + e_k
    for i != k, and (e, a, b, a | b) is a diamond under p.  So a p has a
    failing pair exactly when it has a failing diamond, and a failure is
    reported as ("minimum", x, y, p, k) of the diamond."""
    P = Z.poset
    degs = Z.degrees()

    failures = []
    injective = True
    covers = P.covers()
    for (p, q) in covers:
        for k in degs:
            f = Z.cover_map(p, q, k)
            if f.rank() != Z.dim(p, k):
                injective = False
                failures.append(("injectivity", p, q, k))
    minimum = True
    checks = 0
    for p in P.elements:
        squares = P.diamonds(p)
        checks += len(squares) * len(degs)
        # the rank of each composite into p that the diamonds read, once
        rank = {(q, k): Z.structure_map(q, p, k).rank()
                for q in {q for s in squares for q in s[:3]} for k in degs}
        for m, x, y, _ in squares:
            for k in degs:
                joint = len(pivot_rows(
                    Z.field, Z.structure_map(x, p, k).columns()
                    + Z.structure_map(y, p, k).columns()))
                if rank[m, k] != rank[x, k] + rank[y, k] - joint:
                    minimum = False
                    failures.append(("minimum", x, y, p, k))
    return {
        "injective": injective,
        "minimum_condition": minimum,
        "cofibrant_sufficient": injective and minimum,
        "injective_checks": len(covers) * len(degs),
        "minimum_checks": checks,
        "failures": failures,
    }
