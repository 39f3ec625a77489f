"""Perverse chain complexes: functors from the perversity poset to complexes.

Grading is upper (cohomological), the differential has degree +1.  A
PerverseComplex stores, for each perversity p and degree k, a list of basis
labels, the differential matrix into (p, k+1), and structure-map matrices for
covering pairs p < q.  `perverse cofibrancy` builds one: the p-filtration of
a labeled complex, the subcomplex below each perversity, and checks the
sufficient cofibrancy certificate on it.

A plain complex enters as its names and its differential: `basis` maps a
degree k to its list of names, and `d(name)` is the differential of one
name of degree k, a vector over names of degree k + 1; a labeled complex
also has `labels`, a perversity per name.

A construction states each slot over some ambient keys, as the
`linalg.kernel` of equations on their span, and gives the differential of
one key; `induce` builds the complex from that: the basis, the slot's d and
the structure maps, which send each key to itself.
"""

import functools

from .linalg import SparseMatrix, pivot_rows, linear, kernel
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

    Z must be functorial, as every complex `induce` builds is.  Fix p and
    write F(q) = im(q -> p) for q <= p.  Then F is monotone, so F(a & b)
    lies in F(a) & F(b), and the two are equal exactly when
    rank(a & b -> p) = rank(a -> p) + rank(b -> p) - the rank of the two
    column lists together.  For a diamond x & y = m.

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
