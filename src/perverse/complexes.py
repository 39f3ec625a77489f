"""Perverse chain complexes: functors from the perversity poset to complexes.

Grading is upper (cohomological), the differential has degree +1.  A
PerverseComplex stores, for each perversity p and degree k, a list of basis
labels, the differential matrix into (p, k+1), and structure-map matrices for
covering pairs p < q.  Box tensor is computed as a colimit presented by
covering-relation difference maps; internal hom as the matching limit
(kernel); the linear dual is hom into the monoidal unit; a p-filtration as
the subcomplex of a labeled complex below each perversity.

Each of these constructions, and module hom and tensor over a pDGA, presents
a slot as a Quotient or Subspace of the span of some ambient keys and gives
the differential of one key; `induce` turns that into the slot's d and the
structure maps, which send each key to itself.
"""

import functools
import itertools

from .linalg import (SparseMatrix, kernel_basis, span_equal,
                     span_intersection, Quotient, Subspace,
                     homology_dims, linear)
from .poset import leq


class ChainComplex:
    "a plain finite complex: labeled basis per degree, d of degree +1"

    def __init__(self, field, basis=None, d=None):
        self.field = field
        self.basis = dict(basis or {})   # degree -> list of labels
        self.d = dict(d or {})           # degree -> SparseMatrix to degree+1

    def degrees(self):
        return sorted(self.basis.keys())

    def dim(self, k):
        return len(self.basis.get(k, ()))

    def diff(self, k):
        m = self.d.get(k)
        if m is None:
            m = SparseMatrix(self.field, self.dim(k + 1), self.dim(k))
        return m

    def validate(self):
        for k in self.degrees():
            dk = self.diff(k)
            if (dk.nrows, dk.ncols) != (self.dim(k + 1), self.dim(k)):
                raise ValueError("d has the wrong shape at degree %d" % k)
            if not self.diff(k + 1).mul(dk).is_zero():
                raise ValueError("d^2 != 0 at degree %d" % k)

    def homology(self):
        "{k: dim H^k} from the lowest degree to the highest, from ranks"
        degs = self.degrees()
        return homology_dims(self.dim, self.diff, degs[0],
                             degs[-1]) if degs else {}


def point_complex(field, label="e"):
    "the unit complex: one basis vector in degree 0"
    return ChainComplex(field, basis={0: [label]})


class PerverseComplex:
    def __init__(self, field, poset):
        self.field = field
        self.poset = poset
        self.basis = {}  # (p, k) -> list of labels
        self.d = {}      # (p, k) -> SparseMatrix to (p, k+1)
        self.phi = {}    # (p, q, k) -> SparseMatrix, p covered by q

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
        "composite structure map for any p <= q"
        if not leq(p, q):
            raise ValueError("%r is not below %r" % (p, q))
        if p == q:
            return SparseMatrix.identity(self.field, self.dim(p, k))
        path = self.poset.path_up(p, q)
        m = self.cover_map(path[0], path[1], k)
        for a, b in zip(path[1:], path[2:]):
            m = self.cover_map(a, b, k).mul(m)
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
        # functoriality: path independence of composites
        for p in P.elements:
            for q in P.elements:
                if not leq(p, q) or p == q:
                    continue
                for k in self.degrees():
                    base = None
                    for (a, b) in P.covers():
                        if a != p or not leq(b, q):
                            continue
                        m = self._via(a, b, q, k)
                        if base is None:
                            base = m
                        elif m != base:
                            raise ValueError("structure maps not functorial")

    def _via(self, p, mid, q, k):
        rest = self.structure_map(mid, q, k)
        return rest.mul(self.cover_map(p, mid, k))

    def homology(self, p):
        "{k: dim H^k} at p from the lowest degree to the highest, from ranks"
        degs = self.degrees()
        return homology_dims(functools.partial(self.dim, p),
                             functools.partial(self.diff, p), degs[0],
                             degs[-1]) if degs else {}


def free_perverse(field, poset, p, cx):
    """F_p(N): the complex N placed at every perversity >= p, zero below,
    with identity structure maps on the up-set of p."""
    Z = PerverseComplex(field, poset)
    for q in poset.up_set(p):
        for k in cx.degrees():
            Z.basis[(q, k)] = list(cx.basis[k])
            if k in cx.d:
                Z.d[(q, k)] = cx.d[k].copy()
    for (a, b) in poset.covers():
        if leq(p, a):
            for k in cx.degrees():
                Z.phi[(a, b, k)] = SparseMatrix.identity(field, cx.dim(k))
    return Z


def unit_perverse(field, poset):
    return free_perverse(field, poset, poset.zero, point_complex(field))


def induce(out, slots, d):
    """fill out.d and out.phi from an ambient presentation of each slot.

    slots maps (r, k) to (keys, space): the ambient basis keys of the slot
    and the Quotient or Subspace of their span that the slot is.  d(k, key)
    is the ambient differential of one key of degree k, a vector over keys
    of degree k + 1, and a structure map sends each key to itself.  Both are
    carried over keys and then projected onto the target slot; a term on a
    key that the target slot lacks is dropped."""
    F, P = out.field, out.poset
    index = {rk: {key: i for i, key in enumerate(keys)}
             for rk, (keys, _) in slots.items()}
    dkey = functools.cache(d)

    def induced(src, dst, image):
        keys, space = slots[src]
        tindex, tspace = index[dst], slots[dst][1]

        def cut(i):
            "the image of the i-th key, at the keys of dst"
            return {tindex[key]: x for key, x in image(keys[i]).items()
                    if key in tindex}

        return SparseMatrix.from_columns(F, tspace.dim, [
            tspace.project(linear(F, cut, space.include(col)))
            for col in range(space.dim)])

    for (r, k) in slots:
        if (r, k + 1) in slots:
            out.d[(r, k)] = induced((r, k), (r, k + 1),
                                    functools.partial(dkey, k))
        for (a, r2) in P.covers():
            if a == r and (r2, k) in slots:
                out.phi[(r, r2, k)] = induced((r, k), (r2, k),
                                              lambda key: {key: F.one})
    return out


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
    out = PerverseComplex(field, P)
    degs = sorted({i + j for i in Z.degrees() for j in Y.degrees()})
    if not degs:
        return out
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
        edges = {(p, q): [((b, q), 0) for (a, b) in P.covers()
                          if a == p and (b, q) in objset]
                 + [((p, b), 1) for (a, b) in P.covers()
                    if a == q and (p, b) in objset] for (p, q) in objs}
        for k in range(kmin, kmax + 2):
            keys = _box_keys(Z, Y, objs, k)
            index = {key: gi for gi, key in enumerate(keys)}
            rel_cols = []
            for gi, ((p, q), (i, zi, yi)) in enumerate(keys):
                for dst, side in edges[(p, q)]:
                    col = {gi: field.neg(field.one)}
                    if side == 0:
                        for zi2, c in zcov(p, dst[0], i)[zi].items():
                            col[index[(dst, (i, zi2, yi))]] = c
                    else:
                        for yi2, c in ycov(q, dst[1], k - i)[yi].items():
                            col[index[(dst, (i, zi, yi2))]] = c
                    rel_cols.append(col)
            quot = Quotient(field, len(keys), rel_cols)
            slots[(r, k)] = (keys, quot)
            labels = []
            for gi in quot.free:
                (p, q), (i, zi, yi) = keys[gi]
                labels.append((Z.basis[(p, i)][zi], Y.basis[(q, k - i)][yi],
                               p, q, i))
            if labels:
                out.basis[(r, k)] = labels

    def d(k, key):
        "the tensor differential, objectwise"
        obj, (i, zi, yi) = key
        w = {(obj, (i + 1, zi2, yi)): x
             for zi2, x in zdiff(obj[0], i)[zi].items()}
        sgn = field.sign(i)
        for yi2, x in ydiff(obj[1], k - i)[yi].items():
            w[(obj, (i, zi, yi2))] = field.mul(sgn, x)
        return w

    return induce(out, slots, d)


def box_tensor_fulldiagram(Z, Y):
    """oracle variant: same colimit presented with difference maps for every
    relation p <= q in the index poset, not just covering ones"""
    if Z.field != Y.field or Z.poset is not Y.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = Z.field, Z.poset
    out = PerverseComplex(field, P)
    degs = sorted({i + j for i in Z.degrees() for j in Y.degrees()})
    if not degs:
        return out
    kmin, kmax = min(degs), max(degs)
    zmap = functools.cache(lambda p, q, i: Z.structure_map(p, q, i).columns())
    ymap = functools.cache(lambda p, q, j: Y.structure_map(p, q, j).columns())
    for r in P.elements:
        objs = _box_objects(P, r)
        for k in range(kmin, kmax + 1):
            keys = _box_keys(Z, Y, objs, k)
            index = {key: gi for gi, key in enumerate(keys)}
            rel_cols = []
            for gi, ((p, q), (i, zi, yi)) in enumerate(keys):
                for dst in objs:
                    if dst == (p, q) or not (leq(p, dst[0])
                                             and leq(q, dst[1])):
                        continue
                    fy = ymap(q, dst[1], k - i)[yi]
                    col = {gi: field.neg(field.one)}
                    for zi2, cz in zmap(p, dst[0], i)[zi].items():
                        for yi2, cy in fy.items():
                            col[index[(dst, (i, zi2, yi2))]] = \
                                field.mul(cz, cy)
                    rel_cols.append(col)
            quot = Quotient(field, len(keys), rel_cols)
            if quot.dim:
                out.basis[(r, k)] = ["c%d" % i for i in range(quot.dim)]
    return out


def internal_hom(M, N):
    """Hom(M, N)_r = lim over {(p,q): r <= q - p pointwise} of Hom(M_p, N_q),
    presented as the kernel of covering-relation difference maps; the index
    order is (p,q) <= (p',q') iff p' <= p and q <= q'."""
    if M.field != N.field or M.poset is not N.poset:
        raise ValueError("complexes over different fields or posets")
    field, P = M.field, M.poset
    out = PerverseComplex(field, P)
    mdegs, ndegs = M.degrees(), N.degrees()
    if not mdegs or not ndegs:
        return out
    degs = sorted({j - i for i in mdegs for j in ndegs})
    kmin, kmax = min(degs), max(degs)

    def hom_basis(p, q, k):
        "(i, mi, ni): basis vector mi of M_p^i to basis vector ni of N_q^(i+k)"
        return [(i, mi, ni) for i in mdegs for mi in range(M.dim(p, i))
                for ni in range(N.dim(q, i + k))]

    # nonzero entries of each matrix, read once per matrix: a row of the
    # maps out of M, a column of those of N
    mcov = functools.cache(lambda p, q, i: M.cover_map(p, q, i).rows())
    ncov = functools.cache(lambda p, q, j: N.cover_map(p, q, j).columns())
    mdiff = functools.cache(lambda p, i: M.diff(p, i).rows())
    ndiff = functools.cache(lambda q, j: N.diff(q, j).columns())
    slots = {}
    for r in P.elements:
        objs = [(p, q) for p in P.elements for q in P.elements
                if all(c <= b - a for a, b, c in zip(p, q, r))]
        objset = set(objs)
        edges = []
        for (p, q) in objs:
            for (a, b) in P.covers():
                # (p,q) -> (p',q) with p' covered by p (p' <= p)
                if b == p and (a, q) in objset:
                    edges.append(((p, q), (a, q), 0))
                if a == q and (p, b) in objset:
                    edges.append(((p, q), (p, b), 1))
        for k in range(kmin, kmax + 2):
            local = {obj: hom_basis(*obj, k) for obj in objs}
            keys = [(obj, t) for obj in objs for t in local[obj]]
            index = {key: gi for gi, key in enumerate(keys)}
            # difference map: a row (ei, t) per edge ei and key t of its target
            rows = {}
            for ei, (_, dst, _) in enumerate(edges):
                for t in local[dst]:
                    rows[(ei, t)] = len(rows)
            A = SparseMatrix(field, len(rows), len(keys))
            for ei, ((p, q), dst, side) in enumerate(edges):
                for (i, mi, ni) in local[(p, q)]:
                    gi = index[((p, q), (i, mi, ni))]
                    if side == 0:
                        for mi2, c in mcov(dst[0], p, i)[mi].items():
                            A[rows[(ei, (i, mi2, ni))], gi] = c
                    else:
                        for ni2, c in ncov(q, dst[1], i + k)[ni].items():
                            A[rows[(ei, (i, mi, ni2))], gi] = c
                for t in local[dst]:
                    A[rows[(ei, t)], index[(dst, t)]] = field.neg(field.one)
            sub = Subspace(field, kernel_basis(A))
            slots[(r, k)] = (keys, sub)
            if sub.dim:
                out.basis[(r, k)] = ["h%d" % i for i in range(sub.dim)]

    def d(k, key):
        "the hom differential objectwise: d f = d_N f - (-1)^k f d_M"
        obj, (i, mi, ni) = key
        w = {(obj, (i, mi, ni2)): x
             for ni2, x in ndiff(obj[1], i + k)[ni].items()}
        nsgn = field.sign(k + 1)
        for mi2, x in mdiff(obj[0], i - 1)[mi].items():
            w[(obj, (i - 1, mi2, ni))] = field.mul(nsgn, x)
        return w

    return induce(out, slots, d)


def linear_dual(Z):
    "D(Z) = Hom(Z, unit); closed form dims: DZ^m_r = dual of Z^{-m}_{t - r}"
    return internal_hom(Z, unit_perverse(Z.field, Z.poset))


def p_filtration(field, poset, cx, labels_perv):
    """the perverse complex Filt_p = {c : labels(c) <= p and labels(dc) <= p}
    inside a plain labeled complex; labels_perv maps basis label -> perversity.
    The keys of a slot are the indices of the basis labels below p"""
    Z = PerverseComplex(field, poset)
    degs = cx.degrees()
    if not degs:
        return Z
    kmin, kmax = min(degs), max(degs)
    dcols = functools.cache(lambda k: cx.diff(k).columns())
    slots = {}
    for p in poset.elements:
        below = {k: [i for i, l in enumerate(cx.basis.get(k, []))
                     if leq(labels_perv[l], p)] for k in range(kmin, kmax + 3)}
        for k in range(kmin, kmax + 2):
            # kernel of d followed by the projection to the labels not <= p
            ok = set(below[k + 1])
            A = SparseMatrix.from_columns(
                field, cx.dim(k + 1),
                [{i: c for i, c in dcols(k)[j].items() if i not in ok}
                 for j in below[k]])
            sub = Subspace(field, kernel_basis(A))
            slots[(p, k)] = (below[k], sub)
            if sub.dim:
                Z.basis[(p, k)] = ["f%d" % i for i in range(sub.dim)]
    return induce(Z, slots, lambda k, j: dcols(k)[j])


def cofibrancy_certificate(Z):
    """sufficient-condition check: all structure maps injective and image
    intersections satisfy the minimum condition
    im(q1 -> p) & im(q2 -> p) = im(min(q1,q2) -> p)"""
    P = Z.poset
    field = Z.field
    failures = []
    injective = True
    for (p, q) in P.covers():
        for k in Z.degrees():
            f = Z.cover_map(p, q, k)
            if f.rank() != Z.dim(p, k):
                injective = False
                failures.append(("injectivity", p, q, k))
    minimum = True
    for p in P.elements:
        below = [q for q in P.elements if leq(q, p) and q != p]
        for q1, q2 in itertools.combinations(below, 2):
            m = P.meet(q1, q2)
            for k in Z.degrees():
                n = Z.dim(p, k)
                c1 = Z.structure_map(q1, p, k).columns()
                c2 = Z.structure_map(q2, p, k).columns()
                cm = Z.structure_map(m, p, k).columns()
                inter = span_intersection(field, n, c1, c2)
                if not span_equal(field, inter, cm):
                    minimum = False
                    failures.append(("minimum", q1, q2, p, k))
    return {
        "injective": injective,
        "minimum_condition": minimum,
        "cofibrant_sufficient": injective and minimum,
        "failures": failures,
    }
