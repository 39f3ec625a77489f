"""Perverse chain complexes: functors from the perversity poset to complexes.

Grading is upper (cohomological), the differential has degree +1.  A
PerverseComplex stores, for each perversity p and degree k, a list of basis
labels, the differential matrix into (p, k+1), and structure-map matrices for
covering pairs p < q.  Box tensor is computed as a colimit presented by
covering-relation difference maps; internal hom as the matching limit
(kernel); the linear dual is hom into the monoidal unit.
"""

import functools
import itertools

from .linalg import (SparseMatrix, Echelon, kernel_basis, span_equal,
                     span_intersection, Quotient, Subquotient, vec_iadd)
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
        out = {}
        degs = self.degrees()
        for k in range(min(degs), max(degs) + 1) if degs else []:
            H = Subquotient(self.field, self.dim(k),
                            d_out=self.diff(k), d_in=self.diff(k - 1))
            out[k] = H.dim
        return out


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
        out = {}
        degs = self.degrees()
        if not degs:
            return out
        for k in range(min(degs), max(degs) + 1):
            H = Subquotient(self.field, self.dim(p, k),
                            d_out=self.diff(p, k), d_in=self.diff(p, k - 1))
            out[k] = H.dim
        return out


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


class _Blocks:
    """a direct sum indexing: each block key owns a basis (a list of basis
    keys), laid out from an offset in one flat coordinate space"""

    def __init__(self):
        self.offset = {}
        self.basis = {}
        self._index = {}
        self._where = []     # flat coordinate -> (block key, local index)
        self.total = 0

    def add(self, key, basis):
        self.offset[key] = self.total
        self.basis[key] = basis
        self._index[key] = {b: i for i, b in enumerate(basis)}
        self._where.extend((key, i) for i in range(len(basis)))
        self.total += len(basis)

    def glob(self, key, local):
        return self.offset[key] + local

    def locate(self, key, b):
        "the flat coordinate of basis key b of block key"
        return self.offset[key] + self._index[key][b]

    def split(self, gidx):
        "the (block key, local index) of a flat coordinate"
        if not 0 <= gidx < self.total:
            raise IndexError(gidx)
        return self._where[gidx]


def _pair_basis(Z, Y, p, q, k):
    "basis of (Z_p tensor Y_q)^k as (zdeg, zidx, yidx) triples"
    out = []
    for i in Z.degrees():
        j = k - i
        for zi in range(Z.dim(p, i)):
            for yi in range(Y.dim(q, j)):
                out.append((i, zi, yi))
    return out


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

    data = {}  # (r, k) -> (blocks, quotient)
    # nonzero entries of each matrix, read once per matrix
    zcov = functools.cache(lambda p, q, i: Z.cover_map(p, q, i).columns())
    ycov = functools.cache(lambda p, q, j: Y.cover_map(p, q, j).columns())
    zdiff = functools.cache(lambda p, i: Z.diff(p, i).columns())
    ydiff = functools.cache(lambda q, j: Y.diff(q, j).columns())
    for r in P.elements:
        objs = [(p, q) for p in P.elements for q in P.elements
                if all(a + b <= c for a, b, c in zip(p, q, r))]
        edges = []
        objset = set(objs)
        for (p, q) in objs:
            for (a, b) in P.covers():
                if a == p and (b, q) in objset:
                    edges.append(((p, q), (b, q), 0))
                if a == q and (p, b) in objset:
                    edges.append(((p, q), (p, b), 1))
        for k in range(kmin, kmax + 2):
            blocks = _Blocks()
            for (p, q) in objs:
                blocks.add((p, q), _pair_basis(Z, Y, p, q, k))
            rel_cols = []
            for (src, dst, side) in edges:
                p, q = src
                for li, (i, zi, yi) in enumerate(blocks.basis[src]):
                    col = {blocks.glob(src, li): field.neg(field.one)}
                    if side == 0:
                        for zi2, c in zcov(p, dst[0], i)[zi].items():
                            vec_iadd(field, col,
                                     {blocks.locate(dst, (i, zi2, yi)): c})
                    else:
                        for yi2, c in ycov(q, dst[1], k - i)[yi].items():
                            vec_iadd(field, col,
                                     {blocks.locate(dst, (i, zi, yi2)): c})
                    if col:
                        rel_cols.append(col)
            quot = Quotient(field, blocks.total, rel_cols)
            data[(r, k)] = (blocks, quot)
            labels = []
            for gi in quot.free:
                (p, q), li = blocks.split(gi)
                i, zi, yi = blocks.basis[(p, q)][li]
                zl = Z.basis[(p, i)][zi]
                yl = Y.basis[(q, k - i)][yi]
                labels.append((zl, yl, p, q, i))
            if labels:
                out.basis[(r, k)] = labels

    def ambient_diff(r, k, v):
        "tensor differential on the flat coordinate space, objectwise"
        blocks, _ = data[(r, k)]
        tblocks, _ = data[(r, k + 1)]
        w = {}
        for gi, c in v.items():
            obj, li = blocks.split(gi)
            p, q = obj
            i, zi, yi = blocks.basis[obj][li]
            for zi2, x in zdiff(p, i)[zi].items():
                vec_iadd(field, w,
                         {tblocks.locate(obj, (i + 1, zi2, yi)): x}, c)
            sgn = field.sign(i)
            for yi2, x in ydiff(q, k - i)[yi].items():
                vec_iadd(field, w, {tblocks.locate(obj, (i, zi, yi2)):
                                    field.mul(sgn, x)}, c)
        return w

    for r in P.elements:
        for k in range(kmin, kmax + 1):
            _, quot = data[(r, k)]
            _, tquot = data[(r, k + 1)]
            m = SparseMatrix(field, tquot.dim, quot.dim)
            for col in range(quot.dim):
                w = ambient_diff(r, k, quot.include(col))
                for row, c in tquot.project(w).items():
                    m[row, col] = c
            out.d[(r, k)] = m
    for (r, r2) in P.covers():
        for k in range(kmin, kmax + 2):
            blocks, quot = data[(r, k)]
            blocks2, quot2 = data[(r2, k)]
            m = SparseMatrix(field, quot2.dim, quot.dim)
            for col in range(quot.dim):
                v = quot.include(col)
                w = {}
                for gi, c in v.items():
                    obj, li = blocks.split(gi)
                    w[blocks2.glob(obj, li)] = c
                for row, c in quot2.project(w).items():
                    m[row, col] = c
            out.phi[(r, r2, k)] = m
    return out


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
        objs = [(p, q) for p in P.elements for q in P.elements
                if all(a + b <= c for a, b, c in zip(p, q, r))]
        edges = [(s, t) for s in objs for t in objs
                 if s != t and leq(s[0], t[0]) and leq(s[1], t[1])]
        for k in range(kmin, kmax + 1):
            blocks = _Blocks()
            for obj in objs:
                blocks.add(obj, _pair_basis(Z, Y, obj[0], obj[1], k))
            rel_cols = []
            for (src, dst) in edges:
                p, q = src
                for li, (i, zi, yi) in enumerate(blocks.basis[src]):
                    fy = ymap(q, dst[1], k - i)[yi]
                    col = {blocks.glob(src, li): field.neg(field.one)}
                    for zi2, cz in zmap(p, dst[0], i)[zi].items():
                        for yi2, cy in fy.items():
                            vec_iadd(field, col,
                                     {blocks.locate(dst, (i, zi2, yi2)):
                                      field.mul(cz, cy)})
                    if col:
                        rel_cols.append(col)
            quot = Quotient(field, blocks.total, rel_cols)
            if quot.dim:
                out.basis[(r, k)] = ["c%d" % i for i in range(quot.dim)]
    return out


class _Subspace:
    "a subspace of a flat coordinate space, with coordinates in its basis"

    def __init__(self, field, cols):
        self.field = field
        self.cols = cols
        self.ech = Echelon(field, track=True)
        for i, c in enumerate(cols):
            if self.ech.add(c, tag=i) is None:
                raise ValueError("subspace basis not independent")

    @property
    def dim(self):
        return len(self.cols)

    def coords(self, v):
        res, combo = self.ech.reduce(v, want_combo=True)
        if res:
            raise ValueError("vector not in subspace")
        return combo


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
        out2 = []
        for i in mdegs:
            for mi in range(M.dim(p, i)):
                for ni in range(N.dim(q, i + k)):
                    out2.append((i, mi, ni))
        return out2

    data = {}
    # nonzero entries of each matrix, read once per matrix: a row of the
    # maps out of M, a column of those of N
    mcov = functools.cache(lambda p, q, i: M.cover_map(p, q, i).rows())
    ncov = functools.cache(lambda p, q, j: N.cover_map(p, q, j).columns())
    mdiff = functools.cache(lambda p, i: M.diff(p, i).rows())
    ndiff = functools.cache(lambda q, j: N.diff(q, j).columns())
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
            blocks = _Blocks()
            for obj in objs:
                blocks.add(obj, hom_basis(obj[0], obj[1], k))
            # difference map: rows = edge targets, cols = objects
            rows = _Blocks()
            for ei, (src, dst, side) in enumerate(edges):
                rows.add(ei, blocks.basis[dst])
            A = SparseMatrix(field, rows.total, blocks.total)
            for ei, (src, dst, side) in enumerate(edges):
                p, q = src
                for li, (i, mi, ni) in enumerate(blocks.basis[src]):
                    gi = blocks.glob(src, li)
                    if side == 0:
                        for mi2, c in mcov(dst[0], p, i)[mi].items():
                            ri = rows.locate(ei, (i, mi2, ni))
                            A[ri, gi] = field.add(A[ri, gi], c)
                    else:
                        for ni2, c in ncov(q, dst[1], i + k)[ni].items():
                            ri = rows.locate(ei, (i, mi, ni2))
                            A[ri, gi] = field.add(A[ri, gi], c)
                for li2 in range(len(blocks.basis[dst])):
                    gi2 = blocks.glob(dst, li2)
                    A[rows.glob(ei, li2), gi2] = \
                        field.sub(A[rows.glob(ei, li2), gi2], field.one)
            ker = kernel_basis(A)
            sub = _Subspace(field, ker)
            data[(r, k)] = (blocks, sub)
            if ker:
                out.basis[(r, k)] = ["h%d" % i for i in range(len(ker))]

    def ambient_diff(r, k, v):
        "hom differential objectwise: d f = d_N f - (-1)^k f d_M"
        blocks, _ = data[(r, k)]
        tblocks, _ = data[(r, k + 1)]
        nsgn = field.sign(k + 1)  # -(-1)^k
        w = {}
        for gi, c in v.items():
            obj, li = blocks.split(gi)
            p, q = obj
            i, mi, ni = blocks.basis[obj][li]
            for ni2, x in ndiff(q, i + k)[ni].items():
                vec_iadd(field, w, {tblocks.locate(obj, (i, mi, ni2)): x}, c)
            if i - 1 in mdegs:
                for mi2, x in mdiff(p, i - 1)[mi].items():
                    vec_iadd(field, w, {tblocks.locate(obj, (i - 1, mi2, ni)):
                                        field.mul(nsgn, x)}, c)
        return w

    for r in P.elements:
        for k in range(kmin, kmax + 1):
            _, sub = data[(r, k)]
            _, tsub = data[(r, k + 1)]
            m = SparseMatrix(field, tsub.dim, sub.dim)
            for col in range(sub.dim):
                w = ambient_diff(r, k, sub.cols[col])
                for row, c in tsub.coords(w).items():
                    m[row, col] = c
            out.d[(r, k)] = m
    for (r, r2) in P.covers():
        for k in range(kmin, kmax + 2):
            blocks, sub = data[(r, k)]
            blocks2, sub2 = data[(r2, k)]
            m = SparseMatrix(field, sub2.dim, sub.dim)
            for col in range(sub.dim):
                v = sub.cols[col]
                w = {}
                for gi, c in v.items():
                    obj, li = blocks.split(gi)
                    if obj in blocks2.offset:
                        w[blocks2.glob(obj, li)] = c
                for row, c in sub2.coords(w).items():
                    m[row, col] = c
            out.phi[(r, r2, k)] = m
    return out


def linear_dual(Z):
    "D(Z) = Hom(Z, unit); closed form dims: DZ^m_r = dual of Z^{-m}_{t - r}"
    return internal_hom(Z, unit_perverse(Z.field, Z.poset))


def p_filtration(field, poset, cx, labels_perv):
    """the perverse complex Filt_p = {c : labels(c) <= p and labels(dc) <= p}
    inside a plain labeled complex; labels_perv maps basis label -> perversity"""
    Z = PerverseComplex(field, poset)
    data = {}
    degs = cx.degrees()
    if not degs:
        return Z
    kmin, kmax = min(degs), max(degs)
    for p in poset.elements:
        for k in range(kmin, kmax + 2):
            labs = cx.basis.get(k, [])
            allowed = [i for i, l in enumerate(labs) if leq(labels_perv[l], p)]
            nxt = cx.basis.get(k + 1, [])
            bad_next = [i for i, l in enumerate(nxt) if not leq(labels_perv[l], p)]
            # kernel of (project to disallowed rows) o d on span(allowed)
            dk = cx.diff(k)
            A = SparseMatrix(field, len(bad_next), len(allowed))
            for cidx, j in enumerate(allowed):
                for ridx, i in enumerate(bad_next):
                    A[ridx, cidx] = dk[i, j]
            cols = []
            for kv in kernel_basis(A):
                cols.append({allowed[j]: c for j, c in kv.items()})
            sub = _Subspace(field, cols)
            data[(p, k)] = sub
            if sub.dim:
                Z.basis[(p, k)] = ["f%d" % i for i in range(sub.dim)]
    for p in poset.elements:
        for k in range(kmin, kmax + 1):
            sub, tsub = data[(p, k)], data[(p, k + 1)]
            m = SparseMatrix(field, tsub.dim, sub.dim)
            dk = cx.diff(k)
            for col in range(sub.dim):
                w = dk.apply(sub.cols[col])
                for row, c in tsub.coords(w).items():
                    m[row, col] = c
            Z.d[(p, k)] = m
    for (p, q) in poset.covers():
        for k in range(kmin, kmax + 2):
            sub, qsub = data[(p, k)], data[(q, k)]
            m = SparseMatrix(field, qsub.dim, sub.dim)
            for col in range(sub.dim):
                for row, c in qsub.coords(sub.cols[col]).items():
                    m[row, col] = c
            Z.phi[(p, q, k)] = m
    return Z


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
