"""Exact sparse linear algebra over Q and F_p.

Vectors are dicts {index: nonzero scalar}.  Matrices are lists of column
vectors, and `linear` and `bilinear` extend a map of basis elements to
vectors.  There is one elimination, `Echelon`: a forward-only
column reduction, columns in input order, that never revisits a stored
column, with optional bookkeeping of the combination of input columns behind
each stored column.  Rank, kernel, solutions, membership and coordinates are
read off it; a normal form modulo a span eliminates every pivot row.  Every
object read is canonical.  A kernel vector is e_j minus the unique
combination of the earlier independent columns, whatever the pivot rule.  A
normal form depends only on the span and its pivot rows, so `Quotient` and
`Subquotient`, whose coordinates and representatives are normal forms, fix
the rule: a pivot is the first nonzero row.  Everything is exact; no floats
anywhere.
"""


def vec_iadd(field, out, v, c=None):
    """add v, times c when c is given, into the dict out in place and
    return out; entries that become zero are dropped and v is not changed.
    out must be a dict the caller built, never one it was handed"""
    if c is not None and field.iszero(c):
        return out
    zero = field.zero
    for i, x in v.items():
        if c is not None:
            x = field.mul(c, x)
        y = field.add(out.get(i, zero), x)
        if field.iszero(y):
            out.pop(i, None)
        else:
            out[i] = y
    return out


def vec_add(field, u, v):
    return vec_iadd(field, dict(u), v)


def vec_scale(field, c, u):
    if field.iszero(c):
        return {}
    return {i: field.mul(c, x) for i, x in u.items()}


def vec_sub(field, u, v):
    return vec_iadd(field, dict(u), v, field.neg(field.one))


def linear(field, f, v):
    """the linear extension of the basis map f to the vector v: the sum of
    c f(x) over the terms c x of v, in a new dict"""
    out = {}
    for x, c in v.items():
        vec_iadd(field, out, f(x), c)
    return out


def bilinear(field, f, u, v):
    """the bilinear extension of the map f of two basis elements to the
    vectors u and v, u's terms outermost, in a new dict"""
    out = {}
    for x, cx in u.items():
        for y, cy in v.items():
            vec_iadd(field, out, f(x, y), field.mul(cx, cy))
    return out


class SparseMatrix:
    """A linear map R^ncols -> R^nrows, stored as its list of column
    vectors {row: scalar}."""

    def __init__(self, field, nrows, ncols, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [{} for _ in range(ncols)]
        for (i, j), x in (entries or {}).items():
            self[i, j] = x

    def __setitem__(self, ij, x):
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise ValueError("entry %r outside a %dx%d matrix"
                             % (ij, self.nrows, self.ncols))
        if self.field.iszero(x):
            self.cols[j].pop(i, None)
        else:
            self.cols[j][i] = x

    def __getitem__(self, ij):
        i, j = ij
        return self.cols[j].get(i, self.field.zero)

    def __eq__(self, other):
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.cols == other.cols

    def is_zero(self):
        return not any(self.cols)

    def copy(self):
        return _stored(self.field, self.nrows, [dict(c) for c in self.cols])

    @property
    def entries(self):
        """the nonzero entries {(row, col): scalar}, built on each read;
        no module of the library reads them, perfbench's trace counts them"""
        return {(i, j): x for j, col in enumerate(self.cols)
                for i, x in col.items()}

    @classmethod
    def from_columns(cls, field, nrows, cols):
        "the matrix of the given column vectors; zero entries are dropped"
        cols = [{i: x for i, x in col.items() if not field.iszero(x)}
                for col in cols]
        bad = [(i, j) for j, col in enumerate(cols) for i in col
               if not 0 <= i < nrows]
        if bad:
            raise ValueError("entry %r outside a %dx%d matrix"
                             % (bad[0], nrows, len(cols)))
        return _stored(field, nrows, cols)

    @classmethod
    def identity(cls, field, n):
        return _stored(field, n, [{i: field.one} for i in range(n)])

    def columns(self):
        "the stored column vectors, which the caller only reads"
        return self.cols

    def rows(self):
        rows = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                rows[i][j] = x
        return rows

    def apply(self, v):
        "matrix-vector product; v is a dict over column indices"
        return linear(self.field, self.cols.__getitem__, v)

    def mul(self, other):
        "self o other"
        if self.ncols != other.nrows:
            raise ValueError("cannot compose %dx%d after %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        return _stored(self.field, self.nrows,
                       [self.apply(col) for col in other.cols])

    def rank(self):
        "the number of columns an Echelon accepts, fed in column order"
        ech = Echelon(self.field)
        for col in self.cols:
            ech.add(col)
        return len(ech.cols)


def _stored(field, nrows, cols):
    """the matrix whose columns are the vectors cols, stored as they are:
    each a dict of nonzero scalars at rows below nrows that nothing else
    changes"""
    A = SparseMatrix(field, nrows, 0)
    A.ncols, A.cols = len(cols), cols
    return A


class Echelon:
    """A forward-only column echelon form, built one vector at a time.

    The pivot of a vector is its last nonzero row, or its first with
    `first`.  `add` reduces a vector by the stored columns until its pivot
    row is new, then stores it with a 1 there; a stored column is never
    changed again, so it is zero at every row past its pivot (before it,
    with `first`).  With `track`, each stored column also carries the
    combination of tagged input vectors it equals, and each dependent
    tagged input leaves a relation in `kernel`: e_tag minus its combination
    of earlier inputs.
    """

    def __init__(self, field, track=False, first=False):
        self.field = field
        self.track = track
        self.first = first
        self.cols = {}    # pivot row -> column dict, in insertion order
        self.combos = {}  # pivot row -> {tag: scalar}
        self.kernel = []  # relations among the tagged inputs

    def lead(self, v):
        """reduce v until its pivot row is new or v is 0; returns the
        residual and, with `track`, the combination of tagged inputs that
        v exceeds it by (None without `track`)"""
        F, cols, combos = self.field, self.cols, self.combos
        pick = min if self.first else max
        v = dict(v)
        combo = {} if self.track else None
        while v:
            p = pick(v)
            col = cols.get(p)
            if col is None:
                break
            c = v[p]
            vec_iadd(F, v, col, F.neg(c))
            if combo is not None:
                vec_iadd(F, combo, combos[p], c)
        return v, combo

    def add(self, v, tag=None):
        "insert v; returns the new pivot row, or None if v was dependent"
        F = self.field
        r, combo = self.lead(v)
        if not r:
            if self.track:
                k = {t: F.neg(x) for t, x in combo.items()}
                k[tag] = F.one
                self.kernel.append(k)
            return None
        p = min(r) if self.first else max(r)
        cinv = F.inv(r[p])
        self.cols[p] = vec_scale(F, cinv, r)
        if self.track:
            # the residual is v - combo; store its tag combination, scaled
            combo = vec_scale(F, F.neg(cinv), combo)
            combo[tag] = cinv
            self.combos[p] = combo
        return p

    def contains(self, v):
        return not self.lead(v)[0]

    def reduce(self, v):
        """the normal form of v: v minus the vector of the span that agrees
        with it on every pivot row.  Eliminating a pivot row only changes
        rows past it, so v is walked in pivot order, keeping the rows that
        are not pivots"""
        F, cols = self.field, self.cols
        pick = min if self.first else max
        v, out = dict(v), {}
        while v:
            p = pick(v)
            if p in cols:
                vec_iadd(F, v, cols[p], F.neg(v[p]))
            else:
                out[p] = v.pop(p)
        return out


def kernel_basis(A):
    "basis of ker(A), as vectors over column indices, in column order"
    ech = Echelon(A.field, track=True)
    for j, col in enumerate(A.columns()):
        ech.add(col, tag=j)
    return ech.kernel


def solve(A, b):
    "one solution x of A x = b, or None if inconsistent"
    ech = Echelon(A.field, track=True)
    for j, col in enumerate(A.columns()):
        ech.add(col, tag=j)
    r, combo = ech.lead(b)
    return None if r else combo


def span_equal(field, cols1, cols2):
    e1 = Echelon(field)
    for c in cols1:
        e1.add(c)
    e2 = Echelon(field)
    for c in cols2:
        e2.add(c)
    return all(e1.contains(c) for c in cols2) and all(e2.contains(c) for c in cols1)


def span_intersection(field, n, cols1, cols2):
    "basis of span(cols1) & span(cols2)"
    m1 = len(cols1)
    A = SparseMatrix.from_columns(field, n, list(cols1) + [
        vec_scale(field, field.minus_one, c) for c in cols2])
    out = Echelon(field)
    for k in kernel_basis(A):
        out.add(linear(field, cols1.__getitem__,
                       {j: c for j, c in k.items() if j < m1}))
    return list(out.cols.values())


def homology_dims(dim, diff, lo, hi):
    """{q: dim(q) - rank diff(q) - rank diff(q - 1)} for q = lo..hi: the
    homology dimensions of a complex with dim(q)-dimensional terms and
    differentials diff(q) out of degree q; each rank is computed once"""
    rank = {q: diff(q).rank() for q in range(lo - 1, hi + 1)}
    return {q: dim(q) - rank[q] - rank[q - 1] for q in range(lo, hi + 1)}


class Quotient:
    """R^n modulo the span of some columns, with canonical representatives.

    Representative coordinates are the ambient rows that are not the first
    nonzero row of any vector of the span.
    """

    def __init__(self, field, n, span_cols):
        self.field = field
        self.n = n
        self.ech = Echelon(field, first=True)
        for c in span_cols:
            self.ech.add(c)
        self.free = [i for i in range(n) if i not in self.ech.cols]
        self.index = {row: k for k, row in enumerate(self.free)}

    @property
    def dim(self):
        return len(self.free)

    def project(self, v):
        "coordinates of the class of v, as a dict over 0..dim-1"
        return {self.index[i]: x for i, x in self.ech.reduce(v).items()}

    def include(self, k):
        "ambient representative of the k-th quotient basis vector"
        return {self.free[k]: self.field.one}


class Subspace:
    """the span of some independent columns of R^n, with the interface of
    Quotient: include gives a basis vector, project its coordinates"""

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

    def project(self, v):
        "coordinates of v, which must lie in the subspace, as a dict"
        res, combo = self.ech.lead(v)
        if res:
            raise ValueError("vector not in subspace")
        return combo

    def include(self, k):
        "the k-th basis vector"
        return self.cols[k]


class Subquotient:
    """ker(d_out) / im(d_in) inside R^n, with representatives and coordinates."""

    def __init__(self, field, n, d_out, d_in=None):
        self.field = field
        self.n = n
        if d_out.ncols != n:
            raise ValueError("outgoing differential has %d columns, not %d"
                             % (d_out.ncols, n))
        cycles = kernel_basis(d_out)
        # a representative is a normal form modulo the image, zero at the
        # first nonzero row of every boundary
        self.bech = Echelon(field, first=True)
        if d_in is not None:
            if d_in.nrows != n:
                raise ValueError("incoming differential has %d rows, not %d"
                                 % (d_in.nrows, n))
            for c in d_in.columns():
                self.bech.add(c)
        self.rech = Echelon(field, track=True)
        self.reps = []
        for z in cycles:
            r = self.bech.reduce(z)
            if r and self.rech.add(r, tag=len(self.reps)) is not None:
                self.reps.append(r)

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, v):
        "coordinates of the class of the cycle v in the representative basis"
        res, combo = self.rech.lead(self.bech.reduce(v))
        if res:
            raise ValueError("vector is not a cycle modulo boundaries")
        return combo

    def is_boundary(self, v):
        return self.bech.contains(v)


class SlotComplex:
    """A family of finite cochain complexes indexed by slots (r, q): a
    perversity r and a degree q, with a differential from (r, q) to
    (r, q + 1).

    A subclass supplies `slot_basis(r, q)`, the list of basis keys of a
    slot, and `D_key(key)`, the image of one basis key under the
    differential, a vector that does not depend on the slot.  This class
    caches each image once per key and each basis and matrix once per slot,
    together with the slot's homology, and translates between sparse
    vectors over basis keys {key: scalar} and vectors over slot indices.
    """

    # a truncated complex drops the terms of an image that leave the target
    # slot; any other complex refuses them, since there labels only
    # decrease under D and the image of a key stays inside its slot
    truncated = False

    def __init__(self, field):
        self.field = field
        self._bases = {}
        self._indices = {}
        self._images = {}
        self._mats = {}
        self._homs = {}

    def basis(self, r, q):
        "the basis keys of slot (r, q), in the order of its coordinates"
        key = (r, q)
        if key not in self._bases:
            b = self.slot_basis(r, q)
            self._bases[key] = b
            self._indices[key] = {k: i for i, k in enumerate(b)}
        return self._bases[key]

    def index(self, r, q):
        "{basis key: coordinate} of slot (r, q)"
        self.basis(r, q)
        return self._indices[(r, q)]

    def image(self, key):
        "the cached D_key(key), computed once for every slot that holds key"
        if key not in self._images:
            self._images[key] = self.D_key(key)
        return self._images[key]

    def matrix(self, r, q):
        """the differential from (r, q) to (r, q + 1): its j-th column is
        the image of the j-th basis key, read at the keys of (r, q + 1)"""
        idx = self.index(r, q + 1)
        cols = []
        for key in self.basis(r, q):
            img = self.image(key)
            col = {idx[k]: c for k, c in img.items() if k in idx}
            if len(col) < len(img) and not self.truncated:
                raise ValueError("the differential of %r leaves slot %r"
                                 % (key, (r, q + 1)))
            cols.append(col)
        return _stored(self.field, len(idx), cols)

    def differential(self, r, q):
        "the cached matrix of the differential from (r, q) to (r, q + 1)"
        key = (r, q)
        if key not in self._mats:
            self._mats[key] = self.matrix(r, q)
        return self._mats[key]

    def dims(self, r, lo, hi):
        "{q: dim H^q} at r for the degrees lo..hi, from ranks"
        return homology_dims(lambda q: len(self.basis(r, q)),
                             lambda q: self.differential(r, q), lo, hi)

    def homology(self, r, q):
        "the cached Subquotient ker / im at slot (r, q)"
        key = (r, q)
        if key not in self._homs:
            self._homs[key] = Subquotient(
                self.field, len(self.basis(r, q)),
                d_out=self.differential(r, q),
                d_in=self.differential(r, q - 1))
        return self._homs[key]

    def _coordinates(self, r, q, vec):
        """vec over basis keys as a vector over slot coordinates; zero
        entries are dropped, a nonzero entry outside the slot raises"""
        idx = self.index(r, q)
        out = {}
        for key, c in vec.items():
            if self.field.iszero(c):
                continue
            if key not in idx:
                raise ValueError("%r is not in the basis of slot %r"
                                 % (key, (r, q)))
            out[idx[key]] = c
        return out

    def representatives(self, r, q):
        "the homology basis of slot (r, q), as vectors over basis keys"
        b = self.basis(r, q)
        return [{b[i]: c for i, c in rep.items()}
                for rep in self.homology(r, q).reps]

    def coords_of(self, r, q, vec):
        "homology coordinates of the cycle vec in the representative basis"
        return self.homology(r, q).coords(self._coordinates(r, q, vec))

    def is_boundary(self, r, q, vec):
        return self.homology(r, q).is_boundary(self._coordinates(r, q, vec))
