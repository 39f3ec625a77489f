"""Exact sparse linear algebra over Q and F_p.

Vectors are dicts {index: nonzero scalar}.  Matrices are lists of column
vectors, and `linear` and `bilinear` extend a map of basis elements to
vectors.  There is one elimination, `Echelon`: a forward-only
column reduction, columns in input order, that pivots on the last nonzero
row and never revisits a stored column, with optional bookkeeping of the
combination of input columns behind each stored column.  Rank, kernel,
solutions, membership and coordinates are read off it; a rank in a complex
skips the columns that clearing shows dependent (`pivot_rows`), and a normal
form modulo a span eliminates every pivot row.  There is one space,
`Subquotient`: a span of vectors modulo another, which is every kernel
(`kernel`) and homology the library reads.  Every object read is
canonical: a kernel vector is e_j minus the unique combination of the
earlier independent columns, and a normal form depends only on the span.
Everything is exact; no floats anywhere.
"""

import functools


def vec_iadd(field, out, v, c=None):
    """add v, times c when c is given, into the dict out in place and
    return out; entries that become zero are dropped and v is not changed,
    and a c that is the field's one adds v without a multiplication.  out
    must be a dict the caller built, never one it was handed"""
    if c is field.one:
        c = None
    elif c is not None and field.iszero(c):
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


def signed_sum(field, terms):
    """the sum of (-1)^parity v over the (parity, v) pairs of terms, in a
    new dict: the one pure form of a combination of vectors"""
    out = {}
    for parity, v in terms:
        vec_iadd(field, out, v, field.sign(parity))
    return out


def vec_scale(field, c, u):
    if field.iszero(c):
        return {}
    return {i: field.mul(c, x) for i, x in u.items()}


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

    # a complex keeps many small composites; no per-instance dict
    __slots__ = ("field", "nrows", "ncols", "cols")

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
        "the number of pivot rows of the columns, fed in column order"
        return len(pivot_rows(self.field, self.cols))


def _stored(field, nrows, cols):
    """the matrix whose columns are the vectors cols, stored as they are:
    each a dict of nonzero scalars at rows below nrows that nothing else
    changes"""
    A = SparseMatrix(field, nrows, 0)
    A.ncols, A.cols = len(cols), cols
    return A


class Echelon:
    """A forward-only column echelon form, built one vector at a time.

    The pivot of a vector is its last nonzero row.  `add` reduces a vector
    by the stored columns until its pivot row is new, then stores it with a
    1 there; a stored column is never changed again, so it is zero at every
    row past its pivot.  With `track`, each stored column also carries the
    combination of tagged input vectors it equals, and each dependent
    tagged input leaves a relation in `kernel`: e_tag minus its combination
    of earlier inputs.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.track = track
        self.cols = {}    # pivot row -> column dict, in insertion order
        self.combos = {}  # pivot row -> {tag: scalar}
        self.kernel = []  # relations among the tagged inputs

    def lead(self, v):
        """reduce v until its pivot row is new or v is 0; returns the
        residual and, with `track`, the combination of tagged inputs that
        v exceeds it by (None without `track`)"""
        F, cols, combos = self.field, self.cols, self.combos
        v = dict(v)
        combo = {} if self.track else None
        while v:
            p = max(v)
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
        p = max(r)
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
        rows before it, so v is walked from its last row down, keeping the
        rows that are not pivots"""
        F, cols = self.field, self.cols
        v, out = dict(v), {}
        while v:
            p = max(v)
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


def solver(A):
    """eliminate the columns of A once; returns (rank of A, a function
    taking b to one solution x of A x = b, or None if inconsistent)"""
    ech = Echelon(A.field, track=True)
    for j, col in enumerate(A.columns()):
        ech.add(col, tag=j)

    def solve_for(b):
        r, combo = ech.lead(b)
        return None if r else combo

    return len(ech.cols), solve_for


def solve(A, b):
    "one solution x of A x = b, or None if inconsistent"
    return solver(A)[1](b)


def pivot_rows(field, columns, cleared=()):
    """the pivot rows of an Echelon fed the nonzero vectors of the list
    columns at positions outside `cleared`, in order; their number is the
    rank of the matrix with those columns.

    The pivot rows of a span are the last nonzero rows of its vectors, so
    they and the rank stay the same when the skipped columns lie in the span
    of the others.  That is clearing: in a complex, the pivot rows of the
    differential into a degree index such columns of the one out of it.  A
    pivot row i there heads a boundary, e_i plus earlier rows, which d
    kills, so column i is a combination of the columns before it"""
    ech = Echelon(field)
    for j, col in enumerate(columns):
        if col and j not in cleared:
            ech.add(col)
    return set(ech.cols)


def homology_dims(dim, pivots, lo, hi):
    """{q: dim(q) - rank d_q - rank d_(q - 1)} for q = lo..hi: the homology
    dimensions of a complex with dim(q)-dimensional terms.  pivots(q,
    cleared) gives the pivot rows of d_q, the differential out of degree q,
    as `pivot_rows` does on the columns of d_q; degrees are walked upward and
    `cleared` is the pivot rows of d_(q - 1)"""
    rank, cleared = {}, ()
    for q in range(lo - 1, hi + 1):
        cleared = pivots(q, cleared)
        rank[q] = len(cleared)
    return {q: dim(q) - rank[q] - rank[q - 1] for q in range(lo, hi + 1)}


class Subquotient:
    """the span of the vectors `cycles` modulo the span of `boundaries`.

    Its basis `reps` is the normal forms of the cycles modulo the
    boundaries, of those only the first independent ones, in order; a
    representative is zero at the pivot row of every boundary.  A quotient
    is the unit vectors modulo the relations, a kernel its basis modulo
    nothing, and a homology the cycles modulo the boundaries."""

    def __init__(self, field, cycles, boundaries=()):
        self.bech = Echelon(field)
        for c in boundaries:
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


def kernel(field, keys, equations):
    """the subspace of the span of keys on which the equations vanish,
    given as (row, key, c) terms summed per row and key.  A kernel vector
    is canonical, so the row order does not matter"""
    index = {key: i for i, key in enumerate(keys)}
    rows, cols = {}, [{} for _ in keys]
    for row, key, c in equations:
        vec_iadd(field, cols[index[key]], {rows.setdefault(row, len(rows)): c})
    return Subquotient(field, kernel_basis(
        SparseMatrix.from_columns(field, len(rows), cols)))


class SlotComplex:
    """A family of finite cochain complexes indexed by slots (r, q): a
    perversity r and a degree q, with a differential from (r, q) to
    (r, q + 1).

    A subclass supplies `slot_basis(r, q)`, the list of basis keys of a
    slot, and `D_key(key)`, the image of one basis key under the
    differential, a vector that does not depend on the slot.  So a matrix
    depends on r only through the bases of its two slots.  This class gives
    each distinct basis an id when a slot first builds it, caches each image
    once per key, each matrix and its pivot rows once per pair of ids and each
    homology once per triple, and translates between sparse vectors over
    basis keys {key: scalar} and vectors over slot indices.  Dimension
    tables come from ranks by clearing (`pivot_rows`), which never computes
    the image of a cleared key for them.
    """

    # a truncated complex drops the terms of an image that leave the target
    # slot; any other complex refuses them, since there labels only
    # decrease under D and the image of a key stays inside its slot
    truncated = False

    def __init__(self, field):
        self.field = field
        self._slots = {}    # (r, q) -> basis id
        self._ids = {}      # tuple of basis keys -> basis id
        self._bases = []    # basis id -> tuple of keys
        self._indices = []  # basis id -> {key: coordinate}
        self._images = {}
        self._mats = {}
        self._pivots = {}
        self._homs = {}
        self._hom_at = {}   # (r, q) -> its entry of _homs
        self._reps = {}     # entry of _homs -> its representatives

    def slot(self, r, q):
        "the id of the basis of slot (r, q), shared by every equal basis"
        if (r, q) not in self._slots:
            b = tuple(self.slot_basis(r, q))
            if b not in self._ids:
                self._ids[b] = len(self._bases)
                self._bases.append(b)
                self._indices.append({k: i for i, k in enumerate(b)})
            self._slots[(r, q)] = self._ids[b]
        return self._slots[(r, q)]

    def basis(self, r, q):
        "the basis keys of slot (r, q), in the order of its coordinates"
        return self._bases[self.slot(r, q)]

    def index(self, r, q):
        "{basis key: coordinate} of slot (r, q)"
        return self._indices[self.slot(r, q)]

    def image(self, key):
        "the cached D_key(key), computed once for every slot that holds key"
        if key not in self._images:
            self._images[key] = self.D_key(key)
        return self._images[key]

    def matrix(self, r, q, cleared=()):
        """the differential from (r, q) to (r, q + 1): its j-th column is
        the image of the j-th basis key, read at the keys of (r, q + 1),
        except that a column j in `cleared` is left empty"""
        idx = self.index(r, q + 1)
        cols = []
        for j, key in enumerate(self.basis(r, q)):
            if j in cleared:
                cols.append({})
                continue
            img = self.image(key)
            col = {idx[k]: c for k, c in img.items() if k in idx}
            if len(col) < len(img) and not self.truncated:
                raise ValueError("the differential of %r leaves slot %r"
                                 % (key, (r, q + 1)))
            cols.append(col)
        return _stored(self.field, len(idx), cols)

    def differential(self, r, q):
        "the cached matrix of the differential from (r, q) to (r, q + 1)"
        key = (self.slot(r, q), self.slot(r, q + 1))
        if key not in self._mats:
            self._mats[key] = self.matrix(r, q)
        return self._mats[key]

    def pivots(self, r, q, cleared):
        """the cached pivot rows of the differential out of (r, q), with
        `cleared` the pivot rows of the one into it; when the full matrix is
        not cached, only the columns outside `cleared` are assembled"""
        key = (self.slot(r, q), self.slot(r, q + 1))
        if key not in self._pivots:
            A = self._mats[key] if key in self._mats else \
                self.matrix(r, q, cleared)
            self._pivots[key] = pivot_rows(self.field, A.columns(), cleared)
        return self._pivots[key]

    def dims(self, r, lo, hi):
        "{q: dim H^q} at r for the degrees lo..hi, from ranks"
        return homology_dims(lambda q: len(self.basis(r, q)),
                             functools.partial(self.pivots, r), lo, hi)

    def homology(self, r, q):
        """the cached Subquotient ker / im at slot (r, q), one object for
        every slot with the same three bases"""
        if (r, q) not in self._hom_at:
            key = (self.slot(r, q - 1), self.slot(r, q), self.slot(r, q + 1))
            if key not in self._homs:
                self._homs[key] = Subquotient(
                    self.field, kernel_basis(self.differential(r, q)),
                    self.differential(r, q - 1).columns())
            self._hom_at[r, q] = self._homs[key]
        return self._hom_at[r, q]

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
        """the homology basis of slot (r, q), as vectors over basis keys:
        one list per homology object, built on first read, so a class is
        the same object wherever it is read; callers only read it"""
        H = self.homology(r, q)
        if H not in self._reps:
            b = self.basis(r, q)
            self._reps[H] = [{b[i]: c for i, c in rep.items()}
                             for rep in H.reps]
        return self._reps[H]

    def coords_of(self, r, q, vec):
        "homology coordinates of the cycle vec in the representative basis"
        return self.homology(r, q).coords(self._coordinates(r, q, vec))

    def class_matrix(self, r, q, cocycles):
        """the matrix whose j-th column is coords_of(r, q, cocycles[j]), one
        row per representative of slot (r, q)"""
        return _stored(self.field, self.homology(r, q).dim,
                       [self.coords_of(r, q, z) for z in cocycles])

    def is_boundary(self, r, q, vec):
        return self.homology(r, q).is_boundary(self._coordinates(r, q, vec))
