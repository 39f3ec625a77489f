import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perverse.fields import Field, QQ
from perverse.linalg import (SparseMatrix, Echelon, kernel_basis, solve,
                             solver, Subquotient, vec_iadd, signed_sum,
                             vec_scale, linear, bilinear)
from oracles import span_equal, span_intersection, quotient, rows

F5 = Field(5)


def random_matrix(field, rng, nrows, ncols, density=0.5):
    A = SparseMatrix(field, nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                A[i, j] = field.of(rng.randint(-3, 3))
    return A


def test_matrix_basics():
    A = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2)})
    B = SparseMatrix(QQ, 2, 2, {(0, 0): Fraction(3), (1, 0): Fraction(1)})
    C = A.mul(B)
    assert C[0, 0] == Fraction(5)
    assert C[1, 0] == Fraction(0)
    v = A.apply({0: Fraction(1), 1: Fraction(1)})
    assert v == {0: Fraction(3)}


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60)
def test_rank_nullity(seed):
    rng = random.Random(seed)
    field = QQ if seed % 2 else F5
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    A = random_matrix(field, rng, n, m)
    ker = kernel_basis(A)
    assert A.rank() + len(ker) == m
    for k in ker:
        assert A.apply(k) == {}


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60)
def test_solve_consistent(seed):
    rng = random.Random(seed)
    field = QQ if seed % 3 else F5
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    A = random_matrix(field, rng, n, m)
    x = {j: field.of(rng.randint(-2, 2)) for j in range(m)}
    x = {j: c for j, c in x.items() if not field.iszero(c)}
    b = A.apply(x)
    y = solve(A, b)
    assert y is not None
    assert A.apply(y) == b


def test_solve_inconsistent():
    A = SparseMatrix(QQ, 2, 1, {(0, 0): Fraction(1)})
    assert solve(A, {1: Fraction(1)}) is None


def _sympy(A):
    import sympy
    return sympy.Matrix(A.nrows, A.ncols, lambda i, j: sympy.Rational(
        A[i, j].numerator, A[i, j].denominator))


def test_rank_against_sympy():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(QQ, rng, n, m)
        assert A.rank() == _sympy(A).rank()


def _vector(column):
    "a sympy vector as a sparse vector over Q"
    return {i: Fraction(int(x.p), int(x.q)) for i, x in enumerate(column)
            if x != 0}


def _normal_form(n, span, v):
    """(non-pivot rows, normal form of v) for the span of some vectors in
    Q^n, by sympy, with the last nonzero row of a vector as its pivot: the
    rows are reversed, the pivots are those of the RREF of the vectors taken
    as rows, v loses its pivot entries times the RREF rows, and the result
    is read back reversed"""
    import sympy
    flip = lambda u: {n - 1 - i: x for i, x in u.items()}
    rref, pivots = _sympy(SparseMatrix.from_columns(
        QQ, n, [flip(u) for u in span])).T.rref()
    nf = sympy.Matrix(n, 1, lambda i, _: flip(v).get(i, 0))
    for k, p in enumerate(pivots):
        nf -= nf[p] * rref[k, :].T
    return ([i for i in range(n) if n - 1 - i not in pivots],
            flip(_vector(nf)))


def test_canonical_outputs_against_sympy():
    # kernel vectors, and the representatives and coordinates of a
    # quotient, a subspace and a homology, are fixed by the input and the
    # last-row pivot rule: each equals what sympy reads off a reduced row
    # echelon form of the row-reversed vectors
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        A = random_matrix(QQ, rng, n, m, density=rng.choice([0.3, 0.6]))
        ker = kernel_basis(A)
        assert ker == [_vector(k) for k in _sympy(A).nullspace()]

        # R^n modulo the columns: the unit vectors at the non-pivot rows
        q = quotient(QQ, range(n), A.columns())
        v = {i: QQ.of(rng.choice([-2, -1, 1, 3])) for i in range(n)}
        free, normal = _normal_form(n, A.columns(), v)
        assert len(free) == n - _sympy(A).rank()
        assert q.reps == [{i: QQ.one} for i in free]
        assert q.coords(v) == {free.index(i): x for i, x in normal.items()}

        # ker A: its basis, and the coordinates of a combination of it
        sub = Subquotient(QQ, ker)
        x = {j: QQ.of(rng.randint(-2, 2)) for j in range(len(ker))}
        x = {j: c for j, c in x.items() if c}
        assert sub.reps == ker
        assert sub.coords(linear(QQ, ker.__getitem__, x)) == x

        # ker A modulo the span of some scaled cycles
        bnd = [vec_scale(QQ, QQ.of(rng.randint(1, 3)), k)
               for k in rng.sample(ker, rng.randint(0, len(ker)))]
        H = Subquotient(QQ, ker, bnd)
        reps = []
        for k in ker:
            r = _normal_form(m, bnd, k)[1]
            if r and _sympy(SparseMatrix.from_columns(
                    QQ, m, reps + [r])).rank() > len(reps):
                reps.append(r)
        assert H.reps == reps


def test_span_operations():
    one = Fraction(1)
    e0, e1, e2 = {0: one}, {1: one}, {2: one}
    e01 = signed_sum(QQ, [(0, e0), (0, e1)])
    assert span_equal(QQ, [e0, e1], [e0, e1, e01])
    assert not span_equal(QQ, [e0, e1], [e0, e1, e2])
    assert span_equal(QQ, [e0, e01], [e1, e0])
    inter = span_intersection(QQ, 3, [e0, e1], [e01, e2])
    assert len(inter) == 1
    assert span_equal(QQ, [e01], inter)


def test_quotient():
    one = Fraction(1)
    q = quotient(QQ, range(3), [{0: one, 1: one}])
    assert q.dim == 2
    # e0 and -e1 are the same class
    assert q.coords({0: one}) == q.coords({1: -one})
    assert q.coords(q.reps[0]) == {0: one}


def test_subquotient_homology_of_known_complex():
    # 0 -> Q -d-> Q^2 -d-> Q -> 0 with d(x) = (x, x), d(a, b) = a - b : exact
    one = Fraction(1)
    d_in = SparseMatrix(QQ, 2, 1, {(0, 0): one, (1, 0): one})
    d_out = SparseMatrix(QQ, 1, 2, {(0, 0): one, (0, 1): -one})
    H = Subquotient(QQ, kernel_basis(d_out), d_in.columns())
    assert H.dim == 0
    # drop the incoming differential: one-dimensional homology
    H2 = Subquotient(QQ, kernel_basis(d_out))
    assert H2.dim == 1
    c = H2.coords({0: one, 1: one})
    assert len(c) == 1


def test_subquotient_coords_of_a_non_cycle_raises():
    one = Fraction(1)
    d_out = SparseMatrix(QQ, 1, 2, {(0, 0): one, (0, 1): -one})
    H = Subquotient(QQ, kernel_basis(d_out))
    with pytest.raises(ValueError):
        H.coords({0: one})


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40)
def test_subquotient_coords_linear(seed):
    rng = random.Random(seed)
    field = QQ if seed % 2 else F5
    n = rng.randint(2, 5)
    d_out = random_matrix(field, rng, rng.randint(1, 4), n, density=0.4)
    # boundaries: a few random cycles scaled (so im subset ker)
    ker = kernel_basis(d_out)
    cols = [vec_scale(field, field.of(rng.randint(0, 2)), k) for k in ker[:1]]
    H = Subquotient(field, ker, cols)
    assert H.dim <= len(ker)
    for k in ker:
        v = linear(field, H.reps.__getitem__, H.coords(k))
        assert H.is_boundary(signed_sum(field, [(0, k), (1, v)]))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_subquotient_dim_is_the_rank_of_cycles_less_boundaries(field):
    # boundaries drawn inside the span of the cycles: the dimension is the
    # difference of the two ranks, each rep has unit coordinates and is no
    # boundary, and each boundary is one
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        cycles = random_matrix(field, rng, n, rng.randint(0, 5)).columns()
        boundaries = [linear(field, cycles.__getitem__,
                             {j: field.of(rng.randint(-2, 2))
                              for j in range(len(cycles))})
                      for _ in range(rng.randint(0, 3))] if cycles else []
        H = Subquotient(field, cycles, boundaries)
        assert H.dim == (SparseMatrix.from_columns(field, n, cycles).rank()
                         - SparseMatrix.from_columns(field, n,
                                                     boundaries).rank())
        for j, r in enumerate(H.reps):
            assert H.coords(r) == {j: field.one}
            assert not H.is_boundary(r)
        assert all(H.is_boundary(b) for b in boundaries)


def test_subquotient_without_boundaries_keeps_the_first_independent_cycles():
    # with nothing to reduce by, the reps are the cycles themselves, those
    # in the span of earlier ones left out, in order
    one = Fraction(1)
    e0, e1, e2 = {0: one}, {1: one}, {2: one}
    s = {0: one, 1: one}
    H = Subquotient(QQ, [e0, s, vec_scale(QQ, QQ.of(2), e0), e1, e2, {}])
    assert H.reps == [e0, s, e2]
    assert H.coords(e1) == {0: -one, 1: one}


def test_quotient_of_keys_raises_on_a_key_outside_them():
    one = Fraction(1)
    with pytest.raises(KeyError):
        quotient(QQ, ["a", "b"], [{"a": one, "c": one}])


def _scalars(field):
    if field.char:
        return st.integers(0, field.char - 1)
    return st.fractions(-3, 3, max_denominator=3)


@st.composite
def _vectors(draw):
    "a field, two sparse vectors (zero entries allowed) and a scalar or None"
    field = draw(st.sampled_from([QQ, F5]))
    vec = st.dictionaries(st.integers(0, 5), _scalars(field), max_size=6)
    return field, draw(vec), draw(vec), draw(st.none() | _scalars(field))


@given(_vectors())
def test_vec_iadd_leaves_no_zero_and_never_changes_v(data):
    field, u, v, c = data
    u = {i: x for i, x in u.items() if not field.iszero(x)}
    v0 = dict(v)
    out = vec_iadd(field, u, v, c)
    assert out is u
    assert v == v0
    assert not any(field.iszero(x) for x in out.values())


@given(_vectors())
def test_pure_vector_forms_never_change_their_inputs(data):
    field, u, v, c = data
    c = field.one if c is None else c
    u0, v0 = dict(u), dict(v)
    for w in (signed_sum(field, [(0, u), (1, v)]), vec_scale(field, c, u)):
        assert w is not u and w is not v
    assert (u, v) == (u0, v0)


@given(_vectors(), st.integers(0, 3), st.integers(0, 3))
def test_vec_iadd_equals_the_pure_forms(data, p, q):
    # signed_sum is the entrywise signed sum, and vec_iadd adds in place
    field, u, v, c = data
    w = v if c is None else vec_scale(field, c, v)
    got = signed_sum(field, [(p, u), (q, w)])
    want = {}
    for i in set(u) | set(w):
        x = field.add(field.mul(field.sign(p), u.get(i, field.zero)),
                      field.mul(field.sign(q), w.get(i, field.zero)))
        if not field.iszero(x):
            want[i] = x
    assert got == want
    assert signed_sum(field, []) == {}
    start = signed_sum(field, [(p, u)])
    assert vec_iadd(field, dict(start), w, field.sign(q)) == got
    if q % 2 == 0:
        # the sign +1 passed or left out adds alike
        assert vec_iadd(field, dict(start), w) == got


@st.composite
def _matrices(draw):
    """a sparse matrix over Q or F_5 whose last columns are combinations of
    the first ones, so they reduce to zero only after several steps"""
    field = draw(st.sampled_from([QQ, F5]))
    nrows = draw(st.integers(1, 7))
    col = st.dictionaries(st.integers(0, nrows - 1), _scalars(field),
                          max_size=nrows)
    cols = draw(st.lists(col, max_size=6))
    for coeffs in draw(st.lists(st.lists(_scalars(field), max_size=6),
                                max_size=4)):
        v = {}
        for c, u in zip(coeffs, cols):
            vec_iadd(field, v, u, c)
        cols.append(v)
    return SparseMatrix.from_columns(field, nrows, cols)


@given(_matrices())
def test_rank_equals_nullity_and_echelon_rank(A):
    ech = Echelon(A.field)
    for col in A.columns():
        ech.add(col)
    assert A.rank() == A.ncols - len(kernel_basis(A)) == len(ech.cols)


def _random_vector(field, rng, n=5):
    "a sparse vector over 0..n-1 that may hold zero entries"
    return {i: field.of(rng.randint(-2, 2)) for i in range(n)
            if rng.random() < 0.6}


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_linear_and_bilinear_equal_the_hand_loops(seed):
    rng = random.Random(seed)
    field = QQ if seed % 2 else F5
    f = {x: _random_vector(field, rng) for x in range(5)}
    g = {(x, y): _random_vector(field, rng) for x in range(5)
         for y in range(5)}
    u, v = _random_vector(field, rng), _random_vector(field, rng)
    u0, v0 = dict(u), dict(v)
    out = {}
    for x, c in u.items():
        vec_iadd(field, out, f[x], c)
    got = linear(field, f.__getitem__, u)
    assert got == out and list(got) == list(out)
    out = {}
    for x, cx in u.items():
        for y, cy in v.items():
            vec_iadd(field, out, g[x, y], field.mul(cx, cy))
    got = bilinear(field, lambda x, y: g[x, y], u, v)
    assert got == out and list(got) == list(out)
    assert not any(field.iszero(c) for c in got.values())
    assert (u, v) == (u0, v0)


def _dense(field, rows, ncols):
    "the dense sympy DomainMatrix over Q or GF(p) of a list of rows"
    from sympy import GF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix
    K = GF(field.char) if field.char else SQQ
    return DomainMatrix([[K.convert(x) for x in row] for row in rows],
                        (len(rows), ncols), K)


def _from_dense(field, D):
    "the rows of a sympy DomainMatrix as lists of scalars of field"
    if field.char:
        return [[field.of(int(x)) for x in row] for row in D.to_list()]
    return [[field.of(Fraction(int(x.numerator), int(x.denominator)))
             for x in row] for row in D.to_list()]


@st.composite
def _dense_pairs(draw):
    """a field and two composable dense matrices as lists of rows; each
    with two or more rows and columns has an all-zero row and column"""
    field = draw(st.sampled_from([QQ, F5]))
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))

    def dense(nr, nc):
        rows = [[field.of(draw(_scalars(field))) if draw(st.booleans())
                 else field.zero for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and nc > 1:
            zr, zc = draw(st.integers(0, nr - 1)), draw(st.integers(0, nc - 1))
            rows[zr] = [field.zero] * nc
            for row in rows:
                row[zc] = field.zero
        return rows
    return field, dense(n, k), dense(k, m), k, m


def _columns(field, rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows)
             if not field.iszero(row[j])} for j in range(ncols)]


@given(_dense_pairs())
@settings(max_examples=80)
def test_sparse_matrix_agrees_with_the_dense_reference(data):
    field, a, b, k, m = data
    n = len(a)
    A = SparseMatrix(field, n, k, {(i, j): a[i][j]
                                   for i in range(n) for j in range(k)})
    B = SparseMatrix.from_columns(field, k, [
        {i: b[i][j] for i in range(k)} for j in range(m)])
    for M, dense, nc in ((A, a, k), (B, b, m)):
        nr = len(dense)
        assert [[M[i, j] for j in range(nc)] for i in range(nr)] == dense
        assert M.columns() == _columns(field, dense, nc)
        assert rows(M) == [{j: x for j, x in enumerate(row)
                           if not field.iszero(x)} for row in dense]
        assert M.rank() == _dense(field, dense, nc).rank()
        assert M.is_zero() == all(field.iszero(x) for r in dense for x in r)
    ab = _from_dense(field, _dense(field, a, k) * _dense(field, b, m))
    AB = A.mul(B)
    assert (AB.nrows, AB.ncols) == (n, m)
    assert [[AB[i, j] for j in range(m)] for i in range(n)] == ab
    assert AB.columns() == _columns(field, ab, m)
    for j, col in enumerate(B.columns()):
        assert A.apply(col) == AB.columns()[j]
    ident = SparseMatrix.identity(field, n)
    assert [[ident[i, j] for j in range(n)] for i in range(n)] == [
        [field.one if i == j else field.zero for j in range(n)]
        for i in range(n)]
    assert ident.mul(A) == A == A.mul(SparseMatrix.identity(field, k))
    assert A != SparseMatrix(field, n + 1, k)
    assert A != SparseMatrix(field, n, k + 1)


@st.composite
def _systems(draw):
    """a field, a dense matrix as a list of rows, and right-hand sides: some
    images A x, some drawn freely (consistent or not)"""
    field = draw(st.sampled_from([QQ, F5]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 5))

    def entries(k):
        return [field.of(draw(_scalars(field))) if draw(st.booleans())
                else field.zero for _ in range(k)]

    def dot(row, x):
        out = field.zero
        for a, c in zip(row, x):
            out = field.add(out, field.mul(a, c))
        return out
    rows = [entries(m) for _ in range(n)]
    rhs = [entries(n) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 3))):
        x = entries(m)
        rhs.append([dot(row, x) for row in rows])
    return field, rows, m, rhs


@given(_systems())
@settings(max_examples=80, deadline=None)
def test_solver_agrees_with_the_dense_reference(data):
    # one elimination answers every right-hand side: the rank, a solution
    # of each consistent system (the one solve gives), None for the others
    field, rows, m, rhs = data
    A = SparseMatrix.from_columns(field, len(rows), _columns(field, rows, m))
    rank, solve_for = solver(A)
    assert rank == _dense(field, rows, m).rank()
    consistent = 0
    for _ in range(2):
        for b in rhs:
            vec = {i: x for i, x in enumerate(b) if not field.iszero(x)}
            aug = _dense(field, [row + [x] for row, x in zip(rows, b)], m + 1)
            x = solve_for(vec)
            assert x == solve(A, vec)
            if aug.rank() == rank:
                assert A.apply(x) == vec
                consistent += 1
            else:
                assert x is None
    assert consistent >= 2


def test_an_assembled_slot_matrix_holds_no_zero_entry():
    from perverse.algebra import (Bimodule, ModuleSlots,
                                  algebra_as_bimodule, dual_bimodule)
    from perverse.builders import corpus, random_pdga, trivial_algebra
    from perverse.hochschild import Cochains
    from perverse.suite import Chains
    from perverse.poset import Poset
    P = Poset(4)
    # an explicit zero coefficient in a module differential is no entry
    M = Bimodule(trivial_algebra(QQ, P), [("m", 0, "up", P.zero),
                                          ("n", 1, "up", P.zero)],
                 diff={"m": {"n": QQ.zero}})
    assert ModuleSlots(M).differential(P.zero, 0).is_zero()
    algebras = list(corpus(F5, P).values()) + [
        random_pdga(F, P, s) for F in (QQ, F5) for s in (0, 1, 5, 103)]
    seen = 0
    for A in algebras:
        for cx in (Cochains(A, algebra_as_bimodule(A), 3),
                   Cochains(A, dual_bimodule(A), 3),
                   Chains(A, algebra_as_bimodule(A), 3),
                   ModuleSlots(dual_bimodule(A))):
            for r in P.elements:
                for q in range(-8, 8):
                    for col in cx.differential(r, q).columns():
                        assert not any(A.field.iszero(x)
                                       for x in col.values())
                        seen += len(col)
    assert seen > 1000
