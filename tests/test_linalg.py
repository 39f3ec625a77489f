import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perverse.fields import Field, QQ
from perverse.linalg import (SparseMatrix, Echelon, kernel_basis, solve,
                             span_equal, span_intersection,
                             Quotient, Subquotient, vec_iadd, vec_add,
                             vec_sub, vec_scale)

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
    Q^n, by sympy: the pivots are those of the RREF of the vectors taken as
    rows, and v loses its pivot entries times the RREF rows"""
    import sympy
    rref, pivots = _sympy(SparseMatrix.from_columns(QQ, n, span)).T.rref()
    nf = sympy.Matrix(n, 1, lambda i, _: v.get(i, 0))
    for k, p in enumerate(pivots):
        nf -= nf[p] * rref[k, :].T
    return [i for i in range(n) if i not in pivots], _vector(nf)


def test_canonical_outputs_against_sympy():
    # kernel vectors, quotient coordinates and homology representatives are
    # fixed by the input, not by how Echelon pivots: each equals what sympy
    # reads off a reduced row echelon form, and both pivot rules accept the
    # same columns
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        A = random_matrix(QQ, rng, n, m, density=rng.choice([0.3, 0.6]))
        ker = kernel_basis(A)
        assert ker == [_vector(k) for k in _sympy(A).nullspace()]

        q = Quotient(QQ, n, A.columns())
        v = {i: QQ.of(rng.choice([-2, -1, 1, 3])) for i in range(n)}
        free, normal = _normal_form(n, A.columns(), v)
        assert q.free == free
        assert q.project(v) == {q.index[i]: x for i, x in normal.items()}

        # ker A modulo the span of some scaled cycles
        bnd = [vec_scale(QQ, QQ.of(rng.randint(1, 3)), k)
               for k in rng.sample(ker, rng.randint(0, len(ker)))]
        d_in = SparseMatrix.from_columns(QQ, m, bnd) if bnd else None
        H = Subquotient(QQ, m, d_out=A, d_in=d_in)
        reps = []
        for k in ker:
            r = _normal_form(m, bnd, k)[1]
            if r and _sympy(SparseMatrix.from_columns(
                    QQ, m, reps + [r])).rank() > len(reps):
                reps.append(r)
        assert H.reps == reps

        for field in (QQ, F5):
            B = random_matrix(field, rng, n, m)
            last = Echelon(field, track=True)
            first = Echelon(field, track=True, first=True)
            for j, col in enumerate(B.columns()):
                last.add(col, tag=j)
                first.add(col, tag=j)
            assert len(last.cols) == len(first.cols) == B.rank()
            assert last.kernel == first.kernel == kernel_basis(B)


def test_span_operations():
    one = Fraction(1)
    e0, e1, e2 = {0: one}, {1: one}, {2: one}
    assert span_equal(QQ, [e0, e1], [e0, e1, vec_add(QQ, e0, e1)])
    assert not span_equal(QQ, [e0, e1], [e0, e1, e2])
    assert span_equal(QQ, [e0, vec_add(QQ, e0, e1)], [e1, e0])
    inter = span_intersection(QQ, 3, [e0, e1], [vec_add(QQ, e0, e1), e2])
    assert len(inter) == 1
    assert span_equal(QQ, [vec_add(QQ, e0, e1)], inter)


def test_quotient():
    one = Fraction(1)
    q = Quotient(QQ, 3, [{0: one, 1: one}])
    assert q.dim == 2
    # e0 and -e1 are the same class
    assert q.project({0: one}) == q.project({1: -one})
    assert q.project(q.include(0)) == {0: one}


def test_subquotient_homology_of_known_complex():
    # 0 -> Q -d-> Q^2 -d-> Q -> 0 with d(x) = (x, x), d(a, b) = a - b : exact
    one = Fraction(1)
    d_in = SparseMatrix(QQ, 2, 1, {(0, 0): one, (1, 0): one})
    d_out = SparseMatrix(QQ, 1, 2, {(0, 0): one, (0, 1): -one})
    H = Subquotient(QQ, 2, d_out=d_out, d_in=d_in)
    assert H.dim == 0
    # drop the incoming differential: one-dimensional homology
    H2 = Subquotient(QQ, 2, d_out=d_out)
    assert H2.dim == 1
    c = H2.coords({0: one, 1: one})
    assert len(c) == 1


def test_subquotient_coords_of_a_non_cycle_raises():
    one = Fraction(1)
    d_out = SparseMatrix(QQ, 1, 2, {(0, 0): one, (0, 1): -one})
    H = Subquotient(QQ, 2, d_out=d_out)
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
    d_in = SparseMatrix.from_columns(field, n, cols) if cols else None
    H = Subquotient(field, n, d_out=d_out, d_in=d_in)
    assert H.dim <= len(ker)
    for k in ker:
        c = H.coords(k)
        v = {}
        for idx, s in c.items():
            v = vec_add(field, v, vec_scale(field, s, H.reps[idx]))
        assert H.is_boundary(vec_add(field, k, vec_scale(field, field.neg(field.one), v)))


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
    for w in (vec_add(field, u, v), vec_sub(field, u, v),
              vec_scale(field, c, u)):
        assert w is not u and w is not v
    assert (u, v) == (u0, v0)


@given(_vectors())
def test_vec_iadd_equals_the_pure_forms(data):
    field, u, v, c = data
    if c is None:
        assert vec_iadd(field, dict(u), v) == vec_add(field, u, v)
    else:
        assert vec_iadd(field, dict(u), v, c) == \
            vec_add(field, u, vec_scale(field, c, v))


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
