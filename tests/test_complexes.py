import itertools
import random

import pytest

from perverse.fields import Field, QQ
from perverse.linalg import (SparseMatrix, Subquotient, kernel_basis,
                             vec_iadd, vec_scale, kernel)
from perverse.poset import Poset, leq
from perverse.complexes import (PerverseComplex, p_filtration,
                                cofibrancy_certificate)
from perverse.builders import random_pdga
from oracles import (box_tensor_fulldiagram, join, cofibrancy_by_spans,
                     minimum_condition_counterexample, functorial_by_chains,
                     carrier, quotient, free_perverse, unit_perverse,
                     box_tensor, internal_hom, linear_dual, validate_perverse,
                     perverse_homology, slot_diff)


def plain(basis, diff=None):
    """the plain complex (basis, d) of the names basis, whose d reads the
    vectors of diff and is zero on a name diff lacks"""
    diff = diff or {}
    return basis, lambda x: diff.get(x, {})


def sphere(n):
    "H*(S^n) as a complex with zero differential"
    return plain({0: ["1"], n: ["x"]})


def disk(field, n):
    "an acyclic two-step complex in degrees n, n+1"
    return plain({n: ["y"], n + 1: ["z"]}, {"y": {"z": field.one}})


def random_labeled_complex(field, poset, rng, maxdim=2, degs=(0, 1, 2)):
    """(basis, d, labels): a random complex with matched-pair differential
    and random perversity labels"""
    basis = {}
    lab = {}
    cnt = 0
    for k in degs:
        names = []
        for _ in range(rng.randint(1, maxdim)):
            nm = "e%d" % cnt
            cnt += 1
            names.append(nm)
            lab[nm] = rng.choice(poset.elements)
        basis[k] = names
    # differential concentrated in one random degree keeps d^2 = 0 trivially
    diff = {}
    ks = [k for k in degs if k + 1 in basis]
    if ks:
        k = rng.choice(ks)
        for x in basis[k]:
            diff[x] = {}
            for y in basis[k + 1]:
                if rng.random() < 0.5:
                    diff[x][y] = field.of(rng.choice([1, 2, -1]))
    return plain(basis, diff) + (lab,)


def subquotient_dims(field, diff, degs):
    "{k: dim ker d_k / im d_(k-1)} through a Subquotient per degree"
    return {k: Subquotient(field, kernel_basis(diff(k)),
                           diff(k - 1).columns()).dim
            for k in range(degs[0], degs[-1] + 1)} if degs else {}


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_homology_from_ranks_matches_subquotients(field):
    for P in (Poset(3), Poset(4)):
        rng = random.Random(P.n)
        for _ in range(8):
            basis, d, lab = random_labeled_complex(field, P, rng)
            Y = p_filtration(field, P, *random_labeled_complex(
                field, P, rng, degs=(0, 1)))
            Z = p_filtration(field, P, basis, d, lab)
            for W in (free_perverse(field, P, P.zero, basis, d), Z,
                      box_tensor(Z, Y), internal_hom(Y, Z)):
                for p in P.elements:
                    assert perverse_homology(W, p) == subquotient_dims(
                        field, lambda k: slot_diff(W, p, k), W.degrees())


def test_quotient_is_the_quotient_of_the_indexed_relations():
    keys = ["a", "b", "c"]
    q = quotient(QQ, keys, [{"a": 1, "c": -1}, {"b": 2, "c": 2}])
    ref = Subquotient(QQ, [{0: 1}, {1: 1}, {2: 1}],
                      [{0: 1, 2: -1}, {1: 2, 2: 2}])
    assert (q.reps, q.coords({1: 1})) == (ref.reps, ref.coords({1: 1}))
    # a relation term on a key outside the slot raises, it is not dropped
    with pytest.raises(KeyError):
        quotient(QQ, keys, [{"a": 1, "d": 1}])


def test_kernel_sums_repeated_terms():
    # row r reads 2 c_a - 2 c_b, given as two terms on a; row s cancels
    sub = kernel(QQ, ["a", "b"], [("r", "a", 1), ("s", "b", 1),
                                  ("r", "a", 1), ("r", "b", -2),
                                  ("s", "b", -1)])
    assert sub.reps == [{0: 1, 1: 1}]
    with pytest.raises(KeyError):
        kernel(QQ, ["a"], [("r", "b", 1)])


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_kernel_equals_the_kernel_of_the_indexed_matrix(field):
    # the rows are numbered by first appearance in kernel and sorted here,
    # and a kernel vector does not depend on that order
    rng = random.Random(11)
    for _ in range(60):
        keys = [("k", i) for i in range(rng.randint(0, 6))]
        eqs = [(rng.randint(0, 4), rng.choice(keys),
                field.of(rng.choice([1, 2, -1, 3])))
               for _ in range(rng.randint(0, 12) if keys else 0)]
        rows = sorted({row for row, _, _ in eqs}, reverse=True)
        cols = [{} for _ in keys]
        for row, key, c in eqs:
            vec_iadd(field, cols[keys.index(key)], {rows.index(row): c})
        ref = Subquotient(field, kernel_basis(
            SparseMatrix.from_columns(field, len(rows), cols)))
        assert kernel(field, keys, eqs).reps == ref.reps, eqs


def test_free_perverse_validates_and_homology():
    P = Poset(4)
    Z = free_perverse(QQ, P, P.zero, *sphere(2))
    validate_perverse(Z)
    for p in P.elements:
        h = perverse_homology(Z, p)
        assert h.get(0) == 1 and h.get(2) == 1
    D = free_perverse(QQ, P, P.zero, *disk(QQ, 1))
    validate_perverse(D)
    for p in P.elements:
        assert all(v == 0 for v in perverse_homology(D, p).values())


def test_free_at_top_supported_only_at_top():
    P = Poset(4)
    Z = free_perverse(QQ, P, P.top, *sphere(2))
    for p in P.elements:
        expect = 1 if p == P.top else 0
        assert Z.dim(p, 0) == expect


def test_box_of_frees_is_free_on_sum():
    # F_p(S^a) box F_q(S^b) = F_{p+q}(S^{a+b}) for the one-dim sphere complexes
    P = Poset(4)
    line = lambda a: plain({a: ["s"]})
    for p in P.elements:
        for q in P.elements:
            Z = free_perverse(QQ, P, p, *line(1))
            Y = free_perverse(QQ, P, q, *line(2))
            B = box_tensor(Z, Y)
            validate_perverse(B)
            s = P.oplus(p, q)
            W = free_perverse(QQ, P, s, *line(3)) if s is not None \
                else PerverseComplex(QQ, P)
            for r in P.elements:
                for k in [0, 1, 2, 3]:
                    assert B.dim(r, k) == W.dim(r, k), (p, q, r, k)


def test_box_unit_law():
    P = Poset(3)
    rng = random.Random(11)
    Z = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng))
    validate_perverse(Z)
    U = unit_perverse(QQ, P)
    B = box_tensor(Z, U)
    validate_perverse(B)
    for p in P.elements:
        for k in Z.degrees():
            assert B.dim(p, k) == Z.dim(p, k)
        assert perverse_homology(B, p) == perverse_homology(Z, p)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_box_against_fulldiagram_oracle(seed):
    P = Poset(4)
    rng = random.Random(seed)
    Z = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng, maxdim=2,
                                                    degs=(0, 1)))
    Y = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng, maxdim=2,
                                                    degs=(0, 1)))
    B = box_tensor(Z, Y)
    validate_perverse(B)
    O = box_tensor_fulldiagram(Z, Y)
    for r in P.elements:
        for k in [0, 1, 2]:
            assert B.dim(r, k) == O.dim(r, k), (r, k)


def test_box_symmetry_dims():
    P = Poset(4)
    rng = random.Random(23)
    Z = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng, degs=(0, 1)))
    Y = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng, degs=(0, 2)))
    B1, B2 = box_tensor(Z, Y), box_tensor(Y, Z)
    for r in P.elements:
        for k in [0, 1, 2, 3]:
            assert B1.dim(r, k) == B2.dim(r, k)


def test_internal_hom_unit():
    P = Poset(3)
    rng = random.Random(5)
    Y = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng))
    H = internal_hom(unit_perverse(QQ, P), Y)
    validate_perverse(H)
    for p in P.elements:
        for k in Y.degrees():
            assert H.dim(p, k) == Y.dim(p, k)
        assert perverse_homology(H, p) == perverse_homology(Y, p)


def test_linear_dual_closed_form():
    P = Poset(4)
    rng = random.Random(9)
    Z = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng, degs=(0, 1)))
    D = linear_dual(Z)
    validate_perverse(D)
    for r in P.elements:
        for k in Z.degrees():
            assert D.dim(r, -k) == Z.dim(P.dual(r), k), (r, k)


def test_dual_of_unit_and_double_dual():
    P = Poset(4)
    U = unit_perverse(QQ, P)
    DU = linear_dual(U)
    for p in P.elements:
        assert DU.dim(p, 0) == 1
    Z = free_perverse(QQ, P, P.zero, *sphere(2))
    DD = linear_dual(linear_dual(Z))
    for p in P.elements:
        for k in Z.degrees():
            assert DD.dim(p, k) == Z.dim(p, k)


def test_tensor_hom_adjunction_dims():
    P = Poset(3)
    X = free_perverse(QQ, P, P.zero, *sphere(1))
    Y = free_perverse(QQ, P, P.top, *sphere(1))
    Z = unit_perverse(QQ, P)
    lhs = internal_hom(box_tensor(X, Y), Z)
    rhs = internal_hom(X, internal_hom(Y, Z))
    for r in P.elements:
        for k in [-3, -2, -1, 0, 1]:
            assert lhs.dim(r, k) == rhs.dim(r, k), (r, k)


def test_p_filtration_examples():
    P = Poset(4)
    # all labels zero: constant diagram
    Z = p_filtration(QQ, P, *sphere(2), {"1": P.zero, "x": P.zero})
    for p in P.elements:
        assert Z.dim(p, 0) == 1 and Z.dim(p, 2) == 1
    # single closed generator at top perversity
    Z = p_filtration(QQ, P, *plain({2: ["x"]}), {"x": P.top})
    for p in P.elements:
        assert Z.dim(p, 2) == (1 if p == P.top else 0)
    # y labeled zero but dy labeled top: y only enters at top
    cx = plain({1: ["y"], 2: ["z"]}, {"y": {"z": QQ.one}})
    Z = p_filtration(QQ, P, *cx, {"y": P.zero, "z": P.top})
    validate_perverse(Z)
    for p in P.elements:
        expect = 1 if p == P.top else 0
        assert Z.dim(p, 1) == expect
        assert Z.dim(p, 2) == expect


def test_kunneth_dims_for_filtration_outputs():
    P = Poset(4)
    for p, q in [(P.zero, P.zero), (P.zero, P.top)]:
        X = p_filtration(QQ, P, *sphere(1), {l: p for l in ["1", "x"]})
        Y = p_filtration(QQ, P, *disk(QQ, 1), {l: q for l in ["y", "z"]})
        B = box_tensor(X, Y)
        s = P.oplus(p, q)
        for r in P.elements:
            h = perverse_homology(B, r)
            assert all(v == 0 for v in h.values())  # disk factor is acyclic
        X2 = p_filtration(QQ, P, *sphere(2), {l: q for l in ["1", "x"]})
        B2 = box_tensor(X, X2)
        for r in P.elements:
            h = perverse_homology(B2, r)
            expect = 1 if (s is not None and leq(s, r)) else 0
            for k in [0, 1, 2, 3]:
                assert h.get(k, 0) == expect, (p, q, r, k)


def test_cofibrancy_certificate_on_filtration():
    P = Poset(4)
    rng = random.Random(31)
    for _ in range(3):
        Z = p_filtration(QQ, P, *random_labeled_complex(QQ, P, rng,
                                                        degs=(0, 1)))
        rep = cofibrancy_certificate(Z)
        assert rep["cofibrant_sufficient"], rep["failures"]


def noninjective_complex():
    "the zero map between two one-dimensional slots of the chain Poset(3)"
    P = Poset(3)
    Z = PerverseComplex(QQ, P)
    Z.basis[(P.zero, 0)] = ["a"]
    Z.basis[(P.top, 0)] = ["b"]
    Z.phi[(P.zero, P.top, 0)] = SparseMatrix(QQ, 1, 1)
    return Z


def nonfunctorial_complex():
    """one-dimensional slots on the one square of Poset(5), m below the
    incomparable a and b below j: m -> a -> j is 2 and m -> b -> j is 3"""
    P = Poset(5)
    m, a, b, j = ((0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 2),
                  (0, 0, 0, 1, 1, 1), (0, 0, 0, 1, 1, 2))
    Z = PerverseComplex(QQ, P)
    for r in (m, a, b, j):
        Z.basis[(r, 0)] = [r]
    for (r, s), x in {(m, a): 1, (a, j): 2, (m, b): 1, (b, j): 3}.items():
        Z.phi[(r, s, 0)] = SparseMatrix.from_columns(QQ, 1, [{0: x}])
    return Z


def composite_along_first_covers(Z, p, q, k):
    """the product of the cover maps along p = r0 < r1 < ... < q, each r_i
    the first upper cover of r_(i-1) below q"""
    m = SparseMatrix.identity(Z.field, Z.dim(p, k))
    while p != q:
        b = next(b for b in Z.poset.upper_covers(p) if leq(b, q))
        m, p = Z.cover_map(p, b, k).mul(m), b
    return m


def composite_inputs():
    "p-filtrations of random labeled complexes on Poset(6), and the two above"
    rng = random.Random(7)
    P = Poset(6)
    return [p_filtration(field, P, *random_labeled_complex(field, P, rng))
            for field in (QQ, Field(5)) for _ in range(3)] + [
        noninjective_complex(), nonfunctorial_complex()]


def test_cofibrancy_noninjective_fails():
    Z = noninjective_complex()
    validate_perverse(Z)
    rep = cofibrancy_certificate(Z)
    assert not rep["injective"]
    assert not rep["cofibrant_sufficient"]


@pytest.mark.parametrize("k", range(8))
def test_structure_map_is_the_product_along_the_first_covers(k):
    Z = composite_inputs()[k]
    P = Z.poset
    for p, q in itertools.product(P.elements, repeat=2):
        for deg in Z.degrees():
            if not leq(p, q):
                with pytest.raises(ValueError):
                    Z.structure_map(p, q, deg)
                continue
            m = Z.structure_map(p, q, deg)
            assert m == composite_along_first_covers(Z, p, q, deg), (p, q)
            # the complex builds each composite once and keeps it
            assert Z.structure_map(p, q, deg) is m


def test_nonfunctorial_composite_is_the_one_along_the_first_covers():
    Z = nonfunctorial_complex()
    with pytest.raises(ValueError, match="not functorial"):
        validate_perverse(Z)
    m, j = (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 1, 2)
    assert Z.structure_map(m, j, 0).columns() == [{0: 2}]


def with_a_cover_map_doubled(Z, cover):
    """a copy of Z with the cover map of one cover times 2 in every degree,
    so still a chain map"""
    out = PerverseComplex(Z.field, Z.poset)
    out.basis, out.d, out.phi = dict(Z.basis), dict(Z.d), dict(Z.phi)
    two = Z.field.of(2)
    for (p, q, k), m in Z.phi.items():
        if (p, q) == cover:
            out.phi[p, q, k] = SparseMatrix.from_columns(
                Z.field, m.nrows, [vec_scale(Z.field, two, c)
                                   for c in m.columns()])
    return out


def test_validate_reads_diamonds_and_agrees_with_every_chain():
    # validate_perverse checks functoriality on diamond squares only; on a
    # distributive lattice that decides it for every chain of covers
    # between two perversities, so its verdict equals the walk over all of
    # them, on the inputs and on copies with one nonzero cover map doubled
    rng = random.Random(3)
    verdicts = []
    for Z in composite_inputs():
        covers = sorted({key[:2] for key, m in Z.phi.items()
                         if not m.is_zero()})
        for Y in [Z] + [with_a_cover_map_doubled(Z, c) for c in
                        rng.sample(covers, min(3, len(covers)))]:
            try:
                validate_perverse(Y)
                verdicts.append(True)
            except ValueError as e:
                assert "not functorial" in str(e)
                verdicts.append(False)
            assert verdicts[-1] == functorial_by_chains(Y)
    assert any(verdicts) and not all(verdicts)


def test_minimum_condition_counterexample_fails():
    Z = minimum_condition_counterexample(Poset(5), (0, 0, 0, 1, 1, 1),
                                         (0, 0, 0, 0, 1, 2))
    rep = cofibrancy_certificate(Z)
    assert rep["injective"]
    assert not rep["minimum_condition"]
    assert any(f[0] == "minimum" for f in rep["failures"])


def certificate_inputs(field):
    """functorial complexes to compare the certificate with its oracle on:
    p-filtrations of random labeled complexes on Poset(3..6), and on
    Poset(4) and Poset(5) oracle carriers of random pDGAs, their linear duals
    and the box tensors of each carrier with the next one and with its dual"""
    rng = random.Random(13)
    out = [p_filtration(field, P, *random_labeled_complex(field, P, rng))
           for P in map(Poset, (3, 4, 5, 6)) for _ in range(8)]
    for P in (Poset(4), Poset(5)):
        carriers = [carrier(random_pdga(field, P, seed))
                    for seed in range(6)]
        duals = [linear_dual(Z) for Z in carriers]
        out += carriers + duals
        out += [box_tensor(Z, Y) for Z, Y in zip(carriers, carriers[1:])]
        out += [box_tensor(Z, DZ) for Z, DZ in zip(carriers, duals)]
    return out


def agrees_with_the_span_oracle(Z, rep):
    """the certificate's report against cofibrancy_by_spans, which checks
    every pair below each p: the same verdicts, the same injectivity rows,
    and the same perversities p with a minimum failure"""
    ref = cofibrancy_by_spans(Z)
    for key in ("injective", "minimum_condition", "cofibrant_sufficient",
                "injective_checks"):
        assert rep[key] == ref[key], key

    def rows(report, kind):
        return [f for f in report["failures"] if f[0] == kind]

    assert rows(rep, "injectivity") == rows(ref, "injectivity")
    assert {f[3] for f in rows(rep, "minimum")} == {
        f[3] for f in rows(ref, "minimum")}


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_certificate_equals_its_span_oracle(field):
    reports = []
    for Z in certificate_inputs(field):
        validate_perverse(Z)
        reports.append(cofibrancy_certificate(Z))
        agrees_with_the_span_oracle(Z, reports[-1])
    # the inputs fail the injectivity row too, not only pass both rows
    assert any(rep["injective"] for rep in reports)
    assert any(not rep["injective"] for rep in reports)


# the incomparable pairs of Poset(5) to Poset(7); Poset(4) is a chain
INCOMPARABLE = [(P, q1, q2) for P in (Poset(5), Poset(6), Poset(7))
                for q1, q2 in itertools.combinations(P.elements, 2)
                if not (leq(q1, q2) or leq(q2, q1))]


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("P, q1, q2", INCOMPARABLE, ids=[
    "-".join("".join(map(str, q)) for q in pair)
    for _, *pair in INCOMPARABLE])
def test_certificate_equals_its_span_oracle_where_the_minimum_fails(
        field, P, q1, q2):
    # the pair q1, q2 fails, and so does a diamond under their join, also
    # where q1 and q2 are no diamond's sides
    Z = minimum_condition_counterexample(P, q1, q2, field)
    rep = cofibrancy_certificate(Z)
    agrees_with_the_span_oracle(Z, rep)
    assert rep["injective"] and not rep["minimum_condition"]
    j = join(P, q1, q2)
    assert any(f[0] == "minimum" and f[3] == j and f[4] == 0
               for f in rep["failures"])


# Exact bases and nonzero d / phi entries on small inputs, recorded before
# the sparse accumulators of these constructions were rewritten: the tests
# above compare only dimensions and homology, which a sign slip can pass.
# A box tensor basis vector is named by the one key of its representative,
# a key that heads no relation; a relation heads at its last key, which
# lies at the larger of its two objects, so a class is named at a smaller
# one.


def entries(m):
    "{(row, col): scalar} of the nonzero entries of a matrix"
    return {(i, j): x for j, col in enumerate(m.columns())
            for i, x in col.items()}


def pinned(Z):
    "basis and nonzero d and phi entries of a perverse complex"
    return {"basis": Z.basis,
            "d": {k: entries(m) for k, m in Z.d.items() if not m.is_zero()},
            "phi": {k: entries(m) for k, m in Z.phi.items()
                    if not m.is_zero()}}


def pin_inputs():
    """X: S^1 with x at the top perversity; Y: a disk with d y = 2 z; cx:
    d a = c + e, d b = e with e at the top, so d(a - b) cancels e"""
    P = Poset(3)
    z, t = P.zero, P.top
    X = p_filtration(QQ, P, *plain({0: ["1"], 1: ["x"]}), {"1": z, "x": t})
    D = plain({0: ["y"], 1: ["z"]}, {"y": {"z": QQ.of(2)}})
    Y = p_filtration(QQ, P, *D, {"y": z, "z": z})
    cx = plain({0: ["a", "b"], 1: ["c", "e"]},
               {"a": {"c": 1, "e": 1}, "b": {"e": 1}})
    return P, X, Y, cx


def test_p_filtration_is_pinned():
    P, _, _, cx = pin_inputs()
    z, t = P.zero, P.top
    Z = p_filtration(QQ, P, *cx, {"a": z, "b": z, "c": z, "e": t})
    assert pinned(Z) == {
        "basis": {
            (z, 0): ['f0'],
            (z, 1): ['f0'],
            (t, 0): ['f0', 'f1'],
            (t, 1): ['f0', 'f1'],
        },
        "d": {
            (z, 0): {(0, 0): -1},
            (t, 0): {(0, 0): 1, (1, 0): 1, (1, 1): 1},
        },
        "phi": {
            (z, t, 0): {(0, 0): -1, (1, 0): 1},
            (z, t, 1): {(0, 0): 1},
        },
    }


def test_box_tensor_is_pinned():
    P, X, Y, _ = pin_inputs()
    z, t = P.zero, P.top
    assert pinned(box_tensor(X, Y)) == {
        "basis": {
            (z, 0): [('f0', 'f0', z, z, 0)],
            (z, 1): [('f0', 'f0', z, z, 0)],
            (t, 0): [('f0', 'f0', z, z, 0)],
            (t, 1): [('f0', 'f0', z, z, 0), ('f0', 'f0', t, z, 1)],
            (t, 2): [('f0', 'f0', t, z, 1)],
        },
        "d": {
            (z, 0): {(0, 0): 2},
            (t, 0): {(0, 0): 2},
            (t, 1): {(0, 1): -2},
        },
        "phi": {
            (z, t, 0): {(0, 0): 1},
            (z, t, 1): {(0, 0): 1},
        },
    }


def test_internal_hom_is_pinned():
    P, X, Y, _ = pin_inputs()
    z, t = P.zero, P.top
    assert pinned(internal_hom(Y, X)) == {
        "basis": {
            (z, -1): ['h0'],
            (z, 0): ['h0'],
            (t, -1): ['h0'],
            (t, 0): ['h0', 'h1'],
            (t, 1): ['h0'],
        },
        "d": {
            (z, -1): {(0, 0): 2},
            (t, -1): {(0, 0): 2},
            (t, 0): {(0, 1): -2},
        },
        "phi": {
            (z, t, -1): {(0, 0): 1},
            (z, t, 0): {(0, 0): 1},
        },
    }


def test_free_perverse_is_pinned():
    # cx placed on the up-set of a middle perversity of Poset(4): the same
    # basis and d at each of its three perversities, identity covers there
    P = Poset(4)
    _, e1, e2, e3 = P.elements
    cx = plain({0: ["a", "b"], 1: ["c", "e"]},
               {"a": {"c": 1, "e": 1}, "b": {"e": 2}})
    Z = free_perverse(QQ, P, e1, *cx)
    validate_perverse(Z)
    ident = {(0, 0): 1, (1, 1): 1}
    assert pinned(Z) == {
        "basis": {(r, k): b for r in (e1, e2, e3)
                  for k, b in ((0, ["a", "b"]), (1, ["c", "e"]))},
        "d": {(r, 0): {(0, 0): 1, (1, 0): 1, (1, 1): 2}
              for r in (e1, e2, e3)},
        "phi": {(r, s, k): ident for r, s in ((e1, e2), (e2, e3))
                for k in (0, 1)},
    }


# The same constructions on the chain e0 < e1 < e2 < e3 of Poset(4), where
# three covers compose and an object of the hom limit is absent at the
# larger perversity; recorded before the constructions shared one builder.


def pin_inputs_p4():
    "X: S^1 with x at e1; Y: a disk with d y = 2 z, y at e1 and z at e0"
    P = Poset(4)
    e0, e1, _, _ = P.elements
    X = p_filtration(QQ, P, *plain({0: ["1"], 1: ["x"]}), {"1": e0, "x": e1})
    D = plain({0: ["y"], 1: ["z"]}, {"y": {"z": QQ.of(2)}})
    Y = p_filtration(QQ, P, *D, {"y": e1, "z": e0})
    return P, X, Y


def test_box_tensor_is_pinned_across_covers():
    P, X, Y = pin_inputs_p4()
    e0, e1, e2, e3 = P.elements
    B = box_tensor(X, Y)
    validate_perverse(B)
    assert pinned(B) == {
        "basis": {
            (e0, 1): [('f0', 'f0', e0, e0, 0)],
            (e1, 0): [('f0', 'f0', e0, e1, 0)],
            (e1, 1): [('f0', 'f0', e0, e0, 0)],
            (e1, 2): [('f0', 'f0', e1, e0, 1)],
            (e2, 0): [('f0', 'f0', e0, e1, 0)],
            (e2, 1): [('f0', 'f0', e0, e0, 0)],
            (e2, 2): [('f0', 'f0', e1, e0, 1)],
            (e3, 0): [('f0', 'f0', e0, e1, 0)],
            (e3, 1): [('f0', 'f0', e0, e0, 0), ('f0', 'f0', e1, e1, 1)],
            (e3, 2): [('f0', 'f0', e1, e0, 1)],
        },
        "d": {
            (e1, 0): {(0, 0): 2},
            (e2, 0): {(0, 0): 2},
            (e3, 0): {(0, 0): 2},
            (e3, 1): {(0, 1): -2},
        },
        "phi": {
            (e0, e1, 1): {(0, 0): 1},
            (e1, e2, 0): {(0, 0): 1},
            (e1, e2, 1): {(0, 0): 1},
            (e1, e2, 2): {(0, 0): 1},
            (e2, e3, 0): {(0, 0): 1},
            (e2, e3, 1): {(0, 0): 1},
            (e2, e3, 2): {(0, 0): 1},
        },
    }


def test_internal_hom_is_pinned_across_covers():
    P, X, Y = pin_inputs_p4()
    e0, e1, e2, e3 = P.elements
    H = internal_hom(Y, X)
    validate_perverse(H)
    assert pinned(H) == {
        "basis": {
            (e0, -1): ['h0'], (e0, 0): ['h0'], (e0, 1): ['h0'],
            (e1, -1): ['h0'], (e1, 0): ['h0', 'h1'], (e1, 1): ['h0'],
            (e2, -1): ['h0'], (e2, 0): ['h0', 'h1'], (e2, 1): ['h0'],
            (e3, -1): ['h0'], (e3, 0): ['h0'],
        },
        "d": {
            (e0, -1): {(0, 0): 2},
            (e1, -1): {(0, 0): 2},
            (e1, 0): {(0, 1): -2},
            (e2, -1): {(0, 0): 2},
            (e2, 0): {(0, 1): -2},
        },
        "phi": {
            (e0, e1, -1): {(0, 0): 1},
            (e0, e1, 0): {(0, 0): 1},
            (e0, e1, 1): {(0, 0): 1},
            (e1, e2, -1): {(0, 0): 1},
            (e1, e2, 0): {(0, 0): 1, (1, 1): 1},
            (e1, e2, 1): {(0, 0): 1},
            (e2, e3, -1): {(0, 0): 1},
            # h0 at e2 lives on objects absent at e3, so it maps to zero
            (e2, e3, 0): {(0, 1): 1},
        },
    }
