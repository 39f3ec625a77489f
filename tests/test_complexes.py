import random

import pytest

from perverse.fields import Field, QQ
from perverse.linalg import SparseMatrix, Subquotient
from perverse.poset import Poset, leq
from perverse.complexes import (ChainComplex, point_complex, PerverseComplex,
                                free_perverse, unit_perverse, box_tensor,
                                box_tensor_fulldiagram, internal_hom,
                                linear_dual, p_filtration,
                                cofibrancy_certificate)


def sphere(field, n):
    "H*(S^n) as a complex with zero differential"
    return ChainComplex(field, basis={0: ["1"], n: ["x"]})


def disk(field, n):
    "an acyclic two-step complex in degrees n, n+1"
    d = SparseMatrix(field, 1, 1, {(0, 0): field.one})
    return ChainComplex(field, basis={n: ["y"], n + 1: ["z"]}, d={n: d})


def random_labeled_complex(field, poset, rng, maxdim=2, degs=(0, 1, 2)):
    "random complex with matched-pair differential and random perversity labels"
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
    d = {}
    ks = [k for k in degs if k + 1 in basis]
    if ks:
        k = rng.choice(ks)
        m = SparseMatrix(field, len(basis[k + 1]), len(basis[k]))
        for j in range(len(basis[k])):
            for i in range(len(basis[k + 1])):
                if rng.random() < 0.5:
                    m[i, j] = field.of(rng.choice([1, 2, -1]))
        d[k] = m
    cx = ChainComplex(field, basis, d)
    cx.validate()
    return cx, lab


def subquotient_dims(field, dims, diff, degs):
    "{k: dim ker d_k / im d_(k-1)} through a Subquotient per degree"
    return {k: Subquotient(field, dims(k), d_out=diff(k),
                           d_in=diff(k - 1)).dim
            for k in range(degs[0], degs[-1] + 1)} if degs else {}


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_homology_from_ranks_matches_subquotients(field):
    for P in (Poset(3), Poset(4)):
        rng = random.Random(P.n)
        for _ in range(8):
            cx, lab = random_labeled_complex(field, P, rng)
            cx2, lab2 = random_labeled_complex(field, P, rng, degs=(0, 1))
            assert cx.homology() == subquotient_dims(
                field, cx.dim, cx.diff, cx.degrees())
            Z = p_filtration(field, P, cx, lab)
            Y = p_filtration(field, P, cx2, lab2)
            for W in (Z, box_tensor(Z, Y), internal_hom(Y, Z)):
                for p in P.elements:
                    assert W.homology(p) == subquotient_dims(
                        field, lambda k: W.dim(p, k),
                        lambda k: W.diff(p, k), W.degrees())


def test_free_perverse_validates_and_homology():
    P = Poset(4)
    Z = free_perverse(QQ, P, P.zero, sphere(QQ, 2))
    Z.validate()
    for p in P.elements:
        h = Z.homology(p)
        assert h.get(0) == 1 and h.get(2) == 1
    D = free_perverse(QQ, P, P.zero, disk(QQ, 1))
    D.validate()
    for p in P.elements:
        assert all(v == 0 for v in D.homology(p).values())


def test_free_at_top_supported_only_at_top():
    P = Poset(4)
    Z = free_perverse(QQ, P, P.top, sphere(QQ, 2))
    for p in P.elements:
        expect = 1 if p == P.top else 0
        assert Z.dim(p, 0) == expect


def test_box_of_frees_is_free_on_sum():
    # F_p(S^a) box F_q(S^b) = F_{p+q}(S^{a+b}) for the one-dim sphere complexes
    P = Poset(4)
    line = lambda a: ChainComplex(QQ, basis={a: ["s"]})
    for p in P.elements:
        for q in P.elements:
            Z = free_perverse(QQ, P, p, line(1))
            Y = free_perverse(QQ, P, q, line(2))
            B = box_tensor(Z, Y)
            B.validate()
            s = P.oplus(p, q)
            W = free_perverse(QQ, P, s, line(3)) if s is not None \
                else PerverseComplex(QQ, P)
            for r in P.elements:
                for k in [0, 1, 2, 3]:
                    assert B.dim(r, k) == W.dim(r, k), (p, q, r, k)


def test_box_unit_law():
    P = Poset(3)
    rng = random.Random(11)
    cx, lab = random_labeled_complex(QQ, P, rng)
    Z = p_filtration(QQ, P, cx, lab)
    Z.validate()
    U = unit_perverse(QQ, P)
    B = box_tensor(Z, U)
    B.validate()
    for p in P.elements:
        for k in Z.degrees():
            assert B.dim(p, k) == Z.dim(p, k)
        assert B.homology(p) == Z.homology(p)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_box_against_fulldiagram_oracle(seed):
    P = Poset(4)
    rng = random.Random(seed)
    cx1, lab1 = random_labeled_complex(QQ, P, rng, maxdim=2, degs=(0, 1))
    cx2, lab2 = random_labeled_complex(QQ, P, rng, maxdim=2, degs=(0, 1))
    Z = p_filtration(QQ, P, cx1, lab1)
    Y = p_filtration(QQ, P, cx2, lab2)
    B = box_tensor(Z, Y)
    B.validate()
    O = box_tensor_fulldiagram(Z, Y)
    for r in P.elements:
        for k in [0, 1, 2]:
            assert B.dim(r, k) == O.dim(r, k), (r, k)


def test_box_symmetry_dims():
    P = Poset(4)
    rng = random.Random(23)
    cx1, lab1 = random_labeled_complex(QQ, P, rng, degs=(0, 1))
    cx2, lab2 = random_labeled_complex(QQ, P, rng, degs=(0, 2))
    Z = p_filtration(QQ, P, cx1, lab1)
    Y = p_filtration(QQ, P, cx2, lab2)
    B1, B2 = box_tensor(Z, Y), box_tensor(Y, Z)
    for r in P.elements:
        for k in [0, 1, 2, 3]:
            assert B1.dim(r, k) == B2.dim(r, k)


def test_internal_hom_unit():
    P = Poset(3)
    rng = random.Random(5)
    cx, lab = random_labeled_complex(QQ, P, rng)
    Y = p_filtration(QQ, P, cx, lab)
    H = internal_hom(unit_perverse(QQ, P), Y)
    H.validate()
    for p in P.elements:
        for k in Y.degrees():
            assert H.dim(p, k) == Y.dim(p, k)
        assert H.homology(p) == Y.homology(p)


def test_linear_dual_closed_form():
    P = Poset(4)
    rng = random.Random(9)
    cx, lab = random_labeled_complex(QQ, P, rng, degs=(0, 1))
    Z = p_filtration(QQ, P, cx, lab)
    D = linear_dual(Z)
    D.validate()
    for r in P.elements:
        for k in Z.degrees():
            assert D.dim(r, -k) == Z.dim(P.dual(r), k), (r, k)


def test_dual_of_unit_and_double_dual():
    P = Poset(4)
    U = unit_perverse(QQ, P)
    DU = linear_dual(U)
    for p in P.elements:
        assert DU.dim(p, 0) == 1
    Z = free_perverse(QQ, P, P.zero, sphere(QQ, 2))
    DD = linear_dual(linear_dual(Z))
    for p in P.elements:
        for k in Z.degrees():
            assert DD.dim(p, k) == Z.dim(p, k)


def test_tensor_hom_adjunction_dims():
    P = Poset(3)
    X = free_perverse(QQ, P, P.zero, sphere(QQ, 1))
    Y = free_perverse(QQ, P, P.top, sphere(QQ, 1))
    Z = unit_perverse(QQ, P)
    lhs = internal_hom(box_tensor(X, Y), Z)
    rhs = internal_hom(X, internal_hom(Y, Z))
    for r in P.elements:
        for k in [-3, -2, -1, 0, 1]:
            assert lhs.dim(r, k) == rhs.dim(r, k), (r, k)


def test_p_filtration_examples():
    P = Poset(4)
    # all labels zero: constant diagram
    cx = sphere(QQ, 2)
    Z = p_filtration(QQ, P, cx, {"1": P.zero, "x": P.zero})
    for p in P.elements:
        assert Z.dim(p, 0) == 1 and Z.dim(p, 2) == 1
    # single closed generator at top perversity
    Z = p_filtration(QQ, P, ChainComplex(QQ, {2: ["x"]}), {"x": P.top})
    for p in P.elements:
        assert Z.dim(p, 2) == (1 if p == P.top else 0)
    # y labeled zero but dy labeled top: y only enters at top
    d = {1: SparseMatrix(QQ, 1, 1, {(0, 0): QQ.one})}
    cx = ChainComplex(QQ, {1: ["y"], 2: ["z"]}, d)
    Z = p_filtration(QQ, P, cx, {"y": P.zero, "z": P.top})
    Z.validate()
    for p in P.elements:
        expect = 1 if p == P.top else 0
        assert Z.dim(p, 1) == expect
        assert Z.dim(p, 2) == expect


def test_kunneth_dims_for_filtration_outputs():
    P = Poset(4)
    for p, q in [(P.zero, P.zero), (P.zero, P.top)]:
        C, D = sphere(QQ, 1), disk(QQ, 1)
        X = p_filtration(QQ, P, C, {l: p for l in ["1", "x"]})
        Y = p_filtration(QQ, P, D, {l: q for l in ["y", "z"]})
        B = box_tensor(X, Y)
        s = P.oplus(p, q)
        for r in P.elements:
            h = B.homology(r)
            assert all(v == 0 for v in h.values())  # disk factor is acyclic
        X2 = p_filtration(QQ, P, sphere(QQ, 2), {l: q for l in ["1", "x"]})
        B2 = box_tensor(X, X2)
        for r in P.elements:
            h = B2.homology(r)
            expect = 1 if (s is not None and leq(s, r)) else 0
            for k in [0, 1, 2, 3]:
                assert h.get(k, 0) == expect, (p, q, r, k)


def test_cofibrancy_certificate_on_filtration():
    P = Poset(4)
    rng = random.Random(31)
    for _ in range(3):
        cx, lab = random_labeled_complex(QQ, P, rng, degs=(0, 1))
        Z = p_filtration(QQ, P, cx, lab)
        rep = cofibrancy_certificate(Z)
        assert rep["cofibrant_sufficient"], rep["failures"]


def test_cofibrancy_noninjective_fails():
    P = Poset(3)
    Z = PerverseComplex(QQ, P)
    Z.basis[(P.zero, 0)] = ["a"]
    Z.basis[(P.top, 0)] = ["b"]
    Z.phi[(P.zero, P.top, 0)] = SparseMatrix(QQ, 1, 1)  # zero map
    Z.validate()
    rep = cofibrancy_certificate(Z)
    assert not rep["injective"]
    assert not rep["cofibrant_sufficient"]


def minimum_condition_counterexample():
    "three perversities: q1, q2 incomparable below p, images meeting off the min"
    P = Poset(5)
    q1, q2 = (0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 1, 2)
    j = P.join(q1, q2)
    Z = PerverseComplex(QQ, P)
    for r in P.elements:
        above1, above2 = leq(q1, r), leq(q2, r)
        if leq(j, r):
            Z.basis[(r, 0)] = ["u", "v"]
        elif above1 or above2:
            Z.basis[(r, 0)] = ["w"]
    for (a, b) in P.covers():
        da, db = Z.dim(a, 0), Z.dim(b, 0)
        if da == 0:
            continue
        m = SparseMatrix(QQ, db, da)
        for i in range(min(da, db)):
            m[i, i] = QQ.one
        Z.phi[(a, b, 0)] = m
    Z.validate()
    return Z, q1, q2, j


def test_minimum_condition_counterexample_fails():
    Z, q1, q2, j = minimum_condition_counterexample()
    rep = cofibrancy_certificate(Z)
    assert rep["injective"]
    assert not rep["minimum_condition"]
    assert any(f[0] == "minimum" for f in rep["failures"])


# Exact bases and nonzero d / phi entries on small inputs, recorded before
# the sparse accumulators of these constructions were rewritten: the tests
# above compare only dimensions and homology, which a sign slip can pass.


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
    X = p_filtration(QQ, P, ChainComplex(QQ, {0: ["1"], 1: ["x"]}),
                     {"1": z, "x": t})
    D = ChainComplex(QQ, {0: ["y"], 1: ["z"]},
                     {0: SparseMatrix(QQ, 1, 1, {(0, 0): QQ.of(2)})})
    Y = p_filtration(QQ, P, D, {"y": z, "z": z})
    cx = ChainComplex(QQ, {0: ["a", "b"], 1: ["c", "e"]}, {0: SparseMatrix(
        QQ, 2, 2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})})
    return P, X, Y, cx


def test_p_filtration_is_pinned():
    P, _, _, cx = pin_inputs()
    z, t = P.zero, P.top
    Z = p_filtration(QQ, P, cx, {"a": z, "b": z, "c": z, "e": t})
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
            (t, 0): [('f0', 'f0', t, z, 0)],
            (t, 1): [('f0', 'f0', t, z, 0), ('f0', 'f0', t, z, 1)],
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


# The same constructions on the chain e0 < e1 < e2 < e3 of Poset(4), where
# three covers compose and an object of the hom limit is absent at the
# larger perversity; recorded before the constructions shared one builder.


def pin_inputs_p4():
    "X: S^1 with x at e1; Y: a disk with d y = 2 z, y at e1 and z at e0"
    P = Poset(4)
    e0, e1, _, _ = P.elements
    X = p_filtration(QQ, P, ChainComplex(QQ, {0: ["1"], 1: ["x"]}),
                     {"1": e0, "x": e1})
    D = ChainComplex(QQ, {0: ["y"], 1: ["z"]},
                     {0: SparseMatrix(QQ, 1, 1, {(0, 0): QQ.of(2)})})
    Y = p_filtration(QQ, P, D, {"y": e1, "z": e0})
    return P, X, Y


def test_box_tensor_is_pinned_across_covers():
    P, X, Y = pin_inputs_p4()
    e0, e1, e2, e3 = P.elements
    B = box_tensor(X, Y)
    B.validate()
    assert pinned(B) == {
        "basis": {
            (e0, 1): [('f0', 'f0', e0, e0, 0)],
            (e1, 0): [('f0', 'f0', e0, e1, 0)],
            (e1, 1): [('f0', 'f0', e1, e0, 0)],
            (e1, 2): [('f0', 'f0', e1, e0, 1)],
            (e2, 0): [('f0', 'f0', e0, e2, 0)],
            (e2, 1): [('f0', 'f0', e2, e0, 0)],
            (e2, 2): [('f0', 'f0', e2, e0, 1)],
            (e3, 0): [('f0', 'f0', e2, e1, 0)],
            (e3, 1): [('f0', 'f0', e2, e1, 1), ('f0', 'f0', e3, e0, 0)],
            (e3, 2): [('f0', 'f0', e3, e0, 1)],
        },
        "d": {
            (e1, 0): {(0, 0): 2},
            (e2, 0): {(0, 0): 2},
            (e3, 0): {(1, 0): 2},
            (e3, 1): {(0, 0): -2},
        },
        "phi": {
            (e0, e1, 1): {(0, 0): 1},
            (e1, e2, 0): {(0, 0): 1},
            (e1, e2, 1): {(0, 0): 1},
            (e1, e2, 2): {(0, 0): 1},
            (e2, e3, 0): {(0, 0): 1},
            (e2, e3, 1): {(1, 0): 1},
            (e2, e3, 2): {(0, 0): 1},
        },
    }


def test_internal_hom_is_pinned_across_covers():
    P, X, Y = pin_inputs_p4()
    e0, e1, e2, e3 = P.elements
    H = internal_hom(Y, X)
    H.validate()
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
