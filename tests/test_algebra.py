import pytest

from perverse.fields import Field, QQ
from perverse.poset import Poset, leq
from perverse.algebra import (PDGA, tensor_pdga, opposite_and_enveloping,
                              tensor_algebra, Bimodule, algebra_as_bimodule,
                              dual_bimodule, dual_name, module_hom,
                              module_tensor, ModuleSlots)
from perverse.builders import (trivial_algebra, sphere_algebra,
                               truncated_polynomial, corpus, random_pdga,
                               quasi_iso_fixture)
from perverse.complexes import cofibrancy_certificate
from perverse.hochschild import restrict_bimodule

P3 = Poset(3)
P4 = Poset(4)


def test_corpus_validates():
    for name, A in corpus(QQ, P4).items():
        rep = A.validate()
        assert rep["valid"], (name, rep["violations"][:3])
        assert rep["commutative"], name
        assert rep["augmented"], name


def test_sphere_homology_tables():
    A = sphere_algebra(QQ, P3, 2)
    dims = A.homology_dims()
    for p in P3.elements:
        assert dims[(p, 0)] == 1
        assert dims[(p, 2)] == 1
        assert all(d == 0 for (q, k), d in dims.items()
                   if q == p and k not in (0, 2))


def test_truncated_polynomial_products():
    A = truncated_polynomial(QQ, P3, 2, power=3)
    assert A.mul("x", "x") == {"x^2": QQ.one}
    assert A.mul("x", "x^2") == {}
    assert A.validate()["valid"]


def test_leibniz_violation_reported():
    # d(x y) = 0 but (dx) y + x (dy) = x z = w: broken table
    gens = [("1", 0, P4.zero), ("x", 2, P4.zero), ("y", 3, P4.zero),
            ("z", 4, P4.zero), ("w", 6, P4.zero)]
    prods = {(a, b): {} for a in ["x", "y", "z", "w"] for b in ["x", "y", "z", "w"]}
    prods[("x", "z")] = {"w": QQ.one}
    A = PDGA(QQ, P4, gens, "1", diff={"y": {"z": QQ.one}}, products=prods)
    rep = A.validate()
    assert not rep["valid"]
    hits = [v for v in rep["violations"] if v["identity"] == "Leibniz"]
    assert ("x", "y") in [v["witness"] for v in hits]


def test_overflow_product_is_zero():
    # label sum past the top perversity lands in the degenerate slot
    A = PDGA(QQ, P4, [("1", 0, P4.zero), ("x", 2, P4.top)], "1",
             products={("x", "x"): {}})
    assert A.mul("x", "x") == {}
    assert A.validate()["valid"]
    bad = PDGA(QQ, P4, [("1", 0, P4.zero), ("x", 2, P4.top), ("y", 4, P4.zero)],
               "1", products={("x", "x"): {"y": QQ.one}})
    rep = bad.validate()
    assert any(v["identity"] == "degenerate slot product"
               for v in rep["violations"])


def _filtered_mul(A, a, b):
    "the product read through sum_labels_ok on every call"
    if not A.sum_labels_ok(A.lam(a), A.lam(b)):
        return {}
    if a == A.unit:
        return {b: A.field.one}
    if b == A.unit:
        return {a: A.field.one}
    return dict(A.products.get((a, b), {}))


def _product_table_inputs():
    out = dict(corpus(QQ, P3))
    out["random-Q"] = random_pdga(QQ, P4, 103)
    out["random-Fp"] = random_pdga(Field(32003), P4, 103)
    # the label sum of x.x passes the top: a product the table must drop
    out["overflow"] = PDGA(
        QQ, P4, [("1", 0, P4.zero), ("x", 2, P4.top), ("y", 4, P4.zero)],
        "1", products={("x", "x"): {"y": QQ.one}, ("x", "y"): {}})
    # a unit above the zero label: its product with x passes the top, with
    # y it does not, so mul reads both sides of the unit table
    out["labeled-unit"] = PDGA(
        QQ, P4, [("1", 0, P4.elements[1]), ("x", 2, P4.top),
                 ("y", 4, P4.zero)], "1")
    return out


@pytest.mark.parametrize("name", sorted(_product_table_inputs()))
def test_label_products_hold_the_admissible_nonunit_pairs(name):
    A = _product_table_inputs()[name]
    nonunit = A.nonunit()
    admissible = {(a, b) for a in nonunit for b in nonunit
                  if A.sum_labels_ok(A.lam(a), A.lam(b))}
    assert set(A.label_products) == admissible
    for (a, b), v in A.label_products.items():
        assert v == A.products.get((a, b), {})
    for a in A.names:
        for b in A.names:
            assert A.mul(a, b) == _filtered_mul(A, a, b), (a, b)


def test_label_products_drop_a_product_past_the_top():
    A = _product_table_inputs()["overflow"]
    assert A.products[("x", "x")] == {"y": 1}
    assert ("x", "x") not in A.label_products
    assert A.label_products[("x", "y")] == {}
    assert A.mul("x", "x") == {} and A.mul("1", "x") == {"x": 1}


def test_opposite_and_enveloping():
    for A in [sphere_algebra(QQ, P3, 2), sphere_algebra(QQ, P3, 3),
              truncated_polynomial(QQ, P3, 2, power=3)]:
        op, E = opposite_and_enveloping(A)
        assert op.validate()["valid"]
        assert E.validate()["valid"]
        n = len(A.names)
        assert len(E.names) == n * n
        slots = ModuleSlots(algebra_as_bimodule(E))
        for p in P3.elements:
            assert sum(len(slots.basis(p, k)) for k in E.degrees()) == n * n


def test_multiplication_map_on_enveloping_for_commutative():
    # mu: A^e -> A, a@b -> ab, is a map of dg algebras when A is commutative
    for A in [sphere_algebra(QQ, P3, 2), sphere_algebra(QQ, P3, 3),
              truncated_polynomial(QQ, P3, 2, power=3)]:
        op, E = opposite_and_enveloping(A)

        def mu(vec):
            out = {}
            for (a, b), c in vec.items():
                from perverse.linalg import vec_add, vec_scale
                out = vec_add(QQ, out, vec_scale(QQ, c, A.mul(a, b)))
            return out

        for u in E.names:
            assert mu(E.d(u)) == A.d_vec(mu({u: QQ.one})), u
            for v in E.names:
                lhs = mu(E.mul(u, v))
                rhs = A.mul_vec(mu({u: QQ.one}), mu({v: QQ.one}))
                assert lhs == rhs, (u, v)


def test_tensor_pdga_of_spheres():
    A = sphere_algebra(QQ, P3, 2)
    B = sphere_algebra(QQ, P3, 3)
    T = tensor_pdga(A, B)
    rep = T.validate()
    assert rep["valid"]
    assert rep["commutative"]
    dims = T.homology_dims()
    for k, want in [(0, 1), (2, 1), (3, 1), (5, 1)]:
        assert dims[(P3.zero, k)] == want


def test_tensor_algebra_truncation():
    T = tensor_algebra(QQ, P3, [("x", 2, P3.zero)], L=3)
    assert sorted(T.names, key=len) == [(), ("x",), ("x", "x"), ("x", "x", "x")]
    assert T.validate()["valid"]
    with pytest.raises(OverflowError):
        T.mul(("x", "x"), ("x", "x"))
    Tt = tensor_algebra(QQ, P3, [("x", 2, P3.zero)], L=3, strict=False)
    assert Tt.mul(("x", "x"), ("x", "x")) == {}
    # homology and the carrier read only the differential, never a product
    assert T.homology_dims() == Tt.homology_dims()
    assert T.carrier().basis == Tt.carrier().basis


def test_tensor_algebra_differential():
    # d x = y extends as a derivation to words
    T = tensor_algebra(QQ, P3, [("x", 2, P3.zero), ("y", 3, P3.zero)], L=2,
                       diff={"x": {"y": 1}}, strict=False)
    assert T.validate()["valid"]
    d = T.d(("x", "x"))
    assert d == {("y", "x"): QQ.one, ("x", "y"): QQ.one}
    T2 = tensor_algebra(QQ, P3, [("a", 1, P3.zero), ("b", 2, P3.zero)], L=2,
                        diff={"a": {"b": 1}}, strict=False)
    d = T2.d(("a", "a"))
    assert d == {("b", "a"): QQ.one, ("a", "b"): QQ.of(-1)}


def test_tensor_algebra_label_filtering():
    T = tensor_algebra(QQ, P4, [("x", 2, P4.top)], L=3, strict=False)
    # two copies of the top label exceed the top: words past length 1 vanish
    assert sorted(T.names, key=len) == [(), ("x",)]


@pytest.mark.parametrize("seed", range(20))
def test_random_pdga_validates(seed):
    A = random_pdga(QQ, P4, seed)
    rep = A.validate()
    assert rep["valid"]


def test_carrier_is_cofibrant_perverse_complex():
    A = random_pdga(QQ, P4, 3)
    Z = A.carrier()
    Z.validate()
    rep = cofibrancy_certificate(Z)
    assert rep["cofibrant_sufficient"], rep["failures"]


def test_carrier_of_a_labeled_random_pdga_is_pinned():
    # exact slots and maps of a labeled pDGA with a differential, recorded
    # before the carrier went through complexes.induce
    A = random_pdga(QQ, P4, 5)
    z, a, b, t = P4.elements
    one = {(0, 0): 1}
    assert pinned(A.carrier()) == {
        "basis": {(z, 0): ["1"], (z, 4): ["v1"],
                  (a, 0): ["1"], (a, 3): ["v2"], (a, 4): ["v1"],
                  (b, 0): ["1"], (b, 3): ["v0", "v2"], (b, 4): ["v1"],
                  (t, 0): ["1"], (t, 3): ["v0", "v2"], (t, 4): ["v1"]},
        "d": {(a, 3): one, (b, 3): {(0, 1): 1}, (t, 3): {(0, 1): 1}},
        "phi": {(z, a, 0): one, (z, a, 4): one,
                (a, b, 0): one, (a, b, 3): {(1, 0): 1}, (a, b, 4): one,
                (b, t, 0): one, (b, t, 3): {(0, 0): 1, (1, 1): 1},
                (b, t, 4): one}}
    assert A.homology_dims() == {(z, 0): 1, (z, 4): 1, (a, 0): 1, (b, 0): 1,
                                 (b, 3): 1, (t, 0): 1, (t, 3): 1}


@pytest.mark.parametrize("y_degree, y_label, message", [
    (3, P3.top, "above its label"),
    (4, P3.zero, "off degree 3"),
])
def test_carrier_rejects_a_differential_that_leaves_its_slot(
        y_degree, y_label, message):
    # d x = y with y missing from the slot of x at the label of x, or in
    # the wrong degree: both the carrier and its homology refuse it
    A = PDGA(QQ, P3, [("1", 0, P3.zero), ("x", 2, P3.zero),
                      ("y", y_degree, y_label)], "1",
             diff={"x": {"y": 1}}, products={})
    for build in (A.carrier, A.homology_dims):
        with pytest.raises(ValueError, match="d\\('x'\\) .*" + message):
            build()


def test_algebra_bimodule_axioms():
    for name, A in corpus(QQ, P3).items():
        M = algebra_as_bimodule(A)
        rep = M.validate()
        assert rep["valid"], (name, rep["violations"][:3])


def test_dual_bimodule_axioms():
    for name, A in corpus(QQ, P3).items():
        D = dual_bimodule(A)
        rep = D.validate()
        assert rep["valid"], (name, rep["violations"][:3])
    for seed in range(8):
        A = random_pdga(QQ, P4, seed)
        rep = dual_bimodule(A).validate()
        assert rep["valid"], (seed, rep["violations"][:3])


def test_dual_bimodule_presence_is_downward():
    A = sphere_algebra(QQ, P4, 2, label=P4.top)
    D = dual_bimodule(A)
    xs = dual_name("x")
    assert D.deg(xs) == -2
    # x sits at the top, so x* only survives at the zero perversity; 1* is
    # present everywhere since dual(0) is the top
    for p in P4.elements:
        assert D.present(xs, p) == (p == P4.zero)
        assert D.present(dual_name("1"), p)
    A2 = sphere_algebra(QQ, P4, 2, label=(0, 0, 0, 1, 1))
    D2 = dual_bimodule(A2)
    for p in P4.elements:
        assert D2.present(dual_name("x"), p) == leq(p, P4.dual((0, 0, 0, 1, 1)))


def test_module_hom_of_algebra_into_module():
    for A in [sphere_algebra(QQ, P3, 2), truncated_polynomial(QQ, P3, 2, power=3),
              random_pdga(QQ, P3, 5)]:
        M = algebra_as_bimodule(A)
        lo, hi = min(A.degrees()), max(A.degrees())
        H = module_hom(M, M, (lo, hi))
        H.validate()
        Z = A.carrier()
        for r in A.poset.elements:
            hh, hz = H.homology(r), Z.homology(r)
            for k in range(lo, hi + 1):
                assert H.dim(r, k) == Z.dim(r, k), (r, k)
                assert hh.get(k, 0) == hz.get(k, 0), (r, k)


def test_module_tensor_unit_law():
    for A in [sphere_algebra(QQ, P3, 2), truncated_polynomial(QQ, P3, 2, power=3),
              random_pdga(QQ, P3, 7)]:
        M = algebra_as_bimodule(A)
        T = module_tensor(M, M)
        T.validate()
        Z = A.carrier()
        for r in A.poset.elements:
            ht, hz = T.homology(r), Z.homology(r)
            for k in A.degrees():
                assert T.dim(r, k) == Z.dim(r, k), (r, k)
                assert ht.get(k, 0) == hz.get(k, 0), (r, k)


def test_quasi_iso_fixture():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    assert A.validate()["valid"]
    assert B.validate()["valid"]
    # f is a chain map and multiplicative
    from perverse.linalg import vec_add, vec_scale

    def f(vec):
        out = {}
        for x, c in vec.items():
            out = vec_add(QQ, out, vec_scale(QQ, c, fmap[x]))
        return out

    for x in A.names:
        assert f(A.d(x)) == B.d_vec(f({x: QQ.one}))
        for y in A.names:
            assert f(A.mul(x, y)) == B.mul_vec(f({x: QQ.one}), f({y: QQ.one}))
    da, db = A.homology_dims(), B.homology_dims()
    keys = set(da) | set(db)
    assert all(da.get(k, 0) == db.get(k, 0) for k in keys)


# Exact bases and nonzero d / phi entries of module_hom and module_tensor on
# B = k[x]/x^2 + (y, z = dy) as a bimodule over A = k[x]/x^2, recorded
# before their sparse accumulators were rewritten: the tests above compare
# only dimensions and homology, which a sign slip can pass.  B is a constant
# diagram, so both perversities of P3 carry the same slot.


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


def restricted_fixture():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    return restrict_bimodule(A, B, fmap)


def test_module_hom_is_pinned():
    M = restricted_fixture()
    z, t = P3.zero, P3.top
    slot = {
        "basis": {
            -2: ['f0'], -1: ['f0', 'f1'], 0: ['f0', 'f1', 'f2'], 1: ['f0'],
            2: ['f0'], 3: ['f0'], 4: ['f0'],
        },
        "d": {
            -2: {(0, 0): -1},
            -1: {(1, 1): 1, (2, 1): 1},
            0: {(0, 1): 1, (0, 2): -1},
            3: {(0, 0): 1},
        },
    }
    assert pinned(module_hom(M, M, (-2, 3))) == {
        "basis": {(r, k): b for r in (z, t)
                  for k, b in slot["basis"].items()},
        "d": {(r, k): e for r in (z, t) for k, e in slot["d"].items()},
        "phi": {
            (z, t, -2): {(0, 0): 1},
            (z, t, -1): {(0, 0): 1, (1, 1): 1},
            (z, t, 0): {(0, 0): 1, (1, 1): 1, (2, 2): 1},
            (z, t, 1): {(0, 0): 1},
            (z, t, 2): {(0, 0): 1},
            (z, t, 3): {(0, 0): 1},
            (z, t, 4): {(0, 0): 1},
        },
    }


def test_module_tensor_is_pinned():
    M = restricted_fixture()
    z, t = P3.zero, P3.top
    slot = {
        "basis": {
            0: [('1', '1')], 2: [('x', '1')], 3: [('1', 'y'), ('y', '1')],
            4: [('1', 'z'), ('z', '1')], 6: [('y', 'y')],
            7: [('y', 'z'), ('z', 'y')], 8: [('z', 'z')],
        },
        "d": {
            3: {(0, 0): 1, (1, 1): 1},
            6: {(0, 0): -1, (1, 0): 1},
            7: {(0, 0): 1, (0, 1): 1},
        },
    }
    assert pinned(module_tensor(M, M)) == {
        "basis": {(r, k): b for r in (z, t)
                  for k, b in slot["basis"].items()},
        "d": {(r, k): e for r in (z, t) for k, e in slot["d"].items()},
        "phi": {
            (z, t, 0): {(0, 0): 1},
            (z, t, 2): {(0, 0): 1},
            (z, t, 3): {(0, 0): 1, (1, 1): 1},
            (z, t, 4): {(0, 0): 1, (1, 1): 1},
            (z, t, 6): {(0, 0): 1},
            (z, t, 7): {(0, 0): 1, (1, 1): 1},
            (z, t, 8): {(0, 0): 1},
        },
    }


def test_module_hom_is_pinned_across_covers():
    """Hom_A(A, A) on Poset(4) for A = 1, x, y, z = dy with zero products
    and labels x, z at e1 and y at e2: a pair (m, n) leaves the slot once
    lam(m) + r is past the top, so the identity at e2 loses its (x, x) and
    (z, z) terms at e3"""
    e0, e1, e2, e3 = P4.elements
    gens = [("1", 0, e0), ("x", 2, e1), ("y", 3, e2), ("z", 4, e1)]
    prods = {(a, b): {} for a in "xyz" for b in "xyz"}
    A = PDGA(QQ, P4, gens, "1", diff={"y": {"z": QQ.one}}, products=prods)
    H = module_hom(algebra_as_bimodule(A), algebra_as_bimodule(A), (-1, 4))
    H.validate()
    assert pinned(H) == {
        "basis": {
            (e0, 0): ['f0'],
            (e1, 0): ['f0'], (e1, 2): ['f0'], (e1, 4): ['f0'],
            (e2, 0): ['f0'], (e2, 2): ['f0'], (e2, 3): ['f0'],
            (e2, 4): ['f0'],
            (e3, 0): ['f0'], (e3, 2): ['f0'], (e3, 3): ['f0'],
            (e3, 4): ['f0'],
        },
        "d": {
            (e2, 3): {(0, 0): 1},
            (e3, 3): {(0, 0): 1},
        },
        "phi": {
            (e0, e1, 0): {(0, 0): 1},
            (e1, e2, 0): {(0, 0): 1},
            (e1, e2, 2): {(0, 0): 1},
            (e1, e2, 4): {(0, 0): 1},
            (e2, e3, 0): {(0, 0): 1},
            (e2, e3, 2): {(0, 0): 1},
            (e2, e3, 3): {(0, 0): 1},
            (e2, e3, 4): {(0, 0): 1},
        },
    }


def test_dual_module_slots_are_the_duals_of_the_subcomplexes():
    # a down-type slot of DA at r is the dual of the subcomplex A_{t-r}, so
    # its differential drops the dual elements absent at r: d^2 = 0 on
    # every slot and dim H^k(DA_r) = dim H^{-k}(A_{t-r}).  The first input
    # has a d(v1*) term outside its slot at r = (0, 0, 0, 1), k = -3
    bad = ModuleSlots(dual_bimodule(random_pdga(QQ, P3, 6)))
    assert bad.truncated
    bad.differential((0, 0, 0, 1), -3)
    F5 = Field(5)
    for F in (QQ, F5):
        for P, seeds in ((P3, range(12)), (P4, (0, 1, 2, 3, 5, 6, 103))):
            for seed in seeds:
                A = random_pdga(F, P, seed)
                ma = ModuleSlots(algebra_as_bimodule(A))
                md = ModuleSlots(dual_bimodule(A))
                assert not ma.truncated
                lo, hi = min(ma.degrees()), max(ma.degrees())
                for r in P.elements:
                    for k in range(-hi - 1, -lo + 1):
                        assert md.differential(r, k + 1).mul(
                            md.differential(r, k)).is_zero(), (seed, r, k)
                    assert md.dims(r, -hi, -lo) == {
                        -k: h for k, h in ma.dims(P.dual(r), lo, hi).items()}


def test_module_slots_of_an_up_type_module_refuse_a_term_leaving_a_slot():
    # labels only decrease under d in an up-type module; a d(m) term above
    # the label of m leaves the slot of m and raises
    A = trivial_algebra(QQ, P3)
    M = Bimodule(A, [("m", 0, "up", P3.zero), ("n", 1, "up", P3.top)],
                 diff={"m": {"n": QQ.one}})
    with pytest.raises(ValueError, match="leaves slot"):
        ModuleSlots(M).differential(P3.zero, 0)
