import pytest

from perverse.fields import Field, QQ
from perverse.poset import Poset, leq
from perverse.algebra import (PDGA, tensor_pdga, tensor_algebra, Bimodule,
                              algebra_as_bimodule, dual_bimodule, dual_name,
                              ModuleSlots, restrict_bimodule,
                              diagram_homology)
from perverse.builders import (trivial_algebra, sphere_algebra,
                               truncated_polynomial, corpus, random_pdga)
from perverse.complexes import cofibrancy_certificate, induce
from perverse.linalg import linear
from perverse.hochschild import Cochains
from oracles import (opposite_and_enveloping, quasi_iso_fixture,
                     validate_bimodule, carrier, validate_perverse,
                     perverse_homology, hom_slots, unit_perverse, slot_diff)

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
    dims = diagram_homology(A)
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
            return linear(QQ, lambda ab: A.mul(*ab), vec)

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
    dims = diagram_homology(T)
    for k, want in [(0, 1), (2, 1), (3, 1), (5, 1)]:
        assert dims[(P3.zero, k)] == want


def test_is_commutative_agrees_with_validate_without_running_it():
    P, z = P3, P3.zero
    algebras = list(corpus(QQ, P).values())
    algebras += [random_pdga(F, P4, s) for F in (QQ, Field(5))
                 for s in range(12)]
    algebras.append(PDGA(QQ, P, [("1", 0, z), ("x", 2, z), ("y", 2, z),
                                 ("z", 4, z)], "1",
                         products={("x", "y"): {"z": QQ.one}}))
    for A in [sphere_algebra(QQ, P, 2), sphere_algebra(QQ, P, 3),
              truncated_polynomial(QQ, P, 2, power=3)]:
        algebras += opposite_and_enveloping(A)
    algebras += [tensor_algebra(QQ, P, [("x", 2, z)], L=3),
                 tensor_algebra(QQ, P, [("x", 2, z), ("y", 3, z)], L=2)]
    flags = [A.validate()["commutative"] for A in algebras]
    assert True in flags and False in flags

    def refuse():
        raise AssertionError("is_commutative ran validate")

    for A, flag in zip(algebras, flags):
        A.validate = refuse
        # a strict tensor algebra reads its products without OverflowError
        assert A.is_commutative() is flag


def test_tensor_algebra_truncation():
    T = tensor_algebra(QQ, P3, [("x", 2, P3.zero)], L=3)
    assert sorted(T.names, key=len) == [(), ("x",), ("x", "x"), ("x", "x", "x")]
    assert T.validate()["valid"]
    with pytest.raises(OverflowError):
        T.mul(("x", "x"), ("x", "x"))
    Tt = tensor_algebra(QQ, P3, [("x", 2, P3.zero)], L=3)
    Tt.strict = False
    assert Tt.mul(("x", "x"), ("x", "x")) == {}
    # homology and the carrier read only the differential, never a product
    assert diagram_homology(T) == diagram_homology(Tt)
    assert carrier(T).basis == carrier(Tt).basis


def test_tensor_algebra_differential():
    # d x = y extends as a derivation to words
    T = tensor_algebra(QQ, P3, [("x", 2, P3.zero), ("y", 3, P3.zero)], L=2,
                       diff={"x": {"y": 1}})
    assert T.validate()["valid"]
    d = T.d(("x", "x"))
    assert d == {("y", "x"): QQ.one, ("x", "y"): QQ.one}
    T2 = tensor_algebra(QQ, P3, [("a", 1, P3.zero), ("b", 2, P3.zero)], L=2,
                        diff={"a": {"b": 1}})
    d = T2.d(("a", "a"))
    assert d == {("b", "a"): QQ.one, ("a", "b"): QQ.of(-1)}


def test_tensor_algebra_label_filtering():
    T = tensor_algebra(QQ, P4, [("x", 2, P4.top)], L=3)
    # two copies of the top label exceed the top: words past length 1 vanish
    assert sorted(T.names, key=len) == [(), ("x",)]


@pytest.mark.parametrize("seed", range(20))
def test_random_pdga_validates(seed):
    A = random_pdga(QQ, P4, seed)
    rep = A.validate()
    assert rep["valid"]


def test_carrier_is_cofibrant_perverse_complex():
    A = random_pdga(QQ, P4, 3)
    Z = carrier(A)
    validate_perverse(Z)
    rep = cofibrancy_certificate(Z)
    assert rep["cofibrant_sufficient"], rep["failures"]


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


def test_carrier_of_a_labeled_random_pdga_is_pinned():
    # exact slots and maps of a labeled pDGA with a differential, recorded
    # before the carrier went through complexes.induce
    A = random_pdga(QQ, P4, 5)
    z, a, b, t = P4.elements
    one = {(0, 0): 1}
    assert pinned(carrier(A)) == {
        "basis": {(z, 0): ["1"], (z, 4): ["v1"],
                  (a, 0): ["1"], (a, 3): ["v2"], (a, 4): ["v1"],
                  (b, 0): ["1"], (b, 3): ["v0", "v2"], (b, 4): ["v1"],
                  (t, 0): ["1"], (t, 3): ["v0", "v2"], (t, 4): ["v1"]},
        "d": {(a, 3): one, (b, 3): {(0, 1): 1}, (t, 3): {(0, 1): 1}},
        "phi": {(z, a, 0): one, (z, a, 4): one,
                (a, b, 0): one, (a, b, 3): {(1, 0): 1}, (a, b, 4): one,
                (b, t, 0): one, (b, t, 3): {(0, 0): 1, (1, 1): 1},
                (b, t, 4): one}}
    assert diagram_homology(A) == {(z, 0): 1, (z, 4): 1, (a, 0): 1,
                                   (b, 0): 1, (b, 3): 1, (t, 0): 1,
                                   (t, 3): 1}


@pytest.mark.parametrize("y_degree, y_label, message", [
    (3, P3.top, "above its label"),
    (4, P3.zero, "off degree 3"),
])
def test_carrier_rejects_a_differential_that_leaves_its_slot(
        y_degree, y_label, message):
    # d x = y with y missing from the slot of x at the label of x, or in
    # the wrong degree: both the oracle carrier and the homology refuse it
    A = PDGA(QQ, P3, [("1", 0, P3.zero), ("x", 2, P3.zero),
                      ("y", y_degree, y_label)], "1",
             diff={"x": {"y": 1}}, products={})
    with pytest.raises(ValueError, match="d\\('x'\\) .*" + message):
        carrier(A)
    with pytest.raises(ValueError,
                       match="the differential of 'x' leaves slot"):
        diagram_homology(A)


def carrier_homology(A):
    "{(p, k): dim} of the nonzero homology of the oracle carrier of A"
    Z = carrier(A)
    return {(p, k): h for p in A.poset.elements
            for k, h in perverse_homology(Z, p).items() if h}


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_diagram_homology_is_the_homology_of_the_carrier(field, n):
    # the slots of the underlying diagram against the perverse complex that
    # complexes.induce builds: the corpus, 40 labeled and 10 unlabeled
    # random pDGAs, so 56 inputs per poset and field
    P = Poset(n)
    algebras = list(corpus(field, P).values())
    algebras += [random_pdga(field, P, s) for s in range(40)]
    algebras += [random_pdga(field, P, s, labeled=False) for s in range(10)]
    for A in algebras:
        assert diagram_homology(A) == carrier_homology(A)
    assert len(algebras) == 56


def test_algebra_bimodule_axioms():
    for name, A in corpus(QQ, P3).items():
        M = algebra_as_bimodule(A)
        rep = validate_bimodule(M)
        assert rep["valid"], (name, rep["violations"][:3])


def test_dual_bimodule_axioms():
    for name, A in corpus(QQ, P3).items():
        D = dual_bimodule(A)
        rep = validate_bimodule(D)
        assert rep["valid"], (name, rep["violations"][:3])
    for seed in range(8):
        A = random_pdga(QQ, P4, seed)
        rep = validate_bimodule(dual_bimodule(A))
        assert rep["valid"], (seed, rep["violations"][:3])


def test_bimodule_validator_reports_a_flipped_action_sign():
    # on k[x]/x^3 every action entry of DA is read by an associativity or
    # compatibility check, so negating any one of them is reported
    A = truncated_polynomial(QQ, P3, 2, power=3)
    entries = [(side, key, y) for side in ("left", "right")
               for key, v in getattr(dual_bimodule(A), side).items()
               for y in v]
    assert len(entries) == 6
    for side, key, y in entries:
        D = dual_bimodule(A)
        table = getattr(D, side)
        table[key][y] = QQ.neg(table[key][y])
        rep = validate_bimodule(D)
        assert not rep["valid"], (side, key, y)


def test_bimodule_validator_reports_a_term_of_d_M_off_degree():
    # random_pdga seed 5 has one differential, so DA has d(v1*) = c v2*;
    # moving that term onto 1*, of another degree, is reported at (v1*, 1*)
    A = random_pdga(QQ, P4, 5)
    D = dual_bimodule(A)
    assert validate_bimodule(D)["valid"]
    ((m, v),) = D.diffs.items()
    ((y, c),) = v.items()
    assert D.degree["1*"] != D.degree[y]
    D.diffs[m] = {"1*": c}
    hits = [r["witness"] for r in validate_bimodule(D)["violations"]
            if r["identity"] == "d_M degree"]
    assert hits == [(m, "1*")], hits


def test_dual_bimodule_presence_is_downward():
    A = sphere_algebra(QQ, P4, 2, label=P4.top)
    D = dual_bimodule(A)
    xs = dual_name("x")
    assert D.deg(xs) == -2
    # x sits at the top, so x* only survives at the zero perversity; 1* is
    # present everywhere since dual(0) is the top
    for p in P4.elements:
        assert (xs in D.present_at(p)) == (p == P4.zero)
        assert dual_name("1") in D.present_at(p)
    A2 = sphere_algebra(QQ, P4, 2, label=(0, 0, 0, 1, 1))
    D2 = dual_bimodule(A2)
    for p in P4.elements:
        assert (dual_name("x") in D2.present_at(p)) == leq(
            p, P4.dual((0, 0, 0, 1, 1)))


def _present_by_label(M, m, p):
    "the per-name presence rule: up-type below p, down-type above it"
    if M.kind[m] == "up":
        return leq(M.plabel[m], p)
    return leq(p, M.plabel[m])


def test_presence_sets_follow_the_label_rule():
    # one set per perversity, equal to the label rule per name, and the slot
    # bases that read it keep the order of the per-name filter
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    fam = [(A, restrict_bimodule(A, B, fmap))]
    for X in (random_pdga(QQ, P4, 3), random_pdga(Field(5), P4, 10),
              sphere_algebra(QQ, P4, 2, label=(0, 0, 0, 1, 1))):
        fam += [(X, algebra_as_bimodule(X)), (X, dual_bimodule(X))]
    for A, M in fam:
        P, ms, cx = A.poset, ModuleSlots(M), Cochains(A, M, 3)
        for p in P.elements:
            assert M.present_at(p) == {
                m for m in M.names if _present_by_label(M, m, p)}
        for r in P.elements:
            for k in ms.degrees():
                assert ms.slot_basis(r, k) == [
                    m for m in M.names
                    if M.degree[m] == k and _present_by_label(M, m, r)]
            for q, ps in cx.graded.items():
                assert cx.slot_basis(r, q) == [
                    (w, m) for (w, m), _ in ps
                    if (lab := P.oplus(cx.mids[w][1], r)) is not None
                    and _present_by_label(M, m, lab)]


def test_quasi_iso_fixture():
    A, B, fmap = quasi_iso_fixture(QQ, P3)
    assert A.validate()["valid"]
    assert B.validate()["valid"]
    # f is a chain map and multiplicative
    def f(vec):
        return linear(QQ, fmap.__getitem__, vec)

    for x in A.names:
        assert f(A.d(x)) == B.d_vec(f({x: QQ.one}))
        for y in A.names:
            assert f(A.mul(x, y)) == B.mul_vec(f({x: QQ.one}), f({y: QQ.one}))
    da, db = diagram_homology(A), diagram_homology(B)
    keys = set(da) | set(db)
    assert all(da.get(k, 0) == db.get(k, 0) for k in keys)


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


def dual_basis_names(A, Z, slots, r, k):
    """the name b* each basis vector of the linear dual of the carrier Z at
    (r, k) is dual to, or None for a vector that is dual to no single b.
    The vector's component on the object (t - r, t) of the hom limit is a
    functional on Z at (t - r, -k), which determines it, and it must be the
    one dual to b, with coefficient 1"""
    P, F = A.poset, A.field
    if (r, k) not in slots:
        return []
    keys, space, _ = slots[r, k]
    obj, names = (P.dual(r), P.top), Z.basis.get((P.dual(r), -k), [])
    out = []
    for rep in space.reps:
        comp = []
        for j, c in rep.items():
            o, (_, mi, _) = keys[j]
            if o == obj:
                comp.append((names[mi], c))
        dual = len(comp) == 1 and comp[0][1] == F.one
        out.append(dual_name(comp[0][0]) if dual else None)
    return out


def dual_slot_mismatches(A):
    """where ModuleSlots(dual_bimodule(A)) differs from the linear dual of
    the carrier of A, slot by slot: the basis (each vector of the linear
    dual matched to one b*), the differential D.d(b*) cut to the slot, and
    each cover map, the projection onto the b* present at the larger
    perversity"""
    F, P = A.field, A.poset
    Z = carrier(A)
    slots, d = hom_slots(Z, unit_perverse(F, P))
    L, D = induce(F, P, slots, d), dual_bimodule(A)
    md = ModuleSlots(D)
    degs = sorted({k for (_, k) in slots} | set(md.degrees()))
    match = {(r, k): dual_basis_names(A, Z, slots, r, k)
             for r in P.elements for k in degs + [degs[-1] + 1]}
    bad = []
    for (r, k), names in match.items():
        if k > degs[-1]:
            continue
        present = md.slot_basis(r, k)
        if None in names or sorted(names) != sorted(present):
            bad.append(("basis", r, k, names, present))
            continue
        above = set(md.slot_basis(r, k + 1))
        for b, col in zip(names, slot_diff(L, r, k).columns()):
            image = {match[r, k + 1][i]: x for i, x in col.items()}
            if image != {c: x for c, x in D.d(b).items() if c in above}:
                bad.append(("d", r, k, b, image))
        for r2 in P.upper_covers(r):
            there = set(md.slot_basis(r2, k))
            for b, col in zip(names, L.cover_map(r, r2, k).columns()):
                image = {match[r2, k][i]: x for i, x in col.items()}
                if image != ({b: F.one} if b in there else {}):
                    bad.append(("cover", r, r2, k, b, image))
    return bad


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("P", [P3, P4], ids=["P3", "P4"])
def test_dual_bimodule_is_the_linear_dual_of_the_carrier(field, P):
    # DA is the linear dual of A in perverse complexes: its slot rule, the
    # sign of its differential and its cover maps are read off the internal
    # hom into the unit, on the corpus and five random pDGAs, 11 inputs per
    # poset and field
    inputs = list(corpus(field, P).values()) + [
        random_pdga(field, P, s) for s in (1, 2, 3, 6, 103)]
    assert len(inputs) == 11
    for A in inputs:
        assert not dual_slot_mismatches(A), A.names


def test_module_slots_of_an_up_type_module_refuse_a_term_leaving_a_slot():
    # labels only decrease under d in an up-type module; a d(m) term above
    # the label of m leaves the slot of m and raises
    A = trivial_algebra(QQ, P3)
    M = Bimodule(A, [("m", 0, "up", P3.zero), ("n", 1, "up", P3.top)],
                 diff={"m": {"n": QQ.one}})
    with pytest.raises(ValueError, match="leaves slot"):
        ModuleSlots(M).differential(P3.zero, 0)
