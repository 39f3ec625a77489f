import itertools

import pytest
from hypothesis import given, strategies as st

from perverse.poset import Poset, is_perversity, leq
from oracles import (oplus_bruteforce, meet, join, covers_bruteforce,
                     lower_covers, diamonds_bruteforce)


def test_enumeration_sizes():
    for n in range(2, 11):
        P = Poset(n)
        assert len(P) == 2 ** max(n - 2, 0)
        for p in P.elements:
            assert is_perversity(p, n)
    assert len(Poset(0)) == 1
    assert len(Poset(1)) == 1


def test_zero_and_top():
    P = Poset(6)
    assert P.zero == (0, 0, 0, 0, 0, 0, 0)
    assert P.top == (0, 0, 0, 1, 2, 3, 4)
    for p in P.elements:
        assert leq(P.zero, p) and leq(p, P.top)


@pytest.mark.parametrize("n", range(7))
def test_oplus_memo_holds_the_bruteforce_sum_of_each_pair(n):
    # the first oplus of each pair equals oplus_bruteforce, then it is stored
    P = Poset(n)
    pairs = list(itertools.product(P.elements, repeat=2))
    first = {(p, q): P.oplus(p, q) for p, q in pairs}
    assert first == {(p, q): oplus_bruteforce(P, p, q) for p, q in pairs}
    # a repeated call returns the stored object, None results included
    assert all(P.oplus(p, q) is first[p, q] for p, q in pairs)
    # a pair off the poset is answered but not stored
    assert P.oplus((1,) * (n + 1), P.zero) is None
    assert P._oplus == first and len(P._oplus) <= len(P) ** 2


@pytest.mark.parametrize("n", range(7))
def test_oplus_all_is_the_pointwise_sum_test(n):
    # chained oplus rounds up after each step, yet on GM perversities it
    # leaves the top exactly when the pointwise sum of the sequence does
    P = Poset(n)
    assert P.oplus_all([]) == P.zero
    for k in (2, 3, 4):
        for seq in itertools.product(P.elements, repeat=k):
            tot = [sum(col) for col in zip(*seq)]
            under = all(a <= t for a, t in zip(tot, P.top))
            assert (P.oplus_all(seq) is not None) == under, seq


def test_oplus_unit_and_commutativity():
    P = Poset(5)
    for p in P.elements:
        assert P.oplus(P.zero, p) == p
    for p, q in itertools.product(P.elements, repeat=2):
        assert P.oplus(p, q) == P.oplus(q, p)


def test_oplus_associative_where_defined():
    P = Poset(5)
    for p, q, r in itertools.product(P.elements, repeat=3):
        a = P.oplus(p, q)
        b = P.oplus(q, r)
        lhs = P.oplus(a, r) if a is not None else None
        rhs = P.oplus(p, b) if b is not None else None
        # both sides defined iff p+q+r <= top, and then they agree
        s = [x + y + z for x, y, z in zip(p, q, r)]
        defined = all(x <= t for x, t in zip(s, P.top))
        if defined:
            assert lhs == rhs is not None
        else:
            assert lhs is None and rhs is None


def test_dual_is_exact_difference_and_involutive():
    for n in [3, 4, 5, 6, 7]:
        P = Poset(n)
        for p in P.elements:
            d = P.dual(p)
            assert tuple(a + b for a, b in zip(p, d)) == P.top
            assert P.dual(d) == p
        assert P.dual(P.zero) == P.top


@pytest.mark.parametrize("n", range(3, 8))
def test_covers_and_paths(n):
    P = Poset(n)
    covers = set(P.covers())
    for (p, q) in covers:
        assert leq(p, q) and p != q
    # every p < q has an upper cover b <= q: the first step of the cover
    # chain along which PerverseComplex.structure_map composes
    for p, q in itertools.product(P.elements, repeat=2):
        if leq(p, q) and p != q:
            assert any(leq(b, q) for b in P.upper_covers(p)), (p, q)


@pytest.mark.parametrize("n", range(9))
def test_covers_are_the_one_steps_of_the_definition(n):
    # q covers p exactly when q = p + e_i: covers() is the definition's
    # list, in its order, and the upper covers of p, and the oracle's lower
    # covers read from them, each an ascending slice
    P = Poset(n)
    ref = covers_bruteforce(P)
    assert P.covers() == ref
    for p in P.elements:
        assert P.upper_covers(p) == [q for (a, q) in ref if a == p]
        assert lower_covers(P, p) == [a for (a, q) in ref if q == p]
        for q in P.upper_covers(p):
            assert sum(q) == sum(p) + 1


def test_rank_10_has_576_covers():
    assert len(Poset(10).covers()) == 576


@given(st.integers(min_value=2, max_value=7), st.data())
def test_meet_join_lattice(n, data):
    P = Poset(n)
    p = data.draw(st.sampled_from(P.elements))
    q = data.draw(st.sampled_from(P.elements))
    m, j = meet(P, p, q), join(P, p, q)
    assert leq(m, p) and leq(m, q) and leq(p, j) and leq(q, j)


@pytest.mark.parametrize("n", range(9))
def test_diamonds_are_the_squares_of_the_definition(n):
    # diamonds(p) is the search's list, in its order, and the top of each
    # square covers both of its sides
    P = Poset(n)
    ref = diamonds_bruteforce(P)
    for p in P.elements:
        squares = P.diamonds(p)
        assert squares == ref[p], p
        for m, x, y, j in squares:
            assert x in P.upper_covers(m) and y in P.upper_covers(m)
            assert j in P.upper_covers(x) and j in P.upper_covers(y)
            assert meet(P, x, y) == m and join(P, x, y) == j


@pytest.mark.parametrize("n, count", [(4, 0), (5, 3), (6, 30), (7, 210),
                                      (8, 1260)])
def test_diamond_counts_summed_over_the_poset(n, count):
    # Poset(4) is a chain, so it has no diamond; the cofibrancy command
    # reports these counts times its degrees as the minimum row's trials
    P = Poset(n)
    assert sum(len(P.diamonds(p)) for p in P.elements) == count
