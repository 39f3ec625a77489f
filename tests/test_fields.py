from fractions import Fraction

import pytest

from perverse.fields import Field, QQ

F5 = Field(5)


def test_integral_rationals_are_ints():
    for x in (4, Fraction(4, 2), -1, "6/3", 0):
        assert type(QQ.of(x)) is int, x
    assert QQ.of(Fraction(4, 2)) == 2
    half = QQ.of(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert QQ.of("-3/6") == Fraction(-1, 2)


def test_an_int_is_returned_as_is():
    big = 10 ** 30 + 7
    assert QQ.of(big) is big


def test_rational_inverses_are_exact():
    assert QQ.inv(3) == Fraction(1, 3)
    assert isinstance(QQ.inv(3), Fraction)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.div(1, 4) == Fraction(1, 4)
    assert not isinstance(QQ.div(6, 4), float)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_rational_inverse_is_the_coerced_reciprocal():
    # ints, +-1 among them, integral Fractions, unit fractions of both signs
    # and other fractions, as Fractions and as the scalars QQ.of makes
    grid = [Fraction(n, d) for n in range(-7, 8) if n for d in range(1, 8)]
    grid += [QQ.of(x) for x in grid] + [10 ** 30 + 7, -(10 ** 30)]
    for a in grid:
        expect = QQ.of(Fraction(1, a))
        assert QQ.inv(a) == expect and type(QQ.inv(a)) is type(expect), a


@pytest.mark.parametrize("F", [QQ, F5])
def test_shared_constants(F):
    assert "zero" in vars(F) and "one" in vars(F) and "minus_one" in vars(F)
    assert F.iszero(F.zero)
    assert F.add(F.one, F.minus_one) == F.zero
    for p in range(-3, 4):
        assert F.sign(p) is (F.minus_one if p % 2 else F.one)


def test_rational_constants_are_ints():
    assert (QQ.zero, QQ.one, QQ.minus_one) == (0, 1, -1)
    assert all(type(c) is int for c in (QQ.zero, QQ.one, QQ.minus_one))


def test_prime_field_values_are_unchanged():
    assert (F5.zero, F5.one, F5.minus_one) == (0, 1, 4)
    assert [F5.of(x) for x in (7, -1, 5, Fraction(4, 2))] == [2, 4, 0, 2]
    assert [F5.sign(p) for p in range(4)] == [1, 4, 1, 4]
    assert F5.inv(2) == 3 and F5.div(1, 3) == 2
    assert (F5.add(3, 4), F5.sub(1, 3), F5.mul(3, 4), F5.neg(2)) == (2, 3, 2, 3)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_prime_field_images_of_fractions():
    # n/d goes to n d^-1 mod p, from a Fraction or a rational string
    assert F5.of(Fraction(1, 2)) == F5.of("1/2") == 3
    for n in range(-7, 8):
        for d in (1, 2, 3, 4, 6, 7):
            want = F5.mul(F5.of(n), F5.inv(F5.of(d)))
            assert F5.of(Fraction(n, d)) == want, (n, d)
            assert F5.of("%d/%d" % (n, d)) == want, (n, d)
    for bad in (Fraction(1, 5), "2/10", "-3/25"):
        with pytest.raises(ValueError):
            F5.of(bad)


def test_mixed_scalars_compare_and_hash_alike():
    assert QQ.of(Fraction(3)) == Fraction(3)
    assert hash(QQ.of(Fraction(3))) == hash(Fraction(3))
    assert {QQ.of(2): "a"} == {Fraction(2): "a"}
