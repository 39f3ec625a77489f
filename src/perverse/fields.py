"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain python objects: Fraction for Q, int in [0, p) for F_p.
A Field instance bundles the arithmetic so the linear algebra stays generic.
"""

from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Q (char 0) or F_p (char p, p prime)."""

    def __init__(self, char=0):
        if char != 0 and not _is_prime(char):
            raise ValueError("not a prime field characteristic: %r" % (char,))
        self.char = char

    def __repr__(self):
        return "Q" if self.char == 0 else "F%d" % self.char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def of(self, x):
        "coerce an int or Fraction into the field"
        if self.char == 0:
            return Fraction(x)
        return int(x) % self.char

    @property
    def zero(self):
        return self.of(0)

    @property
    def one(self):
        return self.of(1)

    def add(self, a, b):
        c = a + b
        return c % self.char if self.char else c

    def sub(self, a, b):
        c = a - b
        return c % self.char if self.char else c

    def mul(self, a, b):
        c = a * b
        return c % self.char if self.char else c

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def sign(self, parity):
        "(-1)^parity"
        return self.neg(self.one) if parity % 2 else self.one

    def inv(self, a):
        if self.iszero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.char == 0:
            return 1 / a
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def iszero(self, a):
        return a == 0


QQ = Field(0)
