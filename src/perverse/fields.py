"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain python objects.  Over Q a scalar is an int when it is
integral and a Fraction otherwise, so the common coefficients 0, +-1 and
small integers never build a Fraction; the two kinds compare and hash alike.
Over F_p a scalar is an int in [0, p).  A Field instance bundles the
arithmetic so the linear algebra stays generic, and holds its shared
constants zero, one and minus_one.  No operation divides with `/`, which
would turn an int into a float.
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
        self.zero = self.of(0)
        self.one = self.of(1)
        self.minus_one = self.of(-1)

    def __repr__(self):
        return "Q" if self.char == 0 else "F%d" % self.char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def of(self, x):
        """coerce an int, a Fraction or a rational string into the field;
        over Q an integral value comes back as an int, over F_p n/d is
        n d^-1, and a d that p divides raises ValueError"""
        if type(x) is int:
            return x % self.char if self.char else x
        x = Fraction(x)
        n, d = x.numerator, x.denominator
        if self.char == 0:
            return n if d == 1 else x
        if d % self.char == 0:
            raise ValueError("%s has no image in F_%d" % (x, self.char))
        return n * pow(d, -1, self.char) % self.char

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
        "(-1)^parity, one of the shared constants"
        return self.minus_one if parity % 2 else self.one

    def inv(self, a):
        """over Q, the inverse d/n of n/d: an int when n is +-1, so 1 and -1
        are their own inverses, and a Fraction otherwise"""
        if self.iszero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.char == 0:
            n, d = a.numerator, a.denominator
            return d * n if n in (1, -1) else Fraction(d, n)
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def iszero(self, a):
        return a == 0


QQ = Field(0)
