"""The poset of Goresky-MacPherson n-perversities.

A perversity of rank n is a tuple p = (p(0), ..., p(n)) with
p(0) = p(1) = p(2) = 0 and p(i) <= p(i+1) <= p(i) + 1.  Perversities are
plain int tuples; Poset(n) carries the enumeration, the partial order,
the partial sum and duality.  The label of a sequence of elements, None
past the top, is oplus_all: the one rule that decides whether a product, a
bar word or a Hochschild pair lies in a slot.

q covers p exactly when q = p + e_i for one index i.  Such a step raises
the sum of p by one, so it is a cover.  Conversely, if p < q, start at the
largest i with p(i) < q(i) and walk left while p(j) = p(j-1) + 1: the walk
stays where p < q, and at the index j where it stops, p + e_j is a
perversity <= q.

Meet and join are the pointwise min and max, so Poset(n) is a distributive
lattice, and a diamond is one of its squares: two distinct upper covers
x = m + e_i and y = m + e_k of one m and their join m + e_i + e_k.
"""

import functools
import itertools


def zero_perversity(n):
    return (0,) * (n + 1)


def top_perversity(n):
    "the top perversity t(i) = i - 2 for i >= 2"
    return tuple(max(i - 2, 0) for i in range(n + 1))


def is_perversity(v, n):
    if len(v) != n + 1:
        return False
    if any(v[i] != 0 for i in range(min(3, n + 1))):
        return False
    return all(v[i] <= v[i + 1] <= v[i] + 1 for i in range(n))


def leq(p, q):
    return all(a <= b for a, b in zip(p, q))


class Poset:
    def __init__(self, n):
        if n < 0:
            raise ValueError("negative poset rank %r" % (n,))
        self.n = n
        self.zero = zero_perversity(n)
        self.top = top_perversity(n)
        self.elements = self._enumerate()
        self.index = {p: i for i, p in enumerate(self.elements)}
        self._oplus = {}

    def _enumerate(self):
        """all GM perversities, ascending: the prefix sums of the steps
        p(i) - p(i-1) in {0, 1} for i = 3..n, in product order"""
        steps = itertools.product((0, 1), repeat=max(self.n - 2, 0))
        return [tuple(itertools.accumulate((0, 0, 0) + s))[:self.n + 1]
                for s in steps]

    def _member(self, v):
        "v, which must be a perversity of this poset"
        if v not in self.index:
            raise ValueError("not a rank-%d perversity: %r" % (self.n, v))
        return v

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.index

    def oplus(self, p, q):
        """smallest perversity >= p + q (pointwise); None when p + q exceeds
        top.  Memoized per pair of members, so the memo holds at most |P|^2"""
        try:
            return self._oplus[p, q]
        except KeyError:
            pass
        s = [a + b for a, b in zip(p, q)]
        out = None
        if all(a <= b for a, b in zip(s, self.top)):
            for i in range(1, len(s)):
                if s[i] < s[i - 1]:
                    s[i] = s[i - 1]
            for i in range(len(s) - 2, -1, -1):
                if s[i] < s[i + 1] - 1:
                    s[i] = s[i + 1] - 1
            out = self._member(tuple(s))
        if p in self.index and q in self.index:
            self._oplus[p, q] = out
        return out

    def oplus_all(self, labels):
        """the chained oplus of a sequence of labels from zero, None past the
        top; on GM perversities, exactly when the pointwise sum exceeds it"""
        out = self.zero
        for p in labels:
            out = self.oplus(out, p)
            if out is None:
                return None
        return out

    def dual(self, p):
        "complementary perversity t - p; exact pointwise difference"
        return self._member(tuple(t - a for t, a in zip(self.top, p)))

    def _steps(self, p, s):
        "the members p + s * e_i, one index i, ascending, as listed"
        steps = (p[:i] + (p[i] + s,) + p[i + 1:] for i in range(len(p)))
        return [self.elements[j] for j in sorted(
            self.index[q] for q in steps if q in self.index)]

    def upper_covers(self, p):
        "the perversities covering p, ascending"
        return self._steps(p, 1)

    def lower_covers(self, p):
        "the perversities p covers, ascending"
        return self._steps(p, -1)

    def covers(self):
        "list of covering pairs (p, q), p covered by q, ascending"
        return [(p, q) for p in self.elements for q in self.upper_covers(p)]

    @functools.cached_property
    def _squares(self):
        "every diamond (m, x, y, j), in elements order of m, then of x, y"
        return [(m, x, y, tuple(map(max, x, y))) for m in self.elements
                for x, y in itertools.combinations(self.upper_covers(m), 2)]

    def diamonds(self, p):
        """the diamonds (m, x, y, j) under p: x and y distinct upper covers
        of m, x listed first, j = max(x, y) pointwise, which covers both,
        and j <= p"""
        return [s for s in self._squares if leq(s[3], p)]

    def up_set(self, p):
        return [q for q in self.elements if leq(p, q)]

