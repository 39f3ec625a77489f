"""The poset of Goresky-MacPherson n-perversities.

A perversity of rank n is a tuple p = (p(0), ..., p(n)) with
p(0) = p(1) = p(2) = 0 and p(i) <= p(i+1) <= p(i) + 1.  Perversities are
plain int tuples; Poset(n) carries the enumeration, the partial order,
the partial sum and duality.  The label of a sequence
of elements, None past the top, is oplus_all: the one rule that decides
whether a product, a bar word or a Hochschild pair lies in a slot.
"""

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
        self._covers = None
        self._oplus = {}

    def _enumerate(self):
        "all GM perversities: one binary step choice at each i in 4..n... (3..n)"
        n = self.n
        if n < 3:
            return [zero_perversity(n)]
        out = []
        for steps in itertools.product((0, 1), repeat=n - 2):
            v = [0, 0, 0]
            for s in steps:
                v.append(v[-1] + s)
            out.append(tuple(v))
        out.sort()
        return out

    def _member(self, v):
        "v, which must be a perversity of this poset"
        if v not in self.index:
            raise ValueError("not a rank-%d perversity: %r" % (self.n, v))
        return v

    def __len__(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.index

    def meet(self, p, q):
        return self._member(tuple(min(a, b) for a, b in zip(p, q)))

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

    def covers(self):
        "list of covering pairs (p, q), p covered by q"
        if self._covers is None:
            out = []
            els = self.elements
            for p in els:
                for q in els:
                    if p == q or not leq(p, q):
                        continue
                    if any(r != p and r != q and leq(p, r) and leq(r, q)
                           for r in els):
                        continue
                    out.append((p, q))
            self._covers = out
        return self._covers

    def up_set(self, p):
        return [q for q in self.elements if leq(p, q)]

    def path_up(self, p, q):
        "a chain p = r0 < r1 < ... < rk = q through covering steps"
        if not leq(p, q):
            raise ValueError("%r is not below %r" % (p, q))
        path = [p]
        cur = p
        while cur != q:
            nxt = None
            for (a, b) in self.covers():
                if a == cur and leq(b, q):
                    nxt = b
                    break
            if nxt is None:
                raise ValueError("no covering path from %r to %r" % (p, q))
            path.append(nxt)
            cur = nxt
        return path

