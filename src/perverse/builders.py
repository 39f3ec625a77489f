"""Stock algebras and randomized instances used throughout the tests and CLI."""

import random

from .algebra import PDGA
from .poset import leq


def trivial_algebra(field, poset):
    return PDGA(field, poset, [("1", 0, poset.zero)], "1")


def sphere_algebra(field, poset, n, label=None):
    "cohomology of the n-sphere, x^2 = 0, constant diagram at the given label"
    return truncated_polynomial(field, poset, n, 2, label)


def truncated_polynomial(field, poset, deg, power=2, label=None):
    "field[x]/x^power with |x| = deg, labels constant"
    label = poset.zero if label is None else label
    if power < 2:
        raise ValueError("power must be at least 2, got %r" % (power,))
    gens = [("1", 0, poset.zero)]
    names = ["x"] + ["x^%d" % k for k in range(2, power)]
    for k, nm in enumerate(names, start=1):
        gens.append((nm, deg * k, label))
    prods = {}
    for i in range(1, power):
        for j in range(1, power):
            if i + j < power:
                prods[(gens[i][0], gens[j][0])] = {gens[i + j][0]: field.one}
            else:
                prods[(gens[i][0], gens[j][0])] = {}
    return PDGA(field, poset, gens, "1", products=prods)


def corpus(field, poset):
    "the fixed test family: trivial, three spheres, two truncated polynomials"
    return {
        "trivial": trivial_algebra(field, poset),
        "sphere2": sphere_algebra(field, poset, 2),
        "sphere3": sphere_algebra(field, poset, 3),
        "sphere4": sphere_algebra(field, poset, 4),
        "trunc2": truncated_polynomial(field, poset, 2),
        "trunc3": truncated_polynomial(field, poset, 3),
    }


def random_pdga(field, poset, seed, labeled=True):
    """seeded random pDGA: a square-zero extension of the ground field by
    one to three generators of degrees 2 to 4, with an optional x*x = y
    relation and a matched-pair differential"""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    gens = [("1", 0, poset.zero)]
    names = []
    for i in range(k):
        nm = "v%d" % i
        deg = rng.randint(2, 4)
        lab = rng.choice(poset.elements) if labeled else poset.zero
        gens.append((nm, deg, lab))
        names.append(nm)
    degree = {g[0]: g[1] for g in gens}
    label = {g[0]: g[2] for g in gens}
    prods = {(a, b): {} for a in names for b in names}
    square = None
    if k >= 2 and rng.random() < 0.4:
        a, b = names[0], names[1]
        ok_deg = degree[b] == 2 * degree[a]
        la = poset.oplus(label[a], label[a])
        if ok_deg and la is not None and leq(label[b], la):
            prods[(a, a)] = {b: field.one}
            square = b
    diff = {}
    closed = set([square]) if square else set()
    for nm in names:
        if nm == square:
            continue
        targets = [t for t in names
                   if degree[t] == degree[nm] + 1 and t != nm
                   and t not in diff and leq(label[t], label[nm])]
        if targets and rng.random() < 0.6:
            t = rng.choice(targets)
            diff[nm] = {t: field.of(rng.choice([1, 2, -1]))}
            closed.add(t)
    # a target of d must itself be closed (matched pairs)
    diff = {nm: v for nm, v in diff.items() if nm not in closed}
    A = PDGA(field, poset, gens, "1", diff=diff, products=prods)
    rep = A.validate()
    if not rep["valid"]:
        raise ValueError("invalid random pDGA: %r" % (rep["violations"][:3],))
    return A
