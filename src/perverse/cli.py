"""Command line surface: parse algebra descriptions, dispatch commands,
emit reports.

Input files are JSON (human-writable) describing a finite presentation:

    {"field": "Q",                  # or "Fp:<p>"
     "n": 3,                        # perversity poset rank
     "generators": [{"name": "1", "degree": 0, "perversity": "zero"},
                    {"name": "x", "degree": 2}],
     "unit": "1",
     "differential": {},            # gen -> {gen: coefficient}
     "products": [{"left": "x", "right": "x", "value": {}}],
     "commutative": true}

Perversities are integer arrays like [0, 0, 0, 1] or the aliases "zero"
and "top".  Coefficients are integers or fraction strings like "1/2".
Exit codes: 0 all checks pass, 1 a check failed, 2 input error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from importlib import resources

from .fields import QQ, Field
from .poset import Poset, is_perversity
from .linalg import SparseMatrix
from .complexes import ChainComplex, p_filtration, cofibrancy_certificate
from .algebra import PDGA, algebra_as_bimodule
from .hochschild import Cochains, hh_table
from .structure import (BVOperator, verify_calculus, GERSTENHABER_IDS,
                        CALCULUS_IDS, BV_IDS)
from .kunneth import compare_hh


class InputError(Exception):
    "a problem with the input file or arguments; exits with status 2"


_POSETS = {}


def _poset(n):
    "one Poset instance per rank, so two parsed algebras can be tensored"
    if n not in _POSETS:
        _POSETS[n] = Poset(n)
    return _POSETS[n]


# ---------------------------------------------------------------------------
# the description type and its (de)serialization


@dataclass
class AlgebraDescription:
    field: str
    n: int
    generators: list
    unit: str
    differential: dict
    products: list
    commutative: bool = dc_field(default=True)


def _parse_field(s):
    if s == "Q":
        return QQ
    if isinstance(s, str) and s.startswith("Fp:"):
        try:
            return Field(int(s[3:]))
        except ValueError:
            raise InputError("field: bad prime in %r" % s)
    raise InputError('field: expected "Q" or "Fp:<p>", got %r' % (s,))


def _parse_perversity(v, poset, where):
    if v is None or v == "zero":
        return poset.zero
    if v == "top":
        return poset.top
    if isinstance(v, list) and all(isinstance(a, int) for a in v):
        t = tuple(v)
        if not is_perversity(t, poset.n):
            raise InputError("%s: %r is not a perversity for n=%d"
                             % (where, v, poset.n))
        return t
    raise InputError('%s: expected an integer array, "zero" or "top", '
                     "got %r" % (where, v))


def _parse_coeff(F, c, where):
    if isinstance(c, int):
        return F.of(c)
    if isinstance(c, str):
        try:
            fr = Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise InputError("%s: bad coefficient %r" % (where, c))
        if F.char == 0:
            return F.of(fr)
        if fr.denominator % F.char == 0:
            raise InputError("%s: %r has no image in F_%d"
                             % (where, c, F.char))
        return F.mul(F.of(fr.numerator), F.inv(F.of(fr.denominator)))
    raise InputError("%s: bad coefficient %r" % (where, c))


def _parse_vector(F, names, v, where):
    if not isinstance(v, dict):
        raise InputError("%s: expected an object, got %r" % (where, v))
    out = {}
    for x, c in v.items():
        if x not in names:
            raise InputError("%s: unknown generator %r" % (where, x))
        out[x] = _parse_coeff(F, c, "%s[%s]" % (where, x))
    return out


def parse_description(data):
    "raw JSON object -> validated AlgebraDescription"
    if not isinstance(data, dict):
        raise InputError("top level: expected an object")
    for key in ("field", "generators", "unit"):
        if key not in data:
            raise InputError("top level: missing %r" % key)
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise InputError("generators: expected a nonempty array")
    seen = set()
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "degree" not in g:
            raise InputError("generators[%d]: need name and degree" % i)
        if not isinstance(g["degree"], int):
            raise InputError("generators[%d]: degree must be an integer" % i)
        if g["name"] in seen:
            raise InputError("generators[%d]: duplicate name %r"
                             % (i, g["name"]))
        seen.add(g["name"])
    if data["unit"] not in seen:
        raise InputError("unit: %r is not a generator" % (data["unit"],))
    prods = data.get("products", [])
    if not isinstance(prods, list):
        raise InputError("products: expected an array")
    for i, p in enumerate(prods):
        if not isinstance(p, dict) or not {"left", "right", "value"} <= set(p):
            raise InputError("products[%d]: need left, right, value" % i)
        for side in ("left", "right"):
            if p[side] not in seen:
                raise InputError("products[%d].%s: unknown generator %r"
                                 % (i, side, p[side]))
    diff = data.get("differential", {})
    for x in diff:
        if x not in seen:
            raise InputError("differential: unknown generator %r" % x)
    return AlgebraDescription(
        field=data["field"],
        n=int(data.get("n", 3)),
        generators=gens,
        unit=data["unit"],
        differential=diff,
        products=prods,
        commutative=bool(data.get("commutative", True)))


def build_pdga(desc):
    "AlgebraDescription -> validated PDGA (semantic errors -> InputError)"
    F = _parse_field(desc.field)
    if desc.n < 2:
        raise InputError("n: poset rank must be at least 2")
    P = _poset(desc.n)
    names = {g["name"] for g in desc.generators}
    gens = [(g["name"], g["degree"],
             _parse_perversity(g.get("perversity"), P,
                               "generators[%s].perversity" % g["name"]))
            for g in desc.generators]
    diff = {x: _parse_vector(F, names, v, "differential[%s]" % x)
            for x, v in desc.differential.items()}
    products = {}
    for p in desc.products:
        key = (p["left"], p["right"])
        if key in products:
            raise InputError("products: duplicate pair %r" % (key,))
        products[key] = _parse_vector(
            F, names, p["value"], "products[%s,%s]" % key)
    A = PDGA(F, P, gens, desc.unit, diff=diff, products=products)
    rep = A.validate()
    if not rep["valid"]:
        lines = ["%s at %r: %r != %r" % (v["identity"], v["witness"],
                                         v["lhs"], v["rhs"])
                 for v in rep["violations"][:10]]
        raise InputError("validation failed:\n  " + "\n  ".join(lines))
    if desc.commutative and not rep["commutative"]:
        raise InputError("commutative flag asserted but the product "
                         "table is not graded-commutative")
    return A


def _coeff_out(F, c):
    if F.char == 0:
        return int(c) if c.denominator == 1 else str(c)
    return int(c)


def describe(A, commutative=None):
    "PDGA -> AlgebraDescription (inverse of build_pdga up to aliases)"
    F, P = A.field, A.poset
    gens = [{"name": x, "degree": A.deg(x), "perversity": list(A.lam(x))}
            for x in A.names]
    diff = {x: {y: _coeff_out(F, c) for y, c in v.items()}
            for x, v in A.diffs.items() if v}
    prods = [{"left": a, "right": b,
              "value": {y: _coeff_out(F, c) for y, c in v.items()}}
             for (a, b), v in A.products.items()]
    return AlgebraDescription(
        field="Q" if F.char == 0 else "Fp:%d" % F.char,
        n=P.n, generators=gens, unit=A.unit, differential=diff,
        products=prods,
        commutative=A.is_commutative() if commutative is None
        else commutative)


def serialize(desc):
    "AlgebraDescription -> canonical JSON text"
    return json.dumps({
        "field": desc.field, "n": desc.n, "generators": desc.generators,
        "unit": desc.unit, "differential": desc.differential,
        "products": desc.products, "commutative": desc.commutative},
        indent=2, sort_keys=True) + "\n"


def load_description(name):
    "read a description from a file path or a shipped fixture name"
    try:
        with open(name) as fh:
            text = fh.read()
    except OSError:
        try:
            text = resources.files("perverse").joinpath(
                "data/%s.json" % name).read_text()
        except (OSError, ModuleNotFoundError):
            raise InputError("cannot read %r (not a file or a shipped "
                             "fixture)" % name)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError("%s: JSON syntax error: %s" % (name, e))
    return parse_description(data)


def load_pdga(name):
    return build_pdga(load_description(name))


# ---------------------------------------------------------------------------
# report emission


def _emit(records, as_json, out):
    "records: list of dicts; text mode prints one aligned line each"
    if as_json:
        for r in records:
            out.write(json.dumps(r, default=str, sort_keys=True) + "\n")
        return
    for r in records:
        kind = r.pop("_kind", "record")
        if kind == "header":
            out.write(r["text"] + "\n")
        elif kind == "row":
            out.write("  " + r["text"] + "\n")
        else:
            out.write("%-45s %-7s trials=%s%s\n" % (
                r.get("identity", "?"), r.get("status", "?"),
                r.get("trials", "-"),
                "" if not r.get("witness") else
                "  witness=%s" % (r["witness"],)))


def _table_rows(table, perversity=None):
    rows = []
    for (r, q), dim in sorted(table.items()):
        if perversity is not None and r != perversity:
            continue
        if dim:
            rows.append({"_kind": "row", "perversity": list(r), "degree": q,
                         "dim": dim,
                         "text": "p=%s  q=%+d  dim %d" % (list(r), q, dim)})
    if not rows:
        rows.append({"_kind": "row", "text": "(zero in the window)",
                     "empty": True})
    return rows


def _status(records):
    return 1 if any(r.get("status") == "fail" for r in records) else 0


# ---------------------------------------------------------------------------
# commands


def cmd_poset(args, out):
    P = Poset(args.n)
    recs = [{"_kind": "header",
             "text": "%d perversities for n=%d" % (len(P.elements), args.n),
             "count": len(P.elements), "n": args.n}]
    covers = P.covers()
    for p in P.elements:
        ups = sorted(q for (a, q) in covers if a == p)
        recs.append({"_kind": "row", "perversity": list(p),
                     "covered_by": [list(q) for q in ups],
                     "text": "%s -> %s" % (list(p), [list(q) for q in ups])})
    _emit(recs, args.json, out)
    return 0


def cmd_homology(args, out):
    A = load_pdga(args.algebra)
    dims = A.homology_dims()
    recs = [{"_kind": "header", "text": "homology of the underlying diagram"}]
    for (p, k), dim in sorted(dims.items()):
        recs.append({"_kind": "row", "perversity": list(p), "degree": k,
                     "dim": dim,
                     "text": "p=%s  k=%+d  dim %d" % (list(p), k, dim)})
    if len(recs) == 1:
        recs.append({"_kind": "row", "text": "(acyclic)", "empty": True})
    _emit(recs, args.json, out)
    return 0


def cmd_hh(args, out):
    A = load_pdga(args.algebra)
    lo, hi = args.window
    perv = None
    if args.perversity is not None:
        perv = _parse_perversity(args.perversity, A.poset, "--perversity")
    table = hh_table(A, algebra_as_bimodule(A), args.max_length, lo, hi)
    recs = [{"_kind": "header",
             "text": "HH dimensions, L=%d, window [%d, %d]"
             % (args.max_length, lo, hi)}]
    recs += _table_rows(table, perv)
    _emit(recs, args.json, out)
    return 0


def _run_suite(args, out, ids):
    A = load_pdga(args.algebra)
    lo, hi = args.window
    recs = verify_calculus(A, args.max_length, lo, hi, trials=args.trials,
                           seed=args.seed, ids=ids)
    _emit(recs, args.json, out)
    return _status(recs)


def cmd_gerstenhaber(args, out):
    return _run_suite(args, out, GERSTENHABER_IDS)


def cmd_calculus(args, out):
    return _run_suite(args, out, CALCULUS_IDS)


def cmd_bv(args, out):
    A = load_pdga(args.algebra)
    lo, hi = args.window
    try:
        bv = BVOperator(Cochains(A, algebra_as_bimodule(A), args.max_length),
                        n=args.duality_degree)
    except (ValueError, LookupError) as e:
        _emit([{"identity": "duality class", "status": "fail",
                "trials": 0, "witness": str(e)}], args.json, out)
        return 1
    recs = [{"_kind": "header",
             "text": "duality degree %d, class on %d dual basis vectors"
             % (bv.n, len(bv.cycle)), "duality_degree": bv.n,
             "class_support": sorted(str(k) for k in bv.cycle)}]
    for r in A.poset.elements:
        for q in range(lo, hi + 1):
            try:
                m = bv.matrix(r, q)
            except LookupError:
                continue
            if m.nrows or m.ncols:
                recs.append({
                    "_kind": "row", "perversity": list(r), "degree": q,
                    "shape": [m.nrows, m.ncols],
                    "text": "Delta p=%s q=%+d: %dx%d"
                    % (list(r), q, m.nrows, m.ncols)})
    checks = verify_calculus(A, args.max_length, lo, hi, trials=args.trials,
                             seed=args.seed, ids=BV_IDS, bv=bv)
    _emit(recs + checks, args.json, out)
    return _status(checks)


def cmd_tensor(args, out):
    A = load_pdga(args.algebra)
    B = load_pdga(args.algebra2)
    try:
        rep = compare_hh(A, B, args.max_length, tuple(args.window))
    except ValueError as e:
        raise InputError(str(e))
    recs = list(rep["records"])
    _emit(recs, args.json, out)
    return _status(recs)


def cmd_cofibrancy(args, out):
    desc = load_description(args.algebra)
    F = _parse_field(desc.field)
    P = _poset(desc.n)
    names = [g["name"] for g in desc.generators]
    degs = {g["name"]: g["degree"] for g in desc.generators}
    labels = {g["name"]: _parse_perversity(
        g.get("perversity"), P, "generators[%s].perversity" % g["name"])
        for g in desc.generators}
    basis = {}
    for x in names:
        basis.setdefault(degs[x], []).append(x)
    d = {}
    for k, labs in basis.items():
        nxt = {y: i for i, y in enumerate(basis.get(k + 1, []))}
        cols = []
        for x in labs:
            v = _parse_vector(F, set(names), desc.differential.get(x, {}),
                              "differential[%s]" % x)
            for y in v:
                if degs[y] != k + 1:
                    raise InputError("differential[%s]: %r has degree %d, "
                                     "expected %d" % (x, y, degs[y], k + 1))
            cols.append({nxt[y]: c for y, c in v.items()})
        d[k] = SparseMatrix.from_columns(F, len(nxt), cols)
    cx = ChainComplex(F, basis, d)
    try:
        cx.validate()
    except ValueError as e:
        raise InputError("differential: %s" % e)
    Z = p_filtration(F, P, cx, labels)
    rep = cofibrancy_certificate(Z)
    recs = [
        {"identity": "structure maps injective",
         "status": "pass" if rep["injective"] else "fail",
         "trials": len(P.covers()),
         "witness": next((f for f in rep["failures"]
                          if f[0] == "injectivity"), None)},
        {"identity": "minimum condition on image intersections",
         "status": "pass" if rep["minimum_condition"] else "fail",
         "trials": len(P.elements),
         "witness": next((f for f in rep["failures"]
                          if f[0] == "minimum"), None)},
    ]
    if desc.products:
        build_pdga(desc)
        recs.append({"identity": "product table defines a valid pDGA",
                     "status": "pass", "trials": 1, "witness": None})
    _emit(recs, args.json, out)
    return _status(recs)


# ---------------------------------------------------------------------------
# argument plumbing


def _window(s):
    try:
        lo, hi = s.split("..", 1)
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected lo..hi, got %r" % s)
    if lo > hi:
        raise argparse.ArgumentTypeError("window %r has lo > hi" % s)
    return (lo, hi)


def _perversity_arg(s):
    if s in ("zero", "top"):
        return s
    try:
        v = json.loads(s)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError(
            'expected "zero", "top" or an integer array, got %r' % s)
    return v


def build_parser():
    ap = argparse.ArgumentParser(
        prog="perverse",
        description="Hochschild cohomology of perverse DGAs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, trials=None):
        p.add_argument("algebra",
                       help="JSON description file or fixture name "
                            "(e.g. sphere2)")
        p.add_argument("--max-length", type=int, default=3, metavar="L",
                       help="bar word truncation length (default 3)")
        p.add_argument("--window", type=_window, default=(-2, 2),
                       metavar="LO..HI",
                       help="cohomological degree window (default -2..2)")
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials,
                           help="trials per randomized identity")
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="line-delimited JSON records")

    p = sub.add_parser("poset", help="enumerate perversities with covers")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("homology", help="homology table of the diagram")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("hh", help="Hochschild cohomology dimension table")
    common(p)
    p.add_argument("--perversity", type=_perversity_arg, default=None,
                   help='restrict to one slot ("zero", "top" or an array)')
    p.set_defaults(fn=cmd_hh)

    p = sub.add_parser("gerstenhaber-check",
                       help="cup/bracket identity suite")
    common(p, trials=10)
    p.set_defaults(fn=cmd_gerstenhaber)

    p = sub.add_parser("calculus-check",
                       help="Cartan calculus suite on chain homology")
    common(p, trials=10)
    p.set_defaults(fn=cmd_calculus)

    p = sub.add_parser("bv", help="duality class, Delta table, BV identities")
    common(p, trials=10)
    p.add_argument("--duality-degree", type=int, default=None)
    p.set_defaults(fn=cmd_bv)

    p = sub.add_parser("tensor",
                       help="Kunneth comparison for a tensor product")
    common(p)
    p.add_argument("algebra2", help="the second factor")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("cofibrancy",
                       help="p-filtration cofibrancy certificate")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cofibrancy)
    return ap


def _merge_window(argv):
    "let --window -4..6 through argparse despite the leading dash"
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--window", "--perversity") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None, out=None):
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(_merge_window(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args, out)
    except InputError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
