import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from perverse.fields import QQ
from perverse.poset import Poset
from perverse.builders import sphere_algebra, corpus
from perverse import cli, structure

P3 = Poset(3)


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def write(tmp_path, data, name="alg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


SPHERE2 = {
    "field": "Q", "n": 3,
    "generators": [{"name": "1", "degree": 0},
                   {"name": "x", "degree": 2}],
    "unit": "1",
    "products": [{"left": "x", "right": "x", "value": {}}]}


# ---------------------------------------------------------------------------
# parsing and round trips


def description(A):
    "the JSON description of a pDGA over Q, one entry per nonzero table term"
    def vec(v):
        return {y: c if type(c) is int else str(c) for y, c in v.items()}

    return {
        "field": "Q", "n": A.poset.n, "unit": A.unit,
        "generators": [{"name": x, "degree": A.degree[x],
                        "perversity": list(A.label[x])} for x in A.names],
        "differential": {x: vec(v) for x, v in A.diffs.items()},
        "products": [{"left": a, "right": b, "value": vec(v)}
                     for (a, b), v in A.products.items()],
        "commutative": A.is_commutative()}


def test_round_trip_on_the_corpus():
    for A in corpus(QQ, P3).values():
        data = json.loads(json.dumps(description(A)))
        desc = cli.parse_description(data)
        assert desc == data
        B = cli.build_pdga(desc)
        assert B.names == A.names
        assert B.degree == A.degree
        assert B.label == A.label
        assert B.diffs == A.diffs
        for a in A.nonunit():
            for b in A.nonunit():
                assert B.mul(a, b) == A.mul(a, b)


def test_shipped_sphere2_fixture_matches_the_builder():
    A = cli.load_pdga("sphere2")
    S = sphere_algebra(QQ, P3, 2)
    assert A.names == S.names
    assert A.degree == S.degree
    assert A.mul("x", "x") == {}


def test_perversity_aliases_and_arrays(tmp_path):
    data = dict(SPHERE2)
    data["generators"] = [{"name": "1", "degree": 0, "perversity": "zero"},
                          {"name": "x", "degree": 2,
                           "perversity": [0, 0, 0, 1]}]
    A = cli.build_pdga(cli.parse_description(data))
    assert A.lam("x") == (0, 0, 0, 1)
    assert A.lam("1") == P3.zero


def test_fraction_coefficients():
    data = {"field": "Q", "n": 3,
            "generators": [{"name": "1", "degree": 0},
                           {"name": "x", "degree": 1},
                           {"name": "y", "degree": 2}],
            "unit": "1",
            "differential": {"x": {"y": "1/2"}},
            "products": [{"left": "x", "right": "x", "value": {}},
                         {"left": "x", "right": "y", "value": {}},
                         {"left": "y", "right": "x", "value": {}},
                         {"left": "y", "right": "y", "value": {}}]}
    A = cli.build_pdga(cli.parse_description(data))
    assert A.d("x") == {"y": Fraction(1, 2)}


def test_prime_field_parsing():
    data = dict(SPHERE2)
    data["field"] = "Fp:5"
    A = cli.build_pdga(cli.parse_description(data))
    assert A.field.char == 5


NOT_A_FIELD = dict(SPHERE2, field="Fp:4")
D_SQUARED_NONZERO = {
    "field": "Q", "n": 3,
    "generators": [{"name": "1", "degree": 0}, {"name": "x", "degree": 0},
                   {"name": "y", "degree": 1}, {"name": "z", "degree": 2}],
    "unit": "1", "differential": {"x": {"y": 1}, "y": {"z": 1}}}


def run_python(tmp_path, flags, argv, entry=("-m", "perverse.cli")):
    "(exit code, stdout, stderr) of the CLI in a fresh interpreter"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable] + flags + list(entry) + argv,
        env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    return proc.returncode, proc.stdout, proc.stderr


LIST_NAME = dict(SPHERE2, generators=[{"name": "1", "degree": 0},
                                      {"name": ["a"], "degree": 2}])


@pytest.mark.parametrize("command,data,message", [
    ("hh", NOT_A_FIELD, "bad prime"),
    ("cofibrancy", D_SQUARED_NONZERO, "d^2 != 0"),
    ("cofibrancy", dict(SPHERE2, generators=SPHERE2["generators"] + [
        {"name": "y", "degree": 2}], differential={"x": {"y": 1}}),
     "differential[x]: 'y' has degree 2, expected 3"),
    ("hh", dict(SPHERE2, n="x"), "n: expected an integer at least 2"),
    ("cofibrancy", dict(SPHERE2, n="x"), "n: expected an integer at least 2"),
    ("cofibrancy", dict(SPHERE2, n=-1), "n: expected an integer at least 2"),
    ("cofibrancy", dict(SPHERE2, n=1), "n: expected an integer at least 2"),
    ("hh", dict(SPHERE2, differential=["1"]),
     "differential: expected an object"),
    ("cofibrancy", dict(SPHERE2, differential=["1"]),
     "differential: expected an object"),
    ("hh", LIST_NAME, "generators[1]: name must be a string"),
    ("cofibrancy", LIST_NAME, "generators[1]: name must be a string"),
    ("hh", dict(SPHERE2, unit=["1"]), "unit: ['1'] is not a generator"),
    ("hh", dict(SPHERE2, products=[{"left": ["x"], "right": "x",
                                    "value": {}}]),
     "products[0].left: unknown generator ['x']"),
    # cofibrancy reads the differential through build_pdga's parser
    ("cofibrancy", dict(SPHERE2, differential={"x": {"y": 1}}),
     "differential[x]: unknown generator 'y'"),
    ("cofibrancy", dict(SPHERE2, field="Fp:5",
                        differential={"x": {"x": "1/5"}}),
     "has no image in F_5")])
def test_bad_input_exits_2_under_python_O(tmp_path, command, data, message):
    # -O strips assert statements; input checks must not rely on them
    code, out, err = run_python(tmp_path, ["-O"], [command,
                                                   write(tmp_path, data)])
    assert code == 2, (out, err)
    assert message in err


@pytest.mark.parametrize("argv", [
    ["hh", "--max-length", "3", "--window", "-2..2"],
    ["bv", "--duality-degree", "2", "--trials", "3"],
])
def test_commands_print_the_same_under_python_O(tmp_path, argv):
    # the answers, not only the refusals, must not depend on assert
    path = write(tmp_path, SPHERE2)
    argv = argv[:1] + [path] + argv[1:]
    plain = run_python(tmp_path, [], argv)
    optimized = run_python(tmp_path, ["-O"], argv)
    assert plain[0] == 0, plain
    assert optimized[:2] == plain[:2]


# runs the CLI on its arguments, then names on stderr the perverse modules
# the command left in sys.modules
_LOADED = ("import sys; from perverse import cli; code = cli.main(); "
           "print(*sorted(m for m in sys.modules if m.startswith('perverse.')),"
           " file=sys.stderr); sys.exit(code)")


# the modules a command imports only when it runs them
_LAZY = {"perverse.complexes", "perverse.hochschild", "perverse.structure",
         "perverse.suite", "perverse.functoriality", "perverse.kunneth"}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("argv,runs", [
    (["hh", "sphere2"], {"perverse.hochschild"}),
    (["homology", "sphere2"], set()),
    (["cofibrancy", "sphere2"], {"perverse.complexes"}),
    (["poset", "--n", "3"], set()),
    (["tensor", "sphere2", "sphere2"],
     {"perverse.hochschild", "perverse.kunneth", "perverse.structure"}),
    (["gerstenhaber-check", "sphere2"],
     {"perverse.hochschild", "perverse.structure", "perverse.suite"})],
    ids=["hh", "homology", "cofibrancy", "poset", "tensor",
         "gerstenhaber-check"])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, flags, argv,
                                                    runs):
    # only tensor runs the Kunneth comparison and only gerstenhaber-check an
    # identity suite, so no other command compiles structure, suite or
    # kunneth; the comparison reads structure's operations and BV operator
    # but not the suite; only cofibrancy builds a perverse complex, so no
    # other command compiles complexes (homology reads the underlying
    # diagram's slots in algebra); no command compiles functoriality
    code, out, err = run_python(tmp_path, flags, argv, entry=("-c", _LOADED))
    assert _LAZY & set(err.split()) == runs, err
    assert (code, out) == run(argv) and code == 0


@pytest.mark.parametrize("entry", ["poset", "description"])
def test_a_poset_rank_above_the_limit_is_refused_at_once(tmp_path, capsys,
                                                         monkeypatch, entry):
    # Poset(64) would enumerate 2^62 perversities; both entry points refuse
    # the rank, naming the limit, before any Poset is built
    built = []
    monkeypatch.setattr(cli, "Poset", built.append)
    argv = (["poset", "--n", "64"] if entry == "poset"
            else ["hh", write(tmp_path, dict(SPHERE2, n=64))])
    assert run(argv) == (2, "")
    assert "rank 64 exceeds the limit 10" in capsys.readouterr().err
    assert not built
    # the limit itself is accepted
    assert cli.parse_description(dict(SPHERE2, n=cli.MAX_RANK))["n"] == 10


# ---------------------------------------------------------------------------
# diagnostics


def test_unknown_generator_in_differential_is_named():
    data = dict(SPHERE2)
    data["differential"] = {"x": {"ghost": 1}}
    with pytest.raises(cli.InputError, match="ghost"):
        cli.build_pdga(cli.parse_description(data))


def test_leibniz_breaking_product_table_names_the_pair():
    # d(x*x) = d(w) = 0 but dx*x + x*dx = 2v: Leibniz fails at (x, x)
    data = {"field": "Q", "n": 3,
            "generators": [{"name": "1", "degree": 0},
                           {"name": "x", "degree": 2},
                           {"name": "y", "degree": 3},
                           {"name": "w", "degree": 4},
                           {"name": "v", "degree": 5}],
            "unit": "1",
            "differential": {"x": {"y": 1}},
            "products": [{"left": "x", "right": "x", "value": {"w": 1}},
                         {"left": "x", "right": "y", "value": {"v": 1}},
                         {"left": "y", "right": "x", "value": {"v": 1}}]}
    with pytest.raises(cli.InputError, match="Leibniz.*'x', 'x'"):
        cli.build_pdga(cli.parse_description(data))


def test_bad_perversity_is_rejected():
    data = dict(SPHERE2)
    data["generators"] = [{"name": "1", "degree": 0},
                          {"name": "x", "degree": 2,
                           "perversity": [0, 9, 0]}]
    with pytest.raises(cli.InputError, match="not a perversity"):
        cli.build_pdga(cli.parse_description(data))


def test_commutative_flag_is_verified():
    data = {"field": "Q", "n": 3,
            "generators": [{"name": "1", "degree": 0},
                           {"name": "x", "degree": 1},
                           {"name": "y", "degree": 2}],
            "unit": "1",
            "products": [{"left": "x", "right": "x", "value": {"y": 1}},
                         {"left": "x", "right": "y", "value": {}},
                         {"left": "y", "right": "x", "value": {}},
                         {"left": "y", "right": "y", "value": {}}],
            "commutative": True}
    # x odd, so x*x = y forces x*x = -x*x: not graded commutative
    with pytest.raises(cli.InputError):
        cli.build_pdga(cli.parse_description(data))


def _with_x(**fields):
    "SPHERE2 with the given fields on its generator x"
    return dict(SPHERE2, generators=[{"name": "1", "degree": 0},
                                     dict({"name": "x", "degree": 2},
                                          **fields)])


@pytest.mark.parametrize("data,message", [
    # a JSON boolean is an int in Python, but never an integer input
    (_with_x(degree=True), "generators[1]: degree must be an integer"),
    (_with_x(perversity=[0, True, 1]),
     "generators[x].perversity: expected an integer array"),
    (dict(SPHERE2, n=True), "n: expected an integer at least 2"),
    (dict(SPHERE2, generators=SPHERE2["generators"] + [
        {"name": "y", "degree": 3}], differential={"x": {"y": True}}),
     "differential[x][y]: bad coefficient True"),
    # a string is not a flag: "false" used to assert commutativity
    (dict(SPHERE2, commutative="false"),
     "commutative: expected true or false, got 'false'"),
    (dict(SPHERE2, commutative=0), "commutative: expected true or false")])
def test_booleans_and_integers_are_not_confused(tmp_path, capsys, data,
                                                message):
    code, out = run(["homology", write(tmp_path, data)])
    assert code == 2 and not out
    assert message in capsys.readouterr().err


def test_commutative_false_is_read_as_false():
    data = dict(SPHERE2, commutative=False)
    assert cli.parse_description(data)["commutative"] is False
    cli.build_pdga(cli.parse_description(data))


def _half_over_f5(value):
    data = dict(SPHERE2, field="Fp:5")
    data["generators"] = SPHERE2["generators"] + [{"name": "y", "degree": 3}]
    data["differential"] = {"x": {"y": value}}
    return data


def test_fraction_coefficients_over_a_prime_field():
    A = cli.build_pdga(cli.parse_description(_half_over_f5("1/2")))
    assert A.d("x") == {"y": 3}


def test_a_coefficient_without_a_prime_field_image_exits_2(tmp_path, capsys):
    code, _ = run(["homology", write(tmp_path, _half_over_f5("1/5"))])
    assert code == 2
    assert "has no image in F_5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["poset", "--n", "-1"],
    ["hh", "sphere2", "--max-length", "-1"],
    ["bv", "sphere2", "--max-length", "-1"],
    ["gerstenhaber-check", "sphere2", "--trials", "-1"],
    ["calculus-check", "sphere2", "--trials", "-2"]])
def test_negative_counts_exit_2(argv, capsys):
    code, out = run(argv)
    assert code == 2 and not out
    assert "expected a nonnegative integer" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    code, _ = run(["homology", "definitely-not-here"])
    assert code == 2


def test_syntax_error_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _ = run(["homology", str(p)])
    assert code == 2


# ---------------------------------------------------------------------------
# commands


def test_poset_command_lists_perversities():
    code, out = run(["poset", "--n", "4"])
    assert code == 0
    assert "4 perversities" in out
    assert "[0, 0, 0, 1, 2]" in out


_SPHERE2_HOMOLOGY = [(p, k) for p in ([0, 0, 0, 0], [0, 0, 0, 1])
                     for k in (0, 2)]


def test_homology_command():
    # the exact bytes of both output modes on the shipped fixture
    code, out = run(["homology", "sphere2"])
    assert code == 0
    assert out == "homology of the underlying diagram\n" + "".join(
        "  p=%s  k=+%d  dim 1\n" % (p, k) for p, k in _SPHERE2_HOMOLOGY)
    code, out = run(["homology", "sphere2", "--json"])
    assert code == 0
    assert out.splitlines() == [json.dumps(r, sort_keys=True) for r in [
        {"_kind": "header", "text": "homology of the underlying diagram"}
    ] + [{"_kind": "row", "degree": k, "dim": 1, "perversity": p,
          "text": "p=%s  k=+%d  dim 1" % (p, k)}
         for p, k in _SPHERE2_HOMOLOGY]]


@pytest.mark.parametrize("y, message", [
    ({"name": "y", "degree": 4},
     "d degree +1 at 'x': {4} != {3}"),
    ({"name": "y", "degree": 3, "perversity": "top"},
     "d label at ('x', 'y'): (0, 0, 0, 1) != (0, 0, 0, 0)")],
    ids=["off-degree", "above-label"])
def test_homology_refuses_a_differential_that_leaves_its_slot(
        tmp_path, capsys, y, message):
    # validation refuses it before the homology is computed
    data = dict(SPHERE2, generators=SPHERE2["generators"] + [y],
                differential={"x": {"y": 1}})
    code, out = run(["homology", write(tmp_path, data)])
    assert code == 2 and not out
    assert capsys.readouterr().err == (
        "error: validation failed:\n  %s\n" % message)


def test_hh_command_with_negative_window():
    code, out = run(["hh", "sphere2", "--max-length", "3",
                     "--window", "-2..2"])
    assert code == 0
    assert "q=-2  dim 1" in out


def test_hh_perversity_filter():
    code, out = run(["hh", "sphere2", "--window", "0..0",
                     "--perversity", "top"])
    assert code == 0
    assert "p=[0, 0, 0, 1]" in out and "p=[0, 0, 0, 0]" not in out


def test_check_commands_pass_on_sphere2():
    for cmd in ("gerstenhaber-check", "calculus-check"):
        code, out = run([cmd, "sphere2", "--trials", "4"])
        assert code == 0, out
        assert "fail" not in out


def test_bv_command():
    code, out = run(["bv", "sphere2", "--duality-degree", "2",
                     "--trials", "3"])
    assert code == 0, out
    assert "duality degree 2" in out
    assert "Delta squared = 0" in out


def test_bv_builds_one_operator_and_hands_it_to_the_suite(monkeypatch):
    built, handed = [], []
    init, suite = structure.BVOperator.__init__, structure.verify_calculus

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_suite(*args, **kwargs):
        handed.append(kwargs.get("bv"))
        return suite(*args, **kwargs)

    monkeypatch.setattr(structure.BVOperator, "__init__", counting_init)
    monkeypatch.setattr(structure, "verify_calculus", recording_suite)
    code, out = run(["bv", "sphere2", "--duality-degree", "2",
                     "--trials", "3"])
    assert code == 0, out
    assert len(built) == 1 and built[0].n == 2
    assert handed == built
    assert "Delta squared = 0" in out


@pytest.mark.parametrize("argv", [
    ["bv", "sphere2", "--trials", "3"],
    ["gerstenhaber-check", "sphere2"],
])
def test_suite_commands_check_only_what_they_print(monkeypatch, argv):
    checked = []
    run_identity = structure.run_identity

    def recording(report, identity, *args):
        checked.append(identity)
        return run_identity(report, identity, *args)

    monkeypatch.setattr(structure, "run_identity", recording)
    code, out = run(argv + ["--json"])
    assert code == 0, out
    printed = [json.loads(line).get("identity") for line in out.splitlines()]
    assert checked == [i for i in printed if i is not None]
    assert checked


def test_bv_rejects_a_non_dpda(tmp_path):
    # H* has symmetric dims but x.x = 0, so no class acts as a duality
    path = write(tmp_path, {
        "field": "Q", "n": 3,
        "generators": [{"name": "1", "degree": 0},
                       {"name": "x", "degree": 2},
                       {"name": "y", "degree": 4}],
        "unit": "1",
        "products": [{"left": "x", "right": "x", "value": {}},
                     {"left": "x", "right": "y", "value": {}},
                     {"left": "y", "right": "x", "value": {}},
                     {"left": "y", "right": "y", "value": {}}]})
    code, out = run(["bv", path, "--trials", "2"])
    assert code == 1
    assert "duality class" in out


def test_tensor_command(capsys):
    code, out = run(["tensor", "sphere2", "sphere2",
                     "--max-length", "2", "--window", "-1..1"])
    assert code == 0, out
    assert "dimension tables agree" in out
    # at L = 0 the convergence check would compare the L = 0 tables with
    # themselves, so every slot would count as stable
    code, out = run(["tensor", "sphere2", "sphere2",
                     "--max-length", "0", "--window", "-1..1"])
    assert (code, out) == (2, "")
    assert "max length at least 1, got 0" in capsys.readouterr().err


def test_cofibrancy_command():
    code, out = run(["cofibrancy", "sphere2"])
    assert code == 0, out
    assert "minimum condition" in out
    assert "valid pDGA" in out


# d a = c + e leaves a's label, and d b = e/2 leaves b's: the filtration
# is not the constant diagram, and its cover maps are not all identities
LABELED = {
    "field": "Q", "n": 5,
    "generators": [
        {"name": "1", "degree": 0},
        {"name": "a", "degree": 2, "perversity": [0, 0, 0, 1, 1, 1]},
        {"name": "b", "degree": 2},
        {"name": "c", "degree": 3, "perversity": "top"},
        {"name": "e", "degree": 3, "perversity": [0, 0, 0, 0, 1, 2]}],
    "unit": "1",
    "differential": {"a": {"c": 1, "e": 1}, "b": {"e": "1/2"}}}


def test_cofibrancy_command_on_a_labeled_differential(tmp_path):
    code, out = run(["cofibrancy", write(tmp_path, LABELED), "--json"])
    assert code == 0, out
    assert list(map(json.loads, out.splitlines())) == [
        {"identity": "structure maps injective", "status": "pass",
         "trials": 24, "witness": None},
        {"identity": "minimum condition on image intersections",
         "status": "pass", "trials": 9, "witness": None}]


def test_poset_command_at_the_rank_limit():
    code, out = run(["poset", "--n", "10", "--json"])
    assert code == 0
    rows = [r for r in map(json.loads, out.splitlines())
            if r["_kind"] == "row"]
    assert len(rows) == 256
    assert sum(len(r["covered_by"]) for r in rows) == 576


# each row reports its rank checks times the filtration's two degrees, 0
# and 2: the injectivity row one per cover of the poset (48 at rank 7, 112
# at rank 8, 576 at rank 10, the rank limit), the minimum row one per
# diamond under each perversity (210 at rank 7, 1,260 at rank 8, 36,036 at
# rank 10); rank 10 takes about 1.5 s
@pytest.mark.parametrize("n, covers, checks", [(7, 96, 420),
                                               (8, 224, 2520),
                                               (10, 1152, 72072)])
def test_cofibrancy_command_at_high_rank(tmp_path, n, covers, checks):
    code, out = run(["cofibrancy", write(tmp_path, dict(SPHERE2, n=n)),
                     "--json"])
    assert code == 0, out
    assert list(map(json.loads, out.splitlines())) == [
        {"identity": "structure maps injective", "status": "pass",
         "trials": covers, "witness": None},
        {"identity": "minimum condition on image intersections",
         "status": "pass", "trials": checks, "witness": None},
        {"identity": "product table defines a valid pDGA", "status": "pass",
         "trials": 1, "witness": None}]


def test_json_output_is_line_delimited_records():
    code, out = run(["gerstenhaber-check", "sphere2", "--trials", "3",
                     "--json"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs and all(r["status"] == "pass" for r in recs)


def test_seed_determinism():
    a = run(["calculus-check", "sphere2", "--trials", "5", "--seed", "7",
             "--json"])
    b = run(["calculus-check", "sphere2", "--trials", "5", "--seed", "7",
             "--json"])
    assert a == b


def test_unknown_command_exits_2():
    code, _ = run(["frobnicate"])
    assert code == 2
