"""The single load boundary: `towerio.load` is the only place a tower file is
checked.  A static guard keeps the checks out of `cli`, and a seeded fuzz
runs every file-reading command on mutants of the shipped files."""

import ast
import contextlib
import io
import json
import os
import random
import re
from fractions import Fraction

import pytest

from tropcover.cli import main
from tropcover.graphs import Graph, HarmonicMorphism
from tropcover.metrics import MetricGraph
from tropcover.randgen import random_tower
from tropcover.towerio import dumps_canonical, file_to_doc, level_to_doc, tower_to_doc

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tropcover")
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
CHECKS = {"validate_graph", "validate_harmonic", "validate_metric"}


def check_calls(tree):
    """(function, check) for each call of an input check inside a top-level
    function: a cmd_* function, or a helper one could call."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in CHECKS:
                        yield fn.name, name


def test_guard_catches_a_check_call():
    source = ("def cmd_a(args):\n    return validate_graph(g)\n"
              "def cmd_b(args):\n    return graphs.validate_harmonic(f)\n"
              "def helper():\n    return validate_metric(m)\n")
    assert sorted(check_calls(ast.parse(source))) == [
        ("cmd_a", "validate_graph"), ("cmd_b", "validate_harmonic"), ("helper", "validate_metric")]


def test_commands_leave_checks_to_the_loader():
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    assert list(check_calls(tree)) == []


def _nodes(node, path=()):
    """(path, value) of every node below the document root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


RETYPED = [None, True, 0, -1, 2, "x", "1", "1/0", 1.5, [], [1], {}, {"0": 1}]


def mutate(doc, rng):
    """Apply one seeded mutation in place; return its description."""
    kind = rng.choice(["delete key", "retype value", "change integer", "drop entry"])
    nodes = list(_nodes(doc))
    if kind in ("delete key", "drop entry"):
        # an object's entries are reached by a str key, a list's by an int index
        nodes = [(p, v) for p, v in nodes if type(p[-1]) is (str if kind == "delete key" else int)]
    elif kind == "change integer":
        nodes = [(p, v) for p, v in nodes if type(v) is int]
    path, value = rng.choice(nodes)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind in ("delete key", "drop entry"):
        del parent[path[-1]]
    elif kind == "retype value":
        parent[path[-1]] = rng.choice([x for x in RETYPED if type(x) is not type(value)])
    else:
        parent[path[-1]] = value + rng.choice([-value - 1, -1, 1, 5])
    return f"{kind} at {path}"


def run(argv, what):
    """(exit code, stdout, stderr) of main(argv); fails the test if an
    exception escapes main."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        pytest.fail(f"{argv[0]} on a mutant ({what}) raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def fuzz(workdir, seed: int, trials: int):
    """Run every file-reading command on `trials` seeded mutants of data/*.json.

    validate passes, prints an issue report, or names a malformed tower
    file; when it rejects a mutant, no other command passes, writes or
    reports an isomorphism.
    """
    rng = random.Random(seed)
    sources = {}
    for name, theorem in (("trigonal_tower.json", "trigonal"), ("bigonal_tower.json", "bigonal")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            sources[name] = (json.load(fh), theorem)
    out = os.path.join(workdir, "out.json")
    for trial in range(trials):
        name = rng.choice(sorted(sources))
        doc, theorem = json.loads(json.dumps(sources[name][0])), sources[name][1]
        what = mutate(doc, rng)
        bad = os.path.join(workdir, f"m{trial}.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, text, err = run(["validate", bad], what)
        assert (code, err) == (0, "") and text.startswith("OK: ") \
            or (code, err) == (1, "") and text \
            or code == 1 and text == "" and err.startswith("error: tower file: "), (name, what)
        for argv in (["construct", bad, "--op", theorem, "--out", out],
                     ["classify", bad], ["jacobian", bad], ["prym", bad],
                     ["check", bad, "--theorem", theorem], ["export-dot", bad],
                     ["compare", bad, os.path.join(DATA, name)]):
            code2, text, _ = run(argv, what)
            if code != 0:
                lines = text.splitlines()
                assert code2 != 0 and "PASS" not in lines and "isomorphic" not in lines \
                    and not any(x.startswith("wrote") for x in lines), (name, what, argv)
        if os.path.exists(out):
            os.remove(out)


def test_mutated_files_never_escape_main_or_pass(tmp_path):
    fuzz(str(tmp_path), 20221018, 200)


@pytest.mark.parametrize("level, field", [(0, "vmap"), (1, "root"), (None, "lengths")])
def test_two_keys_for_one_id_are_an_error(tmp_path, level, field):
    # "00" and "0" both parse to id 0: the file gives id 0 two values, and
    # no command may quietly keep the later one
    with open(os.path.join(DATA, "trigonal_tower.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    part = doc["base"] if level is None else doc["levels"][level]
    mapping = part[field]
    value = mapping["0"]
    mapping["00"] = 1 if value == 0 else 0 if type(value) is int else value
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    what = f"base {field}" if level is None else f"level {field}"
    for argv in (["validate", str(bad)], ["construct", str(bad), "--op", "trigonal",
                                          "--out", str(tmp_path / "out.json")],
                 ["compare", str(bad), os.path.join(DATA, "trigonal_tower.json")]):
        code, text, err = run(argv, "duplicate id")
        assert (code, text) == (1, "")
        assert err == f"error: tower file: {what} has two keys for id 0\n"
    assert not (tmp_path / "out.json").exists()


def _append_first(part, field):
    """Mutation appending the first entry of doc[...][field] again."""
    def mutate(doc):
        node = doc["base"] if part is None else doc["levels"][part]
        node[field].append(node[field][0])
    return mutate


def _half_edges(doc):
    doc["levels"][0]["half_edges"] = [999, 1000]


@pytest.mark.parametrize("mutate, message", [
    (_append_first(None, "vertices"), "graph vertices has two entries for id 0"),
    (_append_first(None, "edges"), "graph edges has two entries for id 0"),
    (_append_first(1, "vertices"), "level vertices has two entries for id 0"),
    (_append_first(0, "half_edges"), "level half_edges has two entries for id 0"),
    (_half_edges, "level half_edges must hold the root keys")],
    ids=["base vertex", "base edge", "level vertex", "level half-edge", "level half_edges"])
def test_a_list_naming_an_id_twice_is_an_error(tmp_path, mutate, message):
    # a repeated vertex made the base a non-tree, a repeated edge pair was
    # collapsed, and a level's half_edges list was read for its type only
    with open(os.path.join(DATA, "trigonal_tower.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(bad)], ["check", str(bad), "--theorem", "trigonal"],
                 ["construct", str(bad), "--op", "trigonal", "--out", str(tmp_path / "out.json")]):
        assert run(argv, message) == (1, "", f"error: tower file: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("key, issue", [
    ("vmap", "[vmap-domain] at (): vertex map has keys that are not vertices"),
    ("hmap", "[hmap-domain] at (): half-edge map has keys that are not half-edges"),
    ("vertex_degree", "[vertex-degree-domain] at (): "
                      "vertex degree map has keys that are not vertices"),
    ("half_edge_degree", "[half-edge-degree-domain] at (): "
                         "half-edge degree map has keys that are not half-edges")],
    ids=["vmap", "hmap", "vertex_degree", "half_edge_degree"])
def test_a_map_entry_for_an_id_the_level_lacks_is_an_issue(tmp_path, level, key, issue):
    # an entry for id 999 was read past: the file validated OK and prym exited 0
    with open(os.path.join(DATA, "trigonal_tower.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["levels"][level][key]
    entries["999"] = entries["0"]
    bad = tmp_path / "stray.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(bad)], ["prym", str(bad)],
                 ["check", str(bad), "--theorem", "trigonal"],
                 ["construct", str(bad), "--op", "trigonal", "--out", str(tmp_path / "out.json")]):
        assert run(argv, f"stray {key} entry") == (1, f"level{level}: {issue}\n", "")
    assert not (tmp_path / "out.json").exists()


def _uneven_tower(copies: int) -> dict:
    """A tower document over one base edge whose mid curve is two disjoint
    edges of degree 1, with two top copies over the first mid edge and
    `copies` over the second: degree 2 over mid vertex 0, but not over 2."""
    base, _ = Graph.from_edges(2, [(0, 1)])
    mid, _ = Graph.from_edges(4, [(0, 1), (2, 3)])
    f = HarmonicMorphism(mid, base, {0: 0, 1: 1, 2: 0, 3: 1}, {0: 0, 1: 1, 2: 0, 3: 1},
                         dict.fromkeys(range(4), 1), dict.fromkeys(range(4), 1))
    over = [0, 0] + [1] * copies
    top, _ = Graph.from_edges(2 * len(over), [(2 * i, 2 * i + 1) for i in range(len(over))])
    vmap = {2 * i + j: 2 * e + j for i, e in enumerate(over) for j in (0, 1)}
    pi = HarmonicMorphism(top, mid, vmap, dict(vmap), dict.fromkeys(top.vertices, 1),
                          dict.fromkeys(top.half_edges, 1))
    return file_to_doc(MetricGraph(base, {0: Fraction(1)}), [f, pi])


def _degree_report(total: int) -> str:
    return "".join(f"level1: [double-cover-degree] at {p}: fiber degree sum {total}, not 2\n"
                   for p in (("v", 2), ("v", 3), ("h", 2), ("h", 3)))


@pytest.mark.parametrize("copies", [1, 3], ids=["degree 1", "degree 3"])
def test_a_double_cover_has_degree_2_over_every_point(tmp_path, copies):
    # with one copy, classify typed every point III (a degree-1 point taken
    # as dilated) and construct wrote a file; with three, the commands
    # failed with "too many values to unpack"
    bad = tmp_path / "uneven.json"
    bad.write_text(dumps_canonical(_uneven_tower(copies)), encoding="utf-8")
    out = tmp_path / "out.json"
    for argv in (["classify", str(bad)], ["prym", str(bad)],
                 ["check", str(bad), "--theorem", "bigonal"],
                 ["construct", str(bad), "--op", "bigonal", "--out", str(out)]):
        assert run(argv, "uneven double cover") == (1, _degree_report(copies), "")
    assert not out.exists()


@pytest.mark.parametrize("copies", [1, 3], ids=["degree 1", "degree 3"])
def test_validate_reports_a_top_level_off_degree_2(tmp_path, copies):
    # validate printed `OK: ... degrees=[2, 2]` and exited 0 on these files
    bad = tmp_path / "uneven.json"
    bad.write_text(dumps_canonical(_uneven_tower(copies)), encoding="utf-8")
    assert run(["validate", str(bad)], "uneven double cover") == (1, "".join(
        f"level1: [double-cover-degree] at {p}: fiber degree sum {copies}, not 2\n"
        for p in (("v", 2), ("v", 3), ("h", 2), ("h", 3))), "")


def _half_covered_tower() -> dict:
    """`_uneven_tower`'s base and mid curve under a connected top curve: two
    edges joining two vertices of degree 2 over the first mid edge, and
    nothing over the second, so degree 0 over mid vertex 2."""
    doc = _uneven_tower(0)
    mid, _ = Graph.from_edges(4, [(0, 1), (2, 3)])
    top, _ = Graph.from_edges(2, [(0, 1), (0, 1)])
    pi = HarmonicMorphism(top, mid, {0: 0, 1: 1}, {0: 0, 1: 1, 2: 0, 3: 1}, {0: 2, 1: 2},
                          dict.fromkeys(top.half_edges, 1))
    doc["levels"][1] = level_to_doc(pi, "level1")
    return doc


def _infinite_leg_tower(seed: int) -> dict:
    """The tower of `tropcover random --seed <seed> --n 3 --pi-free` with base
    edge 0, which ends at a leaf, of infinite length."""
    gen = random_tower(seed, n=3, pi_free=True)
    doc = tower_to_doc(gen.tower, gen.base_metric)
    doc["base"]["lengths"]["0"] = "inf"
    return doc


def _leg_report(level: int, keys) -> str:
    return "".join(f"level{level}: [infinite-not-extremal] at ('h', {k}): "
                   "infinite edge must have a univalent endpoint\n" for k in keys)


REFUSED = {
    "degree 0": (_half_covered_tower, "bigonal", _degree_report(0)),
    "degree 1": (lambda: _uneven_tower(1), "bigonal", _degree_report(1)),
    "degree 3": (lambda: _uneven_tower(3), "bigonal", _degree_report(3)),
    "infinite edge off a leg": (lambda: _infinite_leg_tower(3), "trigonal",
                                _leg_report(0, (0, 2, 4)) + _leg_report(1, (0, 1, 4, 5, 8, 9))),
}


@pytest.mark.parametrize("name", REFUSED)
def test_every_command_refuses_a_file_validate_refuses(tmp_path, name):
    # jacobian printed a Gram of the connected degree-0 file and export-dot
    # drew all of them; validate passed the infinite edges off a leg, which
    # export-dot drew and construct --op trigonal built on, while prym,
    # jacobian and check stopped on a cycle pairing across an infinite edge
    make, theorem, report = REFUSED[name]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(make()), encoding="utf-8")
    out = str(tmp_path / "out.json")
    for argv in (["validate", bad], ["classify", bad], ["jacobian", bad], ["prym", bad],
                 ["check", bad, "--theorem", theorem], ["export-dot", bad, "--out", out],
                 *(["construct", bad, "--op", op, "--out", out]
                   for op in ("bigonal", "trigonal", "recillas", "tetragonal-split", "ngonal")),
                 ["compare", bad, bad]):
        assert run(list(map(str, argv)), name) == (1, report, ""), argv
    assert os.listdir(tmp_path) == ["bad.json"]


def test_an_infinite_leg_whose_lifts_are_legs_passes_every_command(tmp_path):
    # on seed 16 both levels over the leaf of base edge 0 are leaves, and so
    # are the quartic curve's: every lift of the infinite edge is a leg
    path, quartic, back = (str(tmp_path / x) for x in ("leg.json", "quartic.json", "back.json"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(_infinite_leg_tower(16)))
    for argv in (["validate", path], ["jacobian", path], ["prym", path],
                 ["check", path, "--theorem", "trigonal"], ["export-dot", path],
                 ["construct", path, "--op", "trigonal", "--out", quartic],
                 ["compare", path, path], ["validate", quartic], ["classify", quartic],
                 ["construct", quartic, "--op", "recillas", "--out", back],
                 ["compare", path, back]):
        code, text, err = run(argv, "infinite leg")
        assert (code, err) == (0, ""), (argv, text, err)


ISSUE_LINE = re.compile(r"(level\d+: )?\[[a-z-]+\] at ")
LOAD_ERRORS = ("error: tower file: ", "error: double cover ")


def load_error(text: str, err: str):
    """The first line by which a command refuses its file as a file: an
    issue report line, or an `error:` line about the file or its double
    cover.  None if there is no such line."""
    return next((line for line in text.splitlines() if ISSUE_LINE.match(line)), None) or \
        next((line for line in err.splitlines() if line.startswith(LOAD_ERRORS)), None)


def test_a_file_that_validates_loads_in_every_command(tmp_path):
    """On the shipped files, the two uneven towers, seeded towers whose top
    curve may be disconnected, and seeded mutants of them all: whenever
    validate exits 0, no command that reads the file refuses it as a file."""
    rng = random.Random(20261019)
    sources = []
    for name, theorem in (("trigonal_tower.json", "trigonal"), ("bigonal_tower.json", "bigonal")):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            sources.append((name, json.load(fh), theorem))
    for copies in (1, 3):
        sources.append((f"uneven {copies}", _uneven_tower(copies), "bigonal"))
    for n, theorem in ((2, "bigonal"), (3, "trigonal")):
        for seed in range(5):
            gen = random_tower(seed, n=n, connected=False)
            sources.append((f"seed {seed} n={n}", tower_to_doc(gen.tower, gen.base_metric),
                            theorem))
    out, refused = str(tmp_path / "out.json"), []
    for trial in range(len(sources) + 200):
        name, source, theorem = sources[trial] if trial < len(sources) else rng.choice(sources)
        doc = json.loads(json.dumps(source))
        what = mutate(doc, rng) if trial >= len(sources) else "unchanged"
        path = str(tmp_path / f"m{trial}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if run(["validate", path], what)[0] != 0:
            if trial < len(sources):
                refused.append(name)
            continue
        for argv in (["construct", path, "--op", theorem, "--out", out],
                     ["classify", path], ["jacobian", path], ["prym", path],
                     ["check", path, "--theorem", theorem], ["export-dot", path],
                     ["compare", path, path]):
            _, text, err = run(argv, what)
            assert load_error(text, err) is None, (name, what, argv, text, err)
    assert refused == ["uneven 1", "uneven 3"]
