import hashlib
import json
import os
import sys

import pytest

from gallery import bigonal_reference, trigonal_reference
from tropcover.cli import main
from tropcover.graphs import PreconditionError, towers_isomorphic, validate_harmonic
from tropcover.ngonal import bigonal, classify_tetragonal_point, ngonal_construct
from tropcover.randgen import random_tower
from tropcover.towerio import (doc_to_file, dumps_canonical, file_to_doc, load,
                               provenance_meta, save, tower_to_doc)

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        gen = random_tower(9, n=3)
        doc = tower_to_doc(gen.tower, gen.base_metric, meta={"seed": 9})
        text = dumps_canonical(doc)
        reparsed = doc_to_file(json.loads(text))
        again = dumps_canonical(tower_to_doc(reparsed.tower(), reparsed.base_metric,
                                             reparsed.meta))
        assert again == text

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_files_round_trip_byte_identical(self, tmp_path, n):
        # dumps_canonical(parse(text)) == text on canonical files, without
        # rebuilding the tower: the loaded levels as they are
        for seed in range(20):
            gen = random_tower(seed, n=n)
            text = dumps_canonical(tower_to_doc(gen.tower, gen.base_metric,
                                                meta={"seed": seed, "n": n}))
            path = tmp_path / f"n{n}-{seed}.json"
            path.write_text(text, encoding="utf-8")
            f = load(path)
            assert dumps_canonical(file_to_doc(f.base_metric, f.levels, f.meta)) == text

    def test_reload_preserves_tower(self, tmp_path):
        gen = random_tower(3, n=2)
        path = tmp_path / "t.json"
        save(path, tower_to_doc(gen.tower, gen.base_metric))
        loaded = load(path)
        assert loaded.tower() == gen.tower
        assert loaded.base_metric == gen.base_metric

    def test_shipped_files_are_canonical(self):
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            path = os.path.join(DATA, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            loaded = doc_to_file(json.loads(text))
            assert dumps_canonical(tower_to_doc(loaded.tower(), loaded.base_metric,
                                                loaded.meta)) == text

    def test_shipped_files_match_gallery(self):
        loaded = load(os.path.join(DATA, "trigonal_tower.json"))
        assert towers_isomorphic(loaded.tower(), trigonal_reference().tower) is not None
        loaded = load(os.path.join(DATA, "bigonal_tower.json"))
        assert towers_isomorphic(loaded.tower(), bigonal_reference().tower) is not None


def dumps_by_json(doc) -> str:
    """The canonical text as the standard encoder writes it."""
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


class TestCanonicalWriter:
    """dumps_canonical writes the document itself; the standard encoder,
    with the same settings, is its oracle."""

    def test_shipped_files(self):
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            with open(os.path.join(DATA, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            assert dumps_canonical(doc) == dumps_by_json(doc)

    def test_constructed_files_with_provenance(self):
        loaded = load(os.path.join(DATA, "bigonal_tower.json"))
        result = bigonal(loaded.tower())
        cons = ngonal_construct(random_tower(4, n=3).tower, 3)
        docs = [tower_to_doc(result.tower, loaded.base_metric,
                             meta={"construction": "bigonal",
                                   "points": provenance_meta(result.construction)}),
                file_to_doc(loaded.base_metric, [cons.cover_to_base],
                            meta={"construction": "ngonal n=3", "points": provenance_meta(cons)}),
                tower_to_doc(loaded.tower(), loaded.base_metric),
                tower_to_doc(loaded.tower(), loaded.base_metric, meta={})]
        for doc in docs:
            assert dumps_canonical(doc) == dumps_by_json(doc)

    def test_odd_values_and_keys(self):
        doc = {"levels": [], "base": {}, "meta": {
            "10": 1, "2": [], "1": {}, "": "", "b": [[], {}, [[]], [{}], [1, [2, {"3": 4}]]],
            "text": "caf\u00e9 \u2192 \U0001d11e \"quoted\" back\\slash\nnew\tline\u0007",
            "flags": [True, False, None, True], "zero": 0, "neg": -12, "big": 10 ** 40,
            "nested": {"a": {"b": {"c": {"10": True, "9": None, "x": "y"}}}},
            "pairs": [[0, 1], [2, 3]], "tuple": (1, "two", (3,)), "mixed": [1, "1", True, None],
            "int keys": {3: "c", 10: "a", 2: "b"}, "\u00e9": "key"}}
        assert dumps_canonical(doc) == dumps_by_json(doc)
        for value in ({}, [], {"10": {}, "2": []}, {"a": {"b": []}}):
            assert dumps_canonical(value) == dumps_by_json(value)

    def test_unwritable_values_raise_as_before(self):
        for doc in ({"meta": {"x": {1, 2}}}, {"meta": {"a": {1: 2, "b": 3}}}):
            with pytest.raises(TypeError):
                dumps_by_json(doc)
            with pytest.raises(TypeError):
                dumps_canonical(doc)


class TestGeneratorDeterminism:
    def test_seed_determines_bytes(self):
        a = random_tower(42, n=3)
        b = random_tower(42, n=3)
        assert dumps_canonical(tower_to_doc(a.tower, a.base_metric)) == \
            dumps_canonical(tower_to_doc(b.tower, b.base_metric))

    def test_generated_towers_validate(self):
        for seed in range(20):
            gen = random_tower(seed, n=3)
            assert validate_harmonic(gen.tower.f) == []
            assert validate_harmonic(gen.tower.pi) == []

    def test_partitions_are_built_once(self):
        # random_harmonic_map draws from _partitions(n) at every base vertex;
        # the table is kept, and its order (the draws) is the recursive one
        from itertools import product
        from tropcover.randgen import _partitions
        for n in range(7):
            parts = _partitions(n)
            assert _partitions(n) is parts
            every = {tuple(sorted((p for p in c if p), reverse=True))
                     for c in product(range(n + 1), repeat=n) if sum(c) == n}
            assert set(parts) == every and len(parts) == len(every)
            assert list(parts) == sorted(parts, reverse=True)


class TestCLI:
    def test_validate_ok(self, capsys):
        assert main(["validate", os.path.join(DATA, "trigonal_tower.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_reports_harmonicity_violation(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["levels"][0]["vertex_degree"]["0"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "local-harmonicity" in capsys.readouterr().out

    def test_invalid_metric_fails_prym_and_check(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["base"]["lengths"]["2"] = "-1"
        bad = tmp_path / "negative.json"
        bad.write_text(json.dumps(doc))
        for argv in (["prym", str(bad)], ["check", str(bad), "--theorem", "bigonal"]):
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert "length-positive" in out and "PASS" not in out

    def test_float_length_is_rejected(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["base"]["lengths"]["2"] = 1.5
        bad = tmp_path / "float.json"
        bad.write_text(json.dumps(doc))
        for argv in (["validate", str(bad)], ["prym", str(bad)],
                     ["check", str(bad), "--theorem", "bigonal"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "1.5" in captured.err and "PASS" not in captured.out

    def test_empty_base_vertex_list_fails_prym_and_check(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["base"]["vertices"] = []
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(doc))
        for argv in (["prym", str(bad)], ["check", str(bad), "--theorem", "bigonal"]):
            assert main(argv) == 1  # an uncaught exception would fail the test here
            out = capsys.readouterr().out
            assert "root-missing" in out and "PASS" not in out

    def test_broken_cover_level_fails_prym_and_check(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["levels"][0]["vmap"]["3"]
        bad = tmp_path / "no_vmap.json"
        bad.write_text(json.dumps(doc))
        reports = []
        for argv in (["validate", str(bad)], ["prym", str(bad)],
                     ["check", str(bad), "--theorem", "bigonal"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "level0: [vmap]" in captured.out and "rank" not in captured.out
            reports.append(captured.out)
        assert reports[0] == reports[1] == reports[2]

    def test_validate_reports_missing_base_lengths(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["base"]["lengths"]
        bad = tmp_path / "no_lengths.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "[length-domain]" in captured.out and captured.err == ""

    def test_check_trigonal_passes(self, capsys):
        assert main(["check", os.path.join(DATA, "trigonal_tower.json"),
                     "--theorem", "trigonal"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "17/2" in out

    def test_check_bigonal_passes(self, capsys):
        assert main(["check", os.path.join(DATA, "bigonal_tower.json"),
                     "--theorem", "bigonal"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_construct_bigonal_twice_reproduces(self, tmp_path, capsys):
        src = os.path.join(DATA, "bigonal_tower.json")
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        assert main(["construct", src, "--op", "bigonal", "--out", str(once)]) == 0
        assert main(["construct", str(once), "--op", "bigonal", "--out", str(twice)]) == 0
        assert main(["compare", src, str(twice)]) == 0

    def test_construct_output_carries_provenance(self, tmp_path):
        src = os.path.join(DATA, "bigonal_tower.json")
        out = tmp_path / "c.json"
        main(["construct", src, "--op", "bigonal", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert "multisection" in next(iter(doc["meta"]["points"]["vertices"].values()))

    def test_trigonal_then_recillas_round_trip(self, tmp_path):
        src = os.path.join(DATA, "trigonal_tower.json")
        quartic = tmp_path / "q.json"
        back = tmp_path / "r.json"
        assert main(["construct", src, "--op", "trigonal", "--out", str(quartic)]) == 0
        assert main(["construct", str(quartic), "--op", "recillas", "--out", str(back)]) == 0
        assert main(["compare", src, str(back)]) == 0

    def test_random_then_check(self, tmp_path):
        out = tmp_path / "rand.json"
        assert main(["random", "--seed", "5", "--n", "2", "--generic",
                     "--pi-dilated", "--out", str(out)]) == 0
        assert main(["check", str(out), "--theorem", "bigonal"]) == 0

    def test_classify_and_jacobian_and_prym(self, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        assert main(["classify", path]) == 0
        assert main(["jacobian", path]) == 0
        assert main(["prym", path]) == 0
        out = capsys.readouterr().out
        assert "type" in out and "Gram" in out

    def test_export_dot(self, tmp_path, capsys):
        path = os.path.join(DATA, "bigonal_tower.json")
        out = tmp_path / "g.dot"
        assert main(["export-dot", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert "digraph" in text and "penwidth=2" in text

    def test_tetragonal_split_writes_two_files(self, tmp_path):
        gen = random_tower(1, n=4, pi_free=True, generic=True)
        src = tmp_path / "t4.json"
        save(src, tower_to_doc(gen.tower, gen.base_metric))
        out = tmp_path / "split.json"
        assert main(["construct", str(src), "--op", "tetragonal-split",
                     "--out", str(out)]) == 0
        assert (tmp_path / "split.1.json").exists() and (tmp_path / "split.2.json").exists()
        assert main(["validate", str(tmp_path / "split.1.json")]) == 0

    def test_tetragonal_split_keeps_json_inside_directory_names(self, tmp_path, capsys):
        # only the .json suffix of --out is numbered, not a .json elsewhere in the path
        gen = random_tower(1, n=4, pi_free=True, generic=True)
        src = tmp_path / "t4.json"
        save(src, tower_to_doc(gen.tower, gen.base_metric))
        outdir = tmp_path / "a.json.d"
        outdir.mkdir()
        assert main(["construct", str(src), "--op", "tetragonal-split",
                     "--out", str(outdir / "out.json")]) == 0
        written = sorted(p.name for p in outdir.iterdir())
        assert written == ["out.1.json", "out.2.json"]
        assert str(outdir / "out.1.json") in capsys.readouterr().out
        assert main(["validate", str(outdir / "out.2.json")]) == 0

    def test_precondition_violation_exit_one(self, tmp_path, capsys):
        gen = random_tower(0, n=2, generic=True, pi_free=True)
        src = tmp_path / "free.json"
        save(src, tower_to_doc(gen.tower, gen.base_metric))
        assert main(["check", str(src), "--theorem", "bigonal"]) == 1
        assert "output-connected" in capsys.readouterr().err

    def test_type_v_tower_is_a_precondition_violation(self, tmp_path, capsys):
        gen = random_tower(2, n=2, pi_free=False)
        src = tmp_path / "type-v.json"
        save(src, tower_to_doc(gen.tower, gen.base_metric))
        assert main(["check", str(src), "--theorem", "bigonal"]) == 1
        assert "precondition violated [generic]" in capsys.readouterr().err

    def test_precondition_names_its_condition_once(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["construct", os.path.join(DATA, "bigonal_tower.json"),
                     "--op", "trigonal", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("precondition violated [degree-3]: "
                                           "trigonal construction needs a degree-3 base map\n")
        assert not out.exists()
        assert str(PreconditionError("degree-3", "needs three")) == "degree-3: needs three"

    def test_classify_reads_the_degree_four_bottom_level(self, tmp_path, capsys):
        # a (2,4) tower, the input of --op tetragonal-split, is classified by
        # its quartic base map, and a non-generic one names its point
        generic, other = tmp_path / "generic.json", tmp_path / "other.json"
        for path, extra in ((generic, ["--generic"]), (other, [])):
            assert main(["random", "--seed", "3", "--n", "4", "--pi-free", *extra,
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["classify", str(generic)]) == 0
        quartic = load(generic).levels[0]
        assert capsys.readouterr().out.splitlines() == ["point\ttype (quartic cover: A-C)"] + [
            f"{p}\t{classify_tetragonal_point(quartic, p)}" for p in quartic.target.points()]
        assert main(["classify", str(other)]) == 1
        assert capsys.readouterr() == ("", "precondition violated [generic]: "
                                           "point ('v', 0) has dilation profile (4,)\n")

    def test_classify_rejects_other_towers_by_degree(self, capsys):
        assert main(["classify", os.path.join(DATA, "trigonal_tower.json")]) == 1
        assert capsys.readouterr() == ("", "precondition violated [degree]: classification "
                                           "needs a (2,2) tower or a degree-4 bottom level\n")

    def test_recillas_reads_the_degree_four_bottom_level(self, tmp_path, capsys):
        # a (2,4) tower is read by its quartic base map, as classify reads it:
        # the output is that of the quartic alone in a one-level file
        tower, quartic = tmp_path / "tower.json", tmp_path / "quartic.json"
        assert main(["random", "--seed", "5", "--n", "4", "--pi-free", "--generic",
                     "--out", str(tower)]) == 0
        loaded = load(tower)
        save(quartic, file_to_doc(loaded.base_metric, loaded.levels[:1]))
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, out in zip((tower, quartic), outs):
            assert main(["construct", str(path), "--op", "recillas", "--out", str(out)]) == 0
        assert outs[0].read_text() == outs[1].read_text()
        capsys.readouterr()
        assert main(["construct", os.path.join(DATA, "trigonal_tower.json"), "--op", "recillas",
                     "--out", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == ("precondition violated [degree-4]: "
                                           "Recillas construction needs a degree-4 cover\n")
        bare = tmp_path / "bare.json"
        save(bare, file_to_doc(loaded.base_metric, []))
        assert main(["construct", str(bare), "--op", "recillas",
                     "--out", str(tmp_path / "d.json")]) == 1
        assert capsys.readouterr().err == "error: file has no cover levels\n"

    def test_check_reports_the_preconditions_of_its_construction(self, tmp_path, capsys):
        # the checks leave degree, free cover and tree base to the construction
        assert main(["check", os.path.join(DATA, "bigonal_tower.json"),
                     "--theorem", "trigonal"]) == 1
        assert capsys.readouterr().err == ("precondition violated [degree-3]: "
                                           "trigonal construction needs a degree-3 base map\n")
        path = os.path.join(DATA, "trigonal_tower.json")
        assert main(["construct", path, "--op", "bigonal",
                     "--out", str(tmp_path / "out.json")]) == 1
        construct_err = capsys.readouterr().err
        assert construct_err.startswith("precondition violated [degree-2]: ")
        assert main(["check", path, "--theorem", "bigonal"]) == 1
        assert capsys.readouterr().err == construct_err

    def test_compare_refuses_different_base_lengths(self, tmp_path, capsys):
        # a longer base edge changes the top curve's Jacobian (17/2 against
        # 65/2 on the diagonal of its Gram), yet compare printed "isomorphic"
        path = os.path.join(DATA, "trigonal_tower.json")
        doc = _trigonal_doc()
        doc["base"]["lengths"]["0"] = "17"
        longer = tmp_path / "longer.json"
        longer.write_text(json.dumps(doc))
        loaded, loaded_longer = load(path), load(longer)
        one, one_longer = tmp_path / "one.json", tmp_path / "one_longer.json"
        save(one, file_to_doc(loaded.base_metric, loaded.levels[:1]))
        save(one_longer, file_to_doc(loaded_longer.base_metric, loaded_longer.levels[:1]))
        for first, second in ((path, longer), (one, one_longer)):
            assert main(["compare", str(first), str(second)]) == 1
            assert capsys.readouterr() == ("", "error: compare requires identical base lengths\n")
            assert main(["compare", str(second), str(second)]) == 0
            assert capsys.readouterr() == ("isomorphic\n", "")


def _trigonal_doc():
    with open(os.path.join(DATA, "trigonal_tower.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _without_level0_vmap_entry(doc):
    del doc["levels"][0]["vmap"]["3"]
    return doc


def _with_level0_vertex_degree_seven(doc):
    doc["levels"][0]["vertex_degree"]["0"] = 7
    return doc


class TestInputShapes:
    # a document part of the wrong JSON type is a format error naming the
    # part, not a TypeError traceback
    SHAPES = {
        "the document": lambda doc: [doc],
        "base": lambda doc: {"base": 5},
        "levels": lambda doc: dict(doc, levels=doc["levels"][0]),
        "level1": lambda doc: dict(doc, levels=[doc["levels"][0], 5]),
        "base lengths": lambda doc: dict(doc, base=dict(doc["base"], lengths=["1"])),
    }

    @pytest.mark.parametrize("part", sorted(SHAPES))
    @pytest.mark.parametrize("command", [["validate"], ["prym"], ["check", "--theorem", "trigonal"]],
                             ids=lambda c: c[0])
    def test_wrong_json_type_is_an_error(self, tmp_path, capsys, part, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.SHAPES[part](_trigonal_doc())))
        assert main([command[0], str(bad), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: tower file: {part} must be ")
        assert captured.out == ""


class TestInputCheckOnEveryReader:
    # every other reader prints the same issue report as validate and exits 1
    # on a broken cover level; construct writes no file
    EXTRA_ARGS = {
        "construct": lambda tmp: ["--op", "trigonal", "--out", str(tmp / "out.json")],
        "compare": lambda tmp: [os.path.join(DATA, "trigonal_tower.json")],
    }

    @pytest.mark.parametrize("mutate", [_without_level0_vmap_entry,
                                        _with_level0_vertex_degree_seven])
    @pytest.mark.parametrize("command", ["jacobian", "classify", "export-dot",
                                         "construct", "compare"])
    def test_broken_level_is_reported(self, tmp_path, capsys, mutate, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(_trigonal_doc())))
        assert main(["validate", str(bad)]) == 1
        report = capsys.readouterr().out
        assert report.startswith("level0: [")
        extra = self.EXTRA_ARGS.get(command, lambda tmp: [])(tmp_path)
        assert main([command, str(bad), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == report and captured.err == ""
        assert not (tmp_path / "out.json").exists()

    def test_recillas_rejects_a_broken_quartic(self, tmp_path, capsys):
        quartic, back = tmp_path / "q.json", tmp_path / "back.json"
        assert main(["construct", os.path.join(DATA, "trigonal_tower.json"),
                     "--op", "trigonal", "--out", str(quartic)]) == 0
        doc = json.loads(quartic.read_text())
        doc["base"]["lengths"][min(doc["base"]["lengths"])] = "0"
        quartic.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["construct", str(quartic), "--op", "recillas", "--out", str(back)]) == 1
        captured = capsys.readouterr()
        assert "[length-positive]" in captured.out and captured.err == ""
        assert not back.exists()


def _set(path, value):
    """Mutation setting doc[path[0]][path[1]]... to value."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def _del(path):
    """Mutation deleting doc[path[0]][path[1]]..."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc
    return mutate


class TestInnerTypes:
    # a graph or level entry of the wrong JSON type is a format error
    # under every command that reads a tower file, not a traceback
    MUTATIONS = {
        "base edges 5": (_set(("base", "edges"), 5), "graph edges must be a list"),
        "level0 vmap list": (_set(("levels", 0, "vmap"), [1, 2]), "level vmap must be an object"),
        "level0 degree string": (_set(("levels", 0, "vertex_degree"), {"0": "x"}),
                                 "level vertex_degree must hold integers"),
        "level0 degree bool": (_set(("levels", 0, "vertex_degree", "0"), True),
                               "level vertex_degree must hold integers"),
        "base edge not a pair": (_set(("base", "edges", 0), [0]), "graph edges must be [h, hbar] pairs"),
        "base vertex string": (_set(("base", "vertices", 0), "a"), "graph vertices must hold integers"),
        "level1 root key": (_set(("levels", 1, "root", "x"), 0), "level root keys must be integers"),
        "level0 half_edges 3": (_set(("levels", 0, "half_edges"), 3), "level half_edges must be a list"),
        "base root missing": (_del(("base", "root")), "graph root is missing"),
        "base vertices missing": (_del(("base", "vertices")), "graph vertices is missing"),
        "level0 vmap missing": (_del(("levels", 0, "vmap")), "level vmap is missing"),
        "base length key x": (_set(("base", "lengths"), {"x": "1"}),
                              "base lengths keys must be integers"),
    }
    COMMANDS = {
        "validate": lambda bad, tmp: ["validate", bad],
        "prym": lambda bad, tmp: ["prym", bad],
        "check": lambda bad, tmp: ["check", bad, "--theorem", "trigonal"],
        "construct": lambda bad, tmp: ["construct", bad, "--op", "trigonal",
                                       "--out", str(tmp / "out.json")],
        "compare": lambda bad, tmp: ["compare", bad, os.path.join(DATA, "trigonal_tower.json")],
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_wrong_inner_type_is_an_error(self, tmp_path, capsys, mutation, command):
        mutate, message = self.MUTATIONS[mutation]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(_trigonal_doc())))
        assert main(self.COMMANDS[command](str(bad), tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: tower file: {message}")
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists()


class TestRandomArguments:
    # out-of-range or unparsable generator arguments are usage errors (exit 2)
    # and write nothing
    BAD = {
        "length range 0,0": ["--length-range", "0,0"],
        "tree size 5": ["--tree-size", "5"],
        "tree size 5,2": ["--tree-size", "5,2"],
        "dilation x": ["--dilation", "x"],
        "pi free and dilated": ["--pi-free", "--pi-dilated"],
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_argument_is_a_usage_error(self, tmp_path, capsys, case):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_:
            main(["random", "--seed", "1", "--n", "2", "--out", str(out), *self.BAD[case]])
        assert exit_.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_rejection_budget_exceeded_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # a generator that gives up is reported on one `error:` line with
        # exit 1, not as a traceback, and writes nothing
        from tropcover import cli
        from tropcover.randgen import GenerationError

        def give_up(*args, **kw):
            raise GenerationError("generic", 600)
        monkeypatch.setattr(cli, "random_tower", give_up)
        out = tmp_path / "r.json"
        assert main(["random", "--seed", "0", "--n", "4", "--pi-free", "--generic",
                     "--tree-size", "8,20", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: rejection budget exceeded after 600 tries; "
                                "last failing constraint: generic\n")
        assert captured.out == ""
        assert not out.exists()


COMMANDS = ["validate", "construct", "classify", "jacobian", "prym", "check", "random",
            "export-dot", "compare"]
USAGE_ERRORS = [["prym"], ["prym", "a.json", "--zzz"],
                ["random", "--seed", "1", "--n", "5", "--out", "o.json"]]
# sha256 (first 16 hex digits) of stdout + NUL + stderr at COLUMNS=80, as
# the parser that registered every subcommand up front printed them
# (Python 3.11; argparse formats help differently across versions)
PINNED = {
    ("-h",): "8f6cc074ce22c611",
    ("validate", "-h"): "24630b0e99dcda1e",
    ("construct", "-h"): "0f31fd5296ff9b13",
    ("classify", "-h"): "2fd1d16598d08cee",
    ("jacobian", "-h"): "0111b1c2e8fc29e7",
    ("prym", "-h"): "1624c8044733eb9f",
    ("check", "-h"): "346f93f509aa8378",
    ("random", "-h"): "73e4c0f94ed90eaa",
    ("export-dot", "-h"): "0e23d688af0c4722",
    ("compare", "-h"): "1e6504d69ecb1e40",
    (): "d5148aceb6bb5218",
    ("bogus",): "dada51b905ca8a32",
    ("prym",): "4cbfb1f71c77a2d6",
    ("prym", "a", "--zzz"): "1fdde2ed77141aa7",
    ("random", "--seed", "1", "--n", "5", "--out", "o"): "ca1010eb4199ff6b",
}


def _exit_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    captured = capsys.readouterr()
    return exit_.value.code, captured.out + "\0" + captured.err


class TestOneCommandParser:
    # main registers only the subcommand argv[0] names; help, usage and
    # errors must read as the full parser prints them
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv", [[c, "-h"] for c in COMMANDS] + [["-h"], [], ["bogus"]]
                             + USAGE_ERRORS)
    def test_same_text_as_the_full_parser(self, capsys, argv):
        from tropcover.cli import build_parser
        code, text = _exit_text(capsys, main, argv)
        assert (code, text) == _exit_text(capsys, build_parser().parse_args, argv)
        assert code == (0 if "-h" in argv else 2)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse formats help differently across Python versions")
    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned_text(self, capsys, argv):
        code, text = _exit_text(capsys, main, list(argv))
        assert code == (0 if "-h" in argv else 2)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED[argv]

    def test_a_command_does_not_build_the_full_parser(self, capsys):
        from tropcover import cli
        cli.build_parser.cache_clear()
        assert main(["validate", os.path.join(DATA, "trigonal_tower.json")]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        assert cli.build_parser.cache_info().currsize == 0
        with pytest.raises(SystemExit):
            main(["validate"])
        assert cli.build_parser.cache_info().currsize == 1
