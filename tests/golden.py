"""Golden corpus: the digest of every output of a fixed set of CLI runs.

Each run is one in-process `tropcover` command, run in a scratch directory
on relative file names, so no output depends on where it ran.  The
inputs are the shipped `data/*.json`, seeded random towers, the files
the constructions write, a few malformed files, and edited copies that
reach what the others do not: infinite lengths, spoiled levels,
single-level files and isolated vertices.  A run's digest is
the sha256 of its exit code, stdout and stderr; each file it writes gets
a digest of its own bytes, under "<run> > <file name>".

    python tests/golden.py --record      rewrite golden.json from this tree
    python tests/golden.py --slice       print the digests of SLICE as JSON

`tests/test_golden.py` compares the runs with the committed table and
names every key that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from tropcover.cli import main  # noqa: E402
from tropcover.graphs import Graph, HarmonicMorphism  # noqa: E402
from tropcover.metrics import MetricGraph  # noqa: E402
from tropcover.ngonal import trigonal  # noqa: E402
from tropcover.randgen import random_tower  # noqa: E402
from tropcover.towerio import doc_to_file, file_to_doc, save, tower_to_doc  # noqa: E402

DATA = os.path.join(HERE, os.pardir, "data")
TABLE = os.path.join(HERE, "golden.json")

SEEDS = range(40)
FULL = 10  # seeds below this run every command; see `commands`
# file stem -> random_tower keywords; every seed of each kind is a file
KINDS = {
    "free3": dict(n=3, pi_free=True, tree_size=(5, 13)),
    "gendil2": dict(n=2, generic=True, pi_free=False, tree_size=(5, 13)),
    "any2": dict(n=2, tree_size=(5, 13)),
}
QUARTIC_SEEDS = range(6)
QUARTIC_KINDS = {
    "gen4": dict(n=4, generic=True, pi_free=True, tree_size=(5, 9)),
    "any4": dict(n=4, tree_size=(5, 9)),
}

# name -> text of a file the loader must refuse, or that is not a tower file
MALFORMED = {
    "not-json.json": "{",
    "no-base.json": json.dumps({"format": "tropcover-tower", "levels": []}),
    "wrong-type.json": json.dumps({"base": [], "levels": {}}),
}



def _base_length(key: int, text: str):
    """Edit setting the length of base edge `key`."""
    def edit(doc):
        doc["base"]["lengths"][str(key)] = text
    return edit


def _vertex_degree(level: int, vertex: int, degree: int):
    """Edit setting the degree of one vertex of a level."""
    def edit(doc):
        doc["levels"][level]["vertex_degree"][str(vertex)] = degree
    return edit


def _double_top_degrees(doc):
    """Every local degree of the top level doubled: still harmonic, of
    global degree 4."""
    top = doc["levels"][-1]
    for name in ("vertex_degree", "half_edge_degree"):
        top[name] = {k: 2 * d for k, d in top[name].items()}


def _relabel_top(doc):
    """The top level's vertex ids and half-edge ids each renumbered in
    reverse order."""
    top = doc["levels"][-1]
    new_v = dict(zip(top["vertices"], reversed(top["vertices"])))
    new_h = dict(zip(top["half_edges"], reversed(top["half_edges"])))
    for name, ids, values in (("root", new_h, new_v), ("partner", new_h, new_h),
                              ("vmap", new_v, None), ("hmap", new_h, None),
                              ("vertex_degree", new_v, None), ("half_edge_degree", new_h, None)):
        top[name] = {str(ids[int(k)]): x if values is None else values[x]
                     for k, x in top[name].items()}


def _quartic() -> dict:
    """The file `construct trigonal_tower.json --op trigonal` writes."""
    loaded = doc_to_file(document("trigonal_tower.json"))
    return file_to_doc(loaded.base_metric, [trigonal(loaded.tower()).quartic],
                       meta={"construction": "trigonal"})


def _point() -> dict:
    """A tower over a one-vertex base: two isolated mid vertices of degrees
    1 and 2, a free pair of top vertices over the first and a dilated one
    over the second."""
    base, mid, top = Graph((0,), {}, {}), Graph((0, 1), {}, {}), Graph((0, 1, 2), {}, {})
    f = HarmonicMorphism(mid, base, {0: 0, 1: 0}, {}, {0: 1, 1: 2}, {})
    pi = HarmonicMorphism(top, mid, {0: 0, 1: 0, 2: 1}, {}, {0: 1, 1: 1, 2: 2}, {})
    return file_to_doc(MetricGraph(base, {}), [f, pi])


def _edited(source: str, *edits):
    """Maker of the document of input `source` after each edit in turn."""
    def make():
        doc = document(source)
        for edit in edits:
            edit(doc)
        return doc
    return make


# name -> (maker of its document, the argv of its runs)
EDITED = {
    # an infinite leaf edge whose lifts are legs at both levels
    "inf-leg.json": (_edited("free3-03.json", _base_length(8, "inf")), (
        ("validate", "inf-leg.json"), ("prym", "inf-leg.json"),
        ("check", "inf-leg.json", "--theorem", "trigonal"), ("export-dot", "inf-leg.json"),
        ("construct", "inf-leg.json", "--op", "trigonal", "--out", "inf-leg.q.json"),
        ("validate", "inf-leg.q.json"),
        ("construct", "inf-leg.q.json", "--op", "recillas", "--out", "inf-leg.r.json"),
        ("compare", "inf-leg.json", "inf-leg.json"),
        ("compare", "inf-leg.json", "inf-leg.r.json"))),
    # an infinite leaf edge whose lifts are not all legs: the levels' leg rule
    "inf-lifted.json": (_edited("trigonal_tower.json", _base_length(0, "inf")),
                        (("validate", "inf-lifted.json"),)),
    "inf-inner.json": (_edited("trigonal_tower.json", _base_length(4, "inf")),
                       (("validate", "inf-inner.json"),)),
    "unbalanced.json": (_edited("trigonal_tower.json", _vertex_degree(0, 0, 2)),
                        (("validate", "unbalanced.json"),)),
    "not-double.json": (_edited("trigonal_tower.json", _double_top_degrees),
                        (("validate", "not-double.json"),)),
    # single-level files
    "quartic.json": (_quartic, (("compare", "quartic.json", "quartic.json"),)),
    "quartic-relabelled.json": (_edited("quartic.json", _relabel_top), (
        ("validate", "quartic-relabelled.json"),
        ("compare", "quartic.json", "quartic-relabelled.json"))),
    # isolated vertices over a one-vertex base
    "point.json": (_point, (("validate", "point.json"), ("compare", "point.json", "point.json"),
                            ("prym", "point.json"))),
    "point-relabelled.json": (_edited("point.json", _relabel_top), (
        ("validate", "point-relabelled.json"),
        ("compare", "point.json", "point-relabelled.json"))),
}

# the argv of the runs, besides the per-file ones: usage errors exit 2
USAGE = (
    (),
    ("nonsense",),
    ("prym",),
    ("check", "trigonal_tower.json"),
    ("construct", "trigonal_tower.json", "--op", "sideways"),
    ("random", "--seed", "1", "--n", "5", "--out", "r.json"),
    ("random", "--seed", "1", "--n", "2", "--tree-size", "1,3", "--out", "r.json"),
    ("random", "--seed", "1", "--n", "2", "--dilation", "3/2", "--out", "r.json"),
    ("random", "--seed", "1", "--n", "2", "--pi-free", "--pi-dilated", "--out", "r.json"),
)
RANDOM = (
    ("--seed", "3", "--n", "2"),
    ("--seed", "4", "--n", "3", "--pi-free"),
    ("--seed", "5", "--n", "2", "--pi-dilated", "--generic", "--tree-size", "4,8"),
    ("--seed", "6", "--n", "4", "--generic", "--dilation", "1/2"),
    ("--seed", "7", "--n", "3", "--length-range", "2,9", "--allow-disconnected"),
    ("--seed", "8", "--n", "2", "--tree-size", "2,2", "--pi-dilated", "--generic"),
)

# the towers the hash-seed test reruns in a fresh interpreter
SLICE = ("trigonal_tower.json", "bigonal_tower.json", "free3-00.json", "gendil2-01.json",
         "any2-02.json", "gen4-00.json")


def inputs() -> dict:
    """{file name: kind} of every input file, in run order."""
    files = {name: name.split("_")[0] for name in sorted(os.listdir(DATA))}  # trigonal, bigonal
    for kinds, seeds in ((KINDS, SEEDS), (QUARTIC_KINDS, QUARTIC_SEEDS)):
        files.update((f"{stem}-{seed:02d}.json", stem) for stem in kinds for seed in seeds)
    files.update(dict.fromkeys(MALFORMED, "malformed"))
    files.update(dict.fromkeys(EDITED, "edited"))
    return files


def _seed(name: str):
    """The seed in a seeded tower's file name, or None."""
    tail = name.removesuffix(".json").rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else None


def document(name: str) -> dict:
    """The JSON document of a tower input, as its file holds it."""
    kind = inputs()[name]
    if kind in ("trigonal", "bigonal"):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            return json.load(fh)
    if kind == "edited":
        doc = EDITED[name][0]()
    else:
        seed = _seed(name)
        gen = random_tower(seed, **{**KINDS, **QUARTIC_KINDS}[kind])
        doc = tower_to_doc(gen.tower, gen.base_metric, meta={"seed": seed})
    return json.loads(json.dumps(doc))


def write_input(name: str, kind: str):
    """Write one input file into the current directory."""
    if kind in ("trigonal", "bigonal"):
        shutil.copy(os.path.join(DATA, name), name)
    elif kind == "malformed":
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(MALFORMED[name])
    else:
        save(name, document(name))


def commands(name: str, kind: str) -> list:
    """The argv of the runs on one input file, in order; a run may read a
    file an earlier run wrote.  Every tower gets `prym` and the `check` of
    its theorem; the shipped files and the first FULL seeds of each kind
    also get every other command, the constructions and their round trips,
    which keeps the corpus within a few seconds."""
    stem, seed = name.removesuffix(".json"), _seed(name)
    full = seed is None or seed < FULL
    if kind == "edited":
        return list(EDITED[name][1])
    if kind == "malformed":
        return [("validate", name), ("prym", name), ("classify", name),
                ("check", name, "--theorem", "bigonal"), ("compare", name, name)]
    if kind in ("gen4", "any4"):
        # degree-4 towers: the quartic bottom level and its constructions
        split = f"{stem}.s.json"
        return [("classify", name), ("prym", name), ("validate", name),
                ("construct", name, "--op", "tetragonal-split", "--out", split),
                ("construct", name, "--op", "recillas", "--out", f"{stem}.r.json"),
                ("construct", name, "--op", "ngonal", "--n", "4", "--out", f"{stem}.n4.json"),
                ("compare", f"{stem}.s.1.json", f"{stem}.s.2.json")]
    theorem = "trigonal" if kind in ("trigonal", "free3") else "bigonal"
    runs = [("prym", name), ("check", name, "--theorem", theorem)]
    if not full:
        return runs
    runs += [("jacobian", name), ("classify", name), ("validate", name),
             ("export-dot", name), ("compare", name, name)]
    if theorem == "trigonal":
        quartic, back = f"{stem}.q.json", f"{stem}.r.json"
        return runs + [
            ("construct", name, "--op", "trigonal", "--out", quartic),
            ("construct", name, "--op", "ngonal", "--n", "3", "--out", f"{stem}.n3.json"),
            ("validate", quartic), ("classify", quartic), ("jacobian", quartic),
            ("export-dot", quartic, "--out", f"{stem}.q.dot"),
            ("construct", quartic, "--op", "recillas", "--out", back),
            ("compare", name, back), ("prym", back)]
    once, twice = f"{stem}.b.json", f"{stem}.bb.json"
    return runs + [
        ("construct", name, "--op", "bigonal", "--out", once),
        ("construct", name, "--op", "ngonal", "--n", "2", "--out", f"{stem}.n2.json"),
        ("construct", once, "--op", "bigonal", "--out", twice),
        ("compare", name, twice), ("prym", once)]


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process command; an exception
    that escapes `main` is recorded in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - pinned as output
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(names=None) -> dict:
    """{key: sha256} of every run on the inputs in `names` (all: None), and
    of the files they write, run in a fresh scratch directory."""
    cwd = os.getcwd()
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            runs = []
            for name, kind in inputs().items():
                if names is None or name in names:
                    write_input(name, kind)
                    runs += commands(name, kind)
            if names is None:
                runs += list(USAGE)
                runs += [("random", *args, "--out", f"random-{i}.json")
                         for i, args in enumerate(RANDOM)]
            seen = set(os.listdir(workdir))
            for argv in runs:
                key = " ".join(argv) or "(no arguments)"
                code, out, err = run(argv)
                table[key] = _sha(f"{code}\n{out}\0{err}".encode())
                now = set(os.listdir(workdir))
                for written in sorted(now - seen):
                    with open(written, "rb") as fh:
                        table[f"{key} > {written}"] = _sha(fh.read())
                seen = now
        finally:
            os.chdir(cwd)
    return table


def load_table() -> dict:
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def changed_keys(expected: dict, actual: dict) -> list:
    """The keys whose digests differ, or that only one table has, sorted."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        table = digests()
        with open(TABLE, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(table)} digests in {TABLE}")
    elif sys.argv[1:] == ["--slice"]:
        print(json.dumps(digests(SLICE), sort_keys=True))
    else:
        sys.exit("usage: python tests/golden.py --record | --slice")
