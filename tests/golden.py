"""Golden corpus: the digest of every output of a fixed set of CLI runs.

Each run is one in-process `tropcover` command, run in a scratch directory
on relative file names, so no output depends on where it ran.  The
inputs are the shipped `data/*.json`, seeded random towers, the files
the constructions write, and a few malformed files.  A run's digest is
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
from tropcover.randgen import random_tower  # noqa: E402
from tropcover.towerio import save, tower_to_doc  # noqa: E402

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
    return files


def _seed(name: str):
    """The seed in a seeded tower's file name, or None."""
    tail = name.removesuffix(".json").rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else None


def write_input(name: str, kind: str):
    """Write one input file into the current directory."""
    if kind in ("trigonal", "bigonal"):
        shutil.copy(os.path.join(DATA, name), name)
    elif kind == "malformed":
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(MALFORMED[name])
    else:
        seed = _seed(name)
        gen = random_tower(seed, **{**KINDS, **QUARTIC_KINDS}[kind])
        save(name, tower_to_doc(gen.tower, gen.base_metric, meta={"seed": seed}))


def commands(name: str, kind: str) -> list:
    """The argv of the runs on one input file, in order; a run may read a
    file an earlier run wrote.  Every tower gets `prym` and the `check` of
    its theorem; the shipped files and the first FULL seeds of each kind
    also get every other command, the constructions and their round trips,
    which keeps the corpus within a few seconds."""
    stem, seed = name.removesuffix(".json"), _seed(name)
    full = seed is None or seed < FULL
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
