"""Seeded generation against the generation that validated every draw.

`randgen.random_tower` and `random_tetragonal_curve` test their rejection
flags on the unchecked maps of each draw and run the harmonicity checks
once, on what they return.  The replaced generators, which validated
every draw and numbered lifts through (point, sheet) dicts, are the
oracle in `tests/oracles.py`: every seed must give the same bytes, or the
same `GenerationError` constraint where the rejection budget runs out.
The public builders still check what they build, and the benchmark's
set-up writes the files it wrote before this change.
"""

import hashlib
import importlib.util
import os
import random
import sys
from fractions import Fraction

import pytest

from gallery import build_double_cover, harmonic_from_edges, random_tetragonal_curve
import oracles
from oracles import random_tetragonal_curve_checking_every_draw, random_tower_checking_every_draw
from tropcover import graphs, randgen
from tropcover.graphs import DoubleCover, Graph, GraphError
from tropcover.randgen import GenerationError, random_tower
from tropcover.towerio import dumps_canonical, file_to_doc, tower_to_doc

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))


def _outcome(generate, seed, **kw):
    """The canonical text of what a generator returns, or the constraint
    named by its `GenerationError`."""
    try:
        gen = generate(seed, **kw)
    except GenerationError as e:
        return ("budget", e.constraint)
    if hasattr(gen, "tower"):
        return dumps_canonical(tower_to_doc(gen.tower, gen.base_metric))
    return dumps_canonical(file_to_doc(gen.base_metric, [gen.cover]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_tower_writes_the_bytes_of_the_oracle(n):
    for seed in range(15):
        for pi_free in (True, False, None):
            for generic in (False, True):
                for connected in (True, False):
                    # generic degree-4 draws reject most trees past 6 vertices
                    # (ROADMAP item 4), so theirs stay small to keep the sweep short
                    big = 6 if generic and n == 4 else 9
                    kw = dict(n=n, pi_free=pi_free, generic=generic, connected=connected,
                              tree_size=(2, big))
                    assert _outcome(random_tower, seed, **kw) == \
                        _outcome(random_tower_checking_every_draw, seed, **kw), (seed, kw)


@pytest.mark.parametrize("seed, kw, constraint", [
    (0, dict(n=2, tree_size=(2, 2)), "top-connected"),
    (0, dict(n=3, tree_size=(2, 2), pi_free=False, dilation_probability=Fraction(0)),
     "pi-dilated"),
    (1, dict(n=2, tree_size=(5, 5), connected=False, generic=True,
             dilation_probability=Fraction(1)), "generic"),
], ids=["top-connected", "pi-dilated", "generic"])
def test_an_exhausted_budget_names_the_oracle_constraint(seed, kw, constraint, monkeypatch):
    # no top curve reads as connected: a draw of the first case passes every
    # other flag, and the others fail `pi-dilated` before the check or skip it
    monkeypatch.setattr(randgen, "is_connected", lambda g: False)
    monkeypatch.setattr(oracles, "is_connected", lambda g: False)
    assert _outcome(random_tower, seed, **kw) == \
        _outcome(random_tower_checking_every_draw, seed, **kw) == ("budget", constraint)


def test_random_tetragonal_curve_writes_the_bytes_of_the_oracle():
    for seed in range(15):
        assert _outcome(random_tetragonal_curve, seed) == \
            _outcome(random_tetragonal_curve_checking_every_draw, seed), seed
    # seed 4 over an 11-vertex tree exhausts the budget on non-generic draws
    assert _outcome(random_tetragonal_curve, 4, tree_size=(11, 11)) == \
        _outcome(random_tetragonal_curve_checking_every_draw, 4, tree_size=(11, 11)) == \
        ("budget", "generic")


def test_a_generated_tower_is_checked_once_and_a_rejected_draw_never(monkeypatch):
    scanned, made, rejected = [], [], []
    validate, from_harmonic = graphs.validate_harmonic, DoubleCover.from_harmonic.__func__
    generic = randgen.is_generic_bigonal
    monkeypatch.setattr(graphs, "validate_harmonic", lambda f: scanned.append(f) or validate(f))
    monkeypatch.setattr(DoubleCover, "from_harmonic",
                        classmethod(lambda cls, f: made.append(f) or from_harmonic(cls, f)))
    monkeypatch.setattr(randgen, "is_generic_bigonal",
                        lambda t: generic(t) or rejected.append(t) or False)
    for seed in range(8):
        scanned.clear()
        made.clear()
        gen = random_tower(seed, n=2, generic=True, pi_free=False, tree_size=(9, 9))
        # one scan of the mid map, then one of the cover that `from_harmonic` reads
        assert len(scanned) == 2 and len(made) == 1
        assert scanned[0] is gen.tower.f and scanned[1] is made[0]
        assert made[0].vmap is gen.tower.pi.vmap
    assert rejected, "no draw was rejected as non-generic"


def _spoiled(build):
    """build, with the degree of the first source vertex one too high."""
    def spoiled(*args):
        f = build(*args)
        f.vertex_degree[0] += 1
        return f
    return spoiled


def test_a_returned_tower_with_spoiled_maps_raises_their_graph_error(monkeypatch):
    monkeypatch.setattr(randgen, "_harmonic_from_edges", _spoiled(randgen._harmonic_from_edges))
    with pytest.raises(GraphError, match="edge spec is not harmonic"):
        random_tower(0, n=3)
    monkeypatch.undo()
    monkeypatch.setattr(randgen, "_double_cover_morphism", _spoiled(randgen._double_cover_morphism))
    for kw in (dict(n=3), dict(n=2, generic=True, pi_free=False, tree_size=(9, 9))):
        with pytest.raises(GraphError, match="double cover is not harmonic"):
            random_tower(0, **kw)


def test_a_double_cover_keeps_the_fiber_index_of_its_maps(monkeypatch):
    # `DoubleCover.from_harmonic` hands over the index of the morphism it reads
    indexed, preimages = [], graphs._preimages

    def spy(image, ids):
        ids = tuple(ids)
        indexed.append((id(image), ids))
        return preimages(image, ids)

    def assert_indexed_once(cover):
        for image, ids in ((cover.vmap, cover.source.vertices),
                           (cover.hmap, cover.source.half_edges)):
            assert indexed.count((id(image), ids)) == 1

    monkeypatch.setattr(graphs, "_preimages", spy)
    for seed in range(8):
        indexed.clear()
        gen = random_tower(seed, n=3, pi_free=False, tree_size=(2, 9))
        assert_indexed_once(gen.tower.pi)
        assert_indexed_once(gen.tower.f)
        indexed.clear()
        cover = DoubleCover.from_harmonic(randgen.random_double_cover_of(
            random.Random(seed), gen.tower.mid, Fraction(1, 2)))
        assert_indexed_once(cover)
        indexed.clear()
        assert_indexed_once(build_double_cover(gen.tower.mid, gen.tower.pi.dilated_vertices,
                                               gen.tower.pi.dilated_edge_keys))


def test_harmonic_from_edges_refuses_a_spec_that_is_not_harmonic():
    path, (k0, k1) = Graph.from_edges(3, [(0, 1), (1, 2)])
    vmap = {0: 0, 1: 1, 2: 2}
    assert harmonic_from_edges(3, [(0, 1, k0, 2), (1, 2, k1, 2)], path, vmap).deg_v(1) == 2
    # vertex 1 has degree 1 toward base vertex 0 and degree 2 toward base vertex 2
    with pytest.raises(GraphError, match="edge spec is not harmonic: .*local-harmonicity"):
        harmonic_from_edges(3, [(0, 1, k0, 1), (1, 2, k1, 2)], path, vmap)
    with pytest.raises(GraphError, match="edge 1 does not lie over target edge 0"):
        harmonic_from_edges(3, [(0, 1, k0, 1), (1, 2, k0, 1)], path, vmap)
    with pytest.raises(GraphError, match="vertex 2 is isolated"):
        harmonic_from_edges(3, [(0, 1, k0, 1)], path, vmap)


def test_build_double_cover_refuses_a_dilated_edge_with_a_free_end():
    path, (k0, k1) = Graph.from_edges(3, [(0, 1), (1, 2)])
    cover = build_double_cover(path, {1, 2}, {k1}, {0: 1})
    assert cover.dilated_edge_keys == {k1} and len(cover.source.vertices) == 4
    with pytest.raises(GraphError, match="dilated edge 2 has a free endpoint 2"):
        build_double_cover(path, {0, 1}, {k1})


# sha256 of the files that one pass of `workloads.generate(name, 1, dir, 1)`
# wrote before generation checked only what it returns
BENCHMARK_INPUTS = {
    "prym_ladder": {
        "p0-0-prym-free-8.json": "d9417abecff16f0681604ab102d97cdd0ca30966a70a9180e5a6bfb26092c7f0",
        "p0-1-prym-free-16.json": "25dae62ccb8249ad60f5bd88f2c552177b3de68e54d2f3f29e237fc0540519cb",
        "p0-2-prym-dilated-27.json":
            "e630dfa2ad6d18c03453bad93f61771cc7cb599042a8f54c4f25bdcdc68b5694",
    },
    "theorem_checks": {
        "p0-0-trigonal-free-7.json":
            "89bd8a80b1aa1af07d54033e987161d4636f64b61e6211685de0ac7e8b6e3dd9",
        "p0-1-bigonal-dilated-7.json":
            "c8ce11d1ad1641a1949b37d20968d93bd11b7824ca8bf5c96ffad90716fc5fd3",
        "p0-2-trigonal-free-8.json":
            "b80fc1296c7338c2bda7dee0235a9cc1f121dd505cf4f9646560764a94b8c594",
    },
    "construct_roundtrip": {
        "p0-0-roundtrip-free-50.json":
            "33da174f2f425ad902f2466dc7239617d22a9a9180fcc1555513c85e7035be9e",
        "p0-1-roundtrip-free-100.json":
            "efa7c0ce5901c2f3873f3601a78615e75795b7e4d593c99628791cc411318887",
        "p0-2-roundtrip-free-200.json":
            "0a8ebf9cbc13b8823f04a30c41400c519e8de2a5883721eb1c8cc3f18a2fda5d",
    },
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_INPUTS))
def test_benchmark_set_up_writes_the_recorded_towers(tmp_path, monkeypatch, workload):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    (items,) = workloads.generate(workload, 1, str(tmp_path), 1)
    written = {}
    for item in items:
        with open(item["tower"], "rb") as fh:
            written[os.path.basename(item["tower"])] = hashlib.sha256(fh.read()).hexdigest()
    assert written == BENCHMARK_INPUTS[workload]
