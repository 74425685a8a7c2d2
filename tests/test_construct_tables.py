"""The table-driven constructions against the per-point ones they replaced.

`ngonal.ngonal_construct` reads multisections, degrees and sign swaps from
one table per fiber shape and the gluing from one table per kind of
transport, worked out by plus-count arithmetic on fiber positions;
`ngonal.recillas` reads the same tables on the multisections of plus
count 2 of a free fiber, which are the 2-element subsets of a fiber.  The
per-point versions are kept in `tests/oracles.py`.  Both must give equal
results, field by field, and the `construct` command must write the
files it wrote before the tables.  Each shape table, worked out by
plus-count arithmetic, is compared with the tuple model of multisections
it replaced on every fiber shape of total degree 1 to 6, and each of its
two self-checks is made to raise by a spoiled binomial or gluing.  The
transport tables are also compared, entry by entry, with the transport
they replaced, `induce_multisection` along a `Refinement`, on every kind
of transport between fibers of degree 2 to 4, and the plus-count-2 layer
and its transports with the four-slot classes and slot transports they
replaced, on every generic fiber profile and every degree-respecting
fiber map.
"""

import ast
import dataclasses
import hashlib
import inspect
import itertools
import os
import re
from math import comb

import pytest

from gallery import random_tetragonal_curve
from oracles import (Refinement, _carried_classes, _slot_classes, _transport_table,
                     multisections, ngonal_construct_per_point, recillas_per_point,
                     shape_table_by_tuples)
from tropcover import ngonal
from tropcover.cli import main
from tropcover.graphs import GraphError
from tropcover.ngonal import (FiberDatum, FiberPart, _glue_table, _pair_layer, _pair_transport,
                              _shape_table,
                              ngonal_construct, recillas, trigonal)
from tropcover.randgen import random_tower
from tropcover.towerio import save, tower_to_doc

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# (n, pi_free, generic): free and dilated double covers in every degree
KINDS = ((2, True, False), (2, False, False), (2, None, True), (3, True, False),
         (3, False, False), (4, True, True), (4, False, False))


def seeded_towers():
    for seed in range(16):
        for n, pi_free, generic in KINDS:
            yield n, random_tower(seed, n=n, pi_free=pi_free, generic=generic,
                                  tree_size=(2, 9)).tower


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def test_ngonal_construct_matches_the_per_point_construction():
    kinds = set()
    for n, tower in seeded_towers():
        assert_same_fields(ngonal_construct(tower, n), ngonal_construct_per_point(tower, n))
        kinds.add((n, tower.pi.is_free()))
    assert kinds == {(n, free) for n in (2, 3, 4) for free in (True, False)}


def test_recillas_matches_the_per_point_construction():
    profiles = set()
    for seed in range(40):
        curve = random_tetragonal_curve(seed, tree_size=(2, 9)).cover
        quartic = trigonal(random_tower(seed, n=3, pi_free=True, tree_size=(2, 9)).tower).quartic
        for cover in (curve, quartic):
            assert_same_fields(recillas(cover), recillas_per_point(cover))
            profiles.update(cover.fiber_profile(p) for p in cover.target.points())
    assert profiles == {(1, 1, 1, 1), (2, 1, 1), (3, 1)}


# every generic fiber profile of a degree-4 cover, in every order of its points
GENERIC_PROFILES = ((1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1), (1, 3))


def test_recillas_layer_matches_the_slot_classes_on_every_transport():
    for profile in GENERIC_PROFILES:
        _, _, pairs, degrees, complements = _pair_layer(profile)
        slots = _slot_classes(profile)
        assert (pairs, degrees, complements) == \
            (slots.keys, tuple(map(len, slots.members)), slots.complement), profile
    # every map of fiber positions whose degrees add up: onto the fiber over
    # the root vertex, and the bijections among them onto a partner fiber
    maps = bijections = 0
    for fine, coarse in itertools.product(GENERIC_PROFILES, GENERIC_PROFILES):
        for place in itertools.product(range(len(coarse)), repeat=len(fine)):
            sums = [0] * len(coarse)
            for j, k in enumerate(place):
                sums[k] += fine[j]
            if sums != list(coarse):
                continue
            carried = _carried_classes(_slot_classes(fine), _slot_classes(coarse), place)
            assert _pair_transport(_pair_layer(fine), _pair_layer(coarse), place) == carried, \
                (fine, coarse, place)
            maps += 1
            bijections += len(fine) == len(coarse)
    print(f"{maps} fiber maps carry the layer as the slots, {bijections} of them bijections")
    assert (maps, bijections) == (102, 46)


def test_tables_serve_many_points():
    # one N = 60 tower: far fewer table entries than points
    tower = random_tower(5, n=3, pi_free=True, tree_size=(60, 60)).tower
    cons = ngonal_construct(tower, 3)
    assert_same_fields(cons, ngonal_construct_per_point(tower, 3))
    assert len(cons.vertex_info) + len(cons.half_edge_info) > 1000


def construct_digests(workdir) -> dict:
    """sha256 of every file `construct` writes on data/ and on a seeded
    degree-4 tower, by file name."""
    workdir = str(workdir)
    tetragonal = os.path.join(workdir, "tetragonal.json")
    gen = random_tower(3, n=4, pi_free=True, generic=True, tree_size=(4, 8))
    save(tetragonal, tower_to_doc(gen.tower, gen.base_metric, meta={"seed": 3}))
    quartic = os.path.join(workdir, "trigonal.json")
    runs = {"bigonal": (os.path.join(DATA, "bigonal_tower.json"), ["--op", "bigonal"]),
            "ngonal-2": (os.path.join(DATA, "bigonal_tower.json"), ["--op", "ngonal", "--n", "2"]),
            "trigonal": (os.path.join(DATA, "trigonal_tower.json"), ["--op", "trigonal"]),
            "ngonal-3": (os.path.join(DATA, "trigonal_tower.json"), ["--op", "ngonal", "--n", "3"]),
            "recillas": (quartic, ["--op", "recillas"]),
            "ngonal-4": (tetragonal, ["--op", "ngonal", "--n", "4"]),
            "split": (tetragonal, ["--op", "tetragonal-split"])}
    digests = {}
    for name, (path, op) in runs.items():
        out = os.path.join(workdir, name + ".json")
        assert main(["construct", path, *op, "--out", out]) == 0
        written = [os.path.join(workdir, f"split.{i}.json") for i in (1, 2)] \
            if name == "split" else [out]
        for file in written:
            with open(file, "rb") as fh:
                digests[os.path.basename(file)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# recorded with the per-point constructions, before the tables
CONSTRUCT_SHA256 = {
    "bigonal.json": "a95634f5005a503db2e1724fe595602bd6d5ca17fcc69384e62ae9d9cd4c9f85",
    "ngonal-2.json": "d9720c1847f95a14debb9252246e424afae0434907e034dbfd5c357b6ca1cb90",
    "trigonal.json": "d4832718ad327f2d3d2c6c72b7f9d90510d61a600c0544c2bd0947754729ead0",
    "ngonal-3.json": "a6c64e9b518d44ddf12c8f815ebaecfa51e1a430b1f62dd3166f585870e56a5e",
    "recillas.json": "e6e18436366b2803c4a372661519aaefac9d626b96ec7f76a80fea0568715a22",
    "ngonal-4.json": "dda3121acedded7f4dbd7a7c5d938b38862b974348fc3e3aaa3d04bc138a55a1",
    "split.1.json": "ba8d2908cf789fcf473b1e0a1cccb50ada190128982dceaff6b2fa159c7ee561",
    "split.2.json": "9573f9dcb2cc5a6384dade1c25bb5fbe1deab8a239fc3777f594a1d06d0b2143",
}


def test_construct_writes_the_same_files(tmp_path):
    assert construct_digests(tmp_path) == CONSTRUCT_SHA256


def fiber_shapes(total):
    """Every fiber shape of the given total degree: ordered (degree, dilated)
    parts."""
    if total == 0:
        yield ()
        return
    for degree in range(1, total + 1):
        for dilated in (False, True):
            for rest in fiber_shapes(total - degree):
                yield ((degree, dilated),) + rest


def refusal_of(build, *args):
    """The message of the GraphError that build(*args) raises, or None."""
    try:
        build(*args)
    except GraphError as exc:
        return str(exc)
    return None


def test_glue_table_matches_induce_multisection_on_every_transport():
    # every fine and coarse shape of total degree 2-4, every place map and,
    # on the maps a refinement allows, every flip of a free part into a free
    # one; the oracle numbers `induce_multisection` of every fine
    # multisection by its position in `multisections` of the coarse fiber
    keys = refused = 0
    for total in (2, 3, 4):
        shapes = list(fiber_shapes(total))
        for fine_shape, coarse_shape in itertools.product(shapes, shapes):
            fine = FiberDatum(tuple(FiberPart(j, d, dil) for j, (d, dil) in enumerate(fine_shape)))
            coarse = FiberDatum(tuple(FiberPart(10 + k, d, dil)
                                      for k, (d, dil) in enumerate(coarse_shape)))
            for place in itertools.product(range(len(coarse.parts)), repeat=len(fine.parts)):
                part_map = {p.part_id: 10 + k for p, k in zip(fine.parts, place)}
                refusal = refusal_of(Refinement, fine, coarse, part_map, {})
                assert refusal_of(_glue_table, fine, coarse, place, (False,) * len(place)) == \
                    refusal, (fine_shape, coarse_shape, place)
                if refusal is not None:
                    refused += 1
                    continue
                free = [not p.dilated and not coarse.parts[k].dilated
                        for p, k in zip(fine.parts, place)]
                for flips in itertools.product(*[(False, True) if f else (False,) for f in free]):
                    r = Refinement(fine, coarse, part_map,
                                   {p.part_id: flip for p, flip in zip(fine.parts, flips)})
                    assert _glue_table(fine, coarse, place, flips) == _transport_table({}, r), \
                        (fine_shape, coarse_shape, place, flips)
                    keys += 1
    print(f"{keys} transport tables equal to the oracle's, {refused} place maps refused alike")
    assert (keys, refused) == (14300, 146954)


def test_shape_table_matches_the_tuple_model_on_every_shape():
    # every fiber shape of total degree 1-6 with every dilation pattern, on
    # part ids that are not consecutive: the splits, degrees and sign swap
    # worked out by plus-count arithmetic equal those of the tuple model, and
    # the products of the splits list its multisections in order
    shapes = 0
    for total in range(1, 7):
        for shape in fiber_shapes(total):
            fd = FiberDatum(tuple(FiberPart(3 * j + 5, d, dil) for j, (d, dil) in enumerate(shape)))
            table = _shape_table(fd)
            assert (table.splits, table.degree, table.swap) == shape_table_by_tuples(fd), shape
            assert table.multisections(fd) == list(multisections(fd)), shape
            shapes += 1
    assert shapes == 728


def _spoil_degrees(monkeypatch):
    # one way too many to split a free part
    monkeypatch.setattr(ngonal, "comb", lambda d, a: comb(d, a) + 1)


def _spoil_swap(monkeypatch):
    # every multisection swaps onto the first
    glue = ngonal._glue_table
    monkeypatch.setattr(ngonal, "_glue_table", lambda *args: (0,) * len(glue(*args)))


# self-check message -> the spoiling that makes it raise: one row per
# `raise AssertionError` of `_shape_table`
SHAPE_TABLE_CHECKS = {
    "the degrees of a fiber shape do not sum to 2^(total degree)": _spoil_degrees,
    "the sign swap of a fiber shape is not an involution": _spoil_swap,
}


def test_every_shape_table_check_has_a_spoiling():
    tree = ast.parse(inspect.getsource(_shape_table))
    messages = {node.exc.args[0].value for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "AssertionError"}
    assert messages == set(SHAPE_TABLE_CHECKS)


@pytest.mark.parametrize("message", SHAPE_TABLE_CHECKS)
def test_a_spoiled_shape_table_raises_its_check(monkeypatch, message):
    tower = random_tower(1, n=3, pi_free=True, tree_size=(2, 5)).tower
    SHAPE_TABLE_CHECKS[message](monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(message)):
        ngonal_construct(tower, 3)
