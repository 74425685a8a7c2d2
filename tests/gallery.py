"""Reference towers used throughout the tests and shipped data files.

Two families, each over a path base with symbolic rational edge lengths:

* a connected hyperelliptic-cover tower (degree 2 over 2) whose two
  norm-kernel pairing tables are exact transposes of each other, and

* a free cover of a trigonal graph (degree 2 over 3) whose norm-kernel
  pairing table matches the Jacobian of the constructed quartic curve.

Both come with explicit homology cycles in which those tables take
their closed forms, so the exact matrices can be asserted entry by
entry.  `tower_metrics` induces the mid and top metrics of any tower
from its base metric.

The builders only tests call live here too, around the package's private
builders and their checks: a double cover with prescribed dilation and
monodromy, a harmonic morphism from an edge list, the identity morphism,
and seeded random generic quartic covers, drawn by the package's random
trees and maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from tropcover import randgen
from tropcover.graphs import (DoubleCover, Graph, HarmonicMorphism, Tower, _check_edge_spec,
                              _double_cover_morphism, _harmonic_from_edges, is_connected)
from tropcover.metrics import MetricGraph, induce_metric


def build_double_cover(g: Graph, dilated_vertices=(), dilated_edge_keys=(),
                       bits=None) -> DoubleCover:
    """Double cover of g with prescribed dilation and monodromy.

    Free points get two sheet-labeled preimages; a half-edge h of a free
    edge attaches its sheet-s lift to sheet s xor bits[h] of its root
    (bits default 0).  Dilated edges must end at dilated vertices.  Sheet
    0 is numbered before sheet 1, so a fiber lists the lifts in sheet
    order: the sheet-s lift of h is `fiber_half_edges(h)[s]`.
    """
    return DoubleCover.from_harmonic(_double_cover_morphism(g, dilated_vertices,
                                                            dilated_edge_keys, bits or {}))


def harmonic_from_edges(n_vertices, edge_spec, target: Graph, vmap: dict) -> HarmonicMorphism:
    """Harmonic morphism from an edge list (tail, head, target_edge_key, degree).

    Half-edges 2i, 2i+1 of edge i map onto the target halves matching the
    vertex map; vertex degrees are derived from local harmonicity.
    """
    return _check_edge_spec(_harmonic_from_edges(n_vertices, edge_spec, target, vmap))


def identity_harmonic(g: Graph) -> HarmonicMorphism:
    return HarmonicMorphism(g, g, {v: v for v in g.vertices}, {h: h for h in g.half_edges},
                            {v: 1 for v in g.vertices}, {h: 1 for h in g.half_edges})


@dataclass(frozen=True)
class GeneratedCover:
    cover: HarmonicMorphism
    base_metric: MetricGraph


def random_tetragonal_curve(seed: int, *, tree_size=(2, 5)) -> GeneratedCover:
    """Seeded random generic degree-4 harmonic cover of a random metric
    tree, with a connected covering curve."""
    rng = random.Random(seed)
    failing = "none"
    for attempt in range(randgen._TRIES):
        base, keys = randgen.random_tree(rng, rng.randint(*tree_size))
        metric = MetricGraph(base, randgen.random_lengths(rng, keys))
        f = randgen.random_harmonic_map(rng, base, 4)
        if not randgen.is_generic_tetragonal(f):
            failing = "generic"
            continue
        if not is_connected(f.source):
            failing = "connected"
            continue
        return GeneratedCover(_check_edge_spec(f), metric)
    raise randgen.GenerationError(failing, randgen._TRIES)


@dataclass(frozen=True)
class ReferenceTower:
    tower: Tower
    base_metric: MetricGraph
    kernel_cycles: tuple  # basis of ker(pushforward), as edge-key chains upstairs
    class_reps: tuple     # representatives of the coker basis downstairs-quotient


def tower_metrics(tower: Tower, base_metric: MetricGraph):
    """(mid metric, top metric) induced from the base through the tower."""
    mid = induce_metric(tower.f, base_metric)
    return mid, induce_metric(tower.pi, mid)


def _path_base(lengths):
    n = len(lengths) + 1
    graph, keys = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    metric = MetricGraph(graph, {k: Fraction(x) for k, x in zip(keys, lengths)})
    return graph, keys, metric


def _sheet_lifts(pi: DoubleCover):
    """lk(i, s): the edge key of the sheet-s lift of edge i (half-edges 2i
    and 2i + 1) under a cover from `build_double_cover`, whose fibers list
    the lifts in sheet order."""
    return lambda i, s: pi.source.edge_key(pi.fiber_half_edges(2 * i)[s])


def trigonal_reference(lengths=(1, 1, 1, 1, 1)) -> ReferenceTower:
    """Free double cover of a trigonal graph over a 5-edge path.

    The trigonal graph has one degree-3 vertex over each end of the
    path and a degree-2/degree-1 vertex pair over each interior vertex,
    with parallel free edges over the second and fourth path edges; the
    double cover swaps sheets exactly over one parallel edge of each
    parallel pair.
    """
    base, keys, metric = _path_base(lengths)
    a, b, c, d, e = keys
    # vertices: 0 and 9 have degree 3; 1-4 (degree 2) and 5-8 (degree 1)
    # sit over path vertices 1-4.
    edge_spec = [
        (0, 1, a, 2),  # 0
        (0, 5, a, 1),  # 1
        (1, 2, b, 1),  # 2  sheet-swapping lift below
        (1, 2, b, 1),  # 3
        (5, 6, b, 1),  # 4
        (2, 3, c, 2),  # 5
        (6, 7, c, 1),  # 6
        (3, 4, d, 1),  # 7  sheet-swapping lift below
        (3, 4, d, 1),  # 8
        (7, 8, d, 1),  # 9
        (4, 9, e, 2),  # 10
        (8, 9, e, 1),  # 11
    ]
    vmap = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5}
    f = harmonic_from_edges(10, edge_spec, base, vmap)
    tower = Tower(build_double_cover(f.source, bits={5: 1, 15: 1}), f)
    lk = _sheet_lifts(tower.pi)

    eta1 = {
        0: {lk(2, 0): 1, lk(5, 1): 1, lk(7, 1): 1, lk(8, 0): -1, lk(5, 0): -1, lk(3, 0): -1},
        1: {lk(2, 1): 1, lk(5, 0): 1, lk(7, 0): 1, lk(8, 1): -1, lk(5, 1): -1, lk(3, 1): -1},
    }
    eta2 = {}
    for s in (0, 1):
        eta2[s] = {lk(0, s): 1, lk(3, s): 1, lk(5, s): 1, lk(8, s): 1, lk(10, s): 1,
                   lk(11, s): -1, lk(9, s): -1, lk(6, s): -1, lk(4, s): -1, lk(1, s): -1}
    kernel = (_diff(eta1[0], eta1[1]), _diff(eta2[1], eta2[0]))
    reps = (eta1[0], eta2[1])
    return ReferenceTower(tower, metric, kernel, reps)


def trigonal_expected_table(lengths=(1, 1, 1, 1, 1)) -> tuple:
    a, b, c, d, e = (Fraction(x) for x in lengths)
    return ((2 * (b + c + d), b + c + d),
            (b + c + d, Fraction(3, 2) * a + 2 * b + Fraction(3, 2) * c
             + 2 * d + Fraction(3, 2) * e))


def bigonal_reference(lengths=(1, 2, 3)) -> ReferenceTower:
    """Connected tower over a 3-edge path: hyperelliptic graph with dilated
    end vertices and a free parallel pair in the middle; the double cover
    dilates exactly the two preimages of the path's endpoints."""
    base, keys, metric = _path_base(lengths)
    a, b, c = keys
    edge_spec = [
        (0, 1, a, 2),  # 0
        (1, 2, b, 1),  # 1
        (1, 2, b, 1),  # 2
        (2, 3, c, 2),  # 3
    ]
    f = harmonic_from_edges(4, edge_spec, base, {0: 0, 1: 1, 2: 2, 3: 3})
    tower = Tower(build_double_cover(f.source, dilated_vertices={0, 3}), f)
    lk = _sheet_lifts(tower.pi)

    eta1 = {s: {lk(2, s): 1, lk(1, s): -1} for s in (0, 1)}
    eta2 = {lk(0, 0): -1, lk(0, 1): 1, lk(1, 1): 1, lk(3, 1): 1, lk(3, 0): -1, lk(1, 0): -1}
    kernel = (_diff(eta1[0], eta1[1]), eta2)
    reps = (eta1[0], eta2)
    return ReferenceTower(tower, metric, kernel, reps)


def bigonal_output_reference(lengths=(1, 2, 3)) -> ReferenceTower:
    """The reconstruction of bigonal_reference, built by hand: a hexagon
    with one dilated vertex over each interior path vertex and dilated
    edges over the extremal ones."""
    base, keys, metric = _path_base(lengths)
    a, b, c = keys
    # vertices: 0, 5 of degree 2 over the path ends; 1, 3 (free side) and
    # 2, 4 (dilated side) over the interior vertices.
    edge_spec = [
        (0, 1, a, 1),  # 0  free side
        (0, 2, a, 1),  # 1  dilated lift below
        (1, 3, b, 1),  # 2
        (2, 4, b, 1),  # 3  free parallel pair upstairs
        (3, 5, c, 1),  # 4
        (4, 5, c, 1),  # 5  dilated lift below
    ]
    f = harmonic_from_edges(6, edge_spec, base, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3})
    tower = Tower(build_double_cover(f.source, dilated_vertices={0, 2, 4, 5},
                                     dilated_edge_keys={2, 10}), f)
    lk = _sheet_lifts(tower.pi)

    eps1 = _diff({lk(3, 1): 1}, {lk(3, 0): 1})
    eps2 = {}
    for s in (0, 1):
        eps2[s] = {lk(1, 0): -1, lk(0, s): 1, lk(2, s): 1, lk(4, s): 1,
                   lk(5, 0): -1, lk(3, s): -1}
    kernel = (eps1, _diff(eps2[0], eps2[1]))
    reps = (eps1, eps2[0])
    return ReferenceTower(tower, metric, kernel, reps)


def bigonal_expected_tables(lengths=(1, 2, 3)) -> tuple:
    """(input table, output table); they are transposes of each other."""
    a, b, c = (Fraction(x) for x in lengths)
    table_in = ((2 * b, b), (2 * b, a + 2 * b + c))
    table_out = ((2 * b, 2 * b), (b, a + 2 * b + c))
    return table_in, table_out


def _diff(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) - c
    return {k: v for k, v in sorted(out.items()) if v}
