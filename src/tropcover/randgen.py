"""Seeded random towers and covers for the verification suites.

A single deterministic PRNG drives everything; iteration orders are
id-sorted, so a seed fully determines the output on any platform.
Generation is by rejection: sample, check the flags, validate what is
returned, retry up to a budget.  A rejected draw costs its draws only:
the flags read the unchecked maps, and the harmonicity scans run once,
on the tower or cover returned.  `ngonal` loads on the first generic
draw only: the other draws never read a fiber profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .graphs import (DoubleCover, Graph, GraphError, HarmonicMorphism, Tower,
                     _check_edge_spec, _double_cover_morphism, _harmonic_from_edges,
                     is_connected)
from .metrics import MetricGraph


class GenerationError(RuntimeError):
    def __init__(self, constraint, tries):
        super().__init__(f"rejection budget exceeded after {tries} tries; last failing constraint: {constraint}")
        self.constraint = constraint


_TRIES = 600  # rejection budget per call


def is_generic_bigonal(tower) -> bool:
    from . import ngonal
    return ngonal.is_generic_bigonal(tower)


def is_generic_tetragonal(f) -> bool:
    from . import ngonal
    return ngonal.is_generic_tetragonal(f)


@cache
def _partitions(n: int) -> tuple:
    """The partitions of n, largest parts first, in lexicographically
    decreasing order; built once per n."""
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return tuple(out)


def random_tree(rng: random.Random, n_vertices: int):
    edges = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    return Graph.from_edges(n_vertices, edges)


def random_lengths(rng: random.Random, keys, length_range=(1, 6)):
    lo, hi = length_range
    return {k: Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for k in keys}


def random_harmonic_map(rng: random.Random, base: Graph, n: int) -> HarmonicMorphism:
    """Random degree-n harmonic morphism onto a tree: random vertex
    partitions joined by random transport plans along each edge.  It is
    unchecked: the generators check the one they return."""
    choice, randint, table = rng.choice, rng.randint, _partitions(n)
    parts = {v: choice(table) for v in base.vertices}
    vertex_ids, vmap = {}, {}
    for v in base.vertices:
        vertex_ids[v] = range(len(vmap), len(vmap) + len(parts[v]))
        vmap.update(dict.fromkeys(vertex_ids[v], v))
    edge_spec = []
    for k in base.edge_keys():
        u, v = base.edge_ends(k)
        supply = list(map(list, zip(parts[u], vertex_ids[u])))
        demand = list(map(list, zip(parts[v], vertex_ids[v])))
        while supply:
            su, dv = choice(supply), choice(demand)
            take = randint(1, min(su[0], dv[0]))
            edge_spec.append((su[1], dv[1], k, take))
            su[0] -= take
            dv[0] -= take
            if not su[0]:
                supply.remove(su)
            if not dv[0]:
                demand.remove(dv)
    return _harmonic_from_edges(len(vmap), sorted(edge_spec), base, vmap)


def random_double_cover_of(rng: random.Random, f_source: Graph,
                           dilation_probability: Fraction) -> HarmonicMorphism:
    """Random double cover of a graph: vertex statuses first, edge statuses
    respecting the closure rule, then monodromy bits on free attachments.
    It returns the cover's maps, an unchecked `HarmonicMorphism`, not a
    `DoubleCover`: `random_tower` checks the maps of the tower it returns
    and makes their `DoubleCover` then."""
    p_num, p_den = dilation_probability.numerator, dilation_probability.denominator
    dil_v = {v for v in f_source.vertices if rng.randrange(p_den) < p_num}
    dil_e = set()
    for k in f_source.edge_keys():
        u, v = f_source.edge_ends(k)
        if u in dil_v and v in dil_v and rng.randrange(p_den) < p_num:
            dil_e.add(k)
    # a dilated edge ends at dilated vertices, so a half-edge at a free root is free
    root = f_source.root
    bits = {h: rng.randint(0, 1) for h in f_source.half_edges if root[h] not in dil_v}
    return _double_cover_morphism(f_source, dil_v, dil_e, bits)


@dataclass(frozen=True)
class GeneratedTower:
    tower: Tower
    base_metric: MetricGraph


def random_tower(seed: int, *, n: int, tree_size=(2, 5), dilation_probability=Fraction(1, 3),
                 length_range=(1, 6), pi_free=None, generic=False,
                 connected=True) -> GeneratedTower:
    """Seeded random tower over a random metric tree.

    pi_free: force the double cover free (True), dilated (False) or leave
    random (None).  generic: reject towers with a type-V point (n = 2) or a
    (4)/(2,2) profile (n = 4).  connected: require a connected top curve.
    """
    if n not in (2, 3, 4):
        raise GraphError("tower degree must be 2, 3 or 4")
    rng = random.Random(seed)
    failing = "none"
    for attempt in range(_TRIES):
        base, keys = random_tree(rng, rng.randint(*tree_size))
        metric = MetricGraph(base, random_lengths(rng, keys, length_range))
        f = random_harmonic_map(rng, base, n)
        prob = Fraction(0) if pi_free else dilation_probability
        pi = random_double_cover_of(rng, f.source, prob)  # the flags read unchecked maps
        if pi_free is False and 2 not in pi.vertex_degree.values():
            failing = "pi-dilated"  # no dilated vertex, so no dilated edge
            continue
        if connected and not is_connected(pi.source):
            failing = "top-connected"
            continue
        # a tower of unchecked maps serves: `is_generic_bigonal` reads their fibers only
        if generic and n == 2 and not is_generic_bigonal(Tower(pi, f)):
            failing = "generic"
            continue
        if generic and n == 4 and not is_generic_tetragonal(f):
            failing = "generic"
            continue
        f = _check_edge_spec(f)  # the mid map first, as it was built first
        return GeneratedTower(Tower(DoubleCover.from_harmonic(pi), f), metric)
    raise GenerationError(failing, _TRIES)
