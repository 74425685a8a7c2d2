"""Seeded random towers and covers for the verification suites.

A single deterministic PRNG drives everything; iteration orders are
id-sorted, so a seed fully determines the output on any platform.
Generation is by rejection: sample, validate, check the requested
structural flags, retry up to a budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .graphs import (DoubleCover, Graph, GraphError, HarmonicMorphism, Tower,
                     betti_number, build_double_cover, harmonic_from_edges,
                     is_connected)
from .metrics import MetricGraph
from .ngonal import is_generic_bigonal, is_generic_tetragonal


class GenerationError(RuntimeError):
    def __init__(self, constraint, tries):
        super().__init__(f"rejection budget exceeded after {tries} tries; last failing constraint: {constraint}")
        self.constraint = constraint


_TRIES = 600  # rejection budget per call


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
    partitions joined by random transport plans along each edge."""
    parts = {v: rng.choice(_partitions(n)) for v in base.vertices}
    vertex_ids = {}
    vmap = {}
    vid = 0
    for v in base.vertices:
        ids = []
        for _d in parts[v]:
            vmap[vid] = v
            ids.append(vid)
            vid += 1
        vertex_ids[v] = ids
    edge_spec = []
    for k in base.edge_keys():
        u, v = base.edge_ends(k)
        supply = [[parts[u][i], vertex_ids[u][i]] for i in range(len(parts[u]))]
        demand = [[parts[v][i], vertex_ids[v][i]] for i in range(len(parts[v]))]
        while supply:
            su = rng.choice([s for s in supply if s[0] > 0])
            dv = rng.choice([t for t in demand if t[0] > 0])
            take = rng.randint(1, min(su[0], dv[0]))
            edge_spec.append((su[1], dv[1], k, take))
            su[0] -= take
            dv[0] -= take
            supply = [s for s in supply if s[0] > 0]
            demand = [t for t in demand if t[0] > 0]
    return harmonic_from_edges(vid, sorted(edge_spec), base, vmap)


def random_double_cover_of(rng: random.Random, f_source: Graph,
                           dilation_probability: Fraction) -> DoubleCover:
    """Random double cover of a graph: vertex statuses first, edge statuses
    respecting the closure rule, then monodromy bits on free attachments."""
    p_num, p_den = dilation_probability.numerator, dilation_probability.denominator
    dil_v = {v for v in f_source.vertices if rng.randrange(p_den) < p_num}
    dil_e = set()
    for k in f_source.edge_keys():
        u, v = f_source.edge_ends(k)
        if u in dil_v and v in dil_v and rng.randrange(p_den) < p_num:
            dil_e.add(k)
    bits = {}
    for h in f_source.half_edges:
        if f_source.edge_key(h) not in dil_e and f_source.root[h] not in dil_v:
            bits[h] = rng.randint(0, 1)
    return build_double_cover(f_source, dil_v, dil_e, bits)


@dataclass(frozen=True)
class GeneratedTower:
    tower: Tower
    base_metric: MetricGraph


def random_tower(seed: int, *, n: int, tree_size=(2, 5), dilation_probability=Fraction(1, 3),
                 length_range=(1, 6), pi_free=None, generic=False, connected=True,
                 max_prym_rank=None) -> GeneratedTower:
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
        cover = random_double_cover_of(rng, f.source, prob)
        tower = Tower(cover, f)
        if pi_free is False and cover.is_free():
            failing = "pi-dilated"
            continue
        if connected and not is_connected(tower.top):
            failing = "top-connected"
            continue
        if generic and n == 2 and not is_generic_bigonal(tower):
            failing = "generic"
            continue
        if generic and n == 4 and not is_generic_tetragonal(f):
            failing = "generic"
            continue
        if max_prym_rank is not None and \
                betti_number(tower.top) - betti_number(tower.mid) > max_prym_rank:
            failing = "max-prym-rank"
            continue
        return GeneratedTower(tower, metric)
    raise GenerationError(failing, _TRIES)


@dataclass(frozen=True)
class GeneratedCover:
    cover: HarmonicMorphism
    base_metric: MetricGraph


def random_tetragonal_curve(seed: int, *, tree_size=(2, 5)) -> GeneratedCover:
    """Seeded random generic degree-4 harmonic cover of a random metric
    tree, with a connected covering curve."""
    rng = random.Random(seed)
    failing = "none"
    for attempt in range(_TRIES):
        base, keys = random_tree(rng, rng.randint(*tree_size))
        metric = MetricGraph(base, random_lengths(rng, keys))
        f = random_harmonic_map(rng, base, 4)
        if not is_generic_tetragonal(f):
            failing = "generic"
            continue
        if not is_connected(f.source):
            failing = "connected"
            continue
        return GeneratedCover(f, metric)
    raise GenerationError(failing, _TRIES)
