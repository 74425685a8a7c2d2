"""Exact edge lengths, induced metrics, and smooth augmentation by rays.

Lengths are exact rationals; infinity is a distinct tag, never a float.
Every cover in a tower derives its metric from the base through
``induce_metric``, so assigning lengths to the base determines lengths
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, HarmonicMorphism, ValidationIssue, hpoint, vpoint


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()


def is_inf(x) -> bool:
    return x is INF


def parse_length(text: str):
    if not isinstance(text, str):
        raise ValueError(f"length {text!r} is not a string")
    if text == "inf":
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"length {text!r} is not a rational p/q or inf") from None


def format_length(x) -> str:
    if is_inf(x):
        return "inf"
    return str(Fraction(x))


@dataclass(frozen=True)
class MetricGraph:
    """Graph with an exact length per edge key.

    smooth_model=True asserts every univalent vertex sits at infinity
    (i.e. is the far end of an infinite extremal edge).
    """

    graph: Graph
    length: dict  # edge key -> Fraction or INF
    smooth_model: bool = False


def validate_metric(m: MetricGraph) -> list:
    issues = []
    g = m.graph
    if sorted(m.length) != list(g.edge_keys()):
        issues.append(ValidationIssue("length-domain", (), "length map does not match edge set"))
        return issues
    infinite_far_ends = set()
    for k in g.edge_keys():
        val = m.length[k]
        if is_inf(val):
            ends = g.edge_ends(k)
            extremal = [v for v in ends if g.valence(v) == 1]
            if not extremal:
                issues.append(ValidationIssue("infinite-not-extremal", hpoint(k),
                                              "infinite edge must have a univalent endpoint"))
            infinite_far_ends.update(extremal)
        elif not (isinstance(val, (int, Fraction)) and val > 0):
            issues.append(ValidationIssue("length-positive", hpoint(k), f"length {val!r} is not a positive rational"))
    if m.smooth_model:
        for v in g.vertices:
            if g.valence(v) == 1 and v not in infinite_far_ends:
                issues.append(ValidationIssue("finite-leaf", vpoint(v),
                                              "smooth model forbids finite univalent vertices"))
    return issues


def induce_metric(f: HarmonicMorphism, target_metric: MetricGraph) -> MetricGraph:
    """Pull a metric back along a harmonic morphism: len(e) = len(f(e)) / deg(e)."""
    if target_metric.graph != f.target:
        raise GraphError("induce_metric: metric is not on the morphism's target")
    length = {}
    for k in f.source.edge_keys():
        val, d = target_metric.length[f.target.edge_key(f.h(k))], f.deg_edge(k)
        length[k] = val if is_inf(val) or (d == 1 and type(val) is Fraction) else Fraction(val, d)
    return MetricGraph(f.source, length, target_metric.smooth_model)


def validate_metric_harmonic(f: HarmonicMorphism, up: MetricGraph, down: MetricGraph) -> list:
    """Empty iff deg(e) * len(e) = len(f(e)) for every source edge, where
    `up` is a metric on f's source and `down` one on its target."""
    issues = []
    if up.graph != f.source or down.graph != f.target:
        issues.append(ValidationIssue("metric-domain", (), "metrics do not match the morphism"))
        return issues
    for k in f.source.edge_keys():
        up_len, down_len = up.length[k], down.length[f.target.edge_key(f.h(k))]
        if is_inf(up_len) != is_inf(down_len):
            issues.append(ValidationIssue("dilation-factor", hpoint(k), "infinite lengths do not correspond"))
        elif not is_inf(up_len) and f.deg_edge(k) * up_len != down_len:
            issues.append(ValidationIssue(
                "dilation-factor", hpoint(k),
                f"{f.deg_edge(k)} * {up_len} != {down_len}"))
    return issues


def _finite_leaves(m: MetricGraph):
    g = m.graph
    leaves = []
    for v in g.vertices:
        if g.valence(v) == 1:
            k = g.edge_key(g.tangent(v)[0])
            if not is_inf(m.length[k]):
                leaves.append(v)
    return leaves


def augment_smooth(m: MetricGraph) -> MetricGraph:
    """Attach one infinite ray to every finite univalent vertex. Idempotent."""
    leaves = _finite_leaves(m)
    if not leaves and m.smooth_model:
        return m
    g = m.graph
    next_v = max(g.vertices, default=-1) + 1
    next_h = max(g.half_edges, default=-1) + 1
    root, partner = dict(g.root), dict(g.partner)
    vertices = list(g.vertices)
    length = dict(m.length)
    for v in leaves:
        tip = next_v
        a, b = next_h, next_h + 1
        next_v += 1
        next_h += 2
        vertices.append(tip)
        root[a], root[b] = v, tip
        partner[a], partner[b] = b, a
        length[a] = INF
    return MetricGraph(Graph(tuple(vertices), root, partner), length, smooth_model=True)


def augment_smooth_tower(f: HarmonicMorphism, target_metric: MetricGraph):
    """Augment target leaves, then attach deg(v) rays of degree 1 above each.

    The source carries the metric induced from the target.  Returns
    (morphism, source_metric, target_metric) over the augmented graphs;
    genus and homology are unchanged on both levels.
    """
    new_target = augment_smooth(target_metric)
    tgt_leaves = _finite_leaves(target_metric)
    # ray edge attached at each old target leaf, in creation order
    ray_at = {}
    for v, k in zip(tgt_leaves, sorted(set(new_target.length) - set(target_metric.length))):
        ray_at[v] = k

    s = f.source
    next_v = max(s.vertices, default=-1) + 1
    next_h = max(s.half_edges, default=-1) + 1
    root, partner = dict(s.root), dict(s.partner)
    vertices = list(s.vertices)
    length = dict(induce_metric(f, target_metric).length)
    vmap, hmap = dict(f.vmap), dict(f.hmap)
    vd, hd = dict(f.vertex_degree), dict(f.half_edge_degree)
    for v in tgt_leaves:
        k = ray_at[v]
        far = new_target.graph.root[new_target.graph.partner[k]]
        for x in f.fiber_vertices(v):
            for _ in range(f.vertex_degree[x]):
                tip, a, b = next_v, next_h, next_h + 1
                next_v += 1
                next_h += 2
                vertices.append(tip)
                root[a], root[b] = x, tip
                partner[a], partner[b] = b, a
                length[a] = INF
                vmap[tip] = far
                hmap[a], hmap[b] = k, new_target.graph.partner[k]
                vd[tip] = 1
                hd[a] = hd[b] = 1
    new_source_graph = Graph(tuple(vertices), root, partner)
    new_f = HarmonicMorphism(new_source_graph, new_target.graph, vmap, hmap, vd, hd)
    new_source = MetricGraph(new_source_graph, length, smooth_model=True)
    return new_f, new_source, new_target
