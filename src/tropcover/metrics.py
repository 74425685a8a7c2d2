"""Exact edge lengths and induced metrics.

Lengths are exact rationals; infinity is a distinct tag, never a float.
Every cover in a tower derives its metric from the base through
``induce_metric``, so assigning lengths to the base determines lengths
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, HarmonicMorphism, ValidationIssue, hpoint


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
    """Graph with an exact length per edge key."""

    graph: Graph
    length: dict  # edge key -> Fraction or INF


def validate_metric(m: MetricGraph) -> list:
    issues = []
    g = m.graph
    if sorted(m.length) != list(g.edge_keys()):
        issues.append(ValidationIssue("length-domain", (), "length map does not match edge set"))
        return issues
    for k in g.edge_keys():
        val = m.length[k]
        if is_inf(val):
            if not any(g.valence(v) == 1 for v in g.edge_ends(k)):
                issues.append(ValidationIssue("infinite-not-extremal", hpoint(k),
                                              "infinite edge must have a univalent endpoint"))
        elif not (isinstance(val, (int, Fraction)) and val > 0):
            issues.append(ValidationIssue("length-positive", hpoint(k), f"length {val!r} is not a positive rational"))
    return issues


def induce_metric(f: HarmonicMorphism, target_metric: MetricGraph) -> MetricGraph:
    """Pull a metric back along a harmonic morphism: len(e) = len(f(e)) / deg(e)."""
    if target_metric.graph != f.target:
        raise GraphError("induce_metric: metric is not on the morphism's target")
    length = {}
    for k in f.source.edge_keys():
        val, d = target_metric.length[f.target.edge_key(f.h(k))], f.deg_h(k)
        length[k] = val if is_inf(val) or (d == 1 and type(val) is Fraction) else Fraction(val, d)
    return MetricGraph(f.source, length)
