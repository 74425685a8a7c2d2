"""Canonical JSON serialization of towers of harmonic morphisms.

A file holds a metric base graph and an ordered list of covers, each a
harmonic morphism onto the previous level.  All ids are integers, all
lengths are exact strings ("p/q" or "inf"), key order and id order are
canonical, so serialize(parse(text)) == text for canonical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .graphs import (DoubleCover, Graph, GraphError, HarmonicMorphism, Tower,
                     double_cover_issues, validate_graph, validate_harmonic)
from .metrics import MetricGraph, format_length, parse_length, validate_metric


class InvalidTowerFile(ValueError):
    """A tower file that breaks the graph, metric or harmonicity axioms;
    `issues` holds one line per violation, each level's prefixed `level{i}: `."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("\n".join(self.issues))


def _expect(value, kind: type, what: str):
    """The value, if it has the JSON type the format puts there; else ValueError."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"tower file: {what} must be {name}, not {type(value).__name__}")
    return value


def _field(doc: dict, key: str, kind: type, what: str):
    """doc[key], if it is there with the JSON type the format puts there; else ValueError."""
    if key not in doc:
        raise ValueError(f"tower file: {what} is missing")
    return _expect(doc[key], kind, what)


def _ints(values, what: str):
    """The values, if every one is a JSON integer (a bool is not); else ValueError."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"tower file: {what} must hold integers, not {type(bad).__name__}")
    return values


def _int_list(doc: dict, key: str, what: str) -> list:
    return _ints(_field(doc, key, list, what), what)


def _int_key_map(d: dict) -> dict:
    return dict(zip(map(str, d), d.values()))


def _distinct(ids, what: str, kind: str = "entries"):
    """The ids, unless one occurs twice: then ValueError naming the first repeat."""
    seen = set()
    for k in ids:
        if k in seen:
            raise ValueError(f"tower file: {what} has two {kind} for id {k}")
        seen.add(k)
    return ids


def _int_keys(d: dict, what: str) -> dict:
    """{int(key): value} of a JSON object whose keys are integers, no two the same id."""
    _expect(d, dict, what)
    try:
        out = dict(zip(map(int, d), d.values()))
    except ValueError:
        raise ValueError(f"tower file: {what} keys must be integers") from None
    if len(out) != len(d):
        _distinct(map(int, d), what, "keys")
    return out


def _parse_int_map(doc: dict, key: str, what: str) -> dict:
    """{int(k): v} of the JSON object doc[key], whose keys and values are integers."""
    d = _field(doc, key, dict, what)
    _ints(d.values(), what)
    return _int_keys(d, what)


def graph_to_doc(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[k, g.partner[k]] for k in g.edge_keys()],
        "root": _int_key_map(g.root),
    }


def graph_from_doc(doc: dict) -> Graph:
    root = _parse_int_map(doc, "root", "graph root")
    partner, named = {}, []
    for edge in _field(doc, "edges", list, "graph edges"):
        if type(edge) is not list or len(edge) != 2:
            raise ValueError("tower file: graph edges must be [h, hbar] pairs")
        a, b = _ints(edge, "graph edges")
        partner[a], partner[b] = b, a
        named += {a, b}  # a pair [h, h] names h once; validate_graph reports it
    vertices = _distinct(_int_list(doc, "vertices", "graph vertices"), "graph vertices")
    _distinct(named, "graph edges")
    return Graph(tuple(vertices), root, partner)


def level_to_doc(f: HarmonicMorphism, label: str) -> dict:
    g = f.source
    return {
        "label": label,
        "vertices": list(g.vertices),
        "half_edges": list(g.half_edges),
        "root": _int_key_map(g.root),
        "partner": _int_key_map(g.partner),
        "vmap": _int_key_map(f.vmap),
        "hmap": _int_key_map(f.hmap),
        "vertex_degree": _int_key_map(f.vertex_degree),
        "half_edge_degree": _int_key_map(f.half_edge_degree),
    }


def level_from_doc(doc: dict, target: Graph) -> HarmonicMorphism:
    half_edges = _ints(_expect(doc.get("half_edges", []), list, "level half_edges"),
                       "level half_edges")
    m = {key: _parse_int_map(doc, key, f"level {key}") for key in
         ("root", "partner", "vmap", "hmap", "vertex_degree", "half_edge_degree")}
    vertices = _distinct(_int_list(doc, "vertices", "level vertices"), "level vertices")
    if "half_edges" in doc and sorted(_distinct(half_edges, "level half_edges")) != sorted(m["root"]):
        raise ValueError("tower file: level half_edges must hold the root keys")
    g = Graph(tuple(vertices), m["root"], m["partner"])
    return HarmonicMorphism(g, target, m["vmap"], m["hmap"], m["vertex_degree"],
                            m["half_edge_degree"])


@dataclass(frozen=True)
class LoadedFile:
    base_metric: MetricGraph
    levels: tuple  # HarmonicMorphism, bottom first
    meta: dict

    @property
    def base(self) -> Graph:
        return self.base_metric.graph

    def level(self, i: int) -> HarmonicMorphism:
        """levels[i], bottom first, -1 the top; a file with no levels is an error."""
        if not self.levels:
            raise GraphError("file has no cover levels")
        return self.levels[i]

    def tower_issues(self) -> list:
        """The issue lines of a 2-level file whose top level is not a double
        cover, which `tower` refuses at the first; none for other files."""
        if len(self.levels) != 2:
            return []
        return [f"level1: {x}" for x in double_cover_issues(self.levels[1])]

    def tower(self) -> Tower:
        if len(self.levels) != 2:
            raise GraphError(f"a tower file needs exactly 2 levels, found {len(self.levels)}")
        return Tower(DoubleCover.from_harmonic(self.levels[1]), self.levels[0])


def file_to_doc(base_metric: MetricGraph, levels, meta=None) -> dict:
    doc = {
        "base": dict(graph_to_doc(base_metric.graph),
                     lengths={str(k): format_length(v)
                              for k, v in sorted(base_metric.length.items())}),
        "levels": [level_to_doc(f, f"level{i}") for i, f in enumerate(levels)],
        "meta": meta or {},
    }
    return doc


def doc_to_file(doc: dict) -> LoadedFile:
    """The checked file of a parsed document: the one place a file is checked.
    A malformed document raises ValueError (`tower file: ...`), one that breaks
    the graph, metric or harmonicity axioms InvalidTowerFile."""
    base_doc = _field(_expect(doc, dict, "the document"), "base", dict, "base")
    base = graph_from_doc(base_doc)
    lengths = _int_keys(base_doc.get("lengths", {}), "base lengths")
    try:
        metric = MetricGraph(base, {k: parse_length(v) for k, v in lengths.items()})
    except ValueError as exc:
        raise ValueError(f"tower file: base lengths: {exc}") from None
    levels = []
    target = base
    for i, level_doc in enumerate(_expect(doc.get("levels", []), list, "levels")):
        f = level_from_doc(_expect(level_doc, dict, f"level{i}"), target)
        levels.append(f)
        target = f.source
    issues = validate_graph(base) + validate_metric(metric)
    for i, f in enumerate(levels):
        issues += [f"level{i}: {x}" for x in validate_graph(f.source) + validate_harmonic(f)]
    if issues:
        raise InvalidTowerFile(map(str, issues))
    return LoadedFile(metric, tuple(levels), doc.get("meta", {}))


def tower_to_doc(tower: Tower, base_metric: MetricGraph, meta=None) -> dict:
    return file_to_doc(base_metric, [tower.f, tower.pi], meta)


def dumps_canonical(doc: dict) -> str:
    """The canonical text of a document: byte for byte
    `json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\\n"`,
    written without the pure-Python encoder that `indent` selects."""
    return _dumps(doc, "\n") + "\n"


def _dumps(value, nl: str) -> str:
    """value as the canonical text writes it where a line break is `nl`
    (a newline and the indent of value's depth).  Lists, str-keyed objects,
    strs and ints are written here, a list or object of ints with no call
    per item; any other value by json.dumps, re-indented to this depth."""
    kind = type(value)
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        inner = nl + " "
        if set(map(type, value.values())) <= {int}:
            body = [f"{_quote(k)}: {value[k]}" for k in sorted(value)]
        else:
            body = [f"{_quote(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = nl + " "
        if set(map(type, value)) <= {int}:
            body = [f"{x}" for x in value]
        else:
            body = [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    return json.dumps(value, sort_keys=True, indent=1, separators=(",", ": ")).replace("\n", nl)


def save(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))


def load(path) -> LoadedFile:
    with open(path, "r", encoding="utf-8") as fh:
        return doc_to_file(json.load(fh))


def multisection_label(ms) -> str:
    return "+".join(f"{plus}(+{pid})+{minus}(-{pid})" for (pid, plus, minus) in ms)


def provenance_meta(construction) -> dict:
    """Per-point multisection annotations of a constructed cover."""
    return {
        "vertices": {str(i): {"over": v, "multisection": multisection_label(ms)}
                     for i, (v, ms) in sorted(construction.vertex_info.items())},
        "half_edges": {str(i): {"over": h, "multisection": multisection_label(ms)}
                       for i, (h, ms) in sorted(construction.half_edge_info.items())},
    }
