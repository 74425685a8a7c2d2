"""Signed fibers, multisections, and the tropical n-gonal constructions.

The fiber of a tower over a point of the base is a list of parts (one
per mid-level preimage) carrying a local degree and a free/dilated
status.  A multisection splits each part's degree into a nonnegative
(plus, minus) pair; the constructed cover has one point per
multisection, with local degrees counting the sections inducing it.

Specializations: the degree-2 construction (involutive on generic
towers), the degree-3 construction and its inverse (from 2-element
subsets of quartic fibers), and the degree-4 splitting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .graphs import (DoubleCover, Graph, GraphError, GraphMorphism,
                     HarmonicMorphism, NonGenericError, PreconditionError,
                     Tower, connected_components, genus, is_connected, is_tree,
                     validate_harmonic, vpoint, hpoint)


@dataclass(frozen=True)
class FiberPart:
    part_id: int  # the mid-level point (vertex or half-edge id in context)
    degree: int
    dilated: bool


@dataclass(frozen=True)
class FiberDatum:
    """Fiber of a tower over one base point, as an involution-stable partition."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts, key=lambda p: p.part_id)))

    @property
    def total(self) -> int:
        return sum(p.degree for p in self.parts)

    def is_free(self) -> bool:
        return all(not p.dilated for p in self.parts)

    def part(self, part_id) -> FiberPart:
        for p in self.parts:
            if p.part_id == part_id:
                return p
        raise KeyError(part_id)


Multisection = tuple  # sorted tuple of (part_id, plus, minus); dilated parts canonical (d, 0)


def _canonical(fd: FiberDatum, coeffs: dict) -> Multisection:
    out = []
    for p in fd.parts:
        plus, minus = coeffs[p.part_id]
        if p.dilated:
            plus, minus = p.degree, 0
        if plus + minus != p.degree or plus < 0 or minus < 0:
            raise GraphError(f"multisection coefficients {(plus, minus)} do not split degree {p.degree}")
        out.append((p.part_id, plus, minus))
    return tuple(out)


def multisections(fd: FiberDatum) -> tuple:
    """All multisections in lexicographic order; count = prod over free
    parts of (degree + 1)."""
    ranges = []
    for p in fd.parts:
        if p.dilated:
            ranges.append([(p.degree, 0)])
        else:
            ranges.append([(a, p.degree - a) for a in range(p.degree, -1, -1)])
    out = []
    for combo in itertools.product(*ranges):
        out.append(tuple((p.part_id, a, b) for p, (a, b) in zip(fd.parts, combo)))
    return tuple(sorted(out))


def multisection_degree(fd: FiberDatum, ms: Multisection) -> int:
    """Number of sections inducing the multisection."""
    deg = 1
    for (part_id, plus, _minus) in ms:
        p = fd.part(part_id)
        deg *= 2 ** p.degree if p.dilated else comb(p.degree, plus)
    return deg


def multisection_sign(fd: FiberDatum, ms: Multisection) -> int:
    """(-1)^(sum of plus coefficients); defined only for free fibers."""
    if not fd.is_free():
        raise PreconditionError("free-fiber", "sign undefined on dilated partition")
    return -1 if sum(plus for (_pid, plus, _minus) in ms) % 2 else 1


@dataclass(frozen=True)
class Refinement:
    """Map from the parts of a fine fiber into the parts of a coarse one.

    part_map: fine part id -> coarse part id.  flip: fine part id ->
    bool, whether the plus/minus labels reverse; only meaningful when
    both parts are free.
    """

    fine: FiberDatum
    coarse: FiberDatum
    part_map: dict
    flip: dict

    def __post_init__(self):
        sums = {p.part_id: 0 for p in self.coarse.parts}
        for p in self.fine.parts:
            coarse = self.coarse.part(self.part_map[p.part_id])
            if p.dilated and not coarse.dilated:
                raise GraphError("a dilated part cannot refine a free part")
            sums[coarse.part_id] += p.degree
        for p in self.coarse.parts:
            if sums[p.part_id] != p.degree:
                raise GraphError(f"refinement degree mismatch at coarse part {p.part_id}")


def induce_multisection(r: Refinement, ms: Multisection) -> Multisection:
    coeffs = {p.part_id: [0, 0] for p in r.coarse.parts}
    for (part_id, plus, minus) in ms:
        coarse = r.coarse.part(r.part_map[part_id])
        if not coarse.dilated and r.flip.get(part_id, False):
            plus, minus = minus, plus
        coeffs[coarse.part_id][0] += plus
        coeffs[coarse.part_id][1] += minus
    return _canonical(r.coarse, {k: tuple(v) for k, v in coeffs.items()})


def swap_multisection(fd: FiberDatum, ms: Multisection) -> Multisection:
    """Exchange all signs (the canonical involution of the construction)."""
    return _canonical(fd, {pid: (minus, plus) for (pid, plus, minus) in ms})


# ---------------------------------------------------------------------------
# fiber data of a tower


def tower_fiber(t: Tower, point) -> FiberDatum:
    kind, i = point
    if kind == "v":
        mids = t.f.fiber_vertices(i)
        return FiberDatum(tuple(
            FiberPart(x, t.f.deg_v(x), len(t.pi.cover.fiber_vertices(x)) == 1) for x in mids))
    mids = t.f.fiber_half_edges(i)
    return FiberDatum(tuple(
        FiberPart(x, t.f.deg_h(x), len(t.pi.cover.fiber_half_edges(x)) == 1) for x in mids))


def _root_refinement(t: Tower, h) -> Refinement:
    """Refinement from the fiber over a base half-edge into the fiber over
    its root vertex, with plus/minus alignment from the top level."""
    v = t.base.root[h]
    fine = tower_fiber(t, hpoint(h))
    coarse = tower_fiber(t, vpoint(v))
    part_map, flip = {}, {}
    for p in fine.parts:
        mid_root = t.mid.root[p.part_id]
        part_map[p.part_id] = mid_root
        if not p.dilated and not coarse.part(mid_root).dilated:
            # the two top-level preimages of a free mid point, plus first
            top_halves = t.pi.cover.fiber_half_edges(p.part_id)
            top_roots = t.pi.cover.fiber_vertices(mid_root)
            flip[p.part_id] = t.top.root[top_halves[0]] == top_roots[1]
    return Refinement(fine, coarse, part_map, flip)


def _partner_transport(t: Tower, h):
    """Part map and flips carrying multisections over h to its partner."""
    hbar = t.base.partner[h]
    fine = tower_fiber(t, hpoint(h))
    other = tower_fiber(t, hpoint(hbar))
    part_map, flip = {}, {}
    for p in fine.parts:
        mate = t.mid.partner[p.part_id]
        part_map[p.part_id] = mate
        if not p.dilated:
            top_halves = t.pi.cover.fiber_half_edges(p.part_id)
            mate_halves = t.pi.cover.fiber_half_edges(mate)
            flip[p.part_id] = t.top.partner[top_halves[0]] == mate_halves[1]
    return other, part_map, flip


def _transport_multisection(other: FiberDatum, part_map, flip, ms: Multisection) -> Multisection:
    coeffs = {}
    for (pid, plus, minus) in ms:
        if flip.get(pid, False):
            plus, minus = minus, plus
        coeffs[part_map[pid]] = (plus, minus)
    return _canonical(other, coeffs)


def _sign_flip_parity(fd: FiberDatum, flip: dict) -> int:
    """Multisection sign changes by (-1)^(sum of flipped degrees); constant
    over the fiber, hence well-defined on the orientation cover."""
    return sum(fd.part(pid).degree for pid, fl in flip.items() if fl) % 2


# ---------------------------------------------------------------------------
# the construction


@dataclass(frozen=True)
class NgonalConstruction:
    """Output of the degree-n construction on a tower.

    cover_to_base: the degree 2^n harmonic morphism onto the base.
    sign_involution: point permutation exchanging all signs.
    orientation: the degree-2 orientation cover of the base.
    to_orientation: the degree 2^(n-1) quotient by multisection sign.
    vertex_info / half_edge_info: constructed id -> (base point, multisection).
    """

    tower: Tower
    n: int
    cover_to_base: HarmonicMorphism
    sign_involution: tuple  # (vertex permutation, half-edge permutation)
    orientation: HarmonicMorphism
    to_orientation: HarmonicMorphism
    vertex_info: dict
    half_edge_info: dict
    orientation_vertex_info: dict
    orientation_half_edge_info: dict


def ngonal_construct(t: Tower, n: int) -> NgonalConstruction:
    """One point per multisection per base point, rooted by induction and
    glued by transport through the top level."""
    if n not in (2, 3, 4):
        raise PreconditionError("degree", "only degrees 2, 3, 4 are exposed")
    if t.f.global_degree() != n:
        raise PreconditionError("degree", f"tower has degree {t.f.global_degree()}, expected {n}")
    if not is_connected(t.base):
        raise PreconditionError("connected", "base must be connected")
    base = t.base

    fibers = {}
    for p in base.points():
        fibers[p] = tower_fiber(t, p)

    v_ids, v_info = {}, {}
    for v in base.vertices:
        for ms in multisections(fibers[vpoint(v)]):
            idx = len(v_ids)
            v_ids[(v, ms)] = idx
            v_info[idx] = (v, ms)
    h_ids, h_info = {}, {}
    for h in base.half_edges:
        for ms in multisections(fibers[hpoint(h)]):
            idx = len(h_ids)
            h_ids[(h, ms)] = idx
            h_info[idx] = (h, ms)

    root, partner = {}, {}
    transports = {}
    for h in base.half_edges:
        refinement = _root_refinement(t, h)
        transports[h] = _partner_transport(t, h)
        v = base.root[h]
        for ms in multisections(fibers[hpoint(h)]):
            root[h_ids[(h, ms)]] = v_ids[(v, induce_multisection(refinement, ms))]
    for h in base.half_edges:
        other, part_map, flip = transports[h]
        hbar = base.partner[h]
        for ms in multisections(fibers[hpoint(h)]):
            partner[h_ids[(h, ms)]] = h_ids[(hbar, _transport_multisection(other, part_map, flip, ms))]

    total = Graph(tuple(range(len(v_ids))), root, partner)
    vdeg = {i: multisection_degree(fibers[vpoint(v)], ms) for i, (v, ms) in v_info.items()}
    hdeg = {i: multisection_degree(fibers[hpoint(h)], ms) for i, (h, ms) in h_info.items()}
    cover = HarmonicMorphism(
        GraphMorphism(total, base,
                      {i: v for i, (v, ms) in v_info.items()},
                      {i: h for i, (h, ms) in h_info.items()}),
        vdeg, hdeg)
    issues = validate_harmonic(cover)
    if issues:
        raise AssertionError(f"constructed cover is not harmonic: {issues[0]}")
    if cover.global_degree() != 2 ** n:
        raise AssertionError("constructed cover has the wrong degree")

    vperm = {v_ids[(v, ms)]: v_ids[(v, swap_multisection(fibers[vpoint(v)], ms))]
             for (v, ms) in v_ids}
    hperm = {h_ids[(h, ms)]: h_ids[(h, swap_multisection(fibers[hpoint(h)], ms))]
             for (h, ms) in h_ids}
    for i in total.half_edges:
        if hperm[total.partner[i]] != total.partner[hperm[i]] \
                or vperm[total.root[i]] != total.root[hperm[i]]:
            raise AssertionError("sign involution is not a graph automorphism")
        if hdeg[hperm[i]] != hdeg[i]:
            raise AssertionError("sign involution does not preserve degrees")

    orientation, ov_info, oh_info, ov_ids, oh_ids = _orientation_cover(t, fibers, transports)
    to_orient = _sign_quotient(t, n, fibers, cover, v_info, h_info, ov_ids, oh_ids, orientation)
    return NgonalConstruction(t, n, cover, (vperm, hperm), orientation, to_orient,
                              v_info, h_info, ov_info, oh_info)


def _point_is_dilated(fd: FiberDatum) -> bool:
    return not fd.is_free()


def _orientation_cover(t: Tower, fibers, transports):
    """Degree-2 cover of the base recording multisection signs: one point
    over each dilated base point, two sign-labeled points over each free one."""
    base = t.base
    ov_ids, ov_info = {}, {}
    for v in base.vertices:
        signs = (0,) if _point_is_dilated(fibers[vpoint(v)]) else (0, 1)
        for s in signs:
            idx = len(ov_ids)
            ov_ids[(v, s)] = idx
            ov_info[idx] = (v, s)
    oh_ids, oh_info = {}, {}
    for h in base.half_edges:
        signs = (0,) if _point_is_dilated(fibers[hpoint(h)]) else (0, 1)
        for s in signs:
            idx = len(oh_ids)
            oh_ids[(h, s)] = idx
            oh_info[idx] = (h, s)
    root, partner = {}, {}
    for h in base.half_edges:
        v = base.root[h]
        h_dil = _point_is_dilated(fibers[hpoint(h)])
        v_dil = _point_is_dilated(fibers[vpoint(v)])
        refinement = _root_refinement(t, h)
        root_parity = _sign_flip_parity(fibers[hpoint(h)], refinement.flip)
        other, part_map, flip = transports[h]
        partner_parity = _sign_flip_parity(fibers[hpoint(h)], flip)
        hbar = base.partner[h]
        hbar_dil = _point_is_dilated(fibers[hpoint(hbar)])
        for s in ((0,) if h_dil else (0, 1)):
            hid = oh_ids[(h, s)]
            root[hid] = ov_ids[(v, 0 if v_dil else (s + root_parity) % 2)]
            partner[hid] = oh_ids[(hbar, 0 if hbar_dil else (s + partner_parity) % 2)]
    graph = Graph(tuple(range(len(ov_ids))), root, partner)
    cover = HarmonicMorphism(
        GraphMorphism(graph, base,
                      {i: v for i, (v, s) in ov_info.items()},
                      {i: h for i, (h, s) in oh_info.items()}),
        {i: 2 if _point_is_dilated(fibers[vpoint(v)]) else 1 for i, (v, s) in ov_info.items()},
        {i: 2 if _point_is_dilated(fibers[hpoint(h)]) else 1 for i, (h, s) in oh_info.items()})
    issues = validate_harmonic(cover)
    if issues:
        raise AssertionError(f"orientation cover is not harmonic: {issues[0]}")
    return cover, ov_info, oh_info, ov_ids, oh_ids


def _ms_sign_bit(fd: FiberDatum, ms: Multisection) -> int:
    return sum(plus for (_pid, plus, _minus) in ms) % 2


def _sign_quotient(t, n, fibers, cover, v_info, h_info, ov_ids, oh_ids, orientation):
    """Quotient map from the constructed cover to the orientation cover."""
    vmap, hmap, vdeg, hdeg = {}, {}, {}, {}
    for i, (v, ms) in v_info.items():
        fd = fibers[vpoint(v)]
        if _point_is_dilated(fd):
            vmap[i] = ov_ids[(v, 0)]
            vdeg[i] = cover.vertex_degree[i] // 2
        else:
            vmap[i] = ov_ids[(v, _ms_sign_bit(fd, ms))]
            vdeg[i] = cover.vertex_degree[i]
    for i, (h, ms) in h_info.items():
        fd = fibers[hpoint(h)]
        if _point_is_dilated(fd):
            hmap[i] = oh_ids[(h, 0)]
            hdeg[i] = cover.half_edge_degree[i] // 2
        else:
            hmap[i] = oh_ids[(h, _ms_sign_bit(fd, ms))]
            hdeg[i] = cover.half_edge_degree[i]
    q = HarmonicMorphism(GraphMorphism(cover.source, orientation.source, vmap, hmap), vdeg, hdeg)
    issues = validate_harmonic(q)
    if issues:
        raise AssertionError(f"sign quotient is not harmonic: {issues[0]}")
    if q.global_degree() != 2 ** (n - 1):
        raise AssertionError("sign quotient has the wrong degree")
    return q


# ---------------------------------------------------------------------------
# quotient by the sign involution


@dataclass(frozen=True)
class InvolutionQuotient:
    quotient_map: HarmonicMorphism  # constructed quotient -> base
    projection: DoubleCover         # total cover -> quotient
    vertex_orbit: dict
    half_edge_orbit: dict


def involution_quotient(cover: HarmonicMorphism, vperm: dict, hperm: dict) -> InvolutionQuotient:
    """Quotient a harmonic morphism by a sign involution over the same base.

    Orbits of size two map with their shared degree; fixed points halve
    their degree downstairs and the projection has degree 2 there.
    """
    src = cover.source
    vrep = {v: min(v, vperm[v]) for v in src.vertices}
    hrep = {h: min(h, hperm[h]) for h in src.half_edges}
    v_new = {rep: i for i, rep in enumerate(sorted(set(vrep.values())))}
    h_new = {rep: i for i, rep in enumerate(sorted(set(hrep.values())))}
    root = {h_new[h]: v_new[vrep[src.root[h]]] for h in h_new}
    partner = {h_new[h]: h_new[hrep[src.partner[h]]] for h in h_new}
    quotient_graph = Graph(tuple(range(len(v_new))), root, partner)
    vdeg, hdeg = {}, {}
    for rep, i in v_new.items():
        fixed = vperm[rep] == rep
        d = cover.vertex_degree[rep]
        if fixed and d % 2:
            raise GraphError("fixed vertex has odd degree; quotient undefined")
        vdeg[i] = d // 2 if fixed else d
    for rep, i in h_new.items():
        fixed = hperm[rep] == rep
        d = cover.half_edge_degree[rep]
        if fixed and d % 2:
            raise GraphError("fixed half-edge has odd degree; quotient undefined")
        hdeg[i] = d // 2 if fixed else d
    quotient = HarmonicMorphism(
        GraphMorphism(quotient_graph, cover.target,
                      {v_new[rep]: cover.v(rep) for rep in v_new},
                      {h_new[rep]: cover.h(rep) for rep in h_new}),
        vdeg, hdeg)
    issues = validate_harmonic(quotient)
    if issues:
        raise AssertionError(f"involution quotient is not harmonic: {issues[0]}")
    proj = HarmonicMorphism(
        GraphMorphism(src, quotient_graph,
                      {v: v_new[vrep[v]] for v in src.vertices},
                      {h: h_new[hrep[h]] for h in src.half_edges}),
        {v: 2 if vperm[v] == v else 1 for v in src.vertices},
        {h: 2 if hperm[h] == h else 1 for h in src.half_edges})
    return InvolutionQuotient(quotient, DoubleCover.from_harmonic(proj),
                              {v: v_new[vrep[v]] for v in src.vertices},
                              {h: h_new[hrep[h]] for h in src.half_edges})


# ---------------------------------------------------------------------------
# point classification


BIGONAL_TYPES = {
    ((2, True),): "I",
    ((2, False),): "II",
    ((1, False), (1, True)): "III",
    ((1, False), (1, False)): "IV",
    ((1, True), (1, True)): "V",
}

BIGONAL_TYPE_MAP = {"I": "I", "II": "III", "III": "II", "IV": "IV", "V": "I"}


def classify_bigonal_point(t: Tower, point) -> str:
    """Type I-V of a base point of a (2,2)-tower.

    Classified by the fiber of the mid-level map together with the
    free/dilated status of each mid point under the double cover: I one
    dilated mid point, II one free, III one of each, IV two free, V two
    dilated.  (On generic towers the label is the number of top-level
    preimages.)
    """
    fd = tower_fiber(t, point)
    profile = tuple(sorted(((p.degree, p.dilated) for p in fd.parts),
                           key=lambda x: (-x[0], x[1])))
    try:
        return BIGONAL_TYPES[profile]
    except KeyError:
        raise GraphError(f"unclassifiable degree-2 fiber {profile} at {point}") from None


def classify_tetragonal_point(p: HarmonicMorphism, point) -> str:
    profile = p.fiber_profile(point)
    table = {(1, 1, 1, 1): "A", (2, 1, 1): "B", (3, 1): "C"}
    try:
        return table[profile]
    except KeyError:
        raise NonGenericError(point, profile) from None


def is_generic_bigonal(t: Tower) -> bool:
    return all(classify_bigonal_point(t, p) != "V" for p in t.base.points())


def is_generic_tetragonal(p: HarmonicMorphism) -> bool:
    try:
        for point in p.target.points():
            classify_tetragonal_point(p, point)
    except NonGenericError:
        return False
    return True


# ---------------------------------------------------------------------------
# bigonal construction


@dataclass(frozen=True)
class BigonalResult:
    tower: Tower
    construction: NgonalConstruction
    quotient: InvolutionQuotient
    input_types: dict
    output_types: dict
    generic_input: bool
    generic_output: bool


def bigonal(t: Tower) -> BigonalResult:
    """Degree-2 construction: a tower of the same shape over the same tree.

    Point types map I -> I, II -> III, III -> II, IV -> IV, V -> I; on
    generic towers the construction is an involution up to isomorphism.
    """
    if t.f.global_degree() != 2:
        raise PreconditionError("degree-2", "bigonal construction needs a degree-2 base map")
    if not is_tree(t.base):
        raise PreconditionError("tree-base", "bigonal construction needs a tree base")
    cons = ngonal_construct(t, 2)
    vperm, hperm = cons.sign_involution
    quot = involution_quotient(cons.cover_to_base, vperm, hperm)
    out = Tower(quot.projection, quot.quotient_map)
    input_types = {p: classify_bigonal_point(t, p) for p in t.base.points()}
    output_types = {p: classify_bigonal_point(out, p) for p in t.base.points()}
    for p, label in input_types.items():
        if output_types[p] != BIGONAL_TYPE_MAP[label]:
            raise AssertionError(f"bigonal type map failed at {p}: {label} -> {output_types[p]}")
    return BigonalResult(out, cons, quot, input_types, output_types,
                         "V" not in input_types.values(), "V" not in output_types.values())


# ---------------------------------------------------------------------------
# trigonal construction


@dataclass(frozen=True)
class TrigonalResult:
    quartic: HarmonicMorphism  # the even component, a generic degree-4 cover
    construction: NgonalConstruction
    component_vertices: frozenset
    other_component_vertices: frozenset


def trigonal(t: Tower) -> TrigonalResult:
    """Degree-3 construction of a free cover over a tree: the total cover
    splits into two components exchanged by the sign involution; the even
    one is a generic degree-4 cover of the base."""
    if t.f.global_degree() != 3:
        raise PreconditionError("degree-3", "trigonal construction needs a degree-3 base map")
    if not t.pi.is_free():
        raise PreconditionError("free-cover", "trigonal construction needs a free double cover")
    if not is_tree(t.base):
        raise PreconditionError("tree-base", "trigonal construction needs a tree base")
    cons = ngonal_construct(t, 3)
    orient = cons.orientation
    comps = connected_components(orient.source)
    if len(comps) != 2:
        raise AssertionError("orientation cover of a free tower over a tree must split")
    base_min = t.base.vertices[0]
    plus_vertex = next(i for i, (v, s) in cons.orientation_vertex_info.items()
                       if v == base_min and s == 0)
    even_comp = next(c for c in comps if plus_vertex in c)
    vertices = frozenset(v for v in cons.cover_to_base.source.vertices
                         if cons.to_orientation.v(v) in even_comp)
    other = frozenset(cons.cover_to_base.source.vertices) - vertices
    vperm, hperm = cons.sign_involution
    if {vperm[v] for v in vertices} != other:
        raise AssertionError("sign involution does not exchange the two components")
    quartic = _restrict_cover(cons.cover_to_base, vertices)
    if quartic.global_degree() != 4:
        raise AssertionError("even component does not have degree 4")
    for point in t.base.points():
        classify_tetragonal_point(quartic, point)  # profiles (1^4), (2,1,1), (3,1) only
    if is_connected(t.top) != is_connected(quartic.source):
        raise AssertionError("component connectivity does not match the top curve")
    if is_connected(quartic.source) and genus(quartic.source) != genus(t.mid) - 1:
        raise AssertionError("constructed quartic curve has the wrong genus")
    return TrigonalResult(quartic, cons, vertices, other)


def _restrict_cover(cover: HarmonicMorphism, vertices: frozenset) -> HarmonicMorphism:
    """Restrict to a union of connected components, relabeling densely."""
    src = cover.source
    halves = [h for h in src.half_edges if src.root[h] in vertices]
    v_new = {v: i for i, v in enumerate(sorted(vertices))}
    h_new = {h: i for i, h in enumerate(sorted(halves))}
    graph = Graph(tuple(range(len(v_new))),
                  {h_new[h]: v_new[src.root[h]] for h in halves},
                  {h_new[h]: h_new[src.partner[h]] for h in halves})
    out = HarmonicMorphism(
        GraphMorphism(graph, cover.target,
                      {v_new[v]: cover.v(v) for v in vertices},
                      {h_new[h]: cover.h(h) for h in halves}),
        {v_new[v]: cover.vertex_degree[v] for v in vertices},
        {h_new[h]: cover.half_edge_degree[h] for h in halves})
    issues = validate_harmonic(out)
    if issues:
        raise AssertionError(f"component restriction is not harmonic: {issues[0]}")
    return out


# ---------------------------------------------------------------------------
# Recillas construction (inverse of the trigonal construction)


@dataclass(frozen=True)
class RecillasResult:
    tower: Tower
    vertex_info: dict
    half_edge_info: dict


def recillas(p: HarmonicMorphism) -> RecillasResult:
    """From a generic degree-4 cover of a tree, build the free double cover
    of a trigonal graph whose points are 2-element subsets of the fibers.

    Each fiber is modeled on four slots partitioned by the fiber points;
    2-subsets are classified by the unordered pair of parts they touch,
    the complement gives the free involution, and class size is the
    local degree.
    """
    if p.global_degree() != 4:
        raise PreconditionError("degree-4", "Recillas construction needs a degree-4 cover")
    if not is_tree(p.target):
        raise PreconditionError("tree-base", "Recillas construction needs a tree base")
    base = p.target
    for point in base.points():
        classify_tetragonal_point(p, point)  # raises NonGenericError with the point

    slots = {}   # base point -> slot index -> fiber point id
    offsets = {}  # base point -> fiber point id -> first slot
    for point in base.points():
        kind, i = point
        fib = p.fiber_vertices(i) if kind == "v" else p.fiber_half_edges(i)
        assign, offs, pos = {}, {}, 0
        for x in fib:
            offs[x] = pos
            for _ in range(p.deg_point((kind, x))):
                assign[pos] = x
                pos += 1
        slots[point] = assign
        offsets[point] = offs

    def class_key(point, pair):
        a, b = sorted(pair)
        return tuple(sorted((slots[point][a], slots[point][b])))

    def classes(point):
        return sorted({class_key(point, pair) for pair in itertools.combinations(range(4), 2)})

    def class_size(point, key):
        return sum(1 for pair in itertools.combinations(range(4), 2)
                   if class_key(point, pair) == key)

    def complement_key(point, key):
        member = next(pair for pair in itertools.combinations(range(4), 2)
                      if class_key(point, pair) == key)
        rest = tuple(x for x in range(4) if x not in member)
        return class_key(point, rest)

    def slot_map_to(point_from, point_to, fiber_map):
        """Slot bijection induced by a part-respecting map of fiber points."""
        used = {x: 0 for x in offsets[point_to]}
        out = {}
        for s in range(4):
            target_pt = fiber_map[slots[point_from][s]]
            out[s] = offsets[point_to][target_pt] + used[target_pt]
            used[target_pt] += 1
        return out

    v_ids, v_info = {}, {}
    for v in base.vertices:
        for key in classes(vpoint(v)):
            idx = len(v_ids)
            v_ids[(v, key)] = idx
            v_info[idx] = (v, key)
    h_ids, h_info = {}, {}
    for h in base.half_edges:
        for key in classes(hpoint(h)):
            idx = len(h_ids)
            h_ids[(h, key)] = idx
            h_info[idx] = (h, key)

    root, partner = {}, {}
    for h in base.half_edges:
        v = base.root[h]
        root_map = slot_map_to(hpoint(h), vpoint(v),
                               {x: p.source.root[x] for x in offsets[hpoint(h)]})
        mate = base.partner[h]
        partner_map = slot_map_to(hpoint(h), hpoint(mate),
                                  {x: p.source.partner[x] for x in offsets[hpoint(h)]})
        for key in classes(hpoint(h)):
            members = [pair for pair in itertools.combinations(range(4), 2)
                       if class_key(hpoint(h), pair) == key]
            rooted = {class_key(vpoint(v), tuple(sorted(root_map[s] for s in m)))
                      for m in members}
            carried = {class_key(hpoint(mate), tuple(sorted(partner_map[s] for s in m)))
                       for m in members}
            if len(rooted) != 1 or len(carried) != 1:
                raise AssertionError("slot transport is not constant on a class")
            root[h_ids[(h, key)]] = v_ids[(v, rooted.pop())]
            partner[h_ids[(h, key)]] = h_ids[(mate, carried.pop())]

    total = Graph(tuple(range(len(v_ids))), root, partner)
    sextic = HarmonicMorphism(
        GraphMorphism(total, base,
                      {i: v for i, (v, key) in v_info.items()},
                      {i: h for i, (h, key) in h_info.items()}),
        {i: class_size(vpoint(v), key) for i, (v, key) in v_info.items()},
        {i: class_size(hpoint(h), key) for i, (h, key) in h_info.items()})
    issues = validate_harmonic(sextic)
    if issues:
        raise AssertionError(f"Recillas cover is not harmonic: {issues[0]}")
    if sextic.global_degree() != 6:
        raise AssertionError("Recillas cover must have degree 6")

    vperm = {i: v_ids[(v, complement_key(vpoint(v), key))] for i, (v, key) in v_info.items()}
    hperm = {i: h_ids[(h, complement_key(hpoint(h), key))] for i, (h, key) in h_info.items()}
    if any(vperm[i] == i for i in vperm) or any(hperm[i] == i for i in hperm):
        raise AssertionError("complement involution must be fixed-point-free on generic fibers")
    quot = involution_quotient(sextic, vperm, hperm)
    tower = Tower(quot.projection, quot.quotient_map)
    if not tower.pi.is_free():
        raise AssertionError("Recillas double cover must be free")
    if tower.f.global_degree() != 3:
        raise AssertionError("Recillas base map must have degree 3")
    return RecillasResult(tower, v_info, h_info)


# ---------------------------------------------------------------------------
# tetragonal splitting


@dataclass(frozen=True)
class TetragonalSplit:
    towers: tuple  # two towers, free double covers of generic quartic covers
    construction: NgonalConstruction


def tetragonal_split(t: Tower) -> TetragonalSplit:
    """Degree-4 construction of a free cover of a generic quartic graph over
    a tree: the output splits into two towers of the same kind, and every
    base point keeps its A/B/C type in both."""
    if t.f.global_degree() != 4:
        raise PreconditionError("degree-4", "tetragonal construction needs a degree-4 base map")
    if not t.pi.is_free():
        raise PreconditionError("free-cover", "tetragonal construction needs a free double cover")
    if not is_tree(t.base):
        raise PreconditionError("tree-base", "tetragonal construction needs a tree base")
    for point in t.base.points():
        classify_tetragonal_point(t.f, point)  # raises NonGenericError if (4) or (2,2)
    cons = ngonal_construct(t, 4)
    comps = connected_components(cons.orientation.source)
    if len(comps) != 2:
        raise AssertionError("orientation cover must split over a tree")
    vperm, hperm = cons.sign_involution
    towers = []
    for comp in comps:
        vertices = frozenset(v for v in cons.cover_to_base.source.vertices
                             if cons.to_orientation.v(v) in comp)
        part = _restrict_cover(cons.cover_to_base, vertices)
        order = sorted(vertices)
        back = {i: order[i] for i in range(len(order))}
        halves = sorted(h for h in cons.cover_to_base.source.half_edges
                        if cons.cover_to_base.source.root[h] in vertices)
        hback = {i: halves[i] for i in range(len(halves))}
        hforward = {h: i for i, h in hback.items()}
        vforward = {v: i for i, v in back.items()}
        sub_vperm = {i: vforward[vperm[back[i]]] for i in range(len(order))}
        sub_hperm = {i: hforward[hperm[hback[i]]] for i in range(len(halves))}
        if any(sub_vperm[i] == i for i in sub_vperm):
            raise AssertionError("sign involution has fixed points on a generic fiber")
        quot = involution_quotient(part, sub_vperm, sub_hperm)
        tower = Tower(quot.projection, quot.quotient_map)
        if not tower.pi.is_free():
            raise AssertionError("split towers must be free double covers")
        for point in t.base.points():
            if classify_tetragonal_point(tower.f, point) != classify_tetragonal_point(t.f, point):
                raise AssertionError(f"point type not preserved at {point}")
        towers.append(tower)
    return TetragonalSplit(tuple(towers), cons)
