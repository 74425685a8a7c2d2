"""Signed fibers, multisections, and the tropical n-gonal constructions.

The fiber of a tower over a point of the base is a list of parts (one
per mid-level preimage) carrying a local degree and a free/dilated
status.  A multisection splits each part's degree into a nonnegative
(plus, minus) pair; the section cover has one point per multisection,
with local degrees counting the sections inducing it.  Its points are
rooted and glued by carrying multisections along the fiber maps: into
the fiber over the root vertex, and bijectively onto the fiber over the
partner half-edge, with plus and minus aligned through the top level.
The orientation double cover is the sign quotient of the section cover,
its image under the multisection sign bit (0 over dilated points).

All of this depends only on the shape of a fiber (its parts' degrees and
dilations) and, for a transport, on the two shapes and how their parts
match and flip.  So a construction keeps, for the length of one call, a
table per fiber shape (multisections in order, their degrees, the sign
swap) and a table per kind of transport; a point's id is the first id
over its base point plus its position in the fiber.  Both are positional:
a multisection's position is a mixed-radix number over its parts' plus
counts, so a transport table (`_glue_table`), the sign swap (the fiber
glued onto itself, every free part flipped) and the degrees (products of
binomials) are plus-count arithmetic.  The tuple model of multisections
it replaced (`multisections`, `multisection_degree`,
`swap_multisection`), and the transport by `induce_multisection` along a
`Refinement` per half-edge, are the oracles in `tests/oracles.py`.  The
Recillas construction reads the same tables, since a 2-element subset of
a fiber is a plus-count-2 multisection of the trivial double cover.

Specializations: the degree-2 construction (involutive on generic
towers), the degree-3 construction and its inverse (from 2-element
subsets of quartic fibers), and the degree-4 splitting.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb, prod

from .graphs import (DoubleCover, Graph, GraphError, HarmonicMorphism,
                     NonGenericError, PreconditionError, Tower,
                     connected_components, genus, is_connected, is_tree,
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

    def is_free(self) -> bool:
        return all(not p.dilated for p in self.parts)


# ---------------------------------------------------------------------------
# fiber data of a tower


def tower_fiber(t: Tower, point) -> FiberDatum:
    kind, i = point
    if kind == "v":
        mids = t.f.fiber_vertices(i)
        return FiberDatum(tuple(
            FiberPart(x, t.f.deg_v(x), len(t.pi.fiber_vertices(x)) == 1) for x in mids))
    mids = t.f.fiber_half_edges(i)
    return FiberDatum(tuple(
        FiberPart(x, t.f.deg_h(x), len(t.pi.fiber_half_edges(x)) == 1) for x in mids))


def _check_harmonic(f: HarmonicMorphism, what: str) -> HarmonicMorphism:
    """Self-check of a morphism built here; raise if it is not harmonic."""
    issues = validate_harmonic(f)
    if issues:
        raise AssertionError(f"{what} is not harmonic: {issues[0]}")
    return f


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
    fibers: base point -> the tower's fiber over it, in base point order.
    """

    tower: Tower
    cover_to_base: HarmonicMorphism
    sign_involution: tuple  # (vertex permutation, half-edge permutation)
    orientation: HarmonicMorphism
    to_orientation: HarmonicMorphism
    vertex_info: dict
    half_edge_info: dict
    orientation_vertex_info: dict
    orientation_half_edge_info: dict
    fibers: dict

    def correspondence(self, h) -> list:
        """The (top half-edge, multiplicity) pairs of the correspondence Phi
        at section-cover half-edge h: for each part (x, plus, minus) of its
        multisection, plus times the first top half-edge over the mid
        half-edge x and minus times the second; a dilated part (x, d, 0) is
        d times its one lift."""
        lift = self.tower.pi.fiber_half_edges
        return [(y, m) for x, plus, minus in self.half_edge_info[h][1]
                for y, m in zip(lift(x), (plus, minus)) if m]


@dataclass(frozen=True)
class _ShapeTable:
    """What the construction reads of one fiber shape (the parts' degrees
    and dilations, in part order), positionally: each part's (plus, minus)
    splits by increasing plus, whose product lists the multisections in
    order, last part fastest, and per multisection its degree and the
    position of its sign swap."""

    splits: tuple
    degree: tuple
    swap: tuple

    def multisections(self, fd: FiberDatum) -> list:
        """The multisections of a fiber of this shape."""
        return list(itertools.product(*[[(p.part_id, plus, minus) for plus, minus in split]
                                        for p, split in zip(fd.parts, self.splits)]))


def _fiber_shape(fd: FiberDatum) -> tuple:
    return tuple((p.degree, p.dilated) for p in fd.parts)


def _shape_table(fd: FiberDatum) -> _ShapeTable:
    """The table of a fiber's shape, by plus-count arithmetic: a free part of
    degree d splits as (a, d - a), a = 0..d, in C(d, a) ways, a dilated one
    as (d, 0) only, in 2^d ways, so a degree is a product of these; the sign
    swap is the gluing of the fiber onto itself with every free part
    flipped."""
    splits, ways = [], []
    for p in fd.parts:
        d = p.degree
        splits.append(((d, 0),) if p.dilated else tuple((a, d - a) for a in range(d + 1)))
        ways.append((2 ** d,) if p.dilated else tuple(comb(d, a) for a in range(d + 1)))
    degree = tuple(map(prod, itertools.product(*ways)))
    swap = _glue_table(fd, fd, tuple(range(len(fd.parts))), (True,) * len(fd.parts))
    if sum(degree) != 2 ** sum(p.degree for p in fd.parts):
        raise AssertionError("the degrees of a fiber shape do not sum to 2^(total degree)")
    if any(swap[k] != j for j, k in enumerate(swap)):
        raise AssertionError("the sign swap of a fiber shape is not an involution")
    return _ShapeTable(tuple(splits), degree, swap)


def _glue_table(fine: FiberDatum, coarse: FiberDatum, place: tuple, flips: tuple) -> tuple:
    """Position in the coarse fiber of the multisection induced by each fine
    multisection, in order, when fine part j goes into coarse part place[j]
    with its plus and minus exchanged if flips[j].

    A position is a mixed-radix number over the parts' plus counts: radix
    degree + 1 for a free part and 1 for a dilated one, last part fastest,
    which is `_ShapeTable` order.  So a fine part with plus count a adds
    stride_k * (degree - a if flipped else a) to the position, k its coarse
    part (nothing if k is dilated), and each entry is one sum of these."""
    strides, stride = [], 1
    for q in reversed(coarse.parts):
        strides.append(0 if q.dilated else stride)
        stride *= 1 if q.dilated else q.degree + 1
    strides.reverse()
    sums = [0] * len(coarse.parts)
    steps = []
    for p, k, flip in zip(fine.parts, place, flips):
        if p.dilated and not coarse.parts[k].dilated:
            raise GraphError("a dilated part cannot refine a free part")
        sums[k] += p.degree
        plus = range(p.degree, -1, -1) if flip else range(p.degree + 1)
        steps.append((0,) if p.dilated else [strides[k] * a for a in plus])
    for q, total in zip(coarse.parts, sums):
        if total != q.degree:
            raise GraphError(f"refinement degree mismatch at coarse part {q.part_id}")
    return tuple(map(sum, itertools.product(*steps)))


def _number_points(ids, point, over) -> tuple:
    """Number the points over the base ids in order.  over(base point) gives
    the labels of the points over it, in order, their degrees and, for
    each, the position of its image under the construction's involution
    (sign swap or complement).  Returns (range of point ids per base id,
    id -> (base id, label), and image, degree and involution by point id)."""
    ranges, info, image, degree, swap = {}, {}, {}, {}, {}
    for x in ids:
        labels, degrees, swaps = over(point(x))
        at = len(info)
        here = ranges[x] = range(at, at + len(labels))
        info.update(zip(here, zip(itertools.repeat(x), labels)))
        image.update(dict.fromkeys(here, x))
        degree.update(zip(here, degrees))
        swap.update(zip(here, [at + k for k in swaps]))
    return ranges, info, image, degree, swap


def ngonal_construct(t: Tower, n: int) -> NgonalConstruction:
    """One point per multisection per base point, rooted and glued by
    carrying multisections along the fiber maps through the top level.

    Multisections, their degrees and sign swaps are read from one table per
    fiber shape, and the gluing from one `_glue_table` per pair of shapes,
    placement of fine parts and flips; point ids are a base point's first
    id plus a position in its fiber."""
    if n not in (2, 3, 4):
        raise PreconditionError("degree", "only degrees 2, 3, 4 are exposed")
    if t.f.global_degree() != n:
        raise PreconditionError("degree", f"tower has degree {t.f.global_degree()}, expected {n}")
    if not is_connected(t.base):
        raise PreconditionError("connected", "base must be connected")
    base = t.base

    fibers = {p: tower_fiber(t, p) for p in base.points()}
    shapes, shape_of, transports = {}, {}, {}
    place_of = {"v": {}, "h": {}}  # mid point -> position of its part in its fiber
    for (kind, _), fd in fibers.items():
        place_of[kind].update((p.part_id, j) for j, p in enumerate(fd.parts))

    def over(point):
        fd = fibers[point]
        shape = shape_of[point] = _fiber_shape(fd)
        if shape not in shapes:
            shapes[shape] = _shape_table(fd)
        table = shapes[shape]
        return table.multisections(fd), table.degree, table.swap

    v_ids, v_info, vmap, vdeg, vperm = _number_points(base.vertices, vpoint, over)
    h_ids, h_info, hmap, hdeg, hperm = _number_points(base.half_edges, hpoint, over)
    # a free fine part flips when the first of its two top preimages goes to
    # the second top preimage of its image
    top_halves = t.pi.fiber_half_edges
    ids = {"v": v_ids, "h": h_ids}
    root, partner = {}, {}
    moves = ((root, vpoint, base.root, t.mid.root, t.top.root, t.pi.fiber_vertices),
             (partner, hpoint, base.partner, t.mid.partner, t.top.partner, top_halves))
    for h in base.half_edges:
        here = hpoint(h)
        fine = fibers[here]
        for glue, point, base_move, move, top_move, top_fiber in moves:
            there = kind, target = point(base_move[h])
            coarse = fibers[there]
            images = [move[p.part_id] for p in fine.parts]
            to = tuple(map(place_of[kind].__getitem__, images))
            flips = tuple(not p.dilated and not coarse.parts[k].dilated
                          and top_move[top_halves(p.part_id)[0]] == top_fiber(x)[1]
                          for p, x, k in zip(fine.parts, images, to))
            key = (shape_of[here], shape_of[there], to, flips)
            if key not in transports:
                transports[key] = _glue_table(fine, coarse, to, flips)
            at = ids[kind][target].start
            glue.update(zip(h_ids[h], [at + k for k in transports[key]]))

    total = Graph(tuple(range(len(v_info))), root, partner)
    cover = _check_harmonic(HarmonicMorphism(total, base, vmap, hmap, vdeg, hdeg),
                            "constructed cover")
    if cover.global_degree() != 2 ** n:
        raise AssertionError("constructed cover has the wrong degree")

    for i in total.half_edges:
        j = hperm[i]
        if hperm[partner[i]] != partner[j] or vperm[root[i]] != root[j]:
            raise AssertionError("sign involution is not a graph automorphism")
        if hdeg[j] != hdeg[i]:
            raise AssertionError("sign involution does not preserve degrees")

    orientation, to_orient, ov_info, oh_info = _sign_quotient(n, fibers, cover, v_info, h_info)
    return NgonalConstruction(t, cover, (vperm, hperm), orientation, to_orient,
                              v_info, h_info, ov_info, oh_info, fibers)


def _sign_quotient(n, fibers, cover, v_info, h_info):
    """The orientation cover and the quotient map onto it, as the image of
    the section cover under the multisection sign bit (0 over dilated
    points): one point of degree 2 over each dilated base point, two
    sign-labeled points of degree 1 over each free one.  Every member of a
    class must glue the class to the same root and partner."""
    plus = operator.itemgetter(1)

    def classes(info, ids, point):
        free = {x: fibers[point(x)].is_free() for x in ids}
        label = {i: (x, sum(map(plus, ms)) % 2 if free[x] else 0) for i, (x, ms) in info.items()}
        return label, {c: 1 if free[c[0]] else 2 for c in sorted(set(label.values()))}

    vlabel, vdeg = classes(v_info, cover.target.vertices, vpoint)
    hlabel, hdeg = classes(h_info, cover.target.half_edges, hpoint)
    orientation, q = _quotient(cover, vlabel, hlabel, vdeg, hdeg, "sign")
    _check_harmonic(orientation, "orientation cover")
    _check_harmonic(q, "sign quotient")
    if q.global_degree() != 2 ** (n - 1):
        raise AssertionError("sign quotient has the wrong degree")
    return orientation, q, dict(enumerate(vdeg)), dict(enumerate(hdeg))


def _quotient(cover, vclass, hclass, vdeg, hdeg, what):
    """(quotient -> base, source -> quotient) for the quotient of the source
    of `cover` by classes of its points, not yet checked harmonic.  vclass
    and hclass give each source point its class label; vdeg and hdeg give
    each label, in the order of the quotient's ids, its degree over the
    base.  A point maps onto its class with its own degree divided by the
    class's, and every member of a class must glue it the same way."""
    src = cover.source
    vid = {c: i for i, c in enumerate(vdeg)}
    hid = {c: i for i, c in enumerate(hdeg)}
    vmap = {v: vid[c] for v, c in vclass.items()}
    hmap = {h: hid[c] for h, c in hclass.items()}
    root, partner = {}, {}
    src_root, src_partner = src.root, src.partner
    for i in src.half_edges:
        c, at, mate = hmap[i], vmap[src_root[i]], hmap[src_partner[i]]
        if root.setdefault(c, at) != at or partner.setdefault(c, mate) != mate:
            raise AssertionError(f"{what} class {list(hdeg)[c]} is glued differently by its members")
    graph = Graph(tuple(range(len(vid))), root, partner)
    to_base = HarmonicMorphism(
        graph, cover.target, {vmap[v]: cover.v(v) for v in vmap}, {hmap[h]: cover.h(h) for h in hmap},
        dict(enumerate(vdeg.values())), dict(enumerate(hdeg.values())))
    proj = HarmonicMorphism(
        src, graph, vmap, hmap, {v: cover.vertex_degree[v] // vdeg[c] for v, c in vclass.items()},
        {h: cover.half_edge_degree[h] // hdeg[c] for h, c in hclass.items()})
    return to_base, proj


# ---------------------------------------------------------------------------
# quotient by the sign involution


def involution_quotient(cover: HarmonicMorphism, vperm: dict, hperm: dict) -> Tower:
    """Quotient a harmonic morphism by a sign involution over the same base:
    the tower of the projection onto the quotient and the quotient's map
    onto the base.

    Orbits of size two map with their shared degree; fixed points halve
    their degree downstairs and the projection has degree 2 there.
    """
    src = cover.source

    def orbits(ids, perm, degree, what):
        """(point -> orbit label, orbit label -> degree over the base)."""
        label = {x: min(x, perm[x]) for x in ids}
        odeg = {}
        for c in sorted(set(label.values())):
            d = degree[c]
            if perm[c] == c and d % 2:
                raise GraphError(f"fixed {what} has odd degree; quotient undefined")
            odeg[c] = d // 2 if perm[c] == c else d
        return label, odeg

    vorbit, vdeg = orbits(src.vertices, vperm, cover.vertex_degree, "vertex")
    horbit, hdeg = orbits(src.half_edges, hperm, cover.half_edge_degree, "half-edge")
    quotient, proj = _quotient(cover, vorbit, horbit, vdeg, hdeg, "involution")
    _check_harmonic(quotient, "involution quotient")
    return Tower(DoubleCover.from_harmonic(proj), quotient)


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
    return _bigonal_type(tower_fiber(t, point), point)


def _bigonal_type(fd: FiberDatum, point) -> str:
    """Type I-V of the fiber fd over a base point, by its profile."""
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


def _require(t: Tower, n: int, name: str, free: bool) -> None:
    """The preconditions of the degree-n construction `name`, in order: a
    degree-n base map, a free double cover (if `free`), a tree base."""
    if t.f.global_degree() != n:
        raise PreconditionError(f"degree-{n}", f"{name} construction needs a degree-{n} base map")
    if free and not t.pi.is_free():
        raise PreconditionError("free-cover", f"{name} construction needs a free double cover")
    if not is_tree(t.base):
        raise PreconditionError("tree-base", f"{name} construction needs a tree base")


@dataclass(frozen=True)
class BigonalResult:
    tower: Tower
    construction: NgonalConstruction
    input_types: dict
    output_types: dict


def bigonal(t: Tower) -> BigonalResult:
    """Degree-2 construction: a tower of the same shape over the same tree.

    Point types map I -> I, II -> III, III -> II, IV -> IV, V -> I; on
    generic towers the construction is an involution up to isomorphism.
    """
    _require(t, 2, "bigonal", free=False)
    cons = ngonal_construct(t, 2)
    vperm, hperm = cons.sign_involution
    out = involution_quotient(cons.cover_to_base, vperm, hperm)
    input_types = {p: _bigonal_type(fd, p) for p, fd in cons.fibers.items()}
    output_types = {p: classify_bigonal_point(out, p) for p in input_types}
    for p, label in input_types.items():
        if output_types[p] != BIGONAL_TYPE_MAP[label]:
            raise AssertionError(f"bigonal type map failed at {p}: {label} -> {output_types[p]}")
    return BigonalResult(out, cons, input_types, output_types)


# ---------------------------------------------------------------------------
# trigonal construction


@dataclass(frozen=True)
class TrigonalResult:
    quartic: HarmonicMorphism  # the even component, a generic degree-4 cover
    construction: NgonalConstruction
    half_edge_ids: dict  # section-cover half-edge -> its id on the quartic curve


def trigonal(t: Tower) -> TrigonalResult:
    """Degree-3 construction of a free cover over a tree: the total cover
    splits into two components exchanged by the sign involution; the even
    one is a generic degree-4 cover of the base."""
    _require(t, 3, "trigonal", free=True)
    cons = ngonal_construct(t, 3)
    orient = cons.orientation
    comps = connected_components(orient.source)
    if len(comps) != 2:
        raise AssertionError("orientation cover of a free tower over a tree must split")
    base_min = t.base.vertices[0]
    plus_vertex = next(i for i, (v, s) in cons.orientation_vertex_info.items()
                       if v == base_min and s == 0)
    even_comp = next(c for c in comps if plus_vertex in c)
    to_orientation = cons.to_orientation.vmap
    vertices = frozenset(v for v in cons.cover_to_base.source.vertices
                         if to_orientation[v] in even_comp)
    other = frozenset(cons.cover_to_base.source.vertices) - vertices
    vperm, hperm = cons.sign_involution
    if {vperm[v] for v in vertices} != other:
        raise AssertionError("sign involution does not exchange the two components")
    quartic, _, half_edge_ids = _restrict_cover(cons.cover_to_base, vertices)
    if quartic.global_degree() != 4:
        raise AssertionError("even component does not have degree 4")
    for point in t.base.points():
        classify_tetragonal_point(quartic, point)  # profiles (1^4), (2,1,1), (3,1) only
    if is_connected(t.top) != is_connected(quartic.source):
        raise AssertionError("component connectivity does not match the top curve")
    if is_connected(quartic.source) and genus(quartic.source) != genus(t.mid) - 1:
        raise AssertionError("constructed quartic curve has the wrong genus")
    return TrigonalResult(quartic, cons, half_edge_ids)


def _restrict_cover(cover: HarmonicMorphism, vertices: frozenset) -> tuple:
    """Restrict to a union of connected components, relabeling densely;
    returns the restriction and the vertex and half-edge relabelings."""
    src = cover.source
    halves = [h for h in src.half_edges if src.root[h] in vertices]
    v_new = {v: i for i, v in enumerate(sorted(vertices))}
    h_new = {h: i for i, h in enumerate(sorted(halves))}
    graph = Graph(tuple(range(len(v_new))),
                  {h_new[h]: v_new[src.root[h]] for h in halves},
                  {h_new[h]: h_new[src.partner[h]] for h in halves})
    out = _check_harmonic(HarmonicMorphism(
        graph, cover.target, {v_new[v]: cover.vmap[v] for v in vertices},
        {h_new[h]: cover.hmap[h] for h in halves}, {v_new[v]: cover.vertex_degree[v] for v in vertices},
        {h_new[h]: cover.half_edge_degree[h] for h in halves}), "component restriction")
    return out, v_new, h_new


# ---------------------------------------------------------------------------
# Recillas construction (inverse of the trigonal construction)


@dataclass(frozen=True)
class RecillasResult:
    tower: Tower
    vertex_info: dict
    half_edge_info: dict


def _pair_layer(profile: tuple) -> tuple:
    """The 2-element subsets of a fiber whose points have these local
    degrees: the multisections of plus count 2 of the free fiber whose part
    j has degree profile[j], last first, so that their pairs of fiber
    positions come sorted.  Returns that fiber and, per subset, its position
    among the multisections, its pair, its local degree and the layer index
    of its complement (its sign swap)."""
    fd = FiberDatum(tuple(FiberPart(j, d, False) for j, d in enumerate(profile)))
    table = _shape_table(fd)
    mss = table.multisections(fd)
    at = [k for k in reversed(range(len(mss))) if sum(plus for _, plus, _ in mss[k]) == 2]
    index = {k: i for i, k in enumerate(at)}
    return (fd, tuple(at), tuple(tuple(j for j, plus, _ in mss[k] for _ in range(plus)) for k in at),
            tuple(table.degree[k] for k in at), tuple(index[table.swap[k]] for k in at))


def _pair_transport(fine: tuple, coarse: tuple, fiber_map: tuple) -> tuple:
    """For each subset of the `_pair_layer` fine, the index in the layer
    coarse of its image when fiber position j goes to fiber_map[j]: the
    `_glue_table` with no flips, which adds plus counts."""
    glue = _glue_table(fine[0], coarse[0], fiber_map, (False,) * len(fiber_map))
    index = {k: i for i, k in enumerate(coarse[1])}
    carried = tuple(index.get(glue[k]) for k in fine[1])
    if None in carried:
        raise AssertionError("gluing leaves the plus-count-2 layer")
    return carried


def recillas(p: HarmonicMorphism) -> RecillasResult:
    """From a generic degree-4 cover of a tree, build the free double cover
    of a trigonal graph whose points are 2-element subsets of the fibers.

    A 2-element subset is a plus-count-2 multisection of the trivial double
    cover over its fiber: its degree, complement (the free involution) and
    gluing are read from `_pair_layer` and `_pair_transport`, once per
    fiber profile and per pair of profiles and map of fiber positions.
    """
    if p.global_degree() != 4:
        raise PreconditionError("degree-4", "Recillas construction needs a degree-4 cover")
    if not is_tree(p.target):
        raise PreconditionError("tree-base", "Recillas construction needs a tree base")
    base = p.target
    for point in base.points():
        classify_tetragonal_point(p, point)  # raises NonGenericError with the point

    fibers = {vpoint(v): p.fiber_vertices(v) for v in base.vertices}
    fibers.update((hpoint(h), p.fiber_half_edges(h)) for h in base.half_edges)
    degree = {"v": p.vertex_degree, "h": p.half_edge_degree}
    profile = {point: tuple(map(degree[point[0]].__getitem__, fib)) for point, fib in fibers.items()}
    position = {point: {x: j for j, x in enumerate(fib)} for point, fib in fibers.items()}
    layers, transports = {key: _pair_layer(key) for key in set(profile.values())}, {}

    def over(point):
        fib, (_, _, pairs, degrees, complements) = fibers[point], layers[profile[point]]
        return [(fib[a], fib[b]) for a, b in pairs], degrees, complements

    v_ids, v_info, vmap, vdeg, vperm = _number_points(base.vertices, vpoint, over)
    h_ids, h_info, hmap, hdeg, hperm = _number_points(base.half_edges, hpoint, over)
    root, partner = {}, {}
    for h in base.half_edges:
        here, v, mate = hpoint(h), base.root[h], base.partner[h]
        for glue, move, there, at in ((root, p.source.root, vpoint(v), v_ids[v].start),
                                      (partner, p.source.partner, hpoint(mate),
                                       h_ids[mate].start)):
            fiber_map = tuple(position[there][move[x]] for x in fibers[here])
            key = (profile[here], profile[there], fiber_map)
            if key not in transports:
                transports[key] = _pair_transport(layers[key[0]], layers[key[1]], fiber_map)
            glue.update(zip(h_ids[h], [at + c for c in transports[key]]))

    total = Graph(tuple(range(len(v_info))), root, partner)
    sextic = _check_harmonic(HarmonicMorphism(total, base, vmap, hmap, vdeg, hdeg),
                             "Recillas cover")
    if sextic.global_degree() != 6:
        raise AssertionError("Recillas cover must have degree 6")
    if any(vperm[i] == i for i in vperm) or any(hperm[i] == i for i in hperm):
        raise AssertionError("complement involution must be fixed-point-free on generic fibers")
    tower = involution_quotient(sextic, vperm, hperm)
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
    _require(t, 4, "tetragonal", free=True)
    # raises NonGenericError if (4) or (2,2)
    types = {point: classify_tetragonal_point(t.f, point) for point in t.base.points()}
    cons = ngonal_construct(t, 4)
    comps = connected_components(cons.orientation.source)
    if len(comps) != 2:
        raise AssertionError("orientation cover must split over a tree")
    vperm, hperm = cons.sign_involution
    towers = []
    for comp in comps:
        vertices = frozenset(v for v in cons.cover_to_base.source.vertices
                             if cons.to_orientation.vmap[v] in comp)
        part, v_new, h_new = _restrict_cover(cons.cover_to_base, vertices)
        sub_vperm = {i: v_new[vperm[v]] for v, i in v_new.items()}
        sub_hperm = {i: h_new[hperm[h]] for h, i in h_new.items()}
        if any(sub_vperm[i] == i for i in sub_vperm):
            raise AssertionError("sign involution has fixed points on a generic fiber")
        tower = involution_quotient(part, sub_vperm, sub_hperm)
        if not tower.pi.is_free():
            raise AssertionError("split towers must be free double covers")
        for point, label in types.items():
            if classify_tetragonal_point(tower.f, point) != label:
                raise AssertionError(f"point type not preserved at {point}")
        towers.append(tower)
    return TetragonalSplit(tuple(towers), cons)
