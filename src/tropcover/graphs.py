"""Half-edge graphs, harmonic morphisms, double covers and towers.

A graph is a finite set of vertices together with a finite set of
half-edges, a root map sending each half-edge to the vertex it is
attached to, and a fixed-point-free involution pairing half-edges into
edges.  Loops and parallel edges are allowed.  A "point" of a graph is
either a vertex or a half-edge; points are written as tagged pairs
``('v', id)`` / ``('h', id)``.

All objects are immutable values; every operation returns new objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Structurally invalid input (bad ids, non-composable maps, ...)."""


class PreconditionError(ValueError):
    """A named hypothesis of an operation is violated."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition
        self.message = message


class NonGenericError(PreconditionError):
    """A dilation profile forbidden by a genericity hypothesis, naming the point."""

    def __init__(self, point, profile):
        super().__init__("generic", f"point {point} has dilation profile {profile}")
        self.point = point
        self.profile = profile


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: tuple
    message: str

    def __str__(self):
        return f"[{self.code}] at {self.where}: {self.message}"


def vpoint(v: int) -> tuple:
    return ("v", v)


def hpoint(h: int) -> tuple:
    return ("h", h)


@dataclass(frozen=True)
class Graph:
    """Immutable half-edge graph.

    vertices: vertex ids (any ints, kept sorted).
    root: half-edge id -> vertex id.
    partner: half-edge id -> half-edge id, the edge-pairing involution.
    """

    vertices: tuple
    root: dict
    partner: dict
    _half_edges: tuple = field(init=False, compare=False, repr=False, default=None)
    _tangent: dict = field(init=False, compare=False, repr=False, default=None)
    _edge_keys: tuple = field(init=False, compare=False, repr=False, default=None)
    # the fundamental-cycle basis of `jacprym.h1_basis`, kept on first use
    _cycle_basis: object = field(init=False, compare=False, repr=False, default=None)
    # the components of the whole graph, kept by `_components` on first use
    _components: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        root = self.root
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "_half_edges", tuple(sorted(root)))
        tangent = {v: [] for v in self.vertices}
        at = tangent.get
        for h, r in zip(self._half_edges, map(root.__getitem__, self._half_edges)):
            hs = at(r)
            if hs is not None:
                hs.append(h)
        object.__setattr__(self, "_tangent", {v: tuple(hs) for v, hs in tangent.items()})
        keys = tuple(sorted(h for h, p in self.partner.items() if h <= p and h in root))
        object.__setattr__(self, "_edge_keys", keys)

    @property
    def half_edges(self) -> tuple:
        return self._half_edges

    def edge_keys(self) -> tuple:
        """Canonical edge ids: the smaller half-edge of each pair."""
        return self._edge_keys

    def edge_key(self, h: int) -> int:
        return min(h, self.partner[h])

    def valence(self, v: int) -> int:
        return len(self._tangent[v])

    def edge_ends(self, key: int) -> tuple:
        """(tail, head) with the edge oriented out of its smaller half-edge."""
        return self.root[key], self.root[self.partner[key]]

    def points(self) -> tuple:
        return tuple(vpoint(v) for v in self.vertices) + tuple(hpoint(h) for h in self.half_edges)

    @classmethod
    def from_edges(cls, n_vertices, edge_list):
        """Build a graph on vertices 0..n_vertices-1 from (tail, head) pairs;
        edge i gets half-edges 2i, 2i+1.

        Returns (graph, edge_keys) with edge_keys[i] = 2i.
        """
        root = dict(enumerate(end for u, v in edge_list for end in (u, v)))
        graph = cls(tuple(range(n_vertices)), root, {h: h ^ 1 for h in root})
        return graph, tuple(range(0, len(root), 2))


def validate_graph(g: Graph) -> list:
    """Check the half-edge graph axioms; one issue per violation."""
    issues = []
    root, partner, partner_get = g.root, g.partner, g.partner.get
    vset = set(g.vertices)
    for h in sorted(root):
        if root[h] not in vset:
            issues.append(ValidationIssue("root-missing", hpoint(h), f"root {root[h]} is not a vertex"))
    if partner.keys() != root.keys():
        issues.append(ValidationIssue("partner-domain", (), "partner map domain differs from half-edge set"))
    for h in sorted(partner):
        p = partner[h]
        if p == h:
            issues.append(ValidationIssue("partner-fixed-point", hpoint(h), "fixed point of involution"))
        elif partner_get(p) != h:
            issues.append(ValidationIssue("partner-not-involution", hpoint(h), f"partner({p}) != {h}"))
    return issues


def _bfs(g: Graph, start, vertices=None, keys=None) -> tuple:
    """Breadth-first search from start, in tangent order.

    Only vertices in `vertices` and edges with key in `keys` are used (None:
    all).  Returns (visit order, parent) where parent maps each visited
    vertex but start to the half-edge rooted at it that leads back toward
    start.
    """
    order, parent = [start], {}
    tangent, root, partner = g._tangent, g.root, g.partner
    for v in order:
        for h in tangent[v]:
            back = partner[h]
            w = root[back]
            if w == start or w in parent or (keys is not None and min(h, back) not in keys) \
                    or (vertices is not None and w not in vertices):
                continue
            parent[w] = back
            order.append(w)
    return order, parent


def _bfs_components(g: Graph, vertices=None, keys=None) -> list:
    """Visit orders of the components of the subgraph _bfs walks, by minimum
    vertex; `_components` keeps those of the whole graph."""
    comps, seen = [], set()
    for start in (g.vertices if vertices is None else sorted(vertices)):
        if start not in seen:
            comps.append(_bfs(g, start, vertices, keys)[0])
            seen.update(comps[-1])
    return comps


def _components(g: Graph) -> tuple:
    """The visit orders of the components of g, by minimum vertex, kept on g."""
    if g._components is None:
        object.__setattr__(g, "_components", tuple(map(tuple, _bfs_components(g))))
    return g._components


def connected_components(g: Graph) -> tuple:
    """Vertex partition into connected components, sorted by minimum vertex."""
    return tuple(map(frozenset, _components(g)))


def is_connected(g: Graph) -> bool:
    return len(_components(g)) == 1


def genus(g: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    if not is_connected(g):
        raise PreconditionError("connected", "genus requires connected graph")
    return len(g.edge_keys()) - len(g.vertices) + 1


def is_tree(g: Graph) -> bool:
    return is_connected(g) and genus(g) == 0


def validate_morphism(f: HarmonicMorphism) -> list:
    """The maps send exactly the source's ids into the target and commute with root and partner."""
    issues = []
    s, t = f.source, f.target
    vget, hget = f.vmap.get, f.hmap.get
    t_vertices, t_root, t_partner_get = set(t.vertices), t.root, t.partner.get
    for v in s.vertices:
        if vget(v) not in t_vertices:
            issues.append(ValidationIssue("vmap", vpoint(v), "vertex image missing"))
    if len(f.vmap) > len(s.vertices):
        issues.append(ValidationIssue("vmap-domain", (), "vertex map has keys that are not vertices"))
    s_root, s_partner_get = s.root, s.partner.get
    for h in s.half_edges:
        img = hget(h)
        if img not in t_root:
            issues.append(ValidationIssue("hmap", hpoint(h), "half-edge image missing"))
            continue
        if vget(s_root[h]) != t_root[img]:
            issues.append(ValidationIssue("root-commute", hpoint(h), "does not commute with root"))
        if hget(s_partner_get(h)) != t_partner_get(img):
            issues.append(ValidationIssue("partner-commute", hpoint(h), "does not commute with involution"))
    if len(f.hmap) > len(s.half_edges):
        issues.append(ValidationIssue("hmap-domain", (), "half-edge map has keys that are not half-edges"))
    return issues


def _preimages(image: dict, ids) -> dict:
    """ids grouped by their image (None if missing), each group in the order of ids."""
    groups = {}
    add, get = groups.setdefault, image.get
    for x in ids:
        add(get(x), []).append(x)
    return {y: tuple(xs) for y, xs in groups.items()}


@dataclass(frozen=True)
class HarmonicMorphism:
    """Vertex and half-edge maps commuting with root and partner, with
    positive integer local degrees.

    vmap: source vertex -> target vertex; hmap: source half-edge -> target
    half-edge; vertex_degree: vertex id -> degree; half_edge_degree:
    half-edge id -> degree (equal on the two halves of an edge).
    """

    source: Graph
    target: Graph
    vmap: dict
    hmap: dict
    vertex_degree: dict
    half_edge_degree: dict
    # fiber index, built once: target id -> ascending source ids over it, for
    # vertices and half-edges, and on first use for edge keys (an edge by the
    # image of its key half)
    _fibers: tuple = field(init=False, compare=False, repr=False, default=None)
    _edge_fibers: dict = field(init=False, compare=False, repr=False, default=None)
    # validate_harmonic's issues, found on its first call
    _issues: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        s = self.source
        object.__setattr__(self, "_fibers", (_preimages(self.vmap, s.vertices),
                                             _preimages(self.hmap, s.half_edges)))

    def v(self, x):
        return self.vmap[x]

    def h(self, x):
        return self.hmap[x]

    def deg_v(self, v) -> int:
        return self.vertex_degree[v]

    def deg_h(self, h) -> int:
        return self.half_edge_degree[h]

    def deg_point(self, p) -> int:
        kind, i = p
        return self.vertex_degree[i] if kind == "v" else self.half_edge_degree[i]

    def fiber_vertices(self, v) -> tuple:
        return self._fibers[0].get(v, ())

    def fiber_half_edges(self, h) -> tuple:
        return self._fibers[1].get(h, ())

    def fiber_edges(self, key) -> tuple:
        """Source edge keys over a target edge key."""
        by_half = self._edge_fibers
        if by_half is None:
            by_half = _preimages(self.hmap, self.source.edge_keys())
            object.__setattr__(self, "_edge_fibers", by_half)
        return tuple(sorted(k for h in {key, self.target.partner[key]} for k in by_half.get(h, ())))

    def global_degree(self) -> int:
        if not self.target.vertices:
            raise GraphError("global degree of a morphism onto the empty graph")
        return sum(self.vertex_degree[x] for x in self.fiber_vertices(self.target.vertices[0]))

    def fiber_profile(self, p) -> tuple:
        """Sorted (descending) local degrees over a target point."""
        kind, i = p
        fib = self.fiber_vertices(i) if kind == "v" else self.fiber_half_edges(i)
        return tuple(sorted((self.deg_point((kind, x)) for x in fib), reverse=True))


def validate_harmonic(f: HarmonicMorphism) -> list:
    """Check the maps, edge-degree consistency and the local balancing
    equation; a morphism is scanned once, each call returns a fresh list.

    These imply one global degree over a connected target (Baker-Norine
    2009), so no scan of fiber degree sums follows: the sum over a target
    half-edge equals that over its root, where root-commute places every
    half-edge over it and each source vertex carries its degree on them,
    and that over its partner, a degree-keeping bijection of the fibers.
    """
    if f._issues is None:
        object.__setattr__(f, "_issues", tuple(_harmonic_issues(f)))
    return list(f._issues)


def _harmonic_issues(f: HarmonicMorphism) -> list:
    issues = validate_morphism(f)
    s, t = f.source, f.target
    vdeg, hdeg = f.vertex_degree, f.half_edge_degree
    vdeg_get, hdeg_get, s_partner_get = vdeg.get, hdeg.get, s.partner.get
    for v in s.vertices:
        if vdeg_get(v, 0) < 1:
            issues.append(ValidationIssue("degree-positive", vpoint(v), "vertex degree must be >= 1"))
    if len(vdeg) > len(s.vertices):
        issues.append(ValidationIssue("vertex-degree-domain", (),
                                      "vertex degree map has keys that are not vertices"))
    for h in s.half_edges:
        d = hdeg_get(h, 0)
        if d < 1:
            issues.append(ValidationIssue("degree-positive", hpoint(h), "half-edge degree must be >= 1"))
        elif d != hdeg_get(s_partner_get(h), 0):
            issues.append(ValidationIssue("edge-degree", hpoint(h), "degrees differ on the two halves"))
    if len(hdeg) > len(s.half_edges):
        issues.append(ValidationIssue("half-edge-degree-domain", (),
                                      "half-edge degree map has keys that are not half-edges"))
    if issues:
        return issues
    vmap, hmap, s_tangent, t_tangent = f.vmap, f.hmap, s._tangent, t._tangent
    fromkeys = dict.fromkeys
    for v in s.vertices:
        over = fromkeys(t_tangent[vmap[v]], 0)
        for h in s_tangent[v]:
            over[hmap[h]] += hdeg[h]
        d = vdeg[v]
        for hprime, total in over.items():
            if total != d:
                issues.append(ValidationIssue(
                    "local-harmonicity", (vpoint(v), hpoint(hprime)),
                    f"deg(v)={d} but half-edge degrees over it sum to {total}"))
    return issues


def double_cover_issues(f: HarmonicMorphism) -> list:
    """One issue per target point over which the degrees of f do not sum to
    2, vertices first; a harmonic f without one is a double cover."""
    (vfibers, hfibers), vdeg, hdeg = f._fibers, f.vertex_degree, f.half_edge_degree
    sums = [(vpoint(v), sum(map(vdeg.__getitem__, vfibers.get(v, ())))) for v in f.target.vertices]
    sums += [(hpoint(h), sum(map(hdeg.__getitem__, hfibers.get(h, ())))) for h in f.target.half_edges]
    return [ValidationIssue("double-cover-degree", p, f"fiber degree sum {d}, not 2")
            for p, d in sums if d != 2]


def compose_harmonic(f: HarmonicMorphism, g: HarmonicMorphism) -> HarmonicMorphism:
    """g after f, with local degrees multiplying pointwise."""
    if f.target != g.source:
        raise GraphError("compose_harmonic: target of first morphism is not source of second")
    fv, fh, gv, gh = f.vmap, f.hmap, g.vmap, g.hmap
    fvd, fhd, gvd, ghd = f.vertex_degree, f.half_edge_degree, g.vertex_degree, g.half_edge_degree
    vmap = {v: gv[fv[v]] for v in f.source.vertices}
    hmap = {h: gh[fh[h]] for h in f.source.half_edges}
    vd = {v: fvd[v] * gvd[fv[v]] for v in f.source.vertices}
    hd = {h: fhd[h] * ghd[fh[h]] for h in f.source.half_edges}
    return HarmonicMorphism(f.source, g.target, vmap, hmap, vd, hd)


@dataclass(frozen=True)
class DoubleCover(HarmonicMorphism):
    """Harmonic morphism of degree 2 over every point, with its sheet-swap
    involution and its dilated vertices and edge keys.

    A target point is free (two degree-1 preimages, swapped) or dilated
    (one degree-2 preimage, fixed).
    """

    vertex_invol: dict
    half_edge_invol: dict
    dilated_vertices: frozenset
    dilated_edge_keys: frozenset

    def __post_init__(self):
        """Builds no fiber index: `from_harmonic` hands over its input's."""

    def is_free(self) -> bool:
        return not self.dilated_vertices and not self.dilated_edge_keys

    @classmethod
    def from_harmonic(cls, f: HarmonicMorphism) -> "DoubleCover":
        """The double cover with the maps of f, its involution and dilation
        read off the fibers.  It has f's maps, so it keeps f's fiber index
        and `validate_harmonic` scan instead of building them again.  The
        involution commutes with root and partner unchecked: each fiber is
        a degree-1 pair or a degree-2 point, local harmonicity puts the
        lifts of a free half-edge at the lifts of its root (both, if that
        is dilated) and a degree-2 half-edge at a degree-2 root, and
        partner keeps degrees and is injective."""
        issues = validate_harmonic(f)
        if issues:
            raise GraphError(f"double cover is not harmonic: {issues[0]}")
        if f.global_degree() != 2:
            raise GraphError(f"double cover must have global degree 2, got {f.global_degree()}")
        uneven = double_cover_issues(f)
        if uneven:
            raise GraphError("double cover must have degree 2 over every point, "
                             f"not over {uneven[0].where}")
        t = f.target
        vinv, hinv, dil_v, dil_h = {}, {}, set(), set()
        for ids, fiber, inv, dil in ((t.vertices, f.fiber_vertices, vinv, dil_v),
                                     (t.half_edges, f.fiber_half_edges, hinv, dil_h)):
            for x in ids:
                fib = fiber(x)
                if len(fib) == 1:
                    inv[fib[0]] = fib[0]
                    dil.add(x)
                else:
                    a, b = fib
                    inv[a], inv[b] = b, a
        cov = cls(f.source, t, f.vmap, f.hmap, f.vertex_degree, f.half_edge_degree,
                  vinv, hinv, frozenset(dil_v), frozenset(map(t.edge_key, dil_h)))
        for name in ("_fibers", "_issues"):
            object.__setattr__(cov, name, getattr(f, name))
        return cov


@dataclass(frozen=True)
class Tower:
    """A double cover followed by a degree-n harmonic morphism onto a base."""

    pi: DoubleCover
    f: HarmonicMorphism

    def __post_init__(self):
        if self.pi.target != self.f.source:
            raise GraphError("tower: target of double cover is not source of base map")

    @property
    def top(self) -> Graph:
        return self.pi.source

    @property
    def mid(self) -> Graph:
        return self.f.source

    @property
    def base(self) -> Graph:
        return self.f.target

    def composed(self) -> HarmonicMorphism:
        return compose_harmonic(self.pi, self.f)


@dataclass(frozen=True)
class DilationData:
    """Dilation subgraph of a double cover's target and its lattice invariants."""

    m_d: int
    n_d: int
    components: int
    A: int
    B: int
    C: int


def dilation_data(c: DoubleCover) -> DilationData:
    """Count the dilation subgraph; A and B control the Prym polarization type.

    For a free cover the convention A = g(target) - 1, B = C = 0 applies.
    """
    if c.global_degree() != 2:
        raise GraphError("dilation_data requires a cover of global degree 2")
    if not is_connected(c.source):
        raise PreconditionError("connected", "dilation_data requires connected source")
    t = c.target
    g_t = genus(t)
    g_s = genus(c.source)
    dil_v, dil_e = c.dilated_vertices, c.dilated_edge_keys
    if c.is_free():
        return DilationData(0, 0, 0, g_t - 1, 0, 0)
    m_d, n_d = len(dil_e), len(dil_v)
    d = len(_bfs_components(t, dil_v, dil_e))
    A = g_t - m_d + n_d - d
    B = d - 1
    C = m_d - n_d + d
    if A + B != g_s - g_t:
        raise GraphError(f"dilation invariants inconsistent: A+B={A + B} but g difference is {g_s - g_t}")
    return DilationData(m_d, n_d, d, A, B, C)


@dataclass(frozen=True)
class SpanningTree:
    root_vertex: int
    tree_keys: frozenset
    complement_keys: tuple
    up_half: dict  # child vertex -> half-edge rooted at the child, leading to its parent


def spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic BFS spanning tree from the smallest vertex id.

    Complementary edges are returned sorted by edge key; there are
    exactly genus(g) of them.
    """
    if not g.vertices:
        raise PreconditionError("connected", "spanning tree of the empty graph")
    tree = _bfs_tree(g)
    if len(tree.up_half) + 1 != len(g.vertices):
        raise PreconditionError("connected", "spanning tree requires connected graph")
    return tree


def _bfs_tree(g: Graph, keys=None) -> SpanningTree:
    """BFS tree from the smallest vertex through the edges in keys (None: all);
    it spans only the component of that vertex."""
    start = g.vertices[0]
    up_half = _bfs(g, start, keys=keys)[1]
    tree = frozenset(g.edge_key(h) for h in up_half.values())
    return SpanningTree(start, tree, tuple(k for k in g.edge_keys() if k not in tree), up_half)


def path_from_root(g: Graph, tree: SpanningTree, v: int) -> dict:
    """Edge chain from the tree root to v (boundary v - root)."""
    chain = {}
    while v != tree.root_vertex:
        h = tree.up_half[v]
        k = g.edge_key(h)
        sign = 1 if h == k else -1  # traversing v -> parent
        chain[k] = chain.get(k, 0) - sign
        v = g.root[g.partner[h]]
    return {k: c for k, c in chain.items() if c}


def fundamental_cycles(g: Graph, tree: SpanningTree) -> tuple:
    """One cycle per complementary edge, as edge-key coefficient dicts.

    Each cycle traverses its complementary edge once in the canonical
    orientation and returns through the tree.
    """
    return tuple(fundamental_cycle(g, tree, k) for k in tree.complement_keys)


def fundamental_cycle(g: Graph, tree: SpanningTree, k) -> dict:
    """Edge k in its canonical orientation, closed up through the tree."""
    tail, head = g.edge_ends(k)
    chain = {k: 1}
    for kk, c in path_from_root(g, tree, tail).items():
        chain[kk] = chain.get(kk, 0) + c
    for kk, c in path_from_root(g, tree, head).items():
        chain[kk] = chain.get(kk, 0) - c
    return {kk: c for kk, c in sorted(chain.items()) if c}


def chain_boundary(g: Graph, chain: dict) -> dict:
    bd = {}
    for k, c in chain.items():
        tail, head = g.edge_ends(k)
        bd[head] = bd.get(head, 0) + c
        bd[tail] = bd.get(tail, 0) - c
    return {v: c for v, c in bd.items() if c}


def iter_cover_isomorphisms(f1: HarmonicMorphism, f2: HarmonicMorphism, involutions=()):
    """All degree-preserving isomorphisms phi with f2 . phi = f1.

    phi also intertwines each pair (i1, i2) of half-edge involutions of the
    two sources, after the partner pair: a fixed point of i1 goes to a fixed
    point of i2, and once i1(h1) is placed, h1 -> h2 forces i1(h1) -> i2(h2).
    Fiberwise backtracking over half-edges; fibers are tiny so the naive
    search is ample.  The search keeps an explicit stack of candidate
    iterators, one per placed half-edge, so its depth is not bounded by
    the recursion limit.  Yields (vmap, hmap) pairs.
    """
    if f1.target != f2.target:
        raise GraphError("cover isomorphism requires identical target graphs")
    if any(f1.fiber_profile(p) != f2.fiber_profile(p) for p in f1.target.points()):
        return
    s1, s2 = f1.source, f2.source
    pairs = ((s1.partner, s2.partner),) + tuple(involutions)
    halves1 = sorted(s1.half_edges, key=lambda h: (f1.h(h), h))
    vmap, hmap, used_v, used_h = {}, {}, set(), set()

    def intertwines(h1, h2):
        for i1, i2 in pairs:
            p1, p2 = i1[h1], i2[h2]
            if (p1 == h1) != (p2 == h2) or (p1 in hmap and hmap[p1] != p2):
                return False
        return True

    hdeg1, hdeg2, vdeg1, vdeg2 = (f1.half_edge_degree, f2.half_edge_degree,
                                  f1.vertex_degree, f2.vertex_degree)

    def candidates(h1):
        """Images of h1 consistent with the partial map at the time each is drawn."""
        r1, d1 = s1.root[h1], hdeg1[h1]
        for h2 in f2.fiber_half_edges(f1.h(h1)):
            if h2 in used_h or hdeg2[h2] != d1:
                continue
            r2 = s2.root[h2]
            new_v = None
            if r1 in vmap:
                if vmap[r1] != r2:
                    continue
            else:
                if r2 in used_v or vdeg2[r2] != vdeg1[r1]:
                    continue
                new_v = (r1, r2)
            if intertwines(h1, h2):
                yield h1, h2, new_v

    def finish(vmap, hmap):
        # isolated vertices: match within (target vertex, degree) classes
        left = [v for v in s1.vertices if v not in vmap]
        if not left:
            yield dict(vmap), dict(hmap)
            return
        used = set(vmap.values())
        classes = {}
        for v in left:
            classes.setdefault((f1.v(v), f1.deg_v(v)), []).append(v)
        pools = []
        for key, vs in sorted(classes.items()):
            tgt = [x for x in f2.fiber_vertices(key[0]) if f2.deg_v(x) == key[1] and x not in used]
            if len(tgt) != len(vs):
                return
            pools.append((vs, tgt))
        for assignment in itertools.product(*[itertools.permutations(t) for _, t in pools]):
            full = dict(vmap)
            for (vs, _), perm in zip(pools, assignment):
                for v, x in zip(vs, perm):
                    full[v] = x
            yield full, dict(hmap)

    if not halves1:
        yield from finish(vmap, hmap)
        return
    stack, placed = [candidates(halves1[0])], []
    while stack:
        if len(placed) == len(stack):  # undo the choice made at this depth
            h1, h2, new_v = placed.pop()
            del hmap[h1]
            used_h.discard(h2)
            if new_v:
                del vmap[new_v[0]]
                used_v.discard(new_v[1])
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            continue
        h1, h2, new_v = choice
        hmap[h1] = h2
        used_h.add(h2)
        if new_v:
            vmap[new_v[0]] = new_v[1]
            used_v.add(new_v[1])
        placed.append(choice)
        if len(placed) == len(halves1):
            yield from finish(vmap, hmap)
        else:
            stack.append(candidates(halves1[len(placed)]))


def covers_isomorphic_over_base(f1: HarmonicMorphism, f2: HarmonicMorphism):
    """First source isomorphism commuting with the maps and degrees, or None."""
    for vmap, hmap in iter_cover_isomorphisms(f1, f2):
        _check_cover_iso(f1, f2, vmap, hmap)
        return vmap, hmap
    return None


def _check_cover_iso(f1, f2, vmap, hmap):
    s1, s2 = f1.source, f2.source
    if sorted(vmap) != list(s1.vertices) or sorted(vmap.values()) != list(s2.vertices):
        raise AssertionError("cover isomorphism is not a vertex bijection")
    vdeg1, vdeg2, hdeg1, hdeg2 = (f1.vertex_degree, f2.vertex_degree,
                                  f1.half_edge_degree, f2.half_edge_degree)
    for v in s1.vertices:
        x = vmap[v]
        if f2.vmap[x] != f1.vmap[v] or vdeg2[x] != vdeg1[v]:
            raise AssertionError(f"cover isomorphism moves vertex {v} off its image or degree")
    for h in s1.half_edges:
        x = hmap[h]
        if f2.hmap[x] != f1.hmap[h] or hdeg2[x] != hdeg1[h]:
            raise AssertionError(f"cover isomorphism moves half-edge {h} off its image or degree")
        if hmap[s1.partner[h]] != s2.partner[x]:
            raise AssertionError(f"cover isomorphism does not commute with partner at {h}")
        if vmap[s1.root[h]] != s2.root[x]:
            raise AssertionError(f"cover isomorphism does not commute with root at {h}")


def towers_isomorphic(t1: Tower, t2: Tower):
    """Simultaneous isomorphism at both levels commuting with the maps, or None.

    One search: the top map is an isomorphism of the composed covers over
    the base that commutes with the deck involutions, and the mid map is
    read off through pi, phi_mid(pi1(x)) = pi2(phi_top(x)).  On half-edges
    that is well defined by the involution; on vertices a conflict can
    only come from isolated vertices, and skips that candidate.  Returns
    ((vmid, hmid), (vtop, htop)).
    """
    if t1.base != t2.base:
        raise GraphError("tower isomorphism requires identical base graphs")
    c1, c2 = t1.composed(), t2.composed()
    p1, p2 = t1.pi, t2.pi
    for vtop, htop in iter_cover_isomorphisms(
            c1, c2, [(p1.half_edge_invol, p2.half_edge_invol)]):
        hpairs = set(zip(map(p1.hmap.__getitem__, htop), map(p2.hmap.__getitem__, htop.values())))
        vpairs = set(zip(map(p1.vmap.__getitem__, vtop), map(p2.vmap.__getitem__, vtop.values())))
        hmid, vmid = dict(hpairs), dict(vpairs)
        if len(hmid) != len(hpairs):
            raise AssertionError("top map sends a mid half-edge to two places")
        if len(vmid) == len(vpairs) == len(set(vmid.values())):
            _check_cover_iso(c1, c2, vtop, htop)
            _check_cover_iso(t1.f, t2.f, vmid, hmid)
            return (vmid, hmid), (vtop, htop)
    return None


def _double_cover_morphism(g: Graph, dilated_vertices, dilated_edge_keys,
                           bits: dict) -> HarmonicMorphism:
    """The maps of a double cover of g with prescribed dilation and
    monodromy, unchecked.

    Free points get two sheet-labeled preimages; a half-edge h of a free
    edge attaches its sheet-s lift to sheet s xor bits[h] of its root
    (0 where bits has no h).  Dilated edges must end at dilated vertices.
    The sheet-s lift of a point is its first id plus s, so a fiber lists
    the lifts in sheet order.
    """
    dil_v = set(dilated_vertices)
    root, partner = g.root, g.partner
    dil_h = set()
    for k in set(dilated_edge_keys):
        for end in g.edge_ends(k):
            if end not in dil_v:
                raise GraphError(f"dilated edge {k} has a free endpoint {end}")
        dil_h.update((k, partner[k]))
    vfirst, vmap, vdeg, hfirst, hmap, hdeg = {}, {}, {}, {}, {}, {}
    for ids, dil, first, image, deg in ((g.vertices, dil_v, vfirst, vmap, vdeg),
                                        (g.half_edges, dil_h, hfirst, hmap, hdeg)):
        for x in ids:
            i = first[x] = len(image)
            if x in dil:
                image[i], deg[i] = x, 2
            else:
                image[i] = image[i + 1] = x
                deg[i] = deg[i + 1] = 1
    s_root, s_partner = {}, {}
    for i, h in hmap.items():
        s, r = i - hfirst[h], root[h]
        s_root[i] = vfirst[r] + (0 if r in dil_v else s ^ bits.get(h, 0))
        s_partner[i] = hfirst[partner[h]] + s
    return HarmonicMorphism(Graph(tuple(range(len(vmap))), s_root, s_partner), g, vmap, hmap,
                            vdeg, hdeg)


def _harmonic_from_edges(n_vertices, edge_spec, target: Graph, vmap: dict) -> HarmonicMorphism:
    """Morphism from an edge list (tail, head, target_edge_key, degree),
    unchecked.

    Half-edges 2i, 2i+1 of edge i map onto target half k and its partner,
    whose roots vmap must give (tail, head); vertex degrees are derived
    from local harmonicity.
    """
    graph, _keys = Graph.from_edges(n_vertices, [(u, v) for (u, v, _k, _d) in edge_spec])
    t_root, t_partner = target.root, target.partner
    hmap, hdeg = {}, {}
    for a, (u, v, k, d) in zip(range(0, 2 * len(edge_spec), 2), edge_spec):
        p = t_partner[k]
        ends = (t_root[k], t_root[p])
        if (vmap[u], vmap[v]) != ends:
            raise GraphError(f"edge {a // 2} does not lie over target edge {k}")
        hmap[a], hmap[a + 1] = k, p
        hdeg[a] = hdeg[a + 1] = d
    vdeg = {}
    for v, hs in graph._tangent.items():
        if not hs:
            raise GraphError(f"vertex {v} is isolated; cannot derive its degree")
        target_half = hmap[hs[0]]
        vdeg[v] = sum(hdeg[x] for x in hs if hmap[x] == target_half)
    return HarmonicMorphism(graph, target, dict(vmap), hmap, vdeg, hdeg)


def _check_edge_spec(f: HarmonicMorphism) -> HarmonicMorphism:
    """f, if harmonic; else a GraphError naming its first issue."""
    issues = validate_harmonic(f)
    if issues:
        raise GraphError(f"edge spec is not harmonic: {issues[0]}")
    return f
