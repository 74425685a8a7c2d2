"""Cycle bases, Jacobians, transfer maps, Prym varieties, theorem checks.

Homology classes of a graph are edge-coefficient dicts over the
canonical edge orientation (out of the smaller half-edge).  The Jacobian
pairs cycles through exact edge lengths; the Prym variety of a double
cover is the identity component of the norm kernel with its induced
polarization and its canonical principal rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul, sub

from . import intlinalg as la
from .graphs import (DoubleCover, Graph, GraphError, GraphMorphism,
                     HarmonicMorphism, PreconditionError, SpanningTree, Tower,
                     _bfs, _bfs_components, _bfs_tree, chain_boundary,
                     dilation_data, fundamental_cycle, fundamental_cycles, genus,
                     is_connected, is_tree, spanning_tree)
from .metrics import MetricGraph, induce_metric, is_inf, validate_metric_harmonic
from .ngonal import bigonal, classify_bigonal_point, trigonal
from .tori import (IntegralTorus, KernelTorus, Polarization, PrincipalModel,
                   TorusHom, dual_polarization, dual_type, polarized_isomorphic)


class NonGenericTower(PreconditionError):
    def __init__(self, point):
        super().__init__("generic", f"point {point} has type V (dilation collapse)")
        self.point = point


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning tree; the coordinates of a cycle are
    its coefficients on the complementary edges."""

    graph: Graph
    tree: SpanningTree
    cycles: tuple  # edge-key coefficient dicts

    @property
    def rank(self) -> int:
        return len(self.cycles)

    def coordinates(self, chain: dict) -> tuple:
        if chain_boundary(self.graph, chain):
            raise GraphError("coordinates of a non-closed chain")
        return self._closed_coordinates(chain)

    def _closed_coordinates(self, chain: dict) -> tuple:
        """`coordinates` of a chain the caller knows to be closed."""
        return tuple(map(chain.get, self.tree.complement_keys, repeat(0)))

    def from_coordinates(self, coords) -> dict:
        chain = {}
        for c, cyc in zip(coords, self.cycles):
            for k, x in cyc.items():
                chain[k] = chain.get(k, 0) + c * x
        return {k: v for k, v in sorted(chain.items()) if v}


def h1_basis(graph: Graph) -> CycleBasis:
    """The fundamental cycles of `spanning_tree(graph)`, built once per
    graph object and kept on it; callers share it and must not change its
    cycle dicts."""
    if graph._cycle_basis is None:
        tree = spanning_tree(graph)
        basis = CycleBasis(graph, tree, fundamental_cycles(graph, tree))
        object.__setattr__(graph, "_cycle_basis", basis)
    return graph._cycle_basis


def cycle_pairing(metric: MetricGraph, a: dict, b: dict) -> Fraction:
    """Integration pairing sum_e a_e b_e len(e)."""
    total = Fraction(0)
    for k, c in a.items():
        other = b.get(k, 0)
        if other:
            length = metric.length[k]
            if is_inf(length):
                raise GraphError("cycle pairing across an infinite edge")
            total += c * other * length
    return total


def pairing_table(metric: MetricGraph, rows, cols) -> tuple:
    return tuple(tuple(cycle_pairing(metric, r, c) for c in cols) for r in rows)


@dataclass(frozen=True)
class Jacobian:
    torus: IntegralTorus
    polarization: Polarization  # the identity map: the pairing is the Gram form
    basis: CycleBasis
    metric: MetricGraph


def _certified_gram(metric: MetricGraph, basis: CycleBasis) -> tuple:
    """(D, integer rows) of the Gram B^T diag(len) B / D of the cycle basis.

    B is the edge-by-cycle incidence.  Its certificate of positive
    definiteness is checked on the way, in O(nnz): every cycle has
    coefficient 1 on its own complement edge and 0 on the other complement
    edges, so B restricted to those edges is the identity, and every edge
    a cycle runs through has a finite positive length.  Then x^T G x =
    sum_e len(e) (B x)_e^2 > 0 for every x != 0.
    """
    keys = basis.tree.complement_keys
    if len(keys) != len(basis.cycles):
        raise AssertionError("cycle basis does not have one cycle per complement edge")
    complement = set(keys)
    incidence = {}  # edge key -> [(cycle index, coefficient)]
    for i, (own, cyc) in enumerate(zip(keys, basis.cycles)):
        if cyc.get(own) != 1 or any(c and k in complement and k != own for k, c in cyc.items()):
            raise AssertionError("fundamental cycle is not a unit vector on the complement edges")
        for k, c in cyc.items():
            if c:
                incidence.setdefault(k, []).append((i, c))
    lengths = {}
    for k in incidence:
        length = metric.length[k]
        if is_inf(length):
            raise GraphError("cycle pairing across an infinite edge")
        if not length > 0:
            raise GraphError(f"jacobian: edge {k} of a cycle has length {length}, not > 0")
        lengths[k] = Fraction(length)
    d = lcm(*(x.denominator for x in lengths.values()))
    gram = [[0] * len(keys) for _ in keys]
    for k, entries in incidence.items():
        scaled = lengths[k].numerator * (d // lengths[k].denominator)
        for i, a in entries:
            row, w = gram[i], a * scaled
            for j, b in entries:
                row[j] += w * b
    return d, la.mat(gram)


def jacobian(metric: MetricGraph) -> Jacobian:
    """Principally polarized torus on H1 with the edge-length pairing.

    The Gram is built in integers and certified positive definite by the
    fundamental-cycle structure (`_certified_gram`), so no elimination runs.
    """
    if not is_connected(metric.graph):
        raise PreconditionError("connected", "jacobian requires a connected graph")
    basis = h1_basis(metric.graph)
    d, gram = _certified_gram(metric, basis)
    torus = IntegralTorus._from_int_form(d, gram, positive=True)
    return Jacobian(torus, Polarization(torus, la.identity(basis.rank)), basis, metric)


# ---------------------------------------------------------------------------
# chain-level transfer maps of a double cover


def push_chain(cover: DoubleCover, chain: dict) -> dict:
    """Chain map of the covering projection."""
    f = cover.cover
    out = {}
    for k, c in chain.items():
        img_half = f.h(k)
        key = f.target.edge_key(img_half)
        sign = 1 if img_half == key else -1
        out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in sorted(out.items()) if v}


def pull_chain(cover: DoubleCover, chain: dict) -> dict:
    """Pullback of 1-forms: a free edge lifts to both preimages, a dilated
    edge to twice its single preimage."""
    f = cover.cover
    out = {}
    for k, c in chain.items():
        for up in f.fiber_edges(k):
            sign = 1 if f.h(up) == k else -1
            out[up] = out.get(up, 0) + sign * c * f.deg_edge(up)
    return {k: v for k, v in sorted(out.items()) if v}


def invol_chain(cover: DoubleCover, chain: dict) -> dict:
    g = cover.source
    out = {}
    for k, c in chain.items():
        img_half = cover.half_edge_invol[k]
        key = g.edge_key(img_half)
        sign = 1 if img_half == key else -1
        out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in sorted(out.items()) if v}


def chain_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in sorted(out.items()) if v}


def chain_scale(c: int, a: dict) -> dict:
    return {k: c * v for k, v in sorted(a.items())} if c else {}


def chain_halve(a: dict) -> dict:
    if any(v % 2 for v in a.values()):
        raise AssertionError("chain is not divisible by 2")
    return {k: v // 2 for k, v in sorted(a.items()) if v}


@dataclass(frozen=True)
class TransferMaps:
    """Pushforward, pullback and involution action on H1 as matrices in the
    chosen cycle bases; pullback @ pushforward = I + involution."""

    pushforward: tuple  # g(target) x g(source)
    pullback: tuple     # g(source) x g(target)
    involution: tuple   # g(source) x g(source)
    source_basis: CycleBasis
    target_basis: CycleBasis


def transfer_maps(cover: DoubleCover) -> TransferMaps:
    """The transfer maps in the cycle bases of source and target.

    The images of cycles are read off without a boundary check: they are
    closed because `DoubleCover.from_harmonic` has checked the chain maps
    against the boundary.  The pushforward commutes with it since the cover
    commutes with root (`validate_harmonic`, "root-commute"); the boundary
    of a pullback at v is deg(v) times that of the chain at its image, by
    local harmonicity; the involution commutes with root and partner
    (`_check_involution`).
    """
    if not is_connected(cover.source) or not is_connected(cover.target):
        raise PreconditionError("connected", "transfer maps require connected source and target")
    sb = h1_basis(cover.source)
    tb = h1_basis(cover.target)
    push = la._columns_to_matrix([tb._closed_coordinates(push_chain(cover, c)) for c in sb.cycles],
                                 tb.rank)
    pull = la._columns_to_matrix([sb._closed_coordinates(pull_chain(cover, c)) for c in tb.cycles],
                                 sb.rank)
    invol = la._columns_to_matrix([sb._closed_coordinates(invol_chain(cover, c)) for c in sb.cycles],
                                  sb.rank)
    composite = la.int_matmul(pull, push) if tb.rank else la.zeros(sb.rank, sb.rank)
    # pull @ push == I + invol, read as pull @ push - invol == I
    if not la.is_diagonal(tuple(tuple(map(sub, c, v)) for c, v in zip(composite, invol)),
                          (1,) * sb.rank):
        raise AssertionError("transfer maps violate pullback @ pushforward = I + involution")
    return TransferMaps(push, pull, invol, sb, tb)


def norm_hom(cover: DoubleCover, source_metric: MetricGraph, target_metric: MetricGraph,
             maps: TransferMaps = None) -> TorusHom:
    """Norm homomorphism Jac(source) -> Jac(target) of a double cover.

    Adjointness for the two Jacobian pairings is the projection formula,
    re-verified exactly by the TorusHom constructor.
    """
    if validate_metric_harmonic(cover.cover, source_metric, target_metric):
        raise GraphError("norm_hom: metrics are not compatible with the cover")
    maps = maps or transfer_maps(cover)
    src = jacobian(source_metric)
    tgt = jacobian(target_metric)
    return TorusHom(src.torus, tgt.torus, maps.pullback, maps.pushforward)


@dataclass(frozen=True)
class PrymData:
    """Norm-kernel torus with its induced polarization and principal model."""

    cover: DoubleCover
    torus: IntegralTorus
    polarization: Polarization
    type: tuple
    principal: PrincipalModel
    kernel: object
    norm: TorusHom
    maps: TransferMaps
    dilation: object

    @property
    def rank(self) -> int:
        return self.torus.rank


def _minus(u, v) -> tuple:
    return tuple(map(sub, u, v))


def prym(cover: DoubleCover, source_metric: MetricGraph, target_metric: MetricGraph) -> PrymData:
    """Identity component of the norm kernel; polarization type (1^B, 2^A).

    Built in the involution-adapted bases.  T holds the coordinates of
    (beta, alpha+, alpha-, gamma_top) in the top cycle basis and must have
    an integral inverse.  The second lattice is spanned by (beta, alpha+ -
    alpha-); the first is H1 modulo the saturated image of the pullback,
    projected by the beta rows of T^-1 and the alpha+ minus alpha- rows,
    with section (beta, alpha+).  The induced polarization is then exactly
    diag(1^B, 2^A), and scaling pairing row i by a_i / a_max gives the
    principal model.
    """
    if not is_connected(cover.source):
        raise PreconditionError("connected", "prym requires a connected source")
    maps = transfer_maps(cover)
    nm = norm_hom(cover, source_metric, target_metric, maps)
    basis = symmetric_basis(cover)
    dil = dilation_data(cover)
    g, nb, na = nm.source.rank, len(basis.beta), len(basis.alpha_plus)
    if not basis._top_coordinates or basis._top_coordinates[0] is not maps.source_basis:
        raise AssertionError("adapted basis without the integral inverse of verify()")
    _, cols, t_inv = basis._top_coordinates
    beta, plus, minus = cols[:nb], cols[nb:nb + na], cols[nb + na:nb + 2 * na]
    kernel = la._columns_to_matrix(beta + [_minus(u, v) for u, v in zip(plus, minus)], g)
    reps = la._columns_to_matrix(beta + plus, g)
    proj = t_inv[:nb] + tuple(_minus(t_inv[nb + i], t_inv[nb + na + i]) for i in range(na))
    ptype = (1,) * dil.B + (2,) * dil.A
    k = nb + na
    d, top_gram = nm.source._int_form
    if k:
        # G K = (K^T G)^T, G being symmetric (its Polarization checked it)
        kernel_t = la.transpose(kernel)
        gk = la.transpose(la.int_matmul(kernel_t, top_gram))
        pairing = la.int_matmul(la.transpose(reps), gk)
        x = la.int_matmul(proj, kernel)
        kgk = la.int_matmul(kernel_t, gk)
    else:
        pairing = x = kgk = ()
    if not la.is_diagonal(x, ptype):
        raise AssertionError(f"adapted Prym polarization != diag(1^{dil.B}, 2^{dil.A})")
    if k != genus(cover.source) - genus(cover.target):
        raise AssertionError("Prym rank differs from the genus difference")
    # K is anti-invariant and G invariant under the involution, so alpha+ -
    # alpha- pairs with K as 2 alpha+ does: K^T G K == diag(type) R^T G K.
    # G is positive definite and K injective (proj K = diag(type)), so K^T
    # G K is positive definite, and the leading minors of the pairing are
    # positive multiples of its own
    scaled = tuple(row if a == 1 else tuple(map(mul, repeat(a), row))
                   for a, row in zip(ptype, pairing))
    if kgk != scaled:
        raise AssertionError("K^T G K != diag(type) * Prym pairing")
    torus = IntegralTorus._from_int_form(d, pairing, positive=True)
    ker = KernelTorus(torus, TorusHom(torus, nm.source, proj, kernel), proj, reps, kernel)
    pol = Polarization(torus, x)
    big = max(ptype, default=1)
    # the pairing with row i scaled by a_i / big, which is K^T G K / big
    pp_torus = IntegralTorus._from_int_form(d * big, scaled, positive=True)
    eye = la.identity(k)
    zeta = Polarization(pp_torus, eye)
    to_original = TorusHom(pp_torus, torus, la.diag([big // a for a in ptype]), eye)
    # zeta.matrix is I, so the law reads f* x == diag(big, ..., big)
    if not la.is_diagonal(la.int_matmul(la.int_matmul(to_original.pull, x), to_original.push),
                          (big,) * k):
        raise AssertionError("principal model: pulled-back polarization != multiplier * I")
    return PrymData(cover, torus, pol, ptype, PrincipalModel(zeta, to_original, big),
                    ker, nm, maps, dil)


def tower_metrics(tower: Tower, base_metric: MetricGraph):
    """(mid metric, top metric) induced from the base through the tower."""
    mid = induce_metric(tower.f, base_metric)
    top = induce_metric(tower.pi.cover, mid)
    return mid, top


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: object
    details: dict

    def __bool__(self):
        return self.passed


def check_bigonal_duality(tower: Tower, base_metric: MetricGraph) -> CheckResult:
    """The norm-kernel tori of a generic hyperelliptic-cover tower and of its
    reconstruction are dual polarized tori; verified by complete search."""
    if tower.f.global_degree() != 2:
        raise PreconditionError("degree-2", "tower must be a double cover of a hyperelliptic graph")
    if not is_tree(tower.base):
        raise PreconditionError("tree-base", "base must be a tree")
    for p in tower.base.points():
        if classify_bigonal_point(tower, p) == "V":
            raise NonGenericTower(p)
    if not is_connected(tower.top):
        raise PreconditionError("top-connected", "source curve is disconnected")
    result = bigonal(tower)
    out = result.tower
    if not is_connected(out.top):
        raise PreconditionError(
            "output-connected",
            "constructed curve is disconnected (the input double cover is free)")
    mid1, top1 = tower_metrics(tower, base_metric)
    mid2, top2 = tower_metrics(out, base_metric)
    prym1 = prym(tower.pi, top1, mid1)
    prym2 = prym(out.pi, top2, mid2)
    # the duality exchanges the 1s and 2s of the type; the multiplier is the
    # covering degree 2, which equals a_1 * a_g whenever the type is mixed
    if prym1.type != dual_type(prym2.type, multiplier=2):
        return CheckResult(False, None, {
            "reason": "polarization types are not dual",
            "types": (prym1.type, prym2.type)})
    dual2 = dual_polarization(prym2.polarization, multiplier=2)
    witness = polarized_isomorphic(prym1.polarization, dual2.polarized)
    return CheckResult(witness is not None, witness, {
        "types": (prym1.type, prym2.type),
        "pairing": prym1.torus.pairing,
        "dual_pairing": dual2.dual_torus.pairing,
        "construction": result})


def check_trigonal_prym(tower: Tower, base_metric: MetricGraph) -> CheckResult:
    """Prym(top/mid) == Jac(constructed quartic curve) as principally
    polarized tori, verified by complete isometry search."""
    if tower.f.global_degree() != 3:
        raise PreconditionError("degree-3", "tower must cover a trigonal graph")
    if not tower.pi.is_free():
        raise PreconditionError("free-cover", "double cover must be free")
    if not is_tree(tower.base):
        raise PreconditionError("tree-base", "base must be a tree")
    if not is_connected(tower.top):
        raise PreconditionError("top-connected", "source curve is disconnected")
    tri = trigonal(tower)
    mid_m, top_m = tower_metrics(tower, base_metric)
    prym_data = prym(tower.pi, top_m, mid_m)
    jac = jacobian(induce_metric(tri.quartic, base_metric))
    if jac.torus.rank != prym_data.rank:
        raise AssertionError("dimension mismatch between Jacobian and Prym")
    witness = polarized_isomorphic(prym_data.principal.polarized, jac.polarization)
    return CheckResult(witness is not None, witness, {
        "prym_gram": prym_data.principal.polarized.gram(),
        "jacobian_gram": jac.torus.pairing,
        "quartic": tri})


# ---------------------------------------------------------------------------
# involution-adapted homology bases


@dataclass(frozen=True)
class SymmetricBasis:
    """Homology bases adapted to the involution of a double cover.

    Top cycles: alpha_plus[i] and alpha_minus[i] are swapped by the
    involution and push to alpha[i]; beta[j] are anti-invariant with
    pushforward zero; gamma_top[k] are invariant lifts of the dilation
    cycles gamma[k].  A connected free cover has one gamma pair and no
    betas; a dilated cover has B = (components - 1) betas.
    """

    cover: DoubleCover
    alpha_plus: tuple
    alpha_minus: tuple
    beta: tuple
    gamma_top: tuple
    alpha: tuple
    gamma: tuple
    # (h1_basis of the top graph, columns of T, T^-1) once verify() has run,
    # T the matrix whose columns are the coordinates of (beta, alpha_plus,
    # alpha_minus, gamma_top) in that basis
    _top_coordinates: tuple = field(init=False, compare=False, repr=False, default=None)

    def verify(self):
        cov = self.cover
        free = cov.is_free()
        for ap, am, a in zip(self.alpha_plus, self.alpha_minus, self.alpha):
            if invol_chain(cov, ap) != am or invol_chain(cov, am) != ap:
                raise AssertionError("involution does not swap an alpha pair")
            if push_chain(cov, ap) != a or push_chain(cov, am) != a:
                raise AssertionError("an alpha pair does not push to its alpha")
            if pull_chain(cov, a) != chain_sum(ap, am):
                raise AssertionError("an alpha does not pull back to its pair")
        for b in self.beta:
            if invol_chain(cov, b) != chain_scale(-1, b):
                raise AssertionError("a beta is not anti-invariant")
            if push_chain(cov, b) != {}:
                raise AssertionError("a beta has nonzero pushforward")
        for gt, g in zip(self.gamma_top, self.gamma):
            if invol_chain(cov, gt) != gt:
                raise AssertionError("a gamma lift is not invariant")
            if free:
                if push_chain(cov, gt) != chain_scale(2, g):
                    raise AssertionError("a free gamma lift does not push to 2 gamma")
                if pull_chain(cov, g) != gt:
                    raise AssertionError("a free gamma does not pull back to its lift")
            else:
                if push_chain(cov, gt) != g:
                    raise AssertionError("a dilated gamma lift does not push to gamma")
                if pull_chain(cov, g) != chain_scale(2, gt):
                    raise AssertionError("a dilated gamma does not pull back to 2 lifts")
        top_basis = h1_basis(cov.source)
        mid_basis = h1_basis(cov.target)
        chains = self.beta + self.alpha_plus + self.alpha_minus + self.gamma_top
        if len(chains) != top_basis.rank:
            raise AssertionError("top basis has the wrong size")
        cols = [top_basis.coordinates(c) for c in chains]
        mid = [mid_basis.coordinates(c) for c in self.alpha + self.gamma]
        if len(mid) != mid_basis.rank:
            raise AssertionError("mid basis has the wrong size")
        # one sparse inversion of diag(T, mid) proves both unimodular (an
        # integer matrix with an integral inverse has determinant +-1);
        # prym reuses the columns of T and the top-left block, T^-1
        g, h = top_basis.rank, mid_basis.rank
        block = tuple(row + (0,) * h for row in la._columns_to_matrix(cols, g)) + \
            tuple((0,) * g + row for row in mid)
        try:
            block_inv = la.unimodular_inverse(block)
        except ValueError:
            raise AssertionError("top or mid basis is not unimodular") from None
        top_inv = tuple(row[:g] for row in block_inv[:g])
        object.__setattr__(self, "_top_coordinates", (top_basis, cols, top_inv))
        return True


def symmetric_basis(cover: DoubleCover) -> SymmetricBasis:
    """Involution-adapted bases, following the two constructive cases.

    Free: lift a spanning tree to the two sheets, join them by one
    crossing complementary lift; the remaining fundamental cycles give
    the alpha pairs and the invariant gamma.  Dilated: collapse each
    dilation component to a vertex with a loop (lifting to a parallel
    pair), run the free construction there, drop the artificial edges
    and close the alpha chains inside the dilation subgraph.
    """
    basis = _symmetric_basis_free(cover) if cover.is_free() else _symmetric_basis_dilated(cover)
    basis.verify()
    return basis


def _symmetric_basis_free(cover: DoubleCover) -> SymmetricBasis:
    if not is_connected(cover.source):
        raise PreconditionError("connected", "symmetric basis of a free cover requires a connected source")
    tgt, src = cover.target, cover.source
    tree = h1_basis(tgt).tree
    lifts = cover.cover.fiber_edges
    tree_lift_keys = {kk for k in tree.tree_keys for kk in lifts(k)}
    # the tree preimage is two disjoint trees; a crossing lift joins them
    comps = _bfs_components(src, keys=tree_lift_keys)
    sheets = {v: i for i, comp in enumerate(comps) for v in comp}
    crossing = None
    for k in tree.complement_keys:
        a, b = (sheets[v] for v in src.edge_ends(lifts(k)[0]))
        if a != b:
            crossing = k
            break
    if crossing is None:
        raise AssertionError("connected free cover has no crossing edge")
    src_tree = _bfs_tree(src, tree_lift_keys | {lifts(crossing)[0]})
    if len(src_tree.up_half) + 1 != len(src.vertices):
        raise AssertionError("lifted tree does not span the source")
    gamma_top = fundamental_cycle(src, src_tree, lifts(crossing)[1])
    gamma = chain_halve(push_chain(cover, gamma_top))
    alpha_plus, alpha_minus, alpha = [], [], []
    for k in tree.complement_keys:
        if k == crossing:
            continue
        plus = fundamental_cycle(src, src_tree, lifts(k)[0])
        minus = invol_chain(cover, plus)
        alpha_plus.append(plus)
        alpha_minus.append(minus)
        alpha.append(push_chain(cover, plus))
    return SymmetricBasis(cover, tuple(alpha_plus), tuple(alpha_minus), (),
                          (gamma_top,), tuple(alpha), (gamma,))


def _dilation_blocks(cover: DoubleCover):
    """Connected components of the target dilation subgraph, rep = min vertex."""
    comps = _bfs_components(cover.target, cover.dilated_vertices, cover.dilated_edge_keys)
    return {v: comp[0] for comp in comps for v in comp}


def _symmetric_basis_dilated(cover: DoubleCover) -> SymmetricBasis:
    tgt, src, f = cover.target, cover.source, cover.cover
    if not is_connected(src):
        raise PreconditionError("connected", "symmetric basis requires a connected source")
    blocks = _dilation_blocks(cover)
    reps = sorted(set(blocks.values()))
    dil_keys = set(cover.dilated_edge_keys)

    # collapsed target: each dilation component becomes its rep vertex plus a loop
    t_map = {v: blocks.get(v, v) for v in tgt.vertices}
    keep_t = [h for h in tgt.half_edges if tgt.edge_key(h) not in dil_keys]
    next_h = max(tgt.half_edges, default=-1) + 1
    root_m = {h: t_map[tgt.root[h]] for h in keep_t}
    partner_m = {h: tgt.partner[h] for h in keep_t}
    loop_key = {}
    for rep in reps:
        a, b = next_h, next_h + 1
        next_h += 2
        root_m[a] = root_m[b] = rep
        partner_m[a], partner_m[b] = b, a
        loop_key[rep] = a
    target_m = Graph(tuple(sorted(set(t_map.values()))), root_m, partner_m)

    # collapsed source: the dilated preimage splits into two artificial sheets
    plus_id, minus_id = {}, {}
    next_v = max(src.vertices, default=-1) + 1
    for rep in reps:
        plus_id[rep], minus_id[rep] = next_v, next_v + 1
        next_v += 2
    keep_s = [h for h in src.half_edges if tgt.edge_key(f.h(h)) not in dil_keys]
    root_s, partner_s = {}, {}
    for h in keep_s:
        r = src.root[h]
        if f.v(r) in blocks:
            rep = blocks[f.v(r)]
            mate = cover.half_edge_invol[h]
            side = plus_id if h < mate else minus_id
            root_s[h] = side[rep]
        else:
            root_s[h] = r
        partner_s[h] = src.partner[h]
    next_hs = max(src.half_edges, default=-1) + 1
    pair_keys = {}
    for rep in reps:
        made = []
        for _ in range(2):
            a, b = next_hs, next_hs + 1
            next_hs += 2
            root_s[a], root_s[b] = plus_id[rep], minus_id[rep]
            partner_s[a], partner_s[b] = b, a
            made.append(a)
        pair_keys[rep] = tuple(made)
    free_src_vertices = [x for x in src.vertices if f.v(x) not in blocks]
    source_m = Graph(tuple(sorted(free_src_vertices + list(plus_id.values()) + list(minus_id.values()))),
                     root_s, partner_s)

    vmap_m = {}
    for x in free_src_vertices:
        vmap_m[x] = f.v(x)
    for rep in reps:
        vmap_m[plus_id[rep]] = rep
        vmap_m[minus_id[rep]] = rep
    hmap_m = {h: f.h(h) for h in keep_s}
    for rep in reps:
        k1, k2 = pair_keys[rep]
        la_half, lb_half = loop_key[rep], partner_m[loop_key[rep]]
        hmap_m[k1], hmap_m[partner_s[k1]] = la_half, lb_half
        hmap_m[k2], hmap_m[partner_s[k2]] = lb_half, la_half
    model = DoubleCover.from_harmonic(HarmonicMorphism(
        GraphMorphism(source_m, target_m, vmap_m, hmap_m),
        {x: 1 for x in source_m.vertices}, {h: 1 for h in source_m.half_edges}))

    # free construction over the collapsed target, crossing at the first loop
    # (loops are never BFS tree edges, so all of them are complementary)
    loop_keys_sorted = sorted(loop_key[rep] for rep in reps)
    tree_m = spanning_tree(target_m)
    lifts = model.cover.fiber_edges
    crossing = loop_keys_sorted[0]
    src_tree = _bfs_tree(source_m, {kk for k in tree_m.tree_keys for kk in lifts(k)}
                         | {lifts(crossing)[0]})
    if len(src_tree.up_half) + 1 != len(source_m.vertices):
        raise AssertionError("lifted tree does not span the collapsed source")

    artificial = {kk for rep in reps for kk in lifts(loop_key[rep])}

    def drop(chain):
        return {k: c for k, c in chain.items() if k not in artificial}

    beta, alpha_plus, alpha_minus, alpha = [], [], [], []
    for k in tree_m.complement_keys:
        if k == crossing:
            continue
        raw = drop(fundamental_cycle(source_m, src_tree, lifts(k)[0]))
        if k in loop_keys_sorted:
            if chain_boundary(src, raw):
                raise AssertionError("anti-invariant chain is not closed")
            beta.append(raw)
        else:
            plus = _close_in_dilated(cover, raw)
            alpha_plus.append(plus)
            alpha_minus.append(invol_chain(cover, plus))
            alpha.append(push_chain(cover, plus))
    gamma, gamma_top = [], []
    for comp in _dilation_subgraphs(cover):
        if comp.edge_keys() and genus(comp) > 0:
            for cyc in h1_basis(comp).cycles:
                gamma.append(dict(cyc))
                gamma_top.append(_lift_dilated_cycle(cover, cyc))
    return SymmetricBasis(cover, tuple(alpha_plus), tuple(alpha_minus), tuple(beta),
                          tuple(gamma_top), tuple(alpha), tuple(gamma))


def _close_in_dilated(cover: DoubleCover, chain: dict) -> dict:
    """Add a correction chain supported on the dilated preimage (pointwise
    fixed by the involution) making the input closed."""
    src = cover.source
    bd = chain_boundary(src, chain)
    if not bd:
        return dict(sorted(chain.items()))
    allowed = {kk for k in cover.dilated_edge_keys for kk in cover.cover.fiber_edges(k)}
    work = dict(chain)
    bd = dict(bd)
    while any(c > 0 for c in bd.values()):
        start = min(v for v, c in bd.items() if c > 0)
        order, parent = _bfs(src, start, keys=allowed)
        goal = next((v for v in order if bd.get(v, 0) < 0), None)
        if goal is None:
            raise AssertionError("cannot close chain inside the dilation subgraph")
        v = goal
        while v != start:
            h = parent[v]  # half-edge rooted at v, leading back toward start
            kk = src.edge_key(h)
            sign = -1 if h == kk else 1  # traversal from the other end to v
            work[kk] = work.get(kk, 0) + sign
            v = src.root[src.partner[h]]
        bd[start] -= 1
        bd[goal] = bd.get(goal, 0) + 1
        bd = {x: c for x, c in bd.items() if c}
    out = {k: c for k, c in sorted(work.items()) if c}
    if chain_boundary(src, out):
        raise AssertionError("correction chain failed to close the cycle")
    return out


def _dilation_subgraphs(cover: DoubleCover):
    tgt = cover.target
    blocks = _dilation_blocks(cover)
    groups = {}
    for v, rep in blocks.items():
        groups.setdefault(rep, set()).add(v)
    halves = {}  # block rep -> its dilated half-edges, in half-edge order
    for h in tgt.half_edges:
        if tgt.edge_key(h) in cover.dilated_edge_keys:
            halves.setdefault(blocks.get(tgt.root[h]), []).append(h)
    return [Graph(tuple(sorted(groups[rep])),
                  {h: tgt.root[h] for h in halves.get(rep, ())},
                  {h: tgt.partner[h] for h in halves.get(rep, ())})
            for rep in sorted(groups)]


def _lift_dilated_cycle(cover: DoubleCover, cyc: dict) -> dict:
    f = cover.cover
    out = {}
    for k, c in cyc.items():
        ups = f.fiber_edges(k)
        if len(ups) != 1:
            raise AssertionError("dilated edge must have a unique preimage")
        kk = ups[0]
        sign = 1 if f.h(kk) == k else -1
        out[kk] = sign * c
    return {k: c for k, c in sorted(out.items()) if c}
