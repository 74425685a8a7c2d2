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
from .graphs import (DoubleCover, Graph, GraphError, PreconditionError, SpanningTree,
                     Tower, _bfs, _bfs_components, _bfs_tree, chain_boundary,
                     dilation_data, fundamental_cycle, fundamental_cycles, genus,
                     is_connected, spanning_tree)
from .metrics import MetricGraph, induce_metric, is_inf
from .ngonal import bigonal, trigonal
from .tori import (IntegralTorus, KernelTorus, Polarization, PrincipalModel,
                   TorusHom, certify_isomorphism, dual_polarization, dual_type,
                   polarized_isomorphic)


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


@dataclass(frozen=True)
class Jacobian:
    polarization: Polarization  # the identity map on its torus: the pairing is the Gram form
    basis: CycleBasis


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
    torus = IntegralTorus((d, gram), positive=True)
    return Jacobian(Polarization(torus, la.identity(basis.rank)), basis)


# ---------------------------------------------------------------------------
# chain-level transfer maps of a double cover


def chain_image(graph: Graph, chain: dict, images) -> dict:
    """The image of a chain under a map of half-edges into `graph`.

    Each edge key k of the chain, in its canonical orientation, with
    coefficient c, adds c * m to the edge of h for each (h, m) in
    images(k), with the sign of h's orientation: + when h is its edge key.
    Keys come out sorted and zeros dropped.
    """
    edge_key = graph.edge_key
    out = {}
    for k, c in chain.items():
        for h, m in images(k):
            key = edge_key(h)
            out[key] = out.get(key, 0) + (c * m if h == key else -c * m)
    return {k: v for k, v in sorted(out.items()) if v}


def push_chain(cover: DoubleCover, chain: dict) -> dict:
    """Chain map of the covering projection."""
    return chain_image(cover.target, chain, lambda k: ((cover.h(k), 1),))


def pull_chain(cover: DoubleCover, chain: dict) -> dict:
    """Pullback of 1-forms: a free edge lifts to both preimages, a dilated
    edge to twice its single preimage."""
    return chain_image(cover.source, chain,
                       lambda k: [(h, cover.deg_h(h)) for h in cover.fiber_half_edges(k)])


def invol_chain(cover: DoubleCover, chain: dict) -> dict:
    invol = cover.half_edge_invol
    return chain_image(cover.source, chain, lambda k: ((invol[k], 1),))


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
    local harmonicity; the involution commutes with root and partner, as
    harmonicity and degree 2 over every point imply (`from_harmonic`).
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


def norm_hom(cover: DoubleCover, target_metric: MetricGraph) -> TorusHom:
    """Norm homomorphism Jac(source) -> Jac(target) of a double cover.

    The source carries the metric induced from the target, len(e) =
    len(pi(e)) / deg(e).  Adjointness for the two Jacobian pairings is the
    projection formula, re-verified exactly by the TorusHom constructor.
    """
    maps = transfer_maps(cover)
    src = jacobian(induce_metric(cover, target_metric)).polarization.torus
    tgt = jacobian(target_metric).polarization.torus
    return TorusHom(src, tgt, maps.pullback, maps.pushforward)


@dataclass(frozen=True)
class PrymData:
    """Norm-kernel torus `polarization.torus` with its induced polarization
    and principal model; `norm.pull` and `norm.push` are the transfer maps in
    the `h1_basis` of the cover's target and source."""

    cover: DoubleCover
    polarization: Polarization
    type: tuple
    principal: PrincipalModel
    kernel: KernelTorus
    norm: TorusHom
    dilation: object

    @property
    def rank(self) -> int:
        return self.polarization.torus.rank


def _minus(u, v) -> tuple:
    return tuple(map(sub, u, v))


def prym(cover: DoubleCover, target_metric: MetricGraph) -> PrymData:
    """Identity component of the norm kernel; polarization type (1^B, 2^A).

    The source carries the metric induced from the target (`norm_hom`).

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
    nm = norm_hom(cover, target_metric)
    basis = symmetric_basis(cover)
    dil = dilation_data(cover)
    g, nb, na = nm.source.rank, len(basis.beta), len(basis.alpha_plus)
    if not basis._top_coordinates or basis._top_coordinates[0] is not h1_basis(cover.source):
        raise AssertionError("adapted basis without the integral inverse of verify()")
    _, cols, t_inv = basis._top_coordinates
    beta, plus, minus = cols[:nb], cols[nb:nb + na], cols[nb + na:nb + 2 * na]
    kernel = la._columns_to_matrix(beta + [_minus(u, v) for u, v in zip(plus, minus)], g)
    reps = la._columns_to_matrix(beta + plus, g)
    proj = t_inv[:nb] + tuple(_minus(t_inv[nb + i], t_inv[nb + na + i]) for i in range(na))
    ptype = (1,) * dil.B + (2,) * dil.A
    k = nb + na
    d, top_gram = nm.source.form
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
    torus = IntegralTorus((d, pairing), positive=True)
    ker = KernelTorus(TorusHom(torus, nm.source, proj, kernel), reps)
    pol = Polarization(torus, x)
    big = max(ptype, default=1)
    # the pairing with row i scaled by a_i / big, which is K^T G K / big
    pp_torus = IntegralTorus((d * big, scaled), positive=True)
    eye = la.identity(k)
    zeta = Polarization(pp_torus, eye)
    to_original = TorusHom(pp_torus, torus, la.diag([big // a for a in ptype]), eye)
    # zeta.matrix is I, so the law reads f* x == diag(big, ..., big)
    if not la.is_diagonal(la.int_matmul(la.int_matmul(to_original.pull, x), to_original.push),
                          (big,) * k):
        raise AssertionError("principal model: pulled-back polarization != multiplier * I")
    return PrymData(cover, pol, ptype, PrincipalModel(zeta, to_original, big), ker, nm, dil)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: object
    details: dict

    def __bool__(self):
        return self.passed


def check_bigonal_duality(tower: Tower, base_metric: MetricGraph) -> CheckResult:
    """The norm-kernel tori of a generic hyperelliptic-cover tower and of its
    reconstruction are dual polarized tori; verified by complete search.

    `bigonal` decides the degree and tree-base preconditions and the point
    types; the check refuses the first base point of type V."""
    result = bigonal(tower)
    for p, label in result.input_types.items():
        if label == "V":
            raise NonGenericTower(p)
    if not is_connected(tower.top):
        raise PreconditionError("top-connected", "source curve is disconnected")
    out = result.tower
    if not is_connected(out.top):
        raise PreconditionError(
            "output-connected",
            "constructed curve is disconnected (the input double cover is free)")
    prym1 = prym(tower.pi, induce_metric(tower.f, base_metric))
    prym2 = prym(out.pi, induce_metric(out.f, base_metric))
    # the duality exchanges the 1s and 2s of the type; the multiplier is the
    # covering degree 2, which equals a_1 * a_g whenever the type is mixed
    if prym1.type != dual_type(prym2.type, multiplier=2):
        return CheckResult(False, None, {
            "reason": "polarization types are not dual",
            "types": (prym1.type, prym2.type)})
    dual2 = dual_polarization(prym2.polarization, multiplier=2)
    witness = polarized_isomorphic(prym1.polarization, dual2)
    return CheckResult(witness is not None, witness, {
        "types": (prym1.type, prym2.type),
        "pairing": prym1.polarization.torus.form,
        "dual_pairing": dual2.torus.form,
        "construction": result})


def check_trigonal_prym(tower: Tower, base_metric: MetricGraph) -> CheckResult:
    """Prym(top/mid) == Jac(constructed quartic curve) as principally
    polarized tori.

    `trigonal` decides the degree, free-cover and tree-base preconditions.
    The witness is built from the correspondence of the construction
    (`_trigonal_witness`) and certified exactly; only if its certificate
    fails does the complete isometry search run, so FAIL still means that
    no isomorphism exists.  details["decided_by"] says which route decided;
    the two Grams are (D, integer rows) pairs, the matrices rows / D.
    """
    tri = trigonal(tower)
    if not is_connected(tower.top):
        raise PreconditionError("top-connected", "source curve is disconnected")
    prym_data = prym(tower.pi, induce_metric(tower.f, base_metric))
    jac = jacobian(induce_metric(tri.quartic, base_metric))
    if jac.basis.rank != prym_data.rank:
        raise AssertionError("dimension mismatch between Jacobian and Prym")
    witness = _trigonal_witness(tri, prym_data, jac)
    decided_by = "search" if witness is None else "witness"
    if witness is None:
        witness = polarized_isomorphic(prym_data.principal.polarized, jac.polarization)
    return CheckResult(witness is not None, witness, {
        "prym_gram": prym_data.principal.polarized.gram(),
        "jacobian_gram": jac.polarization.torus.form,
        "quartic": tri,
        "decided_by": decided_by})


def _trigonal_witness(tri, prym_data: PrymData, jac: Jacobian):
    """(A, B) from the correspondence Phi of the construction, or None when
    its certificate fails.

    A quartic half-edge is a section-cover half-edge, and Phi there is
    `NgonalConstruction.correspondence`.  The images of the quartic cycles
    must be closed, with coordinates c = diag(type)^-1 proj Phi in the Prym
    kernel columns K, integral, with K c == Phi exactly and c unimodular.
    Both polarizations are I, so the transport law forces A = c and
    B = c^-1, which must pass the re-checks of a search result:
    adjointness, which here is c^T P c == G_X, and transport.
    """
    correspondence, top = tri.construction.correspondence, prym_data.cover.source
    section = {new: h for h, new in tri.half_edge_ids.items()}
    top_basis, inclusion = h1_basis(top), prym_data.kernel.inclusion
    try:
        coords = tuple(top_basis.coordinates(
            chain_image(top, z, lambda k: correspondence(section[k]))) for z in jac.basis.cycles)
    except GraphError:
        return None
    if not coords:
        return la.identity(0), la.identity(0)
    # c^T = coords^T proj^T / diag(type), one row per quartic cycle
    c_t = la.divide_columns(la.int_matmul(coords, la.transpose(inclusion.pull)), prym_data.type)
    if c_t is None or la.int_matmul(c_t, la.transpose(inclusion.push)) != coords:
        return None
    c = la.transpose(c_t)
    try:
        return certify_isomorphism(prym_data.principal.polarized, jac.polarization,
                                   c, la.unimodular_inverse(c))
    except ValueError:  # c is not unimodular, or a TorusError: not adjoint
        return None


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
        # one sparse inversion each proves T and the mid basis unimodular (an
        # integer matrix with an integral inverse has determinant +-1);
        # prym reuses the columns of T and T^-1
        try:
            top_inv = la.unimodular_inverse(la._columns_to_matrix(cols, top_basis.rank))
            la.unimodular_inverse(la._columns_to_matrix(mid, mid_basis.rank))
        except ValueError:
            raise AssertionError("top or mid basis is not unimodular") from None
        object.__setattr__(self, "_top_coordinates", (top_basis, cols, top_inv))
        return True


def symmetric_basis(cover: DoubleCover) -> SymmetricBasis:
    """Involution-adapted bases, as in Jensen--Len and Len--Ulirsch.

    A spanning tree F of the target lifts to a spanning tree of the source,
    and every top chain is a fundamental cycle of that one lift.  Free:
    F is the tree of `h1_basis`; its preimage is two sheets, joined by the
    first lift of one crossing edge, whose second lift closes gamma.
    Dilated: F holds a spanning tree of every dilation component, so its
    preimage is connected, of genus B, and its cycles are the betas; a
    dilated edge off F closes a gamma inside its dilation component, with
    a unique lift.  A free edge off F gives alpha+ from its first lift.
    """
    basis = _adapted_basis(cover)
    basis.verify()
    return basis


def _adapted_basis(cover: DoubleCover) -> SymmetricBasis:
    tgt, src = cover.target, cover.source
    if not is_connected(src):
        raise PreconditionError("connected", "symmetric basis requires a connected source")
    lifts, free = cover.fiber_edges, cover.is_free()
    tree, genus_up = (h1_basis(tgt).tree, 0) if free else _adapted_tree(cover)
    up_keys = {kk for k in tree.tree_keys for kk in lifts(k)}
    crossing = None
    if free:
        # the tree preimage is two sheets; the first lift of a crossing edge joins them
        comps = _bfs_components(src, keys=up_keys)
        if len(comps) != 2:
            raise AssertionError("tree preimage of a free cover is not two sheets")
        sheets = {v: i for i, comp in enumerate(comps) for v in comp}
        for k in tree.complement_keys:
            a, b = (sheets[v] for v in src.edge_ends(lifts(k)[0]))
            if a != b:
                crossing = k
                break
        if crossing is None:
            raise AssertionError("connected free cover has no crossing edge")
        up_keys.add(lifts(crossing)[0])
    src_tree = _bfs_tree(src, up_keys)
    if len(src_tree.up_half) + 1 != len(src.vertices):
        raise AssertionError("lifted tree does not span the source")
    beta = tuple(fundamental_cycle(src, src_tree, kk) for kk in sorted(up_keys - src_tree.tree_keys))
    if len(beta) != genus_up:
        raise AssertionError("preimage of the adapted tree does not have genus B")
    alpha_plus, alpha_minus, alpha, gamma_top, gamma = [], [], [], [], []
    for k in tree.complement_keys:
        if k == crossing:
            continue
        if k in cover.dilated_edge_keys:
            gamma.append(fundamental_cycle(tgt, tree, k))
            gamma_top.append(_lift_dilated_cycle(cover, gamma[-1]))
        else:
            alpha_plus.append(fundamental_cycle(src, src_tree, lifts(k)[0]))
            alpha_minus.append(invol_chain(cover, alpha_plus[-1]))
            alpha.append(push_chain(cover, alpha_plus[-1]))
    if free:
        gamma_top.append(fundamental_cycle(src, src_tree, lifts(crossing)[1]))
        gamma.append(chain_halve(push_chain(cover, gamma_top[-1])))
    return SymmetricBasis(cover, tuple(alpha_plus), tuple(alpha_minus), beta,
                          tuple(gamma_top), tuple(alpha), tuple(gamma))


def _adapted_tree(cover: DoubleCover) -> tuple:
    """(F, B): a spanning tree F of the target holding a BFS tree of every
    dilation component, and B, the number of components less one, which is
    the genus of the preimage of F.

    The other edges of F come from the BFS tree of the target rooted in the
    first component: the edge up from each free vertex, and from the first
    vertex reached in each other component.  Following them only ever moves
    to a vertex or component reached earlier, so F is connected.
    """
    tgt, dil = cover.target, cover.dilated_edge_keys
    comps = _bfs_components(tgt, cover.dilated_vertices, dil)
    keys = {tgt.edge_key(h) for comp in comps for h in _bfs(tgt, comp[0], keys=dil)[1].values()}
    rep = {v: comp[0] for comp in comps for v in comp}
    order, up = _bfs(tgt, comps[0][0])
    reached = {comps[0][0]}
    for v in order[1:]:
        node = rep.get(v, v)  # a dilation component counts as one vertex
        if node not in reached:
            reached.add(node)
            keys.add(tgt.edge_key(up[v]))
    tree = _bfs_tree(tgt, keys)
    if len(tree.up_half) + 1 != len(tgt.vertices):
        raise AssertionError("adapted tree does not span the target")
    if len(tree.tree_keys & dil) != len(cover.dilated_vertices) - len(comps):
        raise AssertionError("adapted tree misses a spanning tree of a dilation component")
    return tree, len(comps) - 1


def _lift_dilated_cycle(cover: DoubleCover, cyc: dict) -> dict:
    lifts = cover.fiber_half_edges

    def lift(k):
        ups = lifts(k)
        if len(ups) != 1:
            raise AssertionError("dilated edge must have a unique preimage")
        return ((ups[0], 1),)
    return chain_image(cover.source, cyc, lift)
