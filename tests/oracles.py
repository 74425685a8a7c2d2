"""Replaced algorithms, kept as differential oracles for the tests.

The package builds the norm-kernel (Prym) torus from involution-adapted
homology bases, and dualizes its polarization in that adapted form.  The
route it replaced finds the same lattices by Smith normal forms: a
saturated kernel basis of the pushforward, a torsion-free cokernel of the
pullback, the induced polarization, a principal rescaling and the dual
polarization in Smith-adapted bases.  It lives here, with the Smith
normal form itself and the homomorphism classification it uses, so the
tests can compare the two routes; so does the Fraction Cholesky reference
of the definiteness test and the short-vector search, and the
harmonicity check that rescanned a vertex's tangent space once per
target half-edge.  So do the Fraction forms of the torus self-checks
that now run on integers: the Jacobian Gram as a table of cycle
pairings, adjointness of a homomorphism, the polarization form, and a
determinant per leading minor for the one-elimination torus verdict.
So are the Fraction forms of the Prym pairings, which `prym` built
eagerly before it kept integer forms only, and the Fraction-era matrix
helpers no package code calls: the inverse in fractions, rank, a shared
denominator, the LLL transform alone, the sum of two matrices, the
Fraction-aware product, matrix equality, the determinant and the
unimodularity test by determinant, which the integer-only isometry search
and the sparse unimodular inverse replaced, and the dense numbering of
(base point, label) pairs that the replaced constructions use.  So
are the dense integral inverse by elimination of [M | I], which the
sparse unimodular inverse replaced, and the dilation subgraphs found by
one scan of the target half-edges per dilation block.  So are the two
adapted-basis builders that the single lifted-tree construction
replaced: the free one, and the dilated one that collapsed each dilation
component to a vertex with a loop, ran the free construction on that
model cover and closed each alpha again inside the dilation subgraph;
the dilation subgraphs are theirs.  The tower
isomorphism search that listed mid-level cover isomorphisms and
searched the transported top cover for each is here too, and so are the
n-gonal and Recillas constructions that worked out multisections,
transports and slot classes once per point instead of once per fiber
shape, the slot classes and slot transports that the Recillas
construction then tabled per fiber profile, before it read the section
construction's tables, and the transport that the n-gonal
construction's positional gluing replaced: a `Refinement` per base
half-edge, root and partner, and `induce_multisection` along it, tabled
by kind of refinement.  So
are the chain maps of a double cover that each ran their own signed
edge-key loop before `jacprym.chain_image`: push, pull (by source edge
keys and a sign test), involution, the lift of a dilated cycle, and the
trigonal witness's Phi, which read `half_edge_info` itself before
`NgonalConstruction.correspondence`.  So is the seeded generation that
validated every draw, rejected ones included, before it checked only the
tower it returns, with the builders that numbered a lift through
(point, sheet) dicts and rebuilt their lists at every step.  So is the
tuple model of multisections (sorted (part, plus, minus) tuples, with
their degrees, signs and sign swaps), which the shape tables of the
section construction replaced by plus-count arithmetic, and the second
entries of primitives the package keeps once: the Fraction pairing of
two cycles and its table, next to the certified integer Gram, and the
isometry search that checks its forms first, next to
`definite_isometries`.  So is the Fraction form of tori and
polarizations, which the package dropped when (D, integer rows) became
the only form of a pairing and a positive integer diagonal the only
polarization: the scaling of a Fraction matrix to integer rows and back,
a torus built from a Fraction pairing and its Fraction pairing and Gram,
the integrality test and conversion, the definiteness test of a rational
form, the rational inverse by Bareiss elimination, the polarization by a
general integer matrix that the Smith-form route induces, the polarized
isomorphism decision that forced its first-lattice map through that
rational inverse, and the short-vector and isometry searches on rational
forms.

Last come the operations that no command, construction or theorem check
reaches, which the package dropped: the contraction of an edge of a
harmonic morphism, the smooth augmentation of a metric graph or a cover
by infinite rays, and the check that a source metric is induced from a
target metric.  So are the options and branches no command ran: the
elimination that decided a torus's verdict when its builder passed none
(the leading-minor verdict, with the pivoting Bareiss pass that it and
the rank, determinant and rational-inverse oracles use), the dual of a
homomorphism, the Betti number of a graph and the generation's Prym-rank
cap, which the rank-capped acceptance tiers still draw through.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

from gallery import GeneratedCover
from tropcover import intlinalg as la
from tropcover import randgen
from tropcover.graphs import (DoubleCover, Graph, GraphError, HarmonicMorphism,
                              PreconditionError, Tower, ValidationIssue, _bfs, _bfs_components,
                              _bfs_tree, _components, chain_boundary, covers_isomorphic_over_base,
                              fundamental_cycle, genus, hpoint, is_connected, is_tree,
                              iter_cover_isomorphisms, spanning_tree, validate_harmonic,
                              validate_morphism, vpoint)
from tropcover.jacprym import (SymmetricBasis, _lift_dilated_cycle, chain_halve, h1_basis,
                               invol_chain, push_chain)
from tropcover.metrics import INF, MetricGraph, induce_metric, is_inf
from tropcover.ngonal import (FiberDatum, FiberPart, NgonalConstruction, RecillasResult,
                              _check_harmonic, _fiber_shape, _sign_quotient,
                              classify_tetragonal_point, involution_quotient,
                              is_generic_bigonal, is_generic_tetragonal, tower_fiber)
from tropcover.tori import (IntegralTorus, KernelTorus,
                            Polarization, PrincipalModel, TorusError, TorusHom,
                            certify_isomorphism, dual_type)


@dataclass(frozen=True)
class SNF:
    """U @ M @ V = S with S diagonal, d1 | d2 | ... >= 0, U, V unimodular."""

    S: tuple
    U: tuple
    V: tuple

    def diagonal(self) -> tuple:
        n, m = la.shape(self.S)
        return tuple(self.S[i][i] for i in range(min(n, m)))

    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diagonal() if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors())


def _exgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def snf(matrix) -> SNF:
    """Smith normal form with transformation matrices, re-verified exactly.

    Pivoting clears rows and columns by 2x2 unimodular (extended gcd)
    blocks, which keeps the transform entries near the matrix scale.
    """
    a = [[int(x) for x in row] for row in matrix]
    n, m = len(a), len(a[0]) if a else 0
    u = [list(row) for row in la.identity(n)]
    v = [list(row) for row in la.identity(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_gcd_step(t, i):
        """Unimodular rows (t, i) update making a[t][t] = gcd, a[i][t] = 0."""
        p, q = a[t][t], a[i][t]
        if q == 0:
            return
        if p and q % p == 0:
            c = -(q // p)
            a[i] = [x + c * y for x, y in zip(a[i], a[t])]
            u[i] = [x + c * y for x, y in zip(u[i], u[t])]
            return
        g, x, y = _exgcd(p, q)
        pg, qg = p // g, q // g
        a[t], a[i] = [x * rt + y * ri for rt, ri in zip(a[t], a[i])], \
                     [-qg * rt + pg * ri for rt, ri in zip(a[t], a[i])]
        u[t], u[i] = [x * rt + y * ri for rt, ri in zip(u[t], u[i])], \
                     [-qg * rt + pg * ri for rt, ri in zip(u[t], u[i])]

    def col_gcd_step(t, j):
        p, q = a[t][t], a[t][j]
        if q == 0:
            return
        if p and q % p == 0:
            c = -(q // p)
            for row in a:
                row[j] += c * row[t]
            for row in v:
                row[j] += c * row[t]
            return
        g, x, y = _exgcd(p, q)
        pg, qg = p // g, q // g
        for row in a:
            row[t], row[j] = x * row[t] + y * row[j], -qg * row[t] + pg * row[j]
        for row in v:
            row[t], row[j] = x * row[t] + y * row[j], -qg * row[t] + pg * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, n):
                row_gcd_step(t, i)
            for j in range(t + 1, m):
                col_gcd_step(t, j)
            if all(a[i][t] == 0 for i in range(t + 1, n)) \
                    and all(a[t][j] == 0 for j in range(t + 1, m)):
                break
        p = a[t][t]
        offender = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, m)
                         if a[i][j] % p), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[offender[0]])]
            continue
        if p < 0:
            negate_row(t)
        t += 1
    result = SNF(la.mat(a), la.mat(u), la.mat(v))
    _check_snf(matrix, result)
    return result


def _check_snf(matrix, res: SNF):
    if not mat_equal(matmul(matmul(res.U, la.mat(matrix)), res.V), res.S):
        raise AssertionError("snf: U @ M @ V != S")
    if abs(det(res.U)) != 1 or abs(det(res.V)) != 1:
        raise AssertionError("snf: transforms are not unimodular")
    diag = res.diagonal()
    for d1, d2 in zip(diag, diag[1:]):
        if d1 < 0 or (d2 and d1 and d2 % d1):
            raise AssertionError("snf: diagonal is not a divisibility chain")
        if d1 == 0 and d2 != 0:
            raise AssertionError("snf: zero before nonzero on the diagonal")


def polarization_type(pol: Polarization) -> tuple:
    """Invariant factors of the polarization matrix."""
    return snf(pol.matrix).invariant_factors()


def identity_hom(t: IntegralTorus) -> TorusHom:
    return TorusHom(t, t, la.identity(t.rank), la.identity(t.rank))


@dataclass(frozen=True)
class HomFlags:
    surjective: bool
    finite: bool
    injective: bool
    isogeny: bool
    free_isogeny: bool
    dilation: bool
    isomorphism: bool


def classify_hom(h: TorusHom) -> HomFlags:
    g1, g2 = h.source.rank, h.target.rank
    r = rank(h.pull) if h.pull else 0
    surjective = r == g2
    finite = r == g1
    saturated = finite and all(d == 1 for d in snf(h.push).invariant_factors()) if g1 else finite
    injective = finite and saturated
    isogeny = surjective and finite
    free = isogeny and is_unimodular(h.pull) if g1 else isogeny
    dil = isogeny and is_unimodular(h.push) if g1 else isogeny
    return HomFlags(surjective, finite, injective, isogeny, free, dil, free and dil)


def induced_polarization(h: TorusHom, pol) -> "MatrixPolarization":
    """Pull a polarization on the target back along a finite homomorphism."""
    if pol.torus != h.target:
        raise TorusError("polarization is not on the hom's target")
    if not classify_hom(h).finite:
        raise TorusError("induced polarization requires a finite homomorphism")
    x = matmul(matmul(h.pull, pol.matrix), h.push) if h.source.rank else ()
    return MatrixPolarization(h.source, x)


def _cholesky(q) -> tuple:
    """Q = L^T D L with L unit upper triangular; raises on non-positive-definite."""
    n, _ = la.shape(q)
    a = [[Fraction(x) for x in row] for row in q]
    d = [Fraction(0)] * n
    lmat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        lmat[i][i] = Fraction(1)
        for j in range(i + 1, n):
            lmat[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= d[i] * lmat[i][j] * lmat[i][k]
                a[k][j] = a[j][k]
    return d, lmat


def kernel_basis(matrix) -> tuple:
    """Columns form a saturated basis of the integer kernel {x : Mx = 0}."""
    n, m = la.shape(matrix)
    if m == 0:
        return tuple()
    res = snf(matrix)
    r = res.rank
    return tuple(row[r:] for row in res.V)


@dataclass(frozen=True)
class Cokernel:
    """Torsion-free cokernel data: projection (t x n) and representatives (n x t).

    projection @ representatives = I, and projection @ M = 0.
    """

    rank: int
    projection: tuple
    representatives: tuple


def cokernel_tf(matrix) -> Cokernel:
    n, m = la.shape(matrix)
    res = snf(matrix)
    r = res.rank
    proj = tuple(res.U[i] for i in range(r, n))
    uinv = to_int(inverse(res.U)) if n else tuple()
    reps = tuple(row[r:] for row in uinv)
    cok = Cokernel(n - r, la.mat(proj) if proj else la.zeros(0, n), reps if n else la.zeros(0, 0))
    if cok.rank:
        if not mat_equal(matmul(cok.projection, cok.representatives), la.identity(cok.rank)):
            raise AssertionError("cokernel: projection @ representatives != I")
        if m and any(x for row in matmul(cok.projection, la.mat(matrix)) for x in row):
            raise AssertionError("cokernel: projection does not kill the image")
    return cok


def kernel_torus(h: TorusHom) -> KernelTorus:
    """Connected component of the identity of the kernel, as an integral torus."""
    g1 = h.source.rank
    cok = cokernel_tf(h.pull) if g1 else Cokernel(0, tuple(), tuple())
    if not g1:
        ker = tuple()
    elif not h.target.rank:  # the zero map: everything is in the kernel
        ker = la.identity(g1)
    else:
        ker = kernel_basis(h.push)
    k = cok.rank
    if (len(ker[0]) if ker else 0) != k:
        raise AssertionError("kernel_torus: coker(pull) and ker(push) ranks differ")
    if k:
        pairing = matmul(matmul(la.transpose(cok.representatives), fraction_pairing(h.source)), ker)
    else:
        pairing = tuple()
    torus = fraction_torus(pairing)
    inclusion = TorusHom(torus, h.source, cok.projection, ker)
    return KernelTorus(inclusion, cok.representatives)


@dataclass(frozen=True)
class CokernelTorus:
    torus: IntegralTorus
    quotient: TorusHom  # target -> cokernel


def cokernel_torus(h: TorusHom) -> CokernelTorus:
    g2 = h.target.rank
    if not g2:
        ker = tuple()
    elif not h.source.rank:
        ker = la.identity(g2)
    else:
        ker = kernel_basis(h.pull)
    cok = cokernel_tf(h.push) if g2 else Cokernel(0, tuple(), tuple())
    k = cok.rank
    if (len(ker[0]) if ker else 0) != k:
        raise AssertionError("cokernel_torus: ker(pull) and coker(push) ranks differ")
    if k:
        pairing = matmul(matmul(la.transpose(ker), fraction_pairing(h.target)), cok.representatives)
    else:
        pairing = tuple()
    torus = fraction_torus(pairing)
    quotient = TorusHom(h.target, torus, ker, cok.projection)
    return CokernelTorus(torus, quotient)


def pp_rescale(pol) -> PrincipalModel:
    g = pol.torus.rank
    if g == 0:
        return PrincipalModel(Polarization(pol.torus, la.identity(0)),
                              identity_hom(pol.torus), 1)
    res = snf(pol.matrix)
    diag = res.diagonal()
    big = diag[-1]
    uinv = to_int(inverse(res.U))
    # P in the adapted bases, then each row i scaled by a_i / a_g
    p_ad = matmul(matmul(la.transpose(uinv), fraction_pairing(pol.torus)), res.V)
    p_pp = tuple(tuple(Fraction(diag[i], big) * p_ad[i][j] for j in range(g)) for i in range(g))
    pp_torus = fraction_torus(p_pp)
    zeta = Polarization(pp_torus, la.identity(g))
    scale = tuple(tuple(big // diag[i] if i == j else 0 for j in range(g)) for i in range(g))
    to_original = TorusHom(pp_torus, pol.torus, matmul(scale, res.U), res.V)
    if not classify_hom(to_original).dilation:
        raise AssertionError("pp_rescale: rescaling map is not a dilation")
    pulled = induced_polarization(to_original, pol)
    if not mat_equal(pulled.matrix, la.mat_scale(big, zeta.matrix)):
        raise AssertionError("pp_rescale: induced polarization is not multiplier * principal")
    return PrincipalModel(zeta, to_original, big)


def snf_route_prym(norm: TorusHom):
    """(kernel torus, induced polarization, principal model) of a norm map,
    the way `prym` computed them before it used adapted bases."""
    ker = kernel_torus(norm)
    pol = induced_polarization(ker.inclusion, Polarization(norm.source, la.identity(norm.source.rank)))
    return ker, pol, pp_rescale(pol)


def dual_polarization_by_snf(pol: Polarization, multiplier=None) -> Polarization:
    """xi_dual(e_i) = (multiplier / a_i) e'_i in Smith-adapted bases.

    The default multiplier a_1 * a_g makes the composition with xi the
    multiplication by a_1 * a_g and is principal iff xi is principal.
    Any common multiple of the invariant factors is allowed; theorem
    checks for double covers use the fixed multiplier 2, which agrees
    with the default exactly when the type mixes 1s and 2s.
    """
    g = pol.torus.rank
    if g == 0:
        return Polarization(pol.torus.dual(), la.identity(0))
    res = snf(pol.matrix)
    diag = res.diagonal()
    if multiplier is None:
        multiplier = diag[0] * diag[-1]
    if any(multiplier % a for a in diag):
        raise TorusError("dual multiplier must be divisible by every invariant factor")
    uinv = to_int(inverse(res.U))
    p_ad = matmul(matmul(la.transpose(uinv), fraction_pairing(pol.torus)), res.V)
    dual_t = fraction_torus(la.transpose(p_ad))
    xdual = tuple(tuple(multiplier // diag[i] if i == j else 0 for j in range(g)) for i in range(g))
    dual_pol = Polarization(dual_t, xdual)
    if polarization_type(dual_pol) != dual_type(polarization_type(pol), multiplier):
        raise AssertionError("dual polarization has the wrong type")
    if not mat_equal(matmul(res.S, xdual), la.mat_scale(multiplier, la.identity(g))):
        raise AssertionError("xi . xi_dual is not multiplication by the multiplier")
    return dual_pol


def validate_harmonic_by_rescan(f: HarmonicMorphism) -> list:
    """graphs.validate_harmonic with the local-harmonicity loop it replaced:
    for each vertex v and each target half-edge at f(v), a sum over the
    whole tangent space of v."""
    issues = list(validate_morphism(f))
    s, t = f.source, f.target
    for v in s.vertices:
        if f.vertex_degree.get(v, 0) < 1:
            issues.append(ValidationIssue("degree-positive", vpoint(v), "vertex degree must be >= 1"))
    for h in s.half_edges:
        if f.half_edge_degree.get(h, 0) < 1:
            issues.append(ValidationIssue("degree-positive", hpoint(h), "half-edge degree must be >= 1"))
        elif f.half_edge_degree[h] != f.half_edge_degree.get(s.partner[h], 0):
            issues.append(ValidationIssue("edge-degree", hpoint(h), "degrees differ on the two halves"))
    if issues:
        return issues
    for v in s.vertices:
        fv = f.v(v)
        for hprime in t.tangent(fv):
            total = sum(f.half_edge_degree[h] for h in s.tangent(v) if f.h(h) == hprime)
            if total != f.vertex_degree[v]:
                issues.append(ValidationIssue(
                    "local-harmonicity", (vpoint(v), hpoint(hprime)),
                    f"deg(v)={f.vertex_degree[v]} but half-edge degrees over it sum to {total}"))
    if not issues and is_connected(t):
        sums = {}
        for v in t.vertices:
            sums[vpoint(v)] = sum(f.vertex_degree[x] for x in f.fiber_vertices(v))
        for h in t.half_edges:
            sums[hpoint(h)] = sum(f.half_edge_degree[x] for x in f.fiber_half_edges(h))
        values = set(sums.values())
        if len(values) > 1:
            for p, d in sorted(sums.items()):
                issues.append(ValidationIssue("global-degree", p, f"fiber degree sum {d} not constant"))
    return issues


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


def jacobian_gram_by_pairing_table(metric) -> tuple:
    """The Fraction Gram of the fundamental cycles, one cycle pairing per entry."""
    cycles = h1_basis(metric.graph).cycles
    return pairing_table(metric, cycles, cycles)


def torus_verdict_by_minors(m) -> tuple:
    """(det != 0, every leading principal minor > 0), a pivoting determinant each."""
    return det(m) != 0, all(det([row[:k] for row in m[:k]]) > 0
                            for k in range(1, len(m) + 1))


def _fraction_product(a, b) -> tuple:
    """a @ b by the triple loop, in fractions."""
    return tuple(tuple(sum((Fraction(row[k]) * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]) if b else 0)) for row in a)


def adjoint_by_fractions(source: IntegralTorus, target: IntegralTorus, pull, push) -> bool:
    """pull^T P_source == P_target push on the Fraction pairings."""
    return (_fraction_product(la.transpose(pull), fraction_pairing(source))
            == _fraction_product(fraction_pairing(target), push))


def eager_prym_forms(data, top_metric) -> dict:
    """The Fraction matrices of a `PrymData`, each from the Fraction
    Jacobian table of the top curve by the triple loop."""
    top = jacobian_gram_by_pairing_table(top_metric)
    ker = data.kernel
    pairing = _fraction_product(_fraction_product(la.transpose(ker.representatives), top),
                                ker.inclusion.push)
    big = data.principal.multiplier
    return {"top": top,
            "pairing": pairing,
            "gram": _fraction_product(la.transpose(data.polarization.matrix), pairing),
            "principal": tuple(tuple(Fraction(a, big) * x for x in row)
                               for a, row in zip(data.type, pairing))}


def polarization_by_fractions(torus: IntegralTorus, matrix) -> bool:
    """X^T P symmetric and positive definite, on fractions, by Cholesky."""
    gram = _fraction_product(la.transpose(matrix), fraction_pairing(torus))
    if gram != la.transpose(gram):
        return False
    try:
        _cholesky(gram)
    except ValueError:
        return False
    return True


def to_fractions(m) -> tuple:
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in m)


def scaled(m):
    """(D, integer rows) with m == rows / D, D the lcm of the denominators;
    an all-int matrix comes back as the same object, with D = 1."""
    if set(map(type, itertools.chain.from_iterable(m))) <= {int}:
        return 1, m
    d = lcm(*{x.denominator for row in m for x in row})
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def unscaled(d, rows) -> tuple:
    """The Fraction matrix rows / D."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows)


def is_integral(m) -> bool:
    return all(x.denominator == 1 for row in m for x in row)


def to_int(m) -> tuple:
    if not is_integral(m):
        raise ValueError("matrix has non-integer entries")
    return tuple(tuple(int(x) for x in row) for row in m)


def is_positive_definite(q) -> bool:
    """Sylvester's test for a symmetric form, rational or not: every leading
    Bareiss pivot of its integer rows is > 0."""
    return leading_minor_verdict(scaled(q)[1])[1]


def bareiss(m, pivoting=True):
    """Fraction-free row echelon form of the integer matrix m (Bareiss 1968;
    Cohen, 2.2).

    Returns (rows, pivot columns, signed last pivot).  The pivot of row i,
    at column cols[i], is the minor of the row-permuted m on rows 0..i and
    columns cols[:i+1], so every division is exact.  Without pivoting no
    rows are exchanged and elimination stops at the first zero diagonal
    entry: the pivots are the leading principal minors.  The package keeps
    the non-pivoting pass only, as `intlinalg._bareiss`.
    """
    a = [list(row) for row in m]
    n, width = la.shape(a)
    cols, sign, prev, r = [], 1, 1, 0
    for c in range(width):
        if r == n:
            break
        if not a[r][c]:
            if not pivoting:
                break
            p = next((i for i in range(r + 1, n) if a[i][c]), None)
            if p is None:
                continue
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv = a[r][c]
        tail = a[r][c + 1:]
        for row in a[r + 1:]:
            x = row[c]
            if x:
                row[c + 1:] = [(piv * y - x * z) // prev for y, z in zip(row[c + 1:], tail)]
                row[c] = 0
            elif piv != prev:
                row[c + 1:] = [piv * y // prev for y in row[c + 1:]]
        cols.append(c)
        prev = piv
        r += 1
    return a, cols, sign * prev


def leading_minor_verdict(m) -> tuple:
    """(m is nonsingular, every leading principal minor of square m is > 0).

    The leading Bareiss pivots are the leading principal minors, so one
    non-pivoting pass decides both when no leading minor vanishes; a
    nonsingular matrix with a zero leading minor, such as
    [[0, 1], [1, 0]], costs a second, pivoting pass, which finds a pivot in
    every column iff m is nonsingular.  For a symmetric m the second
    verdict is positive definiteness.  `IntegralTorus` eliminated so before
    every builder passed it a proved verdict.
    """
    a, cols, _ = bareiss(m, pivoting=False)
    n = len(a)
    if len(cols) == n:
        return True, all(a[i][i] > 0 for i in range(n))
    return len(bareiss(m)[1]) == n, False


def torus_by_elimination(form) -> IntegralTorus:
    """The torus of a square (D, integer rows) pairing with the verdict of
    `leading_minor_verdict`, as the constructor eliminated before every
    builder passed it a proved verdict; TorusError if the pairing is
    singular."""
    nonsingular, positive = leading_minor_verdict(form[1])
    if not nonsingular:
        raise TorusError("pairing must be nondegenerate")
    return IntegralTorus(form, positive)


def dual_hom(h: TorusHom) -> TorusHom:
    """The dual homomorphism, between the dual tori, with pull and push swapped."""
    return TorusHom(h.target.dual(), h.source.dual(), h.push, h.pull)


def scaled_inverse(m) -> tuple:
    """(delta, X) with integer rows X and M^-1 = X / delta.

    Bareiss on D * [M | I] = [D M | D I], then fraction-free back
    substitution for X = delta * M^-1, delta = +-det(D M); every division
    is exact.  A singular M raises ValueError.
    """
    n, c = la.shape(m)
    if n != c:
        raise ValueError("inverse of a non-square matrix")
    d, rows = scaled(m)
    a, cols, delta = bareiss([list(row) + [d * (i == j) for j in range(n)]
                               for i, row in enumerate(rows)])
    if cols[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [delta * y for y in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [s - row[j] * t for s, t in zip(acc, x[j])]
        x[i] = [s // row[i] for s in acc]
    return delta, x


def fraction_torus(pairing) -> IntegralTorus:
    """The torus of a Fraction (or int) pairing matrix, as the public
    constructor built it before a torus took (D, integer rows) only."""
    return torus_by_elimination(scaled(pairing))


def fraction_pairing(torus: IntegralTorus) -> tuple:
    """The Fraction pairing matrix rows / D of a torus."""
    return unscaled(*torus.form)


def fraction_gram(pol) -> tuple:
    """The Fraction Gram form X^T P of a polarization."""
    return unscaled(*pol.gram())


@dataclass(frozen=True)
class MatrixPolarization:
    """A polarization by a general integer matrix X, the branch that
    `Polarization` had before it took positive integer diagonals only: the
    form X^T P, as (D, integer rows), must be symmetric positive definite,
    decided by one elimination.  The Smith-form route induces polarizations
    in bases that are not adapted, so it builds these."""

    torus: IntegralTorus
    matrix: tuple
    _gram: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if not is_integral(self.matrix):
            raise TorusError("polarization matrix must be integral")
        object.__setattr__(self, "matrix", to_int(self.matrix))
        g = self.torus.rank
        if la.shape(self.matrix) != (g, g):
            raise TorusError("polarization matrix has wrong shape")
        d, rows = self.torus.form
        form = la.int_matmul(la.transpose(self.matrix), rows) if g else ()
        object.__setattr__(self, "_gram", (d, form))
        if form != la.transpose(form):
            raise TorusError("polarization form is not symmetric")
        if not is_positive_definite(form):
            raise TorusError("polarization form is not positive definite")

    def gram(self) -> tuple:
        return self._gram


def polarized_isomorphic_by_inverse(pol1, pol2):
    """`tori.polarized_isomorphic` as it was before the transport law gave
    the first-lattice map: for each Gram isometry B, A is forced by
    adjointness, A = P1^-T B^T P2^T, through the rational inverse of the
    first pairing, and accepted iff integral unimodular.  Takes
    `Polarization`s and `MatrixPolarization`s alike."""
    t1, t2 = pol1.torus, pol2.torus
    if t1.rank != t2.rank:
        raise TorusError("rank mismatch")
    if t1.rank == 0:
        return la.identity(0), la.identity(0)
    (e1, g1), (e2, g2) = (la.lowest_terms(*pol.gram()) for pol in (pol1, pol2))
    e = lcm(e1, e2)
    q1, q2 = la.mat_scale(e // e1, g1), la.mat_scale(e // e2, g2)
    # with P_i = S_i / d_i, A = P1^-T B^T P2^T = d1 X B^T S2^T / (delta d2)
    # for S1^-T = X / delta
    d1, s1 = t1.form
    d2, s2 = t2.form
    delta, x = scaled_inverse(la.transpose(s1))
    s2_t = la.transpose(s2)
    for b in la.definite_isometries(q1, q2):
        xbs = la.int_matmul(la.int_matmul(x, la.transpose(b)), s2_t)
        a = la.divide_columns(la.mat_scale(d1, xbs), (delta * d2,) * len(xbs))
        if a is None:
            continue
        try:
            la.unimodular_inverse(a)  # ValueError unless a is unimodular
        except ValueError:
            continue
        return certify_isomorphism(pol1, pol2, a, b)
    return None


def rational_vectors_with_norm(q, target):
    """`vectors_with_norm` of a rational form and target: x^T Q x == target
    iff x^T (D Q) x == D target, which has no solution unless D target is
    an integer."""
    d, rows = scaled(q)
    t = Fraction(target) * d
    if t.denominator != 1:
        return ()
    return la.vectors_with_norm(la.mat(rows), t.numerator)


def rational_definite_isometries(q1, q2):
    """`definite_isometries` of two rational forms, over their common
    denominator, whose isometries are theirs."""
    return la.definite_isometries(*clear_denominators(q1, q2)[1])


def inverse(m) -> tuple:
    """Exact inverse over the rationals, in fractions."""
    delta, x = scaled_inverse(m)
    return unscaled(delta, x)


def integral_inverse(m) -> tuple:
    """M^-1 as integer rows by one dense elimination of [M | I]: back
    substitution in integers, then one exact division by delta.  ValueError
    when M is singular or M^-1 is not integral."""
    delta, x = scaled_inverse(m)
    inv = la.divide_columns(x, (delta,) * len(x))
    if inv is None:
        raise ValueError("inverse is not integral")
    return inv


def symmetric_basis_by_model(cover: DoubleCover) -> SymmetricBasis:
    """The adapted bases of the two builders the single construction
    replaced, verified: the free construction, and for a dilated cover the
    free construction on a model cover with each dilation component
    collapsed to a vertex with a loop."""
    basis = _symmetric_basis_free(cover) if cover.is_free() else _symmetric_basis_dilated(cover)
    basis.verify()
    return basis


def _symmetric_basis_free(cover: DoubleCover) -> SymmetricBasis:
    if not is_connected(cover.source):
        raise PreconditionError("connected", "symmetric basis of a free cover requires a connected source")
    tgt, src = cover.target, cover.source
    tree = h1_basis(tgt).tree
    lifts = cover.fiber_edges
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
    tgt, src, f = cover.target, cover.source, cover
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
        source_m, target_m, vmap_m, hmap_m,
        {x: 1 for x in source_m.vertices}, {h: 1 for h in source_m.half_edges}))

    # free construction over the collapsed target, crossing at the first loop
    # (loops are never BFS tree edges, so all of them are complementary)
    loop_keys_sorted = sorted(loop_key[rep] for rep in reps)
    tree_m = spanning_tree(target_m)
    lifts = model.fiber_edges
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
    allowed = {kk for k in cover.dilated_edge_keys for kk in cover.fiber_edges(k)}
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


def dilation_subgraphs_by_block_scan(cover) -> list:
    """The dilation subgraphs of a double cover, one scan of the target
    half-edges per dilation block."""
    tgt = cover.target
    blocks = _dilation_blocks(cover)
    groups = {}
    for v, rep in blocks.items():
        groups.setdefault(rep, set()).add(v)
    out = []
    for rep in sorted(groups):
        vs = groups[rep]
        halves = [h for h in tgt.half_edges
                  if tgt.edge_key(h) in cover.dilated_edge_keys and tgt.root[h] in vs]
        out.append(Graph(tuple(sorted(vs)),
                         {h: tgt.root[h] for h in halves},
                         {h: tgt.partner[h] for h in halves}))
    return out


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rank(m) -> int:
    return len(bareiss(scaled(m)[1])[1])


def clear_denominators(*matrices):
    """(scalar, scaled integer matrices); the same scalar for every matrix."""
    forms = [scaled(m) for m in matrices]
    scale = lcm(*(d for d, _ in forms))
    return scale, tuple(la.mat_scale(scale // d, rows) for d, rows in forms)


def matmul(a, b) -> tuple:
    """Exact product; int x int stays int, anything else gives fractions.

    Both factors are scaled to integer rows (`scaled`) and multiplied by
    `int_matmul`.
    """
    da, ia = scaled(a)
    db, ib = scaled(b)
    prod = la.int_matmul(ia, ib)
    if ia is a and ib is b:
        return prod
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in prod)


def mat_equal(a, b) -> bool:
    return la.mat(a) == la.mat(b)


def det(m):
    """Exact determinant: the signed last Bareiss pivot over D^n."""
    n, c = la.shape(m)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    d, rows = scaled(m)
    _, cols, minor = bareiss(rows)
    return Fraction(minor, d ** n) if len(cols) == n else Fraction(0)


def is_unimodular(m) -> bool:
    rows, cols = la.shape(m)
    return rows == cols and is_integral(m) and abs(det(m)) == 1


def gram_isometries(q1, q2):
    """Unimodular B with B^T Q2 B = Q1, yielded exactly once each.

    Both forms must be symmetric positive definite; `definite_isometries`
    runs the search on them over their common denominator
    (`rational_definite_isometries`).
    """
    n, _ = la.shape(q1)
    n2, _ = la.shape(q2)
    if n != n2:
        raise ValueError("rank mismatch")
    q1, q2 = la.mat(q1), la.mat(q2)
    for q in (q1, q2):
        if q != la.transpose(q):
            raise ValueError("forms must be symmetric")
        if not is_positive_definite(q):
            raise ValueError("form is not positive definite")
    yield from rational_definite_isometries(q1, q2)


def _lll_gram(q) -> tuple:
    """The LLL transform H of `_lll_reduce` alone."""
    return la._lll_reduce(q)[0]


def _dense_ids(pairs) -> tuple:
    """Number the distinct (base point, label) pairs densely in first-seen
    order; returns (pair -> id, id -> pair)."""
    ids = {}
    for pair in pairs:
        ids.setdefault(pair, len(ids))
    return ids, {i: pair for pair, i in ids.items()}


def transport_cover(pi: HarmonicMorphism, vmap: dict, hmap: dict, new_target: Graph) -> HarmonicMorphism:
    """Relabel the target of pi through an isomorphism onto new_target."""
    return HarmonicMorphism(
        pi.source, new_target,
        {x: vmap[pi.v(x)] for x in pi.source.vertices},
        {h: hmap[pi.h(h)] for h in pi.source.half_edges},
        dict(pi.vertex_degree), dict(pi.half_edge_degree))


def towers_isomorphic_mid_first(t1: Tower, t2: Tower):
    """Simultaneous isomorphism at both levels commuting with the maps, or None."""
    if t1.base != t2.base:
        raise GraphError("tower isomorphism requires identical base graphs")
    for vmap, hmap in iter_cover_isomorphisms(t1.f, t2.f):
        moved = transport_cover(t1.pi, vmap, hmap, t2.mid)
        found = covers_isomorphic_over_base(moved, t2.pi)
        if found is not None:
            return (vmap, hmap), found
    return None


Multisection = tuple  # sorted tuple of (part_id, plus, minus); dilated parts canonical (d, 0)


def fiber_part(fd: FiberDatum, part_id) -> FiberPart:
    for p in fd.parts:
        if p.part_id == part_id:
            return p
    raise KeyError(part_id)


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
        p = fiber_part(fd, part_id)
        deg *= 2 ** p.degree if p.dilated else comb(p.degree, plus)
    return deg


def multisection_sign(fd: FiberDatum, ms: Multisection) -> int:
    """(-1)^(sum of plus coefficients); defined only for free fibers."""
    if not fd.is_free():
        raise PreconditionError("free-fiber", "sign undefined on dilated partition")
    return -1 if sum(plus for (_pid, plus, _minus) in ms) % 2 else 1


def swap_multisection(fd: FiberDatum, ms: Multisection) -> Multisection:
    """Exchange all signs (the canonical involution of the construction)."""
    return _canonical(fd, {pid: (minus, plus) for (pid, plus, minus) in ms})


def shape_table_by_tuples(fd: FiberDatum) -> tuple:
    """(splits, degree, swap) of `ngonal._shape_table`, worked out on the
    tuple model: each part's (plus, minus) pairs over all multisections, and
    per multisection its `multisection_degree` and the position of its
    `swap_multisection` among `multisections`."""
    mss = multisections(fd)
    position = {ms: k for k, ms in enumerate(mss)}
    return (tuple(tuple(sorted({ms[j][1:] for ms in mss})) for j in range(len(fd.parts))),
            tuple(multisection_degree(fd, ms) for ms in mss),
            tuple(position[swap_multisection(fd, ms)] for ms in mss))


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
            coarse = fiber_part(self.coarse, self.part_map[p.part_id])
            if p.dilated and not coarse.dilated:
                raise GraphError("a dilated part cannot refine a free part")
            sums[coarse.part_id] += p.degree
        for p in self.coarse.parts:
            if sums[p.part_id] != p.degree:
                raise GraphError(f"refinement degree mismatch at coarse part {p.part_id}")


def induce_multisection(r: Refinement, ms: Multisection) -> Multisection:
    coeffs = {p.part_id: [0, 0] for p in r.coarse.parts}
    for (part_id, plus, minus) in ms:
        coarse = fiber_part(r.coarse, r.part_map[part_id])
        if not coarse.dilated and r.flip.get(part_id, False):
            plus, minus = minus, plus
        coeffs[coarse.part_id][0] += plus
        coeffs[coarse.part_id][1] += minus
    return _canonical(r.coarse, {k: tuple(v) for k, v in coeffs.items()})


def _root_refinement(t: Tower, fibers: dict, h) -> Refinement:
    """Refinement from the fiber over a base half-edge into the fiber over
    its root vertex, with plus/minus alignment from the top level."""
    fine, coarse = fibers[hpoint(h)], fibers[vpoint(t.base.root[h])]
    part_map, flip = {}, {}
    for p in fine.parts:
        mid_root = t.mid.root[p.part_id]
        part_map[p.part_id] = mid_root
        if not p.dilated and not fiber_part(coarse, mid_root).dilated:
            # the two top-level preimages of a free mid point, plus first
            top_halves = t.pi.fiber_half_edges(p.part_id)
            top_roots = t.pi.fiber_vertices(mid_root)
            flip[p.part_id] = t.top.root[top_halves[0]] == top_roots[1]
    return Refinement(fine, coarse, part_map, flip)


def _partner_transport(t: Tower, fibers: dict, h) -> Refinement:
    """Bijective refinement from the fiber over h onto the fiber over its
    partner, with plus/minus alignment from the top level."""
    fine, coarse = fibers[hpoint(h)], fibers[hpoint(t.base.partner[h])]
    part_map, flip = {}, {}
    for p in fine.parts:
        mate = t.mid.partner[p.part_id]
        part_map[p.part_id] = mate
        if not p.dilated:
            top_halves = t.pi.fiber_half_edges(p.part_id)
            mate_halves = t.pi.fiber_half_edges(mate)
            flip[p.part_id] = t.top.partner[top_halves[0]] == mate_halves[1]
    return Refinement(fine, coarse, part_map, flip)


def _transport_table(tables: dict, r: Refinement) -> tuple:
    """Position of the induced multisection in the coarse fiber, per fine
    multisection: a function of the two shapes, of which coarse part each
    fine part goes to and of which labels flip.  Worked out by
    `induce_multisection` on the first refinement of its kind."""
    fine, coarse = r.fine.parts, r.coarse.parts
    place = {p.part_id: j for j, p in enumerate(coarse)}
    key = (_fiber_shape(r.fine), _fiber_shape(r.coarse),
           tuple(place[r.part_map[p.part_id]] for p in fine),
           tuple(r.flip.get(p.part_id, False) for p in fine))
    if key not in tables:
        position = {ms: k for k, ms in enumerate(multisections(r.coarse))}
        tables[key] = tuple(position[induce_multisection(r, ms)] for ms in multisections(r.fine))
    return tables[key]


def ngonal_construct_per_point(t: Tower, n: int) -> NgonalConstruction:
    """ngonal.ngonal_construct as it was: one `induce_multisection` per
    point of the cover and transport, one `multisection_degree` and one
    `swap_multisection` per point."""
    if n not in (2, 3, 4):
        raise PreconditionError("degree", "only degrees 2, 3, 4 are exposed")
    if t.f.global_degree() != n:
        raise PreconditionError("degree", f"tower has degree {t.f.global_degree()}, expected {n}")
    if not is_connected(t.base):
        raise PreconditionError("connected", "base must be connected")
    base = t.base

    fibers = {p: tower_fiber(t, p) for p in base.points()}
    v_ids, v_info = _dense_ids((v, ms) for v in base.vertices
                               for ms in multisections(fibers[vpoint(v)]))
    h_ids, h_info = _dense_ids((h, ms) for h in base.half_edges
                               for ms in multisections(fibers[hpoint(h)]))

    refinements = {h: (_root_refinement(t, fibers, h), _partner_transport(t, fibers, h))
                   for h in base.half_edges}
    root, partner = {}, {}
    for i, (h, ms) in h_info.items():
        to_root, to_partner = refinements[h]
        root[i] = v_ids[(base.root[h], induce_multisection(to_root, ms))]
        partner[i] = h_ids[(base.partner[h], induce_multisection(to_partner, ms))]

    total = Graph(tuple(range(len(v_ids))), root, partner)
    vdeg = {i: multisection_degree(fibers[vpoint(v)], ms) for i, (v, ms) in v_info.items()}
    hdeg = {i: multisection_degree(fibers[hpoint(h)], ms) for i, (h, ms) in h_info.items()}
    cover = _check_harmonic(HarmonicMorphism(
        total, base,
        {i: v for i, (v, ms) in v_info.items()},
        {i: h for i, (h, ms) in h_info.items()},
        vdeg, hdeg), "constructed cover")
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

    orientation, to_orient, ov_info, oh_info = _sign_quotient(n, fibers, cover, v_info, h_info)
    return NgonalConstruction(t, cover, (vperm, hperm), orientation, to_orient,
                              v_info, h_info, ov_info, oh_info, fibers)


_SLOT_PAIRS = tuple(itertools.combinations(range(4), 2))


def recillas_per_point(p: HarmonicMorphism) -> RecillasResult:
    """ngonal.recillas as it was: slot classes and slot transports worked
    out again at every base point and half-edge."""
    if p.global_degree() != 4:
        raise PreconditionError("degree-4", "Recillas construction needs a degree-4 cover")
    if not is_tree(p.target):
        raise PreconditionError("tree-base", "Recillas construction needs a tree base")
    base = p.target
    for point in base.points():
        classify_tetragonal_point(p, point)  # raises NonGenericError with the point

    slots = {}         # base point -> slot index -> fiber point id
    offsets = {}       # base point -> fiber point id -> first slot
    pair_class = {}    # base point -> slot pair -> class key
    members = {}       # base point -> class key -> slot pairs, keys sorted
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
        keys = {(a, b): tuple(sorted((assign[a], assign[b]))) for a, b in _SLOT_PAIRS}
        groups = {}
        for pair, key in keys.items():
            groups.setdefault(key, []).append(pair)
        pair_class[point], members[point] = keys, dict(sorted(groups.items()))

    def slot_map_to(point_from, point_to, fiber_map):
        """Slot bijection induced by a part-respecting map of fiber points."""
        used = {x: 0 for x in offsets[point_to]}
        out = {}
        for s in range(4):
            target_pt = fiber_map[slots[point_from][s]]
            out[s] = offsets[point_to][target_pt] + used[target_pt]
            used[target_pt] += 1
        return out

    def carried_class(point, pair, slot_map):
        return pair_class[point][tuple(sorted(slot_map[s] for s in pair))]

    v_ids, v_info = _dense_ids((v, key) for v in base.vertices for key in members[vpoint(v)])
    h_ids, h_info = _dense_ids((h, key) for h in base.half_edges for key in members[hpoint(h)])

    root, partner = {}, {}
    for h in base.half_edges:
        v, mate, here = base.root[h], base.partner[h], hpoint(h)
        root_map = slot_map_to(here, vpoint(v), {x: p.source.root[x] for x in offsets[here]})
        partner_map = slot_map_to(here, hpoint(mate),
                                  {x: p.source.partner[x] for x in offsets[here]})
        for key, pairs in members[here].items():
            rooted = {carried_class(vpoint(v), m, root_map) for m in pairs}
            carried = {carried_class(hpoint(mate), m, partner_map) for m in pairs}
            if len(rooted) != 1 or len(carried) != 1:
                raise AssertionError("slot transport is not constant on a class")
            root[h_ids[(h, key)]] = v_ids[(v, rooted.pop())]
            partner[h_ids[(h, key)]] = h_ids[(mate, carried.pop())]

    total = Graph(tuple(range(len(v_ids))), root, partner)
    sextic = _check_harmonic(HarmonicMorphism(
        total, base,
        {i: v for i, (v, key) in v_info.items()},
        {i: h for i, (h, key) in h_info.items()},
        {i: len(members[vpoint(v)][key]) for i, (v, key) in v_info.items()},
        {i: len(members[hpoint(h)][key]) for i, (h, key) in h_info.items()}), "Recillas cover")
    if sextic.global_degree() != 6:
        raise AssertionError("Recillas cover must have degree 6")

    def complement_key(point, key):
        first = members[point][key][0]
        return pair_class[point][tuple(x for x in range(4) if x not in first)]

    vperm = {i: v_ids[(v, complement_key(vpoint(v), key))] for i, (v, key) in v_info.items()}
    hperm = {i: h_ids[(h, complement_key(hpoint(h), key))] for i, (h, key) in h_info.items()}
    if any(vperm[i] == i for i in vperm) or any(hperm[i] == i for i in hperm):
        raise AssertionError("complement involution must be fixed-point-free on generic fibers")
    tower = involution_quotient(sextic, vperm, hperm)
    if not tower.pi.is_free():
        raise AssertionError("Recillas double cover must be free")
    if tower.f.global_degree() != 3:
        raise AssertionError("Recillas base map must have degree 3")
    return RecillasResult(tower, v_info, h_info)


@dataclass(frozen=True)
class _SlotClasses:
    """The 2-subsets of a fiber's four slots, by class, for one fiber
    profile (the local degrees of the fiber points in id order), all by
    position in the fiber: the point of each slot and the first slot of
    each point; per class in sorted order, the pair of points its subsets
    touch, its subsets and the class of the complement of its first
    subset; and the class of each subset."""

    point: tuple
    first_slot: tuple
    keys: tuple
    members: tuple
    complement: tuple
    pair_class: dict


def _slot_classes(profile: tuple) -> _SlotClasses:
    point = tuple(j for j, d in enumerate(profile) for _ in range(d))
    touched = {(a, b): tuple(sorted((point[a], point[b]))) for a, b in _SLOT_PAIRS}
    keys = tuple(sorted(set(touched.values())))
    pair_class = {pair: keys.index(key) for pair, key in touched.items()}
    members = tuple(tuple(pair for pair in _SLOT_PAIRS if pair_class[pair] == c)
                    for c in range(len(keys)))
    return _SlotClasses(
        point, tuple(point.index(j) for j in range(len(profile))), keys, members,
        tuple(pair_class[tuple(x for x in range(4) if x not in m[0])] for m in members),
        pair_class)


def _carried_classes(source: _SlotClasses, target: _SlotClasses, fiber_map: tuple) -> tuple:
    """The class at the target carried by each class at the source, under
    the slot bijection that a part-respecting map of fiber points induces
    (fiber_map[j]: position of the image of point j)."""
    used = [0] * len(target.first_slot)
    slot_map = []
    for j in map(fiber_map.__getitem__, source.point):
        slot_map.append(target.first_slot[j] + used[j])
        used[j] += 1
    carried = []
    for pairs in source.members:
        classes = {target.pair_class[tuple(sorted(slot_map[x] for x in pair))] for pair in pairs}
        if len(classes) != 1:
            raise AssertionError("slot transport is not constant on a class")
        carried.append(classes.pop())
    return tuple(carried)


# ---------------------------------------------------------------------------
# the chain maps before `jacprym.chain_image`


def push_chain_by_loop(cover: DoubleCover, chain: dict) -> dict:
    """Chain map of the covering projection."""
    f = cover
    out = {}
    for k, c in chain.items():
        img_half = f.h(k)
        key = f.target.edge_key(img_half)
        sign = 1 if img_half == key else -1
        out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in sorted(out.items()) if v}


def pull_chain_by_fiber_edges(cover: DoubleCover, chain: dict) -> dict:
    """Pullback of 1-forms: a free edge lifts to both preimages, a dilated
    edge to twice its single preimage."""
    f = cover
    out = {}
    for k, c in chain.items():
        for up in f.fiber_edges(k):
            sign = 1 if f.h(up) == k else -1
            out[up] = out.get(up, 0) + sign * c * f.deg_edge(up)
    return {k: v for k, v in sorted(out.items()) if v}


def invol_chain_by_loop(cover: DoubleCover, chain: dict) -> dict:
    g = cover.source
    out = {}
    for k, c in chain.items():
        img_half = cover.half_edge_invol[k]
        key = g.edge_key(img_half)
        sign = 1 if img_half == key else -1
        out[key] = out.get(key, 0) + sign * c
    return {k: v for k, v in sorted(out.items()) if v}


def lift_dilated_cycle_by_fiber_edges(cover: DoubleCover, cyc: dict) -> dict:
    f = cover
    out = {}
    for k, c in cyc.items():
        ups = f.fiber_edges(k)
        if len(ups) != 1:
            raise AssertionError("dilated edge must have a unique preimage")
        kk = ups[0]
        sign = 1 if f.h(kk) == k else -1
        out[kk] = sign * c
    return {k: c for k, c in sorted(out.items()) if c}


def phi_by_half_edge_info(info: dict, section: dict, lift, top: Graph, cycle: dict) -> dict:
    """Phi of a chain on the section cover (through the relabeling
    `section`), read off `half_edge_info` as the trigonal witness read it:
    keys unsorted, zeros kept.  lift is the top fiber of a mid half-edge."""
    out = {}
    for k, c in cycle.items():
        for x, plus, minus in info[section[k]][1]:
            for h, m in zip(lift(x), (plus, minus)):
                key = top.edge_key(h)
                out[key] = out.get(key, 0) + (c * m if h == key else -c * m)
    return out


# ---------------------------------------------------------------------------
# seeded generation that validated every draw, before it checked only the
# tower it returns; the bodies are the replaced ones, calling each other


def graph_from_edges_by_loop(n_vertices, edge_list):
    vertices = tuple(range(n_vertices)) if isinstance(n_vertices, int) else tuple(n_vertices)
    root, partner = {}, {}
    for i, (u, v) in enumerate(edge_list):
        a, b = 2 * i, 2 * i + 1
        root[a], root[b] = u, v
        partner[a], partner[b] = b, a
    return Graph(vertices, root, partner), tuple(2 * i for i in range(len(edge_list)))


def build_double_cover_by_sheet_pairs(g: Graph, dilated_vertices=(), dilated_edge_keys=(),
                                      bits=None) -> DoubleCover:
    dil_v = set(dilated_vertices)
    dil_e = set(dilated_edge_keys)
    bits = dict(bits or {})
    for k in dil_e:
        for end in g.edge_ends(k):
            if end not in dil_v:
                raise GraphError(f"dilated edge {k} has a free endpoint {end}")
    vertex_ids = {}
    for v in g.vertices:
        for s in ((0,) if v in dil_v else (0, 1)):
            vertex_ids[(v, s)] = len(vertex_ids)
    half_ids = {}
    for h in g.half_edges:
        for s in ((0,) if g.edge_key(h) in dil_e else (0, 1)):
            half_ids[(h, s)] = len(half_ids)
    root, partner, hmap = {}, {}, {}
    for (h, s), i in half_ids.items():
        r = g.root[h]
        if r in dil_v:
            root[i] = vertex_ids[(r, 0)]
        else:
            root[i] = vertex_ids[(r, s ^ bits.get(h, 0))]
        partner[i] = half_ids[(g.partner[h], s)]
        hmap[i] = h
    source = Graph(tuple(range(len(vertex_ids))), root, partner)
    vdeg = {i: 2 if v in dil_v else 1 for (v, s), i in vertex_ids.items()}
    hdeg = {i: 2 if g.edge_key(h) in dil_e else 1 for (h, s), i in half_ids.items()}
    vmap = {i: v for (v, s), i in vertex_ids.items()}
    return DoubleCover.from_harmonic(HarmonicMorphism(source, g, vmap, hmap, vdeg, hdeg))


def harmonic_from_edges_by_rebuilds(n_vertices, edge_spec, target: Graph, vmap: dict) -> HarmonicMorphism:
    graph, keys = graph_from_edges_by_loop(n_vertices, [(u, v) for (u, v, _k, _d) in edge_spec])
    hmap, hdeg = {}, {}
    for i, (u, v, k, d) in enumerate(edge_spec):
        ends = (target.root[k], target.root[target.partner[k]])
        if (vmap[u], vmap[v]) == ends:
            hmap[2 * i], hmap[2 * i + 1] = k, target.partner[k]
        elif (vmap[v], vmap[u]) == ends:
            hmap[2 * i], hmap[2 * i + 1] = target.partner[k], k
        else:
            raise GraphError(f"edge {i} does not lie over target edge {k}")
        hdeg[2 * i] = hdeg[2 * i + 1] = d
    vdeg = {}
    for v in graph.vertices:
        if not graph.tangent(v):
            raise GraphError(f"vertex {v} is isolated; cannot derive its degree")
        h = graph.tangent(v)[0]
        target_half = hmap[h]
        vdeg[v] = sum(hdeg[x] for x in graph.tangent(v) if hmap[x] == target_half)
    out = HarmonicMorphism(graph, target, dict(vmap), hmap, vdeg, hdeg)
    issues = validate_harmonic(out)
    if issues:
        raise GraphError(f"edge spec is not harmonic: {issues[0]}")
    return out


def _random_tree_by_loop(rng, n_vertices):
    edges = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    return graph_from_edges_by_loop(n_vertices, edges)


def random_harmonic_map_by_rebuilds(rng, base: Graph, n: int) -> HarmonicMorphism:
    parts = {v: rng.choice(randgen._partitions(n)) for v in base.vertices}
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
    return harmonic_from_edges_by_rebuilds(vid, sorted(edge_spec), base, vmap)


def random_double_cover_of_by_edge_key(rng, f_source: Graph,
                                       dilation_probability: Fraction) -> DoubleCover:
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
    return build_double_cover_by_sheet_pairs(f_source, dil_v, dil_e, bits)


def betti_number(g: Graph) -> int:
    """|E| - |V| + number of components: the genus summed over components."""
    return len(g.edge_keys()) - len(g.vertices) + len(_components(g))


def random_tower_checking_every_draw(seed: int, *, n: int, tree_size=(2, 5),
                                     dilation_probability=Fraction(1, 3), length_range=(1, 6),
                                     pi_free=None, generic=False, connected=True,
                                     max_prym_rank=None) -> randgen.GeneratedTower:
    if n not in (2, 3, 4):
        raise GraphError("tower degree must be 2, 3 or 4")
    rng = random.Random(seed)
    failing = "none"
    for attempt in range(randgen._TRIES):
        base, keys = _random_tree_by_loop(rng, rng.randint(*tree_size))
        metric = MetricGraph(base, randgen.random_lengths(rng, keys, length_range))
        f = random_harmonic_map_by_rebuilds(rng, base, n)
        prob = Fraction(0) if pi_free else dilation_probability
        cover = random_double_cover_of_by_edge_key(rng, f.source, prob)
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
        return randgen.GeneratedTower(tower, metric)
    raise randgen.GenerationError(failing, randgen._TRIES)


def random_tetragonal_curve_checking_every_draw(seed: int, *, tree_size=(2, 5)):
    rng = random.Random(seed)
    failing = "none"
    for attempt in range(randgen._TRIES):
        base, keys = _random_tree_by_loop(rng, rng.randint(*tree_size))
        metric = MetricGraph(base, randgen.random_lengths(rng, keys))
        f = random_harmonic_map_by_rebuilds(rng, base, 4)
        if not is_generic_tetragonal(f):
            failing = "generic"
            continue
        if not is_connected(f.source):
            failing = "connected"
            continue
        return GeneratedCover(f, metric)
    raise randgen.GenerationError(failing, randgen._TRIES)


# ---------------------------------------------------------------------------
# operations no command, construction or check reaches, tested for their own sake

@dataclass(frozen=True)
class Contraction:
    morphism: HarmonicMorphism
    source_vertex_map: dict


def contract_edge(f: HarmonicMorphism, key: int) -> Contraction:
    """Contract a target edge and every source edge above it.

    Each connected component of the preimage of the edge (with its two
    endpoints) collapses to one vertex whose degree is the degree of the
    restriction of f to that component.
    """
    t = f.target
    if key not in t.edge_keys():
        raise GraphError(f"{key} is not an edge key of the target")
    u, v = t.edge_ends(key)
    w = min(u, v)
    t_vmap = {x: (w if x in (u, v) else x) for x in t.vertices}
    dead_t = {key, t.partner[key]}
    new_t = Graph(tuple(sorted(set(t_vmap.values()))),
                  {h: t_vmap[t.root[h]] for h in t.half_edges if h not in dead_t},
                  {h: t.partner[h] for h in t.half_edges if h not in dead_t})

    s = f.source
    fiber_keys = set(f.fiber_edges(key))
    fiber_halves = set()
    for k in fiber_keys:
        fiber_halves.add(k)
        fiber_halves.add(s.partner[k])
    # components of the preimage of {u, v, e}
    end_vertices = set(f.fiber_vertices(u) + f.fiber_vertices(v))
    s_vmap = {x: x for x in s.vertices}
    new_vd = dict(f.vertex_degree)
    for members in _bfs_components(s, end_vertices, fiber_keys):
        rep = min(members)
        over_u = [x for x in members if f.v(x) == u]
        deg = sum(f.vertex_degree[x] for x in over_u)
        if deg == 0:  # e is a loop at u=v; the restriction degree is the sum over u
            deg = sum(f.vertex_degree[x] for x in members)
        for x in members:
            s_vmap[x] = rep
            new_vd.pop(x, None)
        new_vd[rep] = deg
    new_s = Graph(tuple(sorted(set(s_vmap.values()))),
                  {h: s_vmap[s.root[h]] for h in s.half_edges if h not in fiber_halves},
                  {h: s.partner[h] for h in s.half_edges if h not in fiber_halves})
    new_f = HarmonicMorphism(
        new_s, new_t, {x: t_vmap[f.v(x)] for x in new_s.vertices},
        {h: f.h(h) for h in new_s.half_edges}, {x: new_vd[x] for x in new_s.vertices},
        {h: f.half_edge_degree[h] for h in new_s.half_edges})
    issues = validate_harmonic(new_f)
    if issues:
        raise GraphError(f"contraction produced a non-harmonic morphism: {issues[0]}")
    return Contraction(new_f, s_vmap)


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
    if not leaves:
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
    return MetricGraph(Graph(tuple(vertices), root, partner), length)


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
    new_source = MetricGraph(new_source_graph, length)
    return new_f, new_source, new_target
