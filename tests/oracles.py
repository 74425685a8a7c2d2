"""Replaced algorithms, kept as differential oracles for the tests.

The package builds the norm-kernel (Prym) torus from involution-adapted
homology bases.  The route it replaced finds the same lattices by Smith
normal forms: a saturated kernel basis of the pushforward, a torsion-free
cokernel of the pullback, the induced polarization, and a principal
rescaling in Smith-adapted bases.  It lives here, unchanged, so the tests
can compare the two routes; so does the Fraction Cholesky reference of
the definiteness test and the short-vector search, and the harmonicity
check that rescanned a vertex's tangent space once per target half-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from tropcover import intlinalg as la
from tropcover.graphs import (HarmonicMorphism, ValidationIssue, hpoint,
                              is_connected, validate_morphism, vpoint)
from tropcover.tori import (IntegralTorus, KernelTorus, Polarization,
                            PrincipalModel, TorusHom, classify_hom,
                            identity_hom, induced_polarization)


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
    res = la.snf(matrix)
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
    res = la.snf(matrix)
    r = res.rank
    proj = tuple(res.U[i] for i in range(r, n))
    uinv = la.to_int(la.inverse(res.U)) if n else tuple()
    reps = tuple(row[r:] for row in uinv)
    cok = Cokernel(n - r, la.mat(proj) if proj else la.zeros(0, n), reps if n else la.zeros(0, 0))
    if cok.rank:
        if not la.mat_equal(la.matmul(cok.projection, cok.representatives), la.identity(cok.rank)):
            raise AssertionError("cokernel: projection @ representatives != I")
        if m and any(x for row in la.matmul(cok.projection, la.mat(matrix)) for x in row):
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
        pairing = la.matmul(la.matmul(la.transpose(cok.representatives), h.source.pairing), ker)
    else:
        pairing = tuple()
    torus = IntegralTorus(pairing)
    inclusion = TorusHom(torus, h.source, cok.projection, ker)
    return KernelTorus(torus, inclusion, cok.projection, cok.representatives, ker)


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
        pairing = la.matmul(la.matmul(la.transpose(ker), h.target.pairing), cok.representatives)
    else:
        pairing = tuple()
    torus = IntegralTorus(pairing)
    quotient = TorusHom(h.target, torus, ker, cok.projection)
    return CokernelTorus(torus, quotient)


def pp_rescale(pol: Polarization) -> PrincipalModel:
    g = pol.torus.rank
    if g == 0:
        return PrincipalModel(Polarization(pol.torus, la.identity(0)),
                              identity_hom(pol.torus), 1)
    res = la.snf(pol.matrix)
    diag = res.diagonal()
    big = diag[-1]
    uinv = la.to_int(la.inverse(res.U))
    # P in the adapted bases, then each row i scaled by a_i / a_g
    p_ad = la.matmul(la.matmul(la.transpose(uinv), pol.torus.pairing), res.V)
    p_pp = tuple(tuple(Fraction(diag[i], big) * p_ad[i][j] for j in range(g)) for i in range(g))
    pp_torus = IntegralTorus(p_pp)
    zeta = Polarization(pp_torus, la.identity(g))
    scale = tuple(tuple(big // diag[i] if i == j else 0 for j in range(g)) for i in range(g))
    to_original = TorusHom(pp_torus, pol.torus, la.matmul(scale, res.U), res.V)
    if not classify_hom(to_original).dilation:
        raise AssertionError("pp_rescale: rescaling map is not a dilation")
    pulled = induced_polarization(to_original, pol)
    if not la.mat_equal(pulled.matrix, la.mat_scale(big, zeta.matrix)):
        raise AssertionError("pp_rescale: induced polarization is not multiplier * principal")
    return PrincipalModel(zeta, to_original, big)


def snf_route_prym(norm: TorusHom):
    """(kernel torus, induced polarization, principal model) of a norm map,
    the way `prym` computed them before it used adapted bases."""
    ker = kernel_torus(norm)
    pol = induced_polarization(ker.inclusion, Polarization(norm.source, la.identity(norm.source.rank)))
    return ker, pol, pp_rescale(pol)


def validate_harmonic_by_rescan(f: HarmonicMorphism) -> list:
    """graphs.validate_harmonic with the local-harmonicity loop it replaced:
    for each vertex v and each target half-edge at f(v), a sum over the
    whole tangent space of v."""
    issues = list(validate_morphism(f.morphism))
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
