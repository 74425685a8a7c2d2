"""Real tori with integral structure: homomorphisms, kernels, polarizations.

An integral torus is a pair of equal-rank lattices with a nondegenerate
rational pairing; a homomorphism is a (pull, push) pair of integer
matrices compatible with the pairings.  Polarized isomorphism is decided
by a complete finite search through Gram-form isometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as la


class TorusError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralTorus:
    """Lattice pair of equal rank g with pairing[i][j] = [e_i, e'_j]."""

    pairing: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairing", la.to_fractions(self.pairing))
        n, m = la.shape(self.pairing)
        if n != m:
            raise TorusError("pairing matrix must be square")
        if n and la.det(self.pairing) == 0:
            raise TorusError("pairing must be nondegenerate")

    @property
    def rank(self) -> int:
        return len(self.pairing)

    def dual(self) -> "IntegralTorus":
        return IntegralTorus(la.transpose(self.pairing))


@dataclass(frozen=True)
class TorusHom:
    """pull = matrix of the map on first lattices (target to source),
    push = matrix on second lattices (source to target)."""

    source: IntegralTorus
    target: IntegralTorus
    pull: tuple
    push: tuple

    def __post_init__(self):
        object.__setattr__(self, "pull", la.mat(self.pull))
        object.__setattr__(self, "push", la.mat(self.push))
        g1, g2 = self.source.rank, self.target.rank
        if len(self.pull) != g1 or any(len(r) != g2 for r in self.pull):
            raise TorusError(f"pull must be {g1} x {g2}")
        if len(self.push) != g2 or any(len(r) != g1 for r in self.push):
            raise TorusError(f"push must be {g2} x {g1}")
        if g1 and g2:
            if not la.mat_equal(la.matmul(la.transpose(self.pull), self.source.pairing),
                                la.matmul(self.target.pairing, self.push)):
                raise TorusError("pull/push are not adjoint for the pairings")
            if la.rank(self.pull) != la.rank(self.push):
                raise TorusError("pull and push have different ranks")

    @property
    def rank(self) -> int:
        return la.rank(self.pull) if self.pull else 0

    def dual(self) -> "TorusHom":
        return TorusHom(self.target.dual(), self.source.dual(), self.push, self.pull)


def identity_hom(t: IntegralTorus) -> TorusHom:
    return TorusHom(t, t, la.identity(t.rank), la.identity(t.rank))


def compose_homs(g: TorusHom, f: TorusHom) -> TorusHom:
    """g after f."""
    if f.target != g.source:
        raise TorusError("homs are not composable")
    return TorusHom(f.source, g.target, la.matmul(f.pull, g.pull), la.matmul(g.push, f.push))


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
    r = h.rank
    surjective = r == g2
    finite = r == g1
    saturated = finite and all(d == 1 for d in la.snf(h.push).invariant_factors()) if g1 else finite
    injective = finite and saturated
    isogeny = surjective and finite
    free = isogeny and la.is_unimodular(h.pull) if g1 else isogeny
    dil = isogeny and la.is_unimodular(h.push) if g1 else isogeny
    return HomFlags(surjective, finite, injective, isogeny, free, dil, free and dil)


@dataclass(frozen=True)
class IsogenyFactorization:
    middle: IntegralTorus
    free_part: TorusHom      # source -> middle, pull unimodular
    dilation_part: TorusHom  # middle -> target, push unimodular


def factor_isogeny(h: TorusHom) -> IsogenyFactorization:
    """Split an isogeny as a free isogeny followed by a dilation.

    The middle torus keeps the source's first lattice and the target's
    second lattice, with the pairing divided by the invariant factors of
    the push map in adapted bases.
    """
    flags = classify_hom(h)
    if not flags.isogeny:
        raise TorusError("factor_isogeny requires an isogeny")
    g = h.source.rank
    res = la.snf(h.push)
    diag = res.diagonal()
    # second lattice of the middle torus in the adapted basis given by U^-1
    pairing_cols = la.matmul(h.source.pairing, res.V)
    middle_pairing = tuple(tuple(pairing_cols[i][j] / diag[j] for j in range(g)) for i in range(g))
    middle = IntegralTorus(middle_pairing)
    free_part = TorusHom(h.source, middle, la.identity(g), la.matmul(res.U, h.push))
    dilation_part = TorusHom(middle, h.target, h.pull, la.to_int(la.inverse(res.U)))
    composed = compose_homs(dilation_part, free_part)
    if not (la.mat_equal(composed.pull, h.pull) and la.mat_equal(composed.push, h.push)):
        raise AssertionError("factor_isogeny: composition does not reproduce the input")
    if not classify_hom(free_part).free_isogeny or not classify_hom(dilation_part).dilation:
        raise AssertionError("factor_isogeny: parts have the wrong classification")
    return IsogenyFactorization(middle, free_part, dilation_part)


@dataclass(frozen=True)
class KernelTorus:
    torus: IntegralTorus
    inclusion: TorusHom       # kernel -> source
    projection: tuple         # source first lattice -> kernel first lattice
    representatives: tuple    # section of the projection
    kernel_columns: tuple     # columns span ker(push) in the source second lattice


@dataclass(frozen=True)
class Polarization:
    """Integer map from the second lattice to the first whose associated
    bilinear form gram = X^T P is symmetric positive definite."""

    torus: IntegralTorus
    matrix: tuple
    _gram: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.mat(self.matrix))
        g = self.torus.rank
        if la.shape(self.matrix) != (g, g):
            raise TorusError("polarization matrix has wrong shape")
        if not la.is_integral(self.matrix):
            raise TorusError("polarization matrix must be integral")
        gram = self.torus.pairing if self.matrix == la.identity(g) else \
            la.matmul(la.transpose(self.matrix), self.torus.pairing)
        object.__setattr__(self, "_gram", gram)
        if not la.mat_equal(gram, la.transpose(gram)):
            raise TorusError("polarization form is not symmetric")
        if not la.is_positive_definite(gram):
            raise TorusError("polarization form is not positive definite")

    def gram(self) -> tuple:
        return self._gram

    def type(self) -> tuple:
        return la.snf(self.matrix).invariant_factors()


def induced_polarization(h: TorusHom, pol: Polarization) -> Polarization:
    """Pull a polarization on the target back along a finite homomorphism."""
    if pol.torus != h.target:
        raise TorusError("polarization is not on the hom's target")
    if not classify_hom(h).finite:
        raise TorusError("induced polarization requires a finite homomorphism")
    if h.source.rank == 0:
        return Polarization(h.source, tuple())
    x = la.matmul(la.matmul(h.pull, pol.matrix), h.push)
    return Polarization(h.source, x)


@dataclass(frozen=True)
class PrincipalModel:
    """Principally polarized rescaling of a polarized torus.

    to_original is a dilation f with f*(xi) = multiplier * (principal
    polarization); it is a bijection on the underlying real tori.
    """

    polarized: Polarization   # principal, on the rescaled torus (adapted basis)
    to_original: TorusHom
    multiplier: int


def dual_type(t: tuple, multiplier=None) -> tuple:
    if not t:
        return t
    if multiplier is None:
        multiplier = t[0] * t[-1]
    return tuple(sorted(multiplier // a for a in t))


@dataclass(frozen=True)
class DualPolarization:
    """Dual polarization on the dual torus, in Smith-adapted bases."""

    polarized: Polarization
    dual_torus: IntegralTorus
    multiplier: int


def dual_polarization(pol: Polarization, multiplier=None) -> DualPolarization:
    """xi_dual(e_i) = (multiplier / a_i) e'_i in Smith-adapted bases.

    The default multiplier a_1 * a_g makes the composition with xi the
    multiplication by a_1 * a_g and is principal iff xi is principal.
    Any common multiple of the invariant factors is allowed; theorem
    checks for double covers use the fixed multiplier 2, which agrees
    with the default exactly when the type mixes 1s and 2s.
    """
    g = pol.torus.rank
    if g == 0:
        return DualPolarization(Polarization(pol.torus.dual(), la.identity(0)),
                                pol.torus.dual(), multiplier or 1)
    res = la.snf(pol.matrix)
    diag = res.diagonal()
    if multiplier is None:
        multiplier = diag[0] * diag[-1]
    if any(multiplier % a for a in diag):
        raise TorusError("dual multiplier must be divisible by every invariant factor")
    uinv = la.to_int(la.inverse(res.U))
    p_ad = la.matmul(la.matmul(la.transpose(uinv), pol.torus.pairing), res.V)
    dual_t = IntegralTorus(la.transpose(p_ad))
    xdual = tuple(tuple(multiplier // diag[i] if i == j else 0 for j in range(g)) for i in range(g))
    dual_pol = Polarization(dual_t, xdual)
    if dual_pol.type() != dual_type(pol.type(), multiplier):
        raise AssertionError("dual polarization has the wrong type")
    if not la.mat_equal(la.matmul(res.S, xdual), la.mat_scale(multiplier, la.identity(g))):
        raise AssertionError("xi . xi_dual is not multiplication by the multiplier")
    return DualPolarization(dual_pol, dual_t, multiplier)


def polarized_isomorphic(pol1: Polarization, pol2: Polarization):
    """First isomorphism of polarized tori, or None.

    The second-lattice map B must be an isometry of the (jointly
    denominator-cleared) Gram forms, a finite set; the first-lattice map
    is then forced and accepted iff integral unimodular.  For principal
    polarizations this is the homological pptav criterion.
    """
    t1, t2 = pol1.torus, pol2.torus
    if t1.rank != t2.rank:
        raise TorusError("rank mismatch")
    if t1.rank == 0:
        return la.identity(0), la.identity(0)
    _, (q1, q2) = la.clear_denominators(pol1.gram(), pol2.gram())
    p1_inv_t = la.inverse(la.transpose(t1.pairing))
    p2_t = la.transpose(t2.pairing)
    for b in la.gram_isometries(q1, q2):
        a = la.matmul(la.matmul(p1_inv_t, la.transpose(b)), p2_t)
        if not la.is_unimodular(a):
            continue
        a = la.to_int(a)
        hom = TorusHom(t1, t2, a, b)  # adjointness re-verified in the constructor
        if not la.mat_equal(la.matmul(la.matmul(a, pol2.matrix), b), pol1.matrix):
            raise AssertionError("polarized_isomorphic: witness does not transport the polarization")
        if not classify_hom(hom).isomorphism:
            continue
        return a, b
    return None
