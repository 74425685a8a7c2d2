"""Real tori with integral structure: homomorphisms, kernels, polarizations.

An integral torus is a pair of equal-rank lattices with a nondegenerate
rational pairing; a homomorphism is a (pull, push) pair of integer
matrices compatible with the pairings.  A polarization is dualized in
adapted form, diag(d_1 | d_2 | ...), the form in which the package builds
every polarization.  Polarized isomorphism is decided by a complete finite
search through Gram-form isometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from . import intlinalg as la


class TorusError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class IntegralTorus:
    """Lattice pair of equal rank g with pairing[i][j] = [e_i, e'_j].

    The pairing is kept as (D, integer rows) in lowest terms, pairing ==
    rows / D, so two tori are equal iff their pairings are; with it the
    verdict of one non-pivoting elimination: whether every leading
    principal minor is positive, which for a symmetric pairing is positive
    definiteness.  The checks of `TorusHom` and `Polarization` read both;
    the Fraction matrix `pairing` is built only when it is read.
    """

    _int_form: tuple
    _positive: bool = field(compare=False, repr=False)

    def __init__(self, pairing):
        # what a dataclass with an init-only `pairing` would run; the name
        # `pairing` stays free for the Fraction matrix built on first read
        self.__post_init__(pairing)

    def __post_init__(self, pairing):
        n, m = la.shape(pairing)
        if n != m:
            raise TorusError("pairing matrix must be square")
        d, rows = la._scaled(pairing)
        self._keep_int_form(d, la.mat(rows), None)

    def _keep_int_form(self, d, rows, positive):
        if positive is None:
            nonsingular, positive = la.leading_minor_verdict(rows)
            if not nonsingular:
                raise TorusError("pairing must be nondegenerate")
        object.__setattr__(self, "_int_form", la.lowest_terms(d, rows))
        object.__setattr__(self, "_positive", positive)

    @classmethod
    def _from_int_form(cls, d, rows, positive=None) -> "IntegralTorus":
        """Torus on the square pairing rows / D, from that integer form.

        With `positive` None the pairing is checked as in the constructor.
        Otherwise the caller has proved it nondegenerate, with that
        leading-minor verdict, and nothing is eliminated.
        """
        torus = object.__new__(cls)
        torus._keep_int_form(d, rows, positive)
        return torus

    @cached_property
    def pairing(self) -> tuple:
        return la.unscaled(*self._int_form)

    @property
    def rank(self) -> int:
        return len(self._int_form[1])

    def dual(self) -> "IntegralTorus":
        # the transpose has the same leading principal minors
        d, rows = self._int_form
        return IntegralTorus._from_int_form(d, la.transpose(rows), self._positive)


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
            # pull^T (S / d_s) == (T / d_t) push, on the integer rows S and T;
            # T push is taken as (push^T T^T)^T, so that each product has the
            # sparse map as its left factor
            d_s, s = self.source._int_form
            d_t, t = self.target._int_form
            pull_s = la.int_matmul(la.transpose(self.pull), s)
            t_push = la.transpose(la.int_matmul(la.transpose(self.push), la.transpose(t)))
            if d_s != d_t:
                pull_s, t_push = la.mat_scale(d_t, pull_s), la.mat_scale(d_s, t_push)
            if pull_s != t_push:
                raise TorusError("pull/push are not adjoint for the pairings")
            # both pairings are nondegenerate, so adjointness forces
            # rank(pull) == rank(push)

    def dual(self) -> "TorusHom":
        return TorusHom(self.target.dual(), self.source.dual(), self.push, self.pull)


@dataclass(frozen=True)
class KernelTorus:
    inclusion: TorusHom       # kernel -> source; pull projects, push's columns span the kernel
    representatives: tuple    # section of the projection inclusion.pull


@dataclass(frozen=True)
class Polarization:
    """Integer map from the second lattice to the first whose associated
    bilinear form gram = X^T P is symmetric positive definite.

    The form is kept as (D, integer rows) on the scale of the torus; the
    Fraction matrix `gram()` is built only when it is read.
    """

    torus: IntegralTorus
    matrix: tuple
    _int_gram: tuple = field(init=False, compare=False, repr=False, default=None)
    _gram: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.mat(self.matrix))
        g = self.torus.rank
        if la.shape(self.matrix) != (g, g):
            raise TorusError("polarization matrix has wrong shape")
        if not la.is_integral(self.matrix):
            raise TorusError("polarization matrix must be integral")
        d, rows = self.torus._int_form
        scale = tuple(int(self.matrix[i][i]) for i in range(g))
        if la.is_diagonal(self.matrix, scale) and all(s > 0 for s in scale):
            # the leading minors of diag(s) P are s_1 ... s_k times those of
            # P, so the torus's verdict decides definiteness
            form = rows if all(s == 1 for s in scale) else \
                tuple(tuple(s * x for x in row) for s, row in zip(scale, rows))
            positive = self.torus._positive
        else:
            form = la.int_matmul(la.transpose(la.to_int(self.matrix)), rows)
            positive = None
        object.__setattr__(self, "_int_gram", (d, form))
        if form != la.transpose(form):
            raise TorusError("polarization form is not symmetric")
        if not (la.is_positive_definite(form) if positive is None else positive):
            raise TorusError("polarization form is not positive definite")

    def gram(self) -> tuple:
        if self._gram is None:
            d, form = self._int_gram
            object.__setattr__(self, "_gram", self.torus.pairing if form is self.torus._int_form[1]
                               else la.unscaled(d, form))
        return self._gram


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


def _is_chain(d) -> bool:
    """d_1 | d_2 | ... with every d_i > 0."""
    return all(a > 0 for a in d) and all(b % a == 0 for a, b in zip(d, d[1:]))


def dual_polarization(pol: Polarization, multiplier=None) -> Polarization:
    """xi_dual(e_i) = (multiplier / d_i) e'_i for xi = diag(d_1, ..., d_g),
    on the dual torus `pol.torus.dual()` in the adapted bases of pol.

    The polarization must be in adapted form, diagonal with d_1 | d_2 | ...,
    as every polarization the package builds is; then the dual torus is the
    transposed pairing in the same bases, and the type of xi is (d_i).
    The default multiplier d_1 * d_g makes the composition with xi the
    multiplication by d_1 * d_g and is principal iff xi is principal.
    Any common multiple of the d_i is allowed; theorem checks for double
    covers use the fixed multiplier 2, which agrees with the default exactly
    when the type mixes 1s and 2s.
    """
    g = pol.torus.rank
    if g == 0:
        return Polarization(pol.torus.dual(), la.identity(0))
    x = pol.matrix
    d = tuple(x[i][i] for i in range(g))
    if not la.is_diagonal(x, d) or not _is_chain(d):
        raise TorusError("dual polarization needs an adapted polarization diag(d_1 | d_2 | ...)")
    if multiplier is None:
        multiplier = d[0] * d[-1]
    if any(multiplier % a for a in d):
        raise TorusError("dual multiplier must be divisible by every invariant factor")
    xdual = la.diag([multiplier // a for a in d])
    dual_pol = Polarization(pol.torus.dual(), xdual)
    # multiplier / d_g | ... | multiplier / d_1: the reversed diagonal is the type
    dual_diag = tuple(xdual[i][i] for i in reversed(range(g)))
    if not _is_chain(dual_diag) or dual_diag != dual_type(d, multiplier):
        raise AssertionError("dual polarization has the wrong type")
    if not la.is_diagonal(la.int_matmul(x, xdual), (multiplier,) * g):
        raise AssertionError("xi . xi_dual is not multiplication by the multiplier")
    return dual_pol


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
    (e1, g1), (e2, g2) = (la.lowest_terms(*pol._int_gram) for pol in (pol1, pol2))
    e = lcm(e1, e2)
    q1, q2 = la.mat_scale(e // e1, g1), la.mat_scale(e // e2, g2)
    # with P_i = S_i / d_i, A = P1^-T B^T P2^T = d1 X B^T S2^T / (delta d2)
    # for S1^-T = X / delta
    d1, s1 = t1._int_form
    d2, s2 = t2._int_form
    delta, x = la.scaled_inverse(la.transpose(s1))
    s2_t = la.transpose(s2)
    # each Polarization has proved its form symmetric positive definite
    for b in la.definite_isometries(q1, q2):
        xbs = la.int_matmul(la.int_matmul(x, la.transpose(b)), s2_t)
        a = la.exact_quotient(la.mat_scale(d1, xbs), delta * d2)
        if a is None:
            continue
        try:
            la.unimodular_inverse(a)  # ValueError unless a is unimodular
        except ValueError:
            continue
        return certify_isomorphism(pol1, pol2, a, b)
    return None


def certify_isomorphism(pol1: Polarization, pol2: Polarization, a, b) -> tuple:
    """(a, b) once it has passed the re-checks of a polarized isomorphism:
    adjointness for the two pairings (TorusError otherwise) and the
    transport law a pol2 b == pol1, which a forced first-lattice map must
    satisfy (AssertionError otherwise)."""
    TorusHom(pol1.torus, pol2.torus, a, b)  # adjointness re-verified in the constructor
    if la.int_matmul(la.int_matmul(a, pol2.matrix), b) != pol1.matrix:
        raise AssertionError("polarized_isomorphic: witness does not transport the polarization")
    return a, b
