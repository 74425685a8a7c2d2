"""Real tori with integral structure: homomorphisms, kernels, polarizations.

An integral torus is a pair of equal-rank lattices with a nondegenerate
rational pairing, kept as (D, integer rows), with its builder's proof of
whether the pairing's leading minors are positive; a homomorphism is a
(pull, push) pair of integer matrices compatible with the pairings.  A
polarization is a positive integer diagonal map, the elementary-divisor
form in which the package builds every polarization, so its Gram form is
the pairing with row i scaled by x_i and its dual is read off the
diagonal.  Polarized isomorphism is decided by a complete finite search
through Gram-form isometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import intlinalg as la


class TorusError(ValueError):
    pass


@dataclass(frozen=True)
class IntegralTorus:
    """Lattice pair of equal rank g with [e_i, e'_j] = rows[i][j] / D.

    `form` is (D, integer rows), kept in lowest terms, so two tori are equal
    iff their pairings are.  `positive` is the builder's proved verdict
    that every leading principal minor is positive, which for a symmetric
    pairing is positive definiteness: a Jacobian's from its certified Gram,
    a Prym's from the K^T G K identity, a dual's from the torus it
    transposes.  The checks of `TorusHom` and `Polarization` read both.
    """

    form: tuple
    positive: bool = field(compare=False, repr=False)

    def __post_init__(self):
        d, rows = self.form
        rows = la.mat(rows)
        if any(len(row) != len(rows) for row in rows):
            raise TorusError("pairing matrix must be square")
        object.__setattr__(self, "form", la.lowest_terms(d, rows))

    @property
    def rank(self) -> int:
        return len(self.form[1])

    def dual(self) -> "IntegralTorus":
        # the transpose has the same leading principal minors
        d, rows = self.form
        return IntegralTorus((d, la.transpose(rows)), self.positive)


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
            d_s, s = self.source.form
            d_t, t = self.target.form
            pull_s = la.int_matmul(la.transpose(self.pull), s)
            t_push = la.transpose(la.int_matmul(la.transpose(self.push), la.transpose(t)))
            if d_s != d_t:
                pull_s, t_push = la.mat_scale(d_t, pull_s), la.mat_scale(d_s, t_push)
            if pull_s != t_push:
                raise TorusError("pull/push are not adjoint for the pairings")
            # both pairings are nondegenerate, so adjointness forces
            # rank(pull) == rank(push)


@dataclass(frozen=True)
class KernelTorus:
    inclusion: TorusHom       # kernel -> source; pull projects, push's columns span the kernel
    representatives: tuple    # section of the projection inclusion.pull


@dataclass(frozen=True)
class Polarization:
    """Positive integer diagonal map X = diag(x_1, ..., x_g) from the second
    lattice to the first whose bilinear form X^T P, the pairing with row i
    scaled by x_i, is symmetric positive definite.

    `gram()` is that form as (D, integer rows) on the scale of the torus.
    """

    torus: IntegralTorus
    matrix: tuple
    _gram: tuple = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.mat(self.matrix))
        g = self.torus.rank
        if la.shape(self.matrix) != (g, g):
            raise TorusError("polarization matrix has wrong shape")
        scale = tuple(self.matrix[i][i] for i in range(g))
        if not (la.is_diagonal(self.matrix, scale) and all(type(s) is int and s > 0 for s in scale)):
            raise TorusError("polarization matrix must be a positive integer diagonal")
        d, rows = self.torus.form
        form = rows if all(s == 1 for s in scale) else \
            tuple(tuple(s * x for x in row) for s, row in zip(scale, rows))
        object.__setattr__(self, "_gram", (d, form))
        if form != la.transpose(form):
            raise TorusError("polarization form is not symmetric")
        # the leading minors of diag(s) P are s_1 ... s_k times those of P,
        # so the torus's verdict decides definiteness
        if not self.torus.positive:
            raise TorusError("polarization form is not positive definite")

    def gram(self) -> tuple:
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


def dual_type(t: tuple, multiplier: int) -> tuple:
    return tuple(sorted(multiplier // a for a in t))


def _is_chain(d) -> bool:
    """d_1 | d_2 | ... with every d_i > 0."""
    return all(a > 0 for a in d) and all(b % a == 0 for a, b in zip(d, d[1:]))


def dual_polarization(pol: Polarization, multiplier: int) -> Polarization:
    """xi_dual(e_i) = (multiplier / d_i) e'_i for xi = diag(d_1, ..., d_g),
    on the dual torus `pol.torus.dual()` in the adapted bases of pol.

    The diagonal must be a divisibility chain d_1 | d_2 | ..., as on every
    polarization the package builds; then the dual torus is the
    transposed pairing in the same bases, and the type of xi is (d_i).
    The multiplier may be any common multiple of the d_i; the composition
    with xi is then the multiplication by it.  The theorem check for double
    covers uses 2.
    """
    g = pol.torus.rank
    if g == 0:
        return Polarization(pol.torus.dual(), la.identity(0))
    x = pol.matrix
    d = tuple(x[i][i] for i in range(g))
    if not _is_chain(d):
        raise TorusError("dual polarization needs an adapted polarization diag(d_1 | d_2 | ...)")
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

    The second-lattice map B must be an isometry of the Gram forms Q_i =
    X_i P_i (over their common denominator), a finite set.  The transport
    law A X2 B = X1 then forces A = X1 B^-1 X2^-1, accepted iff integral
    unimodular.  This A is adjoint to B, A^T P1 = X2^-1 B^-T Q1 =
    X2^-1 Q2 B = P2 B, and adjointness determines A, since P1 is
    nondegenerate.  For principal polarizations this is the homological
    pptav criterion.
    """
    t1, t2 = pol1.torus, pol2.torus
    if t1.rank != t2.rank:
        raise TorusError("rank mismatch")
    if t1.rank == 0:
        return la.identity(0), la.identity(0)
    (e1, g1), (e2, g2) = (la.lowest_terms(*pol.gram()) for pol in (pol1, pol2))
    e = lcm(e1, e2)
    q1, q2 = la.mat_scale(e // e1, g1), la.mat_scale(e // e2, g2)
    x2 = tuple(pol2.matrix[i][i] for i in range(t2.rank))
    # each Polarization has proved its form symmetric positive definite
    for b in la.definite_isometries(q1, q2):
        # B is unimodular, so its inverse is integral
        a = la.divide_columns(la.int_matmul(pol1.matrix, la.unimodular_inverse(b)), x2)
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
