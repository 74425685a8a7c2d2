import random
from fractions import Fraction

import pytest

from tropcover import intlinalg
from tropcover.intlinalg import (diag, identity, is_positive_definite,
                                 leading_minor_verdict, mat,
                                 mat_scale, transpose)
from tropcover.tori import (IntegralTorus, Polarization, TorusError, TorusHom,
                            dual_polarization, dual_type, polarized_isomorphic)

import oracles
from oracles import (adjoint_by_fractions, classify_hom,
                     cokernel_torus, det, eager_prym_forms, identity_hom,
                     induced_polarization, jacobian_gram_by_pairing_table,
                     kernel_torus, mat_equal, matmul, polarization_by_fractions,
                     polarization_type, pp_rescale, torus_verdict_by_minors)
from test_intlinalg import (oracle_is_positive_definite, random_matrix,
                            random_symmetric, random_unimodular)


def self_paired(gram):
    return IntegralTorus(gram)


T2 = self_paired([[2, 0], [0, 2]])


class TestClassify:
    def test_identity_is_isomorphism(self):
        flags = classify_hom(identity_hom(T2))
        assert flags.isomorphism and flags.free_isogeny and flags.dilation

    def test_multiplication_by_two(self):
        h = TorusHom(T2, T2, mat_scale(2, identity(2)), mat_scale(2, identity(2)))
        flags = classify_hom(h)
        assert flags.isogeny and not flags.free_isogeny and not flags.dilation

    def test_pp_rescale_map_is_dilation(self):
        pol = Polarization(self_paired([[1, 0], [0, 4]]), [[1, 0], [0, 2]])
        model = pp_rescale(pol)
        flags = classify_hom(model.to_original)
        assert flags.dilation and not flags.isomorphism

    def test_non_surjective(self):
        one = self_paired([[2]])
        h = TorusHom(one, T2, ((1, 0),), ((1,), (0,)))
        flags = classify_hom(h)
        assert flags.finite and flags.injective and not flags.surjective


class TestKernelCokernelTori:
    def test_kernel_of_isomorphism_trivial(self):
        assert kernel_torus(identity_hom(T2)).inclusion.source.rank == 0

    def test_kernel_of_zero_is_source(self):
        zero_t = IntegralTorus(())
        h = TorusHom(T2, zero_t, ((), ()), ())
        ker = kernel_torus(h)
        assert ker.inclusion.source.rank == 2
        assert mat_equal(ker.inclusion.source.pairing, T2.pairing)

    def test_dual_of_kernel_equals_cokernel_of_dual(self):
        src = self_paired([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        tgt = self_paired([[1]])
        h = TorusHom(src, tgt, ((1,), (0,), (0,)), ((1, 0, 0),))
        ker = kernel_torus(h)
        cok = cokernel_torus(h.dual())
        assert mat_equal(ker.inclusion.source.dual().pairing, cok.torus.pairing)

    def test_dual_dual_identity(self):
        assert T2.dual().dual() == T2
        h = TorusHom(T2, T2, [[1, 1], [0, 1]], [[1, 0], [1, 1]])
        hdd = h.dual().dual()
        assert mat_equal(hdd.pull, h.pull) and mat_equal(hdd.push, h.push)


class TestPolarizations:
    def test_type_examples(self):
        assert polarization_type(Polarization(T2, identity(2))) == (1, 1)
        assert polarization_type(Polarization(self_paired([[1, 0], [0, 1]]),
                                              mat_scale(2, identity(2)))) == (2, 2)

    def test_induced_by_identity(self):
        pol = Polarization(T2, identity(2))
        out = induced_polarization(identity_hom(T2), pol)
        assert mat_equal(out.matrix, pol.matrix)

    def test_induced_scales_matrix(self):
        # a dilation with pull = diag(2, 1) scales the first row of the
        # induced polarization matrix by 2
        src = self_paired([[1, 0], [0, 1]])
        h = TorusHom(src, self_paired([[2, 0], [0, 1]]), [[2, 0], [0, 1]], identity(2))
        out = induced_polarization(h, Polarization(h.target, identity(2)))
        assert out.matrix == ((2, 0), (0, 1))

    def test_not_positive_definite_rejected(self):
        with pytest.raises(TorusError):
            Polarization(self_paired([[1, 0], [0, -1]]), identity(2))


class TestPPRescale:
    def test_type_one_two(self):
        pol = Polarization(self_paired([[1, 0], [0, 4]]), [[1, 0], [0, 2]])
        model = pp_rescale(pol)
        assert model.multiplier == 2
        assert polarization_type(model.polarized) == (1, 1)
        diag = sorted(model.to_original.pull[i][i] for i in range(2))
        assert diag == [1, 2]  # scales exactly the type-1 direction

    def test_principal_input_unchanged(self):
        pol = Polarization(T2, identity(2))
        model = pp_rescale(pol)
        assert model.multiplier == 1
        assert classify_hom(model.to_original).isomorphism

    def test_type_two_four(self):
        pol = Polarization(self_paired([[1, 0], [0, 2]]), [[2, 0], [0, 4]])
        model = pp_rescale(pol)
        assert model.multiplier == 4
        assert polarization_type(model.polarized) == (1, 1)


class TestDualPolarization:
    def test_principal_stays_principal(self):
        dual = dual_polarization(Polarization(T2, identity(2)))
        assert polarization_type(dual) == (1, 1)

    def test_type_two_four_self_dual(self):
        pol = Polarization(self_paired([[1, 0], [0, 2]]), [[2, 0], [0, 4]])
        dual = dual_polarization(pol)
        assert polarization_type(dual) == (2, 4)
        assert dual.matrix == ((4, 0), (0, 2))

    def test_dual_type_formula(self):
        assert dual_type((1, 1, 2)) == (1, 2, 2)
        assert dual_type((2, 4)) == (2, 4)
        assert dual_type((1, 2), multiplier=2) == (1, 2)
        assert dual_type((2, 2), multiplier=2) == (1, 1)

    @pytest.mark.parametrize("pairing, matrix", [
        ([[1, 0], [0, 1]], [[2, 1], [1, 2]]),   # not diagonal
        ([[1, 0], [0, 1]], [[2, 0], [0, 1]]),   # 2 does not divide 1
        ([[1, 0], [0, 1]], [[2, 0], [0, 3]]),   # 2 does not divide 3
        ([[-1, 0], [0, -1]], [[-1, 0], [0, -1]]),  # negative diagonal
    ], ids=["non-diagonal", "descending", "non-chain", "negative"])
    def test_non_adapted_polarization_rejected(self, pairing, matrix):
        pol = Polarization(self_paired(pairing), matrix)
        with pytest.raises(TorusError):
            dual_polarization(pol)

    def test_multiplier_must_clear_factors(self):
        pol = Polarization(self_paired([[1, 0], [0, 3]]), [[1, 0], [0, 3]])
        with pytest.raises(TorusError):
            dual_polarization(pol, multiplier=2)


class TestPolarizedIsomorphic:
    def test_identity_witness(self):
        pol = Polarization(T2, identity(2))
        found = polarized_isomorphic(pol, pol)
        assert found is not None

    def test_distinct_gram_determinants(self):
        p1 = Polarization(T2, identity(2))
        p2 = Polarization(self_paired([[2, 1], [1, 2]]), identity(2))
        assert polarized_isomorphic(p1, p2) is None

    def test_non_unimodular_forced_map_rejected(self):
        # both Gram forms are 2 I, and for every isometry B the forced
        # first-lattice map A = 2 B^T is integral: only the unimodularity
        # test of A rejects it
        p1 = Polarization(IntegralTorus(identity(2)), diag((2, 2)))
        p2 = Polarization(IntegralTorus(mat_scale(2, identity(2))), identity(2))
        assert p1.gram() == p2.gram()
        assert polarized_isomorphic(p1, p2) is None

    def test_congruent_forms_found_and_verified(self):
        q1 = mat([[2, 1], [1, 4]])
        b = mat([[1, -1], [1, 0]])
        q2 = matmul(transpose(b), matmul(q1, b))
        # as self-paired principally polarized tori
        p1 = Polarization(IntegralTorus(q2), identity(2))
        p2 = Polarization(IntegralTorus(q1), identity(2))
        found = polarized_isomorphic(p1, p2)
        assert found is not None
        a, bb = found
        assert mat_equal(matmul(transpose(bb), matmul(IntegralTorus(q1).pairing, bb)),
                         IntegralTorus(q2).pairing)

    def test_rank_mismatch(self):
        with pytest.raises(TorusError):
            polarized_isomorphic(Polarization(T2, identity(2)),
                                 Polarization(self_paired([[1]]), identity(1)))


def _definite(rng, n, rational):
    while True:
        q = random_symmetric(rng, n, rational)
        if oracle_is_positive_definite(q):
            return q


SPECIAL = {
    "swap": [[0, 1], [1, 0]],                 # nonsingular, zero leading minor
    "singular": [[1, 2], [2, 4]],
    "zero-corner-singular": [[0, 0], [0, 1]],
    "indefinite": [[1, 0], [0, -1]],
    "negative-definite": [[-2, 1], [1, -2]],
    "rational-definite": [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]],
    "non-symmetric": [[2, 5], [-1, 1]],
}


def verdict_cases():
    rng = random.Random(21)
    yield from SPECIAL.values()
    for i in range(160):
        n, rational = rng.randint(1, 7), i % 2 == 1
        m = random_matrix(rng, n, n, rational) if i % 3 == 0 else random_symmetric(rng, n, rational)
        yield mat_scale(-1, m) if i % 5 == 4 else m


class TestOneEliminationVerdict:
    # `IntegralTorus` decides nondegeneracy and leading-minor positivity in
    # one non-pivoting elimination; the old route ran `det`, then
    # `is_positive_definite` on the polarization form
    def test_verdict_agrees_with_det_and_definiteness(self):
        seen = set()
        for m in verdict_cases():
            verdict = leading_minor_verdict(m)
            assert verdict == torus_verdict_by_minors(m)
            assert verdict[0] == (det(m) != 0)
            if m == transpose(m):
                assert verdict[1] == is_positive_definite(m)
                assert verdict[1] == oracle_is_positive_definite(m)
            seen.add(verdict)
        assert seen == {(True, True), (True, False), (False, False)}

    def test_torus_and_identity_polarization_follow_the_verdict(self):
        for m in verdict_cases():
            nonsingular, positive = torus_verdict_by_minors(m)
            if not nonsingular:
                with pytest.raises(TorusError, match="nondegenerate"):
                    IntegralTorus(m)
                continue
            torus = IntegralTorus(m)
            assert torus._positive == positive
            assert torus.dual()._positive == positive
            accepted = polarization_by_fractions(torus, identity(len(m)))
            try:
                Polarization(torus, identity(len(m)))
            except TorusError:
                assert not accepted
            else:
                assert accepted

    def test_polarizations_agree_with_the_fraction_check(self):
        # self-paired tori P = rows / D with an identity, a diagonal or a
        # general integer matrix X; X = (S U^-1)^T makes X^T U = S
        # symmetric, definite or not
        rng = random.Random(22)
        verdicts = set()
        for i in range(150):
            n = rng.randint(1, 5)
            kind = i % 5
            if kind < 3:
                pairing = random_symmetric(rng, n, i % 2 == 1) if kind else \
                    _definite(rng, n, i % 2 == 1)
                if not det(pairing):
                    continue
                torus = IntegralTorus(pairing)
                if kind == 0:
                    x = identity(n)
                elif kind == 1:
                    x = diag([rng.choice((1, 2, 3, -1)) for _ in range(n)])
                else:
                    x = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            else:
                u = random_unimodular(rng, n)
                s = random_symmetric(rng, n, False)
                torus = IntegralTorus(u)
                x = transpose(matmul(s, intlinalg.to_int(oracles.inverse(u))))
            accepted = polarization_by_fractions(torus, x)
            verdicts.add(accepted)
            try:
                pol = Polarization(torus, x)
            except TorusError:
                assert not accepted
            else:
                assert accepted
                assert pol.gram() == matmul(transpose(x), torus.pairing)
        assert verdicts == {True, False}

    def test_eliminations_are_shared(self, monkeypatch):
        calls = []
        bareiss = intlinalg._bareiss

        def counted(*args, **kw):
            calls.append(1)
            return bareiss(*args, **kw)
        monkeypatch.setattr(intlinalg, "_bareiss", counted)
        torus = IntegralTorus([[2, 1], [2, 5]])
        assert len(calls) == 1
        Polarization(torus, diag((2, 1)))
        dual = torus.dual()
        Polarization(dual, diag((1, 2)))
        Polarization(IntegralTorus([[2, 1], [1, 3]]), identity(2))
        assert len(calls) == 2
        Polarization(torus, [[5, -2], [-1, 2]])  # a general matrix: one elimination
        assert len(calls) == 3
        IntegralTorus([[0, 1], [1, 0]])  # a zero leading minor: a pivoting pass too
        assert len(calls) == 5


class TestIntegerAdjointness:
    def test_agrees_with_the_fraction_check(self):
        rng = random.Random(23)
        verdicts = set()
        for i in range(120):
            g1, g2 = rng.randint(1, 4), rng.randint(1, 4)
            src = IntegralTorus(_definite(rng, g1, i % 2 == 1) if i % 3 else diag([1] * g1))
            tgt = IntegralTorus(_definite(rng, g2, i % 3 == 1))
            push = mat([[rng.randint(-2, 2) for _ in range(g1)] for _ in range(g2)])
            # pull^T = P_t push P_s^-1 when that is integral; otherwise a random pull
            pull_t = matmul(matmul(tgt.pairing, push), oracles.inverse(src.pairing))
            if intlinalg.is_integral(pull_t) and i % 4:
                pull = transpose(intlinalg.to_int(pull_t))
            else:
                pull = mat([[rng.randint(-2, 2) for _ in range(g2)] for _ in range(g1)])
            expected = adjoint_by_fractions(src, tgt, pull, push)
            verdicts.add(expected)
            try:
                TorusHom(src, tgt, pull, push)
            except TorusError:
                assert not expected
            else:
                assert expected
        assert verdicts == {True, False}


class TestTorusEquality:
    # a torus keeps (D, integer rows) in lowest terms, so two tori are equal
    # (and hash alike) iff their Fraction pairings are, however they were built
    def test_equal_iff_the_pairings_are(self):
        rng = random.Random(41)
        cases = []
        for i in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, rational=i % 2 == 1)
            if det(m):
                cases.append(m)
        cases += [[[2]], [[Fraction(2)]], [[Fraction(4, 2)]], [[Fraction(1, 2)]]]
        verdicts = set()
        for a in cases:
            for b in cases:
                same = oracles.to_fractions(a) == oracles.to_fractions(b)
                assert (IntegralTorus(a) == IntegralTorus(b)) == same
                if same:
                    assert hash(IntegralTorus(a)) == hash(IntegralTorus(b))
                verdicts.add(same)
        assert verdicts == {True, False}

    def test_integer_form_with_a_common_factor(self):
        rng = random.Random(42)
        for i in range(40):
            n = rng.randint(1, 4)
            m = _definite(rng, n, i % 2 == 1)
            d, rows = intlinalg._scaled(m)
            k = rng.randint(2, 6)
            built = IntegralTorus._from_int_form(k * d, mat_scale(k, rows))
            assert built == IntegralTorus(m) and hash(built) == hash(IntegralTorus(m))
            assert built.pairing == oracles.to_fractions(m)
            assert built._int_form == (d, mat(rows))


def _seeded_pryms():
    from tropcover.graphs import is_connected
    from gallery import tower_metrics
    from tropcover.jacprym import prym
    from tropcover.randgen import random_tower
    for n in (2, 3):
        for seed in range(8):
            gen = random_tower(seed, n=n, pi_free=True if n == 3 else None, tree_size=(4, 12))
            if not is_connected(gen.tower.top):
                continue
            mid, top = tower_metrics(gen.tower, gen.base_metric)
            yield prym(gen.tower.pi, mid), mid, top


class TestLazyFractionForms:
    # `IntegralTorus.pairing` and `Polarization.gram()` are built on first
    # read from the integer forms; before, every torus and polarization
    # built them eagerly
    def test_lazy_forms_equal_the_eager_ones(self):
        count = ranks = 0
        for data, mid, top in _seeded_pryms():
            count += 1
            ranks += data.rank > 0
            eager = eager_prym_forms(data, top)
            assert data.norm.source.pairing == eager["top"]
            assert data.norm.target.pairing == jacobian_gram_by_pairing_table(mid)
            assert data.polarization.torus.pairing == eager["pairing"]
            assert data.polarization.gram() == eager["gram"]
            assert data.principal.polarized.gram() == eager["principal"]
            assert data.principal.polarized.torus.pairing == eager["principal"]
            dual = dual_polarization(data.polarization)
            assert dual.torus.pairing == transpose(eager["pairing"])
        assert count == 16 and ranks > 10

    def test_prym_builds_no_fraction_matrix(self):
        for data, _, _ in _seeded_pryms():
            for torus in (data.polarization.torus, data.norm.source, data.norm.target,
                          data.principal.polarized.torus):
                assert "pairing" not in vars(torus)
            for pol in (data.polarization, data.principal.polarized):
                assert pol._gram is None
            gram = data.polarization.gram()
            assert data.polarization.gram() is gram  # built once
