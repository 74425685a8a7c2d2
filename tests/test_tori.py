import ast
import inspect
import random
import re
from fractions import Fraction

import pytest

from tropcover import intlinalg, tori
from tropcover.intlinalg import diag, identity, mat, mat_scale, transpose
from tropcover.tori import (IntegralTorus, Polarization, TorusError, TorusHom,
                            dual_polarization, dual_type, polarized_isomorphic)

import oracles
from oracles import (MatrixPolarization, adjoint_by_fractions, classify_hom,
                     cokernel_torus, det, dual_hom, eager_prym_forms, fraction_gram,
                     fraction_pairing, fraction_torus, identity_hom, induced_polarization,
                     is_integral, is_positive_definite, jacobian_gram_by_pairing_table,
                     kernel_torus, leading_minor_verdict, mat_equal, matmul,
                     polarization_by_fractions, polarization_type, pp_rescale, scaled, to_int,
                     torus_by_elimination, torus_verdict_by_minors)
from test_intlinalg import (oracle_is_positive_definite, random_matrix,
                            random_symmetric, random_unimodular)


def self_paired(gram):
    return fraction_torus(gram)


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
        zero_t = torus_by_elimination((1, ()))
        h = TorusHom(T2, zero_t, ((), ()), ())
        ker = kernel_torus(h)
        assert ker.inclusion.source.rank == 2
        assert mat_equal(fraction_pairing(ker.inclusion.source), fraction_pairing(T2))

    def test_dual_of_kernel_equals_cokernel_of_dual(self):
        src = self_paired([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        tgt = self_paired([[1]])
        h = TorusHom(src, tgt, ((1,), (0,), (0,)), ((1, 0, 0),))
        ker = kernel_torus(h)
        cok = cokernel_torus(dual_hom(h))
        assert mat_equal(fraction_pairing(ker.inclusion.source.dual()), fraction_pairing(cok.torus))

    def test_dual_dual_identity(self):
        assert T2.dual().dual() == T2
        h = TorusHom(T2, T2, [[1, 1], [0, 1]], [[1, 0], [1, 1]])
        hdd = dual_hom(dual_hom(h))
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

    # a polarization is a positive integer diagonal map, the adapted form in
    # which the package builds every polarization; any other matrix is
    # refused before the torus is read
    @pytest.mark.parametrize("matrix", [
        [[1, 1], [0, 1]], [[2, 1], [1, 2]], [[0, 1], [1, 0]],
        [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[-1, 0], [0, 1]], [[1, 0], [0, -2]],
        [[Fraction(1), 0], [0, 1]], [[1, 0], [0, Fraction(2)]], [[1, 0], [0, Fraction(1, 2)]],
        [[True, 0], [0, 1]],
    ], ids=["upper", "symmetric", "swap", "zero", "zero-first", "negative", "negative-second",
            "fraction-one", "fraction-two", "fraction-half", "bool"])
    def test_only_positive_integer_diagonals(self, matrix):
        with pytest.raises(TorusError, match="positive integer diagonal"):
            Polarization(T2, matrix)

    def test_positive_integer_diagonals_are_accepted(self):
        for entries in ((1, 1), (1, 2), (2, 2), (3, 1)):
            pol = Polarization(T2, diag(entries))
            assert pol.gram() == (1, diag([2 * a for a in entries]))


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
        dual = dual_polarization(Polarization(T2, identity(2)), 1)
        assert polarization_type(dual) == (1, 1)

    def test_type_two_four_self_dual(self):
        pol = Polarization(self_paired([[1, 0], [0, 2]]), [[2, 0], [0, 4]])
        dual = dual_polarization(pol, 8)
        assert polarization_type(dual) == (2, 4)
        assert dual.matrix == ((4, 0), (0, 2))

    def test_dual_type_formula(self):
        assert dual_type((1, 1, 2), 2) == (1, 2, 2)
        assert dual_type((2, 4), 8) == (2, 4)
        assert dual_type((1, 2), multiplier=2) == (1, 2)
        assert dual_type((2, 2), multiplier=2) == (1, 1)

    @pytest.mark.parametrize("pairing, matrix", [
        ([[1, 0], [0, 1]], [[2, 1], [1, 2]]),   # not diagonal
        ([[1, 0], [0, 1]], [[2, 0], [0, 1]]),   # 2 does not divide 1
        ([[1, 0], [0, 1]], [[2, 0], [0, 3]]),   # 2 does not divide 3
        ([[-1, 0], [0, -1]], [[-1, 0], [0, -1]]),  # negative diagonal
    ], ids=["non-diagonal", "descending", "non-chain", "negative"])
    def test_non_adapted_polarization_rejected(self, pairing, matrix):
        # a non-diagonal or negative matrix is no Polarization at all; 6
        # clears every factor, so only the chain rule refuses the others
        with pytest.raises(TorusError):
            dual_polarization(Polarization(self_paired(pairing), matrix), 6)

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
        # first-lattice map A = X1 B^-1 X2^-1 = 2 B^-1 is integral: only the
        # unimodularity test of A rejects it
        p1 = Polarization(torus_by_elimination((1, identity(2))), diag((2, 2)))
        p2 = Polarization(torus_by_elimination((1, mat_scale(2, identity(2)))), identity(2))
        assert p1.gram() == p2.gram()
        assert polarized_isomorphic(p1, p2) is None

    def test_congruent_forms_found_and_verified(self):
        q1 = mat([[2, 1], [1, 4]])
        b = mat([[1, -1], [1, 0]])
        q2 = matmul(transpose(b), matmul(q1, b))
        # as self-paired principally polarized tori
        p1 = Polarization(torus_by_elimination((1, q2)), identity(2))
        p2 = Polarization(torus_by_elimination((1, q1)), identity(2))
        found = polarized_isomorphic(p1, p2)
        assert found is not None
        a, bb = found
        assert mat_equal(matmul(transpose(bb), matmul(fraction_pairing(p2.torus), bb)),
                         fraction_pairing(p1.torus))

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
    # `leading_minor_verdict` decides nondegeneracy and leading-minor
    # positivity in one non-pivoting elimination, and `torus_by_elimination`
    # hands its verdict to `IntegralTorus`, as the constructor once did
    # itself; the route before that ran `det`, then `is_positive_definite`
    # on the polarization form.  The verdict is taken on the integer rows
    # D m, whose leading minors are D^k times those of m
    def test_verdict_agrees_with_det_and_definiteness(self):
        seen = set()
        for m in verdict_cases():
            verdict = leading_minor_verdict(scaled(m)[1])
            assert verdict == torus_verdict_by_minors(m)
            assert verdict[0] == (det(m) != 0)
            if m == transpose(m):
                assert verdict[1] == is_positive_definite(m)
                assert verdict[1] == oracle_is_positive_definite(m)
            seen.add(verdict)
        assert seen == {(True, True), (True, False), (False, False)}

    def test_package_pass_is_the_oracles_non_pivoting_pass(self):
        # `intlinalg._bareiss` kept only the pass that stops at a zero pivot
        for m in verdict_cases():
            rows = scaled(m)[1]
            assert intlinalg._bareiss(rows) == oracles.bareiss(rows, pivoting=False)[:2]

    def test_torus_and_identity_polarization_follow_the_verdict(self):
        for m in verdict_cases():
            nonsingular, positive = torus_verdict_by_minors(m)
            if not nonsingular:
                with pytest.raises(TorusError, match="nondegenerate"):
                    fraction_torus(m)
                continue
            torus = fraction_torus(m)
            assert torus.positive == positive
            assert torus.dual().positive == positive
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
        # symmetric, definite or not.  A positive diagonal is accepted iff
        # the Fraction check accepts it; any other matrix is refused, and
        # only the oracle's `MatrixPolarization` still takes it
        rng = random.Random(22)
        verdicts, refused = set(), 0
        for i in range(150):
            n = rng.randint(1, 5)
            kind = i % 5
            if kind < 3:
                pairing = random_symmetric(rng, n, i % 2 == 1) if kind else \
                    _definite(rng, n, i % 2 == 1)
                if not det(pairing):
                    continue
                torus = fraction_torus(pairing)
                if kind == 0:
                    x = identity(n)
                elif kind == 1:
                    x = diag([rng.choice((1, 2, 3, -1)) for _ in range(n)])
                else:
                    x = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            else:
                u = random_unimodular(rng, n)
                s = random_symmetric(rng, n, False)
                torus = torus_by_elimination((1, u))
                x = transpose(matmul(s, to_int(oracles.inverse(u))))
            accepted = polarization_by_fractions(torus, x)
            try:
                general = MatrixPolarization(torus, x)
            except TorusError:
                assert not accepted
            else:
                assert accepted
                assert fraction_gram(general) == matmul(transpose(x), fraction_pairing(torus))
            if not (intlinalg.is_diagonal(x, [x[k][k] for k in range(n)])
                    and all(x[k][k] > 0 for k in range(n))):
                refused += 1
                with pytest.raises(TorusError, match="positive integer diagonal"):
                    Polarization(torus, x)
                continue
            verdicts.add(accepted)
            try:
                pol = Polarization(torus, x)
            except TorusError:
                assert not accepted
            else:
                assert accepted
                assert pol.gram() == general.gram()
                assert fraction_gram(pol) == matmul(transpose(x), fraction_pairing(torus))
        assert verdicts == {True, False} and refused > 40

    def test_tori_and_polarizations_run_no_elimination(self, monkeypatch):
        # a torus carries its builder's verdict, and its dual and its
        # polarizations read it: none of them runs the package's elimination
        calls = []
        bareiss = intlinalg._bareiss

        def counted(*args, **kw):
            calls.append(1)
            return bareiss(*args, **kw)
        monkeypatch.setattr(intlinalg, "_bareiss", counted)
        torus = IntegralTorus((1, [[2, 1], [2, 5]]), True)
        Polarization(torus, diag((2, 1)))
        dual = torus.dual()
        assert dual.positive
        Polarization(dual, diag((1, 2)))
        Polarization(IntegralTorus((1, [[2, 1], [1, 3]]), True), identity(2))
        with pytest.raises(TorusError, match="positive integer diagonal"):
            Polarization(torus, [[5, -2], [-1, 2]])  # a general matrix: refused unread
        with pytest.raises(TorusError, match="not positive definite"):
            Polarization(IntegralTorus((1, [[0, 1], [1, 0]]), False), identity(2))
        assert calls == []


class TestIntegerAdjointness:
    def test_agrees_with_the_fraction_check(self):
        rng = random.Random(23)
        verdicts = set()
        for i in range(120):
            g1, g2 = rng.randint(1, 4), rng.randint(1, 4)
            src = fraction_torus(_definite(rng, g1, i % 2 == 1) if i % 3 else diag([1] * g1))
            tgt = fraction_torus(_definite(rng, g2, i % 3 == 1))
            push = mat([[rng.randint(-2, 2) for _ in range(g1)] for _ in range(g2)])
            # pull^T = P_t push P_s^-1 when that is integral; otherwise a random pull
            pull_t = matmul(matmul(fraction_pairing(tgt), push), oracles.inverse(fraction_pairing(src)))
            if is_integral(pull_t) and i % 4:
                pull = transpose(to_int(pull_t))
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
                assert (fraction_torus(a) == fraction_torus(b)) == same
                if same:
                    assert hash(fraction_torus(a)) == hash(fraction_torus(b))
                verdicts.add(same)
        assert verdicts == {True, False}

    def test_integer_form_with_a_common_factor(self):
        rng = random.Random(42)
        for i in range(40):
            n = rng.randint(1, 4)
            m = _definite(rng, n, i % 2 == 1)
            d, rows = scaled(m)
            k = rng.randint(2, 6)
            built = torus_by_elimination((k * d, mat_scale(k, rows)))
            assert built == fraction_torus(m) and hash(built) == hash(fraction_torus(m))
            assert fraction_pairing(built) == oracles.to_fractions(m)
            assert built.form == (d, mat(rows))


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
    # a torus and a polarization keep integer forms only, and the Fraction
    # matrices are the oracles' view of them; before, every torus and
    # polarization built them eagerly, and later on first read
    def test_lazy_forms_equal_the_eager_ones(self):
        count = ranks = 0
        for data, mid, top in _seeded_pryms():
            count += 1
            ranks += data.rank > 0
            eager = eager_prym_forms(data, top)
            assert fraction_pairing(data.norm.source) == eager["top"]
            assert fraction_pairing(data.norm.target) == jacobian_gram_by_pairing_table(mid)
            assert fraction_pairing(data.polarization.torus) == eager["pairing"]
            assert fraction_gram(data.polarization) == eager["gram"]
            assert fraction_gram(data.principal.polarized) == eager["principal"]
            assert fraction_pairing(data.principal.polarized.torus) == eager["principal"]
            dual = dual_polarization(data.polarization, 2)
            assert fraction_pairing(dual.torus) == transpose(eager["pairing"])
        assert count == 16 and ranks > 10

    def test_prym_builds_no_fraction_matrix(self):
        for data, _, _ in _seeded_pryms():
            for torus in (data.polarization.torus, data.norm.source, data.norm.target,
                          data.principal.polarized.torus):
                assert not hasattr(torus, "pairing")
                d, rows = torus.form
                assert all(type(x) is int for x in (d, *(y for row in rows for y in row)))
            for pol in (data.polarization, data.principal.polarized):
                d, form = pol.gram()
                assert all(type(x) is int for x in (d, *(y for row in form for y in row)))
            gram = data.polarization.gram()
            assert data.polarization.gram() is gram  # built once


# ---------------------------------------------------------------------------
# the isomorphism decision against the route it replaced: `polarized_isomorphic`
# forces the first-lattice map by the transport law, A = X1 B^-1 X2^-1; the
# oracle forced it by adjointness through the rational inverse of the first
# pairing.  Adjointness determines A, so both take the same first isometry B
# with the same A


def _decision_pairs():
    """(label, pol1, pol2): the pairs the two theorem checks hand to the
    decision, on the shipped towers and on seeded n = 2 generic dilated and
    n = 3 free towers."""
    import os
    from tropcover.jacprym import jacobian, prym
    from tropcover.metrics import induce_metric
    from tropcover.ngonal import bigonal, trigonal
    from tropcover.randgen import random_tower
    from tropcover.towerio import load

    def bigonal_pair(tower, base):
        out = bigonal(tower).tower
        prym1 = prym(tower.pi, induce_metric(tower.f, base))
        prym2 = prym(out.pi, induce_metric(out.f, base))
        assert prym1.type == dual_type(prym2.type, multiplier=2)
        return prym1.polarization, dual_polarization(prym2.polarization, multiplier=2)

    def trigonal_pair(tower, base):
        data = prym(tower.pi, induce_metric(tower.f, base))
        jac = jacobian(induce_metric(trigonal(tower).quartic, base))
        return data.principal.polarized, jac.polarization

    data_dir = os.path.join(os.path.dirname(__file__), os.pardir, "data")
    for name, pair in (("bigonal_tower.json", bigonal_pair), ("trigonal_tower.json", trigonal_pair)):
        loaded = load(os.path.join(data_dir, name))
        yield (name, *pair(loaded.tower(), loaded.base_metric))
    for seed in range(30):
        gen = random_tower(seed, n=2, generic=True, pi_free=False, tree_size=(5, 13))
        yield (f"n2 seed {seed}", *bigonal_pair(gen.tower, gen.base_metric))
        gen = random_tower(seed, n=3, pi_free=True, tree_size=(5, 13))
        yield (f"n3 seed {seed}", *trigonal_pair(gen.tower, gen.base_metric))


class TestIsomorphismDecisionAgainstTheInverseRoute:
    def test_same_witness_as_the_adjointness_route(self):
        ranks = set()
        for label, pol1, pol2 in _decision_pairs():
            found = polarized_isomorphic(pol1, pol2)
            assert found is not None, label
            assert found == oracles.polarized_isomorphic_by_inverse(pol1, pol2), label
            ranks.add(pol1.torus.rank)
        assert len(ranks) > 6 and max(ranks) > 8

    def test_a_spoiled_jacobian_length_is_refused_by_both(self):
        import os
        from tropcover.jacprym import jacobian, prym
        from tropcover.metrics import MetricGraph, induce_metric
        from tropcover.ngonal import trigonal
        from tropcover.towerio import load
        loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data",
                                   "trigonal_tower.json"))
        tower, base = loaded.tower(), loaded.base_metric
        principal = prym(tower.pi, induce_metric(tower.f, base)).principal.polarized
        metric = induce_metric(trigonal(tower).quartic, base)
        jac = jacobian(metric)
        assert polarized_isomorphic(principal, jac.polarization) is not None
        key = next(iter(jac.basis.cycles[0]))  # an edge on a cycle
        spoiled = jacobian(MetricGraph(metric.graph, {**metric.length, key: metric.length[key] + 1}))
        assert spoiled.polarization.gram() != jac.polarization.gram()
        assert polarized_isomorphic(principal, spoiled.polarization) is None
        assert oracles.polarized_isomorphic_by_inverse(principal, spoiled.polarization) is None


# ---------------------------------------------------------------------------
# self-checks of the lattice layer: each spoiling makes one `raise
# AssertionError` of tori.py or intlinalg.py fire, by a spoiled input or an
# internal monkeypatched to return a spoiled value


def _spoil_dual_type(monkeypatch):
    # the type formula doubles every factor
    pol = Polarization(self_paired([[1, 0], [0, 2]]), diag((1, 2)))
    formula = tori.dual_type
    monkeypatch.setattr(tori, "dual_type",
                        lambda t, multiplier: tuple(2 * a for a in formula(t, multiplier)))
    dual_polarization(pol, 2)


def _spoil_dual_product(monkeypatch):
    # the product xi . xi_dual comes out doubled
    pol = Polarization(self_paired([[1, 0], [0, 2]]), diag((1, 2)))
    product = intlinalg.int_matmul
    monkeypatch.setattr(intlinalg, "int_matmul", lambda a, b: mat_scale(2, product(a, b)))
    dual_polarization(pol, 2)


def _spoil_transport(monkeypatch):
    # (2 I, 2 I) is adjoint for the pairing I, but carries I to 4 I
    pol = Polarization(torus_by_elimination((1, identity(2))), identity(2))
    tori.certify_isomorphism(pol, pol, mat_scale(2, identity(2)), mat_scale(2, identity(2)))


def _spoil_sparse_inverse(monkeypatch):
    # every row of the inverse doubled
    eliminate = intlinalg._inverse_rows
    monkeypatch.setattr(intlinalg, "_inverse_rows", lambda rows: [
        {j: 2 * x for j, x in row.items()} for row in eliminate(rows)])
    intlinalg.unimodular_inverse(((0, 1), (1, 1)))


def _spoil_lll_inverse(monkeypatch):
    # H^-1 comes back doubled
    reduce = intlinalg._lll_reduce

    def spoiled(q):
        h, h_inv, det = reduce(q)
        return h, mat_scale(2, h_inv), det
    monkeypatch.setattr(intlinalg, "_lll_reduce", spoiled)
    list(intlinalg.definite_isometries(((2, 1), (1, 3)), ((2, 1), (1, 3))))


def _spoil_short_vectors(monkeypatch):
    # every short vector doubled, so C^T R2 C = 4 R1
    search = intlinalg.vectors_with_norm
    monkeypatch.setattr(intlinalg, "vectors_with_norm", lambda q, target: tuple(
        tuple(2 * x for x in v) for v in search(q, target)))
    list(intlinalg.definite_isometries(((3,),), ((3,),)))


# self-check message -> the spoiling that makes it raise: one row per
# `raise AssertionError` of tori.py and intlinalg.py
LATTICE_CHECKS = {
    "dual polarization has the wrong type": _spoil_dual_type,
    "xi . xi_dual is not multiplication by the multiplier": _spoil_dual_product,
    "polarized_isomorphic: witness does not transport the polarization": _spoil_transport,
    "sparse inverse fails M M^-1 == I": _spoil_sparse_inverse,
    "LLL transform is not unimodular": _spoil_lll_inverse,
    "isometry candidate failed the congruence re-check": _spoil_short_vectors,
}


def test_every_lattice_check_has_a_spoiling():
    messages = set()
    for module in (tori, intlinalg):
        messages |= {node.exc.args[0].value for node in ast.walk(ast.parse(inspect.getsource(module)))
                     if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                     and getattr(node.exc.func, "id", None) == "AssertionError"}
    assert messages == set(LATTICE_CHECKS)


@pytest.mark.parametrize("message", LATTICE_CHECKS)
def test_a_spoiled_lattice_input_raises_its_check(monkeypatch, message):
    with pytest.raises(AssertionError, match=re.escape(message)):
        LATTICE_CHECKS[message](monkeypatch)
