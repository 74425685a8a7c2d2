import pytest

from tropcover.intlinalg import identity, mat, mat_equal, mat_scale, matmul, transpose
from tropcover.tori import (IntegralTorus, Polarization, TorusError, TorusHom,
                            dual_polarization, dual_type, polarized_isomorphic)

from oracles import (classify_hom, cokernel_torus, identity_hom,
                     induced_polarization, kernel_torus, polarization_type,
                     pp_rescale)


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
        assert kernel_torus(identity_hom(T2)).torus.rank == 0

    def test_kernel_of_zero_is_source(self):
        zero_t = IntegralTorus(())
        h = TorusHom(T2, zero_t, ((), ()), ())
        ker = kernel_torus(h)
        assert ker.torus.rank == 2
        assert mat_equal(ker.torus.pairing, T2.pairing)

    def test_dual_of_kernel_equals_cokernel_of_dual(self):
        src = self_paired([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        tgt = self_paired([[1]])
        h = TorusHom(src, tgt, ((1,), (0,), (0,)), ((1, 0, 0),))
        ker = kernel_torus(h)
        cok = cokernel_torus(h.dual())
        assert mat_equal(ker.torus.dual().pairing, cok.torus.pairing)

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
        assert polarization_type(dual.polarized) == (1, 1)

    def test_type_two_four_self_dual(self):
        pol = Polarization(self_paired([[1, 0], [0, 2]]), [[2, 0], [0, 4]])
        dual = dual_polarization(pol)
        assert polarization_type(dual.polarized) == (2, 4)
        assert dual.multiplier == 8

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
