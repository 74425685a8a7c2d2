import pytest

from tropcover.gallery import bigonal_output_reference, bigonal_reference, trigonal_reference
from tropcover.graphs import (Graph, NonGenericError, PreconditionError, Tower,
                              build_double_cover, connected_components, genus,
                              harmonic_from_edges, is_connected,
                              towers_isomorphic)
from tropcover.ngonal import (FiberDatum, FiberPart, Refinement, bigonal,
                              classify_bigonal_point,
                              classify_tetragonal_point, induce_multisection,
                              involution_quotient, multisection_degree,
                              multisection_sign, multisections,
                              ngonal_construct, recillas,
                              tetragonal_split, tower_fiber, trigonal,
                              hpoint, vpoint)
from tropcover.randgen import random_tetragonal_curve, random_tower


def fd(*parts):
    return FiberDatum(tuple(FiberPart(i, d, dil) for i, (d, dil) in enumerate(parts)))


class TestMultisections:
    def test_three_free_unit_parts_give_eight(self):
        assert len(multisections(fd((1, False), (1, False), (1, False)))) == 8

    def test_product_formula(self):
        assert len(multisections(fd((2, False), (1, False)))) == 6

    def test_dilated_part_contributes_one(self):
        assert len(multisections(fd((3, True)))) == 1

    def test_degree_binomials(self):
        datum = fd((2, False))
        ms = [m for m in multisections(datum) if m[0][1] == 1]
        assert multisection_degree(datum, ms[0]) == 2

    def test_degree_choose_one_of_three(self):
        datum = fd((3, False))
        ms = [m for m in multisections(datum) if m[0][1] == 1]
        assert multisection_degree(datum, ms[0]) == 3

    def test_dilated_degree_power_of_two(self):
        datum = fd((1, True))
        assert multisection_degree(datum, multisections(datum)[0]) == 2

    def test_sign_formula(self):
        datum = fd((2, False), (1, False))
        ms = ((0, 2, 0), (1, 1, 0))
        assert multisection_sign(datum, ms) == -1  # (-1)^3
        assert multisection_sign(datum, ((0, 0, 2), (1, 0, 1))) == 1

    def test_sign_undefined_on_dilated(self):
        datum = fd((1, True))
        with pytest.raises(PreconditionError, match="free"):
            multisection_sign(datum, multisections(datum)[0])


class TestInduceMultisection:
    def test_identity_refinement(self):
        datum = fd((2, False), (1, False))
        r = Refinement(datum, datum, {0: 0, 1: 1}, {0: False, 1: False})
        for ms in multisections(datum):
            assert induce_multisection(r, ms) == ms

    def test_merge_two_unit_parts(self):
        fine = fd((1, False), (1, False))
        coarse = fd((2, False))
        r = Refinement(fine, coarse, {0: 0, 1: 0}, {0: False, 1: False})
        assert induce_multisection(r, ((0, 1, 0), (1, 0, 1))) == ((0, 1, 1),)

    def test_free_pair_into_dilated_canonicalizes(self):
        fine = fd((1, False), (1, False))
        coarse = fd((2, True))
        r = Refinement(fine, coarse, {0: 0, 1: 0}, {})
        assert induce_multisection(r, ((0, 1, 0), (1, 0, 1))) == ((0, 2, 0),)

    def test_sign_is_refinement_invariant(self):
        fine = fd((1, False), (1, False), (1, False))
        coarse = fd((2, False), (1, False))
        r = Refinement(fine, coarse, {0: 0, 1: 0, 2: 1}, {0: False, 1: False, 2: False})
        for ms in multisections(fine):
            assert multisection_sign(fine, ms) == multisection_sign(coarse, induce_multisection(r, ms))

    def test_degree_mismatch_rejected(self):
        fine = fd((1, False), (1, False))
        coarse = fd((3, False))
        with pytest.raises(Exception):
            Refinement(fine, coarse, {0: 0, 1: 0}, {})


class TestConstruction:
    def test_fiber_counts_and_degrees(self):
        for seed in range(6):
            for n in (2, 3, 4):
                gen = random_tower(seed, n=n)
                cons = ngonal_construct(gen.tower, n)
                cover = cons.cover_to_base
                assert cover.global_degree() == 2 ** n
                assert cons.to_orientation.global_degree() == 2 ** (n - 1)
                for v in gen.tower.base.vertices:
                    datum = tower_fiber(gen.tower, vpoint(v))
                    expected = 1
                    for p in datum.parts:
                        if not p.dilated:
                            expected *= p.degree + 1
                    assert len(cover.fiber_vertices(v)) == expected

    def test_type_ii_point_fiber(self):
        # one free part of degree 2: fiber degrees 1, 2, 1 with signs +, -, +
        datum = fd((2, False))
        ms = multisections(datum)
        degs = sorted(multisection_degree(datum, m) for m in ms)
        signs = sorted(multisection_sign(datum, m) for m in ms)
        assert degs == [1, 1, 2] and signs == [-1, 1, 1]

    def test_type_c_point_single_multisection(self):
        datum = fd((3, True))
        ms = multisections(datum)
        assert len(ms) == 1 and multisection_degree(datum, ms[0]) == 8

    def test_free_tower_over_tree_is_split_unit_cover(self):
        base, keys = Graph.from_edges(3, [(0, 1), (1, 2)])
        f = harmonic_from_edges(
            9, [(3 * i + j, 3 * i + j + 3, keys[i], 1) for i in range(2) for j in range(3)],
            base, {3 * i + j: i for i in range(3) for j in range(3)})
        built = build_double_cover(f.source)
        cons = ngonal_construct(Tower(built.cover, f), 3)
        assert set(cons.cover_to_base.vertex_degree.values()) == {1}
        assert len(connected_components(cons.cover_to_base.source)) == 8

    def test_split_into_sign_classes_for_free_cover(self):
        # over a tree, a free double cover makes the orientation cover split;
        # the constructed cover splits into the preimages of its two halves,
        # exchanged by the sign involution for odd n and preserved for even n
        for seed in range(6):
            for n in (2, 3, 4):
                gen = random_tower(seed, n=n, pi_free=True)
                cons = ngonal_construct(gen.tower, n)
                cover = cons.cover_to_base
                comps = connected_components(cons.orientation.source)
                assert len(comps) == 2
                plus = {v for v in cover.source.vertices
                        if cons.to_orientation.v(v) in comps[0]}
                for h in cover.source.half_edges:
                    a = cover.source.root[h]
                    b = cover.source.root[cover.source.partner[h]]
                    assert (a in plus) == (b in plus)  # no edges between the halves
                vperm, _ = cons.sign_involution
                image = {vperm[v] for v in plus}
                if n % 2:
                    assert image == set(cover.source.vertices) - plus
                else:
                    assert image == plus


class TestInvolutionQuotient:
    def test_fixed_multisection_becomes_dilated_projection_point(self):
        ref = bigonal_reference()
        cons = ngonal_construct(ref.tower, 2)
        vperm, hperm = cons.sign_involution
        quot = involution_quotient(cons.cover_to_base, vperm, hperm)
        fixed = [v for v in cons.cover_to_base.source.vertices if vperm[v] == v]
        assert fixed  # the (1,1) multisections over free degree-2 parts
        for v in fixed:
            assert quot.projection.cover.vertex_degree[v] == 2

    def test_quotient_degree_halves(self):
        ref = bigonal_reference()
        cons = ngonal_construct(ref.tower, 2)
        vperm, hperm = cons.sign_involution
        quot = involution_quotient(cons.cover_to_base, vperm, hperm)
        assert quot.quotient_map.global_degree() == 2

    def test_fixed_point_free_iff_odd_free_part(self):
        # the sign involution is fixed-point-free over a base vertex exactly
        # when some free fiber part has odd degree there
        for seed in range(10):
            gen = random_tower(seed, n=3)
            cons = ngonal_construct(gen.tower, 3)
            vperm, _ = cons.sign_involution
            for v in gen.tower.base.vertices:
                datum = tower_fiber(gen.tower, vpoint(v))
                has_odd_free = any(p.degree % 2 and not p.dilated for p in datum.parts)
                fiber = cons.cover_to_base.fiber_vertices(v)
                fpf = all(vperm[x] != x for x in fiber)
                assert fpf == has_odd_free


class TestBigonal:
    def test_type_map_on_reference(self):
        ref = bigonal_reference()
        result = bigonal(ref.tower)
        for p, label in result.input_types.items():
            assert result.output_types[p] == {"I": "I", "II": "III", "III": "II",
                                              "IV": "IV", "V": "I"}[label]

    def test_reference_output_matches_hand_built(self):
        ref = bigonal_reference()
        out = bigonal(ref.tower).tower
        assert towers_isomorphic(out, bigonal_output_reference().tower) is not None

    def test_involutive_on_generic_towers(self):
        for seed in range(12):
            gen = random_tower(seed, n=2, generic=True)
            once = bigonal(gen.tower)
            twice = bigonal(once.tower)
            assert towers_isomorphic(twice.tower, gen.tower) is not None

    def test_type_v_collapses_to_type_i(self):
        # two dilated mid points over a base point: output has type I there
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 1), (1, 3, keys[0], 1)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        built = build_double_cover(f.source, dilated_vertices={0, 1, 2, 3},
                                   dilated_edge_keys={0, 2})
        tower = Tower(built.cover, f)
        assert classify_bigonal_point(tower, vpoint(0)) == "V"
        result = bigonal(tower)
        assert result.output_types[vpoint(0)] == "I"
        assert not result.generic_input

    def test_output_connected_iff_pi_dilated(self):
        for seed in range(12):
            gen = random_tower(seed, n=2, generic=True)
            result = bigonal(gen.tower)
            assert is_connected(result.tower.top) == (not gen.tower.pi.is_free())

    def test_genus_relation_when_all_connected(self):
        done = 0
        seed = 0
        while done < 8:
            gen = random_tower(seed, n=2, generic=True, pi_free=False)
            seed += 1
            out = bigonal(gen.tower).tower
            if not (is_connected(out.top) and is_connected(out.mid)
                    and is_connected(gen.tower.mid)):
                continue
            assert genus(gen.tower.top) - genus(gen.tower.mid) == \
                genus(out.top) - genus(out.mid)
            done += 1


class TestTrigonal:
    def test_reference_profiles(self):
        ref = trigonal_reference()
        tri = trigonal(ref.tower)
        labels = {classify_tetragonal_point(tri.quartic, p)
                  for p in ref.tower.base.points()}
        assert labels == {"A", "B", "C"}

    def test_type_a_gives_four_unit_points(self):
        ref = trigonal_reference()
        tri = trigonal(ref.tower)
        # base vertex 1 lies under a degree-(2,1) fiber: profile (2,1,1)
        assert tri.quartic.fiber_profile(vpoint(1)) == (2, 1, 1)
        # the half-edges over the second base edge have type A
        key = ref.tower.base.edge_keys()[1]
        assert tri.quartic.fiber_profile(hpoint(key)) == (1, 1, 1, 1)

    def test_genus_drop_by_one(self):
        for seed in range(10):
            gen = random_tower(seed, n=3, pi_free=True)
            tri = trigonal(gen.tower)
            assert genus(tri.quartic.source) == genus(gen.tower.mid) - 1

    def test_connectivity_matches_top(self):
        for seed in range(10):
            gen = random_tower(seed, n=3, pi_free=True, connected=False)
            tri = trigonal(gen.tower)
            assert is_connected(tri.quartic.source) == is_connected(gen.tower.top)

    def test_requires_free_cover(self):
        seed = 0
        while True:
            gen = random_tower(seed, n=3, pi_free=False)
            if not gen.tower.pi.is_free():
                break
            seed += 1
        with pytest.raises(PreconditionError, match="free"):
            trigonal(gen.tower)


class TestRecillas:
    def test_unit_fiber_counts(self):
        gen = random_tetragonal_curve(11)
        out = recillas(gen.cover)
        for v in gen.cover.target.vertices:
            profile = gen.cover.fiber_profile(vpoint(v))
            top_fiber = out.tower.composed().fiber_vertices(v)
            if profile == (1, 1, 1, 1):
                assert len(top_fiber) == 6
                assert len(out.tower.f.fiber_vertices(v)) == 3

    def test_three_one_profile_degrees(self):
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 3), (1, 3, keys[0], 1)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        out = recillas(f)
        degs = sorted(out.tower.composed().vertex_degree[x]
                      for x in out.tower.composed().fiber_vertices(0))
        assert degs == [3, 3]
        # degree table: a (2,1) pair of fiber points carries degree 2
        gen = random_tetragonal_curve(5)
        out2 = recillas(gen.cover)
        comp = out2.tower.composed()
        for i, (v, key) in out2.vertex_info.items():
            orig = comp.fiber_vertices(v)
        assert out2.tower.f.global_degree() == 3

    def test_degree_table_two_one(self):
        found = None
        for seed in range(40):
            gen = random_tetragonal_curve(seed)
            for v in gen.cover.target.vertices:
                if gen.cover.fiber_profile(vpoint(v)) == (2, 1, 1):
                    found = (gen, v)
                    break
            if found:
                break
        assert found, "no (2,1,1) fiber among the seeds"
        gen, v = found
        out = recillas(gen.cover)
        degs = sorted(out.tower.composed().vertex_degree[x]
                      for x in out.tower.composed().fiber_vertices(v))
        assert degs == [1, 1, 2, 2]

    def test_round_trips(self):
        from tropcover.graphs import covers_isomorphic_over_base
        for seed in range(10):
            gen = random_tower(seed, n=3, pi_free=True)
            tri = trigonal(gen.tower)
            assert towers_isomorphic(recillas(tri.quartic).tower, gen.tower) is not None
        for seed in range(10):
            gen = random_tetragonal_curve(seed)
            back = trigonal(recillas(gen.cover).tower)
            assert covers_isomorphic_over_base(back.quartic, gen.cover) is not None

    def test_round_trip_compares_over_a_hundred_vertex_tree(self):
        # the isomorphism search places one source half-edge per step, far
        # more steps than Python's recursion limit
        gen = random_tower(1, n=3, pi_free=True, tree_size=(100, 100))
        back = recillas(trigonal(gen.tower).quartic).tower
        assert towers_isomorphic(gen.tower, back) is not None

    def test_non_generic_rejected_with_point(self):
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 2), (1, 3, keys[0], 2)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        with pytest.raises(NonGenericError) as err:
            recillas(f)
        assert err.value.point in {vpoint(0), vpoint(1), hpoint(0), hpoint(1)}
        assert err.value.profile == (2, 2)
        quad = harmonic_from_edges(2, [(0, 1, keys[0], 4)], base, {0: 0, 1: 1})
        with pytest.raises(NonGenericError) as err:
            recillas(quad)
        assert err.value.profile == (4,)


class TestTetragonalSplit:
    def test_types_preserved(self):
        for seed in range(8):
            gen = random_tower(seed, n=4, pi_free=True, generic=True)
            split = tetragonal_split(gen.tower)
            assert len(split.towers) == 2
            for tower in split.towers:
                assert tower.pi.is_free()
                for p in gen.tower.base.points():
                    assert classify_tetragonal_point(tower.f, p) == \
                        classify_tetragonal_point(gen.tower.f, p)

    def test_non_generic_rejected(self):
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 2), (1, 3, keys[0], 2)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        built = build_double_cover(f.source)
        with pytest.raises(NonGenericError):
            tetragonal_split(Tower(built.cover, f))
