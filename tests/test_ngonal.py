import random
from math import comb

import pytest

from tropcover.graphs import (Graph, NonGenericError, PreconditionError, Tower,
                              connected_components, genus,
                              is_connected,
                              towers_isomorphic)
from gallery import (bigonal_output_reference, bigonal_reference, build_double_cover,
                     harmonic_from_edges, random_tetragonal_curve, trigonal_reference)
from oracles import (Refinement, _canonical, _partner_transport, _root_refinement, fiber_part,
                     induce_multisection, multisection_degree, multisection_sign,
                     multisections, swap_multisection)
from tropcover.ngonal import (FiberDatum, FiberPart, bigonal,
                              classify_bigonal_point,
                              classify_tetragonal_point,
                              involution_quotient,
                              ngonal_construct, recillas,
                              tetragonal_split, tower_fiber, trigonal,
                              hpoint, vpoint)
from tropcover.randgen import random_tower
from tropcover.ngonal import _sign_quotient
from tropcover.graphs import (DoubleCover, HarmonicMorphism,
                              validate_harmonic)


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
        cons = ngonal_construct(Tower(built, f), 3)
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
            assert quot.pi.vertex_degree[v] == 2

    def test_quotient_degree_halves(self):
        ref = bigonal_reference()
        cons = ngonal_construct(ref.tower, 2)
        vperm, hperm = cons.sign_involution
        quot = involution_quotient(cons.cover_to_base, vperm, hperm)
        assert quot.f.global_degree() == 2

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

    # Seed 7 is left out because random_tower raises GenerationError for it
    # (no generic dilated tower within the rejection budget), which is not
    # a search problem.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 8, 9, 10])
    def test_involutive_over_a_hundred_vertex_tree(self, seed):
        gen = random_tower(seed, n=2, pi_free=False, generic=True, tree_size=(100, 100))
        twice = bigonal(bigonal(gen.tower).tower).tower
        assert towers_isomorphic(twice, gen.tower) is not None

    def test_type_v_collapses_to_type_i(self):
        # two dilated mid points over a base point: output has type I there
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 1), (1, 3, keys[0], 1)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        built = build_double_cover(f.source, dilated_vertices={0, 1, 2, 3},
                                   dilated_edge_keys={0, 2})
        tower = Tower(built, f)
        assert classify_bigonal_point(tower, vpoint(0)) == "V"
        result = bigonal(tower)
        assert result.output_types[vpoint(0)] == "I"
        assert "V" in result.input_types.values()

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
        # degree table: a pair (x, x) carries C(d_x, 2) and a pair (x, y)
        # d_x * d_y, and the involution sends a pair to its complement
        for seed in (5, 9, 13, 14, 19):  # fibers of all three profiles
            cover = random_tetragonal_curve(seed).cover
            assert {cover.fiber_profile(vpoint(v)) for v in cover.target.vertices} == \
                {(1, 1, 1, 1), (2, 1, 1), (3, 1)}
            out2 = recillas(cover)
            d, invol = cover.vertex_degree, out2.tower.pi.vertex_invol
            degree = out2.tower.composed().vertex_degree
            for i, (v, (x, y)) in out2.vertex_info.items():
                assert degree[i] == (comb(d[x], 2) if x == y else d[x] * d[y]), (seed, i)
                rest = [z for z in cover.fiber_vertices(v) for _ in range(d[z])]
                rest.remove(x)
                rest.remove(y)
                assert sorted(out2.vertex_info[invol[i]][1]) == sorted(rest), (seed, i)
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

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_recillas_inverts_trigonal_over_a_hundred_vertex_tree(self, seed):
        gen = random_tower(seed, n=3, pi_free=True, tree_size=(100, 100))
        back = recillas(trigonal(gen.tower).quartic).tower
        assert towers_isomorphic(back, gen.tower) is not None

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

    def test_split_reads_the_input_types_once(self, monkeypatch):
        # the precondition loop types each base point once; each split tower
        # is classified once, as the check that it keeps those types
        from tropcover import ngonal
        calls, classify = [], ngonal.classify_tetragonal_point

        def counted(p, point):
            calls.append(point)
            return classify(p, point)
        monkeypatch.setattr(ngonal, "classify_tetragonal_point", counted)
        for seed in range(4):
            tower = random_tower(seed, n=4, pi_free=True, generic=True).tower
            calls.clear()
            tetragonal_split(tower)
            assert len(calls) == 3 * len(tower.base.points())

    def test_non_generic_rejected(self):
        base, keys = Graph.from_edges(2, [(0, 1)])
        f = harmonic_from_edges(4, [(0, 2, keys[0], 2), (1, 3, keys[0], 2)],
                                base, {0: 0, 1: 0, 2: 1, 3: 1})
        built = build_double_cover(f.source)
        with pytest.raises(NonGenericError):
            tetragonal_split(Tower(built, f))


# ---------------------------------------------------------------------------
# The orientation cover glued by a parity formula, the sign quotient onto it
# and the separate partner transport, as they were before the orientation
# cover became the sign quotient of the section cover; kept as test oracles.


def _old_point_is_dilated(fd):
    return not fd.is_free()


def _old_sign_flip_parity(fd, flip):
    return sum(fiber_part(fd, pid).degree for pid, fl in flip.items() if fl) % 2


def _old_ms_sign_bit(fd, ms):
    return sum(plus for (_pid, plus, _minus) in ms) % 2


def _old_partner_transport(t, h):
    hbar = t.base.partner[h]
    fine = tower_fiber(t, hpoint(h))
    other = tower_fiber(t, hpoint(hbar))
    part_map, flip = {}, {}
    for p in fine.parts:
        mate = t.mid.partner[p.part_id]
        part_map[p.part_id] = mate
        if not p.dilated:
            top_halves = t.pi.fiber_half_edges(p.part_id)
            mate_halves = t.pi.fiber_half_edges(mate)
            flip[p.part_id] = t.top.partner[top_halves[0]] == mate_halves[1]
    return other, part_map, flip


def _old_transport_multisection(other, part_map, flip, ms):
    coeffs = {}
    for (pid, plus, minus) in ms:
        if flip.get(pid, False):
            plus, minus = minus, plus
        coeffs[part_map[pid]] = (plus, minus)
    return _canonical(other, coeffs)


def _old_orientation_cover(t, fibers, transports):
    base = t.base
    ov_ids, ov_info = {}, {}
    for v in base.vertices:
        signs = (0,) if _old_point_is_dilated(fibers[vpoint(v)]) else (0, 1)
        for s in signs:
            idx = len(ov_ids)
            ov_ids[(v, s)] = idx
            ov_info[idx] = (v, s)
    oh_ids, oh_info = {}, {}
    for h in base.half_edges:
        signs = (0,) if _old_point_is_dilated(fibers[hpoint(h)]) else (0, 1)
        for s in signs:
            idx = len(oh_ids)
            oh_ids[(h, s)] = idx
            oh_info[idx] = (h, s)
    root, partner = {}, {}
    for h in base.half_edges:
        v = base.root[h]
        h_dil = _old_point_is_dilated(fibers[hpoint(h)])
        v_dil = _old_point_is_dilated(fibers[vpoint(v)])
        refinement = _root_refinement(t, fibers, h)
        root_parity = _old_sign_flip_parity(fibers[hpoint(h)], refinement.flip)
        other, part_map, flip = transports[h]
        partner_parity = _old_sign_flip_parity(fibers[hpoint(h)], flip)
        hbar = base.partner[h]
        hbar_dil = _old_point_is_dilated(fibers[hpoint(hbar)])
        for s in ((0,) if h_dil else (0, 1)):
            hid = oh_ids[(h, s)]
            root[hid] = ov_ids[(v, 0 if v_dil else (s + root_parity) % 2)]
            partner[hid] = oh_ids[(hbar, 0 if hbar_dil else (s + partner_parity) % 2)]
    graph = Graph(tuple(range(len(ov_ids))), root, partner)
    cover = HarmonicMorphism(
        graph, base,
        {i: v for i, (v, s) in ov_info.items()},
        {i: h for i, (h, s) in oh_info.items()},
        {i: 2 if _old_point_is_dilated(fibers[vpoint(v)]) else 1 for i, (v, s) in ov_info.items()},
        {i: 2 if _old_point_is_dilated(fibers[hpoint(h)]) else 1 for i, (h, s) in oh_info.items()})
    assert not validate_harmonic(cover)
    return cover, ov_info, oh_info, ov_ids, oh_ids


def _old_sign_quotient(t, n, fibers, cover, v_info, h_info, ov_ids, oh_ids, orientation):
    vmap, hmap, vdeg, hdeg = {}, {}, {}, {}
    for i, (v, ms) in v_info.items():
        fd = fibers[vpoint(v)]
        if _old_point_is_dilated(fd):
            vmap[i] = ov_ids[(v, 0)]
            vdeg[i] = cover.vertex_degree[i] // 2
        else:
            vmap[i] = ov_ids[(v, _old_ms_sign_bit(fd, ms))]
            vdeg[i] = cover.vertex_degree[i]
    for i, (h, ms) in h_info.items():
        fd = fibers[hpoint(h)]
        if _old_point_is_dilated(fd):
            hmap[i] = oh_ids[(h, 0)]
            hdeg[i] = cover.half_edge_degree[i] // 2
        else:
            hmap[i] = oh_ids[(h, _old_ms_sign_bit(fd, ms))]
            hdeg[i] = cover.half_edge_degree[i]
    q = HarmonicMorphism(cover.source, orientation.source, vmap, hmap, vdeg, hdeg)
    assert not validate_harmonic(q)
    assert q.global_degree() == 2 ** (n - 1)
    return q


def _relabel_top(t, seed):
    """The same tower with the top graph's ids shuffled, so that the lifts
    of a mid point come in either order and partner transport flips."""
    rng = random.Random(seed)
    top, cover = t.top, t.pi
    vs, hs = list(top.vertices), list(top.half_edges)
    rng.shuffle(vs)
    rng.shuffle(hs)
    vnew, hnew = dict(zip(top.vertices, vs)), dict(zip(top.half_edges, hs))
    graph = Graph(tuple(vs), {hnew[h]: vnew[top.root[h]] for h in top.half_edges},
                  {hnew[h]: hnew[top.partner[h]] for h in top.half_edges})
    shuffled = HarmonicMorphism(
        graph, t.mid, {vnew[v]: cover.v(v) for v in top.vertices},
        {hnew[h]: cover.h(h) for h in top.half_edges},
        {vnew[v]: cover.vertex_degree[v] for v in top.vertices},
        {hnew[h]: cover.half_edge_degree[h] for h in top.half_edges})
    return Tower(DoubleCover.from_harmonic(shuffled), t.f)


def _oracle_towers():
    """random_tower seeds 0-29: n=2 generic, n=3 with a free double cover,
    n=4 free and generic; each also with its top level relabeled."""
    for seed in range(30):
        for n, t in ((2, random_tower(seed, n=2, generic=True).tower),
                     (3, random_tower(seed, n=3, pi_free=True).tower),
                     (4, random_tower(seed, n=4, pi_free=True, generic=True).tower)):
            yield n, t
            yield n, _relabel_top(t, seed)


class TestAgainstReplacedTransport:
    def test_orientation_cover_matches_parity_gluing(self):
        kinds = set()
        for n, t in _oracle_towers():
            cons = ngonal_construct(t, n)
            fibers = {p: tower_fiber(t, p) for p in t.base.points()}
            transports = {h: _old_partner_transport(t, h) for h in t.base.half_edges}
            orientation, ov_info, oh_info, ov_ids, oh_ids = \
                _old_orientation_cover(t, fibers, transports)
            assert cons.orientation == orientation  # graph, maps and degrees
            assert cons.orientation_vertex_info == ov_info
            assert cons.orientation_half_edge_info == oh_info
            assert cons.to_orientation == _old_sign_quotient(
                t, n, fibers, cons.cover_to_base, cons.vertex_info, cons.half_edge_info,
                ov_ids, oh_ids, orientation)
            kinds.add((n, any(not fd.is_free() for fd in fibers.values())))
        assert kinds == {(2, False), (2, True), (3, False), (4, False)}

    def test_partner_transport_matches_old_transport(self):
        count = flips = 0
        for n, t in _oracle_towers():
            fibers = {p: tower_fiber(t, p) for p in t.base.points()}
            for h in t.base.half_edges:
                refinement = _partner_transport(t, fibers, h)
                old = _old_partner_transport(t, h)
                assert refinement.coarse == old[0]
                for ms in multisections(fibers[hpoint(h)]):
                    assert induce_multisection(refinement, ms) == \
                        _old_transport_multisection(*old, ms)
                    count += 1
                flips += sum(refinement.flip.values())
        assert count > 1000 and flips > 100

    def test_inconsistent_sign_labelling_is_caught(self):
        # a degree-3 free tower; swapping every sign of one half-edge's
        # multisection flips its sign bit (3 is odd) but not its root
        t = random_tower(0, n=3, pi_free=True).tower
        cons = ngonal_construct(t, 3)
        fibers = {p: tower_fiber(t, p) for p in t.base.points()}
        h_info = dict(cons.half_edge_info)
        h, ms = h_info[0]
        h_info[0] = (h, swap_multisection(fibers[hpoint(h)], ms))
        with pytest.raises(AssertionError, match="glued differently"):
            _sign_quotient(3, fibers, cons.cover_to_base, cons.vertex_info, h_info)
        # the untouched labelling passes the same check
        assert _sign_quotient(3, fibers, cons.cover_to_base, cons.vertex_info,
                              cons.half_edge_info)[1] == cons.to_orientation
