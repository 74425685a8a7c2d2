import ast
import inspect
import json
import os
import random
import re
from fractions import Fraction

import pytest

from tropcover import graphs
from tropcover.graphs import (DoubleCover, Graph, GraphError,
                              HarmonicMorphism, PreconditionError, Tower,
                              compose_harmonic,
                              connected_components, covers_isomorphic_over_base, dilation_data,
                              fundamental_cycles, genus, spanning_tree,
                              towers_isomorphic, validate_graph,
                              validate_harmonic, vpoint)
from tropcover.ngonal import bigonal, ngonal_construct, recillas, tetragonal_split, trigonal
from tropcover.randgen import random_tower
from tropcover.towerio import InvalidTowerFile, doc_to_file, graph_from_doc, level_from_doc

import test_load_boundary as boundary
from gallery import (bigonal_output_reference, bigonal_reference, build_double_cover,
                     harmonic_from_edges, identity_harmonic, random_tetragonal_curve,
                     trigonal_reference)
from oracles import (betti_number, contract_edge, towers_isomorphic_mid_first,
                     validate_harmonic_by_rescan)


def loop_graph():
    return Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})


def theta_graph():
    g, _ = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
    return g


def path_graph(n):
    g, _ = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return g


class TestValidateGraph:
    def test_single_vertex_no_half_edges(self):
        assert validate_graph(Graph((0,), {}, {})) == []

    def test_smallest_loop(self):
        assert validate_graph(loop_graph()) == []

    def test_fixed_point_of_involution_reported(self):
        bad = Graph((0,), {0: 0}, {0: 0})
        issues = validate_graph(bad)
        assert any(i.code == "partner-fixed-point" and i.where == ("h", 0) for i in issues)

    def test_missing_root_vertex(self):
        bad = Graph((0,), {0: 5, 1: 0}, {0: 1, 1: 0})
        assert any(i.code == "root-missing" for i in validate_graph(bad))


class TestGenusAndComponents:
    def test_loop_genus_one(self):
        assert genus(loop_graph()) == 1

    def test_theta_genus_two(self):
        assert genus(theta_graph()) == 2

    def test_path_genus_zero(self):
        assert genus(path_graph(4)) == 0

    def test_genus_requires_connected(self):
        two_loops, _ = Graph.from_edges(2, [(0, 0), (1, 1)])
        with pytest.raises(PreconditionError, match="connected"):
            genus(two_loops)

    def test_components(self):
        two_loops, _ = Graph.from_edges(2, [(0, 0), (1, 1)])
        assert len(connected_components(two_loops)) == 2
        assert len(connected_components(theta_graph())) == 1
        assert connected_components(Graph((), {}, {})) == ()

    def test_components_are_kept_on_the_graph(self, monkeypatch):
        # one BFS per component on first use; is_connected, genus,
        # betti_number, is_tree and connected_components then read the memo
        calls = []
        bfs = graphs._bfs
        monkeypatch.setattr(graphs, "_bfs", lambda *a, **kw: calls.append(a[1]) or bfs(*a, **kw))
        g = theta_graph()
        assert graphs.is_connected(g) and calls == [0]
        assert genus(g) == 2 and betti_number(g) == 2 and not graphs.is_tree(g)
        assert connected_components(g) == (frozenset({0, 1}),)
        assert calls == [0]
        two_loops, _ = Graph.from_edges(3, [(0, 0), (1, 2), (2, 2)])
        assert betti_number(two_loops) == 2 and not graphs.is_connected(two_loops)
        assert calls == [0, 0, 1]

    def test_mutating_returned_components_leaves_the_memo(self):
        g, _ = Graph.from_edges(4, [(0, 1), (2, 3)])
        first = graphs._bfs_components(g)
        assert first == [[0, 1], [2, 3]]
        first[0].append(7)
        first.append([9])
        first[1].clear()
        assert graphs._bfs_components(g) == [[0, 1], [2, 3]]
        assert connected_components(g) == (frozenset({0, 1}), frozenset({2, 3}))
        assert not graphs.is_connected(g) and betti_number(g) == 0

    def test_filtered_components_are_not_kept(self):
        g, keys = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert graphs._bfs_components(g, keys={keys[0]}) == [[0, 1], [2]]
        assert graphs._bfs_components(g, vertices={1, 2}) == [[1, 2]]
        assert graphs._bfs_components(g) == [[0, 1, 2]]
        assert g._components is None  # only `_components` keeps them


class TestSpanningTree:
    def test_tree_has_no_complement(self):
        assert spanning_tree(path_graph(4)).complement_keys == ()

    def test_loop_complement_is_the_loop(self):
        tree = spanning_tree(loop_graph())
        assert tree.complement_keys == (0,)

    def test_theta_two_complementary(self):
        tree = spanning_tree(theta_graph())
        assert len(tree.complement_keys) == 2
        cycles = fundamental_cycles(theta_graph(), tree)
        shared = set(cycles[0]) & set(cycles[1])
        assert shared  # both run through the tree edge


def type_b_fiber_map():
    """One preimage of degree 1 and one of degree 2 over each of two
    vertices, lifted consistently along the connecting edge."""
    base = path_graph(2)
    spec = [(0, 2, 0, 1), (1, 3, 0, 2)]
    return harmonic_from_edges(4, spec, base, {0: 0, 1: 0, 2: 1, 3: 1})


class TestValidateHarmonic:
    def test_identity_is_valid_degree_one(self):
        f = identity_harmonic(theta_graph())
        assert validate_harmonic(f) == []
        assert f.global_degree() == 1

    def test_type_b_fiber_map_degree_three(self):
        f = type_b_fiber_map()
        assert validate_harmonic(f) == []
        assert f.global_degree() == 3

    def test_local_violation_reported_at_vertex_half_edge_pair(self):
        base = path_graph(2)
        src = path_graph(2)
        f = HarmonicMorphism(src, base, {0: 0, 1: 1}, {0: 0, 1: 1},
                             {0: 2, 1: 1}, {0: 1, 1: 1})
        issues = validate_harmonic(f)
        assert any(i.code == "local-harmonicity" and i.where == (("v", 0), ("h", 0))
                   for i in issues)

    def test_global_degree_onto_empty_graph_is_an_error(self):
        empty = Graph((), {}, {})
        f = HarmonicMorphism(empty, empty, {}, {}, {}, {})
        with pytest.raises(GraphError, match="empty"):
            f.global_degree()

    def test_fiber_sum_constancy_on_random_towers(self):
        for seed in range(10):
            tower = random_tower(seed, n=3).tower
            comp = tower.composed()
            sums = {comp.fiber_profile(p) for p in []}
            degs = set()
            for p in tower.base.points():
                kind, i = p
                fib = comp.fiber_vertices(i) if kind == "v" else comp.fiber_half_edges(i)
                degs.add(sum(comp.deg_point((kind, x)) for x in fib))
            assert degs == {6}


class TestCompose:
    def test_degrees_multiply(self):
        for seed in range(8):
            tower = random_tower(seed, n=3).tower
            comp = compose_harmonic(tower.pi, tower.f)
            assert validate_harmonic(comp) == []
            assert comp.global_degree() == 6
            for v in tower.top.vertices:
                expected = tower.pi.deg_v(v) * tower.f.deg_v(tower.pi.v(v))
                assert comp.deg_v(v) == expected

    def test_identity_composition(self):
        f = type_b_fiber_map()
        composed = compose_harmonic(f, identity_harmonic(f.target))
        assert composed == f

    def test_non_composable(self):
        f = type_b_fiber_map()
        with pytest.raises(GraphError):
            compose_harmonic(f, f)


class TestDilationData:
    def test_free_cover_of_genus_two(self):
        base, _ = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        built = build_double_cover(base, bits={1: 1})
        data = dilation_data(built)
        assert (data.A, data.B, data.C) == (1, 0, 0)

    def test_reference_hyperelliptic_tower(self):
        from gallery import bigonal_reference
        data = dilation_data(bigonal_reference().tower.pi)
        assert (data.A, data.B, data.C) == (1, 1, 0)
        assert data.components == 2
        assert data.A + data.B == 2

    def test_single_dilated_vertex_on_genus_one(self):
        base, _ = Graph.from_edges(2, [(0, 1), (0, 1)])
        built = build_double_cover(base, dilated_vertices={0}, bits={})
        data = dilation_data(built)
        assert (data.m_d, data.n_d, data.components) == (0, 1, 1)
        assert (data.A, data.B, data.C) == (1, 0, 0)

    def test_invariant_a_plus_b(self):
        for seed in range(15):
            tower = random_tower(seed, n=2).tower
            data = dilation_data(tower.pi)
            assert data.A + data.B == genus(tower.top) - genus(tower.mid)


def test_a_double_cover_indexes_its_fibers_once_per_map(monkeypatch, tmp_path):
    # the morphism indexes its fibers when it is built; from_harmonic hands
    # that index to the double cover with the same maps, and builds none
    from tropcover import randgen
    from tropcover.towerio import load, save, tower_to_doc
    towers = []
    for seed in range(10):
        gen = random_tower(seed, n=3)
        save(tmp_path / f"t{seed}.json", tower_to_doc(gen.tower, gen.base_metric))
        towers.append((seed, gen.tower.mid, load(tmp_path / f"t{seed}.json")))
    indexed, preimages = [], graphs._preimages
    monkeypatch.setattr(graphs, "_preimages", lambda image, ids: indexed.append(image)
                        or preimages(image, ids))
    for seed, mid, loaded in towers:
        indexed.clear()
        cover = DoubleCover.from_harmonic(
            randgen.random_double_cover_of(random.Random(seed), mid, Fraction(1, 2)))
        assert list(map(id, indexed)) == [id(cover.vmap), id(cover.hmap)]
        # a loaded level keeps the index the loader built
        assert loaded.tower().pi.fiber_vertices(0) and len(indexed) == 2


class TestContractEdge:
    def test_free_edge_contraction_gives_two_unit_vertices(self):
        base = path_graph(2)
        built = build_double_cover(base)
        c = contract_edge(built, 0)
        assert sorted(c.morphism.vertex_degree.values()) == [1, 1]
        assert len(c.morphism.target.vertices) == 1

    def test_dilated_edge_contraction_gives_one_degree_two_vertex(self):
        base = path_graph(2)
        built = build_double_cover(base, dilated_vertices={0, 1}, dilated_edge_keys={0})
        c = contract_edge(built, 0)
        assert list(c.morphism.vertex_degree.values()) == [2]

    def test_contract_all_edges_of_degree_three_cover(self):
        f = random_tower(5, n=3).tower.f
        while f.target.edge_keys():
            f = contract_edge(f, f.target.edge_keys()[0]).morphism
        assert len(f.target.vertices) == 1
        assert sum(f.vertex_degree.values()) == 3
        assert validate_harmonic(f) == []

    def test_contraction_commutes_with_tower_composition(self):
        for seed in range(10):
            tower = random_tower(seed, n=3).tower
            rng = random.Random(seed)
            key = rng.choice(tower.base.edge_keys())
            total = contract_edge(tower.composed(), key)
            c_f = contract_edge(tower.f, key)
            pi = tower.pi
            for k in sorted(tower.f.fiber_edges(key), reverse=True):
                pi = contract_edge(pi, k).morphism
            recomposed = compose_harmonic(pi, c_f.morphism)
            assert covers_isomorphic_over_base(recomposed, total.morphism) is not None


class TestCoverIsomorphism:
    def test_relabeled_cover_found(self):
        tower = random_tower(1, n=3).tower
        f = tower.f
        perm = {v: v for v in f.source.vertices}
        found = covers_isomorphic_over_base(f, f)
        assert found is not None

    def test_reflexive_and_symmetric(self):
        t1 = random_tower(2, n=2).tower
        t2 = random_tower(2, n=2).tower
        assert covers_isomorphic_over_base(t1.f, t1.f) is not None
        fwd = covers_isomorphic_over_base(t1.f, t2.f)
        back = covers_isomorphic_over_base(t2.f, t1.f)
        assert (fwd is None) == (back is None)

    def test_connected_vs_split_double_cover_of_loop(self):
        base = loop_graph()
        connected = build_double_cover(base, bits={1: 1})
        split = build_double_cover(base)
        assert covers_isomorphic_over_base(connected, split) is None

    def test_fiber_profile_mismatch(self):
        base = Graph((0,), {}, {})
        one = HarmonicMorphism(Graph((0,), {}, {}), base, {0: 0}, {}, {0: 3}, {})
        two = HarmonicMorphism(Graph((0, 1), {}, {}), base, {0: 0, 1: 0}, {},
                               {0: 2, 1: 1}, {})
        assert covers_isomorphic_over_base(one, two) is None

    def test_towers_isomorphic_reflexive(self):
        t = random_tower(4, n=2).tower
        assert towers_isomorphic(t, t) is not None


def round_trip_pairs(seeds):
    """(t, bigonal(t)) both ways, (bigonal^2(t), t) and (t, t) for generic
    degree-2 towers, dilated and mixed; (recillas(trigonal(t)), t) and
    (t, t) for free degree-3 towers."""
    for seed in seeds:
        for pi_free in (False, None):
            t = random_tower(seed, n=2, pi_free=pi_free, generic=True).tower
            b = bigonal(t).tower
            yield from ((t, b), (b, t), (bigonal(b).tower, t), (t, t))
        t = random_tower(seed, n=3, pi_free=True).tower
        yield from ((recillas(trigonal(t).quartic).tower, t), (t, t))


def accepted_morphisms():
    """Every level, composite and double cover of `round_trip_pairs(range(20))`
    and of the gallery towers; the gallery's quartic covers; and on free
    trigonal towers the section covers with their orientation quotients,
    the quartics, their tetragonal splits and the Recillas sextics."""
    towers = [t for pair in round_trip_pairs(range(20)) for t in pair]
    towers += [ref().tower for ref in (trigonal_reference, bigonal_reference,
                                       bigonal_output_reference)]
    covers = [random_tetragonal_curve(seed).cover for seed in range(5)]
    for seed in range(8):
        t = random_tower(seed, n=3, pi_free=True, tree_size=(4, 9)).tower
        cons = ngonal_construct(t, 3)
        quartic = trigonal(t).quartic
        rng = random.Random(seed)
        sheets = build_double_cover(
            quartic.source, bits={h: rng.randrange(2) for h in quartic.source.half_edges})
        split = tetragonal_split(Tower(sheets, quartic))
        towers += [recillas(quartic).tower, Tower(sheets, quartic), *split.towers]
        covers += [cons.cover_to_base, cons.orientation, cons.to_orientation, quartic,
                   split.construction.cover_to_base]
    found = {}
    for f in covers + [f for t in towers for f in (t.f, t.pi, t.composed())]:
        found.setdefault(id(f), f)
    return list(found.values())


def degree_sums(f) -> set:
    """The sums of the local degrees over each target point, found by one
    pass over the source maps, not through the fiber index."""
    sums = dict.fromkeys(f.target.points(), 0)
    for v, w in f.vmap.items():
        sums[vpoint(w)] += f.vertex_degree[v]
    for h, k in f.hmap.items():
        sums[graphs.hpoint(k)] += f.half_edge_degree[h]
    return set(sums.values())


class TestImpliedChecks:
    # what the checks of `validate_harmonic` and `DoubleCover.from_harmonic`
    # imply without a check of their own: one global degree over a
    # connected target, and a sheet involution commuting with root and partner

    def test_an_accepted_morphism_has_one_degree_sum_over_a_connected_target(self):
        morphisms = accepted_morphisms()
        assert len(morphisms) > 400
        for f in morphisms:
            assert validate_harmonic(f) == []
            if graphs.is_connected(f.target):
                assert degree_sums(f) == {f.global_degree()}
        for f in morphisms[::7]:
            for m in harmonicity_mutants(f, random.Random(1)):
                if not validate_harmonic(m) and graphs.is_connected(m.target):
                    assert len(degree_sums(m)) == 1

    def test_a_double_cover_involution_is_the_sheet_swap(self):
        covers = [f for f in accepted_morphisms() if isinstance(f, DoubleCover)]
        assert len(covers) > 150 and any(c.dilated_vertices for c in covers)
        for c in covers:
            s, vinv, hinv = c.source, c.vertex_invol, c.half_edge_invol
            assert all(vinv[vinv[v]] == v for v in s.vertices)
            for h in s.half_edges:
                assert hinv[hinv[h]] == h
                assert vinv[s.root[h]] == s.root[hinv[h]]
                assert hinv[s.partner[h]] == s.partner[hinv[h]]
            for ids, fiber, inv, dilated in (
                    (c.target.vertices, c.fiber_vertices, vinv, c.dilated_vertices),
                    (c.target.half_edges, c.fiber_half_edges, hinv,
                     {h for h in c.target.half_edges if c.target.edge_key(h) in c.dilated_edge_keys})):
                for x in ids:
                    fib = fiber(x)
                    if x in dilated:
                        assert len(fib) == 1 and inv[fib[0]] == fib[0]
                    else:
                        assert len(fib) == 2 and inv[fib[0]] == fib[1] != fib[0]

    def test_issue_lists_match_the_rescan_on_spoiled_files(self):
        # the rescan oracle has a global-degree rule; the package has none
        docs = [make() for make, _, _ in boundary.REFUSED.values()]
        rng = random.Random(52)
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            with open(os.path.join(boundary.DATA, name), encoding="utf-8") as fh:
                source = fh.read()
            docs.append(json.loads(source))
            for _ in range(150):
                doc = json.loads(source)
                boundary.mutate(doc, rng)
                docs.append(doc)
        codes = set()
        for doc in docs:
            try:
                doc_to_file(doc)
            except InvalidTowerFile:
                pass  # parsed, then refused for its issues
            except ValueError:
                continue  # malformed: it has no levels to check
            target, levels = graph_from_doc(doc["base"]), []
            for level_doc in doc.get("levels", []):
                levels.append(level_from_doc(level_doc, target))
                target = levels[-1].source
            for f in levels:
                if validate_graph(f.source) or validate_graph(f.target):
                    continue
                issues = validate_harmonic(f)
                assert issues == validate_harmonic_by_rescan(f)
                codes.update(i.code for i in issues)
        assert {"local-harmonicity", "degree-positive", "root-commute"} <= codes


def isolated_tower(mid_degrees, top_over):
    """Tower over a one-vertex base with no edges: mid vertex i of degree
    mid_degrees[i], top vertex j over mid vertex top_over[j]."""
    base = Graph((0,), {}, {})
    mid = Graph(tuple(range(len(mid_degrees))), {}, {})
    f = HarmonicMorphism(mid, base, {v: 0 for v in mid.vertices}, {},
                         dict(enumerate(mid_degrees)), {})
    top = Graph(tuple(range(len(top_over))), {}, {})
    pi = HarmonicMorphism(top, mid, dict(enumerate(top_over)), {},
                          {v: 2 // top_over.count(w) for v, w in enumerate(top_over)}, {})
    return Tower(DoubleCover.from_harmonic(pi), f)


class TestTowerIsomorphism:
    # one search over the base with the deck involutions, against the
    # nested search it replaced (mid-level isomorphisms first, then the
    # transported top cover for each)

    def test_agrees_with_the_mid_first_search(self):
        isomorphic = 0
        pairs = list(round_trip_pairs(range(60)))
        for t1, t2 in pairs:
            found = towers_isomorphic(t1, t2)
            assert (found is None) == (towers_isomorphic_mid_first(t1, t2) is None)
            if found is None:
                continue
            isomorphic += 1
            (vmid, hmid), (vtop, htop) = found
            p1, p2 = t1.pi, t2.pi
            assert all(vmid[p1.v(v)] == p2.v(x) for v, x in vtop.items())
            assert all(hmid[p1.h(h)] == p2.h(x) for h, x in htop.items())
        assert len(pairs) >= 500 and len(pairs) - isomorphic >= 200

    def test_isolated_vertices_skip_conflicting_candidates(self, monkeypatch):
        # top vertices 0, 1 over mid vertex 0 on one side, 0, 2 on the
        # other: the first vertex matchings send mid vertex 0 to two places
        search, drawn = graphs.iter_cover_isomorphisms, []

        def counted(*args):
            for found in search(*args):
                drawn.append(found)
                yield found
        monkeypatch.setattr(graphs, "iter_cover_isomorphisms", counted)
        t1, t2 = isolated_tower((1, 1), (0, 0, 1, 1)), isolated_tower((1, 1), (0, 1, 0, 1))
        (vmid, _), (vtop, _) = towers_isomorphic(t1, t2)
        assert len(drawn) > 1
        assert all(vmid[t1.pi.v(v)] == t2.pi.v(x) for v, x in vtop.items())
        assert towers_isomorphic_mid_first(t1, t2) is not None

    def test_isolated_vertices_with_no_mid_map(self):
        # degree 2 at every top vertex on both sides, but a free mid vertex
        # of degree 2 is not three dilated mid vertices of degree 1: one way
        # a mid vertex would go to two places, the other way two would meet
        t1, t2 = isolated_tower((2, 1), (0, 0, 1)), isolated_tower((1, 1, 1), (0, 1, 2))
        assert t1.composed().vertex_degree == t2.composed().vertex_degree
        for a, b in ((t1, t2), (t2, t1)):
            assert towers_isomorphic(a, b) is None
            assert towers_isomorphic_mid_first(a, b) is None

    def test_one_search_per_call(self, monkeypatch):
        search, calls = graphs.iter_cover_isomorphisms, []

        def counted(*args):
            calls.append(args)
            return search(*args)
        monkeypatch.setattr(graphs, "iter_cover_isomorphisms", counted)
        t = random_tower(3, n=2, pi_free=False, generic=True).tower
        for t1, t2 in ((t, t), (t, bigonal(t).tower)):
            calls.clear()
            towers_isomorphic(t1, t2)
            assert len(calls) == 1


# ---------------------------------------------------------------------------
# the algorithms the fiber index and the keyed BFS replaced, kept as oracles


def scan_fiber_vertices(f, v):
    return tuple(x for x in f.source.vertices if f.vmap[x] == v)


def scan_fiber_half_edges(f, h):
    return tuple(x for x in f.source.half_edges if f.hmap[x] == h)


def scan_fiber_edges(f, key):
    pair = {key, f.target.partner[key]}
    return tuple(k for k in f.source.edge_keys() if f.hmap[k] in pair)


def union_find_groups(vertices, edges):
    """Classes of `vertices` joined by the (a, b) pairs, each sorted, sorted by minimum."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in sorted(vertices):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(members) for members in groups.values())


def oracle_towers():
    for n in (2, 3, 4):
        for seed in range(6):
            yield random_tower(seed, n=n, tree_size=(2, 8)).tower


class TestAgainstReplacedAlgorithms:
    def test_fiber_lookups_match_linear_scans(self):
        for tower in oracle_towers():
            for f in (tower.pi, tower.f, tower.composed()):
                for v in f.target.vertices:
                    fib = scan_fiber_vertices(f, v)
                    assert f.fiber_vertices(v) == fib
                    assert f.fiber_profile(vpoint(v)) == \
                        tuple(sorted((f.deg_v(x) for x in fib), reverse=True))
                for h in f.target.half_edges:
                    assert f.fiber_half_edges(h) == scan_fiber_half_edges(f, h)
                    assert f.fiber_edges(h) == scan_fiber_edges(f, h)
                v0 = f.target.vertices[0]
                assert f.global_degree() == sum(f.deg_v(x) for x in scan_fiber_vertices(f, v0))

    def test_components_match_union_find(self):
        for tower in oracle_towers():
            for g in (tower.top, tower.mid, tower.base):
                expected = union_find_groups(g.vertices, [g.edge_ends(k) for k in g.edge_keys()])
                assert [tuple(sorted(c)) for c in connected_components(g)] == expected

    def test_dilation_components_match_union_find(self):
        for tower in oracle_towers():
            cover = tower.pi
            expected = union_find_groups(
                cover.dilated_vertices, [cover.target.edge_ends(k) for k in cover.dilated_edge_keys])
            assert dilation_data(cover).components == len(expected)

    def test_contract_edge_groups_match_union_find(self):
        for tower in oracle_towers():
            for f in (tower.pi, tower.f):
                for key in f.target.edge_keys():
                    ends = f.target.edge_ends(key)
                    groups = union_find_groups(
                        [x for x in f.source.vertices if f.vmap[x] in ends],
                        [f.source.edge_ends(k) for k in scan_fiber_edges(f, key)])
                    expected = {x: x for x in f.source.vertices}
                    expected.update({x: members[0] for members in groups for x in members})
                    assert contract_edge(f, key).source_vertex_map == expected


def harmonicity_mutants(f, rng):
    """f, then f with one vertex degree changed, one half-edge degree changed,
    one edge's degree changed on both halves, and one hmap entry redirected."""
    s = f.source
    v, h = rng.choice(s.vertices), rng.choice(s.half_edges)
    hd_edge = dict(f.half_edge_degree)
    hd_edge[h] = hd_edge[s.partner[h]] = hd_edge[h] + 1
    hmap = dict(f.hmap)
    hmap[h] = rng.choice(f.target.half_edges)
    yield f
    yield HarmonicMorphism(f.source, f.target, f.vmap, f.hmap,
                           {**f.vertex_degree, v: f.vertex_degree[v] + 1}, f.half_edge_degree)
    yield HarmonicMorphism(f.source, f.target, f.vmap, f.hmap, f.vertex_degree,
                           {**f.half_edge_degree, h: f.half_edge_degree[h] + 1})
    yield HarmonicMorphism(f.source, f.target, f.vmap, f.hmap, f.vertex_degree, hd_edge)
    yield HarmonicMorphism(s, f.target, f.vmap, hmap,
                           f.vertex_degree, f.half_edge_degree)


class TestValidateHarmonicAgainstRescan:
    def test_issue_lists_match_the_rescan_loop(self):
        codes = set()
        for n in (2, 3, 4):
            for seed in range(20):
                rng = random.Random(seed)
                tower = random_tower(seed, n=n).tower
                for level in (tower.f, tower.pi):
                    for f in harmonicity_mutants(level, rng):
                        issues = validate_harmonic(f)
                        assert issues == validate_harmonic_by_rescan(f)
                        codes.update(i.code for i in issues)
        assert {"local-harmonicity", "edge-degree"} <= codes

    def test_issue_lists_match_on_large_constructed_covers(self):
        # over a 30-vertex tree: the degree-8 section cover of a free trigonal
        # tower, the degree-16 one of a free double cover of its quartic (the
        # tetragonal split) and the Recillas sextic of that quartic
        tower = random_tower(12, n=3, pi_free=True, tree_size=(30, 30)).tower
        quartic = trigonal(tower).quartic
        rng = random.Random(12)
        sheets = build_double_cover(
            quartic.source, bits={h: rng.randrange(2) for h in quartic.source.half_edges})
        covers = ((8, ngonal_construct(tower, 3).cover_to_base),
                  (16, tetragonal_split(Tower(sheets, quartic)).construction.cover_to_base),
                  (6, recillas(quartic).tower.composed()))
        for degree, cover in covers:
            assert cover.global_degree() == degree and len(cover.source.vertices) > 100
            codes = set()
            for f in harmonicity_mutants(cover, rng):
                issues = validate_harmonic(f)
                assert issues == validate_harmonic_by_rescan(f)
                codes.update(i.code for i in issues)
            assert {"local-harmonicity", "edge-degree"} <= codes

    def test_each_morphism_is_scanned_once(self, monkeypatch):
        from tropcover import graphs
        scans = []
        scan = graphs._harmonic_issues

        def counted(f):
            scans.append(f)
            return scan(f)
        level = random_tower(7, n=3).tower.f
        mutants = list(harmonicity_mutants(level, random.Random(7)))
        monkeypatch.setattr(graphs, "_harmonic_issues", counted)
        for f in mutants:
            first = validate_harmonic(f)
            again = validate_harmonic(f)
            assert again == first and again is not first
            first.append("caller's edit")
            assert validate_harmonic(f) == again
            # every mutant is its own object, with its own issues
            assert again == validate_harmonic_by_rescan(f)
        # the generator checked the unmutated level already
        assert len(scans) == len(mutants) - 1 and all(a is b for a, b in zip(scans, mutants[1:]))
        assert validate_harmonic(mutants[0]) == [] and any(validate_harmonic(f) for f in mutants[1:])


# ---------------------------------------------------------------------------
# self-checks of the cover and tower isomorphisms: each spoiling makes one
# `raise AssertionError` of graphs.py fire, by a monkeypatched
# `iter_cover_isomorphisms` that yields a spoiled map


def _spoiled_search(monkeypatch, spoil):
    """Make `iter_cover_isomorphisms` yield spoil(vmap, hmap) of each map it finds."""
    search = graphs.iter_cover_isomorphisms

    def spoiled(f1, f2, involutions=()):
        for vmap, hmap in search(f1, f2, involutions):
            yield spoil(dict(vmap), dict(hmap))
    monkeypatch.setattr(graphs, "iter_cover_isomorphisms", spoiled)


def _swap(m, a, b):
    m[a], m[b] = m[b], m[a]


def _spoiled_cover_iso(monkeypatch, spoil):
    """Decide the composed cover of a free degree-3 tower against itself
    with spoil(cover, vmap, hmap) in place of each map found."""
    cover = random_tower(1, n=3, pi_free=True, tree_size=(4, 6)).tower.composed()
    _spoiled_search(monkeypatch, lambda vmap, hmap: spoil(cover, vmap, hmap))
    covers_isomorphic_over_base(cover, cover)


def _twins(ids, image, degree):
    """The first two ids with the same image and degree."""
    seen = {}
    for x in ids:
        key = (image[x], degree[x])
        if key in seen:
            return seen[key], x
        seen[key] = x


def _spoil_vertex_bijection(cover, vmap, hmap):
    # two vertices sent to one
    v, w = cover.source.vertices[:2]
    vmap[w] = vmap[v]
    return vmap, hmap


def _spoil_vertex_image(cover, vmap, hmap):
    # two vertices over distinct base vertices trade images
    v = cover.source.vertices[0]
    w = next(x for x in cover.source.vertices if cover.vmap[x] != cover.vmap[v])
    _swap(vmap, v, w)
    return vmap, hmap


def _spoil_half_edge_image(cover, vmap, hmap):
    # the first half-edge trades images with one over another base half-edge
    h = cover.source.half_edges[0]
    x = next(y for y in cover.source.half_edges if cover.hmap[y] != cover.hmap[h])
    _swap(hmap, h, x)
    return vmap, hmap


def _spoil_partner(cover, vmap, hmap):
    # two lifts of one base half-edge trade images, their partners do not
    _swap(hmap, *_twins(cover.source.half_edges, cover.hmap, cover.half_edge_degree))
    return vmap, hmap


def _spoil_root(cover, vmap, hmap):
    # two vertices over one base vertex trade images, their half-edges do not
    _swap(vmap, *_twins(cover.source.vertices, cover.vmap, cover.vertex_degree))
    return vmap, hmap


def _spoil_mid_map(monkeypatch):
    # two top half-edges over one base half-edge but distinct mid half-edges
    # trade images, so the mid half-edge under one goes to two places
    tower = random_tower(1, n=3, pi_free=True, tree_size=(4, 6)).tower
    top, over_base, over_mid = tower.top, tower.composed().hmap, tower.pi.hmap

    def spoil(vmap, hmap):
        h = top.half_edges[0]
        x = next(y for y in top.half_edges
                 if over_base[y] == over_base[h] and over_mid[y] != over_mid[h])
        _swap(hmap, h, x)
        return vmap, hmap
    _spoiled_search(monkeypatch, spoil)
    towers_isomorphic(tower, tower)


# self-check message, its fields as in the source -> the spoiling that makes
# it raise: one row per `raise AssertionError` of graphs.py
COVER_ISO_CHECKS = {
    "cover isomorphism is not a vertex bijection":
        lambda mp: _spoiled_cover_iso(mp, _spoil_vertex_bijection),
    "cover isomorphism moves vertex {v} off its image or degree":
        lambda mp: _spoiled_cover_iso(mp, _spoil_vertex_image),
    "cover isomorphism moves half-edge {h} off its image or degree":
        lambda mp: _spoiled_cover_iso(mp, _spoil_half_edge_image),
    "cover isomorphism does not commute with partner at {h}":
        lambda mp: _spoiled_cover_iso(mp, _spoil_partner),
    "cover isomorphism does not commute with root at {h}":
        lambda mp: _spoiled_cover_iso(mp, _spoil_root),
    "top map sends a mid half-edge to two places": _spoil_mid_map,
}


def _message(node) -> str:
    """The text of a message, an f-string's fields written as in the source."""
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else "{" + ast.unparse(part.value) + "}" for part in node.values)
    return node.value


def test_every_cover_iso_check_has_a_spoiling():
    tree = ast.parse(inspect.getsource(graphs))
    messages = {_message(node.exc.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "AssertionError"}
    assert messages == set(COVER_ISO_CHECKS)


@pytest.mark.parametrize("message", COVER_ISO_CHECKS)
def test_a_spoiled_cover_iso_raises_its_check(monkeypatch, message):
    pattern = re.sub(r"\\\{\w+\\\}", r"\\d+", re.escape(message))
    with pytest.raises(AssertionError, match=f"^{pattern}$"):
        COVER_ISO_CHECKS[message](monkeypatch)
