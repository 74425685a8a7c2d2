from fractions import Fraction

import pytest  # noqa: F401  (raises-based tests below)

from gallery import build_double_cover, harmonic_from_edges, tower_metrics, trigonal_reference
from oracles import (_finite_leaves, augment_smooth, augment_smooth_tower,
                     validate_metric_harmonic)
from tropcover.graphs import Graph
from tropcover.jacprym import h1_basis
from tropcover.metrics import (INF, MetricGraph, format_length, induce_metric,
                               is_inf, parse_length, validate_metric)
from tropcover.randgen import random_tower


def test_length_parsing_round_trip():
    assert parse_length("3/2") == Fraction(3, 2)
    assert is_inf(parse_length("inf"))
    assert format_length(Fraction(7, 3)) == "7/3"
    assert format_length(INF) == "inf"


def test_induce_metric_divides_by_dilation():
    base, keys = Graph.from_edges(2, [(0, 1)])
    metric = MetricGraph(base, {keys[0]: Fraction(4)})
    f = harmonic_from_edges(2, [(0, 1, keys[0], 2)], base, {0: 0, 1: 1})
    induced = induce_metric(f, metric)
    assert induced.length[0] == Fraction(2)
    assert validate_metric_harmonic(f, induced, metric) == []


def test_free_cover_copies_lengths():
    base, keys = Graph.from_edges(3, [(0, 1), (1, 2)])
    metric = MetricGraph(base, {keys[0]: Fraction(5, 3), keys[1]: Fraction(2)})
    built = build_double_cover(base)
    induced = induce_metric(built, metric)
    for k in induced.graph.edge_keys():
        down = base.edge_key(built.h(k))
        assert induced.length[k] == metric.length[down]


def test_trigonal_reference_lengths():
    ref = trigonal_reference((1, 1, 1, 1, 1))
    mid, top = tower_metrics(ref.tower, ref.base_metric)
    degrees = {ref.tower.f.deg_edge(k) for k in mid.graph.edge_keys()}
    assert degrees == {1, 2}
    for k in mid.graph.edge_keys():
        assert mid.length[k] == Fraction(1, ref.tower.f.deg_edge(k))
    # the free double cover just copies these upstairs
    for k in top.graph.edge_keys():
        down = mid.graph.edge_key(ref.tower.pi.h(k))
        assert top.length[k] == mid.length[down]


def test_validate_metric_harmonic_rejects_wrong_scale():
    base, keys = Graph.from_edges(2, [(0, 1)])
    metric = MetricGraph(base, {keys[0]: Fraction(4)})
    f = harmonic_from_edges(2, [(0, 1, keys[0], 2)], base, {0: 0, 1: 1})
    wrong = MetricGraph(f.source, {0: Fraction(3)})
    issues = validate_metric_harmonic(f, wrong, metric)
    assert issues and issues[0].code == "dilation-factor"


def test_validate_metric_rules():
    base, keys = Graph.from_edges(2, [(0, 1), (0, 1)])
    bad = MetricGraph(base, {0: INF, 2: Fraction(1)})
    assert any(i.code == "infinite-not-extremal" for i in validate_metric(bad))
    nonpos = MetricGraph(base, {0: Fraction(0), 2: Fraction(1)})
    assert any(i.code == "length-positive" for i in validate_metric(nonpos))


class TestAugmentSmooth:
    def test_no_finite_leaves_unchanged_graph(self):
        loop = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
        metric = MetricGraph(loop, {0: Fraction(3)})
        out = augment_smooth(metric)
        assert out.graph == loop and not _finite_leaves(out)

    def test_single_leaf_gets_one_ray(self):
        base, keys = Graph.from_edges(2, [(0, 1)])
        metric = MetricGraph(base, {keys[0]: Fraction(1)})
        out = augment_smooth(metric)
        rays = [k for k, v in out.length.items() if is_inf(v)]
        assert len(rays) == 2  # one per finite leaf (both ends here)
        assert validate_metric(out) == []

    def test_idempotent_and_h1_invariant(self):
        base, keys = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        metric = MetricGraph(base, {k: Fraction(1) for k in keys})
        out = augment_smooth(metric)
        assert augment_smooth(out) == out
        assert h1_basis(out.graph).rank == h1_basis(base).rank

    def test_dilated_leaf_gets_two_unit_rays_upstairs(self):
        # a degree-2 vertex above a target leaf receives deg(v) = 2 rays,
        # each mapping with degree 1
        base, keys = Graph.from_edges(2, [(0, 1)])
        built = build_double_cover(base, dilated_vertices={0, 1}, dilated_edge_keys={0})
        f = built
        tgt_metric = MetricGraph(base, {0: Fraction(2)})
        f2, s2, t2 = augment_smooth_tower(f, tgt_metric)
        new_src_rays = [k for k, v in s2.length.items() if is_inf(v)]
        assert len(new_src_rays) == 4  # 2 rays over each of the two target rays
        assert all(f2.half_edge_degree[k] == 1 for k in new_src_rays)
        assert validate_metric_harmonic(f2, s2, t2) == []
        assert h1_basis(s2.graph).rank == h1_basis(f.source).rank


def test_all_lengths_exact_fractions():
    ref = trigonal_reference((1, 2, 3, 4, 5))
    mid, top = tower_metrics(ref.tower, ref.base_metric)
    for metric in (ref.base_metric, mid, top):
        for v in metric.length.values():
            assert isinstance(v, Fraction)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("pi_free", [True, False], ids=["free", "dilated"])
def test_induced_lengths_are_the_target_lengths_over_the_degrees(n, pi_free):
    for seed in range(4):
        gen = random_tower(seed, n=n, pi_free=pi_free)
        mid = induce_metric(gen.tower.f, gen.base_metric)
        for f, down in ((gen.tower.f, gen.base_metric), (gen.tower.pi, mid)):
            up = induce_metric(f, down)
            assert sorted(up.length) == list(f.source.edge_keys())
            for k, val in up.length.items():
                assert type(val) is Fraction
                assert val == Fraction(down.length[f.target.edge_key(f.h(k))]) / f.deg_edge(k)
