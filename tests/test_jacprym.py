import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tropcover.graphs import (Graph, GraphError, PreconditionError,
                              genus, is_connected)
from tropcover.intlinalg import identity, mat, mat_scale, transpose
from tropcover.jacprym import (chain_scale, check_bigonal_duality,
                               check_trigonal_prym, h1_basis,
                               invol_chain, jacobian, norm_hom,
                               prym, pull_chain, push_chain, symmetric_basis,
                               transfer_maps)
from tropcover.metrics import MetricGraph, induce_metric
from tropcover.randgen import random_tower
from tropcover.tori import dual_polarization, polarized_isomorphic

from gallery import (bigonal_output_reference, bigonal_reference, build_double_cover,
                     tower_metrics, trigonal_expected_table, trigonal_reference)
from oracles import (cycle_pairing, fraction_gram, fraction_pairing, mat_equal, matmul,
                     pairing_table, to_fractions, unscaled)


def loop_cover(connected=True, dilated=False):
    loop = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
    if dilated:
        return build_double_cover(loop, dilated_vertices={0}, dilated_edge_keys={0})
    return build_double_cover(loop, bits={1: 1} if connected else {})


class TestH1Basis:
    def test_tree_empty(self):
        g, _ = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert h1_basis(g).rank == 0

    def test_loop_single_cycle(self):
        g = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
        basis = h1_basis(g)
        assert basis.cycles == ({0: 1},)

    def test_theta_two_cycles_share_tree_edge(self):
        g, _ = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        basis = h1_basis(g)
        assert basis.rank == 2
        shared = set(basis.cycles[0]) & set(basis.cycles[1])
        assert shared


class TestJacobian:
    def test_loop_of_length_three(self):
        g = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
        jac = jacobian(MetricGraph(g, {0: Fraction(3)}))
        assert fraction_pairing(jac.polarization.torus) == ((Fraction(3),),)

    def test_theta_gram_in_difference_basis(self):
        g, keys = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        p, q, r = Fraction(2), Fraction(5), Fraction(7)
        metric = MetricGraph(g, {keys[0]: p, keys[1]: q, keys[2]: r})
        c1 = {keys[0]: 1, keys[1]: -1}
        c2 = {keys[1]: 1, keys[2]: -1}
        table = pairing_table(metric, (c1, c2), (c1, c2))
        assert table == ((p + q, -q), (-q, q + r))

    def test_paper_basis_table_for_reference_quartic(self):
        # the Jacobian torus of any choice of basis is isometric to the
        # closed-form table
        from tropcover.ngonal import trigonal
        ref = trigonal_reference((1, 1, 1, 1, 1))
        tri = trigonal(ref.tower)
        jac = jacobian(induce_metric(tri.quartic, ref.base_metric))
        expected = trigonal_expected_table((1, 1, 1, 1, 1))
        from oracles import fraction_torus
        from tropcover.tori import Polarization
        target = Polarization(fraction_torus(expected), identity(2))
        assert polarized_isomorphic(jac.polarization, target) is not None

    def test_infinite_edge_in_cycle_rejected(self):
        from tropcover.metrics import INF
        g = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
        with pytest.raises(Exception):
            jacobian(MetricGraph(g, {0: INF}))


class TestTransferMaps:
    def test_free_loop_cover(self):
        cover = loop_cover()
        maps = transfer_maps(cover)
        assert maps.pushforward in (((2,),), ((-2,),))
        assert maps.pullback in (((1,),), ((-1,),))

    def test_dilated_loop_cover(self):
        cover = loop_cover(dilated=True)
        maps = transfer_maps(cover)
        assert maps.pushforward in (((1,),), ((-1,),))
        assert maps.pullback in (((2,),), ((-2,),))

    def test_identity_plus_involution(self):
        for seed in range(12):
            tower = random_tower(seed, n=2).tower
            maps = transfer_maps(tower.pi)
            lhs = matmul(maps.pullback, maps.pushforward) if maps.target_basis.rank \
                else tuple(tuple(0 for _ in range(maps.source_basis.rank))
                           for _ in range(maps.source_basis.rank))
            from oracles import mat_add
            assert mat_equal(lhs, mat_add(identity(maps.source_basis.rank), maps.involution))

    def test_involution_commutes_with_push(self):
        tower = random_tower(7, n=2).tower
        cover = tower.pi
        basis = h1_basis(cover.source)
        for cyc in basis.cycles:
            assert push_chain(cover, invol_chain(cover, cyc)) == push_chain(cover, cyc)


class TestNormHom:
    def test_projection_formula_holds(self):
        # the TorusHom constructor verifies adjointness exactly
        for seed in range(10):
            gen = random_tower(seed, n=2)
            mid, top = tower_metrics(gen.tower, gen.base_metric)
            nm = norm_hom(gen.tower.pi, mid)
            if nm.source.rank and nm.target.rank:
                lhs = matmul(transpose(to_fractions(nm.pull)), fraction_pairing(nm.source))
                rhs = matmul(fraction_pairing(nm.target), to_fractions(nm.push))
                assert mat_equal(lhs, rhs)

    def test_free_loop_matrices(self):
        cover = loop_cover()
        tgt_metric = MetricGraph(cover.target, {0: Fraction(2)})
        nm = norm_hom(cover, tgt_metric)
        assert abs(nm.push[0][0]) == 2 and abs(nm.pull[0][0]) == 1

    def test_dilated_loop_matrices(self):
        cover = loop_cover(dilated=True)
        tgt_metric = MetricGraph(cover.target, {0: Fraction(2)})
        nm = norm_hom(cover, tgt_metric)
        assert abs(nm.push[0][0]) == 1 and abs(nm.pull[0][0]) == 2


class TestSymmetricBasis:
    def test_free_genus_two(self):
        g, _ = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        cover = build_double_cover(g, bits={1: 1})
        sb = symmetric_basis(cover)  # verify() runs inside
        assert len(sb.alpha_plus) == genus(g) - 1
        assert len(sb.beta) == 0 and len(sb.gamma_top) == 1

    def test_reference_tower_has_one_alpha_and_one_beta(self):
        ref = bigonal_reference()
        sb = symmetric_basis(ref.tower.pi)
        assert len(sb.alpha_plus) == 1 and len(sb.beta) == 1 and len(sb.gamma_top) == 0
        assert push_chain(ref.tower.pi, sb.beta[0]) == {}

    def test_dilation_cycle_gives_gamma(self):
        # dilated parallel pair: the dilation subgraph has a cycle
        g, keys = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        cover = build_double_cover(g, dilated_vertices={0, 1},
                                   dilated_edge_keys={0, 2})
        sb = symmetric_basis(cover)
        assert len(sb.gamma_top) == 1
        assert pull_chain(cover, sb.gamma[0]) == chain_scale(2, sb.gamma_top[0])

    def test_random_covers(self):
        for seed in range(25):
            tower = random_tower(seed, n=2, dilation_probability=Fraction(1, 2)).tower
            symmetric_basis(tower.pi)

    def test_spoiled_basis_fails_verify_under_python_O(self):
        # python -O strips `assert` statements; verify() must still raise
        script = (
            "import dataclasses, sys\n"
            "from gallery import trigonal_reference\n"
            "from tropcover.jacprym import symmetric_basis\n"
            "sb = symmetric_basis(trigonal_reference().tower.pi)\n"
            "spoiled = dataclasses.replace(sb, alpha_minus=sb.alpha_plus)\n"
            "try:\n"
            "    spoiled.verify()\n"
            "except AssertionError:\n"
            "    sys.exit(0 if sb.alpha_plus else 2)\n"
            "sys.exit(1)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.path.dirname(__file__)]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestPrym:
    def test_free_cover_of_genus_two_type(self):
        g, _ = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        cover = build_double_cover(g, bits={1: 1})
        tgt_metric = MetricGraph(g, {k: Fraction(1) for k in g.edge_keys()})
        data = prym(cover, tgt_metric)
        assert data.rank == 1 and data.type == (2,)

    def test_reference_tower_rank_two_type_one_two(self):
        ref = bigonal_reference()
        mid, top = tower_metrics(ref.tower, ref.base_metric)
        data = prym(ref.tower.pi, mid)
        assert data.rank == 2 and data.type == (1, 2)

    def test_trigonal_reference_paper_basis_table(self):
        for lengths in ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)):
            ref = trigonal_reference(lengths)
            mid, top = tower_metrics(ref.tower, ref.base_metric)
            table = pairing_table(top, ref.class_reps, ref.kernel_cycles)
            assert table == trigonal_expected_table(lengths)

    def test_pairing_well_defined_on_cosets(self):
        for seed in range(10):
            gen = random_tower(seed, n=2)
            cover = gen.tower.pi
            mid, top = tower_metrics(gen.tower, gen.base_metric)
            data = prym(cover, mid)
            src_basis = h1_basis(data.cover.source)
            tgt_basis = h1_basis(data.cover.target)
            kernel_cols = transpose(data.kernel.inclusion.push) if data.rank else ()
            for gamma in tgt_basis.cycles:
                pulled = pull_chain(cover, gamma)
                for col in kernel_cols:
                    lam = src_basis.from_coordinates(col)
                    assert cycle_pairing(top, pulled, lam) == 0

    def test_gram_positive_definite(self):
        from oracles import _cholesky
        for seed in range(10):
            gen = random_tower(seed, n=2)
            mid, top = tower_metrics(gen.tower, gen.base_metric)
            data = prym(gen.tower.pi, mid)
            if data.rank:
                _cholesky(fraction_gram(data.polarization))  # raises if not PD


class TestChecks:
    def test_trigonal_reference_passes(self):
        for lengths in ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)):
            ref = trigonal_reference(lengths)
            assert check_trigonal_prym(ref.tower, ref.base_metric).passed

    def test_bigonal_reference_passes(self):
        ref = bigonal_reference((1, 2, 3))
        result = check_bigonal_duality(ref.tower, ref.base_metric)
        assert result.passed
        assert result.details["types"] == ((1, 2), (1, 2))

    def test_bigonal_free_input_rejected_by_name(self):
        gen = random_tower(0, n=2, generic=True, pi_free=True)
        with pytest.raises(PreconditionError) as err:
            check_bigonal_duality(gen.tower, gen.base_metric)
        assert err.value.condition == "output-connected"

    def test_bigonal_type_v_input_rejected_by_name(self):
        # two dilated mid points over base vertex 0: type V, outside the theorem
        gen = random_tower(2, n=2, pi_free=False)
        with pytest.raises(PreconditionError) as err:
            check_bigonal_duality(gen.tower, gen.base_metric)
        assert err.value.condition == "generic"
        assert err.value.point == ("v", 0)
        assert "('v', 0) has type V" in str(err.value)

    def test_bigonal_check_reads_the_point_types_of_its_construction(self, monkeypatch):
        # bigonal types its input from the fibers of its construction and
        # classifies only its output, as the self-check of its type map; the
        # check classifies nothing itself
        from tropcover import jacprym, ngonal
        from tropcover.towerio import load
        loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data",
                                   "bigonal_tower.json"))
        calls, classify = [], ngonal.classify_bigonal_point

        def counted(t, point):
            calls.append(point)
            return classify(t, point)
        for module in (ngonal, jacprym):  # wherever the name is bound
            monkeypatch.setattr(module, "classify_bigonal_point", counted, raising=False)
        assert check_bigonal_duality(loaded.tower(), loaded.base_metric).passed
        assert len(calls) == len(loaded.base.points())

    @pytest.mark.parametrize("check, n, options", [
        (check_trigonal_prym, 3, {"pi_free": True}),
        (check_bigonal_duality, 2, {"pi_free": True, "generic": True})],
        ids=["trigonal", "bigonal"])
    def test_disconnected_top_rejected_by_name(self, check, n, options):
        towers = [gen for gen in (random_tower(seed, n=n, connected=False, **options)
                                  for seed in range(20)) if not is_connected(gen.tower.top)]
        assert len(towers) > 5
        for gen in towers:
            with pytest.raises(PreconditionError) as err:
                check(gen.tower, gen.base_metric)
            assert err.value.condition == "top-connected"

    def test_rescaling_scales_grams_and_keeps_witness(self):
        ref = trigonal_reference((1, 1, 1, 1, 1))
        scaled = trigonal_reference((3, 3, 3, 3, 3))
        r1 = check_trigonal_prym(ref.tower, ref.base_metric)
        r2 = check_trigonal_prym(scaled.tower, scaled.base_metric)
        assert mat_equal(unscaled(*r2.details["prym_gram"]),
                         mat_scale(Fraction(3), unscaled(*r1.details["prym_gram"])))
        assert mat_equal(unscaled(*r2.details["jacobian_gram"]),
                         mat_scale(Fraction(3), unscaled(*r1.details["jacobian_gram"])))
        assert r1.witness == r2.witness


def _prym_of(gen):
    mid, top = tower_metrics(gen.tower, gen.base_metric)
    return prym(gen.tower.pi, mid)


def _loaded_prym(name):
    from tropcover.towerio import load
    loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data", name))
    mid, top = tower_metrics(loaded.tower(), loaded.base_metric)
    return prym(loaded.tower().pi, mid)


class TestAgainstSnfRoute:
    # `prym` builds the Prym torus from the involution-adapted bases; the
    # Smith-form route it replaced (tests/oracles.py) must give the same
    # rank and type, and polarized tori and principal models that are
    # isomorphic; the bases, and so the printed matrices, may differ
    CASES = ([("n2-dilated", seed, dict(n=2, pi_free=False)) for seed in range(30)]
             + [("n2-any", seed, dict(n=2)) for seed in range(30)]
             + [("n3-free", seed, dict(n=3, pi_free=True)) for seed in range(30)]
             + [("n2-dilated-rank23", 1, dict(n=2, pi_free=False, tree_size=(25, 25)))])

    @staticmethod
    def _agree(data):
        from oracles import polarization_type, polarized_isomorphic_by_inverse, snf_route_prym
        ker, pol, model = snf_route_prym(data.norm)
        assert data.rank == ker.inclusion.source.rank
        assert data.type == polarization_type(pol)
        assert data.principal.multiplier == model.multiplier
        # the route's induced polarization is a general matrix, which only
        # the oracle decision takes
        assert polarized_isomorphic_by_inverse(data.polarization, pol) is not None
        assert polarized_isomorphic(data.principal.polarized, model.polarized) is not None

    @pytest.mark.parametrize("name, seed, kw", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
    def test_random_tower(self, name, seed, kw):
        data = _prym_of(random_tower(seed, **kw))
        if name.endswith("rank23"):
            assert data.rank == 23 and 1 in data.type and 2 in data.type
        self._agree(data)

    def test_rank_zero(self):
        cover = loop_cover()
        tgt_metric = MetricGraph(cover.target, {0: Fraction(3)})
        data = prym(cover, tgt_metric)
        assert data.rank == 0 and data.type == ()
        self._agree(data)

    def test_shipped_files(self):
        for name in ("bigonal_tower.json", "trigonal_tower.json"):
            self._agree(_loaded_prym(name))

    def test_no_smith_form_on_the_prym_path(self):
        # no module of the package has a Smith normal form to call (the AST
        # guard in test_exactness.py keeps it out of the source)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tropcover"]
        assert len(modules) > 1
        assert not [m.__name__ for m in modules if hasattr(m, "snf") or hasattr(m, "SNF")]
        assert _loaded_prym("bigonal_tower.json").type == (1, 2)
        data = _prym_of(random_tower(1, n=3, pi_free=True, tree_size=(25, 25)))
        assert data.rank == 15 and data.type == (2,) * 15

    def test_fewer_eliminations_than_the_snf_route(self, monkeypatch):
        # the Smith-form route ran 39 Bareiss eliminations on each tower
        from tropcover import intlinalg
        calls = []
        bareiss = intlinalg._bareiss

        def counted(*args, **kw):
            calls.append(1)
            return bareiss(*args, **kw)
        monkeypatch.setattr(intlinalg, "_bareiss", counted)
        for kw in (dict(n=3, pi_free=True), dict(n=2, pi_free=False)):
            gen = random_tower(1, tree_size=(25, 25), **kw)
            calls.clear()
            _prym_of(gen)
            assert len(calls) < 39

    SPOILS = {
        # alpha- replaced by alpha+: T is singular
        "alpha": lambda sb: dataclasses.replace(sb, alpha_minus=sb.alpha_plus),
        # the first beta doubled: T is nonsingular, but T^-1 is not integral
        "beta": lambda sb: dataclasses.replace(sb, beta=(chain_scale(2, sb.beta[0]),) + sb.beta[1:]),
    }

    @pytest.mark.parametrize("checked", [True, False], ids=["verify", "inverse"])
    @pytest.mark.parametrize("name, spoil, verify_message", [
        ("trigonal_tower.json", "alpha", "alpha pair"),
        ("bigonal_tower.json", "alpha", "alpha pair"),
        ("bigonal_tower.json", "beta", "not unimodular")])
    def test_spoiled_basis_is_rejected(self, monkeypatch, name, spoil, verify_message, checked):
        # SymmetricBasis.verify rejects a spoiled basis, and prym rejects a
        # basis that comes without the integral inverse verify computes
        from tropcover import jacprym

        def spoiled(build):
            return lambda cover: self.SPOILS[spoil](build(cover))
        if checked:
            monkeypatch.setattr(jacprym, "_adapted_basis", spoiled(jacprym._adapted_basis))
        else:
            monkeypatch.setattr(jacprym, "symmetric_basis", spoiled(jacprym.symmetric_basis))
        with pytest.raises(AssertionError, match=verify_message if checked else "integral inverse"):
            _loaded_prym(name)

    def test_type_law_is_checked(self, monkeypatch):
        # dilation counts that disagree with the adapted basis trip the
        # entry-by-entry comparison of the polarization with diag(1^B, 2^A)
        from tropcover import jacprym
        count = jacprym.dilation_data
        monkeypatch.setattr(jacprym, "dilation_data",
                            lambda cover: dataclasses.replace(count(cover), A=count(cover).A + 1,
                                                              B=count(cover).B - 1))
        with pytest.raises(AssertionError, match="!= diag"):
            _loaded_prym("bigonal_tower.json")


class TestDualAgainstSnfRoute:
    # `dual_polarization` reads the dual off the adapted form diag(1^B, 2^A)
    # that `prym` builds; the Smith-form dual it replaced must give the same
    # dual pairing and matrix
    @staticmethod
    def _agree(data):
        from oracles import dual_polarization_by_snf
        t = data.type
        for multiplier in (t[0] * t[-1] if t else 1, 2):
            new = dual_polarization(data.polarization, multiplier)
            old = dual_polarization_by_snf(data.polarization, multiplier)
            assert fraction_pairing(new.torus) == fraction_pairing(old.torus)
            assert new.torus == old.torus
            assert new.matrix == old.matrix

    def test_gallery_references(self):
        for ref in (bigonal_reference(), bigonal_output_reference()):
            self._agree(_prym_of(ref))

    def test_shipped_file(self):
        self._agree(_loaded_prym("bigonal_tower.json"))

    def test_seeded_dilated_towers(self):
        ranks = set()
        for seed in range(50):
            data = _prym_of(random_tower(seed, n=2, pi_free=False))
            ranks.add(data.rank)
            self._agree(data)
        assert len(ranks) > 3


def _loaded_metrics(name):
    from tropcover.towerio import load
    loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data", name))
    tower = loaded.tower()
    mid, top = tower_metrics(tower, loaded.base_metric)
    return tower, mid, top


def _counting_bareiss(monkeypatch):
    from tropcover import intlinalg
    calls = []
    bareiss = intlinalg._bareiss

    def counted(*args, **kw):
        calls.append(1)
        return bareiss(*args, **kw)
    monkeypatch.setattr(intlinalg, "_bareiss", counted)
    return calls


class TestCertifiedJacobian:
    # `jacobian` builds B^T diag(len) B in integers and proves it positive
    # definite from the fundamental-cycle structure; the old route paired
    # every two cycles in fractions, then eliminated the Gram twice
    @staticmethod
    def _metrics():
        from oracles import augment_smooth
        from tropcover.ngonal import trigonal
        for n in (2, 3):
            for seed in range(8):
                gen = random_tower(seed, n=n, pi_free=True if n == 3 else None,
                                   tree_size=(4, 12))
                mid, top = tower_metrics(gen.tower, gen.base_metric)
                metrics = [top, mid]
                if n == 3:
                    metrics.append(induce_metric(trigonal(gen.tower).quartic, gen.base_metric))
                for metric in metrics:
                    yield metric
                    yield augment_smooth(metric)

    def test_integer_gram_equals_the_pairing_table(self):
        from oracles import jacobian_gram_by_pairing_table
        from tropcover.metrics import is_inf
        halved = infinite = checked = 0
        for metric in self._metrics():
            if not is_connected(metric.graph):
                continue
            checked += 1
            jac = jacobian(metric)
            assert fraction_pairing(jac.polarization.torus) == jacobian_gram_by_pairing_table(metric)
            assert jac.polarization.gram() == jac.polarization.torus.form
            lengths = metric.length.values()
            halved += any(not is_inf(x) and Fraction(x).denominator == 2 for x in lengths)
            infinite += any(is_inf(x) for x in lengths)
        assert checked > 60 and halved and infinite

    def test_no_elimination_in_jacobian_and_few_in_prym(self, monkeypatch):
        # prym eliminates nothing: one sparse inverse each of T and the mid
        # basis proves both unimodular and gives T^-1, K^T G K == diag(type) R^T G K
        # proves the Prym pairing definite, and the shared and carried
        # verdicts cover the rest
        calls = _counting_bareiss(monkeypatch)
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            tower, mid, top = _loaded_metrics(name)
            calls.clear()
            jacobian(top)
            jacobian(mid)
            assert calls == []
            prym(tower.pi, mid)
            assert calls == []

    def _spoiled(self, monkeypatch, spoil):
        from tropcover import jacprym
        build = jacprym.h1_basis

        def spoiled(graph):
            basis = build(graph)
            return dataclasses.replace(basis, cycles=spoil(basis.cycles))
        monkeypatch.setattr(jacprym, "h1_basis", spoiled)
        return _loaded_metrics("trigonal_tower.json")[2]

    def test_doubled_own_coefficient_is_refused(self, monkeypatch):
        top = self._spoiled(monkeypatch, lambda cycles: (chain_scale(2, cycles[0]),) + cycles[1:])
        with pytest.raises(AssertionError, match="unit vector"):
            jacobian(top)

    def test_stray_complement_entry_is_refused(self, monkeypatch):
        from tropcover.jacprym import chain_sum
        top = self._spoiled(monkeypatch,
                            lambda cycles: (chain_sum(cycles[0], cycles[1]),) + cycles[1:])
        with pytest.raises(AssertionError, match="unit vector"):
            jacobian(top)

    def test_missing_cycle_is_refused(self, monkeypatch):
        top = self._spoiled(monkeypatch, lambda cycles: cycles[1:])
        with pytest.raises(AssertionError, match="one cycle per complement edge"):
            jacobian(top)

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1)], ids=["zero", "negative"])
    def test_non_positive_cycle_length_is_refused(self, bad):
        g, keys = Graph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
        metric = MetricGraph(g, {keys[0]: bad, keys[1]: Fraction(2), keys[2]: Fraction(3)})
        with pytest.raises(GraphError, match="not > 0"):
            jacobian(metric)
        loop = Graph((0,), {0: 0, 1: 0}, {0: 1, 1: 0})
        with pytest.raises(GraphError, match="not > 0"):
            jacobian(MetricGraph(loop, {0: bad}))

    def test_norm_hom_with_one_push_entry_off_by_one_is_rejected(self):
        from oracles import adjoint_by_fractions
        from tropcover.tori import TorusError, TorusHom
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            tower, mid, top = _loaded_metrics(name)
            nm = norm_hom(tower.pi, mid)
            assert adjoint_by_fractions(nm.source, nm.target, nm.pull, nm.push)
            for i, row in enumerate(nm.push):
                for j in range(len(row)):
                    bad = [list(r) for r in nm.push]
                    bad[i][j] += 1
                    assert not adjoint_by_fractions(nm.source, nm.target, nm.pull, bad)
                    with pytest.raises(TorusError, match="adjoint"):
                        TorusHom(nm.source, nm.target, nm.pull, bad)


class TestOneCycleBasisPerGraph:
    # `h1_basis` is kept on the graph object: transfer_maps, both Jacobians
    # of norm_hom and SymmetricBasis.verify share it, and prym takes the
    # coordinates and T^-1 that verify computed
    @staticmethod
    def _towers():
        for name in ("trigonal_tower.json", "bigonal_tower.json"):
            yield _loaded_metrics(name)
        for n in (2, 3):
            for seed in range(4):
                gen = random_tower(seed, n=n, pi_free=True if n == 3 else None)
                if is_connected(gen.tower.top):
                    yield (gen.tower, *tower_metrics(gen.tower, gen.base_metric))

    def test_one_spanning_tree_per_graph(self, monkeypatch):
        from tropcover import jacprym
        trees = []
        build = jacprym.spanning_tree

        def spied(graph):
            trees.append(graph)
            return build(graph)
        monkeypatch.setattr(jacprym, "spanning_tree", spied)
        free = dilated = 0
        for tower, mid, top in self._towers():
            trees.clear()
            prym(tower.pi, mid)
            ids = [id(g) for g in trees]
            assert len(ids) == len(set(ids))
            assert sum(g is tower.pi.source for g in trees) == 1
            assert sum(g is tower.pi.target for g in trees) == 1
            assert len(trees) == 2
            if tower.pi.is_free():
                free += 1
            else:
                dilated += 1
        assert free and dilated

    def test_prym_reuses_the_coordinates_of_verify(self, monkeypatch):
        # once symmetric_basis (and so verify) has returned, prym computes
        # no cycle coordinates and inverts nothing: T and T^-1 are verify's,
        # which inverts T and the mid basis, one sparse inverse each
        from tropcover import intlinalg, jacprym
        calls = []
        coordinates, invert, build = (jacprym.CycleBasis.coordinates, intlinalg.unimodular_inverse,
                                      jacprym.symmetric_basis)

        def counted(name, fn):
            def wrapper(*args):
                result = fn(*args)
                calls.append(name)  # on return
                return result
            return wrapper
        monkeypatch.setattr(jacprym.CycleBasis, "coordinates", counted("coordinates", coordinates))
        monkeypatch.setattr(intlinalg, "unimodular_inverse", counted("inverse", invert))
        monkeypatch.setattr(jacprym, "symmetric_basis", counted("basis", build))
        for tower, mid, top in self._towers():
            calls.clear()
            prym(tower.pi, mid)
            assert calls.count("basis") == 1 and calls.count("inverse") == 2
            assert calls[-3:] == ["inverse", "inverse", "basis"]


class TestTheoremCheckEliminations:
    # polarized_isomorphic enters the isometry search with the definiteness
    # its Polarizations proved; the search reads det Q off the LLL
    # reduction, and certifies each LLL transform by H H^-1 = I.  Before,
    # the checks ran 15 and 18 eliminations.  The trigonal check is decided
    # by its witness and runs none
    @pytest.mark.parametrize("name, check, bound", [
        ("trigonal_tower.json", check_trigonal_prym, 0),
        ("bigonal_tower.json", check_bigonal_duality, 5)])
    def test_bareiss_calls(self, monkeypatch, name, check, bound):
        from tropcover.towerio import load
        loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data", name))
        calls = _counting_bareiss(monkeypatch)
        result = check(loaded.tower(), loaded.base_metric)
        assert result.passed
        if check is check_trigonal_prym:
            assert result.details["decided_by"] == "witness"
        assert len(calls) <= bound


class TestPrymWithoutElimination:
    # one sparse inverse each proves T and the mid basis unimodular, and
    # the first gives T^-1; K^T G K == diag(type) R^T G K proves the
    # Prym pairing definite; the dense integral inverse is the oracle
    @pytest.mark.parametrize("size, rank", [(25, 15), (50, 35), (100, 73)])
    def test_t_inverse_matches_the_dense_oracle(self, size, rank):
        from oracles import integral_inverse
        from tropcover.intlinalg import _columns_to_matrix, unimodular_inverse
        basis = symmetric_basis(random_tower(1, n=3, pi_free=True, tree_size=(size, size)).tower.pi)
        top, cols, t_inv = basis._top_coordinates
        assert len(basis.beta) + len(basis.alpha_plus) == rank
        t = _columns_to_matrix(cols, top.rank)
        assert t_inv == unimodular_inverse(t) == integral_inverse(t)

    def test_no_elimination_at_rank_73(self, monkeypatch):
        gen = random_tower(1, n=3, pi_free=True, tree_size=(100, 100))
        mid, top = tower_metrics(gen.tower, gen.base_metric)
        calls = _counting_bareiss(monkeypatch)
        assert prym(gen.tower.pi, mid).rank == 73
        assert calls == []

    @pytest.mark.parametrize("name", ["trigonal_tower.json", "bigonal_tower.json"])
    def test_non_unimodular_mid_basis_is_refused(self, monkeypatch, name):
        # mid coordinates doubled: T is untouched, but the mid basis matrix
        # has determinant +-2^rank, so its inversion fails
        from tropcover import jacprym
        cover = _loaded_metrics(name)[0].pi
        assert h1_basis(cover.target).rank
        read = jacprym.CycleBasis.coordinates

        def doubled(basis, chain):
            coords = read(basis, chain)
            return tuple(2 * x for x in coords) if basis.graph is cover.target else coords
        monkeypatch.setattr(jacprym.CycleBasis, "coordinates", doubled)
        with pytest.raises(AssertionError, match="top or mid basis is not unimodular"):
            symmetric_basis(cover)

    @pytest.mark.parametrize("name", ["trigonal_tower.json", "bigonal_tower.json"])
    def test_flipped_kernel_column_trips_the_gram_certificate(self, monkeypatch, name):
        # the first alpha+ - alpha- column of K negated with its projection
        # row: proj K is still diag(type), but the pairing R^T G K is no
        # longer positive definite, and K^T G K != diag(type) R^T G K
        from oracles import torus_verdict_by_minors
        from tropcover import jacprym
        tower, mid, top = _loaded_metrics(name)
        data = prym(tower.pi, mid)
        nb, na = data.dilation.B, data.dilation.A
        assert na and data.rank > 1
        flipped = [tuple(-x if j == nb else x for j, x in enumerate(row))
                   for row in fraction_pairing(data.polarization.torus)]
        form = [[a * x for x in row] for a, row in zip(data.type, flipped)]
        assert torus_verdict_by_minors(form) == (True, False)
        minus, calls = jacprym._minus, []

        def spoiled(u, v):
            calls.append(1)  # na kernel columns, then na projection rows
            return minus(v, u) if len(calls) in (1, na + 1) else minus(u, v)
        monkeypatch.setattr(jacprym, "_minus", spoiled)
        with pytest.raises(AssertionError, match=r"K\^T G K"):
            prym(tower.pi, mid)


class TestTransferMapsReadClosedImages:
    # push, pull and involution images are closed by the checks the double
    # cover passed when it was built, so their coordinates are read without
    # a boundary; any other chain keeps the check
    def test_no_boundary_and_the_checked_coordinates(self, monkeypatch):
        from tropcover import jacprym
        calls = []
        boundary = jacprym.chain_boundary

        def counted(graph, chain):
            calls.append(1)
            return boundary(graph, chain)
        towers = [_loaded_metrics(name)[0] for name in ("trigonal_tower.json", "bigonal_tower.json")]
        towers += [random_tower(seed, n=2, pi_free=False).tower for seed in range(6)]
        for tower in towers:
            cover = tower.pi
            monkeypatch.setattr(jacprym, "chain_boundary", counted)
            maps = transfer_maps(cover)
            assert calls == []
            monkeypatch.setattr(jacprym, "chain_boundary", boundary)
            sb, tb = maps.source_basis, maps.target_basis
            assert maps.pushforward == _columns(tb, [push_chain(cover, c) for c in sb.cycles])
            assert maps.pullback == _columns(sb, [pull_chain(cover, c) for c in tb.cycles])
            assert maps.involution == _columns(sb, [invol_chain(cover, c) for c in sb.cycles])
            with pytest.raises(GraphError, match="non-closed"):
                sb.coordinates({min(sb.tree.tree_keys): 1})

    def test_dilation_subgraphs_match_the_block_scan(self):
        from oracles import _dilation_subgraphs, dilation_subgraphs_by_block_scan
        several = 0
        for seed in range(40):
            cover = random_tower(seed, n=2, pi_free=False, tree_size=(4, 12)).tower.pi
            new, old = _dilation_subgraphs(cover), dilation_subgraphs_by_block_scan(cover)
            assert [(g.vertices, list(g.root.items()), list(g.partner.items())) for g in new] == \
                [(g.vertices, list(g.root.items()), list(g.partner.items())) for g in old]
            several += len(new) > 1 and any(g.edge_keys() for g in new)
        assert several > 5


def _columns(basis, chains):
    """Matrix of the checked coordinates of closed chains, one column each."""
    from tropcover.intlinalg import _columns_to_matrix
    return _columns_to_matrix([basis.coordinates(c) for c in chains], basis.rank)


def _search_polarizations(result):
    """The two principal polarizations the trigonal check compares, rebuilt
    from the Grams it returns."""
    from oracles import torus_by_elimination
    from tropcover.tori import Polarization
    k = len(result.details["prym_gram"][1])
    return tuple(Polarization(torus_by_elimination(result.details[name]), identity(k))
                 for name in ("prym_gram", "jacobian_gram"))


def _trigonal_towers(sizes=((2, 9), (9, 16)), seeds=range(60)):
    """(label, tower, base metric): data/trigonal_tower.json, the gallery
    references and the seeded free degree-3 towers."""
    from tropcover.towerio import load
    loaded = load(os.path.join(os.path.dirname(__file__), os.pardir, "data",
                               "trigonal_tower.json"))
    out = [("trigonal_tower.json", loaded.tower(), loaded.base_metric)]
    for lengths in ((1, 1, 1, 1, 1), (1, 2, 3, 4, 5)):
        ref = trigonal_reference(lengths)
        out.append((f"reference {lengths}", ref.tower, ref.base_metric))
    for size in sizes:
        for seed in seeds:
            gen = random_tower(seed, n=3, pi_free=True, tree_size=size)
            out.append((f"seed {seed} {size}", gen.tower, gen.base_metric))
    return out


class TestTrigonalWitness:
    # check_trigonal_prym builds its witness from the correspondence Phi of
    # the construction and certifies it; the isometry search is the
    # fallback, and here the oracle
    @pytest.mark.parametrize("sizes, rank_set", [
        ((), {2}), (((2, 9),), {0, 1, 2, 3, 4, 5, 6, 7, 11}),
        (((9, 16),), set(range(1, 13)))], ids=["shipped", "seeds-2-9", "seeds-9-16"])
    def test_witness_decides_and_the_search_agrees(self, sizes, rank_set):
        from tropcover.tori import certify_isomorphism
        ranks = set()
        for label, tower, metric in _trigonal_towers(sizes):
            result = check_trigonal_prym(tower, metric)
            assert result.passed and result.details["decided_by"] == "witness", label
            pols = _search_polarizations(result)
            assert polarized_isomorphic(*pols) is not None, label
            # the witness passes the re-checks of a search result
            assert certify_isomorphism(*pols, *result.witness) == result.witness
            ranks.add(len(result.details["prym_gram"][1]))
        assert ranks == rank_set

    @staticmethod
    def _spoiled_trigonal(tower):
        """trigonal(tower) with plus and minus swapped on both halves of one
        quartic edge that closes a cycle and whose multisection changes."""
        from tropcover.ngonal import trigonal
        tri = trigonal(tower)
        info = dict(tri.construction.half_edge_info)
        section = {new: h for h, new in tri.half_edge_ids.items()}
        partner = tri.construction.cover_to_base.source.partner
        for k in h1_basis(tri.quartic.source).tree.complement_keys:
            h = section[k]
            if any(plus != minus for _x, plus, minus in info[h][1]):
                for half in (h, partner[h]):
                    point, ms = info[half]
                    info[half] = (point, tuple((x, minus, plus) for x, plus, minus in ms))
                break
        else:
            raise AssertionError("no quartic cycle edge to spoil")
        cons = dataclasses.replace(tri.construction, half_edge_info=info)
        return dataclasses.replace(tri, construction=cons)

    def test_spoiled_correspondence_falls_back_to_the_search(self, monkeypatch):
        from tropcover import jacprym
        monkeypatch.setattr(jacprym, "trigonal", self._spoiled_trigonal)
        for label, tower, metric in _trigonal_towers(((9, 16),), range(10)):
            result = check_trigonal_prym(tower, metric)
            assert result.passed and result.details["decided_by"] == "search", label

    def test_doubled_quartic_metric_fails_after_the_search(self, monkeypatch):
        from tropcover import jacprym

        def doubled_quartic(f, metric):
            out = induce_metric(f, metric)
            if f.global_degree() != 4:
                return out
            return MetricGraph(out.graph, {k: 2 * x for k, x in out.length.items()})
        monkeypatch.setattr(jacprym, "induce_metric", doubled_quartic)
        for label, tower, metric in _trigonal_towers(((9, 16),), range(10)):
            result = check_trigonal_prym(tower, metric)
            assert not result.passed and result.witness is None, label
            assert result.details["decided_by"] == "search", label

    def test_image_off_the_kernel_lattice_falls_back_to_the_search(self, monkeypatch):
        # the pullback of a mid cycle added to every image of Phi: it is
        # invariant, so proj kills it and c, with c^T P c == G_X, is unchanged;
        # only K c == Phi refuses the images
        from tropcover import jacprym
        read, induced = jacprym.CycleBasis.coordinates, []

        def mark_quartic(f, metric):  # the quartic metric comes after prym
            induced.append(f.global_degree())
            return induce_metric(f, metric)

        for label, tower, metric in _trigonal_towers(((9, 16),), range(5)):
            extra = pull_chain(tower.pi, h1_basis(tower.mid).cycles[0])

            def shifted(basis, chain):
                if 4 in induced and basis.graph is tower.top:
                    chain = dict(chain)
                    for k, c in extra.items():
                        chain[k] = chain.get(k, 0) + c
                return read(basis, chain)
            induced.clear()
            monkeypatch.setattr(jacprym, "induce_metric", mark_quartic)
            monkeypatch.setattr(jacprym.CycleBasis, "coordinates", shifted)
            result = check_trigonal_prym(tower, metric)
            assert result.passed and result.details["decided_by"] == "search", label
