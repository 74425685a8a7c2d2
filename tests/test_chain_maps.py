"""The chain maps against the loops they replaced.

`jacprym.chain_image` is the one signed edge-key loop: push, pull and the
involution of a double cover, the lift of a dilated cycle, and the
correspondence Phi of the n-gonal construction
(`NgonalConstruction.correspondence`) all move chains through it.  Each
is compared with its replaced loop in `tests/oracles.py` on seeded
towers of degree 2, 3 and 4, free and dilated: on every fundamental
cycle of top and mid, every quartic cycle under Phi, and Phi at every
section-cover half-edge of the trigonal and bigonal constructions.
"""

from fractions import Fraction

import pytest

from oracles import (invol_chain_by_loop, lift_dilated_cycle_by_fiber_edges,
                     phi_by_half_edge_info, pull_chain_by_fiber_edges, push_chain_by_loop)
from tropcover.jacprym import (_lift_dilated_cycle, chain_image, h1_basis, invol_chain,
                               pull_chain, push_chain, symmetric_basis)
from tropcover.ngonal import bigonal, trigonal
from tropcover.randgen import random_tower

SEEDS = range(30)
KINDS = [(n, free) for n in (2, 3, 4) for free in (True, False)]
KIND_IDS = [f"n{n}-{'free' if free else 'dilated'}" for n, free in KINDS]


def _towers(n, free):
    # dilation probability 2/3: dilated covers whose dilated edges close cycles
    return [random_tower(seed, n=n, pi_free=free, tree_size=(4, 12),
                         dilation_probability=Fraction(2, 3)).tower for seed in SEEDS]


def _normal(chain):
    """A chain with its keys sorted and its zeros dropped."""
    return {k: v for k, v in sorted(chain.items()) if v}


@pytest.mark.parametrize("n, free", KINDS, ids=KIND_IDS)
def test_transfer_chain_maps_match_the_loops(n, free):
    images = 0
    for tower in _towers(n, free):
        cover = tower.pi
        for z in h1_basis(tower.top).cycles:
            assert push_chain(cover, z) == push_chain_by_loop(cover, z)
            assert invol_chain(cover, z) == invol_chain_by_loop(cover, z)
            images += 2
        for z in h1_basis(tower.mid).cycles:
            assert pull_chain(cover, z) == pull_chain_by_fiber_edges(cover, z)
            images += 1
    assert images > 300


@pytest.mark.parametrize("n", (2, 3, 4))
def test_dilated_lifts_match_the_loop(n):
    lifted = 0
    for tower in _towers(n, False):
        cover = tower.pi
        for gamma in symmetric_basis(cover).gamma:
            assert _lift_dilated_cycle(cover, gamma) == \
                lift_dilated_cycle_by_fiber_edges(cover, gamma)
            lifted += 1
        for k in sorted(cover.dilated_edge_keys):
            assert _lift_dilated_cycle(cover, {k: -2}) == \
                lift_dilated_cycle_by_fiber_edges(cover, {k: -2})
        free = [k for k in cover.target.edge_keys() if k not in cover.dilated_edge_keys]
        if free:
            for lift in (_lift_dilated_cycle, lift_dilated_cycle_by_fiber_edges):
                with pytest.raises(AssertionError, match="unique preimage"):
                    lift(cover, {free[0]: 1})
    assert lifted >= 10


def _phi_at_every_half_edge(cons, top):
    """Phi at each section-cover half-edge, as a one-edge chain, against the
    oracle; its multiplicities sum to the degree n of the construction."""
    info, lift = cons.half_edge_info, cons.tower.pi.fiber_half_edges
    identity = {h: h for h in info}
    for h in cons.cover_to_base.source.half_edges:
        pairs = cons.correspondence(h)
        assert all(m > 0 for _, m in pairs) and sum(m for _, m in pairs) == cons.n
        assert chain_image(top, {h: 1}, cons.correspondence) == \
            _normal(phi_by_half_edge_info(info, identity, lift, top, {h: 1}))
    return len(info)


def test_trigonal_phi_matches_half_edge_info():
    quartic_cycles = half_edges = 0
    for tower in _towers(3, True):
        tri = trigonal(tower)
        cons, top = tri.construction, tower.top
        section = {new: h for h, new in tri.half_edge_ids.items()}
        info, lift = cons.half_edge_info, tower.pi.fiber_half_edges
        for z in h1_basis(tri.quartic.source).cycles:
            assert chain_image(top, z, lambda k: cons.correspondence(section[k])) == \
                _normal(phi_by_half_edge_info(info, section, lift, top, z))
            quartic_cycles += 1
        half_edges += _phi_at_every_half_edge(cons, top)
    assert quartic_cycles > 100 and half_edges > 3000


@pytest.mark.parametrize("free", (True, False), ids=("free", "dilated"))
def test_bigonal_phi_matches_half_edge_info(free):
    half_edges = 0
    for tower in _towers(2, free):
        result = bigonal(tower)
        # the constructed tower's top curve is the section cover itself
        assert result.tower.top is result.construction.cover_to_base.source
        half_edges += _phi_at_every_half_edge(result.construction, tower.top)
    assert half_edges > 500
