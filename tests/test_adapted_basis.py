"""The single adapted-basis construction against the builders it replaced.

`jacprym.symmetric_basis` reads every top chain off one spanning tree of
the source, the lift of a spanning tree of the target that holds a
spanning tree of every dilation component.  The free and collapsed-model
builders it replaced are kept in `tests/oracles.py`.  On a free cover the
two give the same basis; on a dilated cover the bases differ, but both
must be verified, have the same counts, span the same norm kernel and
give isomorphic Pryms.  The `prym` and `check` outputs are pinned by
sha256: the free ones as the replaced builders printed them, the dilated
ones as the single construction prints them.  Each self-check of
`SymmetricBasis.verify` is made to fire by a spoiled basis or chain map.
"""

import ast
import contextlib
import dataclasses
import hashlib
import inspect
import io
import os
import re
import textwrap
from fractions import Fraction

import pytest

from gallery import tower_metrics
from oracles import symmetric_basis_by_model
from test_acceptance import _unimodular_change
from tropcover import jacprym
from tropcover.cli import main
from tropcover.jacprym import chain_scale, prym, symmetric_basis
from tropcover.randgen import random_tower
from tropcover.tori import polarized_isomorphic
from tropcover.towerio import load, save, tower_to_doc

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def dilated_towers():
    """(tower, base metric) of 150 seeded dilated covers and the shipped one."""
    for n in (2, 3, 4):
        for p in (Fraction(1, 2), Fraction(4, 5)):
            for seed in range(25):
                gen = random_tower(seed, n=n, pi_free=False, dilation_probability=p)
                yield gen.tower, gen.base_metric
    loaded = load(os.path.join(DATA, "bigonal_tower.json"))
    yield loaded.tower(), loaded.base_metric


def counts(basis):
    return len(basis.alpha_plus), len(basis.beta), len(basis.gamma_top)


def test_dilated_bases_agree_with_the_collapsed_model(monkeypatch):
    compared = 0
    for tower, base_metric in dilated_towers():
        mid, top = tower_metrics(tower, base_metric)
        cover = tower.pi
        new, old = symmetric_basis(cover), symmetric_basis_by_model(cover)
        assert new.verify() and old.verify()
        assert counts(new) == counts(old)
        data = prym(cover, mid)
        with monkeypatch.context() as patch:
            patch.setattr(jacprym, "symmetric_basis", symmetric_basis_by_model)
            data_old = prym(cover, mid)
        assert (data.rank, data.type) == (data_old.rank, data_old.type)
        if data.rank:
            assert _unimodular_change(data_old.kernel.inclusion.push,
                                      data.kernel.inclusion.push) is not None
        if data.rank <= 7:
            assert polarized_isomorphic(data_old.polarization, data.polarization) is not None
            assert polarized_isomorphic(data_old.principal.polarized,
                                        data.principal.polarized) is not None
            compared += 1
    assert compared > 100


def test_free_bases_are_the_replaced_ones():
    for seed in range(20):
        cover = random_tower(seed, n=3, pi_free=True).tower.pi
        new, old = symmetric_basis(cover), symmetric_basis_by_model(cover)
        assert new == old


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


# (n, pi_free, seed, tree size, dilation probability) of the seeded towers
# whose outputs are pinned, Prym ranks 5-15
SEEDED = {"free-3-1": (3, True, 1, 12, Fraction(1, 3)), "free-3-2": (3, True, 2, 16, Fraction(1, 3)),
          "free-3-3": (3, True, 3, 16, Fraction(1, 3)),
          "dilated-2-1": (2, False, 1, 30, Fraction(4, 5)),
          "dilated-2-2": (2, False, 2, 20, Fraction(1, 2)),
          "dilated-3-2": (3, False, 2, 12, Fraction(1, 2)),
          "dilated-4-1": (4, False, 1, 8, Fraction(1, 2))}


def output_digests(workdir) -> dict:
    """sha256 of the `prym` and `check` stdout on data/ and on seeded towers."""
    runs = {}
    for name in ("trigonal_tower.json", "bigonal_tower.json"):
        path = os.path.join(DATA, name)
        runs[f"prym {name}"] = ["prym", path]
        theorem = name.split("_")[0]
        runs[f"check {name}"] = ["check", path, "--theorem", theorem]
    for label, (n, pi_free, seed, size, p) in SEEDED.items():
        gen = random_tower(seed, n=n, pi_free=pi_free, tree_size=(size, size),
                           dilation_probability=p)
        path = os.path.join(str(workdir), label + ".json")
        save(path, tower_to_doc(gen.tower, gen.base_metric, meta={"seed": seed}))
        runs[f"prym {label}"] = ["prym", path]
        if n == 3 and pi_free:
            runs[f"check {label}"] = ["check", path, "--theorem", "trigonal"]
    return {key: hashlib.sha256(_stdout(argv).encode()).hexdigest() for key, argv in runs.items()}


# free covers: recorded with the free builder the single construction
# replaced; dilated covers: recorded with the single construction.  The
# `check trigonal_tower.json` and `check free-3-3` pins were re-recorded
# when the trigonal check took its witness from the correspondence of the
# construction: only the witness lines changed, to another isometry of the
# same two Grams than the search's first one
OUTPUT_SHA256 = {
    "prym trigonal_tower.json":
        "0ac5aef3ac43cdbb3eccd71ab7fa6061fcdabbeed4870ea08454914025dbedec",
    "check trigonal_tower.json":
        "6d59fed84678b3cd74fbd8c2ee2e556e6c349763d7bae6e48e0011e058858ccd",
    "prym bigonal_tower.json":
        "d9adc02503c7251c765b266d6a5e4036e175ad409279c21a051e0adcd3db30d3",
    "check bigonal_tower.json":
        "0f5c58fa6fe6f7237d846f2265ed9c9346e54f9166051f3073643555016dc9e3",
    "prym free-3-1":
        "cf2fc777673b6a9b319b3baf4b2464f49bc49d3dc13646175b1c8c25522b506a",
    "check free-3-1":
        "681c7725de6a9f51ccbf0f4fb2bcfd55dc59a2959ff000d74c0ed4159bb9a90c",
    "prym free-3-2":
        "a7db2e2e05b9dff6d293e7e4919d8fd91383c869deac74ea711b6cbf41abf3d1",
    "check free-3-2":
        "499d92286cc3e42610635ae6bedfe80bfe3846f558dd089e2d217db8b82fbb2a",
    "prym free-3-3":
        "51cb9f4af59979e9f5539c84fc3edac42c034c9f70e6422a81a2b74fed4cef57",
    "check free-3-3":
        "1d9a17da7528a3d19d24e7ed5ef15740b491a9a3a0dce8de3b0eb7932369db64",
    "prym dilated-2-1":
        "0da8652c2f7afefb08f423766c1ca92e3a9a2c28726354ed9b14a323175415b4",
    "prym dilated-2-2":
        "d99a1d199af9743ec05dffba96a86ea2e0c0a69b6e4be9c0d358a6d0ece7ff23",
    "prym dilated-3-2":
        "e95949f99a5dc6b73b3c8bd26b6625c53e0c511b86cdea28ef7dfcf71a29b489",
    "prym dilated-4-1":
        "f1d81db33aed6144d9071847e32a52158ee5500b605c7d04f5e3fdc5900b0eb9",
}


def test_prym_and_check_print_the_pinned_outputs(tmp_path):
    assert output_digests(tmp_path) == OUTPUT_SHA256


def _free_cover():
    """The shipped trigonal tower's double cover: two alpha pairs and a gamma."""
    return load(os.path.join(DATA, "trigonal_tower.json")).tower().pi


def _dilated_cover():
    """A dilated double cover with an alpha pair, a beta and a gamma."""
    return random_tower(25, n=2, pi_free=False, dilation_probability=Fraction(4, 5)).tower.pi


def _verify_spoiled(monkeypatch, cover, spoil_basis=None, chain_map=None, spoil_map=None):
    """symmetric_basis(cover) on the basis `_adapted_basis` builds, with the
    fields spoil_basis(basis) gives replaced, and with jacprym.<chain_map>
    replaced by spoil_map(basis, the map, cover, chain)."""
    basis = jacprym._adapted_basis(cover)
    if spoil_basis:
        basis = dataclasses.replace(basis, **spoil_basis(basis))
    monkeypatch.setattr(jacprym, "_adapted_basis", lambda c: basis)
    if chain_map:
        original = getattr(jacprym, chain_map)
        monkeypatch.setattr(jacprym, chain_map,
                            lambda cov, chain: spoil_map(basis, original, cov, chain))
    symmetric_basis(cover)


def _scaled(c, name):
    """Basis spoiling: every chain of field `name` times c."""
    return lambda b: {name: tuple(chain_scale(c, x) for x in getattr(b, name))}


def _doubled(basis, chain_map, cov, chain):
    """Map spoiling: every image doubled."""
    return chain_scale(2, chain_map(cov, chain))


def _doubled_on_gamma(basis, chain_map, cov, chain):
    """Map spoiling: the images of the mid gammas doubled, no others."""
    image = chain_map(cov, chain)
    return chain_scale(2, image) if chain in basis.gamma else image


def _nonzero(basis, chain_map, cov, chain):
    """Map spoiling: a zero image becomes the first mid edge once."""
    return chain_map(cov, chain) or {cov.target.edge_keys()[0]: 1}


# self-check message -> the spoiling that makes it raise: one row per
# `raise AssertionError` of `SymmetricBasis.verify` but the unimodularity
# check, which tests/test_jacprym.py spoils
VERIFY_CHECKS = {
    "involution does not swap an alpha pair": lambda mp: _verify_spoiled(
        mp, _free_cover(), lambda b: {"alpha_minus": b.alpha_plus}),
    "an alpha pair does not push to its alpha": lambda mp: _verify_spoiled(
        mp, _free_cover(), _scaled(2, "alpha")),
    "an alpha does not pull back to its pair": lambda mp: _verify_spoiled(
        mp, _free_cover(), chain_map="pull_chain", spoil_map=_doubled),
    "a beta is not anti-invariant": lambda mp: _verify_spoiled(
        mp, _dilated_cover(), lambda b: {"beta": b.gamma_top}),
    "a beta has nonzero pushforward": lambda mp: _verify_spoiled(
        mp, _dilated_cover(), chain_map="push_chain", spoil_map=_nonzero),
    "a gamma lift is not invariant": lambda mp: _verify_spoiled(
        mp, _free_cover(), lambda b: {"gamma_top": b.alpha_plus[:1]}),
    "a free gamma lift does not push to 2 gamma": lambda mp: _verify_spoiled(
        mp, _free_cover(), _scaled(3, "gamma")),
    "a free gamma does not pull back to its lift": lambda mp: _verify_spoiled(
        mp, _free_cover(), chain_map="pull_chain", spoil_map=_doubled_on_gamma),
    "a dilated gamma lift does not push to gamma": lambda mp: _verify_spoiled(
        mp, _dilated_cover(), _scaled(2, "gamma")),
    "a dilated gamma does not pull back to 2 lifts": lambda mp: _verify_spoiled(
        mp, _dilated_cover(), chain_map="pull_chain", spoil_map=_doubled_on_gamma),
    "top basis has the wrong size": lambda mp: _verify_spoiled(
        mp, _dilated_cover(), lambda b: {"beta": ()}),
    "mid basis has the wrong size": lambda mp: _verify_spoiled(
        mp, _free_cover(), lambda b: {"alpha": b.alpha + b.alpha[:1]}),
}


def test_every_verify_check_has_a_spoiling():
    tree = ast.parse(textwrap.dedent(inspect.getsource(jacprym.SymmetricBasis.verify)))
    messages = {node.exc.args[0].value for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "AssertionError"}
    assert messages == set(VERIFY_CHECKS) | {"top or mid basis is not unimodular"}


@pytest.mark.parametrize("message", VERIFY_CHECKS)
def test_a_spoiled_basis_raises_its_check(monkeypatch, message):
    with pytest.raises(AssertionError, match=re.escape(message)):
        VERIFY_CHECKS[message](monkeypatch)
