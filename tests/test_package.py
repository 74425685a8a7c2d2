"""What importing the package loads, and what it exports.

The package resolves its exported names on first use, so a process that
only draws towers and writes them (`randgen`, `towerio`, `graphs`) never
compiles the lattice modules.  Importing `cli` still loads every module:
the benchmark imports it before it times a pass, and its tracer wraps the
functions of modules it finds in `sys.modules`.
"""

import importlib
import os
import subprocess
import sys

import pytest

import tropcover

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
MODULES = ("cli", "graphs", "intlinalg", "jacprym", "metrics", "ngonal", "randgen", "tori",
           "towerio")

# every name the package exports, by home module
EXPORTS = {
    "graphs": ("DoubleCover", "Graph", "GraphError", "HarmonicMorphism", "NonGenericError",
               "PreconditionError", "Tower", "compose_harmonic",
               "connected_components", "covers_isomorphic_over_base", "dilation_data", "genus",
               "is_connected", "is_tree", "spanning_tree",
               "towers_isomorphic", "validate_graph", "validate_harmonic"),
    "metrics": ("INF", "MetricGraph", "induce_metric", "is_inf", "validate_metric"),
    "ngonal": ("FiberDatum", "FiberPart", "bigonal", "involution_quotient", "is_generic_bigonal",
               "is_generic_tetragonal", "ngonal_construct", "recillas", "tetragonal_split",
               "tower_fiber", "trigonal"),
    "intlinalg": ("vectors_with_norm",),
    "tori": ("IntegralTorus", "Polarization", "TorusHom", "dual_polarization", "dual_type",
             "polarized_isomorphic"),
    "jacprym": ("CheckResult", "PrymData", "SymmetricBasis", "check_bigonal_duality",
                "check_trigonal_prym", "h1_basis", "jacobian", "norm_hom",
                "prym", "symmetric_basis", "transfer_maps"),
    "randgen": ("GenerationError", "random_tower"),
}

# exported once, reached only from tests: they live in tests/gallery.py and
# tests/oracles.py now
MOVED_TO_TESTS = ("build_double_cover", "harmonic_from_edges", "multisection_degree",
                  "multisection_sign", "multisections", "gram_isometries", "cycle_pairing",
                  "pairing_table", "random_tetragonal_curve")


def _loaded_after(script):
    """The `tropcover` submodules loaded in a fresh interpreter after running script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    report = ("import sys\n"
              "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules"
              " if m.startswith('tropcover.'))))\n")
    proc = subprocess.run([sys.executable, "-c", script + "\n" + report], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("script, loaded", [
    ("import tropcover", set()),
    ("import tropcover.randgen, tropcover.towerio, tropcover.graphs",
     {"graphs", "metrics", "randgen", "towerio"}),
    # only a generic draw reads fiber profiles, so only it loads ngonal
    ("from tropcover.randgen import random_tower\n"
     "random_tower(1, n=2, pi_free=False, generic=True)",
     {"graphs", "metrics", "ngonal", "randgen"}),
    ("import tropcover.cli", set(MODULES)),
], ids=["package", "set-up", "generic-draw", "cli"])
def test_an_import_loads_only_the_modules_it_runs(script, loaded):
    assert _loaded_after(script) == loaded


def test_every_export_resolves_to_its_home_module():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 54
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"tropcover.{module}")
        for name in exported:
            namespace = {}
            exec(f"from tropcover import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
    assert set(names) <= set(dir(tropcover))
    assert sorted(tropcover.__all__) == sorted(names)


def test_the_names_moved_to_tests_are_not_exported():
    for name in MOVED_TO_TESTS:
        assert not hasattr(tropcover, name), name
        assert name not in dir(tropcover), name


def test_an_unknown_name_is_an_attribute_error_of_the_package():
    with pytest.raises(AttributeError, match="'tropcover' has no attribute 'snf'"):
        tropcover.snf
    # the Smith normal form stays out of reach: test_no_smith_form_on_the_prym_path reads this
    assert not hasattr(tropcover, "snf") and not hasattr(tropcover, "SNF")
    with pytest.raises(ImportError):
        exec("from tropcover import no_such_name", {})


def test_submodules_still_import_from_the_package():
    from tropcover import graphs, intlinalg
    assert graphs is sys.modules["tropcover.graphs"]
    assert intlinalg is sys.modules["tropcover.intlinalg"]
    assert tropcover.graphs is graphs
