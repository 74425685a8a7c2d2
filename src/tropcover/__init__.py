"""Exact constructions on harmonic covers of metric graphs.

Half-edge graphs and harmonic morphisms, the degree-n section cover of
a double cover of an n-gonal graph (n = 2, 3, 4) with its inverse,
exact integer/rational linear algebra, integral tori with polarizations,
tropical Jacobians and norm-kernel (Prym) tori, and mechanical checks
of the duality and isomorphism theorems relating them.

Each exported name resolves on first use, by importing its home module
only: ``import tropcover.randgen`` loads just the modules ``randgen`` imports.
"""

import importlib

_EXPORTED = {
    "graphs": "DoubleCover Graph GraphError HarmonicMorphism NonGenericError PreconditionError"
              " Tower compose_harmonic connected_components dilation_data"
              " covers_isomorphic_over_base genus is_connected is_tree spanning_tree"
              " towers_isomorphic validate_graph validate_harmonic",
    "metrics": "INF MetricGraph induce_metric is_inf validate_metric",
    "ngonal": "FiberDatum FiberPart bigonal involution_quotient is_generic_bigonal recillas"
              " is_generic_tetragonal ngonal_construct tetragonal_split tower_fiber trigonal",
    "intlinalg": "vectors_with_norm",
    "tori": "IntegralTorus Polarization TorusHom dual_polarization dual_type polarized_isomorphic",
    "jacprym": "CheckResult PrymData SymmetricBasis check_bigonal_duality check_trigonal_prym"
               " h1_basis jacobian norm_hom prym symmetric_basis transfer_maps",
    "randgen": "GenerationError random_tower",
}
_HOME = {name: module for module, names in _EXPORTED.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the home module of an exported name, and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
