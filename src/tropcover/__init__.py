"""Exact constructions on harmonic covers of metric graphs.

Half-edge graphs and harmonic morphisms, the degree-n section cover of
a double cover of an n-gonal graph (n = 2, 3, 4) with its inverse,
exact integer/rational linear algebra, integral tori with polarizations,
tropical Jacobians and norm-kernel (Prym) tori, and mechanical checks
of the duality and isomorphism theorems relating them.
"""

from .graphs import (DoubleCover, Graph, GraphError,
                     HarmonicMorphism, NonGenericError, PreconditionError,
                     Tower, build_double_cover, compose_harmonic,
                     connected_components, covers_isomorphic_over_base,
                     dilation_data, genus, harmonic_from_edges, is_connected,
                     is_tree, spanning_tree, towers_isomorphic, validate_graph,
                     validate_harmonic)
from .metrics import INF, MetricGraph, induce_metric, is_inf, validate_metric
from .ngonal import (FiberDatum, FiberPart, bigonal, involution_quotient,
                     is_generic_bigonal, is_generic_tetragonal,
                     multisection_degree, multisection_sign, multisections,
                     ngonal_construct, recillas, tetragonal_split,
                     tower_fiber, trigonal)
from .intlinalg import gram_isometries, vectors_with_norm
from .tori import (IntegralTorus, Polarization, TorusHom, dual_polarization,
                   dual_type, polarized_isomorphic)
from .jacprym import (CheckResult, PrymData, SymmetricBasis, check_bigonal_duality,
                      check_trigonal_prym, cycle_pairing, h1_basis, jacobian,
                      norm_hom, pairing_table, prym, symmetric_basis,
                      transfer_maps)
from .randgen import (GenerationError, random_tetragonal_curve, random_tower)

__version__ = "0.1.0"
