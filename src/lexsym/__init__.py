"""Symmetry analysis of lexicographic graph products.

Stable pair colourings, a brute-force automorphism oracle, wreath-condition
analysis, and symbolic (free) wreath-product expressions for small graphs.
"""

from .graphs import (Graph, TwinPartition, complement, connected_components,
                     complete_graph, cycle_graph, disjoint_union, empty_graph,
                     lex_product, path_graph, star_graph, twin_partition)
from .formats import decode_graph6, parse_graph, write_graph
from .wl import (PairColouring, RefinementTrace, first_round, refine_step,
                 refinements, stable_colouring)
from .groups import (PermGroup, automorphisms, aut_order, orbits, orbitals,
                     is_isomorphic, is_vertex_transitive, stabiliser_chain, wreath_order)
from .analysis import (AnalysisReport, ConditionReport, FactorTable, SeparationReport,
                       analyze_product, decide, sabidussi_conditions,
                       verify_wl_separation, check_first_iteration_consequences)
from .decompose import (DecompositionReport, split, qut_disjoint_union,
                        analyze_vt_product, qut_expression)
from .expressions import (SPlus, QutLeaf, FreeWreath, FreeProd, Indeterminate,
                          serialize, serialize_classical, simplify, classical_order)

__all__ = [name for name in dir() if not name.startswith("_")]
