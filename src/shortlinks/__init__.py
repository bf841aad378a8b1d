"""Simplicial complexes with short links, zones, and hypercube embeddings."""

from .errors import FormatError, GuardExceeded
from .metric import (CutDecomposition, GonalVector, Graph, PartialCubeLabeling,
                     a_m, complete_graph, complete_minus_cycle,
                     complete_minus_matching, cut_cone_decompose, cycle_graph,
                     embedding_from_cuts, find_scaled_embedding,
                     hypercube_graph, is_isometric_cycle, kgonal_violations,
                     partial_cube)
from .partitions import (KpSummary, build_kp, classify, enumerate_partitions,
                         kp_summary, product_dual)
from .quadrillage import (Quadrillage, Zone, cube, dual_cuboctahedron,
                          embeddable_by_zones, grid, quadrillage_type, torus,
                          zone_band, zone_is_convex, zone_is_simple, zones)
from .simplicial import (ClosednessReport, Face, LinkReport, Partition,
                         SimplicialComplex, characteristic_partition,
                         complex_type, euler_characteristic, faces_of_dim,
                         is_closed_pseudomanifold, link_of_face, make_face,
                         skeleton)
from .symmetry import (CoxeterPresentation, Permutation, are_isomorphic,
                       automorphism_count, automorphisms,
                       coxeter_order_bruteforce, coxeter_presentation, orbits)

__version__ = "0.1.0"

__all__ = [
    "ClosednessReport", "CoxeterPresentation", "CutDecomposition", "Face",
    "FormatError", "GonalVector", "Graph", "GuardExceeded", "KpSummary",
    "LinkReport", "PartialCubeLabeling", "Partition", "Permutation",
    "Quadrillage", "SimplicialComplex", "Zone", "a_m", "are_isomorphic",
    "automorphism_count", "automorphisms", "build_kp",
    "characteristic_partition", "classify", "complete_graph",
    "complete_minus_cycle", "complete_minus_matching", "complex_type",
    "coxeter_order_bruteforce", "coxeter_presentation", "cube",
    "cut_cone_decompose", "cycle_graph", "dual_cuboctahedron",
    "embeddable_by_zones", "embedding_from_cuts", "enumerate_partitions",
    "euler_characteristic", "faces_of_dim", "find_scaled_embedding", "grid",
    "hypercube_graph", "is_closed_pseudomanifold", "is_isometric_cycle",
    "kgonal_violations", "kp_summary", "link_of_face", "make_face",
    "orbits", "partial_cube", "product_dual",
    "quadrillage_type", "skeleton", "torus", "zone_band", "zone_is_convex",
    "zone_is_simple", "zones",
]
