"""Certificates for packing and covering non-null cycles in group-labeled
graphs.

The top level re-exports the common entry points; submodules hold the
machinery (labelings, separators, tree decompositions, clique expansions,
the exhaustive oracle, generators, and the driver).
"""

from .certificates import Certificate, certificate_from_json_dict, certificate_to_json_dict
from .cuts import (
    ImportantSeparator,
    enumerate_important_separators,
    find_irrelevant_vertex,
    max_disjoint_paths,
    tw_reduction_set,
)
from .errors import EpkitError, GuardExceeded, InputError, InternalInvariantError
from .generators import escher_wall, generate, odd_cycles, random_instance, subdivided_clique, zm_grid
from .graph import Arc, LabeledGraph, Separation, Walk, build_graph, load_graph
from .groups import Cyclic, GroupElement, Product, Symmetric, make_element
from .labeling import find_non_null_cycle, is_clean, untangle, verify_gfvs
from .oracle import ep_predicate, max_packing, min_gfvs
from .packing import (
    CliqueExpansion,
    clique_branch_irrelevant,
    clique_branch_separation,
    non_null_s_paths_or_hitting_set,
    verify_expansion,
)
from .solver import DriverConfig, solve, strip_null_arcs
from .treedec import (
    TreeDecomposition,
    packing_or_cover_bounded_tw,
    tree_decomposition,
    treewidth_exact,
    verify_packing,
)
from .verify import verify_certificate

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Certificate",
    "CliqueExpansion",
    "Cyclic",
    "DriverConfig",
    "EpkitError",
    "GroupElement",
    "GuardExceeded",
    "ImportantSeparator",
    "InputError",
    "InternalInvariantError",
    "LabeledGraph",
    "Product",
    "Separation",
    "Symmetric",
    "TreeDecomposition",
    "Walk",
    "build_graph",
    "certificate_from_json_dict",
    "certificate_to_json_dict",
    "clique_branch_irrelevant",
    "clique_branch_separation",
    "enumerate_important_separators",
    "ep_predicate",
    "escher_wall",
    "find_irrelevant_vertex",
    "find_non_null_cycle",
    "generate",
    "is_clean",
    "load_graph",
    "make_element",
    "max_disjoint_paths",
    "max_packing",
    "min_gfvs",
    "non_null_s_paths_or_hitting_set",
    "odd_cycles",
    "packing_or_cover_bounded_tw",
    "random_instance",
    "solve",
    "strip_null_arcs",
    "subdivided_clique",
    "tree_decomposition",
    "treewidth_exact",
    "tw_reduction_set",
    "untangle",
    "verify_certificate",
    "verify_expansion",
    "verify_gfvs",
    "verify_packing",
    "zm_grid",
    "__version__",
]
