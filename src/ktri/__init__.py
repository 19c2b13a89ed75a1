"""Exact combinatorics of k-triangulations of a convex polygon.

The package provides the staircase-diagram representation of
k-triangulations with exact crossing tests and brute-force enumeration,
Catalan-determinant counting, the generating trees for k = 2 (both on
triangulations and on pairs of non-crossing Dyck paths, with their common
succession rule) and for arbitrary k, and the explicit bijection between
2-triangulations of an n-gon and pairs of non-crossing Dyck paths of
semilength n-4.
"""

from .bijection import ColoredDiagram, color_diagram, from_paths, to_paths, to_paths_via_tree
from .errors import DomainError, GuardExceeded, StructuralError
from .gentree2 import (
    PairGrowthChoice,
    ROOT_PAIR,
    child_by_label,
    label2,
    label_children,
    pair_child_by_label,
    pair_children,
    pair_label,
    pair_parent,
)
from .gentree_k import (
    GrowthChoiceK,
    anchor_rows,
    children_k,
    corner_k,
    count_tree,
    enumerate_tree,
    parent_k,
    tree_root,
)
from .paths import (
    DyckPath,
    PairEncoding,
    PathTuple,
    all_paths,
    catalan,
    catalan_determinant,
    dominates,
    enumerate_tuples,
)
from .polygon import (
    DiagonalSet,
    KTriangulation,
    PolygonContext,
    check_structure_lemmas,
    complete_to_maximal,
    degree,
    enumerate_brute,
    has_crossing,
    is_cell,
    is_k_triangulation,
    is_t_crossing,
    staircase_cells,
    trivial_diagonals,
    wrap_chord,
)

__version__ = "0.1.0"

__all__ = [
    "ColoredDiagram",
    "DiagonalSet",
    "DomainError",
    "DyckPath",
    "GrowthChoiceK",
    "GuardExceeded",
    "KTriangulation",
    "PairEncoding",
    "PairGrowthChoice",
    "PathTuple",
    "PolygonContext",
    "ROOT_PAIR",
    "StructuralError",
    "all_paths",
    "anchor_rows",
    "catalan",
    "catalan_determinant",
    "check_structure_lemmas",
    "child_by_label",
    "children_k",
    "color_diagram",
    "complete_to_maximal",
    "corner_k",
    "count_tree",
    "degree",
    "dominates",
    "enumerate_brute",
    "enumerate_tree",
    "enumerate_tuples",
    "from_paths",
    "has_crossing",
    "is_cell",
    "is_k_triangulation",
    "is_t_crossing",
    "label2",
    "label_children",
    "pair_child_by_label",
    "pair_children",
    "pair_label",
    "pair_parent",
    "parent_k",
    "staircase_cells",
    "to_paths",
    "to_paths_via_tree",
    "tree_root",
    "trivial_diagonals",
    "wrap_chord",
]
