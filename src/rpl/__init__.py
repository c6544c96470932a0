"""rpl: a finite-scale laboratory for pair-coloring pattern avoidance.

Modules: patterns (core representations and realization search), perms
(permutation algebra and separability), fractals (basis permutations),
extract (homogeneous-set extraction), build (staged order constructions),
largeness (iterated largeness and groupings), instances (fixture
factories), cli (command-line front end).
"""

from .patterns import (
    FiniteColoring,
    Pattern,
    StableColoring,
    VertexSet,
    avoids,
    find_realization,
    realizes,
)
from .perms import (
    Permutation,
    SeparatingTree,
    classify_trichotomy,
    converge,
    direct_sum,
    is_convergent,
    is_separable,
    is_transitive,
    join,
    pattern_to_perm,
    perm_to_pattern,
    separating_tree,
    skew_sum,
    split_reducible,
)
from .fractals import embed_separable, fractal_perm, navigate, partition_extract

__all__ = [
    "FiniteColoring", "Pattern", "StableColoring", "VertexSet", "avoids",
    "find_realization", "realizes",
    "Permutation", "SeparatingTree", "classify_trichotomy", "converge",
    "direct_sum", "is_convergent", "is_separable", "is_transitive", "join", "pattern_to_perm",
    "perm_to_pattern", "separating_tree", "skew_sum", "split_reducible",
    "embed_separable", "fractal_perm", "navigate", "partition_extract",
]
