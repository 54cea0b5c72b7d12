"""sparsity-forge: exact (a, b)-sparsity decisions, count-matroid union
partitions, and forest decompositions of simple graphs.

Only the errors load with the package.  Every other public name is read
from its submodule on each access (PEP 562), which imports that submodule
the first time; nothing is copied into this namespace, so a name patched
in its submodule is seen here and an undone patch is undone here too.
"""

import importlib

from .errors import (
    GraphFormatError,
    MatroidRegimeError,
    NotSparseError,
    PathologicalParametersError,
    SparsityForgeError,
    TheoremViolationError,
    VerificationError,
)

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "decompose": (
        "Decomposition",
        "VerificationReport",
        "check_hypergraph_bound",
        "decompose_ksw",
        "verify_decomposition",
    ),
    "errors": (
        "GraphFormatError",
        "MatroidRegimeError",
        "NotSparseError",
        "PathologicalParametersError",
        "SparsityForgeError",
        "TheoremViolationError",
        "VerificationError",
    ),
    "graphs": (
        "EdgeSet",
        "Graph",
        "VertexSet",
        "circulant",
        "complete_graph",
        "disjoint_union",
        "full_edge_set",
        "gen_counterexample_disconnected",
        "gen_counterexample_glued_trees",
        "gen_counterexample_ring",
        "glue",
        "parse_edgelist",
        "parse_graph6",
        "write_edgelist",
        "write_graph6",
    ),
    "matroid": (
        "CountMatroidOracle",
        "find_tight_components",
        "is_independent",
        "make_oracle",
        "rank",
    ),
    "oracle": ("brute_partition_exists", "brute_sparse", "check_matroid_axioms"),
    "partition": (
        "PartitionResult",
        "matroid_union_partition",
        "partition_forest_plus",
        "partition_sparse",
    ),
    "rationals": ("format_rational", "parse_rational"),
    "refine": ("ForestPartition", "brooks_refine", "eliminate_triangles", "find_bad_sets"),
    "sparsity": (
        "SparsityCertificate",
        "SparsityParams",
        "f",
        "forest_slack",
        "is_sparse",
        "is_tight",
        "m2_of",
        "m2_pair",
        "m_of",
        "max_violation",
        "potential",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import system binds a submodule here once it has finished loading
    module = globals().get(home) or importlib.import_module(f"{__name__}.{home}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
