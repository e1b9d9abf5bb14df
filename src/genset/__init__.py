"""Exact combinatorics of disjoint-union generators of the power set of [n].

Construct the canonical near-equal-partition generator, decide the
k-generator/k-base properties, search for minimum generators at small n, and
compute the disjointness-graph clique densities and counting bounds behind
the k 2^{n/k} lower bound. Importing the package loads only the exception
types; every other public name is imported from its module on first use.
"""

import importlib

from .errors import CapExceeded, FamilyFormatError, GensetError, WorkLimitExceeded

__version__ = "0.1.0"

# Public name -> the layer module that defines it.
_LAZY = {
    name: module
    for module, names in {
        "families": "Estimate SetFamily canonical_generator canonical_partition canonical_size"
        " format_family make_family mask_from_elements parse_family trivial_lower_bound",
        "generate": "GeneratorVerdict decompose is_k_base is_k_generator reachable_layers",
        "search": "SearchReport min_generator_size verify_conjecture_range",
        "graphs": "ErdosMaxReport Graph clique_density count_cliques"
        " count_disjoint_tuples dense_subset_fraction disjointness_graph erdos_max_check"
        " find_blowup format_graph graph_from_edges parse_graph turan_blowup_graph"
        " turan_clique_closed_form turan_eta",
        "bounds": "BoundValue analytic_union_bound bound_table coverage_inequality_check"
        " lemma4_bound resolve_delta small_union_probability union_bound_check",
    }.items()
    for name in names.split()
}

__all__ = ["CapExceeded", "FamilyFormatError", "GensetError", "WorkLimitExceeded", *_LAZY]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
