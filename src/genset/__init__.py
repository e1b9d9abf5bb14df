"""Exact combinatorics of disjoint-union generators of the power set of [n].

Construct the canonical near-equal-partition generator, decide the
k-generator/k-base properties, search for minimum generators at small n, and
compute the disjointness-graph clique densities and counting bounds behind
the k 2^{n/k} lower bound.
"""

from .errors import CapExceeded, FamilyFormatError, GensetError, WorkLimitExceeded
from .families import (
    CanonicalPartition,
    SetFamily,
    canonical_generator,
    canonical_partition,
    canonical_size,
    format_family,
    make_family,
    mask_from_elements,
    parse_family,
    trivial_lower_bound,
)
from .generate import (
    Decomposition,
    GeneratorVerdict,
    decompose,
    is_k_base,
    is_k_generator,
    reachable_layers,
)
from .search import SearchReport, min_generator_size, verify_conjecture_range
from .graphs import (
    DenseSubsetResult,
    ErdosMaxReport,
    Graph,
    clique_density,
    count_cliques,
    count_disjoint_tuples,
    dense_subset_fraction,
    disjointness_graph,
    erdos_max_check,
    find_blowup,
    format_graph,
    graph_from_edges,
    parse_graph,
    turan_blowup_graph,
    turan_clique_closed_form,
    turan_eta,
)
from .bounds import (
    BoundParams,
    BoundValue,
    analytic_union_bound,
    bound_table,
    coverage_inequality_check,
    lemma4_bound,
    small_union_probability,
    union_bound_check,
)

__version__ = "0.1.0"
