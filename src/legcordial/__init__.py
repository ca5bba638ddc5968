"""Legendre cordial graph labelings.

A vertex labeling of a connected graph of order n is a bijection onto
{1, ..., n}; an edge gets induced label 1 when its endpoint-label sum is a
quadratic residue mod an odd prime p, and 0 when the sum is a nonresidue or
divisible by p. The labeling is cordial mod p when the two induced counts
differ by at most 1. This package provides the number theory, graph
operations, verification, constructive labelers, and an exhaustive search
oracle for small instances, plus a CLI (``legcordial --help``).
"""

from .graph import (
    Graph,
    adjacency,
    bipartition,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    has_odd_cycle,
    is_connected,
    make_complete,
    make_cycle,
    make_path,
    make_star,
)
from .labeling import (
    AdmissionError,
    EdgeTally,
    Labeling,
    RhoEta,
    edge_label,
    identity_labeling,
    induced_tally,
    is_cordial,
    rho_eta,
)
from .numtheory import (
    LegendreContext,
    euler_criterion,
    is_odd_prime,
    legendre_symbol,
    odd_primes_below,
    quadratic_nonresidues,
    quadratic_residues,
    two_symbol_rule,
)
from .products import cartesian, corona, join, lexicographic, strong, tensor
from .constructors import (
    ConstructionError,
    ConstructionRecipe,
    ConnectivityViolation,
    HypothesisViolation,
    balance_form,
    construct_cartesian,
    construct_corona,
    construct_corona_path,
    construct_join,
    construct_kp_tensor,
    construct_lexicographic,
    construct_strong,
    construct_tensor,
    run_recipe,
)
from .search import (
    Budget,
    DiffWindow,
    RecipeSearchResult,
    SearchResult,
    SearchSpec,
    achievable_differences,
    find_base_labelings,
    search_labeling,
)

__version__ = "0.1.0"
