"""Tournament connectivity, surgery and partition toolkit."""

from .core import (
    Digraph,
    Tournament,
    Verdict,
    bipartite_subdigraph,
    is_backwards_transitive,
    is_path,
    reverse,
    subtournament,
    transitive_order,
    tournament_from_edges,
    digraph_from_edges,
)
from .generators import paley_tournament, random_tournament, transitive_tournament
from .hamilton import hamiltonian_path
from .connectivity import (
    Certificate,
    LinkageRequest,
    LinkageResult,
    SeparatorCertificate,
    certify,
    find_disjoint_paths,
    is_k_linked,
    is_strongly_k_connected,
    min_separator,
    safe_flow,
    vertex_connectivity,
)
from .domination import (
    CoreSet,
    DominatingStructure,
    core_set,
    greedy_in_dominating_set,
    greedy_out_dominating_set,
    in_dominating_structure,
    out_dominating_structure,
)
from .surgery import (
    CarveResult,
    NoPath,
    Subdivision,
    SubdivisionSpec,
    SpanningLinkage,
    nonseparating_subdivision,
    remove_nonseparating_path,
    shortest_path_avoiding,
    spanning_linkage,
)
from .safety import ALPHA, BETA, UNCOLORED, Coloring, SafetyContext, is_safe, safety_scan
from .pipeline import (
    PipelineError,
    PipelineParams,
    extend_coloring_safely,
    bootstrap_safety,
    build_dominating_family,
    find_connector_paths,
    finalize_coloring,
    run_pipeline,
    select_extremal_sets,
)
from .partition import (
    PartitionResult,
    format_partition,
    partition,
    search_partition,
    verify_partition,
)

__version__ = "0.1.0"
