"""Tournament connectivity, surgery and partition toolkit.

The package exports what the README, the demos, the CLI and the bench
harness use, and the result types those entry points return.  Everything
else stays in its module; the brute-force oracles and test-only builders
live in ``tests/oracles.py``.
"""

from .core import Digraph, Tournament, Verdict, digraph_from_edges
from .generators import paley_tournament, random_tournament, transitive_tournament
from .hamilton import hamiltonian_path
from .connectivity import (
    Certificate,
    LinkageResult,
    SeparatorCertificate,
    certify,
    find_disjoint_paths,
    is_k_linked,
    is_strongly_k_connected,
    min_separator,
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
    spanning_linkage,
)
from .safety import safety_scan
from .pipeline import (
    PipelineError,
    PipelineParams,
    bootstrap_safety,
    build_dominating_family,
    find_connector_paths,
    finalize_coloring,
    run_pipeline,
)
from .partition import (
    PartitionResult,
    format_partition,
    partition,
    search_partition,
    verify_partition,
)

__version__ = "0.1.0"
