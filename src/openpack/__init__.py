"""openpack: exact open packing partition numbers and their verification harness.

The open packing partition number of a graph is the minimum number of open
packings needed to partition its vertex set; it equals the chromatic number
of the two-step graph.  This package computes it (and the surrounding
invariants) exactly with certificates, builds the relevant graph products and
extremal families, and machine-checks the known bounds over enumerated
corpora.
"""

from .constructions import cart_sharp_instance, ng_extremal, psi_graph, tree_opp
from .formats import parse_edge_list_text, parse_graph6, to_graph6
from .graph import (
    Graph,
    GraphError,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_tree,
    max_degree,
    min_degree,
    path,
    random_graph,
    random_tree,
    star,
)
from .products import (
    CoronaLayout,
    ProductVertexMap,
    cartesian,
    corona,
    direct,
    isolated_vertex_count,
    lexicographic,
    strong,
)
from .solvers import (
    CertificateError,
    InvariantReport,
    SolverCapError,
    UndefinedInvariantError,
    VertexLabeling,
    VertexSet,
    chromatic_number,
    domination_number,
    full_report,
    is_open_packing,
    is_opp,
    is_packing,
    kernel_backend,
    max_independent_set,
    omega_of_two_step,
    open_packing_number,
    open_packing_partition_number,
    packing_number,
    split_open_packing,
    total_domination_number,
    two_distance_chromatic,
)
from .transforms import (
    closed_neighborhood_graph,
    every_edge_on_triangle,
    has_even_cycle,
    is_chordal,
    square,
    two_step,
)

__version__ = "0.1.0"
