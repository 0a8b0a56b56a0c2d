"""vel: vertex energies of graphs and of their splitting/shadow derived graphs.

The per-vertex energy of vertex k is sum_i |lambda_i| u_{ik}^2 over the
adjacency eigendecomposition; it partitions the total energy
sum_i |lambda_i| across vertices.  This package computes those quantities
with a cyclic Jacobi eigensolver, constructs the m-splitting and m-shadow
graphs, and certifies numerically that their vertex energies follow the
closed-form scaling laws (originals x (2m+1)/sqrt(4m+1) and copies x
2/sqrt(4m+1) for the splitting; unchanged for the shadow).
"""

from .derived import (
    SplittingFactors,
    m_shadow,
    m_splitting,
    predicted_shadow_spectrum,
    predicted_shadow_vertex_energies,
    predicted_splitting_spectrum,
    predicted_splitting_vertex_energies,
    splitting_factors,
)
from .graphs import (
    Graph,
    GraphFormatError,
    adjacency_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    gnp_random_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from .spectral import (
    EIG_TOL,
    JacobiConvergenceError,
    Spectrum,
    eigendecompose_symmetric,
    graph_energy,
    matrix_abs_diagonal,
    vertex_energies,
)
from .verify import (
    CLAIM_IDS,
    VerificationReport,
    default_corpus,
    run_suite,
)

__version__ = "0.1.0"
