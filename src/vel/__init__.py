"""vel: vertex energies of graphs and of their splitting/shadow derived graphs.

The per-vertex energy of vertex k is sum_i |lambda_i| u_{ik}^2 over the
adjacency eigendecomposition; it partitions the total energy
sum_i |lambda_i| across vertices.  This package computes those quantities
with a round-robin Jacobi eigensolver (each sweep is rounds of disjoint
rotations, each round one whole-array update), builds the m-splitting and
m-shadow as blow-ups B (x) A of the base adjacency, and certifies
numerically the one law both follow: vertex (r, i) has energy
|B|_rr * E_A(i), the spectrum is {beta * lambda} and the total energy is
E(B) * E(A).
"""

from .derived import (
    BlockPattern,
    m_shadow,
    m_splitting,
    predicted_spectrum,
    predicted_vertex_energies,
    shadow_pattern,
    splitting_pattern,
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
    vertex_energies,
)
from .verify import (
    CLAIM_IDS,
    VerificationReport,
    default_corpus,
    run_suite,
)

__version__ = "0.1.0"
