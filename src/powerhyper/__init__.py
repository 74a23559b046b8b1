"""Spectral analysis of k-power hypergraphs.

Computes the second-largest eigenvalue modulus of the k-uniform expansion
of a graph, its algebraic multiplicity and eigenvector counts, and the
weakest edges of the underlying graph, cross-validated through signed
graph spectra, exact parity-closed walk counts, and spectral-moment
identities.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    GraphParseError,
    InternalInconsistencyError,
    PowerhyperError,
    PreconditionError,
)
from .graphs import (
    Graph,
    GraphClass,
    SignedGraph,
    all_negative,
    all_positive,
    classify,
    components,
    connected_edge_subsets,
    delete_edge,
    delete_vertex,
    edge_subgraph,
    is_antibalanced,
    is_balanced,
    is_bipartite,
    is_connected,
    is_cut_edge,
    negate,
    parse_edge_list,
    switch,
    switching_classes,
)
from .spectra import (
    WeakestEdgeReport,
    lambda_max,
    lambda_min,
    lambda_second,
    perron_pair,
    rho_unbalanced,
    rho_vertex_deleted,
    spectral_radius,
    spectrum,
    sym_eig,
    sym_eig_vectors,
    weakest_edges,
)
from .walks import (
    covering_parity_closed_walks,
    parity_closed_walks,
    signed_moment_average,
    walk_ratio_series,
)
from .power import (
    Eigenpair,
    EdgeContribution,
    MultiplicityReport,
    PowerHypergraph,
    am_second_from_moments,
    am_second_modulus,
    am_spectral_radius,
    build_power,
    eigen_residual,
    eigenvalue_moduli,
    lift_eigenvector,
    power_spectral_radius,
    second_eigenvariety_count,
    second_largest_modulus,
    second_modulus_candidates,
    spectral_moment,
    verify_eigenpair,
)
from .variety import (
    LinkSystem,
    VarietyReport,
    bezout_total,
    jacobian_nonsingular,
    nonzero_solution_count,
    origin_multiplicity,
    solve_link_variety,
    system_residual,
)
from .oracle import (
    IterationTrace,
    brute_count_second_eigenvectors,
    power_iteration_radius,
    projective_representative,
)
