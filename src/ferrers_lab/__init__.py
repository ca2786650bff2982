"""Exact spectral and spanning-tree analysis of bipartite graphs.

Staircase (Ferrers) graph construction and recognition, exact tree counts
and the degree-product invariant, resistance-distance identities over
exact rationals, floating spectral bounds, and exhaustive desk-scale
searches over bipartite isomorphism classes.
"""

from .budget import BudgetExceeded
from .exactla import (
    GInverse,
    InternalCheckError,
    bordered_ginverse,
    det_int,
    moore_penrose_laplacian,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    GraphFormatError,
    ferrers_from_partition,
    format_graph,
    is_ferrers,
    laplacian,
    parse_graph_file,
    pendant_add,
)
from .partitions import Partition, conjugate, majorizes
from .trees import (
    enumerate_spanning_trees,
    sigma_bruteforce,
    sigma_formula,
    tau,
)
from .spectral import (
    BoundReport,
    SpectrumReport,
    dense_cut_vertex_hypothesis,
    jacobi_eigh,
    laplacian_spectrum,
    normalized_product_check,
    spectral_radius,
    spectrum_report,
    sqrt_edge_bound_check,
)
from .resistance import (
    CertificateReport,
    EquivalenceReport,
    connected_graphs,
    edge_deletion_equivalence,
    edge_deletion_equivalence_scan,
    ferrers_edge_invariance,
    ferrers_tree_identity,
    resistance,
)
from .search import (
    ClassSpec,
    SearchReport,
    canonical_code,
    degree_class_max,
    enumerate_class,
    spectral_search,
    verify_ferrers_bound,
)
from .conjectures import (
    bozkurt_check,
    ferrers_bound_check,
    grone_merris_check,
    venkataramana_check,
)

__version__ = "0.1.0"
