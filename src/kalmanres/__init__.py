"""Equivariant free resolutions and finite-field checks for the varieties of
matrices fixing an s-dimensional subspace of a marked d-dimensional space.

The library has two halves.  The symbolic half (partitions, schur, bott,
geometric, resolutions) computes Betti tables of the normalizations, assembles
mapping cones that cancel the summands their two tables share, and compares
Hilbert series.
The numeric half (kalman) samples matrices over a large prime field to check
the minor equations, the Jacobian codimension, and low-degree Hilbert
function values.

The records are named tuples, not dataclasses: `dataclasses` loads `inspect`
and `ast`, which cost every symbolic CLI call more than the package itself.
"""

from .bott import CohomologyResult, GrassmannianContext, bott, cohomology_of_summand
from .geometric import (
    BettiTable,
    HilbertSeries,
    XiSummand,
    cohomology_table,
    hilbert_series,
    hilbert_series_normalization,
    resolution_terms,
    xi_exterior_decomposition,
)
from .kalman import (
    BudgetExceededError,
    FpMatrix,
    KalmanPoint,
    P_DEFAULT,
    SplitMix64,
    jacobian_codim,
    minors_vanish,
    numeric_hilbert_function,
    reduced_kalman_matrix,
    sample_generic,
    sample_member,
)
from .partitions import (
    Partition,
    Weight,
    dual_weight,
    partitions_in_box,
    partitions_of,
    schur_rank,
)
from .resolutions import (
    CancellationError,
    ConjectureReport,
    cone_table_d2,
    conjecture_consistency,
    intermediate_table_d3,
    kalman_cone_d3,
    kalman_equations_d3,
    kalman_table_d2,
    koszul_table,
    mapping_cone,
    predicted_hilbert_series,
    table_corank1,
    table_s1,
    table_s2_d3,
    table_w_line,
)
from .schur import cauchy_exterior, lr_coefficient, lr_product

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "BudgetExceededError",
    "CancellationError",
    "CohomologyResult",
    "ConjectureReport",
    "FpMatrix",
    "GrassmannianContext",
    "HilbertSeries",
    "KalmanPoint",
    "P_DEFAULT",
    "Partition",
    "SplitMix64",
    "Weight",
    "XiSummand",
    "bott",
    "cauchy_exterior",
    "cohomology_of_summand",
    "cohomology_table",
    "cone_table_d2",
    "conjecture_consistency",
    "dual_weight",
    "hilbert_series",
    "hilbert_series_normalization",
    "intermediate_table_d3",
    "jacobian_codim",
    "kalman_cone_d3",
    "kalman_equations_d3",
    "kalman_table_d2",
    "koszul_table",
    "lr_coefficient",
    "lr_product",
    "mapping_cone",
    "minors_vanish",
    "numeric_hilbert_function",
    "partitions_in_box",
    "partitions_of",
    "predicted_hilbert_series",
    "reduced_kalman_matrix",
    "resolution_terms",
    "sample_generic",
    "sample_member",
    "schur_rank",
    "table_corank1",
    "table_s1",
    "table_s2_d3",
    "table_w_line",
    "xi_exterior_decomposition",
]
