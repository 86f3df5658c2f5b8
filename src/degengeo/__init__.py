"""degengeo: the geometry of eigenvalue degeneracy in Hermitian matrix space.

The package computes, for dense Hermitian matrices:

- the exact block decomposition H = e^{iS} (H0 + B + T + H_eff) e^{-iS}
  relative to a degenerate base point, through the direct rotation between
  eigenprojectors, together with the local chart it induces;
- the closest point of the k-fold degeneracy manifold and the distance
  formula sqrt(k) * stddev(window eigenvalues) = ||H - H_Sigma|| = ||H_eff||;
- orders of energy splitting of one-parameter families, equal across five
  splitting measures, with the cascade that resolves eigenvalue branches and
  their analytic continuation through t = 0;
- Weyl-point detection for three-parameter families: effective maps,
  Jacobian rank, topological charge, and refined grid scans;
- the spin-model and closed-form example Hamiltonians used as oracles.
"""

from .errors import (
    BasePointNotCanonical,
    DegenError,
    DegenerateBoundary,
    InconclusiveFit,
    NewtonDiverged,
    NotInSigmaK,
    StepTooSmall,
    SubspacesTooFar,
)
from .hermitian import (
    BasisIndex,
    canonical_basis,
    conjugate,
    coordinates,
    frobenius_inner,
    frobenius_norm,
    from_coordinates,
    hermitian,
    operator_2_norm,
    random_hermitian,
    random_unitary,
    traceless_basis,
    traceless_coordinates,
    traceless_from_coordinates,
)
from .matrixio import RunReport, matrix_text, parse_matrix, read_matrix, write_matrix
from .projection import (
    ProjectionResult,
    collapse_projection,
    distance_to_sigma,
    orthogonality_check,
    project_with_index_set,
    sample_sigma_k,
)
from .spectra import (
    Spectrum,
    StratumPartition,
    classify_stratum,
    eigh,
    half_gap,
    is_in_sigma_k,
    is_on_boundary,
    stratum_codimension,
)
from .splitting import (
    CascadeResult,
    FamilyHandle,
    OrderEstimate,
    SplittingSample,
    cascade,
    default_ladder,
    estimate_all_orders,
    estimate_order,
    family,
    linear_family,
    signed_stddev,
    signed_stddev_fit_residual,
    splitting_samples,
)
from .swtransform import (
    ChartCoordinates,
    SWDecomposition,
    chart_coordinates,
    direct_rotation,
    projector_lowest_k,
    sw_decompose,
    sw_decompose_general,
)
from .weyl import (
    ParamFamily,
    WeylReport,
    classify_point,
    effective_map,
    first_order_effective_map,
    jacobian,
    jacobian_with_check,
    param_family,
    scan_grid,
)

__version__ = "0.1.0"
