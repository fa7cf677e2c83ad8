"""Five-component DKP algebra, bilinear currents, and potential inversion."""

from .algebra import (
    METRIC_DIAG,
    IdentityCheck,
    KemmerRep,
    basis_matrices,
    build_representation,
    enumerate_basis,
    minkowski_dot,
    raise_index,
    representation_from_betas,
    verify_algebra_identities,
)
from .bilinears import (
    ConstraintResiduals,
    CurrentGrid,
    CurrentSet,
    FierzCoefficients,
    ZetaResiduals,
    algebraic_constraint_residuals,
    compute_currents,
    compute_currents_grid,
    current_columns,
    current_set_to_dict,
    fierz_decompose,
    fierz_residual,
    singular_mask,
    z_is_singular,
    zeta_identity_residuals,
)
from .errors import (
    CurrentOverflowError,
    DkpError,
    EmptyDomainError,
    GridFormatError,
    MassShellError,
    ModeError,
    ParameterError,
    RepresentationDefectError,
    ShapeError,
    SingularZError,
    StencilError,
    WordIndexError,
)
from .grids import (
    FOUR_VECTOR,
    SCALAR,
    TENSOR2,
    WAVEFUNCTION,
    FieldGrid,
    gradient,
    load_grid,
    max_abs,
    partial_derivative,
    rms,
    stencil_derivative,
    store_grid,
)
from .inversion import (
    DivergenceResiduals,
    InversionOutput,
    ReducedResiduals,
    ReducedState,
    divergence_identities,
    field_strength_bilinear,
    field_strength_from_potential,
    gauge_term,
    h_elimination_residual,
    invert_pipeline,
    invert_potential_full,
    invert_potential_gauge_fixed,
    reduced_state,
    reduced_system_residuals,
    solution_checks,
)
from .planewave import (
    DkpResidual,
    PlaneWaveSpec,
    constant_four_vector_grid,
    dkp_residual,
    eta_conjugate,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
    random_fourier_field,
)
from .scalars import EXACT, FLOAT, GaussianRational
from .words import (
    BASIS_LABELS,
    BasisCombination,
    combination_product,
    eval_basis_combination,
    reduce_word,
    word_matrix_product,
    word_reduction_sweep,
)

__version__ = "0.1.0"
