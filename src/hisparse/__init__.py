"""Hierarchically sparse recovery and wideband massive MIMO channel estimation."""

__version__ = "0.1.0"

from .blocks import (
    BlockShape,
    DimensionError,
    MultiLevelVector,
    SparsityProfile,
    hi_threshold,
    is_hi_sparse,
    project_onto_support,
)
from .channel import (
    ChannelParams,
    ChannelPath,
    ChannelRealization,
    delay_angular_matrix,
    delay_angular_offgrid,
    dirichlet_sparse,
    dirichlet_vector,
    gen_offgrid,
    gen_ongrid,
    sparse_approx,
    superpose_transfer,
    synthesize_transfer,
    synthesize_transfer_offgrid,
    transfer_from_delay_angular,
)
from .design import PilotDesign, full_signature, make_design, signature
from .operators import (
    DenseOperator,
    KroneckerSensingOperator,
    VectorizationOption,
    dft_matrix,
    tau_factor,
    theta_factor,
)
from .recovery import (
    ContractionConstants,
    GuaranteeVoidError,
    RecoveryConfig,
    RecoveryResult,
    contraction_constants,
    min_overhead,
    solve,
)
from .ripcheck import (
    ExtensionCheck,
    RipReport,
    extension_rip_check,
    hirip_constant,
    kron_hirip_bound,
    rip_constant,
)
from .simulate import (
    ChannelConfig,
    Condition,
    ExperimentConfig,
    MseRecord,
    SystemConfig,
    emit_plot_data,
    naive_mse_trial,
    recovery_profile,
    run_sweep,
    run_trial,
    split_estimate,
    stack_delay_angular,
)
