"""Hierarchically sparse recovery and wideband massive MIMO channel estimation."""

__version__ = "0.1.0"

from .blocks import BlockShape, DimensionError, SparsityProfile, hi_threshold
from .channel import (
    ChannelParams,
    ChannelPath,
    ChannelRealization,
    delay_angular_offgrid,
    dirichlet_sparse,
    dirichlet_vector,
    gen_offgrid,
    gen_ongrid,
    sparse_approx,
    superpose_transfer,
    transfer_from_delay_angular,
)
from .design import PilotDesign, make_design, signature
from .operators import (
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
    recovery_profile,
    run_sweep,
    run_trial,
)
