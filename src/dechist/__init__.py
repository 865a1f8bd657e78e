"""Decoherent-histories simulator for a random-matrix heat-exchange model."""

from .model import (
    BlockHamiltonian,
    Coarsening,
    CouplingParameters,
    Ensemble,
    ModelConfig,
    Regime,
    Spacing,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
    derive_seed,
)
from .spectral import (
    SpectralDecomposition,
    eigendecompose,
    sample_haar_state,
    select_eigenstate,
)
from .histories import (
    DecoherenceFunctional,
    HistoryGrid,
    compute_df,
    decode_history,
    history_string,
    marginalize,
)
from .metrics import (
    ArrowReport,
    EpsilonReport,
    TraceDistanceReport,
    arrow_classification,
    branch_histogram,
    delta_max,
    epsilon_average,
    epsilon_by_distance,
    macro_dynamics,
)
from .experiments import (
    InitFamily,
    RandomSpacing,
    RealizationResult,
    ScalingFit,
    SweepSpec,
    compute_realization_df,
    run_dynamics,
    run_sweep,
)

__version__ = "0.1.0"
