"""Elemental-Bloch toolkit for GKLS master equations under strict energy
conservation: canonically scaled jump operators, jump-free dissipator
kernels, propagation, fixed points and canonical-invariance diagnostics."""

from .linalg import (
    anticommutator,
    commutator,
    dag,
    herm_part,
    hermitian_eig,
    is_hermitian,
    is_psd,
    is_traceless,
    trace_distance,
    vectorize,
)
from .systems import (
    AlgebraReport,
    BathModel,
    JumpOperatorPair,
    LadderSystem,
    TransitionSpec,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    fermi,
    jump_operators,
    rates_from_bath,
    transition_projector,
    verify_jump_algebra,
)
from .dissipators import (
    RhsSpec,
    double_commutator,
    ebe_multi_level,
    ebe_two_level,
    gkls_dissipator,
    ladder_jump_list,
    master_rhs,
    pure_dephasing,
)
from .propagate import (
    PropagationError,
    Trajectory,
    build_superoperator,
    propagate,
    step_rk4,
)
from .stationary import (
    FixedPointError,
    FixedPointReport,
    effective_temperature,
    fixed_point,
    gibbs_state,
    two_level_stationary_analytic,
)
from .canonical import (
    CanonicalDiagnostics,
    canonical_experiment,
    invariance_condition,
    ratio_profile,
)

__version__ = "0.1.0"
