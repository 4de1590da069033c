"""Elemental-Bloch toolkit for GKLS master equations under strict energy
conservation: canonically scaled jump operators, jump-free dissipator
kernels, propagation, fixed points and canonical-invariance diagnostics."""

from .linalg import (
    herm_part,
    hermitian_eig,
    is_hermitian,
    trace_distance,
)
from .systems import (
    AlgebraReport,
    BathModel,
    JumpOperatorPair,
    LadderSystem,
    TwoLevelSystem,
    build_oscillator,
    build_two_level_hamiltonian,
    fermi,
    jump_operators,
    rates_from_bath,
    verify_jump_algebra,
)
from .dissipators import (
    RhsSpec,
    double_commutator,
    ebe_multi_level,
    ebe_two_level,
    gkls_dissipator,
    ladder_jump_list,
)
from .propagate import (
    PropagationError,
    Trajectory,
    propagate,
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
