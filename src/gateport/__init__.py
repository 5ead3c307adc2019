"""Teleportability analysis of two-qubit gates under arbitrary measurement bases."""

from .linalg import (
    CNOT,
    CZ,
    H,
    I2,
    I4,
    PAULIS,
    Q_GATE,
    R_GATE,
    S,
    SWAP,
    SX,
    SY,
    SZ,
    equal_up_to_global_phase,
    haar_random_unitary,
    is_unitary,
    principal_sqrt,
    random_state,
    tensor,
)
from .kak import (
    KakDecomposition,
    LocalEulerAngles,
    NonlocalClass,
    classify_nonlocal,
    euler_zyz,
    is_clifford,
    kak_decompose,
    kak_reconstruct,
    nonlocal_gate,
    rot,
)
from .separability import (
    TensorFactorization,
    eq44_separable,
    operator_schmidt,
    tensor_factorize,
    w_witness,
)
from .bases import (
    BasisReport,
    BetaMatrices,
    MeasurementBasis,
    bell_basis,
    beta_ab_basis,
    beta_matrices,
    beta_nl_basis,
    conjugated_pauli_basis,
    m1_basis,
    m2_basis,
    phase_paired_basis,
    validate_basis,
    vector_entanglement,
)
from .teleport import (
    C_PI8,
    EXP_YY,
    PI8,
    GateTeleportReport,
    StateTeleportReport,
    Theorem1Verdict,
    analyze_gate_teleport,
    analyze_state_teleport,
    bell_resource,
    reproduce_table1,
    t_gate,
    table2_factors,
    theorem1_check,
)
from .simulator import (
    SimResult,
    outcome_distribution,
    register_from,
    run_gate_teleport,
    run_state_teleport,
)
from .fourway import FourwayReport, analyze_fourway, chi_state, u1_gate

__version__ = "0.1.0"
