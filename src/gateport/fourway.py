"""Gate teleportation over the genuinely four-way-entangled resource.

Replacing the two Bell pairs with the eight-term four-qubit resource
leaves the carrier pair, for every outcome (j,k), in

    ( U_T U1 sigma_XX b_jk + U_T U1 sigma_ZZ b_jk ) |psi_AB> / norm

a superposition of two error branches.  A single local correction can
fix at most one branch, so exact teleportation of U_T|psi_AB> is
impossible for every gate: before the gate, each outcome maps the input
through U1 (sigma_XX + sigma_ZZ) b_jk / (4 sqrt 2), and sigma_XX +
sigma_ZZ has eigenvalues (2, 0, 0, -2), so that map has rank 2 at most
and the outcome never occurs on a two-dimensional set of inputs.  When
U = U_T @ U1 is Clifford and the basis matrices are Pauli, both branch
operators U sigma b_jk U^dag are Pauli pairs and the (normalized) output
collapses to a two-term superposition of Pauli-rotated inputs.

The analysis screens all 32 branch operators with one batched
operator-Schmidt decomposition, whose leading term is the local pair
a (x) b of each separable branch; its inverse is the correction that
undoes that branch.  No factors are extracted one branch at a time.

Circuit layout (fixed by the structural identity above, verified in the
test suite): input pair on qubits (0,1); resource qubits 0..3 on
register positions 2..5; measurements pair input 0 with resource qubit
0 and input 1 with resource qubit 3 (input first); the teleported gate
acts on resource qubits 1 and 2, in that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    FACTOR_MATCH_TOL,
    I4,
    PAULI_PAIR_LABELS,
    SX,
    SZ,
    dag,
    kron_pairs,
    pauli_products,
    require_normalized,
    require_unitary,
    tensor,
)
from .kak import is_clifford
from .bases import MeasurementBasis, capable, gate_betas, require_orthonormal
from .separability import leading_products
from .simulator import outcome_fidelities, project_outcomes, register_from

_SXX = tensor(SX, SX)
_SZZ = tensor(SZ, SZ)


def chi_state() -> np.ndarray:
    """The eight-term four-qubit resource, amplitudes +-1/(2*sqrt(2))."""
    return np.array([1, 0, 0, -1, 0, -1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1], dtype=complex) / (2.0 * np.sqrt(2.0))


def u1_gate() -> np.ndarray:
    """diag(1, 1, -1, 1); the fixed local flip the resource introduces."""
    return np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)


@dataclass(frozen=True, eq=False)
class FourwayReport:
    """Per-outcome results in row-major (j,k) order.

    A branch is separable when its second operator-Schmidt coefficient is
    at most SEPARABLE_TOL (never for a basis without capability, see
    bases.capable).
    fidelities_corrected picks the best of the raw output and the outputs
    with either separable branch undone by the inverse of its local pair;
    output states are zero rows for zero-probability outcomes.
    """

    branch_xx_separable: np.ndarray  # (16,) bool
    branch_zz_separable: np.ndarray  # (16,) bool
    branch_xx_pauli: tuple[tuple[str, str] | None, ...]
    branch_zz_pauli: tuple[tuple[str, str] | None, ...]
    clifford_case: bool
    probabilities: np.ndarray  # (16,)
    output_states: np.ndarray  # (16, 4)
    fidelities_raw: np.ndarray  # (16,)
    fidelities_corrected: np.ndarray  # (16,)

    @property
    def max_corrected_fidelity(self) -> float:
        return float(self.fidelities_corrected.max())


def _conditional_states(psi_ab: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Unnormalized carrier states of the chi-resource circuit, before
    the teleported gate, for all 16 forced outcomes: a (16, 4) array."""
    return project_outcomes(register_from([psi_ab, chi_state()]), [(0, 2), (1, 5)], basis)


def analyze_fourway(
    u_t: np.ndarray,
    basis: MeasurementBasis,
    psi_ab: np.ndarray,
) -> FourwayReport:
    """Branch separability plus simulated per-outcome outputs."""
    u_t = require_unitary(u_t, what="teleported gate", shape=(4, 4))
    require_orthonormal(basis)
    psi_ab = np.asarray(psi_ab, dtype=complex)
    require_normalized(psi_ab.reshape(-1), "input state must be normalized")

    u = u_t @ u1_gate()
    betas = gate_betas(basis)
    valid = capable(betas)
    beta_jk = kron_pairs(betas, betas)
    # Every b_j (x) b_k is a Pauli product iff every b_j is a Pauli matrix.
    pauli_basis = valid and (pauli_products(beta_jk, FACTOR_MATCH_TOL) >= 0).all()

    # Rows 0..15 are the XX-branch operators of the 16 outcomes, rows
    # 16..31 the ZZ-branch ones.
    branches = u @ np.concatenate((_SXX @ beta_jk, _SZZ @ beta_jk)) @ dag(u)
    # Each output is scored as it is and after undoing either branch,
    # where that branch is separable (identity where it is not), with the
    # inverse of its leading Schmidt term a (x) b: the local pair that
    # tensor_factorize would extract, up to a phase no fidelity sees.
    separable = np.zeros(32, dtype=bool)
    undo = np.broadcast_to(I4, (32, 4, 4))
    if valid:
        separable, products = leading_products(branches)
        undo = np.where(separable[:, None, None], dag(products), I4)
    labels = tuple(PAULI_PAIR_LABELS[i] if i >= 0 else None for i in pauli_products(branches, FACTOR_MATCH_TOL))
    ops = np.concatenate((np.broadcast_to(I4, (16, 4, 4)), undo)).reshape(3, 16, 4, 4) @ u_t
    probs, outs, fids = outcome_fidelities(_conditional_states(psi_ab, basis), ops, u_t @ psi_ab)

    return FourwayReport(
        branch_xx_separable=separable[:16],
        branch_zz_separable=separable[16:],
        branch_xx_pauli=labels[:16],
        branch_zz_pauli=labels[16:],
        clifford_case=bool(is_clifford(u) and pauli_basis),
        probabilities=probs,
        output_states=outs[0],
        fidelities_raw=fids[0],
        fidelities_corrected=fids.max(axis=0),
    )
