"""Gate teleportation over the genuinely four-way-entangled resource.

Replacing the two Bell pairs with the eight-term four-qubit resource
leaves the carrier pair, for every outcome (j,k), in

    ( U_T U1 sigma_XX b_jk + U_T U1 sigma_ZZ b_jk ) |psi_AB> / norm

a superposition of two error branches.  A single local correction can
fix at most one branch, so exact teleportation of U_T|psi_AB> is
impossible for generic gates.  When U = U_T @ U1 is Clifford and the
basis matrices are Pauli, both branch operators U sigma b_jk U^dag are
Pauli pairs and the (normalized) output collapses to a two-term
superposition of Pauli-rotated inputs.

Circuit layout (fixed by the structural identity above, verified in the
test suite): input pair on qubits (0,1); resource qubits 0..3 on
register positions 2..5; measurements pair input 0 with resource qubit
0 and input 1 with resource qubit 3 (input first); the teleported gate
acts on resource qubits 1 and 2, in that order.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, SX, SZ, dag, equal_up_to_global_phase, is_unitary, require_unitary, tensor
from .kak import is_clifford
from .bases import MeasurementBasis, beta_matrices, require_orthonormal
from .separability import SEPARABLE_TOL, factorize_all
from .simulator import register_from
from .teleport import PAIR_ORDER, outcome_operators

_SXX = tensor(SX, SX)
_SZZ = tensor(SZ, SZ)


def chi_state() -> np.ndarray:
    """The eight-term four-qubit resource, amplitudes +-1/(2*sqrt(2))."""
    chi = np.zeros(16, dtype=complex)
    for idx in (0, 6, 9, 10, 12, 15):
        chi[idx] = 1.0
    for idx in (3, 5):
        chi[idx] = -1.0
    return chi / (2.0 * np.sqrt(2.0))


def u1_gate() -> np.ndarray:
    """diag(1, 1, -1, 1); the fixed local flip the resource introduces."""
    return np.diag([1.0, 1.0, -1.0, 1.0]).astype(complex)


@dataclass(frozen=True, eq=False)
class FourwayReport:
    """Per-outcome results in row-major (j,k) order.

    fidelities_corrected picks the best of the raw output and the two
    branch-derived local corrections; output states are None for
    zero-probability outcomes.
    """

    branch_xx_separable: tuple[bool, ...]
    branch_zz_separable: tuple[bool, ...]
    branch_xx_pauli: tuple[tuple[str, str] | None, ...]
    branch_zz_pauli: tuple[tuple[str, str] | None, ...]
    clifford_case: bool
    probabilities: tuple[float, ...]
    output_states: tuple[np.ndarray | None, ...]
    fidelities_raw: tuple[float, ...]
    fidelities_corrected: tuple[float, ...]

    @property
    def max_corrected_fidelity(self) -> float:
        return max(self.fidelities_corrected)


def _pauli_pair_label(m: np.ndarray, tol: float = 1e-8) -> tuple[str, str] | None:
    for a, b in itertools.product("IXYZ", repeat=2):
        if equal_up_to_global_phase(m, tensor(PAULIS[a], PAULIS[b]), tol):
            return (a, b)
    return None


def _conditional_states(psi_ab: np.ndarray, basis: MeasurementBasis):
    """Unnormalized carrier states of the chi-resource circuit, before
    the teleported gate, for all 16 forced outcomes."""
    reg = register_from([(psi_ab, (0, 1)), (chi_state(), (2, 3, 4, 5))], 6)
    t6 = reg.state.reshape((2,) * 6)
    out = []
    for j, k in PAIR_ORDER:
        braj = np.conj(basis.vectors[j]).reshape(2, 2)
        brak = np.conj(basis.vectors[k]).reshape(2, 2)
        rest = np.tensordot(braj, t6, axes=((0, 1), (0, 2)))  # remaining 1,3,4,5
        rest = np.tensordot(brak, rest, axes=((0, 1), (0, 3)))  # remaining 3,4
        out.append(rest.reshape(-1))
    return out


def analyze_fourway(
    u_t: np.ndarray,
    basis: MeasurementBasis,
    psi_ab: np.ndarray,
    tol: float = SEPARABLE_TOL,
) -> FourwayReport:
    """Branch separability plus simulated per-outcome outputs."""
    u_t = require_unitary(u_t, 1e-9, "teleported gate")
    require_orthonormal(basis)
    psi_ab = np.asarray(psi_ab, dtype=complex)
    if abs(np.linalg.norm(psi_ab) - 1) > 1e-9:
        raise ValueError("input state must be normalized")

    u = u_t @ u1_gate()
    gate_betas = np.stack(beta_matrices(basis, None, "gate_form").mats)
    valid = is_unitary(gate_betas, 1e-8)
    pauli_basis = valid and all(_pauli_pair_label_2x2(b) for b in gate_betas)

    target = u_t @ psi_ab
    conds = _conditional_states(psi_ab, basis)

    # Rows 0..15 are the XX-branch operators of the 16 outcomes, rows
    # 16..31 the ZZ-branch ones.
    beta_jk = outcome_operators(gate_betas)
    branches = u @ np.concatenate((_SXX @ beta_jk, _SZZ @ beta_jk)) @ dag(u)
    factorizations = factorize_all(branches, tol) if valid else ()
    separable = tuple(f.separable for f in factorizations) or (False,) * 32
    labels = tuple(_pauli_pair_label(b) for b in branches)
    undo = {
        i: dag(tensor(f.factor_a, f.factor_b)) for i, f in enumerate(factorizations) if f.separable
    }

    probs, outputs, raw, corrected = [], [], [], []
    for idx in range(16):
        p = float(np.linalg.norm(conds[idx]) ** 2)
        probs.append(p)
        if p <= 1e-12:
            outputs.append(None)
            raw.append(0.0)
            corrected.append(0.0)
            continue
        out = u_t @ (conds[idx] / np.sqrt(p))
        outputs.append(out)
        fid = float(abs(np.vdot(target, out)) ** 2)
        raw.append(fid)
        best = fid
        for c in (undo[i] for i in (idx, idx + 16) if i in undo):
            best = max(best, float(abs(np.vdot(target, c @ out)) ** 2))
        corrected.append(best)

    return FourwayReport(
        branch_xx_separable=separable[:16],
        branch_zz_separable=separable[16:],
        branch_xx_pauli=labels[:16],
        branch_zz_pauli=labels[16:],
        clifford_case=bool(is_clifford(u) and pauli_basis),
        probabilities=tuple(probs),
        output_states=tuple(outputs),
        fidelities_raw=tuple(raw),
        fidelities_corrected=tuple(corrected),
    )


def _pauli_pair_label_2x2(m: np.ndarray, tol: float = 1e-8) -> bool:
    return any(equal_up_to_global_phase(m, PAULIS[a], tol) for a in "IXYZ")
