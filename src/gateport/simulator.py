"""Brute-force statevector oracle for the teleportation circuits.

States are plain arrays of dense statevector amplitudes (at most 8
qubits).  Qubit 0 is the most significant amplitude-index bit.  Leading
axes of a state index a stack of statevectors; gates and projections act
on each of them.

Circuit layouts checked against the analytical module:

* State teleportation (3 qubits): 0 = resource carrier, 1 = resource
  partner, 2 = input.  The measurement acts on the (partner, input)
  pair in that order.
* Gate teleportation (6 qubits): 0,1 = two-qubit input, (2,3) and (4,5)
  = resource pairs with carriers 2 and 4.  The measurements act on the
  (input, partner) pairs (0,3) and (1,5) in that order; the teleported
  gate acts on the carriers (2,4).

Neither circuit has a front gate: a front gate U before a measurement in
{b_j} is the measurement in the basis {U^dag b_j}.

The measured-pair orderings differ between the two circuits; this is
what makes the state_form and gate_form beta layouts transposes of each
other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import I2, PROBABILITY_FLOOR, require_normalized, require_unitary, tensor
from .bases import MeasurementBasis, require_orthonormal

MAX_QUBITS = 8


@dataclass(frozen=True, eq=False)
class SimResult:
    """Per-outcome fidelities and probabilities: arrays over the outcomes
    (4 of the state circuit, 16 of the gate circuit in row-major (j, k)
    order, matching GateTeleportReport), with a leading axis for a stack
    of inputs."""

    fidelities: np.ndarray
    probabilities: np.ndarray


def register_from(parts) -> np.ndarray:
    """The product state of `parts`, the amplitudes of consecutive qubit
    blocks in qubit order (qubit 0's block first).

    Leading axes of a fragment's amplitudes index a stack of inputs; they
    broadcast against the other fragments' and lead the state.
    """
    amps = [np.asarray(a, dtype=complex)[..., None] for a in parts]
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite product fails require_normalized
        state = reduce(tensor, amps)[..., 0] if amps else np.ones(1)  # no parts: no qubits, rejected below
    if state.shape[-1] not in (2**n for n in range(1, MAX_QUBITS + 1)):
        raise ValueError(f"register width must be 1..{MAX_QUBITS} qubits")
    return require_normalized(state, "assembled register is not normalized")


def project_outcomes(state: np.ndarray, pairs, basis: MeasurementBasis) -> np.ndarray:
    """Unnormalized residual amplitudes for every joint outcome of
    measuring each qubit pair of `pairs` in `basis`.

    Row o of the (4**len(pairs), 2**rest) result is the state of the
    unmeasured qubits (in increasing order) after outcomes (j1, j2, ...),
    o = 4*j1 + j2 for two pairs (PAIR_ORDER); its squared norm is the
    outcome probability.  Each pair lists its qubits in the order of the
    basis vectors' tensor factors.  Leading axes of `state` (a stack of
    inputs) lead the result; its last axis gives the qubit count.
    """
    state = np.asarray(state)
    n = state.shape[-1].bit_length() - 1
    measured = [q for pair in pairs for q in pair]
    if len(set(measured)) != len(measured) or any(not 0 <= q < n for q in measured):
        raise ValueError("measured qubits must be distinct and in range")
    bras = basis.vectors.conj()  # bras[j, 2a + b] = <b_j|ab>
    lead = state.shape[:-1]
    rest = [q for q in range(n) if q not in measured]
    # Qubit axes in the order (pairs..., rest): each pair is one (4, 4) product.
    t = state.reshape(lead + (2,) * n).transpose(*range(len(lead)), *(len(lead) + q for q in measured + rest))
    for i in range(len(pairs)):
        t = bras @ t.reshape(lead + (4**i, 4, -1))
    return t.reshape(lead + (4 ** len(pairs), 2 ** len(rest)))


def outcome_fidelities(rests: np.ndarray, ops: np.ndarray, target: np.ndarray):
    """Probabilities of the residuals `rests` (one row per outcome), the
    normalized residuals after `ops` and their fidelities with `target`.

    `rests` may carry leading input axes, as `project_outcomes` gives them
    for a stack of inputs; `target` then has the same leading axes.  `ops`
    is one operator, a stack with one per outcome, or several such stacks
    along leading axes, which the outputs and fidelities keep.  Outcomes of
    probability at most PROBABILITY_FLOOR get zero rows and fidelity 0.
    """
    probs = (rests.real**2 + rests.imag**2).sum(axis=-1)
    live = probs > PROBABILITY_FLOOR
    norms = np.sqrt(np.where(live, probs, 1.0))
    outs = np.where(live[..., None], (ops @ rests[..., None])[..., 0] / norms[..., None], 0.0)
    return probs, outs, np.abs((outs @ np.conj(target)[..., None])[..., 0]) ** 2


def run_state_teleport(input_xi: np.ndarray, psi: np.ndarray, basis: MeasurementBasis, corrections=None) -> SimResult:
    """Force each outcome of the single-qubit circuit, with the resource of
    2x2 coefficient matrix psi, and score fidelity.

    Corrections, a (4, 2, 2) stack, act verbatim on the carrier qubit; to
    undo a report's outcomes, pass its correction_inverses().
    """
    xi = np.asarray(input_xi, dtype=complex)
    require_normalized(xi.reshape(-1), "input state must be normalized")
    if np.shape(psi) != (2, 2):
        raise ValueError(f"resource state must be a 2x2 coefficient matrix, got shape {np.shape(psi)}")
    require_orthonormal(basis)
    state = register_from([np.reshape(psi, -1), xi])
    rests = project_outcomes(state, [(1, 2)], basis)
    ops = I2
    if corrections is not None:
        ops = np.asarray(corrections, dtype=complex)
        if ops.shape != (4, 2, 2):
            raise ValueError(f"corrections must be a (4, 2, 2) stack, got shape {ops.shape}")
    probs, _, fids = outcome_fidelities(rests, ops, xi)
    return SimResult(fids, probs)


def run_gate_teleport(
    input_ab: np.ndarray,
    u_t: np.ndarray,
    basis: MeasurementBasis,
    corrections=None,
) -> SimResult:
    """Force all 16 outcomes of the two-pair circuit and score fidelity
    of the corrected carrier state against u_t|input>.

    `input_ab` is one input (4,) or a stack (k, 4), run together; a stack
    gives (k, 16) result arrays.  Correction pairs, a (16, 2, 2, 2) stack,
    are applied verbatim (first factor on the first carrier); pass a
    report's correction_inverses() to undo outcomes.
    """
    ab = np.asarray(input_ab, dtype=complex)
    if ab.ndim not in (1, 2) or ab.shape[-1] != 4:
        raise ValueError("input must be a 4-vector or a (k, 4) stack of them")
    require_normalized(ab, "input state must be normalized")
    u_t = require_unitary(u_t, what="teleported gate", shape=(4, 4))
    require_orthonormal(basis)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rests = project_outcomes(register_from([ab, bell, bell]), [(0, 3), (1, 5)], basis)
    ops = u_t
    if corrections is not None:
        c = np.asarray(corrections, dtype=complex)
        if c.shape != (16, 2, 2, 2):
            raise ValueError(f"corrections must be a (16, 2, 2, 2) stack of pairs, got shape {c.shape}")
        ops = tensor(c[:, 0], c[:, 1]) @ u_t
    probs, _, fids = outcome_fidelities(rests, ops, (u_t @ ab[..., None])[..., 0])
    return SimResult(fids, probs)


def outcome_distribution(input_ab: np.ndarray, u_t: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Exact joint probabilities of the 16 measurement outcomes."""
    return run_gate_teleport(input_ab, u_t, basis).probabilities

