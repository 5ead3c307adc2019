"""Brute-force statevector oracle for the teleportation circuits.

Registers are immutable snapshots of dense statevectors (at most 8
qubits).  Qubit 0 is the most significant amplitude-index bit.  A
register may hold a stack of statevectors along leading axes of its
state; gates and projections act on each of them.

Circuit layouts checked against the analytical module:

* State teleportation (3 qubits): 0 = resource carrier, 1 = resource
  partner, 2 = input.  The front gate and the measurement act on the
  (partner, input) pair in that order.
* Gate teleportation (6 qubits): 0,1 = two-qubit input, (2,3) and (4,5)
  = resource pairs with carriers 2 and 4.  The front gate and the
  measurements act on the (input, partner) pairs (0,3) and (1,5) in
  that order; the teleported gate acts on the carriers (2,4).

The measured-pair orderings differ between the two circuits; this is
what makes the state_form and gate_form beta layouts transposes of each
other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import I2, PROBABILITY_FLOOR, require_unitary, tensor
from .bases import MeasurementBasis, require_orthonormal
from .teleport import ResourceState

MAX_QUBITS = 8


@dataclass(frozen=True, eq=False)
class Register:
    state: np.ndarray
    n: int


@dataclass(frozen=True)
class MeasurementRecord:
    outcome_indices: tuple[int, ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class StateSimResult:
    fidelities: tuple[float, ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class GateSimResult:
    """Row-major (j, k) outcome order, matching GateTeleportReport.

    16-tuples for one input; (k, 16) arrays for a stack of k inputs.
    """

    fidelities: tuple[float, ...] | np.ndarray
    probabilities: tuple[float, ...] | np.ndarray


def register_from(parts, n: int) -> Register:
    """Assemble a register from (amplitudes, qubit positions) fragments
    covering all n qubits exactly once.

    Leading axes of a fragment's amplitudes index a stack of inputs; they
    broadcast against the other fragments' and lead the register's state.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register width must be 1..{MAX_QUBITS}")
    covered = [q for _, qs in parts for q in qs]
    if sorted(covered) != list(range(n)):
        raise ValueError("fragments must cover every qubit exactly once")
    lead = np.broadcast_shapes(*(np.shape(amps)[:-1] for amps, _ in parts))
    tensor_state = np.ones(lead, dtype=complex)
    order = []
    for amps, qubits in parts:
        amps = np.asarray(amps, dtype=complex)
        k = len(qubits)
        # Qubit axes so far get size 1, so the stack axes line up with `lead`.
        amps = amps.reshape(amps.shape[:-1] + (1,) * len(order) + (2,) * k)
        tensor_state = tensor_state.reshape(tensor_state.shape + (1,) * k) * amps
        order.extend(qubits)
    perm = tuple(range(len(lead))) + tuple(len(lead) + np.argsort(order))
    state = tensor_state.transpose(perm).reshape(lead + (2**n,))
    if np.any(np.abs(np.linalg.norm(state, axis=-1) - 1.0) > 1e-9):
        raise ValueError("assembled register is not normalized")
    return Register(state, n)


def apply_gate(reg: Register, gate: np.ndarray, targets) -> Register:
    """Apply a 2x2 or 4x4 unitary on the target qubits (identity elsewhere)."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    if any(not 0 <= q < reg.n for q in targets):
        raise IndexError("target out of range")
    k = len(targets)
    gate = require_unitary(gate, what="gate")
    if gate.shape != (2**k, 2**k):
        raise ValueError("gate dimension does not match target count")
    lead = reg.state.shape[:-1]
    axes = tuple(len(lead) + q for q in targets)
    t = reg.state.reshape(lead + (2,) * reg.n)
    gt = gate.reshape((2,) * (2 * k))
    t = np.tensordot(gt, t, axes=(tuple(range(k, 2 * k)), axes))
    t = np.moveaxis(t, tuple(range(k)), axes)
    return Register(t.reshape(reg.state.shape), reg.n)


def project_outcomes(state: np.ndarray, n: int, pairs, basis: MeasurementBasis) -> np.ndarray:
    """Unnormalized residual amplitudes for every joint outcome of
    measuring each qubit pair of `pairs` in `basis`.

    Row o of the (4**len(pairs), 2**rest) result is the state of the
    unmeasured qubits (in increasing order) after outcomes (j1, j2, ...),
    o = 4*j1 + j2 for two pairs (PAIR_ORDER); its squared norm is the
    outcome probability.  Each pair lists its qubits in the order of the
    basis vectors' tensor factors.  Leading axes of `state` (a stack of
    inputs) lead the result.
    """
    measured = [q for pair in pairs for q in pair]
    if len(set(measured)) != len(measured) or any(not 0 <= q < n for q in measured):
        raise ValueError("measured qubits must be distinct and in range")
    bras = basis.matrix().conj().T  # bras[j, 2a + b] = <b_j|ab>
    state = np.asarray(state)
    lead = state.shape[:-1]
    rest = [q for q in range(n) if q not in measured]
    # Qubit axes in the order (pairs..., rest): each pair is one (4, 4) product.
    t = state.reshape(lead + (2,) * n).transpose(*range(len(lead)), *(len(lead) + q for q in measured + rest))
    for i in range(len(pairs)):
        t = bras @ t.reshape(lead + (4**i, 4, -1))
    return t.reshape(lead + (4 ** len(pairs), 2 ** len(rest)))


def _probabilities(rests: np.ndarray) -> np.ndarray:
    return (rests.real**2 + rests.imag**2).sum(axis=-1)


def outcome_fidelities(rests: np.ndarray, ops: np.ndarray, target: np.ndarray):
    """Probabilities of the residuals `rests` (one row per outcome), the
    normalized residuals after `ops` and their fidelities with `target`.

    `rests` may carry leading input axes, as `project_outcomes` gives them
    for a stack of inputs; `target` then has the same leading axes.  `ops`
    is one operator, a stack with one per outcome, or several such stacks
    along leading axes, which the outputs and fidelities keep.  Outcomes of
    probability at most PROBABILITY_FLOOR get zero rows and fidelity 0.
    """
    probs = _probabilities(rests)
    live = probs > PROBABILITY_FLOOR
    norms = np.sqrt(np.where(live, probs, 1.0))
    outs = np.where(live[..., None], (ops @ rests[..., None])[..., 0] / norms[..., None], 0.0)
    return probs, outs, np.abs((outs @ np.conj(target)[..., None])[..., 0]) ** 2


def pair_probabilities(reg: Register, targets, basis: MeasurementBasis) -> np.ndarray:
    """Outcome distribution of a projective pair measurement."""
    require_orthonormal(basis)
    return _probabilities(project_outcomes(reg.state, reg.n, [tuple(targets)], basis))


def measure_pair(
    reg: Register,
    targets,
    basis: MeasurementBasis,
    forced_outcome: int | None = None,
    seed=None,
):
    """Projective measurement of a qubit pair in an orthonormal basis.

    Returns (outcome index, outcome probability, post-measurement
    register).  With forced_outcome the projection is deterministic
    (forcing a zero-probability outcome is an error); otherwise the
    outcome is sampled with the caller's seed.
    """
    require_orthonormal(basis)
    targets = tuple(targets)
    rests = project_outcomes(reg.state, reg.n, [targets], basis)
    probs = _probabilities(rests)
    if forced_outcome is None:
        rng = np.random.default_rng(seed)
        outcome = int(rng.choice(4, p=probs / probs.sum()))
    else:
        outcome = int(forced_outcome)
        if probs[outcome] <= PROBABILITY_FLOOR:
            raise ValueError(f"outcome {outcome} has zero probability")
    rest = rests[outcome].reshape((2,) * (reg.n - 2)) / np.sqrt(probs[outcome])
    post = np.tensordot(np.asarray(basis.vectors[outcome]).reshape(2, 2), rest, axes=0)
    post = np.moveaxis(post, (0, 1), targets)
    return outcome, float(probs[outcome]), Register(post.reshape(-1), reg.n)


def run_state_teleport(
    input_xi: np.ndarray,
    resource: ResourceState,
    u_front: np.ndarray | None,
    basis: MeasurementBasis,
    corrections=None,
) -> StateSimResult:
    """Force each outcome of the single-qubit circuit and score fidelity.

    Corrections are applied verbatim to the carrier qubit; to undo
    outcome j of an analysis report, pass its correction_inverses().
    """
    xi = np.asarray(input_xi, dtype=complex)
    if abs(np.linalg.norm(xi) - 1) > 1e-9:
        raise ValueError("input state must be normalized")
    require_orthonormal(basis)
    reg = register_from([(resource.psi.reshape(-1), (0, 1)), (xi, (2,))], 3)
    if u_front is not None:
        reg = apply_gate(reg, u_front, (1, 2))
    rests = project_outcomes(reg.state, 3, [(1, 2)], basis)
    ops = I2 if corrections is None else np.stack([I2 if c is None else c for c in corrections])
    probs, _, fids = outcome_fidelities(rests, ops, xi)
    return StateSimResult(tuple(fids.tolist()), tuple(probs.tolist()))


def run_gate_teleport(
    input_ab: np.ndarray,
    u_t: np.ndarray,
    basis: MeasurementBasis,
    corrections=None,
    u_front: np.ndarray | None = None,
) -> GateSimResult:
    """Force all 16 outcomes of the two-pair circuit and score fidelity
    of the corrected carrier state against u_t|input>.

    `input_ab` is one input (4,) or a stack (k, 4), run together; a stack
    gives (k, 16) result arrays.  Correction pairs are applied verbatim
    (first factor on the first carrier); pass a report's
    correction_inverses() to undo outcomes.
    """
    ab = np.asarray(input_ab, dtype=complex)
    if ab.ndim not in (1, 2) or ab.shape[-1] != 4:
        raise ValueError("input must be a 4-vector or a (k, 4) stack of them")
    if np.any(np.abs(np.linalg.norm(ab, axis=-1) - 1) > 1e-9):
        raise ValueError("input state must be normalized")
    u_t = require_unitary(u_t, what="teleported gate")
    require_orthonormal(basis)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    reg = register_from([(ab, (0, 1)), (bell, (2, 3)), (bell, (4, 5))], 6)
    if u_front is not None:
        reg = apply_gate(reg, u_front, (0, 3))
        reg = apply_gate(reg, u_front, (1, 5))
    rests = project_outcomes(reg.state, 6, [(0, 3), (1, 5)], basis)
    ops = u_t
    if corrections is not None:
        ops = tensor(*np.array([(I2, I2) if c is None else c for c in corrections]).swapaxes(0, 1)) @ u_t
    probs, _, fids = outcome_fidelities(rests, ops, (u_t @ ab[..., None])[..., 0])
    if ab.ndim == 1:
        return GateSimResult(tuple(fids.tolist()), tuple(probs.tolist()))
    return GateSimResult(fids, probs)


def outcome_distribution(
    input_ab: np.ndarray,
    u_t: np.ndarray,
    basis: MeasurementBasis,
    u_front: np.ndarray | None = None,
) -> np.ndarray:
    """Exact joint probabilities of the 16 measurement outcomes."""
    return np.array(run_gate_teleport(input_ab, u_t, basis, u_front=u_front).probabilities)


def sample_gate_teleport(
    input_ab: np.ndarray,
    u_t: np.ndarray,
    basis: MeasurementBasis,
    corrections,
    trials: int,
    seed,
) -> tuple[MeasurementRecord, dict[int, list[float]]]:
    """Monte Carlo runs with sampled outcomes; returns the record of
    sampled (j,k) pairs (flattened index) and per-outcome fidelities."""
    result = run_gate_teleport(input_ab, u_t, basis, corrections)
    probs = np.array(result.probabilities)
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(16, size=trials, p=probs / probs.sum())
    per_outcome: dict[int, list[float]] = {}
    for o in outcomes:
        per_outcome.setdefault(int(o), []).append(result.fidelities[int(o)])
    return (
        MeasurementRecord(tuple(int(o) for o in outcomes), tuple(float(probs[o]) for o in outcomes)),
        per_outcome,
    )
