import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from gateport import linalg as la
from gateport import bases
from gateport import simulator as sim
from gateport import teleport as tp
import reference as ref
from strategies import HAAR_GATES, NAMED_BASES, SEEDS, front, haar_basis


_FRAGMENT_WIDTHS = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ws: sum(ws) <= sim.MAX_QUBITS)


@settings(max_examples=60)
@given(_FRAGMENT_WIDTHS, SEEDS, st.sampled_from((None, 1, 3)), st.integers(0, 2))
def test_register_from_equals_kron_of_the_fragments(widths, seed, k, stacked):
    """The product state is np.kron of the fragments, bit for bit: for one
    state, and per input when one fragment carries a leading stack axis."""
    rng = np.random.default_rng(seed)
    parts = [la.random_state(2**w, rng) for w in widths]
    if k is None:
        expected = functools.reduce(np.kron, parts)
    else:
        stacked %= len(widths)
        parts[stacked] = np.stack([la.random_state(2 ** widths[stacked], rng) for _ in range(k)])
        expected = np.stack(
            [functools.reduce(np.kron, parts[:stacked] + [one] + parts[stacked + 1:]) for one in parts[stacked]]
        )
    assert np.array_equal(sim.register_from(parts), expected)


# (register width, measured pairs) of the state circuit, the gate circuit
# and the four-way-resource circuit.
CIRCUIT_PAIRS = ((3, ((1, 2),)), (6, ((0, 3), (1, 5))), (6, ((0, 2), (1, 5))))
# Both layouts of a basis' stored row array: F-ordered (a Haar unitary's columns), and
# C-ordered (a Haar unitary's rows, and the named bases).
_BASES = st.one_of(SEEDS.map(haar_basis), HAAR_GATES.map(lambda u: bases.MeasurementBasis(u, "rows")), NAMED_BASES)


@settings(max_examples=60)
@given(st.sampled_from(CIRCUIT_PAIRS), _BASES, SEEDS, st.booleans())
def test_project_outcomes_matches_per_outcome_loop(layout, basis, seed, reverse_pairs):
    n, pairs = layout
    if reverse_pairs:
        pairs = tuple(pair[::-1] for pair in reversed(pairs))
    rng = np.random.default_rng(seed)
    state = la.random_state(2**n, rng)
    got = sim.project_outcomes(state, pairs, basis)
    assert got.shape == (4 ** len(pairs), 2 ** (n - 2 * len(pairs)))
    assert np.allclose(got, ref.measure(state, pairs, basis.vectors), rtol=0, atol=1e-12)
    assert abs((np.abs(got) ** 2).sum() - 1) < 1e-12


@settings(max_examples=40)
@given(st.sampled_from(CIRCUIT_PAIRS), _BASES, SEEDS, st.integers(1, 3))
def test_project_outcomes_matches_per_outcome_loop_on_a_stack(layout, basis, seed, k):
    n, pairs = layout
    rng = np.random.default_rng(seed)
    states = np.stack([la.random_state(2**n, rng) for _ in range(k)])
    got = sim.project_outcomes(states, pairs, basis)
    assert got.shape == (k, 4 ** len(pairs), 2 ** (n - 2 * len(pairs)))
    for state, rows in zip(states, got):
        assert np.allclose(rows, ref.measure(state, pairs, basis.vectors), rtol=0, atol=1e-12)


def test_bell_measurement_of_00():
    rests = sim.project_outcomes(np.array([1, 0, 0, 0], dtype=complex), [(0, 1)], bases.bell_basis())
    probs = (np.abs(rests) ** 2).sum(axis=-1)
    assert np.allclose(probs, [0.5, 0, 0.5, 0], atol=1e-12)
    assert abs(probs.sum() - 1) < 1e-12


def test_standard_teleportation_with_pauli_corrections():
    rep = tp.analyze_state_teleport(tp.bell_resource(), bases.bell_basis())
    rng = np.random.default_rng(4)
    for _ in range(10):
        xi = la.random_state(2, rng)
        r = sim.run_state_teleport(xi, tp.bell_resource(), bases.bell_basis(), rep.correction_inverses())
        assert np.allclose(r.fidelities, 1.0, atol=1e-9)
        assert np.allclose(r.probabilities, 0.25, atol=1e-9)


def test_omitting_corrections_breaks_some_outcome():
    xi = la.random_state(2, 5)
    r = sim.run_state_teleport(xi, tp.bell_resource(), bases.bell_basis(), None)
    assert min(r.fidelities) < 1 - 1e-3


def test_state_oracle_agrees_with_analysis_on_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        psi = la.random_state(4, rng).reshape(2, 2)
        u = la.haar_random_unitary(4, rng)
        basis = front(haar_basis(rng), u)
        rep = tp.analyze_state_teleport(psi, basis)
        xi = la.random_state(2, rng)
        r = sim.run_state_teleport(xi, psi, basis, rep.correction_inverses())
        for j in range(4):
            if rep.teleportable[j]:
                assert r.fidelities[j] > 1 - 1e-9
                assert abs(r.probabilities[j] - rep.probabilities[j]) < 1e-9


def test_t_gate_m2_with_symbolic_corrections():
    phi, xi = np.pi / 7, np.pi / 13
    sym = tp.table2_factors(phi, xi)
    corrections = tuple((a.conj().T, b.conj().T) for a, b in sym)
    rng = np.random.default_rng(10)
    for _ in range(5):
        ab = la.random_state(4, rng)
        r = sim.run_gate_teleport(ab, tp.t_gate(phi, xi), bases.m2_basis(), corrections)
        assert np.allclose(r.fidelities, 1.0, atol=1e-9)


def test_linearity_of_teleportation():
    # teleporting the superposition equals superposing teleported basis states
    basis = bases.bell_basis()
    rep = tp.analyze_gate_teleport(la.CNOT, basis)
    coeffs = la.random_state(4, 12)
    # fidelity of the superposed input is 1 on every outcome, which can
    # only happen if the per-outcome map acts linearly on the input
    r = sim.run_gate_teleport(coeffs, la.CNOT, basis, rep.correction_inverses())
    assert np.allclose(r.fidelities, 1.0, atol=1e-9)
    for e in range(4):
        unit = np.zeros(4, dtype=complex)
        unit[e] = 1.0
        r = sim.run_gate_teleport(unit, la.CNOT, basis, rep.correction_inverses())
        assert np.allclose(r.fidelities, 1.0, atol=1e-9)


_NAMED_GATES = (la.CNOT, la.SWAP, la.CZ, la.Q_GATE, la.R_GATE, tp.C_PI8, tp.EXP_YY, tp.t_gate(np.pi / 8, np.pi / 8))


@settings(max_examples=60)
@given(
    SEEDS,
    st.integers(1, 6),
    st.sampled_from(("haar", "named")),
    st.sampled_from(("bell", "m2", "random")),
    st.sampled_from((None, "report", "random")),
)
def test_stacked_gate_teleport_equals_single_runs(seed, k, gate_kind, basis_kind, corrections_kind):
    rng = np.random.default_rng(seed)
    gate = la.haar_random_unitary(4, rng) if gate_kind == "haar" else _NAMED_GATES[rng.integers(len(_NAMED_GATES))]
    if basis_kind == "random":
        basis = haar_basis(rng)
    else:
        basis = bases.bell_basis() if basis_kind == "bell" else bases.m2_basis()
    corrections = None
    if corrections_kind == "report":
        corrections = tp.analyze_gate_teleport(gate, basis).correction_inverses()
    elif corrections_kind == "random":
        corrections = np.array([
            (la.I2, la.I2) if rng.random() < 0.25 else (la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
            for _ in range(16)
        ])
    inputs = np.stack([la.random_state(4, rng) for _ in range(k)])

    stacked = sim.run_gate_teleport(inputs, gate, basis, corrections)
    singles = [sim.run_gate_teleport(psi, gate, basis, corrections) for psi in inputs]
    assert stacked.fidelities.shape == stacked.probabilities.shape == (k, 16)
    assert all(r.fidelities.shape == r.probabilities.shape == (16,) for r in singles)
    assert np.allclose(stacked.fidelities, [r.fidelities for r in singles], rtol=0, atol=1e-12)
    assert np.allclose(stacked.probabilities, [r.probabilities for r in singles], rtol=0, atol=1e-12)
