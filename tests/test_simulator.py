import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gateport import linalg as la
from gateport import bases
from gateport import simulator as sim
from gateport import teleport as tp
import reference as ref
from strategies import SEEDS, capable_basis, front, haar_basis


def test_register_guards():
    xi = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="width"):
        sim.register_from([np.ones(2**9, dtype=complex) / 2**4.5])
    with pytest.raises(ValueError, match="width"):
        sim.register_from([np.ones(3, dtype=complex) / np.sqrt(3)])
    with pytest.raises(ValueError, match="normalized"):
        sim.register_from([2.0 * xi])


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


@settings(max_examples=60)
@given(st.sampled_from(CIRCUIT_PAIRS), SEEDS, st.booleans())
def test_project_outcomes_matches_per_outcome_loop(layout, seed, reverse_pairs):
    n, pairs = layout
    if reverse_pairs:
        pairs = tuple(pair[::-1] for pair in reversed(pairs))
    rng = np.random.default_rng(seed)
    state = la.random_state(2**n, rng)
    basis = haar_basis(rng)
    got = sim.project_outcomes(state, pairs, basis)
    assert got.shape == (4 ** len(pairs), 2 ** (n - 2 * len(pairs)))
    assert np.allclose(got, ref.measure(state, pairs, basis.vectors), rtol=0, atol=1e-12)
    assert abs((np.abs(got) ** 2).sum() - 1) < 1e-12


@settings(max_examples=40)
@given(st.sampled_from(CIRCUIT_PAIRS), SEEDS, st.integers(1, 3))
def test_project_outcomes_matches_per_outcome_loop_on_a_stack(layout, seed, k):
    n, pairs = layout
    rng = np.random.default_rng(seed)
    states = np.stack([la.random_state(2**n, rng) for _ in range(k)])
    basis = haar_basis(rng)
    got = sim.project_outcomes(states, pairs, basis)
    assert got.shape == (k, 4 ** len(pairs), 2 ** (n - 2 * len(pairs)))
    for state, rows in zip(states, got):
        assert np.allclose(rows, ref.measure(state, pairs, basis.vectors), rtol=0, atol=1e-12)


def test_project_outcomes_rejects_overlapping_pairs():
    state = la.random_state(8, 0)
    for pairs in (((0, 0),), ((0, 1), (1, 2)), ((0, 3),)):
        with pytest.raises(ValueError):
            sim.project_outcomes(state, pairs, bases.bell_basis())


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


def test_outcome_distribution_uniform_and_normalized():
    ab = la.random_state(4, np.random.default_rng(11))
    for basis in (bases.bell_basis(), bases.m1_basis(), bases.m2_basis()):
        d = sim.outcome_distribution(ab, la.CNOT, basis)
        assert abs(d.sum() - 1) < 1e-9
        assert np.allclose(d, 1 / 16, atol=1e-9)


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


def test_gate_oracle_matches_analysis_on_random_valid_bases():
    rng = np.random.default_rng(13)
    for _ in range(10):
        basis = capable_basis(rng)
        gate = la.haar_random_unitary(4, rng)
        rep = tp.analyze_gate_teleport(gate, basis)
        r = sim.run_gate_teleport(la.random_state(4, rng), gate, basis, rep.correction_inverses())
        assert ((r.fidelities >= 1 - 1e-9) == rep.separable).all()


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


@pytest.mark.parametrize("shape", [(4,), (1, 4), (4, 1), (2, 2, 1)])
def test_a_resource_that_is_not_2x2_is_rejected(shape):
    """Both the analysis and the oracle reject a resource psi of another
    shape with one line, before any matmul or register is built."""
    psi = np.reshape(tp.bell_resource(), shape)
    for call in (lambda: tp.analyze_state_teleport(psi, bases.bell_basis()),
                 lambda: sim.run_state_teleport(la.random_state(2, 1), psi, bases.bell_basis())):
        with pytest.raises(ValueError, match=r"^resource state must be a 2x2 coefficient matrix, got shape") as e:
            call()
        assert "\n" not in str(e.value)


def test_corrections_of_another_shape_are_rejected():
    xi, ab = la.random_state(2, 1), la.random_state(4, 2)
    for bad in (la.I2, np.stack([la.I2] * 3), np.zeros((16, 2, 2)), np.zeros((4, 2, 2, 2))):
        with pytest.raises(ValueError, match=r"^corrections must be a \(4, 2, 2\) stack"):
            sim.run_state_teleport(xi, tp.bell_resource(), bases.bell_basis(), bad)
    for bad in (np.zeros((16, 2, 2)), np.zeros((16, 4, 4)), np.zeros((4, 2, 2, 2)), np.zeros((2, 16, 2, 2))):
        with pytest.raises(ValueError, match=r"^corrections must be a \(16, 2, 2, 2\) stack"):
            sim.run_gate_teleport(ab, la.CNOT, bases.bell_basis(), bad)


def test_gate_teleport_rejects_bad_input_shapes_and_norms():
    psi = la.random_state(4, 15)
    for bad in (psi[:3], np.stack([[psi]]), np.stack([psi, 2 * psi])):
        with pytest.raises(ValueError):
            sim.run_gate_teleport(bad, la.CNOT, bases.bell_basis())
