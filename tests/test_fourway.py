import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gateport import linalg as la
from gateport import bases, cli
from gateport import fourway as fw
from gateport import teleport as tp
from perfbench.workloads import catalogue
import reference as ref
from strategies import CAPABLE_BASES, HAAR_GATES, SEEDS, beta_ab

SXX = la.tensor(la.SX, la.SX)
SZZ = la.tensor(la.SZ, la.SZ)


def test_chi_amplitudes():
    chi = fw.chi_state()
    amp = 1 / (2 * np.sqrt(2))
    assert abs(np.linalg.norm(chi) - 1) < 1e-15
    assert abs(chi[0b0011] - (-amp)) < 1e-15
    assert abs(chi[0b0101] - (-amp)) < 1e-15
    assert chi[0b0001] == 0
    for idx in (0b0000, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111):
        assert abs(chi[idx] - amp) < 1e-15


def test_u1_gate():
    u1 = fw.u1_gate()
    assert u1[2, 2] == -1
    assert np.allclose(u1, u1.conj().T)
    assert np.allclose(u1 @ u1, np.eye(4))


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    rep = fw.analyze_fourway(la.CNOT, bases.m2_basis(), la.random_state(4, rng))
    assert abs(sum(rep.probabilities) - 1) < 1e-9


def test_branch_operators_unitary_for_valid_bases():
    rng = np.random.default_rng(2)
    u = la.haar_random_unitary(4, rng) @ fw.u1_gate()
    gf = bases.beta_matrices(bases.m2_basis(), None, "gate_form").mats
    for j, k in tp.PAIR_ORDER:
        for sig in (SXX, SZZ):
            branch = u @ sig @ la.tensor(gf[j], gf[k]) @ u.conj().T
            assert la.is_unitary(branch, 1e-9)


def test_every_outcome_maps_the_input_through_a_rank_two_operator():
    """Before the gate, outcome (j, k) maps the input through U1 (XX + ZZ)(b_j (x) b_k) / (4 sqrt 2):
    rank 2 at most, singular values (1, 1, 0, 0) / (2 sqrt 2) where every b_j is unitary."""
    for spec in catalogue()["all_bases"]:
        basis = cli.resolve_basis(spec, la.DEFAULT_UNITARY_TOL)
        maps = np.stack([fw._conditional_states(e, basis) for e in la.I4], axis=-1)  # (16, 4, 4)
        s = np.linalg.svd(maps, compute_uv=False)
        assert (s[:, 2:] <= 1e-12).all(), spec
        if bases.validate_basis(basis).all_beta_unitary:
            assert np.allclose(s[:, :2], 1 / (2 * np.sqrt(2)), rtol=0, atol=1e-12), spec


def test_an_outcome_at_the_probability_floor_gets_a_zero_row():
    """An input 1e-7 from the kernel of outcome (2, 3)'s map U1 (XX + ZZ)(b_2 (x) b_3), that is from
    (b_2 (x) b_3)^dag Phi-, gives the outcome probability sin(1e-7)^2 / 8, under the floor: it never
    occurs, so its output row is zero and its raw fidelity 0, not those of the normalized residual.
    (In the kernel itself the residual can round to exactly zero, and would show nothing.)"""
    basis = bases.m2_basis()
    b = bases.gate_betas(basis)
    phi_minus, phi_plus = np.array([1, 0, 0, -1]) / np.sqrt(2), np.array([1, 0, 0, 1]) / np.sqrt(2)
    psi = la.dag(la.tensor(b[1], b[2])) @ (np.cos(1e-7) * phi_minus + np.sin(1e-7) * phi_plus)
    rep = fw.analyze_fourway(tp.C_PI8, basis, psi)
    assert 0 < rep.probabilities[6] <= la.PROBABILITY_FLOOR
    assert not rep.output_states[6].any()
    assert rep.fidelities_raw[6] == 0.0


@pytest.mark.parametrize("gate", [tp.t_gate(0.3287, 1.6594), la.CZ, la.CNOT], ids=["t", "cz", "cnot"])
def test_a_gate_within_the_unitary_tolerance_gets_the_exact_gates_verdicts(gate):
    """Scaled by 1 + 2.25e-10, the gate is 9e-10 from unitary (||u^dag u - I||_F), within
    DEFAULT_UNITARY_TOL, and its 32 branch operators about twice that: the analysis takes it, with
    the exact gate's verdicts and its fidelities times (1 + 2.25e-10)^2."""
    psi = la.random_state(4, 1)
    near, exact = (fw.analyze_fourway(u, bases.bell_basis(), psi) for u in (gate * (1 + 2.25e-10), gate))
    assert near.branch_xx_separable.tolist() == exact.branch_xx_separable.tolist()
    assert near.branch_zz_separable.tolist() == exact.branch_zz_separable.tolist()
    assert near.clifford_case == exact.clifford_case
    assert np.allclose(near.fidelities_corrected, exact.fidelities_corrected, rtol=0, atol=1e-9)


def test_invalid_basis_reports_no_separability():
    vecs = tuple(np.eye(4, dtype=complex)[:, i] for i in range(4))
    basis = bases.MeasurementBasis(vecs, "computational")
    rep = fw.analyze_fourway(la.CNOT, basis, la.random_state(4, 4))
    assert not any(rep.branch_xx_separable)
    assert not any(rep.branch_zz_separable)


FOURWAY_GATES = st.one_of(
    HAAR_GATES,
    st.sampled_from([la.CNOT, la.SWAP, la.CZ, tp.C_PI8, tp.EXP_YY, la.principal_sqrt(la.SWAP)]),
    st.builds(tp.t_gate, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    # Clifford gates whose full U = U_T U1 is Clifford
    st.sampled_from([la.CNOT, la.CZ, la.SWAP]).map(lambda g: g @ fw.u1_gate()),
)
FOURWAY_BASES = st.one_of(
    CAPABLE_BASES,
    st.builds(bases.beta_nl_basis, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    # invalid: product basis vectors
    st.just(bases.MeasurementBasis(tuple(np.eye(4, dtype=complex)), "computational")),
)


@settings(max_examples=60)
@given(FOURWAY_GATES, FOURWAY_BASES, SEEDS)
# Branches separable only within the tolerance (second Schmidt
# coefficient about 1e-9): their own inverses would miss this reference
# by about 3e-10.
@example(la.haar_random_unitary(4, 0), beta_ab(5e-9), 1)
def test_fourway_matches_per_branch_reference(u_t, basis, seed):
    psi = la.random_state(4, seed)
    rep = fw.analyze_fourway(u_t, basis, psi)
    want = ref.fourway_outcomes(u_t, basis.vectors, psi)
    assume(not want["near_threshold"])
    assert rep.branch_xx_separable.tolist() == want["branch_xx_separable"]
    assert rep.branch_zz_separable.tolist() == want["branch_zz_separable"]
    assert np.allclose(rep.fidelities_corrected, want["fidelities_corrected"], rtol=0, atol=1e-12)
    if rep.clifford_case:
        assert all(rep.branch_xx_separable) and all(rep.branch_zz_separable)
