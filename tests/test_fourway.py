import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gateport import linalg as la
from gateport import bases
from gateport import fourway as fw
from gateport import separability as sep
from gateport import teleport as tp

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


def test_chi_single_qubit_marginals_maximally_mixed():
    chi = fw.chi_state().reshape(2, 2, 2, 2)
    for q in range(4):
        axes = tuple(a for a in range(4) if a != q)
        rho = np.tensordot(chi, chi.conj(), axes=(axes, axes))
        assert np.allclose(np.linalg.eigvalsh(rho), 0.5, atol=1e-12)


def test_u1_gate():
    u1 = fw.u1_gate()
    assert u1[2, 2] == -1
    assert np.allclose(u1, u1.conj().T)
    assert np.allclose(u1 @ u1, np.eye(4))


def test_conditional_state_structure():
    # simulated conditional = U1 (sigma_XX + sigma_ZZ) b_jk |psi> / (4 sqrt 2)
    rng = np.random.default_rng(0)
    kernel = fw.u1_gate() @ (SXX + SZZ)
    for basis in (bases.bell_basis(), bases.m1_basis(), bases.m2_basis()):
        gf = bases.beta_matrices(basis, None, "gate_form").mats
        for _ in range(3):
            psi = la.random_state(4, rng)
            conds = fw._conditional_states(psi, basis)
            for idx, (j, k) in enumerate(tp.PAIR_ORDER):
                ref = kernel @ la.tensor(gf[j], gf[k]) @ psi / (4 * np.sqrt(2))
                assert np.linalg.norm(conds[idx] - ref) < 1e-9


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


def test_generic_gate_never_reaches_unit_fidelity():
    rng = np.random.default_rng(3)
    for _ in range(3):
        rep = fw.analyze_fourway(tp.C_PI8, bases.bell_basis(), la.random_state(4, rng))
        assert rep.max_corrected_fidelity < 1 - 1e-3
        assert not rep.clifford_case


def test_clifford_bell_case_two_term_pauli_superposition():
    u_t = la.CNOT @ fw.u1_gate()
    big_u = u_t @ fw.u1_gate()
    assert np.allclose(big_u, la.CNOT)
    psi = big_u.conj().T @ np.array([1, 0, 0, 0], dtype=complex)
    rep = fw.analyze_fourway(u_t, bases.bell_basis(), psi)
    assert rep.clifford_case
    assert all(rep.branch_xx_separable) and all(rep.branch_zz_separable)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    gf = bases.beta_matrices(bases.bell_basis(), None, "gate_form").mats
    for idx, (j, k) in enumerate(tp.PAIR_ORDER):
        out = rep.output_states[idx]
        if out is None:
            continue
        assert rep.branch_xx_pauli[idx] is not None
        assert rep.branch_zz_pauli[idx] is not None
        bjk = la.tensor(gf[j], gf[k])
        bxx = big_u @ SXX @ bjk @ big_u.conj().T
        bzz = big_u @ SZZ @ bjk @ big_u.conj().T
        ref = (bxx + bzz) @ e00
        ref /= np.linalg.norm(ref)
        assert abs(abs(np.vdot(ref, out)) - 1) < 1e-9
        # equal-weight branches: the two Pauli-rotated components carry
        # amplitude 1/sqrt(2) each whenever they are orthogonal
        sx, sz = bxx @ e00, bzz @ e00
        if abs(np.vdot(sx, sz)) < 1e-9:
            assert abs(abs(np.vdot(sx, out)) - 1 / np.sqrt(2)) < 1e-9
            assert abs(abs(np.vdot(sz, out)) - 1 / np.sqrt(2)) < 1e-9


def test_invalid_basis_reports_no_separability():
    vecs = tuple(np.eye(4, dtype=complex)[:, i] for i in range(4))
    basis = bases.MeasurementBasis(vecs, "computational")
    rep = fw.analyze_fourway(la.CNOT, basis, la.random_state(4, 4))
    assert not any(rep.branch_xx_separable)
    assert not any(rep.branch_zz_separable)


def _fourway_reference(u_t, basis, psi):
    """Branch verdicts from one tensor_factorize call per branch, and
    corrected fidelities from undoing each separable branch with the
    inverse of its extracted factors, one outcome at a time."""
    u = u_t @ fw.u1_gate()
    gf = bases.beta_matrices(basis, None, "gate_form").mats
    valid = la.is_unitary(np.stack(gf), 1e-8)
    conds = fw._conditional_states(psi, basis)
    target = u_t @ psi
    flags, fids = [], []
    for idx, (j, k) in enumerate(tp.PAIR_ORDER):
        bjk = la.tensor(gf[j], gf[k])
        undo = [la.I4]
        for sig in (SXX, SZZ):
            f = sep.tensor_factorize(u @ sig @ bjk @ u.conj().T) if valid else None
            flags.append(f is not None and f.separable)
            undo.append(la.tensor(f.factor_a, f.factor_b).conj().T if flags[-1] else la.I4)
        p = np.vdot(conds[idx], conds[idx]).real
        outs = [m @ u_t @ conds[idx] / np.sqrt(p) for m in undo] if p > 1e-12 else []
        fids.append(max((abs(np.vdot(target, out)) ** 2 for out in outs), default=0.0))
    return flags[0::2], flags[1::2], fids


FOURWAY_GATES = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: la.haar_random_unitary(4, seed)),
    st.sampled_from([la.CNOT, la.SWAP, la.CZ, tp.C_PI8, tp.EXP_YY, la.principal_sqrt(la.SWAP)]),
    st.builds(tp.t_gate, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    # Clifford gates whose full U = U_T U1 is Clifford
    st.sampled_from([la.CNOT, la.CZ, la.SWAP]).map(lambda g: g @ fw.u1_gate()),
)
FOURWAY_BASES = st.one_of(
    st.sampled_from([bases.bell_basis(), bases.m1_basis(), bases.m2_basis()]),
    st.sampled_from([la.I2, la.H, la.S]).map(bases.conjugated_pauli_basis),
    st.floats(0, 2 * np.pi).map(lambda t: bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))),
    st.builds(bases.beta_nl_basis, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    # invalid: product basis vectors
    st.just(bases.MeasurementBasis(tuple(np.eye(4, dtype=complex)), "computational")),
)


@settings(max_examples=60, deadline=None)
@given(FOURWAY_GATES, FOURWAY_BASES, st.integers(0, 2**32 - 1))
# Branches separable only within the tolerance (second Schmidt
# coefficient about 1e-9): their own inverses would miss this reference
# by about 3e-10.
@example(la.haar_random_unitary(4, 0), bases.beta_ab_basis(np.cos(5e-9) / np.sqrt(2), np.sin(5e-9) / np.sqrt(2)), 1)
def test_fourway_matches_per_branch_reference(u_t, basis, seed):
    psi = la.random_state(4, seed)
    rep = fw.analyze_fourway(u_t, basis, psi)
    xx, zz, fids = _fourway_reference(u_t, basis, psi)
    assert rep.branch_xx_separable == tuple(xx)
    assert rep.branch_zz_separable == tuple(zz)
    assert np.allclose(rep.fidelities_corrected, fids, rtol=0, atol=1e-12)
    if rep.clifford_case:
        assert all(xx) and all(zz)
