import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gateport import linalg as la
from gateport import bases, cli
from gateport import fourway as fw
from gateport import separability as sep
from gateport import simulator as sim
from gateport import teleport as tp
from gateport.kak import euler_zyz, nonlocal_gate, rot
from perfbench.workloads import catalogue
import reference as ref
from strategies import (ANGLES, BASES, BETA_AB_BASES, CAPABLE_BASES, CLIFFORD_1Q, DRESSED_GATES, HAAR_1Q,
                        HAAR_GATES, NAMED_BASES, QUARTERS, SEEDS, capable_basis, dressed, haar_local)


def test_bell_state_teleport_gives_pauli_corrections():
    rep = tp.analyze_state_teleport(tp.bell_resource(), bases.bell_basis())
    assert np.allclose(rep.probabilities, 0.25, atol=1e-12)
    assert rep.deterministic
    assert abs(rep.entanglement - 0.5) < 1e-12
    paulis = (la.I2, la.SX, la.SY, la.SZ)
    for v in rep.corrections:
        assert any(la.equal_up_to_global_phase(v, p, 1e-9) for p in paulis)


def test_disentangled_resource_teleports_nothing():
    rep = tp.analyze_state_teleport(np.diag([1.0, 0.0]), bases.bell_basis())
    assert not any(rep.teleportable)
    assert rep.entanglement == 0.0
    assert not rep.deterministic


def test_t_gate_matrix():
    assert np.allclose(tp.t_gate(0, 0), np.diag([1j, 1, 1, 1j]))
    t = tp.t_gate(0.3, 0.7)
    assert np.allclose(t, np.diag([1j, np.exp(0.3j), np.exp(0.7j), 1j * np.exp(1.0j)]))


def test_gate_report_shape_and_counts():
    rep = tp.analyze_gate_teleport(la.CNOT, bases.m2_basis())
    assert (rep.n_separable, rep.success_probability, rep.deterministic) == (8, 0.5, False)
    assert rep.separable.shape == (16,) and rep.corrections.shape == (16, 2, 2, 2)
    for ok, (a, b), w in zip(rep.separable, rep.corrections, rep.w_matrices):
        assert np.linalg.norm(la.tensor(a, b) - w) < 1e-8 if ok else np.array_equal([a, b], [la.I2, la.I2])


def _assert_gate_report(rep, u, basis):
    """rep holds the reference's W_jk and verdicts, and a pair whose kron is the reference's
    product (phase included) where a verdict holds, the identity pair elsewhere."""
    ws, teleports, pairs = ref.gate_outcomes(u, basis.vectors)
    assume(not any(map(ref.near_threshold, ws)))
    assert np.allclose(rep.w_matrices, ws, rtol=0, atol=1e-12)
    assert rep.separable.tolist() == teleports and rep.n_separable == sum(teleports)
    for ok, got, want in zip(teleports, rep.corrections, pairs):
        assert np.linalg.norm(la.tensor(*got) - la.tensor(*want)) < 1e-9 if ok else np.array_equal(got, [la.I2, la.I2])


_NAMED_GATES = {name: tp.NAMED_GATES[name]() for name in ("cnot", "c_pi8", "cnot_sqrt", "swap_sqrt", "exp_yy", "swap")}


def _gate(kind, seed, with_locals=True):
    """A Haar gate, or a named, t or quarter-pi lattice gate behind a Haar
    local pair (a left local factor keeps every separability verdict);
    with_locals=False leaves out the local pair."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return la.haar_random_unitary(4, rng)
    if kind == "t":
        core = tp.t_gate(*rng.uniform(-np.pi, np.pi, 2))
    elif kind == "lattice":
        core = nonlocal_gate(tuple(np.pi / 4 * rng.integers(-2, 3, 3)))
    else:
        core = _NAMED_GATES[kind]
    if not with_locals:
        return core
    return haar_local(rng) @ core


@settings(max_examples=80)
@given(st.sampled_from(["haar", "t", "lattice", *_NAMED_GATES]), SEEDS, BASES)
def test_batched_analysis_matches_per_outcome_loop(kind, seed, basis):
    u = _gate(kind, seed)
    _assert_gate_report(tp.analyze_gate_teleport(u, basis), u, basis)


# Metamorphic relations of the separable mask W_jk = U (b_j (x) b_k) U^dag.
# Named, t and lattice gates, bare or behind Haar locals, under the named and
# beta_ab bases keep most masks nontrivial, where Haar gates give all-False ones;
# cnot x m2 and cnot_sqrt x bell have masks that are not symmetric.  The
# relations hold for verdicts that rounding cannot flip: beta_ab at t = 1e-7
# puts a second Schmidt coefficient within 1e-16 of SEPARABLE_TOL.
def _far_from_threshold(report) -> bool:
    return bool((abs(sep.operator_schmidt(np.stack(report.w_matrices))[:, 1] - sep.SEPARABLE_TOL) > 1e-9).all())


_META_KINDS = st.sampled_from(["t", "lattice", *_NAMED_GATES])
_META_BASES = st.one_of(NAMED_BASES, BETA_AB_BASES)


@settings(max_examples=40)
@given(_META_KINDS, SEEDS, st.booleans(), _META_BASES, SEEDS)
@example("cnot", 0, False, bases.m2_basis(), 1)
def test_a_left_local_pair_keeps_the_mask_and_the_success_probability(kind, seed, with_locals, basis, local_seed):
    u = _gate(kind, seed, with_locals)
    rep, moved = tp.analyze_gate_teleport(u, basis), tp.analyze_gate_teleport(haar_local(local_seed) @ u, basis)
    assume(_far_from_threshold(rep))
    assert np.array_equal(moved.separable, rep.separable)
    assert moved.success_probability == rep.success_probability


@settings(max_examples=40)
@given(_META_KINDS, SEEDS, st.booleans(), _META_BASES, ANGLES)
@example("cnot_sqrt", 0, True, bases.bell_basis(), 1.0)
def test_a_global_phase_keeps_the_mask_and_the_corrections(kind, seed, with_locals, basis, phi):
    u = _gate(kind, seed, with_locals)
    rep, moved = tp.analyze_gate_teleport(u, basis), tp.analyze_gate_teleport(np.exp(1j * phi) * u, basis)
    assume(_far_from_threshold(rep))
    assert np.array_equal(moved.separable, rep.separable)
    for ok, got, want in zip(rep.separable, moved.corrections, rep.corrections):
        if ok:
            assert la.equal_up_to_global_phase(la.tensor(*got), la.tensor(*want), 1e-9)


@settings(max_examples=40)
@given(_META_KINDS, SEEDS, st.booleans(), _META_BASES)
@example("cnot", 0, True, bases.m2_basis())
@example("cnot_sqrt", 0, True, bases.bell_basis())
def test_swapping_the_qubits_transposes_the_mask(kind, seed, with_locals, basis):
    u = _gate(kind, seed, with_locals)
    rep, moved = tp.analyze_gate_teleport(u, basis), tp.analyze_gate_teleport(la.SWAP @ u @ la.SWAP, basis)
    assume(_far_from_threshold(rep))
    assert np.array_equal(np.reshape(moved.separable, (4, 4)), np.reshape(rep.separable, (4, 4)).T)


def test_gate_report_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tp.analyze_gate_teleport(np.diag([1, 1, 1, 0.5]).astype(complex), bases.bell_basis())


def test_invalid_basis_gives_zero_capability():
    vecs = tuple(np.eye(4, dtype=complex)[:, i] for i in range(4))
    basis = bases.MeasurementBasis(vecs, "computational")
    rep = tp.analyze_gate_teleport(la.CNOT, basis)
    assert rep.success_probability == 0.0
    assert not any(rep.separable)


_CATALOGUE_GATES = [make() for make in tp.NAMED_GATES.values()]


@settings(max_examples=40)
@given(
    st.one_of(st.sampled_from(_CATALOGUE_GATES), HAAR_GATES),
    st.floats(-12, -6).map(lambda e: 10.0**e),
    ANGLES,
)
# 1.6e-9 past pi/4: gate-form betas unitary within 1e-8, their products not within 1e-9.
@example(la.CNOT, 0.785398165 - np.pi / 4, 0.0)
@example(la.CZ, 1e-12, 0.3)
def test_near_maximally_entangled_bases_get_one_capability_verdict(gate, eps, t3):
    basis = bases.beta_nl_basis(np.pi / 4 + eps, 0.0, t3)
    rep = tp.analyze_gate_teleport(gate, basis)
    verdict = tp.theorem1_check(gate, basis)
    four = fw.analyze_fourway(gate, basis, la.random_state(4, 0))
    if not bases.validate_basis(basis).all_beta_unitary:
        assert rep.success_probability == 0
        assert not any(four.branch_xx_separable + four.branch_zz_separable)
        assert verdict.conclusion == "not_covered"


def test_table2_spot_entries():
    phi, xi = 0.3, 1.1
    factors = dict(zip(tp.PAIR_ORDER, tp.table2_factors(phi, xi)))
    P = np.diag([1, 1j]).astype(complex)
    assert np.allclose(factors[(0, 0)][0], P)
    assert np.allclose(factors[(0, 0)][1], -P)
    v_xi = np.array([[0, -1j * np.exp(-1j * xi)], [1j * np.exp(1j * xi), 0]])
    v_phi = np.array([[0, -1j * np.exp(-1j * phi)], [1j * np.exp(1j * phi), 0]])
    assert np.allclose(factors[(1, 1)][0], v_xi)
    assert np.allclose(factors[(1, 1)][1], v_phi)


def test_theorem1_swap_condition2():
    for basis in (bases.bell_basis(), bases.m1_basis(), bases.m2_basis()):
        v = tp.theorem1_check(la.SWAP, basis)
        assert v.condition2_met
        assert v.conclusion == "deterministic"


def test_theorem1_cnot():
    v = tp.theorem1_check(la.CNOT, bases.bell_basis())
    assert (v.condition1_met, v.conclusion, v.branch) == (True, "deterministic", "axis_x")
    v = tp.theorem1_check(la.CNOT, bases.m1_basis())
    assert v.conclusion == "not_covered"


@pytest.mark.parametrize("spec,basis", [("kak:0.7853981633974483,0.7853981633974483,0", "m2"),
                                        ("kak:0.7853981633974483,0,0.7853981633974483", "m1")])
def test_theorem1_covers_two_active_axes_by_the_inactive_one(spec, basis):
    """Two active axes, whose factors fix z but not x: all 16 outcomes teleport."""
    gate, basis = cli.resolve_gate(spec, la.DEFAULT_UNITARY_TOL), bases.NAMED_BASES[basis]()
    v = tp.theorem1_check(gate, basis)
    assert (v.condition1_met, v.conclusion, v.branch) == (True, "deterministic", "inactive_z")
    assert tp.analyze_gate_teleport(gate, basis).n_separable == 16


def test_basis_containing_identity_guarantees_one_outcome():
    # a gate_form matrix proportional to I makes W = I at that outcome,
    # so success is at least 1/16 for every gate
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = la.haar_random_unitary(4, rng)
        for basis in (bases.bell_basis(), capable_basis(rng)):
            rep = tp.analyze_gate_teleport(u, basis)
            assert rep.success_probability >= 1 / 16


def test_conjugation_group_preserves_basis_matrices():
    # gates (u_r^dag x u_r^dag) N (u_r x u_r) with swap-lattice N map the
    # induced matrix products b_j (x) b_k onto the same family up to phase
    rng = np.random.default_rng(5)
    u_r = la.haar_random_unitary(2, rng)
    basis = bases.conjugated_pauli_basis(u_r)
    mats = bases.beta_matrices(basis, convention="gate_form").mats
    urd = la.tensor(u_r.conj().T, u_r.conj().T)
    uru = la.tensor(u_r, u_r)
    for theta in ((np.pi / 4, 0, 0), (np.pi / 4, np.pi / 4, 0), (np.pi / 4, np.pi / 4, np.pi / 4)):
        g = urd @ nonlocal_gate(theta) @ uru
        for j in range(4):
            for k in range(4):
                w = g @ la.tensor(mats[j], mats[k]) @ g.conj().T
                hit = any(
                    la.equal_up_to_global_phase(w, la.tensor(mats[m], mats[n]), 1e-8)
                    for m in range(4)
                    for n in range(4)
                )
                assert hit, (theta, j, k)


_STRATIFIED = st.one_of(st.sampled_from([0.0, np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4]), ANGLES)
_CLIFFORDS = st.sampled_from(CLIFFORD_1Q)


@settings(max_examples=50)
@given(st.tuples(_STRATIFIED, _STRATIFIED, _STRATIFIED), HAAR_1Q, HAAR_1Q, _CLIFFORDS, _CLIFFORDS, ANGLES,
       st.one_of(st.just(bases.bell_basis()), _CLIFFORDS.map(bases.conjugated_pauli_basis)))
def test_bell_column_is_4_plus_4_choose_2_of_the_angles_on_the_quarter_lattice(theta, a, b, c, d, phi, basis):
    """N(theta) commutes with each sigma_a (x) sigma_a, and a Pauli pair sigma_j (x) sigma_k anticommutes
    with none or two of them, the set A_jk; so W_jk = (sigma_j (x) sigma_k) exp(-2i sum_{a in A_jk}
    theta_a sigma_a (x) sigma_a), a product exactly when each theta_a in A_jk is a multiple of pi/4.
    Four outcomes have A_jk empty and each pair of axes is A_jk of four: with m angles on that lattice,
    n_separable = 4 + 4 C(m, 2).  Haar locals on the left conjugate every W_jk by a local; Clifford
    locals on the right and a Clifford-conjugated Bell basis only permute the Pauli pairs."""
    r = np.remainder(theta, np.pi / 4)
    dist = np.minimum(r, np.pi / 4 - r)
    on = dist <= la.SEPARABLE_TOL / 10
    assume(np.all(on | (dist >= 10 * la.SEPARABLE_TOL)))  # a W_jk's second Schmidt coefficient is about 2 dist
    rep = tp.analyze_gate_teleport(dressed(theta, a, b, c, d, phi), basis)
    assert rep.n_separable == 4 + 4 * math.comb(on.sum(), 2)


THEOREM1_GATES = st.one_of(
    HAAR_GATES,
    st.sampled_from(_CATALOGUE_GATES),
    st.builds(tp.t_gate, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    st.sampled_from([0, np.pi / 8, np.pi / 4, np.pi / 2]).flatmap(
        lambda step: st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda ks: tp.t_gate(ks[0] * step, ks[1] * step))
    ),
    st.builds(nonlocal_gate, st.tuples(QUARTERS, QUARTERS, QUARTERS)),
    DRESSED_GATES,
)
THEOREM1_BASES = st.one_of(
    CAPABLE_BASES,
    st.builds(bases.beta_nl_basis, QUARTERS, QUARTERS, st.floats(-np.pi, np.pi)),
    # Within 1e-6 of maximally entangled, across the capability bound.
    st.builds(lambda e, t3: bases.beta_nl_basis(np.pi / 4 + e, 0.0, t3),
              st.floats(-12, -6).flatmap(lambda x: st.sampled_from([10.0**x, -(10.0**x)])), st.floats(-np.pi, np.pi)),
)


@settings(max_examples=150)
@given(THEOREM1_GATES, THEOREM1_BASES)
def test_theorem1_check_matches_per_matrix_reference(gate, basis):
    v = tp.theorem1_check(gate, basis)
    assert (v.conclusion, v.branch) == ref.theorem1(gate, basis.vectors)


def _on_lattice(angles) -> bool:
    r = np.asarray(angles) % np.pi
    return bool(np.all((r <= la.LATTICE_TOL) | (r >= np.pi - la.LATTICE_TOL)))


@settings(max_examples=50)
@given(ANGLES, st.integers(0, 1), ANGLES, st.integers(0, 1))
@example(0.3, 1, 0.0, 0)
@example(-2.0, 0, np.pi, 1)
def test_a_factor_on_the_y_lattice_passes_the_z_mask(phi, n, lam, m):
    """Why theorem1_check has no y branch (S, with lambda1 and lambda3 on the
    integer-pi lattice): a factor F whose S-conjugate is e^{i phi} Z^n Ry(lam) Z^m
    passes that mask, and its H-conjugate is diagonal or antidiagonal: F fixes x,
    so it passes axis_z."""
    z_n, z_m = np.linalg.matrix_power(la.SZ, n), np.linalg.matrix_power(la.SZ, m)
    f = la.dag(la.S) @ (np.exp(1j * phi) * z_n @ rot("y", lam) @ z_m) @ la.S
    y = euler_zyz(la.S @ f @ la.dag(la.S))
    assert _on_lattice([y.lambda1, y.lambda3])
    z = euler_zyz(la.H @ f @ la.dag(la.H))
    assert _on_lattice(z.lambda2)


_CATALOGUE_BASES = [cli.resolve_basis(spec, la.DEFAULT_UNITARY_TOL) for spec in catalogue()["all_bases"]]
_ANGLE_OR_QUARTER = st.one_of(QUARTERS, ANGLES)
# The gates of the CLI's spec families: Haar, t:phi,xi and kak:t1,t2,t3.
_SPEC_GATES = st.one_of(
    HAAR_GATES,
    st.tuples(_ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER).map(lambda a: tp.t_gate(*a)),
    st.tuples(_ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER).map(nonlocal_gate),
)


@settings(max_examples=30)
@given(_SPEC_GATES, st.sampled_from(_CATALOGUE_BASES), SEEDS)
@example(la.CNOT, bases.m2_basis(), 0)  # 8 of 16 outcomes separable
@example(la.CNOT, _CATALOGUE_BASES[catalogue()["all_bases"].index("beta_nl:0.3,0.1,0")], 0)  # the early exit
def test_report_arrays_match_the_per_outcome_reference(u, basis, seed):
    """The gate and four-way reports' arrays are the reference's answers, with the identity
    (a zero state for a four-way output) where an outcome has none; correction_inverses()
    inverts the corrections, which the oracle scores as the dense-projector circuit does."""
    rng = np.random.default_rng(seed)
    rep = tp.analyze_gate_teleport(u, basis)
    _assert_gate_report(rep, u, basis)
    inverses = rep.correction_inverses()
    assert np.allclose(inverses @ rep.corrections, la.I2, rtol=0, atol=1e-12)
    ab = la.random_state(4, rng)
    got = sim.run_gate_teleport(ab, u, basis, inverses)
    want = ref.gate_circuit(ab, u, basis.vectors, inverses)
    assert np.allclose((got.fidelities, got.probabilities), want, rtol=0, atol=1e-12)

    psi_ab = la.random_state(4, rng)
    four = fw.analyze_fourway(u, basis, psi_ab)
    want = ref.fourway_outcomes(u, basis.vectors, psi_ab)
    assume(not want.pop("near_threshold"))
    for name, value in want.items():
        got = getattr(four, name)
        assert got.tolist() == value if got.dtype == bool else np.allclose(got, value, rtol=0, atol=1e-12), name
    assert not four.output_states[four.probabilities <= la.PROBABILITY_FLOOR].any()
    assert four.max_corrected_fidelity == four.fidelities_corrected.max()
