import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gateport import linalg as la
from gateport import bases, cli
from gateport import fourway as fw
from gateport import separability as sep
from gateport import simulator as sim
from gateport import teleport as tp
from gateport.kak import euler_zyz, is_clifford, nonlocal_gate, rot
from perfbench.workloads import catalogue


def _random_basis(rng):
    u = la.haar_random_unitary(4, rng)
    return bases.MeasurementBasis(tuple(u[:, i] for i in range(4)), "random")


def _front(basis, u):
    """The basis {U^dag b_j}: measuring it is applying U, then measuring `basis`."""
    return bases.MeasurementBasis(basis.vectors @ u.conj(), basis.name)


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


def test_shifted_basis_correction_inverses():
    # front gate (H x I) C_pi8 with the matching phase-shifted column basis
    u = la.tensor(la.H, la.I2) @ tp.C_PI8
    basis = _front(bases.phase_paired_basis(u, np.exp(1j * np.pi / 4), 1j), u)
    rep = tp.analyze_state_teleport(tp.bell_resource(), basis)
    assert rep.deterministic
    targets = (tp.PI8 @ la.SZ, tp.PI8, la.SX @ la.S @ la.SZ, la.SX @ la.S)
    for got, want in zip(rep.correction_inverses(), targets):
        assert np.allclose(got, want, atol=1e-10)


def test_state_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        psi = la.random_state(4, rng).reshape(2, 2)
        u = la.haar_random_unitary(4, rng)
        rep = tp.analyze_state_teleport(psi, _front(_random_basis(rng), u))
        assert abs(sum(rep.probabilities) - 1.0) < 1e-9


def test_uniform_probabilities_for_maximally_entangled_resource():
    rng = np.random.default_rng(1)
    for _ in range(50):
        psi = la.haar_random_unitary(2, rng) / np.sqrt(2)
        basis = bases.conjugated_pauli_basis(la.haar_random_unitary(2, rng))
        rep = tp.analyze_state_teleport(psi, _front(basis, la.haar_random_unitary(4, rng)))
        assert np.allclose(rep.probabilities, 0.25, atol=1e-9)


def test_t_gate_matrix():
    assert np.allclose(tp.t_gate(0, 0), np.diag([1j, 1, 1, 1j]))
    t = tp.t_gate(0.3, 0.7)
    assert np.allclose(t, np.diag([1j, np.exp(0.3j), np.exp(0.7j), 1j * np.exp(1.0j)]))


@pytest.mark.parametrize("phi,xi", [(np.pi / 8, np.pi / 8), (np.pi / 7, np.pi / 13)])
def test_t_gates_non_clifford_but_deterministic(phi, xi):
    t = tp.t_gate(phi, xi)
    assert not is_clifford(t)
    assert tp.analyze_gate_teleport(t, bases.bell_basis()).success_probability == 1.0
    assert tp.analyze_gate_teleport(t, bases.m2_basis()).success_probability == 1.0
    assert tp.analyze_gate_teleport(t, bases.m1_basis()).success_probability == 0.0


def test_table1():
    table = tp.reproduce_table1()
    expected = np.array(
        [[1, 0, 0.5], [0.5, 0, 0.5], [0.5, 0, 0.25], [0.25, 0.25, 0.25], [1, 1, 0.25]]
    )
    assert np.allclose(table, expected, atol=1e-12)
    assert np.allclose(table * 16, np.round(table * 16))


def test_gate_report_shape_and_counts():
    rep = tp.analyze_gate_teleport(la.CNOT, bases.m2_basis())
    assert rep.n_separable == 8
    assert rep.success_probability == 0.5
    assert not rep.deterministic
    assert rep.separable.shape == (16,) and rep.corrections.shape == (16, 2, 2, 2)
    for idx in range(16):
        a, b = rep.corrections[idx]
        if rep.separable[idx]:
            assert np.linalg.norm(la.tensor(a, b) - rep.w_matrices[idx]) < 1e-8
        else:
            assert np.array_equal(a, la.I2) and np.array_equal(b, la.I2)


def _reference_gate_analysis(u, basis):
    """The per-outcome loop: one tensor_factorize per outcome (j, k)."""
    betas = bases.beta_matrices(basis, None, "gate_form").mats
    if not all(la.is_unitary(b, 1e-8) for b in betas):
        return (False,) * 16, (None,) * 16
    separable, corrections = [], []
    for j, k in tp.PAIR_ORDER:
        f = sep.tensor_factorize(u @ la.tensor(betas[j], betas[k]) @ la.dag(u))
        separable.append(f.separable)
        corrections.append((np.exp(1j * f.phase) * f.factor_a, f.factor_b) if f.separable else None)
    return tuple(separable), tuple(corrections)


_NAMED_GATES = {
    "cnot": la.CNOT,
    "c_pi8": tp.C_PI8,
    "cnot_sqrt": la.principal_sqrt(la.CNOT),
    "swap_sqrt": la.principal_sqrt(la.SWAP),
    "exp_yy": tp.EXP_YY,
    "swap": la.SWAP,
}


def _gate(kind, seed, dressed=True):
    """A Haar gate, or a named, t or quarter-pi lattice gate behind a Haar
    local pair (a left local factor keeps every separability verdict);
    dressed=False leaves out the local pair."""
    rng = np.random.default_rng(seed)
    if kind == "haar":
        return la.haar_random_unitary(4, rng)
    if kind == "t":
        core = tp.t_gate(*rng.uniform(-np.pi, np.pi, 2))
    elif kind == "lattice":
        core = nonlocal_gate(tuple(np.pi / 4 * rng.integers(-2, 3, 3)))
    else:
        core = _NAMED_GATES[kind]
    if not dressed:
        return core
    return la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng)) @ core


_QUARTERS = st.integers(min_value=-4, max_value=4).map(lambda n: n * np.pi / 4)
_ANGLES = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
_BASES = st.one_of(
    _ANGLES.map(lambda t: bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))),
    st.tuples(_QUARTERS, _QUARTERS, _ANGLES).map(lambda t: bases.beta_nl_basis(*t)),
    st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: bases.conjugated_pauli_basis(la.haar_random_unitary(2, seed))
    ),
    st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: _random_basis(np.random.default_rng(seed))),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["haar", "t", "lattice", *_NAMED_GATES]),
    st.integers(min_value=0, max_value=2**32 - 1),
    _BASES,
)
def test_batched_analysis_matches_per_outcome_loop(kind, seed, basis):
    u = _gate(kind, seed)
    rep = tp.analyze_gate_teleport(u, basis)
    separable, corrections = _reference_gate_analysis(u, basis)
    assert rep.separable.tolist() == list(separable)
    assert rep.n_separable == sum(separable)
    for ok, got, ref in zip(separable, rep.corrections, corrections):
        if ok:
            assert la.equal_up_to_global_phase(la.tensor(*got), la.tensor(*ref), 1e-9)
        else:
            assert np.array_equal(got, [la.I2, la.I2])


# Metamorphic relations of the separable mask W_jk = U (b_j (x) b_k) U^dag.
# Named, t and lattice gates, bare or behind Haar locals, under the named and
# beta_ab bases keep most masks nontrivial, where Haar gates give all-False ones;
# cnot x m2 and cnot_sqrt x bell have masks that are not symmetric.  The
# relations hold for verdicts that rounding cannot flip: beta_ab at t = 1e-7
# puts a second Schmidt coefficient within 1e-16 of SEPARABLE_TOL.
def _far_from_threshold(report) -> bool:
    return bool((abs(sep.operator_schmidt(np.stack(report.w_matrices))[:, 1] - sep.SEPARABLE_TOL) > 1e-9).all())


_META_KINDS = st.sampled_from(["t", "lattice", *_NAMED_GATES])
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_META_BASES = st.one_of(
    st.sampled_from([bases.bell_basis(), bases.m1_basis(), bases.m2_basis()]),
    _ANGLES.map(lambda t: bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))),
)


@settings(max_examples=40, deadline=None)
@given(_META_KINDS, _SEEDS, st.booleans(), _META_BASES, _SEEDS)
@example("cnot", 0, False, bases.m2_basis(), 1)
def test_a_left_local_pair_keeps_the_mask_and_the_success_probability(kind, seed, dressed, basis, local_seed):
    u = _gate(kind, seed, dressed)
    rng = np.random.default_rng(local_seed)
    front = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
    rep, moved = tp.analyze_gate_teleport(u, basis), tp.analyze_gate_teleport(front @ u, basis)
    assume(_far_from_threshold(rep))
    assert np.array_equal(moved.separable, rep.separable)
    assert moved.success_probability == rep.success_probability


@settings(max_examples=40, deadline=None)
@given(_META_KINDS, _SEEDS, st.booleans(), _META_BASES, _ANGLES)
@example("cnot_sqrt", 0, True, bases.bell_basis(), 1.0)
def test_a_global_phase_keeps_the_mask_and_the_corrections(kind, seed, dressed, basis, phi):
    u = _gate(kind, seed, dressed)
    rep, moved = tp.analyze_gate_teleport(u, basis), tp.analyze_gate_teleport(np.exp(1j * phi) * u, basis)
    assume(_far_from_threshold(rep))
    assert np.array_equal(moved.separable, rep.separable)
    for ok, got, ref in zip(rep.separable, moved.corrections, rep.corrections):
        if ok:
            assert la.equal_up_to_global_phase(la.tensor(*got), la.tensor(*ref), 1e-9)


@settings(max_examples=40, deadline=None)
@given(_META_KINDS, _SEEDS, st.booleans(), _META_BASES)
@example("cnot", 0, True, bases.m2_basis())
@example("cnot_sqrt", 0, True, bases.bell_basis())
def test_swapping_the_qubits_transposes_the_mask(kind, seed, dressed, basis):
    u = _gate(kind, seed, dressed)
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


_CATALOGUE_GATES = [la.CNOT, la.SWAP, la.Q_GATE, la.R_GATE, la.CZ, tp.C_PI8, tp.EXP_YY,
                    la.principal_sqrt(la.CNOT), la.principal_sqrt(la.SWAP)]


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(_CATALOGUE_GATES), st.integers(0, 2**32 - 1).map(lambda s: la.haar_random_unitary(4, s))),
    st.floats(-12, -6).map(lambda e: 10.0**e),
    _ANGLES,
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


def test_swap_family_deterministic_under_any_valid_basis():
    rng = np.random.default_rng(2)
    for g in (la.SWAP, la.Q_GATE, la.R_GATE):
        for basis in (
            bases.bell_basis(),
            bases.m1_basis(),
            bases.m2_basis(),
            bases.conjugated_pauli_basis(la.haar_random_unitary(2, rng)),
        ):
            assert tp.analyze_gate_teleport(g, basis).deterministic


def test_table2_matches_numeric_factorization():
    for phi, xi in ((np.pi / 8, np.pi / 8), (np.pi / 7, np.pi / 13), (0.449, 0.242)):
        rep = tp.analyze_gate_teleport(tp.t_gate(phi, xi), bases.m2_basis())
        assert rep.deterministic
        for corr, (sa, sb) in zip(rep.corrections, tp.table2_factors(phi, xi)):
            num = la.tensor(corr[0], corr[1])
            sym = la.tensor(sa, sb)
            assert la.equal_up_to_global_phase(num, sym, 1e-8)


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
    assert v.condition1_met and v.conclusion == "deterministic"
    assert v.quarter_k == (0, None, None)
    v = tp.theorem1_check(la.CNOT, bases.m1_basis())
    assert v.conclusion == "not_covered"


def test_theorem1_soundness_reference_configs():
    # deterministic verdict must imply enumerated success 1
    rng = np.random.default_rng(3)
    configs = [
        (la.CNOT, bases.bell_basis()),
        (la.CNOT, bases.m1_basis()),
        (la.CNOT, bases.m2_basis()),
        (tp.C_PI8, bases.bell_basis()),
        (tp.t_gate(np.pi / 8, np.pi / 8), bases.bell_basis()),
        (tp.t_gate(np.pi / 8, np.pi / 8), bases.m2_basis()),
        (tp.EXP_YY, bases.m1_basis()),
        (la.SWAP, bases.conjugated_pauli_basis(la.haar_random_unitary(2, rng))),
        (la.principal_sqrt(la.SWAP), bases.m1_basis()),
    ]
    for gate, basis in configs:
        v = tp.theorem1_check(gate, basis)
        if v.conclusion == "deterministic":
            assert tp.analyze_gate_teleport(gate, basis).deterministic, basis.name


def test_basis_containing_identity_guarantees_one_outcome():
    # a gate_form matrix proportional to I makes W = I at that outcome,
    # so success is at least 1/16 for every gate
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = la.haar_random_unitary(4, rng)
        for basis in (bases.bell_basis(), bases.conjugated_pauli_basis(la.haar_random_unitary(2, rng))):
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


def _theorem1_reference(u_t, basis):
    """theorem1_check's condition 1 and witnesses, one euler_zyz call per
    conjugated basis matrix, trying the axis representatives in order."""
    from gateport.kak import classify_nonlocal, euler_zyz, kak_decompose

    tol = 1e-8  # the Euler-angle lattice tolerance
    masks = {"x": (True, True, True), "z": (False, True, False), "y": (True, False, True)}
    d = kak_decompose(u_t)
    cls = classify_nonlocal(d.theta)
    quarter_k = tuple(
        int(np.rint((t / (np.pi / 4) - 1) / 2)) if q else None for t, q in zip(d.theta, cls.odd_quarter_pi)
    )
    gate_betas = bases.beta_matrices(basis, None, "gate_form").mats
    # Capability: every product b_j (x) b_k of the gate-form betas unitary within 1e-9.
    valid = all(la.is_unitary(np.kron(a, b), 1e-9) for a in gate_betas for b in gate_betas)
    condition2 = cls.is_swap_point and valid

    def witness(m, mask):
        e = euler_zyz(m)
        out = []
        for constrained, ang in zip(mask, (e.lambda1, e.lambda2, e.lambda3)):
            r = ang % np.pi
            if constrained and not (r <= tol or r >= np.pi - tol):
                return None
            out.append(int(np.rint(ang / np.pi)) if constrained else None)
        return tuple(out)

    branch, pairs = None, None
    on_lattice = all((not dl) or q for dl, q in zip(cls.delta, cls.odd_quarter_pi))
    if valid and on_lattice:
        n_active = sum(cls.delta)
        if n_active == 0:
            branch = "local"
        else:
            reps = (("x", la.I2), ("z", la.H), ("y", la.S))[: 3 if n_active == 1 else 1]
            for axis, h in reps:
                sides = [
                    [witness(h @ loc @ b @ loc.conj().T @ h.conj().T, masks[axis]) for b in gate_betas]
                    for loc in (d.c_local, d.d_local)
                ]
                if None not in sides[0] + sides[1]:
                    branch = f"axis_{axis}"
                    pairs = tuple((sides[0][j], sides[1][k]) for j, k in tp.PAIR_ORDER)
                    break
    conclusion = "deterministic" if (branch is not None or condition2) else "not_covered"
    return conclusion, branch, quarter_k, pairs


def _quarter_kak(ks, seed):
    # quarter-pi non-local core between Haar locals
    rng = np.random.default_rng(seed)
    locals_ = [la.haar_random_unitary(2, rng) for _ in range(4)]
    core = nonlocal_gate(tuple(k * np.pi / 4 for k in ks))
    return la.tensor(locals_[0], locals_[1]) @ core @ la.tensor(locals_[2], locals_[3])


THEOREM1_GATES = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda seed: la.haar_random_unitary(4, seed)),
    st.sampled_from([la.CNOT, la.SWAP, la.CZ, la.Q_GATE, la.R_GATE, tp.C_PI8, tp.EXP_YY,
                     la.principal_sqrt(la.CNOT), la.principal_sqrt(la.SWAP)]),
    st.builds(tp.t_gate, st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    st.sampled_from([0, np.pi / 8, np.pi / 4, np.pi / 2]).flatmap(
        lambda step: st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda ks: tp.t_gate(ks[0] * step, ks[1] * step))
    ),
    st.builds(nonlocal_gate, st.tuples(*[st.integers(-4, 4).map(lambda k: k * np.pi / 4)] * 3)),
    st.builds(_quarter_kak, st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
              st.integers(0, 2**32 - 1)),
)
_NL_LATTICE = st.integers(-4, 4).map(lambda k: k * np.pi / 4)
THEOREM1_BASES = st.one_of(
    st.sampled_from([bases.bell_basis(), bases.m1_basis(), bases.m2_basis()]),
    st.floats(0, 2 * np.pi).map(lambda t: bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))),
    st.sampled_from([la.I2, la.H, la.S, la.H @ la.S]).map(bases.conjugated_pauli_basis),
    st.integers(0, 2**32 - 1).map(lambda seed: bases.conjugated_pauli_basis(la.haar_random_unitary(2, seed))),
    st.builds(bases.beta_nl_basis, _NL_LATTICE, _NL_LATTICE, st.floats(-np.pi, np.pi)),
    # Within 1e-6 of maximally entangled, across the capability bound.
    st.builds(lambda e, t3: bases.beta_nl_basis(np.pi / 4 + e, 0.0, t3),
              st.floats(-12, -6).flatmap(lambda x: st.sampled_from([10.0**x, -(10.0**x)])), st.floats(-np.pi, np.pi)),
)


@settings(max_examples=150, deadline=None)
@given(THEOREM1_GATES, THEOREM1_BASES)
def test_theorem1_check_matches_per_matrix_reference(gate, basis):
    v = tp.theorem1_check(gate, basis)
    assert (v.conclusion, v.branch, v.quarter_k, v.pair_witnesses) == _theorem1_reference(gate, basis)


def _on_lattice(angles) -> bool:
    r = np.asarray(angles) % np.pi
    return bool(np.all((r <= la.LATTICE_TOL) | (r >= np.pi - la.LATTICE_TOL)))


@settings(max_examples=50, deadline=None)
@given(_ANGLES, st.integers(0, 1), _ANGLES, st.integers(0, 1))
@example(0.3, 1, 0.0, 0)
@example(-2.0, 0, np.pi, 1)
def test_a_factor_on_the_y_lattice_passes_the_z_mask(phi, n, lam, m):
    """Why _AXIS_REPS has no y representative (S, with lambda1 and lambda3
    on the integer-pi lattice): a factor F whose S-conjugate is
    e^{i phi} Z^n Ry(lam) Z^m passes that mask, and its H-conjugate is
    diagonal or antidiagonal, so it passes the z mask (lambda2), tried first."""
    z_n, z_m = np.linalg.matrix_power(la.SZ, n), np.linalg.matrix_power(la.SZ, m)
    f = la.dag(la.S) @ (np.exp(1j * phi) * z_n @ rot("y", lam) @ z_m) @ la.S
    y = euler_zyz(la.S @ f @ la.dag(la.S))
    assert _on_lattice([y.lambda1, y.lambda3])
    z = euler_zyz(la.H @ f @ la.dag(la.H))
    assert _on_lattice(z.lambda2)
    assert [axis for axis, _, _ in tp._AXIS_REPS] == ["x", "z"]


# --- The former per-outcome tuples, written out.  Each report field, now an
# array, equals the former tuple bit for bit, with the identity (a zero state
# for a four-way output) where the former tuple held None.

def _former_factorize_all(ws):
    ws = la.require_unitary(ws, what="factorization input")
    schmidt = np.linalg.svd(sep._realign(ws), compute_uv=False) / 2.0
    return tuple(
        sep.tensor_factorize(w) if candidate else sep.TensorFactorization(False, None, None, 0.0, row)
        for w, row, candidate in zip(ws, schmidt, (schmidt[:, 1] <= la.SEPARABLE_TOL).tolist())
    )


def _former_gate_report(u_t, basis):
    """The former analyze_gate_teleport's separable and corrections, and
    its correction_inverses()."""
    betas = bases.gate_betas(basis)
    w_stack = ((u_t @ la.kron_pairs(betas, betas)).reshape(64, 4) @ la.dag(u_t)).reshape(16, 4, 4)
    corrections = (None,) * 16
    if bases.capable(betas):
        corrections = tuple(
            (np.exp(1j * f.phase) * f.factor_a, f.factor_b) if f.separable else None
            for f in _former_factorize_all(w_stack)
        )
    inverses = tuple(None if c is None else (la.dag(c[0]), la.dag(c[1])) for c in corrections)
    return tuple(c is not None for c in corrections), corrections, inverses


def _former_gate_fidelities(ab, u_t, basis, corrections):
    """The former run_gate_teleport's fidelities."""
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rests = sim.project_outcomes(sim.register_from([ab, bell, bell]), [(0, 3), (1, 5)], basis)
    ops = la.tensor(*np.array([(la.I2, la.I2) if c is None else c for c in corrections]).swapaxes(0, 1)) @ u_t
    return sim.outcome_fidelities(rests, ops, u_t @ ab)[2]


def _former_state_report(psi, basis):
    """The former analyze_state_teleport's probabilities, teleportable and
    corrections, and its correction_inverses()."""
    ms = psi @ bases.beta_matrices(basis, convention="state_form").mats
    grams = la.dag(ms) @ ms
    probs = np.trace(grams, axis1=-2, axis2=-1).real / 2.0
    residuals = np.linalg.norm(grams - probs[:, None, None] * np.eye(2), axis=(-2, -1))
    flags = (probs > la.PROBABILITY_FLOOR) & (residuals <= la.CORRECTABLE_TOL)
    corrections = tuple(m / np.sqrt(p) if ok else None for m, p, ok in zip(ms, probs, flags))
    inverses = tuple(None if v is None else la.dag(v) for v in corrections)
    return tuple(probs.tolist()), tuple(flags.tolist()), corrections, inverses


def _former_state_fidelities(xi, psi, basis, corrections):
    """The former run_state_teleport's fidelities."""
    rests = sim.project_outcomes(sim.register_from([np.reshape(psi, -1), xi]), [(1, 2)], basis)
    return sim.outcome_fidelities(rests, np.stack([la.I2 if c is None else c for c in corrections]), xi)[2]


def _former_fourway(u_t, basis, psi_ab):
    """The former analyze_fourway's per-outcome fields and its
    max_corrected_fidelity."""
    u = u_t @ fw.u1_gate()
    betas = bases.gate_betas(basis)
    beta_jk = la.kron_pairs(betas, betas)
    branches = u @ np.concatenate((fw._SXX @ beta_jk, fw._SZZ @ beta_jk)) @ la.dag(u)
    separable = np.zeros(32, dtype=bool)
    undo = np.broadcast_to(la.I4, (32, 4, 4))
    if bases.capable(betas):
        separable, products = sep.leading_products(la.require_unitary(branches, what="factorization input"))
        undo = np.where(separable[:, None, None], la.dag(products), la.I4)
    ops = np.concatenate((np.broadcast_to(la.I4, (16, 4, 4)), undo)).reshape(3, 16, 4, 4) @ u_t
    probs, outs, fids = sim.outcome_fidelities(fw._conditional_states(psi_ab, basis), ops, u_t @ psi_ab)
    fields = {
        "branch_xx_separable": tuple(separable[:16].tolist()),
        "branch_zz_separable": tuple(separable[16:].tolist()),
        "probabilities": tuple(probs.tolist()),
        "output_states": tuple(out if p > la.PROBABILITY_FLOOR else None for out, p in zip(outs[0], probs)),
        "fidelities_raw": tuple(fids[0].tolist()),
        "fidelities_corrected": tuple(fids.max(axis=0).tolist()),
    }
    return fields, max(fields["fidelities_corrected"])


def _assert_filled(got, former, fill=None):
    """got is the former tuple as one array, bit for bit, with fill where it held None."""
    want = np.array([fill if x is None else x for x in former])
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


_CATALOGUE_BASES = [cli.resolve_basis(spec, la.DEFAULT_UNITARY_TOL) for spec in catalogue()["all_bases"]]
_ANGLE_OR_QUARTER = st.one_of(_QUARTERS, _ANGLES)
# The gates of the CLI's spec families: Haar, t:phi,xi and kak:t1,t2,t3.
_SPEC_GATES = st.one_of(
    _SEEDS.map(lambda seed: la.haar_random_unitary(4, seed)),
    st.tuples(_ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER).map(lambda a: tp.t_gate(*a)),
    st.tuples(_ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER, _ANGLE_OR_QUARTER).map(nonlocal_gate),
)


@settings(max_examples=30, deadline=None)
@given(_SPEC_GATES, st.sampled_from(_CATALOGUE_BASES), _SEEDS)
@example(la.CNOT, bases.m2_basis(), 0)  # 8 of 16 outcomes separable
@example(la.CNOT, _CATALOGUE_BASES[catalogue()["all_bases"].index("beta_nl:0.3,0.1,0")], 0)  # the early exit
def test_report_arrays_equal_the_former_tuples(u, basis, seed):
    rng = np.random.default_rng(seed)
    rep = tp.analyze_gate_teleport(u, basis)
    separable, corrections, inverses = _former_gate_report(u, basis)
    _assert_filled(rep.separable, separable)
    assert rep.n_separable == sum(separable)
    _assert_filled(rep.corrections, corrections, (la.I2, la.I2))
    # dag of the identity fill: the identity, with imaginary parts -0.0.
    _assert_filled(rep.correction_inverses(), inverses, (la.dag(la.I2), la.dag(la.I2)))
    ab = la.random_state(4, rng)
    got = sim.run_gate_teleport(ab, u, basis, rep.correction_inverses()).fidelities
    assert got.tobytes() == _former_gate_fidelities(ab, u, basis, inverses).tobytes()

    # A front gate folded into the basis, and a random resource, leave some
    # outcomes without a correction.
    folded = bases.MeasurementBasis(basis.vectors @ u.conj(), basis.name)
    for psi in (tp.bell_resource(), la.random_state(4, rng).reshape(2, 2)):
        state = tp.analyze_state_teleport(psi, folded)
        probabilities, teleportable, corrections, inverses = _former_state_report(psi, folded)
        _assert_filled(state.probabilities, probabilities)
        _assert_filled(state.teleportable, teleportable)
        _assert_filled(state.corrections, corrections, la.I2)
        _assert_filled(state.correction_inverses(), inverses, la.dag(la.I2))
        xi = la.random_state(2, rng)
        got = sim.run_state_teleport(xi, psi, folded, state.correction_inverses()).fidelities
        assert got.tobytes() == _former_state_fidelities(xi, psi, folded, inverses).tobytes()

    psi_ab = la.random_state(4, rng)
    four = fw.analyze_fourway(u, basis, psi_ab)
    fields, best = _former_fourway(u, basis, psi_ab)
    for name, former in fields.items():
        _assert_filled(getattr(four, name), former, np.zeros(4, dtype=complex))
    assert four.max_corrected_fidelity == best
