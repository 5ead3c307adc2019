"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import numpy as np

from gateport import linalg as la
from gateport import bases
from gateport import fourway as fw
from gateport import separability as sep
from gateport import simulator as sim
from gateport import teleport as tp
from gateport.kak import is_clifford, kak_decompose, kak_reconstruct, nonlocal_gate

SXX = la.tensor(la.SX, la.SX)
SZZ = la.tensor(la.SZ, la.SZ)


def _report(n, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {n}: {label}")
    assert not failures, failures[:5]


def _front(basis, u):
    """The basis {U^dag b_j}: measuring it is applying U, then measuring `basis`."""
    return bases.MeasurementBasis(basis.vectors @ u.conj(), basis.name)


def _random_valid_basis(rng):
    return bases.conjugated_pauli_basis(la.haar_random_unitary(2, rng))


def _random_clifford_1q(rng):
    m = la.I2
    for _ in range(8):
        m = m @ (la.H if rng.random() < 0.5 else la.S)
    return m


def test_criterion_1_table1():
    failures = []
    table = tp.reproduce_table1()
    expected = np.array(
        [[1, 0, 0.5], [0.5, 0, 0.5], [0.5, 0, 0.25], [0.25, 0.25, 0.25], [1, 1, 0.25]]
    )
    if not np.allclose(table, expected, atol=1e-9):
        failures.append(("table", table.tolist()))
    if not np.allclose(table * 16, np.round(table * 16), atol=1e-9):
        failures.append(("not multiples of 1/16", table.tolist()))
    _report(1, "Table-1 success probabilities (principal square-root branch)", failures)


def test_criterion_2_table2():
    failures = []
    for phi, xi in ((np.pi / 8, np.pi / 8), (np.pi / 7, np.pi / 13)):
        rep = tp.analyze_gate_teleport(tp.t_gate(phi, xi), bases.m2_basis())
        if not all(rep.separable):
            failures.append((phi, xi, "not all separable"))
            continue
        for (j, k), corr, (sa, sb) in zip(tp.PAIR_ORDER, rep.corrections, tp.table2_factors(phi, xi)):
            num = la.tensor(corr[0], corr[1])
            if not la.equal_up_to_global_phase(num, la.tensor(sa, sb), 1e-8):
                failures.append((phi, xi, j + 1, k + 1))
    _report(2, "Table-2 factor pairs match symbolic entries up to phase", failures)


def test_criterion_3_shifted_basis_example():
    failures = []
    u = la.tensor(la.H, la.I2) @ tp.C_PI8
    basis = _front(bases.phase_paired_basis(u, np.exp(1j * np.pi / 4), 1j), u)
    rep = tp.analyze_state_teleport(tp.bell_resource(), basis)
    targets = (tp.PI8 @ la.SZ, tp.PI8, la.SX @ la.S @ la.SZ, la.SX @ la.S)
    for j, (ok, got, want) in enumerate(zip(rep.teleportable, rep.correction_inverses(), targets)):
        if not ok or not la.equal_up_to_global_phase(got, want, 1e-8):
            failures.append(("correction", j + 1))
    rng = np.random.default_rng(17)
    for _ in range(20):
        xi = la.random_state(2, rng)
        r = sim.run_state_teleport(xi, tp.bell_resource(), basis, rep.correction_inverses())
        if min(r.fidelities) < 1 - 1e-9:
            failures.append(("fidelity", min(r.fidelities)))
    _report(3, "shifted-basis corrections {[pi/8]Z, [pi/8], XSZ, XS} with unit fidelity", failures)


def test_criterion_4_oracle_agreement():
    failures = []
    rng = np.random.default_rng(23)
    table1_gates = [la.CNOT, tp.C_PI8, la.principal_sqrt(la.CNOT), la.principal_sqrt(la.SWAP), tp.EXP_YY]
    reference_bases = [bases.bell_basis(), bases.m1_basis(), bases.m2_basis()]
    configs = [(g, b) for g in table1_gates for b in reference_bases]
    extra_bases = reference_bases + [_random_valid_basis(rng)]
    configs += [(g, b) for g in (la.SWAP, la.Q_GATE, la.R_GATE) for b in extra_bases]
    for g, basis in configs:
        rep = tp.analyze_gate_teleport(g, basis)
        inv = rep.correction_inverses()
        for _ in range(20):
            ab = la.random_state(4, rng)
            r = sim.run_gate_teleport(ab, g, basis, inv)
            for idx in range(16):
                reached = r.fidelities[idx] >= 1 - 1e-9
                if reached != rep.separable[idx]:
                    failures.append((basis.name, idx, r.fidelities[idx], rep.separable[idx]))
    _report(4, "simulator fidelity 1 exactly on analyzer-flagged outcomes (27 configs x 20 inputs)", failures)


def test_criterion_5_eq44_equivalence():
    failures = []
    rng = np.random.default_rng(29)
    samples = [(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)) for _ in range(1000)]
    for k in range(-12, 13):
        x = rng.uniform(-np.pi, np.pi)
        samples.append((k * np.pi / 2, x))
        samples.append((x, 2 * k * np.pi))
        samples.append(((2 * k + 1) * np.pi / 4, k * np.pi))
    for theta, lam in samples:
        predicted = sep.eq44_separable(theta, lam)
        for kind in (1, 2, 3, 4):
            for pauli in sep._W_PAULI_CHOICES[kind]:
                got = sep.tensor_factorize(sep.w_witness(kind, theta, lam, pauli)).separable
                if got != predicted:
                    failures.append((kind, pauli, theta, lam))
    _report(5, "analytic separability criterion matches numeric factorization", failures)


def test_criterion_6_kak_round_trip():
    failures = []
    rng = np.random.default_rng(31)
    for _ in range(1000):
        u = la.haar_random_unitary(4, rng)
        d = kak_decompose(u)
        rec = kak_reconstruct(d)
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        c = rec[idx] / u[idx]
        c /= abs(c)
        if np.linalg.norm(rec - c * u) > 1e-9:
            failures.append(("round trip", np.linalg.norm(rec - c * u)))
    for _ in range(100):
        u = la.haar_random_unitary(4, rng)
        t0 = kak_decompose(u).theta
        left = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
        right = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
        t1 = kak_decompose(left @ u @ right).theta
        if not np.allclose(t0, t1, atol=1e-8):
            failures.append(("local invariance", t0, t1))
    _report(6, "KAK round trip at 1e-9 over 1000 gates; angles locally invariant", failures)


def test_criterion_7_theorem1_soundness():
    failures = []
    rng = np.random.default_rng(37)
    lattice_patterns = [
        (0.0, 0.0, 0.0),
        (np.pi / 4, 0.0, 0.0),
        (np.pi / 4, np.pi / 4, 0.0),
        (np.pi / 4, np.pi / 4, np.pi / 4),
        (3 * np.pi / 4, 0.0, 0.0),
        (0.0, np.pi / 4, 0.0),
        (0.0, 0.0, np.pi / 4),
    ]
    basis_pool = [bases.bell_basis(), bases.m1_basis(), bases.m2_basis()]
    for i in range(200):
        theta = lattice_patterns[i % len(lattice_patterns)]
        if i % 2 == 0:
            locs = [_random_clifford_1q(rng) for _ in range(4)]
        else:
            locs = [la.haar_random_unitary(2, rng) for _ in range(4)]
        gate = (
            la.tensor(locs[0], locs[1]) @ nonlocal_gate(theta) @ la.tensor(locs[2], locs[3])
        )
        basis = basis_pool[i % 3] if i % 5 else _random_valid_basis(rng)
        verdict = tp.theorem1_check(gate, basis)
        if verdict.conclusion == "deterministic":
            rep = tp.analyze_gate_teleport(gate, basis)
            if not rep.deterministic:
                failures.append((i, theta, basis.name, rep.success_probability))
    # swap-point gates under random valid bases: condition 2 must fire and hold
    for _ in range(20):
        locs = [la.haar_random_unitary(2, rng) for _ in range(4)]
        gate = (
            la.tensor(locs[0], locs[1])
            @ nonlocal_gate((np.pi / 4, np.pi / 4, np.pi / 4))
            @ la.tensor(locs[2], locs[3])
        )
        basis = _random_valid_basis(rng)
        verdict = tp.theorem1_check(gate, basis)
        if verdict.conclusion != "deterministic" or not verdict.condition2_met:
            failures.append(("swap-point verdict", verdict.conclusion))
            continue
        if not tp.analyze_gate_teleport(gate, basis).deterministic:
            failures.append(("swap-point success", basis.name))
    _report(7, "theorem check sound on 200 lattice-family gates; swap points deterministic", failures)


def test_criterion_8_probability_conservation():
    failures = []
    rng = np.random.default_rng(41)
    for _ in range(500):
        psi = la.random_state(4, rng).reshape(2, 2)
        u = la.haar_random_unitary(4, rng)
        um = la.haar_random_unitary(4, rng)
        basis = bases.MeasurementBasis(tuple(um[:, i] for i in range(4)), "random")
        rep = tp.analyze_state_teleport(psi, _front(basis, u))
        if abs(sum(rep.probabilities) - 1.0) > 1e-9:
            failures.append(("sum", sum(rep.probabilities)))
    for _ in range(20):
        psi = la.haar_random_unitary(2, rng) / np.sqrt(2)
        basis = _random_valid_basis(rng)
        rep = tp.analyze_state_teleport(psi, _front(basis, la.haar_random_unitary(4, rng)))
        if not np.allclose(rep.probabilities, 0.25, atol=1e-9):
            failures.append(("state distribution", rep.probabilities))
        d = sim.outcome_distribution(la.random_state(4, rng), la.haar_random_unitary(4, rng), basis)
        if not np.allclose(d, 1 / 16, atol=1e-9):
            failures.append(("gate distribution", d.tolist()))
    _report(8, "probabilities conserve; uniform outcomes for maximally entangled resources", failures)


def test_criterion_9_fourway():
    failures = []
    rng = np.random.default_rng(43)
    chi = fw.chi_state().reshape(2, 2, 2, 2)
    for q in range(4):
        axes = tuple(a for a in range(4) if a != q)
        rho = np.tensordot(chi, chi.conj(), axes=(axes, axes))
        if not np.allclose(np.linalg.eigvalsh(rho), 0.5, atol=1e-12):
            failures.append(("marginal", q))
    kernel = fw.u1_gate() @ (SXX + SZZ)
    for basis in (bases.bell_basis(), bases.m2_basis()):
        gf = bases.beta_matrices(basis, None, "gate_form").mats
        for _ in range(5):
            psi = la.random_state(4, rng)
            conds = fw._conditional_states(psi, basis)
            for idx, (j, k) in enumerate(tp.PAIR_ORDER):
                ref = kernel @ la.tensor(gf[j], gf[k]) @ psi / (4 * np.sqrt(2))
                if np.linalg.norm(conds[idx] - ref) > 1e-9:
                    failures.append(("structure", basis.name, j, k))
    # Clifford/Bell special case: equal two-term Pauli-branch superposition
    u_t = la.CNOT @ fw.u1_gate()
    big_u = la.CNOT
    psi0 = big_u.conj().T @ np.array([1, 0, 0, 0], dtype=complex)
    rep = fw.analyze_fourway(u_t, bases.bell_basis(), psi0)
    gf = bases.beta_matrices(bases.bell_basis(), None, "gate_form").mats
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    if not rep.clifford_case:
        failures.append(("clifford_case", False))
    for idx, (j, k) in enumerate(tp.PAIR_ORDER):
        out = rep.output_states[idx]
        if rep.probabilities[idx] <= la.PROBABILITY_FLOOR:
            continue
        bjk = la.tensor(gf[j], gf[k])
        bxx = big_u @ SXX @ bjk @ big_u.conj().T
        bzz = big_u @ SZZ @ bjk @ big_u.conj().T
        ref = (bxx + bzz) @ e00
        ref /= np.linalg.norm(ref)
        if abs(abs(np.vdot(ref, out)) - 1) > 1e-9:
            failures.append(("superposition", j, k))
        if rep.branch_xx_pauli[idx] is None or rep.branch_zz_pauli[idx] is None:
            failures.append(("pauli branches", j, k))
    for _ in range(3):
        rep = fw.analyze_fourway(tp.C_PI8, bases.bell_basis(), la.random_state(4, rng))
        if rep.max_corrected_fidelity >= 1 - 1e-3:
            failures.append(("c_pi8 fidelity", rep.max_corrected_fidelity))
    _report(9, "four-way resource: marginals, branch structure, no exact teleportation", failures)


def test_criterion_10_non_clifford_headline():
    failures = []
    for phi, xi in ((np.pi / 8, np.pi / 8), (np.pi / 7, np.pi / 13)):
        t = tp.t_gate(phi, xi)
        if is_clifford(t):
            failures.append(("clifford", phi, xi))
        for basis in (bases.bell_basis(), bases.m2_basis()):
            rep = tp.analyze_gate_teleport(t, basis)
            if rep.success_probability != 1.0:
                failures.append((basis.name, phi, xi, rep.success_probability))
    _report(10, "non-Clifford diagonal gates teleport deterministically under bell and m2", failures)
