import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gateport import linalg as la
from gateport import kak
from gateport import teleport as tp
import reference as ref
from strategies import (ANGLES, CAPABLE_BASES, DRESSED_GATES, HAAR_1Q, HAAR_GATES, LATTICE_THETA, LOCALS,
                        NEAR_LATTICE_GATES, QUARTERS, dressed, haar_local)


def _assert_canonical(theta):
    t1, t2, t3 = theta
    assert np.pi / 4 + 1e-9 >= t1 >= t2 >= abs(t3)
    if t1 > np.pi / 4 - 1e-9:
        assert t3 >= -1e-9


def test_separable_gate_has_zero_angles():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = haar_local(rng)
        d = kak.kak_decompose(g)
        assert np.allclose(d.theta, 0.0, atol=1e-9)
        assert la.equal_up_to_global_phase(kak.kak_reconstruct(d), g, 1e-9)


@pytest.mark.parametrize(
    "gate,expected",
    [
        (la.CNOT, (np.pi / 4, 0, 0)),
        (la.CZ, (np.pi / 4, 0, 0)),
        (la.SWAP, (np.pi / 4, np.pi / 4, np.pi / 4)),
        (la.Q_GATE, (np.pi / 4, np.pi / 4, np.pi / 4)),
        (la.R_GATE, (np.pi / 4, np.pi / 4, np.pi / 4)),
    ],
)
def test_named_gate_angles(gate, expected):
    d = kak.kak_decompose(gate)
    assert np.allclose(d.theta, expected, atol=1e-8)
    assert la.equal_up_to_global_phase(kak.kak_reconstruct(d), gate, 1e-9)


def test_reconstruct_identity_and_pure_core():
    d = kak.kak_decompose(np.eye(4, dtype=complex))
    assert la.equal_up_to_global_phase(kak.kak_reconstruct(d), np.eye(4), 1e-9)
    core = kak.nonlocal_gate((np.pi / 4, 0, 0))
    expected = np.cos(np.pi / 4) * np.eye(4) + 1j * np.sin(np.pi / 4) * la.tensor(la.SX, la.SX)
    assert np.allclose(core, expected, atol=1e-12)


def test_canonical_triples_are_fixed_points():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tri = np.sort(rng.uniform(0, np.pi / 4, 3))[::-1]
        t3 = tri[2] * rng.choice([-1.0, 1.0])
        if tri[0] > np.pi / 4 - 1e-9:
            t3 = abs(t3)
        tri = (tri[0], tri[1], t3)
        d = kak.kak_decompose(kak.nonlocal_gate(tri))
        assert np.allclose(d.theta, tri, atol=1e-8)


def test_classify_nonlocal():
    cls = kak.classify_nonlocal((np.pi / 4, np.pi / 4, np.pi / 4))
    assert cls.is_swap_point and all(cls.odd_quarter_pi)
    cls = kak.classify_nonlocal((0.0, 0.0, 0.0))
    assert not any(cls.delta) and not cls.is_swap_point
    cls = kak.classify_nonlocal(kak.kak_decompose(la.CNOT).theta)
    assert cls.odd_quarter_pi == (True, False, False)
    # generic angle: flagged active but on neither lattice
    cls = kak.classify_nonlocal((0.3, 0.0, 0.0))
    assert cls.delta == (True, False, False)
    assert cls.odd_quarter_pi == (False, False, False)


def test_clifford_gates_sit_on_quarter_pi_lattice():
    gates = [
        la.CNOT,
        la.SWAP,
        la.CZ,
        la.tensor(la.H, la.I2) @ la.CNOT @ la.tensor(la.I2, la.S),
    ]
    for g in gates:
        cls = kak.classify_nonlocal(kak.kak_decompose(g).theta)
        assert all((not d) or q for d, q in zip(cls.delta, cls.odd_quarter_pi)), g


def _euler_reconstruct(e: kak.LocalEulerAngles) -> np.ndarray:
    """e^{i*phase} Rz(lambda1) Ry(lambda2) Rz(lambda3): the matrix of ZYZ angles."""
    return np.exp(1j * e.phase) * kak.rot("z", e.lambda1) @ kak.rot("y", e.lambda2) @ kak.rot("z", e.lambda3)


def test_euler_examples():
    e = kak.euler_zyz(la.I2)
    assert (e.lambda1, e.lambda2, e.lambda3) == (0.0, 0.0, 0.0)
    e = kak.euler_zyz(kak.rot("z", 0.8))
    assert abs(e.lambda1 - 0.8) < 1e-12 and e.lambda2 == 0.0 and e.lambda3 == 0.0


def test_euler_round_trip_haar():
    rng = np.random.default_rng(4)
    for _ in range(500):
        u = la.haar_random_unitary(2, rng)
        e = kak.euler_zyz(u)
        assert 0.0 <= e.lambda2 <= np.pi
        assert np.linalg.norm(_euler_reconstruct(e) - u) < 1e-10


@settings(max_examples=120)
@given(ANGLES, ANGLES, ANGLES, ANGLES)
def test_euler_round_trip_parametrized(l1, l2, l3, phase):
    u = np.exp(1j * phase) * kak.rot("z", l1) @ kak.rot("y", l2) @ kak.rot("z", l3)
    e = kak.euler_zyz(u)
    assert np.linalg.norm(_euler_reconstruct(e) - u) < 1e-10


def _diagonal(a, b):
    return np.diag([np.exp(1j * a), np.exp(1j * b)])


def _antidiagonal(a, b):
    return np.array([[0, np.exp(1j * a)], [np.exp(1j * b), 0]])


def _nearly_diagonal(phase, l1, l3):
    # |u10| = sin(1e-13): below euler_zyz's 1e-12 gauge threshold
    return np.exp(1j * phase) * kak.rot("z", l1) @ kak.rot("y", 2e-13) @ kak.rot("z", l3)


SINGLE_QUBIT = st.one_of(
    HAAR_1Q,
    st.builds(_diagonal, ANGLES, ANGLES),
    st.builds(_antidiagonal, ANGLES, ANGLES),
    st.sampled_from([la.I2, -la.I2]),
    st.builds(_nearly_diagonal, ANGLES, ANGLES, ANGLES),
)


@settings(max_examples=60)
@given(st.lists(SINGLE_QUBIT, min_size=1, max_size=12))
def test_euler_stack_matches_single_matrices(mats):
    e = kak.euler_zyz(np.stack(mats))
    for i, u in enumerate(mats):
        row = kak.LocalEulerAngles(e.lambda1[i], e.lambda2[i], e.lambda3[i], e.phase[i])
        one = kak.euler_zyz(u)
        assert np.allclose(astuple(row), astuple(one), rtol=0, atol=1e-12)
        assert np.linalg.norm(_euler_reconstruct(row) - u) < 1e-10


def test_euler_stack_keeps_leading_axes():
    e = kak.euler_zyz(np.stack([[la.I2, la.SX, la.H], [la.SZ, la.S, -la.I2]]))
    assert e.lambda1.shape == e.lambda2.shape == e.lambda3.shape == e.phase.shape == (2, 3)
    assert isinstance(kak.euler_zyz(la.H).lambda1, float)


_WRONG_SHAPE_GATES = st.one_of(
    st.integers(0, 5).filter(lambda n: n != 2).map(lambda n: np.eye(n, dtype=complex)),
    st.sampled_from([la.H[0], la.H[0, 0], np.zeros((0, 2)), np.eye(2)[:, :1], np.stack([la.H, la.S])[..., :1]]),
)


@st.composite
def _non_finite_gates(draw):
    """A 2x2 unitary or a stack of them with one NaN or infinite entry."""
    u = np.stack([draw(HAAR_1Q) for _ in range(draw(st.integers(1, 3)))])
    u[draw(st.integers(0, len(u) - 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    return u[0] if len(u) == 1 and draw(st.booleans()) else u


@settings(max_examples=60)
@given(st.one_of(_WRONG_SHAPE_GATES, _non_finite_gates()))
def test_euler_zyz_rejects_what_is_not_a_finite_2x2_with_one_line(u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            kak.euler_zyz(u)
    assert "\n" not in str(info.value)


def test_is_clifford():
    assert kak.is_clifford(la.CNOT)
    assert kak.is_clifford(la.tensor(la.SZ, la.I2))
    assert kak.is_clifford(la.SWAP)
    t1 = np.diag([1j, np.exp(1j * np.pi / 8), np.exp(1j * np.pi / 8), 1j * np.exp(1j * np.pi / 4)])
    assert not kak.is_clifford(t1)


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 5e-5])
def test_a_core_off_the_clifford_point_is_not_clifford(delta):
    # u P u^dag lies about 4 delta from a phased Pauli product, while every row of the
    # Pauli transfer matrix keeps an entry within 2 delta^2 of 1 in magnitude.
    assert not kak.is_clifford(kak.nonlocal_gate((np.pi / 4 + delta, 0, 0)))


@settings(max_examples=150)
@given(NEAR_LATTICE_GATES)
def test_a_clifford_gate_has_its_canonical_angles_on_the_lattice(u):
    if kak.is_clifford(u):
        cls = kak.classify_nonlocal(kak.kak_decompose(u).theta)
        assert all(q for dl, q in zip(cls.delta, cls.odd_quarter_pi) if dl), cls


def _assert_canonical_and_exact(u):
    """kak_decompose(u) lies in the Weyl chamber, reports an angle within
    ROUNDING_EPS of zero as +0.0, and rebuilds u, global phase included."""
    d = kak.kak_decompose(u)
    _assert_canonical(d.theta)
    assert all(type(t) is float for t in (*d.theta, d.global_phase))
    assert all(repr(t) == "0.0" for t in d.theta if abs(t) <= la.ROUNDING_EPS)
    assert np.linalg.norm(kak.kak_reconstruct(d) - u) < 1e-9
    return d


@settings(max_examples=200)
@given(
    st.tuples(*[st.one_of(QUARTERS, ANGLES)] * 3),
    LOCALS, LOCALS, LOCALS, LOCALS,
    st.one_of(QUARTERS, ANGLES),
)
# Rounding puts t1 an ulp above pi/4 = t2, and the wall's pi/2 - t1 an ulp below.
@example((-3 * np.pi / 4, -np.pi / 4, 1.0), *[la.haar_random_unitary(2, 0)] * 4, -3 * np.pi / 4)
# Eigenphases of m^T m 2e-8 apart that eigh of its real part alone mixes (round trips 2.5e-9 and 1.8e-9 off).
@example((0.0, np.pi / 4, 1e-8), la.I2, la.I2, la.I2, la.H, 0.0)
@example((-np.pi, -3 * np.pi / 4, 1e-8), la.I2, la.I2, la.I2, la.H, 0.0)
def test_kak_decompose_is_canonical_and_exact_on_dressed_gates(theta, a, b, c, d, phi):
    _assert_canonical_and_exact(dressed(theta, a, b, c, d, phi))


def test_kak_decompose_fixed_cases_are_canonical_and_exact():
    rng = np.random.default_rng(8)
    cores = kak.nonlocal_gate([(np.pi / 4, 0.3, 0.2), (-3 * np.pi / 4, np.pi / 2, 0.1), (0.1, -0.7, 0.4)])
    local = la.tensor(la.SZ, la.H)
    for u in [la.CNOT, la.SWAP, la.I4, local, *cores] + [la.haar_random_unitary(4, rng) for _ in range(4)]:
        _assert_canonical_and_exact(u)
    # The wall: t1 = pi/4 takes t3 < 0 to -t3 (kak:0.7853981633974483,0.3,-0.2).
    wall = _assert_canonical_and_exact(kak.nonlocal_gate((np.pi / 4, 0.3, -0.2)))
    assert np.allclose(wall.theta, (np.pi / 4, 0.3, 0.2), rtol=0, atol=1e-12)
    # No shift at n = 0: a factor (-i)^0 = 1+0j would flip the sign of a phase's zero imaginary part.
    d = kak._canonicalize(complex(1, -0.0), la.I2, la.I2, [0.0, 0.0, 0.0], la.I2, la.I2)
    assert repr(d.global_phase) == "-0.0"


NEAR_LATTICE = st.builds(
    lambda k, e: k * np.pi / 4 + e,
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 0.99e-8, -1.01e-8, 2e-16, -2e-16]),
)


@settings(max_examples=150)
@given(st.tuples(*[st.one_of(NEAR_LATTICE, ANGLES)] * 3))
def test_classify_nonlocal_matches_the_per_angle_loop(theta):
    """Each angle is read on its own, against the lattices k pi/2 (inactive)
    and pi/4 + k pi/2 (odd quarter) within LATTICE_TOL; within 1e-12 of the
    tolerance either verdict may come out of rounding."""
    cls, tol = kak.classify_nonlocal(theta), kak.LATTICE_TOL
    assert all(type(x) is bool for x in (*cls.delta, *cls.odd_quarter_pi, cls.is_swap_point))
    for w, t in enumerate(theta):
        one = kak.classify_nonlocal((t, t, t))  # a triple's verdicts are those of its one-angle triples
        assert (cls.delta[w], cls.odd_quarter_pi[w]) == (one.delta[0], one.odd_quarter_pi[0])
        for verdict, offset in ((not cls.delta[w], 0.0), (cls.odd_quarter_pi[w], np.pi / 4)):
            dist = abs(t - offset - np.pi / 2 * round((t - offset) / (np.pi / 2)))
            if abs(dist - tol) > 1e-12:
                assert verdict == (dist < tol)
    swap = max(abs(abs(t) - np.pi / 4) for t in theta)
    if abs(swap - tol) > 1e-12:
        assert cls.is_swap_point == (swap < tol)


# The magic basis, written out here so the invariants share no code with kak.
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)


def _makhlin(u):
    """Makhlin's local invariants G1, G2 of a two-qubit gate (quant-ph/0002045)."""
    mb = _MAGIC.conj().T @ u @ _MAGIC
    m = mb.T @ mb
    det = np.linalg.det(u)
    tr = np.trace(m)
    return np.array([tr**2 / (16 * det), (tr**2 - np.trace(m @ m)) / (4 * det)])


def _makhlin_gap(u, theta):
    return np.abs(_makhlin(u) - _makhlin(kak.nonlocal_gate(theta))).max()


def test_kak_angles_carry_the_makhlin_invariants():
    rng = np.random.default_rng(9)
    named = [make() for make in tp.NAMED_GATES.values()]
    haar = [la.haar_random_unitary(4, rng) for _ in range(200)]
    for u in named + haar:
        assert _makhlin_gap(u, kak.kak_decompose(u).theta) < 1e-9
    # The check sees a 1e-6 error in t2 and a flipped t3 of a generic gate.
    for u in haar[:50]:
        t1, t2, t3 = kak.kak_decompose(u).theta
        assert _makhlin_gap(u, (t1, t2 + 1e-6, t3)) > 1e-8
        assert _makhlin_gap(u, (t1, t2, -t3)) > 1e-8


@settings(max_examples=60)
@given(DRESSED_GATES, CAPABLE_BASES)
def test_theorem1_deterministic_verdicts_hold_on_dressed_lattice_gates(u, basis):
    """Every deterministic verdict holds, and on the lattice the converse does
    too: theorem1_check concludes deterministic exactly when all 16 outcomes
    teleport."""
    assert (tp.theorem1_check(u, basis).conclusion == "deterministic") == tp.analyze_gate_teleport(u, basis).deterministic


@settings(max_examples=60)
@given(st.one_of(LATTICE_THETA, st.tuples(ANGLES, ANGLES, ANGLES)), LOCALS, LOCALS, LOCALS, LOCALS, ANGLES)
def test_kak_angles_carry_the_makhlin_invariants_of_dressed_gates(theta, a, b, c, d, phi):
    u = dressed(theta, a, b, c, d, phi)
    assert _makhlin_gap(u, kak.kak_decompose(u).theta) < 1e-9


def _scan_grid_angle(grid, i):
    return 2 * np.pi * i / grid - np.pi  # a beta_nl point of `scan --grid grid`


# Angles of any size, the lattice, signed zeros and the scan grids' points (scan --grid 48 and 8 in the benchmark).
_TRIPLE_ANGLE = st.one_of(
    ANGLES,
    NEAR_LATTICE,
    st.integers(2, 64).flatmap(lambda grid: st.integers(0, grid - 1).map(lambda i: _scan_grid_angle(grid, i))),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # signed zeros included


@settings(max_examples=60)
@given(st.lists(st.tuples(_TRIPLE_ANGLE, _TRIPLE_ANGLE, _TRIPLE_ANGLE), min_size=1, max_size=8))
def test_a_stacked_nonlocal_gate_is_each_triples_gate_bit_for_bit(triples):
    stacked = kak.nonlocal_gate(np.array(triples))
    assert stacked.shape == (len(triples), 4, 4)
    for theta, gate in zip(triples, stacked):
        assert _same_bits(kak.nonlocal_gate(theta), gate)
        # XX, YY and ZZ commute, so N(theta) is the product of the exp(i t sigma sigma) = cos t I + i sin t sigma sigma.
        ones = [np.cos(t) * la.I4 + 1j * np.sin(t) * la.tensor(p, p) for t, p in zip(theta, (la.SX, la.SY, la.SZ))]
        assert np.array_equal(gate, ones[0] @ ones[1] @ ones[2])
    # Extra leading axes broadcast.
    assert _same_bits(kak.nonlocal_gate(np.array([triples, triples])), np.stack([stacked, stacked]))


@settings(max_examples=60)
@given(st.one_of(HAAR_GATES, DRESSED_GATES), CAPABLE_BASES)
def test_separability_verdicts_hold_in_the_kak_frame(u, basis):
    # W_jk = U (b_j (x) b_k) U^dag with U = e^{i phi} (A (x) B) N (C (x) D) is a local
    # conjugate of N (C b_j C^dag (x) D b_k D^dag) N^dag, and local conjugation keeps
    # the operator-Schmidt rank (Nielsen et al., PRA 67, 052301).
    d = kak.kak_decompose(u)
    n = kak.nonlocal_gate(d.theta)
    left = [d.c_local @ b @ d.c_local.conj().T for b in ref.gate_betas(basis.vectors)]
    right = [d.d_local @ b @ d.d_local.conj().T for b in ref.gate_betas(basis.vectors)]
    frame = [n @ np.kron(left[j], right[k]) @ n.conj().T for j, k in ref.OUTCOMES]
    report = tp.analyze_gate_teleport(u, basis)
    # Near the threshold a verdict may flip on either path.
    assume(not any(map(ref.near_threshold, frame + list(report.w_matrices))))
    assert report.separable.tolist() == [ref.separable(w) for w in frame]
