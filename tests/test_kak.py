import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gateport import bases
from gateport import linalg as la
from gateport import kak
from gateport import teleport as tp

ANGLES = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


def _phase_aligned_error(a, b):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    c = a[idx] / b[idx]
    c /= abs(c)
    return np.linalg.norm(a - c * b)


def _assert_canonical(theta):
    t1, t2, t3 = theta
    assert np.pi / 4 + 1e-9 >= t1 >= t2 >= abs(t3) - 1e-9
    if t1 > np.pi / 4 - 1e-9:
        assert t3 >= -1e-9


def test_round_trip_haar():
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = la.haar_random_unitary(4, rng)
        d = kak.kak_decompose(u)
        _assert_canonical(d.theta)
        for loc in (d.a_local, d.b_local, d.c_local, d.d_local):
            assert la.is_unitary(loc, 1e-10)
        assert _phase_aligned_error(kak.kak_reconstruct(d), u) < 1e-9


def test_separable_gate_has_zero_angles():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
        d = kak.kak_decompose(g)
        assert np.allclose(d.theta, 0.0, atol=1e-9)
        assert _phase_aligned_error(kak.kak_reconstruct(d), g) < 1e-9


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
    assert _phase_aligned_error(kak.kak_reconstruct(d), gate) < 1e-9


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


def test_theta_is_local_invariant():
    rng = np.random.default_rng(3)
    for _ in range(30):
        u = la.haar_random_unitary(4, rng)
        t0 = kak.kak_decompose(u).theta
        left = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
        right = la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))
        t1 = kak.kak_decompose(left @ u @ right).theta
        assert np.allclose(t0, t1, atol=1e-8)


def test_rejects_non_unitary():
    with pytest.raises(ValueError):
        kak.kak_decompose(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))


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


@settings(max_examples=120, deadline=None)
@given(ANGLES, ANGLES, ANGLES, ANGLES)
def test_euler_round_trip_parametrized(l1, l2, l3, phase):
    u = np.exp(1j * phase) * kak.rot("z", l1) @ kak.rot("y", l2) @ kak.rot("z", l3)
    e = kak.euler_zyz(u)
    assert np.linalg.norm(_euler_reconstruct(e) - u) < 1e-10


def _haar2(seed):
    return la.haar_random_unitary(2, seed)


def _diagonal(a, b):
    return np.diag([np.exp(1j * a), np.exp(1j * b)])


def _antidiagonal(a, b):
    return np.array([[0, np.exp(1j * a)], [np.exp(1j * b), 0]])


def _nearly_diagonal(phase, l1, l3):
    # |u10| = sin(1e-13): below euler_zyz's 1e-12 gauge threshold
    return np.exp(1j * phase) * kak.rot("z", l1) @ kak.rot("y", 2e-13) @ kak.rot("z", l3)


SINGLE_QUBIT = st.one_of(
    st.integers(0, 2**32 - 1).map(_haar2),
    st.builds(_diagonal, ANGLES, ANGLES),
    st.builds(_antidiagonal, ANGLES, ANGLES),
    st.sampled_from([la.I2, -la.I2]),
    st.builds(_nearly_diagonal, ANGLES, ANGLES, ANGLES),
)


@settings(max_examples=60, deadline=None)
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
    u = np.stack([la.haar_random_unitary(2, draw(st.integers(0, 2**32 - 1))) for _ in range(draw(st.integers(1, 3)))])
    u[draw(st.integers(0, len(u) - 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    return u[0] if len(u) == 1 and draw(st.booleans()) else u


@settings(max_examples=60, deadline=None)
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


def _reference_canonicalize(phase, a, b, theta, c, d, moves):
    """The former closure-based chamber reduction, written out to pin the
    straight-line kak._canonicalize bit for bit; `moves` collects its steps."""
    eps = 1e-12
    flippers = (la.SX, la.SY, la.SZ)
    swappers = {(0, 1): (la.SX + la.SY) / np.sqrt(2), (0, 2): la.H, (1, 2): (la.SY + la.SZ) / np.sqrt(2)}

    def shift(k, n):
        nonlocal c, d, phase
        moves.append(f"shift{n:+d}")
        theta[k] += n * np.pi / 2
        phase *= (-1j) ** n
        if n % 2:
            c = flippers[k] @ c
            d = flippers[k] @ d

    def negate(k1, k2):
        nonlocal b, d
        moves.append(f"negate{k1}{k2}")
        k3 = 3 - k1 - k2
        theta[k1] *= -1
        theta[k2] *= -1
        b = b @ flippers[k3]
        d = flippers[k3] @ d

    def swap(k1, k2):
        nonlocal a, b, c, d
        moves.append(f"swap{k1}{k2}")
        h = swappers[(min(k1, k2), max(k1, k2))]
        theta[k1], theta[k2] = theta[k2], theta[k1]
        a = a @ h
        b = b @ h
        c = h @ c
        d = h @ d

    for k in range(3):
        while theta[k] > np.pi / 4 + eps:
            shift(k, -1)
        while theta[k] <= -np.pi / 4 + eps:
            shift(k, +1)

    if abs(theta[0]) < abs(theta[1]):
        swap(0, 1)
    if abs(theta[1]) < abs(theta[2]):
        swap(1, 2)
    if abs(theta[0]) < abs(theta[1]):
        swap(0, 1)

    if theta[0] < 0:
        negate(0, 2)
    if theta[1] < 0:
        negate(1, 2)
    if theta[0] > np.pi / 4 - 1e-10 and theta[2] < -1e-12:
        moves.append("wall")
        shift(0, -1)
        negate(0, 2)

    return kak.KakDecomposition(
        global_phase=float(np.angle(phase)),
        a_local=a,
        b_local=b,
        theta=tuple(0.0 if abs(t) <= eps else float(t) for t in theta),
        c_local=c,
        d_local=d,
    )


def _assert_matches_reference(u):
    """kak_decompose(u) equals, bit for bit (signed zeros included), the
    reference reduction of the same raw factors; returns the reference's moves."""
    raw = []
    canonicalize = kak._canonicalize

    def spy(phase, a, b, theta, c, d):
        raw.append((phase, a.copy(), b.copy(), list(theta), c.copy(), d.copy()))
        return canonicalize(phase, a, b, theta, c, d)

    with mock.patch.object(kak, "_canonicalize", spy):
        got = kak.kak_decompose(u)
    moves = []
    want = _reference_canonicalize(*raw[0], moves)
    assert repr(got.global_phase) == repr(want.global_phase)
    assert repr(got.theta) == repr(want.theta)
    for field in ("a_local", "b_local", "c_local", "d_local"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    return moves


LATTICE_ANGLES = st.sampled_from([k * np.pi / 4 for k in range(-4, 5)])
LOCALS = st.one_of(
    st.integers(0, 2**32 - 1).map(_haar2),
    st.sampled_from([la.I2, la.SX, la.SY, la.SZ, la.H, la.S]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.one_of(LATTICE_ANGLES, ANGLES)] * 3),
    LOCALS, LOCALS, LOCALS, LOCALS,
    st.one_of(LATTICE_ANGLES, ANGLES),
)
def test_canonicalize_matches_the_closure_reference(theta, a, b, c, d, phi):
    u = np.exp(1j * phi) * la.tensor(a, b) @ kak.nonlocal_gate(theta) @ la.tensor(c, d)
    _assert_matches_reference(u)


def test_canonicalize_fixed_cases_reach_every_branch():
    rng = np.random.default_rng(8)
    gates = [
        kak.nonlocal_gate((np.pi / 4, 0.3, -0.2)),  # the wall: kak:0.7853981633974483,0.3,-0.2
        kak.nonlocal_gate((np.pi / 4, 0.3, 0.2)),
        la.CNOT,
        la.SWAP,
        np.eye(4, dtype=complex),
        la.tensor(la.SZ, la.H),  # its phase has a zero part whose sign a factor 1+0j would flip
        kak.nonlocal_gate((-3 * np.pi / 4, np.pi / 2, 0.1)),
        kak.nonlocal_gate((0.1, -0.7, 0.4)),
    ] + [la.haar_random_unitary(4, rng) for _ in range(4)]
    moves = set()
    for u in gates:
        moves.update(_assert_matches_reference(u))
    assert moves == {"shift-1", "shift+1", "swap01", "swap12", "negate02", "negate12", "wall"}
    assert "wall" in _assert_matches_reference(gates[0])


def _reference_classify(theta):
    """The former per-angle classify_nonlocal loop."""
    delta, odd_quarter = [], []
    for t in theta:
        r = t % (np.pi / 2)
        delta.append(not (r <= kak.LATTICE_TOL or r >= np.pi / 2 - kak.LATTICE_TOL))
        odd_quarter.append(abs(r - np.pi / 4) <= kak.LATTICE_TOL)
    swap_point = all(abs(abs(t) - np.pi / 4) <= kak.LATTICE_TOL for t in theta)
    return tuple(delta), tuple(odd_quarter), swap_point


NEAR_LATTICE = st.builds(
    lambda k, e: k * np.pi / 4 + e,
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 0.99e-8, -1.01e-8, 2e-16, -2e-16]),
)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.one_of(NEAR_LATTICE, ANGLES)] * 3))
def test_classify_nonlocal_matches_the_per_angle_loop(theta):
    cls = kak.classify_nonlocal(theta)
    assert (cls.delta, cls.odd_quarter_pi, cls.is_swap_point) == _reference_classify(theta)
    assert all(type(x) is bool for x in (*cls.delta, *cls.odd_quarter_pi, cls.is_swap_point))


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


def _clifford_1q():
    """The 24 single-qubit Clifford gates up to phase, as words in H and S."""
    group = [la.I2]
    for m in group:  # the list grows while it is read: a breadth-first closure
        for g in (la.H, la.S):
            if not any(la.equal_up_to_global_phase(g @ m, c) for c in group):
                group.append(g @ m)
    return group


# Dressed lattice gates (A (x) B) N(theta) (C (x) D) e^{i phi}: theta on the
# {0, pi/4} lattice (k pi/4), each local a Clifford gate or a Haar draw.
_LOCAL = st.one_of(st.sampled_from(_clifford_1q()), st.integers(0, 2**32 - 1).map(_haar2))
_LATTICE_THETA = st.tuples(*[st.integers(-4, 4).map(lambda k: k * np.pi / 4)] * 3)


def _dressed(theta, a, b, c, d, phi):
    return np.exp(1j * phi) * la.tensor(a, b) @ kak.nonlocal_gate(theta) @ la.tensor(c, d)


_BASES = st.one_of(
    st.sampled_from(sorted(bases.NAMED_BASES)).map(lambda name: bases.NAMED_BASES[name]()),
    _LOCAL.map(bases.conjugated_pauli_basis),
)


@settings(max_examples=60, deadline=None)
@given(_LATTICE_THETA, _LOCAL, _LOCAL, _LOCAL, _LOCAL, ANGLES, _BASES)
def test_theorem1_deterministic_verdicts_hold_on_dressed_lattice_gates(theta, a, b, c, d, phi, basis):
    u = _dressed(theta, a, b, c, d, phi)
    if tp.theorem1_check(u, basis).conclusion == "deterministic":
        assert tp.analyze_gate_teleport(u, basis).n_separable == 16


@settings(max_examples=60, deadline=None)
@given(st.one_of(_LATTICE_THETA, st.tuples(ANGLES, ANGLES, ANGLES)), _LOCAL, _LOCAL, _LOCAL, _LOCAL, ANGLES)
def test_kak_angles_carry_the_makhlin_invariants_of_dressed_gates(theta, a, b, c, d, phi):
    u = _dressed(theta, a, b, c, d, phi)
    assert _makhlin_gap(u, kak.kak_decompose(u).theta) < 1e-9


def _former_nonlocal_gate(theta):
    """The former one-triple nonlocal_gate loop."""
    t1, t2, t3 = theta
    out = np.eye(4, dtype=complex)
    for t, (f, s) in ((t1, (la.SX, la.SX)), (t2, (la.SY, la.SY)), (t3, (la.SZ, la.SZ))):
        out = out @ (np.cos(t) * np.eye(4) + 1j * np.sin(t) * la.tensor(f, s))
    return out


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TRIPLE_ANGLE, _TRIPLE_ANGLE, _TRIPLE_ANGLE), min_size=1, max_size=8))
def test_a_stacked_nonlocal_gate_is_each_triples_gate_bit_for_bit(triples):
    stacked = kak.nonlocal_gate(np.array(triples))
    assert stacked.shape == (len(triples), 4, 4)
    for theta, gate in zip(triples, stacked):
        assert _same_bits(gate, _former_nonlocal_gate(theta))
        assert _same_bits(kak.nonlocal_gate(theta), gate)
    # Extra leading axes broadcast.
    assert _same_bits(kak.nonlocal_gate(np.array([triples, triples])), np.stack([stacked, stacked]))


def test_nonlocal_gate_rejects_a_triple_of_the_wrong_length():
    for bad in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4), np.zeros((5, 2))):
        with pytest.raises(ValueError):
            kak.nonlocal_gate(bad)


def _gate_betas_from_vectors(basis):
    """b_j[y, x] = sqrt(2) <b_j|xy>, from the vectors (not bases.gate_betas)."""
    return [np.sqrt(2) * np.conj(v).reshape(2, 2).T for v in basis.vectors]


def _second_schmidt(x):
    """Half the second singular value of the realigned x (not separability's code)."""
    return np.linalg.svd(x.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4), compute_uv=False)[1] / 2


_HAAR_GATE = st.integers(0, 2**32 - 1).map(lambda seed: la.haar_random_unitary(4, seed))
_DRESSED_GATE = st.builds(_dressed, _LATTICE_THETA, _LOCAL, _LOCAL, _LOCAL, _LOCAL, ANGLES)
_VALID_BASES = st.one_of(
    _BASES,
    st.floats(0, 2 * np.pi).map(lambda t: bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_HAAR_GATE, _DRESSED_GATE), _VALID_BASES)
def test_separability_verdicts_hold_in_the_kak_frame(u, basis):
    # W_jk = U (b_j (x) b_k) U^dag with U = e^{i phi} (A (x) B) N (C (x) D) is a local
    # conjugate of N (C b_j C^dag (x) D b_k D^dag) N^dag, and local conjugation keeps
    # the operator-Schmidt rank (Nielsen et al., PRA 67, 052301).
    d = kak.kak_decompose(u)
    n = kak.nonlocal_gate(d.theta)
    left = [d.c_local @ b @ d.c_local.conj().T for b in _gate_betas_from_vectors(basis)]
    right = [d.d_local @ b @ d.d_local.conj().T for b in _gate_betas_from_vectors(basis)]
    frame = [_second_schmidt(n @ np.kron(left[j], right[k]) @ n.conj().T) for j, k in tp.PAIR_ORDER]
    report = tp.analyze_gate_teleport(u, basis)
    direct = [_second_schmidt(w) for w in report.w_matrices]
    # Within rounding of the threshold a verdict may flip on either path.
    assume(all(abs(s - la.SEPARABLE_TOL) > 1e-9 for s in frame + direct))
    assert report.separable.tolist() == [s <= la.SEPARABLE_TOL for s in frame]
