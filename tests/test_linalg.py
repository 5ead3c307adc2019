import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gateport import bases, kak
from gateport import fourway as fw
from gateport import linalg as la
from gateport import separability as sep
from gateport import simulator as sim
from gateport import teleport as tp
from strategies import ANGLES, QUARTERS, SEEDS


def test_tensor_identity():
    assert np.allclose(la.tensor(la.I2, la.I2), np.eye(4))


def test_tensor_x_z():
    expected = np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    assert np.allclose(la.tensor(la.SX, la.SZ), expected)


def test_tensor_z_z():
    assert np.allclose(la.tensor(la.SZ, la.SZ), np.diag([1, -1, -1, 1]))


def test_tensor_mixed_product_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c, d = (la.haar_random_unitary(2, rng) for _ in range(4))
        lhs = la.tensor(a, b) @ la.tensor(c, d)
        rhs = la.tensor(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def _expm_anti_hermitian(a):
    # a = i*h with h Hermitian, so exp(a) = v diag(e^{i w}) v^dag from eigh(h).
    w, v = np.linalg.eigh(-1j * a)
    return v @ np.diag(np.exp(1j * w)) @ v.conj().T


def test_kronecker_sum_exponential():
    # exp(A) (x) exp(B) = exp(A (x) I + I (x) B) for anti-Hermitian A, B
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = g - g.conj().T
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = g - g.conj().T
        lhs = la.tensor(_expm_anti_hermitian(a), _expm_anti_hermitian(b))
        rhs = _expm_anti_hermitian(la.tensor(a, la.I2) + la.tensor(la.I2, b))
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_tensor_equals_kron_exactly():
    rng = np.random.default_rng(2)
    for shape_a, shape_b in (((2, 2), (2, 2)), ((2, 2), (4, 4)), ((1, 3), (2, 1)), ((4, 4), (2, 2))):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(la.tensor(a, b), np.kron(a, b))


def test_tensor_broadcasts_stacks_as_kron_pair_by_pair():
    rng = np.random.default_rng(3)
    for k in (1, 2, 5):
        a = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        b = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        got = la.tensor(a, b)
        assert got.shape == (k, 4, 4)
        for i in range(k):
            assert np.array_equal(got[i], np.kron(a[i], b[i]))
        # A single matrix broadcasts against a stack.
        assert np.array_equal(la.tensor(a, la.SX), np.stack([np.kron(m, la.SX) for m in a]))


def test_is_unitary():
    assert la.is_unitary(la.SX, 1e-9)
    assert not la.is_unitary(np.diag([1.0, 0.0]), 1e-9)
    assert type(la.is_unitary(la.SX, 1e-9)) is bool


def test_require_unitary_accepts_strided_views():
    la.require_unitary(la.dag(la.H))
    for m in bases.beta_matrices(bases.m2_basis(), None, "gate_form").mats:
        la.require_unitary(m)
    with pytest.raises(ValueError):
        la.require_unitary(np.array([[1, np.nan], [0, 1]]).T)


def test_is_unitary_on_stacks_matches_each_matrix():
    rng = np.random.default_rng(3)
    mats = [la.haar_random_unitary(4, rng) for _ in range(6)]
    assert la.is_unitary(np.stack(mats), 1e-9)
    assert la.is_unitary(np.stack(mats).reshape(2, 3, 4, 4), 1e-9)
    for bad in (np.diag([1.0, 1.0, 1.0, 0.5]), mats[0] * (1 + 1e-6)):
        stack = np.stack(mats[:3] + [bad] + mats[3:])
        assert la.is_unitary(stack, 1e-9) == all(la.is_unitary(m, 1e-9) for m in stack)
        assert not la.is_unitary(stack, 1e-9)
    assert not la.is_unitary(np.zeros((3, 4, 2)), 1e-9)


def test_is_unitary_reads_the_residual_frobenius_norm():
    tol = 1e-6

    def off_by(r):
        # m^dag m - I = diag(r, 0, 0, 0): residual Frobenius norm r.
        return np.diag([np.sqrt(1 + r), 1, 1, 1]).astype(complex)

    rng = np.random.default_rng(8)
    others = [la.I4, la.haar_random_unitary(4, rng), la.CNOT]
    assert la.is_unitary(off_by(0.5 * tol), tol)
    assert not la.is_unitary(off_by(2 * tol), tol)
    assert la.is_unitary(np.stack(others + [off_by(0.5 * tol)]), tol)
    assert not la.is_unitary(np.stack(others + [off_by(2 * tol)]), tol)


def test_is_unitary_rejects_nan_entries_bad_tol_and_non_square_input():
    nan = la.I4.copy()
    nan[1, 2] = np.nan
    assert not la.is_unitary(nan, 1e-9)
    assert not la.is_unitary(np.stack([la.I4, nan]), 1e-9)
    assert not la.is_unitary(la.I4, -1.0)
    assert not la.is_unitary(la.I4, float("nan"))
    assert not la.is_unitary(np.stack([la.I4, la.SWAP]), -1.0)
    assert not la.is_unitary(np.ones((4, 2)), 1e-9)
    assert not la.is_unitary(np.ones(4), 1e-9)
    assert la.is_unitary(np.zeros((0, 2, 2)), 1e-9) is True  # no matrix, so none is off
    # NaN only in the last matrix of a stack: the per-matrix maximum must keep it.
    assert not la.is_unitary(np.stack([la.I4, la.SWAP, la.CNOT, nan]), 1e-9)
    assert not la.is_unitary(np.stack([la.I4, la.SWAP, la.CNOT, nan]).reshape(2, 2, 4, 4), 1e-9)


def test_is_unitary_rejects_disentangled_beta():
    # gate_form matrix of a product basis vector is singular
    v = np.array([1, 0, 0, 0], dtype=complex)  # |00>
    beta = np.sqrt(2) * np.array([[np.vdot(v, np.eye(4)[:, 2 * x + y]) for x in range(2)] for y in range(2)])
    assert not la.is_unitary(beta, 1e-6)


def test_equal_up_to_global_phase():
    assert la.equal_up_to_global_phase(la.SX, 1j * la.SX, 1e-12)
    assert not la.equal_up_to_global_phase(la.SX, la.SZ, 1e-9)
    assert la.equal_up_to_global_phase(-1j * la.SY, np.array([[0, -1], [1, 0]]), 1e-12)


def _entry_phase_residual(a, b):
    """||a - c b||_F with c aligning a to b at b's largest entry: the phase rule that
    phase_residual replaced."""
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ratio = a[idx] * np.conj(b[idx])
    c = ratio / abs(ratio) if abs(ratio) > 0 else 1.0
    return np.linalg.norm(a - c * b)


def _complex_matrix(rng, n):
    g = rng.standard_normal((2, n, n))
    return g[0] + 1j * g[1]


@settings(max_examples=100)
@given(SEEDS, ANGLES, st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0, 10.0]), st.sampled_from([2, 4]))
def test_phase_residual_is_least_and_recovers_a_global_phase(seed, phi, noise, n):
    rng = np.random.default_rng(seed)
    b = _complex_matrix(rng, n)
    a = np.exp(1j * phi) * b + noise * _complex_matrix(rng, n)
    _, residual = la.phase_residual(a, b)
    assert residual <= _entry_phase_residual(a, b) * (1 + 1e-12) + 1e-14
    c, residual = la.phase_residual(np.exp(1j * phi) * b, b)
    assert abs(c - np.exp(1j * phi)) <= 1e-12 and residual <= 1e-12 * np.linalg.norm(b)


def test_phase_residual_stacks_and_a_zero_overlap():
    c, residual = la.phase_residual(np.stack([1j * la.SX, -la.SZ]), la.SX)
    assert np.allclose(c, [1j, 1]) and np.allclose(residual, [0, 2])  # <SX, -SZ> = 0: c = 1
    c, _ = la.phase_residual(np.array([[-0.0]]), np.array([[1.0]]))
    assert c[()] == 1  # the angle of -0.0 + 0j is pi


def test_pauli_products_find_phased_pauli_products_within_tol():
    phases = np.exp(1j * np.arange(16))[:, None, None]
    assert la.pauli_products(phases * la.PAULI_PAIRS, 1e-12).tolist() == list(range(16))
    near = la.PAULI_PAIRS[5] + 1e-6 * la.PAULI_PAIRS[6]  # residual 2e-6
    assert la.pauli_products(np.stack([near, la.CNOT]), 1e-5).tolist() == [5, -1]
    assert la.pauli_products(near, 1e-7) == -1


_BELL = bases.bell_basis()
_PSI = la.random_state(4, 0)
_HALF = np.array([0.6, 0.8])  # a normalized single-qubit state with no zero entry


# --- The library boundary, as one generated table ---------------------------------------------------
# A slot is a call, the name its errors give the input, the input's shape (None: any) and its bound.
# Each bad kind puts one value in the last entry z of a valid input (in a stack, its last matrix):
_KINDS = {"nan": lambda z: np.nan, "inf": lambda z: np.inf, "-inf": lambda z: -np.inf, "infj": lambda z: 1j * np.inf,
          "1e200": lambda z: 1e200, "off": lambda z: z / 2, "complex": lambda z: z + 1j}
_NON_FINITE = ("nan", "inf", "-inf", "infj")


def _bad(good, kind):
    bad = np.array(good, dtype=complex)
    bad.flat[-1] = _KINDS[kind](bad.flat[-1])
    return bad


def _cells(slot, call, good, messages):
    """(id, call, input, message) for the valid input `good` (message None) and each bad kind in
    `messages` (kind: message); the "shape" kind is a list of (wrong input, message)."""
    yield f"{slot}-valid", call, good, None
    for wrong, message in messages.pop("shape", ()):
        yield f"{slot}-shape{np.shape(wrong)}", call, wrong, message
    for kind, message in messages.items():
        yield f"{slot}-{kind}", call, _bad(good, kind), message


def _non_finite(what):
    return dict.fromkeys(_NON_FINITE, f"{what} has non-finite entries")


def _unitary(slot, call, what, shape, tol=la.DEFAULT_UNITARY_TOL, shape_message=None, good=None):
    good = (la.I2 if shape == (2, 2) else la.I4) if good is None else good
    off = f"{what} is not unitary within {tol}"
    if shape is None:  # any shape: a matrix that is not square is not unitary
        shapes = [(good[..., :2], off)]
    else:
        wrongs = [la.I4] if shape == (2, 2) else [la.I2, np.eye(8)]
        shapes = [(w, shape_message or f"{what} must have shape {shape}, got {w.shape}") for w in wrongs]
    return _cells(slot, call, good, {"shape": shapes, **_non_finite(what), "1e200": off, "off": off})


def _orthonormal(slot, call):
    """A slot taking a basis, built from its vectors as MeasurementBasis(vectors, "probe")."""
    off = f"basis 'probe' is not orthonormal within {la.DEFAULT_UNITARY_TOL}"
    return _cells(f"{slot}:basis", lambda v: call(bases.MeasurementBasis(v, "probe")), la.I4, {
        "shape": [(la.I4[:3], "basis 'probe' is not four 4-vectors: shape (3, 4)")],
        **_non_finite("basis 'probe'"), "1e200": off, "off": off})


def _normalized(slot, call, good, message, shapes=()):
    return _cells(slot, call, good, {"shape": shapes, **dict.fromkeys((*_NON_FINITE, "1e200", "off"), message)})


def _angles(slot, call, what, good=0.3, shapes=(), real=True):
    """A slot taking finite angles, which must also be real unless `real` is False."""
    return _cells(slot, call, good, {"shape": shapes, **_non_finite(what),
                                     **({"complex": f"{what} has non-real entries"} if real else {})})


_RESOURCE_SHAPES = [(np.reshape(tp.bell_resource(), shape),
                     f"resource state must be a 2x2 coefficient matrix, got shape {shape}")
                    for shape in [(4,), (1, 4), (4, 1), (2, 2, 1)]]
_INPUT = "input state must be normalized"
_INPUT_SHAPE = "input must be a 4-vector or a (k, 4) stack of them"
_REGISTER = "assembled register is not normalized"
_WIDTH = f"register width must be 1..{sim.MAX_QUBITS} qubits"
_BOUNDARY = [
    *_unitary("require_unitary", la.require_unitary, "matrix", None),
    *_unitary("principal_sqrt", la.principal_sqrt, "matrix", None),
    *_unitary("kak_decompose", kak.kak_decompose, "input gate", (4, 4)),
    *_unitary("is_clifford", kak.is_clifford, "input gate", (4, 4), la.CLIFFORD_TOL),
    *_unitary("euler_zyz", kak.euler_zyz, "single-qubit gate", (2, 2),
              shape_message="single-qubit gate must be 2x2 or a (..., 2, 2) stack, got shape (4, 4)"),
    *_unitary("tensor_factorize", sep.tensor_factorize, "factorization input", (4, 4)),
    *_unitary("factorize_all", sep.factorize_all, "factorization input", None,
              good=np.stack([la.SWAP, la.CNOT, la.I4])),
    *_unitary("analyze_gate_teleport:gate", lambda m: tp.analyze_gate_teleport(m, _BELL), "teleported gate", (4, 4)),
    *_unitary("theorem1_check:gate", lambda m: tp.theorem1_check(m, _BELL), "teleported gate", (4, 4)),
    *_unitary("run_gate_teleport:gate", lambda m: sim.run_gate_teleport(_PSI, m, _BELL), "teleported gate", (4, 4)),
    *_unitary("analyze_fourway:gate", lambda m: fw.analyze_fourway(m, _BELL, _PSI), "teleported gate", (4, 4)),
    *_unitary("conjugated_pauli_basis", bases.conjugated_pauli_basis, "conjugating unitary", (2, 2)),
    *_unitary("phase_paired_basis:gate", lambda m: bases.phase_paired_basis(m, 1, 1), "front gate", (4, 4)),
    *_unitary("beta_matrices:front", lambda m: bases.beta_matrices(_BELL, m), "front gate", None),
    *_orthonormal("require_orthonormal", bases.require_orthonormal),
    *_orthonormal("analyze_gate_teleport", lambda b: tp.analyze_gate_teleport(la.CNOT, b)),
    *_orthonormal("theorem1_check", lambda b: tp.theorem1_check(la.CNOT, b)),
    *_orthonormal("analyze_state_teleport", lambda b: tp.analyze_state_teleport(tp.bell_resource(), b)),
    *_orthonormal("run_state_teleport", lambda b: sim.run_state_teleport(_HALF, tp.bell_resource(), b)),
    *_orthonormal("run_gate_teleport", lambda b: sim.run_gate_teleport(_PSI, la.CNOT, b)),
    *_orthonormal("analyze_fourway", lambda b: fw.analyze_fourway(la.CNOT, b, _PSI)),
    *_normalized("require_normalized", lambda v: la.require_normalized(v, "state"), [_HALF, _HALF], "state"),
    *_normalized("analyze_state_teleport:resource", lambda p: tp.analyze_state_teleport(p, _BELL), tp.bell_resource(),
                 "resource state must be normalized", _RESOURCE_SHAPES),
    # The oracle checks the resource as part of the register.
    *_normalized("run_state_teleport:resource", lambda p: sim.run_state_teleport(_HALF, p, _BELL), tp.bell_resource(),
                 _REGISTER, _RESOURCE_SHAPES),
    *_normalized("run_state_teleport:input", lambda x: sim.run_state_teleport(x, tp.bell_resource(), _BELL), _HALF,
                 _INPUT, [(_PSI, "input state must be a 2-vector, got shape (4,)")]),
    *_normalized("run_gate_teleport:input", lambda v: sim.run_gate_teleport(v, la.CNOT, _BELL), _PSI, _INPUT,
                 [(_PSI[:3], _INPUT_SHAPE), (_PSI[None, None], _INPUT_SHAPE)]),
    *_normalized("run_gate_teleport:inputs", lambda v: sim.run_gate_teleport(v, la.CNOT, _BELL), [_PSI, _PSI], _INPUT),
    *_normalized("analyze_fourway:input", lambda v: fw.analyze_fourway(la.CNOT, _BELL, v), _PSI, _INPUT,
                 [(_HALF, "input state must be a 4-vector, got shape (2,)")]),
    *_normalized("register_from", lambda v: sim.register_from([v, [1, 0]]), _HALF, _REGISTER,
                 [([], _WIDTH), (np.ones(2**9) / 2**4.5, _WIDTH), (np.ones(3) / np.sqrt(3), _WIDTH)]),
    *_angles("rot", lambda a: kak.rot("x", a), "rotation angle",
             shapes=[((0.1, 0.2), "rotation angle must have shape (), got (2,)")]),
    *_angles("t_gate", lambda a: tp.t_gate(a, 0), "t_gate angles"),
    *_angles("table2_factors", lambda a: tp.table2_factors(a, 0), "t_gate angles"),
    *_angles("nonlocal_gate", kak.nonlocal_gate, "non-local angles", [(0, 0, 0), (0.3, 0.2, 0.1)],
             [(w, f"non-local angles must have shape (..., 3), got {np.shape(w)}")
              for w in [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), np.zeros((5, 2))]]),
    *_angles("classify_nonlocal", kak.classify_nonlocal, "non-local angles", (0.3, 0.2, 0.1),
             [((0.1, 0.2), "non-local angles must have shape (3,), got (2,)")]),
    *_angles("w_witness", lambda a: sep.w_witness(1, a, 0), "witness angles"),
    *_angles("eq44_separable", lambda a: sep.eq44_separable(a, 0), "witness angles"),
    *_angles("beta_ab_basis", lambda b: bases.beta_ab_basis(0.5, b), "beta_ab parameters", 0.5),
    *_angles("beta_nl_basis", lambda t: bases.beta_nl_basis(0, 0, t), "non-local angles"),
    *_angles("phase_paired_basis:phases", lambda p: bases.phase_paired_basis(la.I4, 1, p), "relative phases", 1.0,
             real=False),
    # The special cases, with the inputs of the tests they replace.
    ("dimension-0", lambda n: la.random_state(n, 1), 0, "state dimension must be at least 1, got 0"),
    ("unitary-dimension-0", lambda n: la.haar_random_unitary(n, 1), 0, "unitary dimension must be at least 1, got 0"),
    ("rotation-axis", lambda axis: kak.rot(axis, 0.1), "w", "rotation axis must be x, y or z, got 'w'"),
    *[(f"witness-labels{args}", lambda args: sep.w_witness(args[0], 0.1, 0.2, pauli=args[1]), args, message)
      for args, message in [((1, "Z"), "witness 1 takes pauli in ('X', 'Y')"),
                            ((3, "Y"), "witness 3 takes pauli in ('X', 'Z')"), ((5, "X"), "kind must be 1..4")]],
    *[(f"state-corrections{c.shape}", lambda c: sim.run_state_teleport(_HALF, tp.bell_resource(), _BELL, c), c,
       f"corrections must be a (4, 2, 2) stack, got shape {c.shape}")
      for c in [la.I2, np.stack([la.I2] * 3), np.zeros((16, 2, 2)), np.zeros((4, 2, 2, 2))]],
    *[(f"gate-corrections{c.shape}", lambda c: sim.run_gate_teleport(_PSI, la.CNOT, _BELL, c), c,
       f"corrections must be a (16, 2, 2, 2) stack of pairs, got shape {c.shape}")
      for c in [np.zeros((16, 2, 2)), np.zeros((16, 4, 4)), np.zeros((4, 2, 2, 2)), np.zeros((2, 16, 2, 2))]],
    *[(f"overlapping-pairs{pairs}", lambda pairs: sim.project_outcomes(la.random_state(8, 0), pairs, _BELL), pairs,
       "measured qubits must be distinct and in range") for pairs in [((0, 0),), ((0, 1), (1, 2)), ((0, 3),)]],
    ("beta_ab-circle", lambda b: bases.beta_ab_basis(0.5, b), 0.2, "beta_ab parameters must satisfy a^2 + b^2 = 1/2"),
]


_REJECTED = [cell for cell in _BOUNDARY if cell[3] is not None]
_VALID = [cell for cell in _BOUNDARY if cell[3] is None]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, bad, message", [cell[1:] for cell in _REJECTED], ids=[cell[0] for cell in _REJECTED])
def test_each_boundary_rejects_each_bad_kind_with_its_one_line(call, bad, message):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, good", [cell[1:3] for cell in _VALID], ids=[cell[0] for cell in _VALID])
def test_each_boundary_slot_accepts_its_valid_input(call, good):
    call(good)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [*_NON_FINITE, "1e200", "off"])
def test_the_predicates_are_quietly_false_on_each_bad_kind(kind):
    bad = _bad(la.I4, kind)
    assert la.is_unitary(bad) is False and la.is_unitary(np.stack([la.I4, bad])) is False
    if np.isfinite(bad).all():  # a basis holds finite vectors only
        assert bases.validate_basis(bases.MeasurementBasis(bad)).orthonormal is False


# Eigenphase pairs that one eigh of the real part a alone mixes: exact repeats, 2e-8 and 1e-4
# apart, and either side of -1 (pi - gap/2 and gap/2 - pi).  QUARTERS makes fourfold repeats.
_PHASE_PAIRS = st.builds(
    lambda phi, gap, straddle: (np.pi - gap / 2, gap / 2 - np.pi) if straddle else (phi, phi + gap),
    st.one_of(QUARTERS, ANGLES), st.sampled_from([0.0, 2e-8, 1e-4]), st.booleans(),
)


@given(_PHASE_PAIRS, _PHASE_PAIRS, st.booleans(), SEEDS)
# Phases phi and psi meet in the mix c = tan((phi + psi) / 2): 0.3 meets a partner in each of the
# mixes 0, 1e-3 and 0.5377, so only a later mix serves.
@example((0.3, -0.3), (2 * np.arctan(1e-3) - 0.3, 2 * np.arctan(0.5377) - 0.3), True, 0)
def test_unitary_eigenbasis_diagonalizes_clustered_spectra(pair, other, real, seed):
    gaussian = np.random.default_rng(seed).standard_normal((4, 4))
    q = np.linalg.qr(gaussian)[0] if real else la.haar_random_unitary(4, seed)
    m = q @ np.diag(np.exp(1j * np.array(pair + other))) @ la.dag(q)
    a, b = (m + la.dag(m)) / 2, (m - la.dag(m)) / 2j
    if real:  # m is symmetric, as kak_decompose's m^T m: a and b are real
        a, b = a.real, b.real
    phases, p = la.unitary_eigenbasis(a, b)
    assert np.linalg.norm(la.dag(p) @ m @ p - np.diag(np.exp(1j * phases))) <= la.EIGEN_TOL
    assert la.is_unitary(p, 1e-12)
    assert np.isrealobj(p) or not real


def test_principal_sqrt_examples():
    assert np.allclose(la.principal_sqrt(np.eye(4, dtype=complex)), np.eye(4))
    r = la.principal_sqrt(np.diag([1, 1, 1, -1]).astype(complex))
    assert np.allclose(r, np.diag([1, 1, 1, 1j]), atol=1e-12)
    r = la.principal_sqrt(la.SWAP)
    assert np.linalg.norm(r @ r - la.SWAP) < 1e-10


def test_principal_sqrt_branch_and_property():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u = la.haar_random_unitary(4, rng)
        r = la.principal_sqrt(u)
        assert np.linalg.norm(r @ r - u) < 1e-10
    phases = np.angle(np.linalg.eigvals(la.principal_sqrt(la.haar_random_unitary(4, 9))))
    assert np.all(phases > -np.pi / 2 - 1e-12) and np.all(phases <= np.pi / 2 + 1e-12)


def test_principal_sqrt_minus_one_takes_the_principal_branch():
    # Eigenvalue -1 has phase pi, whose half is +pi/2, whatever the sign
    # of the zero imaginary part the input happens to carry.
    for minus_one in (-np.eye(2, dtype=complex), (1j * la.SX) @ (1j * la.SX), -la.I4):
        root = la.principal_sqrt(minus_one)
        assert np.allclose(root, 1j * np.eye(len(minus_one)), atol=1e-12)


def test_haar_determinism_and_unitarity():
    assert np.array_equal(la.haar_random_unitary(2, 123), la.haar_random_unitary(2, 123))
    assert la.is_unitary(la.haar_random_unitary(4, 7), 1e-10)


def test_haar_trace_moment():
    # E[|tr U|^2] = 1 over the Haar measure, any dimension
    for dim in (2, 4):
        rng = np.random.default_rng(8)
        acc = 0.0
        n = 10_000
        for _ in range(n):
            acc += abs(np.trace(la.haar_random_unitary(dim, rng))) ** 2
        mean = acc / n / dim
        assert abs(mean - 1.0 / dim) < 0.05 / dim


@settings(max_examples=60)
@given(st.sampled_from((2, 4, 8, 16)), st.integers(0, 2**32 - 1))
def test_random_state_is_the_first_haar_column_and_keeps_the_stream(dim, seed):
    rng_state, rng_haar = np.random.default_rng(seed), np.random.default_rng(seed)
    v = la.random_state(dim, rng_state)
    assert np.abs(v - la.haar_random_unitary(dim, rng_haar)[:, 0]).max() <= 1e-12
    assert abs(np.linalg.norm(v) - 1) <= 1e-12
    # Both leave the generator at the same place: the next draw agrees.
    assert rng_state.standard_normal() == rng_haar.standard_normal()


def test_random_state_seed_1_is_pinned():
    # Recorded from the QR-based draw (the first column of a Haar unitary).
    expected = [
        0.11511759709203306 + 0.0132318366109258j,
        0.3015832155454783 + 0.002712242856830538j,
        0.121442760342342 - 0.9031157010970355j,
        -0.2453203208101185 + 0.07116664787424284j,
    ]
    assert np.abs(la.random_state(4, 1) - expected).max() <= 1e-12


@pytest.mark.parametrize("position", range(16))
def test_kron_split_round_trip_with_the_largest_entry_anywhere(position):
    r, c = divmod(position, 4)
    rng = np.random.default_rng(position)
    for _ in range(20):
        a, b = 0.4 * (rng.normal(size=(2, 2, 2, 2)) @ [1, 1j])
        a[r >> 1, c >> 1] = 2 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        b[r & 1, c & 1] = 2 * np.exp(1j * rng.uniform(-np.pi, np.pi))
        m = (rng.normal() + 1j * rng.normal()) * np.kron(a, b)
        assert np.unravel_index(np.argmax(np.abs(m)), m.shape) == (r, c)
        s, a1, b1 = la.kron_split(m)
        assert np.abs(s * np.kron(a1, b1) - m).max() < 1e-12
        assert abs(np.linalg.det(a1) - 1) < 1e-12 and abs(np.linalg.det(b1) - 1) < 1e-12


def test_kron_split_returns_no_view_of_its_input():
    m = np.kron(np.diag([1.0, 0.0]), la.SX).astype(complex)  # a singular first factor
    s, a, b = la.kron_split(m)
    assert np.abs(s * np.kron(a, b) - m).max() < 1e-12
    assert not np.shares_memory(a, m) and not np.shares_memory(b, m)


def test_require_normalized_checks_each_vector_of_a_stack():
    good = np.array([[1, 0], [0.6, 0.8j]])
    assert la.require_normalized(good, "m").tobytes() == good.astype(complex).tobytes()
    for bad in ([[1, 0], [np.inf, 0]], [[1, 0], [0.6, 0.8 + 1e-8]], [[1, 0], [np.nan, 0]]):
        with pytest.raises(ValueError, match="^m$"):
            la.require_normalized(np.array(bad), "m")
