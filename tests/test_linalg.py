import warnings

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


@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf)])
def test_require_unitary_names_an_infinite_entry_without_a_numpy_warning(value):
    # Finiteness is checked first: m^dag m of an infinite entry is inf * 0 = NaN, which
    # numpy reports as "invalid value encountered in matmul".
    m = la.I4.copy()
    m[3, 3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (m, np.stack([la.I4, m])):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                la.require_unitary(bad)


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


# A wrong shape or a non-finite entry where the library receives an input: one line naming
# that input, and no numpy warning (this module turns them into errors).
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: tp.analyze_gate_teleport(la.I2, _BELL), "teleported gate must have shape (4, 4)"),
        (lambda: tp.analyze_gate_teleport(np.eye(8), _BELL), "teleported gate must have shape (4, 4)"),
        (lambda: tp.theorem1_check(la.I2, _BELL), "teleported gate must have shape (4, 4)"),
        (lambda: sim.run_gate_teleport(_PSI, np.eye(8), _BELL), "teleported gate must have shape (4, 4)"),
        (lambda: fw.analyze_fourway(la.I2, _BELL, _PSI), "teleported gate must have shape (4, 4)"),
        (lambda: kak.is_clifford(la.I2), "input gate must have shape (4, 4)"),
        (lambda: kak.is_clifford(np.eye(8)), "input gate must have shape (4, 4)"),
        (lambda: kak.kak_decompose(np.eye(8)), "input gate must have shape (4, 4)"),
        (lambda: bases.conjugated_pauli_basis(la.I4), "conjugating unitary must have shape (2, 2)"),
        (lambda: bases.phase_paired_basis(la.I2, 1, 1), "front gate must have shape (4, 4)"),
        (lambda: la.random_state(0, 1), "state dimension must be at least 1"),
        (lambda: tp.t_gate(np.inf, 0), "t_gate angles has non-finite entries"),
        (lambda: kak.nonlocal_gate((np.inf, 0, 0)), "non-local angles has non-finite entries"),
        (lambda: kak.nonlocal_gate([(0, 0, 0), (0, np.nan, 0)]), "non-local angles has non-finite entries"),
        (lambda: kak.rot("x", np.inf), "rotation angle has non-finite entries"),
        (lambda: kak.rot("w", 0.1), "rotation axis must be x, y or z"),
        (lambda: bases.phase_paired_basis(la.I4, np.inf, 1), "relative phases has non-finite entries"),
        (lambda: kak.classify_nonlocal((np.nan, 0, 0)), "non-local angles has non-finite entries"),
        (lambda: sep.tensor_factorize(la.I2), "factorization input must have shape (4, 4)"),
        (lambda: kak.nonlocal_gate((0.1, 0.2)), "non-local angles must have shape (..., 3), got (2,)"),
        (lambda: kak.nonlocal_gate((0.1, 0.2, 0.3, 0.4)), "non-local angles must have shape (..., 3), got (4,)"),
        (lambda: kak.nonlocal_gate(np.zeros((5, 2))), "non-local angles must have shape (..., 3), got (5, 2)"),
        (lambda: la.haar_random_unitary(0, 1), "unitary dimension must be at least 1"),
        (lambda: sim.register_from([]), f"register width must be 1..{sim.MAX_QUBITS} qubits"),
        (lambda: sep.eq44_separable(np.nan, 0), "witness angles has non-finite entries"),
        (lambda: sep.w_witness(1, np.nan, 0), "witness angles has non-finite entries"),
        (lambda: tp.table2_factors(np.nan, 0), "t_gate angles has non-finite entries"),
    ],
    ids=["analyze-2x2", "analyze-8x8", "theorem1-2x2", "oracle-8x8", "fourway-2x2", "clifford-2x2",
         "clifford-8x8", "kak-8x8", "conjugated-4x4", "phase-paired-2x2", "state-dim-0", "t-gate-inf",
         "nonlocal-inf", "nonlocal-nan", "rot-inf", "rot-axis-w", "phase-paired-inf", "classify-nan",
         "factorize-2x2", "nonlocal-pair", "nonlocal-four", "nonlocal-5x2", "unitary-dim-0", "register-empty",
         "eq44-nan", "witness-nan", "table2-nan"],
)
def test_library_inputs_of_a_wrong_shape_or_non_finite_raise_one_line_naming_them(call, what):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(what) and "\n" not in str(info.value)


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


def test_principal_sqrt_rejects_non_unitary():
    with pytest.raises(ValueError):
        la.principal_sqrt(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))


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


def _normalization_sites():
    """(call, message) of each check built on require_normalized; call builds
    the site's input from a single-qubit state v, with no product that
    would turn an infinite entry into a numpy warning before the site sees it."""
    from gateport import fourway as fw
    from gateport import simulator as sim
    from gateport import teleport as tp

    bell = bases.bell_basis()
    return {
        "analyze_state_teleport": (
            lambda v: tp.analyze_state_teleport(np.outer(v, [1, 1]) / np.sqrt(2), bell),
            "resource state must be normalized"),
        "analyze_fourway": (lambda v: fw.analyze_fourway(la.CNOT, bell, np.concatenate([v, [0, 0]])),
                            "input state must be normalized"),
        "register_from": (lambda v: sim.register_from([v, [1, 0]]), "assembled register is not normalized"),
        "run_state_teleport": (lambda v: sim.run_state_teleport(v, tp.bell_resource(), bell),
                               "input state must be normalized"),
        "run_gate_teleport": (lambda v: sim.run_gate_teleport(np.concatenate([v, [0, 0]]), la.CNOT, bell),
                              "input state must be normalized"),
        "run_gate_teleport-stack": (
            lambda v: sim.run_gate_teleport(np.stack([[1, 0, 0, 0], np.concatenate([v, [0, 0]])]), la.CNOT, bell),
            "input state must be normalized"),
    }


@pytest.mark.parametrize("site", list(_normalization_sites()))
def test_every_normalization_site_rejects_a_nan_state(site):
    call, message = _normalization_sites()[site]
    call(np.array([1.0, 0.0]))  # the same call with a normalized state passes
    # An infinite entry must fail the same way, not through a numpy warning
    # (an error under this suite's filterwarnings).
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0 + 1e-6, 0.0]):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(np.array(bad))


def test_require_normalized_checks_each_vector_of_a_stack():
    good = np.array([[1, 0], [0.6, 0.8j]])
    assert la.require_normalized(good, "m").tobytes() == good.astype(complex).tobytes()
    for bad in ([[1, 0], [np.inf, 0]], [[1, 0], [0.6, 0.8 + 1e-8]], [[1, 0], [np.nan, 0]]):
        with pytest.raises(ValueError, match="^m$"):
            la.require_normalized(np.array(bad), "m")
