import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gateport import kak
from gateport import linalg as la
from gateport import separability as sep
from strategies import haar_local


def test_operator_schmidt_examples():
    assert np.allclose(sep.operator_schmidt(np.eye(4, dtype=complex)), [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(sep.operator_schmidt(la.SWAP), [0.5] * 4, atol=1e-12)
    s = sep.operator_schmidt(la.CNOT)
    assert np.allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-12)


def test_operator_schmidt_on_stacks_matches_each_matrix():
    rng = np.random.default_rng(4)
    mats = [la.CNOT, la.SWAP, np.zeros((4, 4)), la.tensor(la.H, la.S)]
    mats += [la.haar_random_unitary(4, rng) for _ in range(4)]
    stacked = sep.operator_schmidt(np.stack(mats))
    assert stacked.shape == (8, 4)
    for row, m in zip(stacked, mats):
        assert np.allclose(row, sep.operator_schmidt(m), atol=1e-14)
    assert np.array_equal(stacked[2], np.zeros(4))


def test_factorize_simple_product():
    f = sep.tensor_factorize(la.tensor(la.SX, la.SZ))
    assert f.separable
    assert la.equal_up_to_global_phase(f.factor_a, la.SX, 1e-10)
    assert la.equal_up_to_global_phase(f.factor_b, la.SZ, 1e-10)


def test_factorize_cnot_not_separable():
    f = sep.tensor_factorize(la.CNOT)
    assert not f.separable
    assert f.factor_a is None and f.factor_b is None


def test_factorize_reconstruction_of_random_products():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = la.haar_random_unitary(2, rng)
        b = la.haar_random_unitary(2, rng)
        w = np.exp(1j * rng.uniform(-np.pi, np.pi)) * la.tensor(a, b)
        f = sep.tensor_factorize(w)
        assert f.separable
        assert la.is_unitary(f.factor_a, 1e-9) and la.is_unitary(f.factor_b, 1e-9)
        rec = np.exp(1j * f.phase) * la.tensor(f.factor_a, f.factor_b)
        assert np.linalg.norm(rec - w) < 1e-9
        # gauge: the reference entry of factor_a is real positive
        top = f.factor_a.flat[sep.gauge_index(f.factor_a)]
        assert abs(top.imag) < 1e-9 and top.real > 0


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.0, max_value=1e-8),
)
def test_closed_form_phase_and_gauge(seed, phi, eps):
    # A product of Haar factors, times a global phase and a non-local
    # part small enough to pass the separability screen.
    rng = np.random.default_rng(seed)
    a = la.haar_random_unitary(2, rng)
    b = la.haar_random_unitary(2, rng)
    w = np.exp(1j * phi) * la.tensor(a, b) @ kak.nonlocal_gate((eps, 0.0, 0.0))
    f = sep.tensor_factorize(w)
    assert f.separable
    product = la.tensor(f.factor_a, f.factor_b)
    expected = np.angle(np.trace(product.conj().T @ w) / 4.0)
    assert abs((f.phase - expected + np.pi) % (2 * np.pi) - np.pi) <= 1e-12
    for m in (f.factor_a, f.factor_b):
        top = m.flat[sep.gauge_index(m)]
        assert abs(top.imag) <= 1e-12 and top.real > 0
    # The unitary product misses w by ||(1 - e^{i eps X (x) X})||_F = 4 sin(eps / 2) <= 2 eps.
    assert np.linalg.norm(np.exp(1j * f.phase) * product - w) <= 1e-9 + 2 * eps


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        sep.tensor_factorize(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex))
    stack = np.stack([la.SWAP, la.CNOT, np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)])
    with pytest.raises(ValueError):
        sep.factorize_all(stack)


def test_factorize_all_matches_tensor_factorize():
    """factorize_all, and leading_products' verdicts and leading terms, agree with tensor_factorize."""
    rng = np.random.default_rng(5)
    products = [
        np.exp(1j * rng.uniform(-np.pi, np.pi)) * haar_local(rng) for _ in range(5)
    ]
    # Second Schmidt coefficients on both sides of SEPARABLE_TOL, and between it and twice it.
    near = [kak.nonlocal_gate((np.arcsin(x * sep.SEPARABLE_TOL), 0.0, 0.0)) for x in (0.5, 0.75, 0.99, 1.01, 1.5)]
    stack = np.stack(products + near + [la.CNOT, la.SWAP] + [la.haar_random_unitary(4, rng) for _ in range(3)])
    screened, leading = sep.leading_products(stack)
    assert screened.tolist() == [True] * 8 + [False] * 7
    separable, pairs = sep.factorize_all(stack)
    assert separable.dtype == bool and pairs.shape == (15, 2, 2, 2)
    for ok, (a, b), w, screen, term in zip(separable.tolist(), pairs, stack, screened.tolist(), leading):
        ref = sep.tensor_factorize(w)
        assert ok == ref.separable == screen
        if ref.separable:
            assert np.array_equal(a, np.exp(1j * ref.phase) * ref.factor_a)
            assert np.array_equal(b, ref.factor_b)
            # The pair misses w by the Schmidt remainder 2 * sqrt(s2^2 + s3^2 + s4^2) <= 2 * sqrt(3) * SEPARABLE_TOL,
            # plus a term of order SEPARABLE_TOL^2 from the leading coefficient.
            assert np.linalg.norm(la.tensor(a, b) - w) <= 4 * sep.SEPARABLE_TOL
            assert la.equal_up_to_global_phase(term, la.tensor(ref.factor_a, ref.factor_b))
        else:
            assert np.array_equal(a, la.I2) and np.array_equal(b, la.I2)


def test_verdict_and_factors_invariant_under_global_phase():
    rng = np.random.default_rng(1)
    u = la.haar_random_unitary(4, rng)
    f0 = sep.tensor_factorize(u)
    f1 = sep.tensor_factorize(np.exp(0.77j) * u)
    assert f0.separable == f1.separable
    assert np.allclose(f0.schmidt_values, f1.schmidt_values, atol=1e-10)
    w = haar_local(rng)
    f0 = sep.tensor_factorize(w)
    f1 = sep.tensor_factorize(np.exp(-1.3j) * w)
    assert np.allclose(f0.factor_a, f1.factor_a, atol=1e-9)
    assert np.allclose(f0.factor_b, f1.factor_b, atol=1e-9)


def test_schmidt_values_invariant_under_local_conjugation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = la.haar_random_unitary(4, rng)
        s0 = sep.operator_schmidt(w)
        s1 = sep.operator_schmidt(haar_local(rng) @ w @ haar_local(rng))
        assert np.allclose(s0, s1, atol=1e-9)


def test_witness_examples():
    lam = 1.234
    assert np.allclose(
        sep.w_witness(1, 0.0, lam), la.tensor(np.diag([np.exp(-0.5j * lam), np.exp(0.5j * lam)]), la.I2)
    )
    assert np.allclose(sep.w_witness(1, 0.9, 0.0), np.eye(4))
    assert sep.tensor_factorize(sep.w_witness(1, np.pi / 4, np.pi)).separable
    for kind in (1, 2, 3, 4):
        assert la.is_unitary(sep.w_witness(kind, 0.4, 1.1), 1e-12)


def test_witness_rejects_bad_labels():
    with pytest.raises(ValueError):
        sep.w_witness(1, 0.1, 0.2, pauli="Z")
    with pytest.raises(ValueError):
        sep.w_witness(3, 0.1, 0.2, pauli="Y")
    with pytest.raises(ValueError):
        sep.w_witness(5, 0.1, 0.2)


def test_eq44_examples():
    assert sep.eq44_separable(np.pi / 2, 1.234)
    assert sep.eq44_separable(0.7, 0.0)
    assert not sep.eq44_separable(np.pi / 4, np.pi / 3)


@settings(max_examples=100)
@given(
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
def test_eq44_solution_families(k, x):
    assert sep.eq44_separable(k * np.pi / 2, x)
    assert sep.eq44_separable(x, 2 * k * np.pi)
    assert sep.eq44_separable((2 * k + 1) * np.pi / 4, k * np.pi)


def test_double_pauli_commutators_vanish():
    labels = ("X", "Y", "Z")
    for mu, nu in itertools.product(labels, repeat=2):
        smm = la.tensor(la.PAULIS[mu], la.PAULIS[mu])
        snn = la.tensor(la.PAULIS[nu], la.PAULIS[nu])
        sim = la.tensor(la.I2, la.PAULIS[mu])
        smi = la.tensor(la.PAULIS[mu], la.I2)
        sin = la.tensor(la.I2, la.PAULIS[nu])
        sni = la.tensor(la.PAULIS[nu], la.I2)
        for lhs, rhs in ((smm, snn), (smm, sim), (smm, smi), (smi, sin), (sim, sni)):
            assert np.linalg.norm(lhs @ rhs - rhs @ lhs) < 1e-12
