import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gateport import linalg as la
from gateport import bases
from gateport import kak
import reference as ref
from strategies import HAAR_GATES, SEEDS, capable_basis

P = np.diag([1, 1j]).astype(complex)


def test_builtin_bases_orthonormal_exactly():
    for b in (bases.bell_basis(), bases.m1_basis(), bases.m2_basis()):
        m = b.matrix()
        assert np.linalg.norm(m.conj().T @ m - np.eye(4)) < 1e-12


def test_bell_gate_form_is_pauli_set():
    mats = bases.beta_matrices(bases.bell_basis(), convention="gate_form").mats
    for got, want in zip(mats, (la.I2, la.SX, la.SZ, -1j * la.SY)):
        assert np.allclose(got, want, atol=1e-12)


def test_bell_vectors_maximally_entangled():
    for v in bases.bell_basis().vectors:
        assert abs(bases.vector_entanglement(v) - 0.5) < 1e-12


def test_m2_gate_form_matrices():
    # third matrix is sigma_X, not the identity: the (|01>+|10>)/sqrt(2)
    # vector cannot induce I under any entry layout
    mats = bases.beta_matrices(bases.m2_basis(), convention="gate_form").mats
    for got, want in zip(mats, (-1j * P, la.SY, la.SX, P @ la.SZ)):
        assert np.allclose(got, want, atol=1e-12)


def test_m1_is_beta_ab_half_half():
    m1 = bases.m1_basis()
    ab = bases.beta_ab_basis(0.5, 0.5)
    for u, v in zip(m1.vectors, ab.vectors):
        assert np.allclose(u, v)


def test_beta_ab_constraint_enforced():
    with pytest.raises(ValueError):
        bases.beta_ab_basis(0.5, 0.2)


def test_beta_ab_z_like_member():
    b = bases.beta_ab_basis(1 / np.sqrt(2), 0.0)
    rep = bases.validate_basis(b)
    assert rep.orthonormal and rep.all_beta_unitary
    mats = bases.beta_matrices(b, convention="gate_form").mats
    assert la.equal_up_to_global_phase(mats[0], la.SZ, 1e-9)


@settings(max_examples=100)
@given(st.floats(min_value=0, max_value=2 * np.pi, allow_nan=False))
def test_beta_ab_unitary_on_constraint_circle(t):
    a, b = np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2)
    rep = bases.validate_basis(bases.beta_ab_basis(a, b))
    assert rep.orthonormal and rep.all_beta_unitary


def test_beta_ab_matches_closed_form_up_to_global_sign():
    a, b = 0.3, np.sqrt(0.5 - 0.09)
    closed = [
        np.sqrt(2) * np.array([[a, -b], [-b, -a]]),
        np.sqrt(2) * np.array([[b, a], [-a, b]]),
        np.sqrt(2) * np.array([[a, -b], [b, a]]),
        np.sqrt(2) * np.array([[-b, -a], [-a, b]]),
    ]
    mats = bases.beta_matrices(bases.beta_ab_basis(a, b), convention="gate_form").mats
    for got, want in zip(mats, closed):
        assert la.equal_up_to_global_phase(got, want, 1e-10)


VALID_NL_PAIRS = [
    (0, np.pi / 4),
    (0, -np.pi / 4),
    (np.pi / 4, 0),
    (-np.pi / 4, 0),
    (0, 3 * np.pi / 4),
    (0, -3 * np.pi / 4),
    (3 * np.pi / 4, 0),
    (-3 * np.pi / 4, 0),
    (np.pi, np.pi / 4),
    (np.pi / 4, np.pi),
    (np.pi / 2, np.pi / 4),
    (-np.pi / 2, -np.pi / 4),
    (np.pi / 4, np.pi / 2),
    (-np.pi / 4, -np.pi / 2),
    (np.pi / 2, 3 * np.pi / 4),
    (3 * np.pi / 4, np.pi / 2),
]


@pytest.mark.parametrize("t1,t2", VALID_NL_PAIRS)
def test_beta_nl_listed_pairs_are_valid(t1, t2):
    rep = bases.validate_basis(bases.beta_nl_basis(t1, t2, 0.37))
    assert rep.orthonormal
    assert rep.all_beta_unitary
    assert np.allclose(rep.per_vector_entanglement, 0.5, atol=1e-9)


def test_beta_nl_free_third_angle():
    for t3 in (-2.0, 0.0, 0.37, 3.0):
        rep = bases.validate_basis(bases.beta_nl_basis(0.0, np.pi / 4, t3))
        assert rep.all_beta_unitary


def test_beta_nl_generic_angles_invalid_but_orthonormal():
    rep = bases.validate_basis(bases.beta_nl_basis(0.3, 0.1, 0.0))
    assert rep.orthonormal
    assert not rep.all_beta_unitary


def test_beta_nl_vectors_are_nonlocal_gate_columns():
    from gateport.kak import nonlocal_gate

    t = (0.3, 0.8, -0.2)
    u = nonlocal_gate(t)
    b = bases.beta_nl_basis(*t)
    for j, v in enumerate(b.vectors):
        assert np.allclose(v, u[:, j], atol=1e-12)


def test_state_form_is_scaled_transpose_of_gate_form():
    rng = np.random.default_rng(0)
    u = la.haar_random_unitary(4, rng)
    basis = capable_basis(rng)
    sf = bases.beta_matrices(basis, u, "state_form").mats
    gf = bases.beta_matrices(basis, u, "gate_form").mats
    for s, g in zip(sf, gf):
        assert np.allclose(np.sqrt(2) * s.T, g, atol=1e-12)


def test_gate_form_completeness():
    rng = np.random.default_rng(1)
    for _ in range(20):
        basis = capable_basis(rng)
        mats = bases.beta_matrices(basis, convention="gate_form").mats
        acc = sum(m @ m.conj().T for m in mats)
        assert np.linalg.norm(acc - 4 * np.eye(2)) < 1e-9


def test_beta_unitarity_iff_maximal_entanglement():
    rng = np.random.default_rng(2)
    for _ in range(30):
        u = la.haar_random_unitary(4, rng)
        basis = bases.MeasurementBasis(tuple(u[:, i] for i in range(4)), "random")
        mats = bases.beta_matrices(basis, convention="gate_form").mats
        for m, v in zip(mats, basis.vectors):
            maximal = abs(bases.vector_entanglement(v) - 0.5) < 1e-9
            assert la.is_unitary(m, 1e-8) == maximal


def test_basis_with_product_vector_has_zero_capability():
    vecs = (
        np.array([1, 0, 0, 0], dtype=complex),
        np.array([0, 1, 0, 0], dtype=complex),
        np.array([0, 0, 1, 0], dtype=complex),
        np.array([0, 0, 0, 1], dtype=complex),
    )
    rep = bases.validate_basis(bases.MeasurementBasis(vecs, "computational"))
    assert rep.orthonormal
    assert not rep.all_beta_unitary
    assert np.allclose(rep.per_vector_entanglement, 0.0)


def test_conjugated_pauli_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u_r = la.haar_random_unitary(2, rng)
        basis = bases.conjugated_pauli_basis(u_r)
        assert basis.is_orthonormal(1e-10)
        mats = bases.beta_matrices(basis, convention="gate_form").mats
        for label, m in zip(("I", "X", "Z", "Y"), mats):
            target = u_r.conj().T @ la.PAULIS[label] @ u_r
            assert np.linalg.norm(m - target) < 1e-10


@settings(max_examples=100)
@given(SEEDS)
def test_conjugated_pauli_vectors_equal_the_per_entry_loop(seed):
    u_r = la.haar_random_unitary(2, seed)
    expected = []
    for label in ("I", "X", "Z", "Y"):
        m = u_r.conj().T @ la.PAULIS[label] @ u_r
        v = np.zeros(4, dtype=complex)
        for x in range(2):
            for y in range(2):
                v[2 * x + y] = np.conj(m[y, x]) / np.sqrt(2.0)
        expected.append(v)
    got = np.stack(bases.conjugated_pauli_basis(u_r).vectors)
    assert got.tobytes() == np.stack(expected).tobytes()  # bit for bit, signed zeros included


def test_conjugated_pauli_identity_gives_bell_up_to_phase():
    basis = bases.conjugated_pauli_basis(la.I2)
    bell = bases.bell_basis()
    for v, w in zip(basis.vectors, bell.vectors):
        assert la.equal_up_to_global_phase(v, w, 1e-12)


def test_conjugated_pauli_closure():
    basis = bases.conjugated_pauli_basis(la.haar_random_unitary(2, 11))
    mats = bases.beta_matrices(basis, convention="gate_form").mats
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(la.equal_up_to_global_phase(prod, c, 1e-8) for c in mats)


def test_hadamard_conjugated_basis():
    basis = bases.conjugated_pauli_basis(la.H)
    mats = bases.beta_matrices(basis, convention="gate_form").mats
    for label, m in zip(("I", "X", "Z", "Y"), mats):
        assert np.allclose(m, la.H @ la.PAULIS[label] @ la.H, atol=1e-10)


def test_phase_paired_basis_orthonormal():
    rng = np.random.default_rng(4)
    u = la.haar_random_unitary(4, rng)
    b = bases.phase_paired_basis(u, np.exp(1j * np.pi / 4), 1j)
    assert b.is_orthonormal(1e-10)


@settings(max_examples=100)
@given(SEEDS, st.floats(-11, -8).map(lambda e: 10.0**e))
def test_capable_is_the_unitarity_of_all_sixteen_products(seed, size):
    # Gate-form betas of a capable basis, each moved off unitary by about size.
    rng = np.random.default_rng(seed)
    betas = bases.gate_betas(capable_basis(rng))
    betas = betas + size * (rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2)))
    assert bases.capable(betas) == all(la.is_unitary(np.kron(a, b), 1e-9) for a in betas for b in betas)


def _same_basis(got, vectors, name):
    """Same name and bit-identical vectors (signed zeros included)."""
    return got.name == name and all(np.asarray(v).tobytes() == u.tobytes() for v, u in zip(vectors, got.vectors))


def _scan_points(grid):
    return 2 * np.pi * np.arange(grid) / grid  # the t of `scan --grid grid`


@pytest.mark.parametrize("grid", [2, 3, 7, 8, 16, 32, 48, 100])
def test_scan_grid_beta_ab_bases_equal_the_per_point_bases(grid):
    ts = _scan_points(grid)
    a, b = np.cos(ts) / np.sqrt(2), np.sin(ts) / np.sqrt(2)
    for got, x, y in zip(bases.beta_ab_bases(a, b), a, b):
        # The former beta_ab_basis built its rows from the two floats.
        former = [[-x, y, y, x], [-y, x, -x, -y], [-x, -y, y, -x], [y, x, x, -y]]
        assert _same_basis(got, [np.asarray(row, dtype=complex) for row in former], f"beta_ab({x:g},{y:g})")
        single = bases.beta_ab_basis(x, y)
        assert _same_basis(got, single.vectors, single.name)


@pytest.mark.parametrize("grid", [2, 3, 7, 8, 16])
def test_scan_grid_beta_nl_bases_equal_the_per_point_bases(grid):
    ts = _scan_points(grid) - np.pi
    triples = [(t1, t2, 0.0) for t1 in ts for t2 in ts]
    for got, (t1, t2, t3) in zip(bases.beta_nl_bases(triples), triples):
        columns = kak.nonlocal_gate((t1, t2, t3)).T
        assert _same_basis(got, columns, f"beta_nl({t1:g},{t2:g},{t3:g})")
        single = bases.beta_nl_basis(t1, t2, t3)
        assert _same_basis(got, single.vectors, single.name)


def test_the_circle_check_covers_the_whole_beta_ab_grid():
    ts = 2 * np.pi * np.arange(8) / 8
    a, b = np.cos(ts) / np.sqrt(2), np.sin(ts) / np.sqrt(2)
    b[5] *= 1 + 1e-8
    with pytest.raises(ValueError, match="a\\^2 \\+ b\\^2 = 1/2"):
        bases.beta_ab_bases(a, b)
    assert len(bases.beta_ab_bases(a[:5], b[:5])) == 5


_ROWS = st.one_of(
    st.sampled_from([bases.bell_basis, bases.m1_basis, bases.m2_basis]).map(lambda f: f().vectors.copy()),
    HAAR_GATES,
    HAAR_GATES.map(lambda u: u.T.copy()),  # a Haar unitary's columns, copied in C order
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 1e-300]), min_size=32, max_size=32).map(
        lambda xs: (np.array(xs[:16]) + 1j * np.array(xs[16:])).reshape(4, 4)),  # signed zeros, not orthonormal
)


@settings(max_examples=100)
@given(_ROWS, SEEDS)
def test_a_basis_stores_one_read_only_row_array(rows, seed):
    """A tuple of vectors, a list of rows and a (4, 4) array give the same
    stored bytes, which later writes to the input never reach; matrix() is
    their transpose, and beta_matrices gives the paper's b_j and B_j of the rows."""
    vectors = tuple(np.array(v) for v in rows)
    inputs = {"tuple": tuple(v.copy() for v in vectors), "list": rows.tolist(), "array": rows.copy()}
    built = {form: bases.MeasurementBasis(value, form) for form, value in inputs.items()}
    inputs["tuple"][0][0] = inputs["list"][0][0] = inputs["array"][0, 0] = 7.0
    rng = np.random.default_rng(seed)
    u_front = la.haar_random_unitary(4, rng)
    rows = np.array(vectors, dtype=complex)
    for basis in built.values():
        stored = basis.vectors
        assert stored.shape == (4, 4) and stored.dtype == complex and not stored.flags.writeable
        assert stored.tobytes() == rows.tobytes()
        with pytest.raises(ValueError):
            stored[0, 0] = 0
        assert not basis.matrix().flags.writeable and np.shares_memory(basis.matrix(), stored)
        assert basis.matrix().tobytes() == rows.T.tobytes()
        for convention, want in (("gate_form", ref.gate_betas), ("state_form", ref.state_betas)):
            got = bases.beta_matrices(basis, None, convention).mats
            assert got.shape == (4, 2, 2) and got.tobytes() == np.array(want(rows)).tobytes()
            # With a front gate the reference takes each row's <b_j|U on its own.
            got = bases.beta_matrices(basis, u_front, convention).mats
            assert np.allclose(got, want(rows, u_front), rtol=0, atol=1e-12)


_FINITE = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf]).flatmap(lambda x: st.sampled_from([complex(x, 0), complex(0, x)]))


@st.composite
def _not_four_finite_vectors(draw):
    """An array of the wrong shape, or a (4, 4) array with NaN or infinite entries."""
    if draw(st.booleans()):
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5).filter(lambda s: s != (4, 4)))
        return draw(hnp.arrays(complex, shape, elements=_FINITE))
    rows = draw(hnp.arrays(complex, (4, 4), elements=_FINITE))
    for _ in range(draw(st.integers(1, 3))):
        rows[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(_NON_FINITE)
    return rows


@settings(max_examples=50)
@given(_not_four_finite_vectors(), st.sampled_from(["array", "list", "tuple"]))
def test_a_basis_is_four_finite_4_vectors_or_a_one_line_value_error(rows, form):
    value = {"array": rows, "list": rows.tolist(), "tuple": tuple(rows) if rows.ndim else rows}[form]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            bases.MeasurementBasis(value, "bad")
    assert str(info.value).startswith("basis 'bad' ") and "\n" not in str(info.value)


def test_beta_matrices_without_a_front_gate_equal_those_with_the_identity():
    for basis in (bases.bell_basis(), bases.m1_basis(), bases.m2_basis(), bases.beta_nl_basis(0.3, 0.1, 0.2)):
        for convention in ("gate_form", "state_form"):
            plain = bases.beta_matrices(basis, None, convention).mats
            identity = bases.beta_matrices(basis, la.I4, convention).mats
            assert all(np.array_equal(p, i) for p, i in zip(plain, identity))
