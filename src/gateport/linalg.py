"""Dense complex linear algebra for 2x2 / 4x4 matrices and small statevectors.

Conventions used throughout the package:

* Matrices and statevectors are plain ``complex128`` numpy arrays.
* The leftmost ket factor is the most significant bit of the amplitude
  index, so ``|xy>`` maps to index ``2*x + y``.
* Inner products are conjugate-linear in the bra: ``<a|b> = vdot(a, b)``.
"""
from __future__ import annotations

import math

import numpy as np

# Tolerance ledger: every numeric threshold of the package, named once with the decision it
# makes; --tol changes none.  tests/test_margins.py audits how far the verdicts lie from them.
DEFAULT_UNITARY_TOL = 1e-9  # ||m^dag m - I||_F of a unitary gate, orthonormal basis or capable beta; --tol's default
NORM_TOL = 1e-9  # | ||psi|| - 1 | of a normalized state, and |a^2 + b^2 - 1/2| (unit vectors) of beta_ab
PROBABILITY_FLOOR = 1e-12  # outcomes of probability at most this never occur
CORRECTABLE_TOL = 1e-8  # ||M^dag M - p I||_F of a correctable state-teleportation outcome
SEPARABLE_TOL = 1e-7  # a unitary whose second Schmidt coefficient (half a singular value) is at most this is a product
GAUGE_TIE_TOL = 1e-9  # magnitudes within this of a factor's largest tie for its gauge entry
LATTICE_TOL = 1e-8  # an angle within this of a lattice point (Weyl: pi/4 and pi/2; Euler: pi) is on it
CLIFFORD_TOL = 1e-8  # each u P u^dag within this phase_residual of a Pauli product: u is Clifford; also is_clifford's unitarity
WALL_TOL = 1e-10  # t1 within this of pi/4 is on the Weyl chamber's wall
ROUNDING_EPS = 1e-12  # rounding: an angle this near 0, -pi or a Weyl shift boundary, a 2x2 entry or b^2 this near 0
WRAP_TOL = 1e-9  # an Euler angle that wrapping to (-pi, pi] moves by more than this wrapped by 2pi
EIGEN_TOL = 1e-10  # unitary_eigenbasis stops at a diagonalization residual ||p^dag m p - diag||_F this small
EQ44_TOL = 1e-10  # a closed-form witness value of magnitude at most this is zero
GLOBAL_PHASE_TOL = 1e-9  # equal_up_to_global_phase's default bound on ||a - c b||_F
FACTOR_MATCH_TOL = 1e-8  # phase_residual ||m - c ref||_F of a match to a Pauli product or Table-2 pair
TABLE1_TOL = 1e-9  # Table-1 probabilities (multiples of 1/16) match the paper's within this
FIDELITY_TOL = 1e-9  # an oracle fidelity within this of 1 counts as one

# Single-qubit constants.
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)

PAULI_LABELS = ("I", "X", "Y", "Z")
PAULIS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}

# Two-qubit constants (big-endian: row/col index is 2*first + second).
I4 = np.eye(4, dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
# Two more members of the swap-like permutation family.
Q_GATE = np.array([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=complex)
R_GATE = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with result[(2i+k),(2j+l)] = a[i,j] * b[k,l].

    Equal to np.kron for 2-D operands, as one outer product and reshape;
    leading axes of (..., m, n) stacks broadcast, giving np.kron pair by pair.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def kron_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """tensor(left[j], right[k]) for every (j, k) in row-major order, as one
    (len(left) * len(right), 4, 4) stack, from two (n, 2, 2) stacks."""
    return tensor(np.asarray(left)[:, None], right).reshape(-1, 4, 4)


# The 16 two-qubit Pauli products P_i and their (first, second) labels,
# both in row-major label order.
PAULI_PAIR_LABELS = tuple((f, s) for f in PAULI_LABELS for s in PAULI_LABELS)
_PAULI_STACK = np.stack([PAULIS[label] for label in PAULI_LABELS])
PAULI_PAIRS = kron_pairs(_PAULI_STACK, _PAULI_STACK)


def require_finite(m, what: str = "matrix", shape=None) -> np.ndarray:
    """m as a complex array, if it has `shape` (any, when None) and finite entries;
    else a one-line ValueError naming `what`."""
    m = np.asarray(m, dtype=complex)
    if shape is not None and m.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    return m


def is_unitary(m: np.ndarray, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True iff ||m^dag m - I||_F <= tol, for m or for every matrix of
    a (..., n, n) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    n = m.shape[-1]
    residual = (dag(m) @ m).reshape(m.shape[:-2] + (n * n,))
    residual[..., :: n + 1] -= 1  # minus I: a flat matrix's diagonal
    # Ufunc reduces skip ndarray.sum/.max's Python layer; np.maximum keeps a NaN, and NaN (or a bad tol) fails <=.
    # An empty stack reduces to the initial 0.
    squares = np.add.reduce(np.square(residual.view(float)), axis=-1)
    return math.sqrt(np.maximum.reduce(squares, axis=None, initial=0.0)) <= tol


def require_normalized(state, message: str) -> np.ndarray:
    """state as a complex array, if it is finite and each vector along its last
    axis has unit norm within NORM_TOL; else ValueError(message)."""
    state = np.asarray(state, dtype=complex)
    if not (np.isfinite(state).all() and (np.abs(np.linalg.norm(state, axis=-1) - 1.0) <= NORM_TOL).all()):
        raise ValueError(message)
    return state


def require_unitary(m: np.ndarray, tol: float = DEFAULT_UNITARY_TOL, what: str = "matrix", shape=None) -> np.ndarray:
    m = require_finite(m, what, shape)
    if not is_unitary(m, tol):
        raise ValueError(f"{what} is not unitary within {tol}")
    return m


def nearest_unitary(m: np.ndarray) -> np.ndarray:
    """The unitary nearest to the square matrix m in Frobenius norm: the
    polar factor u @ vh of its SVD m = u diag(s) vh (Fan & Hoffman 1955)."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def phase_residual(a: np.ndarray, b: np.ndarray):
    """(c, ||a - c b||_F) over the last two axes of two broadcasting stacks, where c is the
    unit phase of <b, a>_F = tr(b^dag a) (1 where that product is 0): the c of least residual."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    # + 0.0 makes a zero's signed parts +0, whose angle is 0 (that of -0.0 + 0j is pi).
    c = np.exp(1j * np.angle(np.einsum("...ij,...ij->...", b.conj(), a) + 0.0))
    return c, np.linalg.norm(a - c[..., None, None] * b, axis=(-2, -1))


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = GLOBAL_PHASE_TOL) -> bool:
    """True iff a and b have one shape and ||a - c b||_F <= tol for phase_residual's c."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and bool(phase_residual(a.reshape(1, -1), b.reshape(1, -1))[1] <= tol)


def pauli_products(ms: np.ndarray, tol: float) -> np.ndarray:
    """For each 4x4 matrix of ms, the index i into PAULI_PAIRS of its largest coefficient
    |tr(P_i^dag m)| / 4 if the matrix equals P_i up to a phase within tol (phase_residual), else -1."""
    best = np.abs(np.einsum("iab,...ab->...i", PAULI_PAIRS.conj(), ms)).argmax(axis=-1)
    return np.where(phase_residual(ms, PAULI_PAIRS[best])[1] <= tol, best, -1)


def principal_sqrt(m: np.ndarray) -> np.ndarray:
    """Unitary square root with eigenphases on the principal branch.

    Every eigenvalue e^{i*theta} of m (theta in (-pi, pi]) maps to
    e^{i*theta/2}, so the eigenphases of the result lie in (-pi/2, pi/2].
    Rejects input that is not unitary within DEFAULT_UNITARY_TOL.
    """
    m = require_unitary(m)
    phases, p = unitary_eigenbasis((m + dag(m)) / 2, (m - dag(m)) / 2j)
    # Eigenvalue -1 may come out at angle -pi (a signed zero, or rounding);
    # the principal branch puts it at +pi.
    phases = np.where(phases < -np.pi + ROUNDING_EPS, np.pi, phases)
    return p @ np.diag(np.exp(0.5j * phases)) @ dag(p)


# unitary_eigenbasis' real mixes c, in turn: 0 keeps eigh(a)'s basis where it serves, 1e-3 splits a's
# degenerate blocks by b, and the generic rest split eigenvalues of a some 1e-8 apart (eigh(a) mixes them).
_EIGEN_MIXES = (0.0, 1e-3, 0.5377, -1.3171, 2.2617, -0.2913, 3.7391)


def unitary_eigenbasis(a: np.ndarray, b: np.ndarray):
    """Eigenphases and an orthonormal eigenbasis p of the unitary m = a + i*b,
    given its commuting Hermitian parts a and b: m = p diag(e^{i*phases}) p^dag.

    Two distinct eigenvalues e^{i*phi} of m meet in a + c*b (as cos(phi) +
    c*sin(phi)) for at most one real c, so p is eigh's basis of the first
    mix c in _EIGEN_MIXES whose residual ||p^dag m p - diag||_F is within
    EIGEN_TOL, else of the least residual.  p is real when a and b are.
    """
    a = (a + dag(a)) / 2
    b = (b + dag(b)) / 2
    m = a + 1j * b
    best = (np.inf,)
    for c in _EIGEN_MIXES:
        p = np.linalg.eigh(a + c * b)[1]
        d = dag(p) @ m @ p
        phases = np.angle(np.diag(d))
        residual = np.linalg.norm(d - np.diag(np.exp(1j * phases)))
        if residual < best[0]:
            best = residual, phases, p
        if residual <= EIGEN_TOL:
            break
    return best[1], best[2]


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction makes the QR output Haar rather than
    merely unitary.  Deterministic for a fixed seed; `seed` may also be a
    numpy Generator owned by the caller.
    """
    if dim < 1:
        raise ValueError(f"unitary dimension must be at least 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim: int, seed) -> np.ndarray:
    """Random state haar_random_unitary(dim, seed)[:, 0], to rounding, from the same Gaussian draw g
    (the generator ends in the same place) but without the QR: g[:, 0] / ||g[:, 0]|| (Mezzadri 2007)."""
    if dim < 1:
        raise ValueError(f"state dimension must be at least 1, got {dim}")
    g = np.random.default_rng(seed).standard_normal((2, dim, dim))[:, :, 0]
    return (g[0] + 1j * g[1]) / np.linalg.norm(g)


def kron_split(m: np.ndarray):
    """Split an exactly separable 4x4 matrix into (scalar, a, b) with
    m = scalar * kron(a, b) and det(a) = det(b) = 1.

    Assumes separability; garbage out otherwise (use
    separability.tensor_factorize for a verdict).
    """
    m = np.asarray(m, dtype=complex)
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    # t[i, k, j, l] = m[2i + k, 2j + l]; a and b copy its slices through m[r, c].
    t = m.reshape(2, 2, 2, 2)
    a, b = t[:, r & 1, :, c & 1].copy(), t[r >> 1, :, c >> 1, :].copy()
    da, db = np.sqrt(np.linalg.det(a)), np.sqrt(np.linalg.det(b))
    if abs(da) > 0:
        a = a / da
    if abs(db) > 0:
        b = b / db
    scalar = m[r, c] / (a[r >> 1, c >> 1] * b[r & 1, c & 1])
    return scalar, a, b
