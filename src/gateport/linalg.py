"""Dense complex linear algebra for 2x2 / 4x4 matrices and small statevectors.

Conventions used throughout the package:

* Matrices and statevectors are plain ``complex128`` numpy arrays.
* The leftmost ket factor is the most significant bit of the amplitude
  index, so ``|xy>`` maps to index ``2*x + y``.
* Inner products are conjugate-linear in the bra: ``<a|b> = vdot(a, b)``.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

DEFAULT_UNITARY_TOL = 1e-9

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
    return m.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with result[(2i+k),(2j+l)] = a[i,j] * b[k,l].

    Equal to np.kron for 2-D operands, as one outer product and reshape.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def pauli_pairs():
    """Yield ((label1, label2), matrix) for all 16 two-qubit Pauli products."""
    for f in PAULI_LABELS:
        for s in PAULI_LABELS:
            yield (f, s), tensor(PAULIS[f], PAULIS[s])


def require_finite(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")
    return m


def is_unitary(m: np.ndarray, tol: float = DEFAULT_UNITARY_TOL) -> bool:
    """True iff ||m^dag m - I||_F <= tol, for m or for every matrix of
    a (..., n, n) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    residual = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
    squared = (residual.real**2 + residual.imag**2).sum(axis=(-2, -1))
    return bool(np.sqrt(squared.max()) <= tol)


def require_unitary(m: np.ndarray, tol: float = DEFAULT_UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    m = require_finite(m)
    if not is_unitary(m, tol):
        raise ValueError(f"{what} is not unitary within {tol}")
    return m


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff a = c*b for some unit-modulus scalar c.

    The phase c is chosen to align the entries of a and b at the position
    of b's largest-magnitude entry.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ratio = a[idx] * np.conj(b[idx])
    c = ratio / abs(ratio) if abs(ratio) > 0 else 1.0
    return np.linalg.norm(a - c * b) <= tol


def svd(m: np.ndarray):
    """SVD of a 4x4 matrix: (u, singular values descending, v^dag)."""
    m = require_finite(m)
    u, s, vh = np.linalg.svd(m)
    return u, s, vh


def principal_sqrt(m: np.ndarray, tol: float = DEFAULT_UNITARY_TOL) -> np.ndarray:
    """Unitary square root with eigenphases on the principal branch.

    Every eigenvalue e^{i*theta} of m (theta in (-pi, pi]) maps to
    e^{i*theta/2}, so the eigenphases of the result lie in (-pi/2, pi/2].
    Rejects non-unitary input.
    """
    m = require_unitary(m, tol)
    # Schur form of a normal matrix is diagonal with orthonormal vectors,
    # stable also for degenerate eigenvalues.
    t, z = scipy.linalg.schur(m, output="complex")
    phases = np.angle(np.diag(t))
    root = z @ np.diag(np.exp(0.5j * phases)) @ dag(z)
    return root


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction makes the QR output Haar rather than
    merely unitary.  Deterministic for a fixed seed; `seed` may also be a
    numpy Generator owned by the caller.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim: int, seed) -> np.ndarray:
    """Normalized random statevector (first column of a Haar unitary)."""
    return haar_random_unitary(dim, seed)[:, 0].copy()


def kron_split(m: np.ndarray):
    """Split an exactly separable 4x4 matrix into (scalar, a, b) with
    m = scalar * kron(a, b) and det(a) = det(b) = 1.

    Assumes separability; garbage out otherwise (use
    separability.tensor_factorize for a verdict).
    """
    m = np.asarray(m, dtype=complex)
    r, c = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    a = np.zeros((2, 2), dtype=complex)
    b = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            a[(r >> 1) ^ i, (c >> 1) ^ j] = m[r ^ (i << 1), c ^ (j << 1)]
            b[(r & 1) ^ i, (c & 1) ^ j] = m[r ^ i, c ^ j]
    da, db = np.sqrt(np.linalg.det(a)), np.sqrt(np.linalg.det(b))
    if abs(da) > 0:
        a = a / da
    if abs(db) > 0:
        b = b / db
    scalar = m[r, c] / (a[r >> 1, c >> 1] * b[r & 1, c & 1])
    return scalar, a, b
