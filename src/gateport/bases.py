"""Two-qubit measurement bases and their induced single-qubit matrices.

A basis is four orthonormal vectors |b_1..4> on the measured pair.  Each
vector induces a 2x2 matrix of overlaps <b_j|U|xy>, in one of two entry
layouts:

* ``state_form``: entry [m, y] = <b_j|U|my>, no prefactor.  This is the
  layout that multiplies the resource-coefficient matrix in single-qubit
  teleportation.
* ``gate_form``: entry [y, x] = sqrt(2) <b_j|U|xy>.  This transposed,
  rescaled layout is the per-outcome operator whose tensor squares drive
  two-qubit gate teleportation; it is unitary exactly when the basis
  vector is maximally entangled.

The two layouts differ because the two circuits wire the measured pair
in opposite orders (resource partner first for state teleportation,
input qubit first for gate teleportation).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_UNITARY_TOL, NORM_TOL, PAULIS, dag, is_unitary, require_finite, require_real, require_unitary
from .kak import nonlocal_gate

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Four basis vectors, stored as the rows of one read-only complex
    (4, 4) array; any sequence of four finite 4-vectors is copied into it."""

    vectors: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.array(self.vectors, dtype=complex))
        if self.vectors.shape != (4, 4):
            raise ValueError(f"basis {self.name or '<anonymous>'!r} is not four 4-vectors: shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise ValueError(f"basis {self.name or '<anonymous>'!r} has non-finite entries")
        self.vectors.flags.writeable = False

    def matrix(self) -> np.ndarray:
        """Vectors as columns: the transpose of `vectors` (a read-only view)."""
        return self.vectors.T

    def is_orthonormal(self, tol: float = DEFAULT_UNITARY_TOL) -> bool:
        return is_unitary(self.matrix(), tol)


@dataclass(frozen=True, eq=False)
class BetaMatrices:
    mats: np.ndarray  # (4, 2, 2), one matrix per basis vector


@dataclass(frozen=True)
class BasisReport:
    """all_beta_unitary is the teleportation capability that capable
    decides (False: capability zero); orthonormal is within DEFAULT_UNITARY_TOL."""

    orthonormal: bool
    all_beta_unitary: bool
    per_vector_entanglement: tuple[float, float, float, float]


def require_orthonormal(basis: MeasurementBasis) -> MeasurementBasis:
    if not basis.is_orthonormal():
        raise ValueError(f"basis {basis.name or '<anonymous>'!r} is not orthonormal within {DEFAULT_UNITARY_TOL}")
    return basis


def bell_basis() -> MeasurementBasis:
    """The four Bell vectors, inducing gate_form matrices {I, X, Z, -iY}."""
    s = 1 / _SQ2
    return MeasurementBasis(
        [[s, 0, 0, s], [0, s, s, 0], [s, 0, 0, -s], [0, s, -s, 0]],
        "bell",
    )


def m1_basis() -> MeasurementBasis:
    """The real +-1/2 basis; equals beta_ab_basis(1/2, 1/2)."""
    return MeasurementBasis(
        [
            [-0.5, 0.5, 0.5, 0.5],
            [-0.5, 0.5, -0.5, -0.5],
            [-0.5, -0.5, 0.5, -0.5],
            [0.5, 0.5, 0.5, -0.5],
        ],
        "m1",
    )


def m2_basis() -> MeasurementBasis:
    """Partially phase-rotated Bell-like basis."""
    s = 1 / _SQ2
    return MeasurementBasis(
        [[1j * s, 0, 0, s], [0, -1j * s, 1j * s, 0], [0, s, s, 0], [s, 0, 0, 1j * s]],
        "m2",
    )


NAMED_BASES = {"bell": bell_basis, "m1": m1_basis, "m2": m2_basis}


def beta_ab_basis(a: float, b: float) -> MeasurementBasis:
    """Real two-parameter basis on the circle a^2 + b^2 = 1/2."""
    return beta_ab_bases([a], [b])[0]


def beta_ab_bases(a, b) -> list[MeasurementBasis]:
    """beta_ab_basis(a[i], b[i]) for each point of two 1-D arrays, as one stack."""
    a, b = require_real((a, b), "beta_ab parameters")
    if (np.abs(a * a + b * b - 0.5) > NORM_TOL).any():
        raise ValueError("beta_ab parameters must satisfy a^2 + b^2 = 1/2")
    rows = np.array([[-a, b, b, a], [-b, a, -a, -b], [-a, -b, b, -a], [b, a, a, -b]], dtype=complex)
    return [MeasurementBasis(r, f"beta_ab({x:g},{y:g})") for r, x, y in zip(rows.transpose(2, 0, 1), a.tolist(), b.tolist())]


def beta_nl_basis(theta1: float, theta2: float, theta3: float) -> MeasurementBasis:
    """Columns of exp(i(t1 XX + t2 YY + t3 ZZ)) as basis vectors.

    Always orthonormal; maximally entangled (and hence teleportation
    capable) only when t1 -/+ t2 both sit at pi/4 mod pi/2.  Use
    validate_basis for the verdict.
    """
    return beta_nl_bases([(theta1, theta2, theta3)])[0]


def beta_nl_bases(thetas) -> list[MeasurementBasis]:
    """beta_nl_basis of each triple of an (n, 3) array, from one stacked nonlocal_gate."""
    thetas = require_real(thetas, "non-local angles")
    return [MeasurementBasis(u.T, "beta_nl({:g},{:g},{:g})".format(*t)) for u, t in zip(nonlocal_gate(thetas), thetas.tolist())]


def conjugated_pauli_basis(u_r: np.ndarray) -> MeasurementBasis:
    """Basis whose gate_form matrices are u_r^dag sigma u_r.

    The sigma order (I, X, Z, Y) makes u_r = I reproduce the Bell basis
    up to a phase on the fourth vector.
    """
    u_r = require_unitary(u_r, what="conjugating unitary", shape=(2, 2))
    # Vector entry 2x + y is conj(m[y, x]) / sqrt(2) (gate_form inverted).
    mats = dag(u_r) @ np.stack([PAULIS[label] for label in ("I", "X", "Z", "Y")]) @ u_r
    return MeasurementBasis(dag(mats).reshape(4, 4) / _SQ2, "pauli_conj")


def phase_paired_basis(u: np.ndarray, diag_phase: complex, off_phase: complex) -> MeasurementBasis:
    """Basis {U|00> -/+ p1 U|11>, U|01> -/+ p2 U|10>} / sqrt(2).

    Pairs the columns of a front gate U with adjustable relative phases
    (minus combinations first); p1 = p2 = 1 on U = I gives the Bell
    basis up to ordering.
    """
    u = require_unitary(u, what="front gate", shape=(4, 4))
    require_finite((diag_phase, off_phase), "relative phases")
    c = u.T
    return MeasurementBasis(
        [
            (c[0] - diag_phase * c[3]) / _SQ2,
            (c[0] + diag_phase * c[3]) / _SQ2,
            (c[1] - off_phase * c[2]) / _SQ2,
            (c[1] + off_phase * c[2]) / _SQ2,
        ],
        "phase_paired",
    )


def beta_matrices(
    basis: MeasurementBasis,
    u_front: np.ndarray | None = None,
    convention: str = "gate_form",
) -> BetaMatrices:
    """Overlap matrices <b_j|U|xy> in the requested entry layout."""
    if convention not in ("state_form", "gate_form"):
        raise ValueError("convention must be state_form or gate_form")
    bras = basis.vectors.conj()
    # overlap[j, x, y] = <b_j|U|xy>
    overlap = (bras if u_front is None else bras @ require_unitary(u_front, what="front gate")).reshape(4, 2, 2)
    if convention == "gate_form":
        overlap = _SQ2 * overlap.transpose(0, 2, 1)
    return BetaMatrices(overlap)


def gate_betas(basis: MeasurementBasis) -> np.ndarray:
    """The gate_form betas b_j as one (4, 2, 2) stack."""
    return beta_matrices(basis).mats


def capable(betas: np.ndarray) -> bool:
    """A basis' teleportation capability from its gate_form betas: True iff
    every product b_j (x) b_k is unitary within DEFAULT_UNITARY_TOL (every
    vector maximally entangled).  W matrices and four-way branches
    conjugate these products by unitaries, so they pass the same check.

    Only the four b_j (x) b_j are formed: with b_j^dag b_j = I + E_j, the
    residual of b_j (x) b_k is E_j (x) I + I (x) E_k + E_j (x) E_k, whose
    squared norm is at most the mean of those of b_j (x) b_j and b_k (x) b_k
    up to fourth order in E, far below rounding at this bound.
    """
    return is_unitary(np.einsum("jac,jbd->jabcd", betas, betas).reshape(4, 4, 4))


def vector_entanglement(v: np.ndarray) -> float:
    """|det| of the 2x2 amplitude reshape; 1/2 for maximally entangled,
    0 for product vectors."""
    return float(abs(np.linalg.det(np.asarray(v).reshape(2, 2))))


def validate_basis(basis: MeasurementBasis) -> BasisReport:
    """Orthonormality within DEFAULT_UNITARY_TOL, capability (the verdict of
    capable, which the analyses use too) and per-vector entanglement."""
    ent = tuple(vector_entanglement(v) for v in basis.vectors)
    return BasisReport(basis.is_orthonormal(), capable(gate_betas(basis)), ent)
