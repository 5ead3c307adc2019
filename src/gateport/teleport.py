"""Teleportability analysis of states and two-qubit gates.

Single-qubit side: with resource coefficients psi and measurement basis
{b_j}, outcome j acts on the teleported qubit through M_j = psi @ B_j
(B_j in state_form).  The outcome is correctable iff M_j^dag M_j is
proportional to the identity; the per-outcome operator is then
V_j = M_j / sqrt(p_j) and the receiver applies its inverse.

Two-qubit side: outcome (j,k) acts through W = U_T (b_j (x) b_k) U_T^dag
(gate_form matrices).  The gate teleports on that outcome iff W is a
tensor product of single-qubit factors, which are the correction pair.
All 16 W are built as one stack; one batched SVD, at the scale
tensor_factorize uses, screens them, and only the candidates that pass
the screen are factorized (separability.factorize_all).  Success
probability is (number of separable outcomes) / 16.  Neither side takes a
front gate U: measuring after U in {b_j} is measuring in {U^dag b_j}.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CNOT,
    CZ,
    H,
    I2,
    Q_GATE,
    R_GATE,
    SWAP,
    SX,
    SY,
    SZ,
    CORRECTABLE_TOL,
    PROBABILITY_FLOOR,
    dag,
    kron_pairs,
    principal_sqrt,
    require_finite,
    require_normalized,
    require_unitary,
)
from .kak import (
    LATTICE_TOL,
    classify_nonlocal,
    euler_zyz,
    kak_decompose,
    nonlocal_gate,
)
from .bases import (
    NAMED_BASES,
    MeasurementBasis,
    beta_matrices,
    capable,
    gate_betas,
    require_orthonormal,
)
from .separability import factorize_all

# Controlled phase-of-pi/4 gate and the pi/8 phase gate it is built from.
C_PI8 = np.diag([1, 1, 1, np.exp(1j * np.pi / 4)]).astype(complex)
PI8 = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
EXP_YY = nonlocal_gate((0.0, np.pi / 4, 0.0))

# The named two-qubit gates, by CLI spec name.  Each is built on lookup,
# so the square roots are taken anew on every call.
NAMED_GATES = {
    "cnot": lambda: CNOT,
    "swap": lambda: SWAP,
    "q": lambda: Q_GATE,
    "r": lambda: R_GATE,
    "cz": lambda: CZ,
    "c_pi8": lambda: C_PI8,
    "cnot_sqrt": lambda: principal_sqrt(CNOT),
    "swap_sqrt": lambda: principal_sqrt(SWAP),
    "exp_yy": lambda: EXP_YY,
}

PAIR_ORDER = tuple(itertools.product(range(4), repeat=2))


def t_gate(phi: float, xi: float) -> np.ndarray:
    """diag(i, e^{i*phi}, e^{i*xi}, i e^{i(phi+xi)}); non-Clifford for
    generic angles yet deterministically teleportable under Bell-like
    bases."""
    require_finite((phi, xi), "t_gate angles")
    return np.diag(
        [1j, np.exp(1j * phi), np.exp(1j * xi), 1j * np.exp(1j * (phi + xi))]
    ).astype(complex)


def bell_resource() -> np.ndarray:
    """The Bell resource's 2x2 coefficient matrix psi, |nm> -> psi[n,m]."""
    return I2 / np.sqrt(2)


@dataclass(frozen=True, eq=False)
class StateTeleportReport:
    probabilities: np.ndarray  # (4,)
    teleportable: np.ndarray  # (4,) bool
    corrections: np.ndarray  # (4, 2, 2): V_j where teleportable, the identity elsewhere
    deterministic: bool
    entanglement: float

    def correction_inverses(self) -> np.ndarray:
        """The operators the receiver actually applies (V_j^dag)."""
        return dag(self.corrections)


@dataclass(frozen=True, eq=False)
class GateTeleportReport:
    """Per-outcome arrays in row-major (j, k) order, 0-based indices."""

    w_matrices: np.ndarray  # (16, 4, 4)
    separable: np.ndarray  # (16,) bool
    corrections: np.ndarray  # (16, 2, 2, 2): pairs (a, b), kron(a, b) = W where separable, else identity
    n_separable: int
    success_probability: float
    deterministic: bool

    def correction_inverses(self) -> np.ndarray:
        return dag(self.corrections)


@dataclass(frozen=True)
class Theorem1Verdict:
    condition1_met: bool
    condition2_met: bool
    conclusion: str  # "deterministic" or "not_covered"
    branch: str | None


def analyze_state_teleport(psi: np.ndarray, basis: MeasurementBasis) -> StateTeleportReport:
    """Per-outcome teleportability of a single qubit through the Fig.-1-style
    circuit: a resource with 2x2 coefficient matrix psi (|nm> -> psi[n,m])
    and a measurement in `basis` on the (partner, input) pair."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2, 2):
        raise ValueError(f"resource state must be a 2x2 coefficient matrix, got shape {psi.shape}")
    require_normalized(psi.reshape(-1), "resource state must be normalized")
    require_orthonormal(basis)
    ms = psi @ beta_matrices(basis, convention="state_form").mats
    grams = dag(ms) @ ms
    probs = np.trace(grams, axis1=-2, axis2=-1).real / 2.0
    residuals = np.linalg.norm(grams - probs[:, None, None] * np.eye(2), axis=(-2, -1))
    flags = (probs > PROBABILITY_FLOOR) & (residuals <= CORRECTABLE_TOL)
    return StateTeleportReport(
        probabilities=probs,
        teleportable=flags,
        corrections=np.where(flags[:, None, None], ms / np.sqrt(np.where(flags, probs, 1.0))[:, None, None], I2),
        deterministic=bool(np.all(flags | (probs <= PROBABILITY_FLOOR))),
        entanglement=float(abs(np.linalg.det(psi))),
    )


def analyze_gate_teleport(u_t: np.ndarray, basis: MeasurementBasis) -> GateTeleportReport:
    """Separability verdict and corrections for each of the 16 outcomes."""
    u_t = require_unitary(u_t, what="teleported gate", shape=(4, 4))
    require_orthonormal(basis)
    betas = gate_betas(basis)

    w_stack = ((u_t @ kron_pairs(betas, betas)).reshape(64, 4) @ dag(u_t)).reshape(16, 4, 4)
    # A non-unitary beta means a disentangled basis vector: no outcome
    # admits a unitary local correction.
    separable, corrections = factorize_all(w_stack) if capable(betas) else (np.zeros(16, bool), np.tile(I2, (16, 2, 1, 1)))
    n = int(separable.sum())
    return GateTeleportReport(
        w_matrices=w_stack,
        separable=separable,
        corrections=corrections,
        n_separable=n,
        success_probability=n / 16.0,
        deterministic=(n == 16),
    )


# Table 1: success probabilities of the named gates (rows) under the
# named bases (columns).
TABLE1_GATES = ("cnot", "c_pi8", "cnot_sqrt", "swap_sqrt", "exp_yy")
TABLE1_BASES = ("bell", "m1", "m2")
TABLE1_EXPECTED = np.array(
    [[1, 0, 0.5], [0.5, 0, 0.5], [0.5, 0, 0.25], [0.25, 0.25, 0.25], [1, 1, 0.25]]
)


def table1_cells() -> list[tuple[np.ndarray, MeasurementBasis, GateTeleportReport]]:
    """(gate, basis, report) of each Table-1 cell, in row-major order."""
    gates = [NAMED_GATES[name]() for name in TABLE1_GATES]
    bases_ = [NAMED_BASES[name]() for name in TABLE1_BASES]
    return [(g, b, analyze_gate_teleport(g, b)) for g in gates for b in bases_]


def table1_probabilities(cells) -> np.ndarray:
    """The success probabilities of `table1_cells()` as Table 1's array."""
    return np.array([report.success_probability for _, _, report in cells]).reshape(TABLE1_EXPECTED.shape)


def reproduce_table1() -> np.ndarray:
    """Table 1: success probabilities of TABLE1_GATES (rows) under
    TABLE1_BASES (columns)."""
    return table1_probabilities(table1_cells())


# Symbolic names of the table2_factors pairs, in PAIR_ORDER order (one
# line per j).
TABLE2_LABELS = (
    ("P", "-P"), ("P.Z", "-V_phi.Z"), ("P.Z", "i V_phi"), ("P", "P.Y.X"),
    ("-V_xi.Z", "P.Z"), ("V_xi", "V_phi"), ("V_xi", "-V_phi.Z"), ("-V_xi.Z", "i P"),
    ("V_xi", "i P.Z"), ("-V_xi.Z", "i V_phi"), ("V_xi.Z", "-V_phi.Z"), ("-V_xi", "P"),
    ("P.Y.X", "P"), ("i P", "-V_phi.Z"), ("P", "-V_phi"), ("P.Z", "P.Z"),
)


def table2_factors(phi: float, xi: float):
    """Symbolic correction factors for t_gate under the m2 basis.

    Returned as 16 (first, second) matrix pairs in row-major (j, k)
    order, named by TABLE2_LABELS; each pair equals the numerically
    extracted factorization of T (b_j (x) b_k) T^dag up to a global phase.
    """
    require_finite((phi, xi), "t_gate angles")
    P = np.diag([1, 1j]).astype(complex)
    PZ = P @ SZ
    PYX = P @ SY @ SX

    def V(alpha):
        return np.array(
            [[0, -1j * np.exp(-1j * alpha)], [1j * np.exp(1j * alpha), 0]],
            dtype=complex,
        )

    Vp, Vx = V(phi), V(xi)
    # Same layout as TABLE2_LABELS.
    return (
        (P, -P), (PZ, -Vp @ SZ), (PZ, 1j * Vp), (P, PYX),
        (-Vx @ SZ, PZ), (Vx, Vp), (Vx, -Vp @ SZ), (-Vx @ SZ, 1j * P),
        (Vx, 1j * PZ), (-Vx @ SZ, 1j * Vp), (Vx @ SZ, -Vp @ SZ), (-Vx, P),
        (PYX, P), (1j * P, -Vp @ SZ), (P, -Vp), (PZ, PZ),
    )


# --- Theorem-style sufficient conditions for deterministic teleportation ---


def theorem1_check(u_t: np.ndarray, basis: MeasurementBasis) -> Theorem1Verdict:
    """Sufficient-condition check for deterministic teleportation.

    Condition 2: a swap-point non-local part and a capable basis
    (bases.capable).  Condition 1: a capable basis, every non-local angle
    on the {0, (2k+1)pi/4} lattice, and each factor f = c b_j c^dag and
    d b_k d^dag (c, d the right-side locals) fixing, up to sign, the axis
    that the number n of active axes requires.  Proof: W_jk is a product
    iff N (f (x) g) N^dag is, and the lattice core N is Clifford, so it
    maps Paulis to Pauli products.  A factor fixing axis a is a Pauli
    times R_a(alpha), whose rotation stays local iff N sends sigma_a (x) I
    to one qubit: each active axis b != a multiplies it by sigma_b (x)
    sigma_b, so iff 0 or 2 active axes differ from a.  In the chamber one
    active axis is x and two are x and y, hence:
      n  axis  branch
      0  none  local
      1  x     axis_z
      2  z     inactive_z
      3  none  swap (N is e^{i pi/4} SWAP up to a Pauli product)
    The local rotations that commute with N (the gauge of c and d) keep
    that axis fixed, so the verdict depends on the gate and basis alone.
    f fixes z iff its ZYZ lambda2 is on the integer-pi lattice (f is
    diagonal or antidiagonal), and x iff H f H fixes z.  Condition 2
    implies condition 1.  "not_covered" is no proof of
    non-teleportability.
    """
    u_t = require_unitary(u_t, what="teleported gate", shape=(4, 4))
    require_orthonormal(basis)
    d = kak_decompose(u_t)
    cls = classify_nonlocal(d.theta)
    betas = gate_betas(basis)
    basis_valid = capable(betas)

    branch = None
    on_lattice = all((not dl) or q for dl, q in zip(cls.delta, cls.odd_quarter_pi))
    if basis_valid and on_lattice:
        n_active = sum(cls.delta)
        branch = ("local", "axis_z", "inactive_z", "swap")[n_active]
        if n_active in (1, 2):
            sides = np.stack((d.c_local, d.d_local))[:, None]
            f = sides @ betas @ dag(sides)  # (side, j)
            lam2 = euler_zyz(H @ f @ H if n_active == 1 else f).lambda2
            if (np.minimum(lam2, np.pi - lam2) > LATTICE_TOL).any():
                branch = None

    condition1 = branch is not None
    return Theorem1Verdict(
        condition1_met=condition1,
        condition2_met=cls.is_swap_point and basis_valid,
        conclusion="deterministic" if condition1 else "not_covered",
        branch=branch,
    )
