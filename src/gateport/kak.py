"""Cartan decomposition of two-qubit gates into locals around a non-local core.

Any 4x4 unitary U factors as

    U = e^{i*phase} (A (x) B) exp(i(t1 XX + t2 YY + t3 ZZ)) (C (x) D)

with single-qubit unitaries A, B, C, D.  The angle triple is reported in
the canonical Weyl chamber  pi/4 >= t1 >= t2 >= |t3|, with t3 >= 0
whenever t1 = pi/4.

The extraction works in the magic basis, where local gates become real
orthogonal matrices and the XX/YY/ZZ generators are simultaneously
diagonal: conjugate U into that basis, diagonalize the complex symmetric
unitary m^T m over a real orthogonal eigenbasis, and split the
eigenphases between the non-local core and the two local factors.

Three passes move the angles into the chamber, each move paid for in the
locals: shift (t_k += n*pi/2 into (-pi/4, pi/4]: (-i)^n in the phase and,
for odd n, sigma_k left of C and D), sort (swaps of axes 12, 23, 12: the
reflection exchanging the two on the core's side of all four locals) and
signs (t1, t2 >= 0, each negating t3: the third Pauli right of B and left
of D).  At the wall t1 = pi/4, t1 -> pi/2 - t1 takes t3 < 0 to -t3: a
phase i, Y right of B, X left of C and YX left of D; then the sort runs
again, as pi/2 - t1 may land an ulp below t2 = pi/4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CLIFFORD_TOL,
    I2,
    LATTICE_TOL,
    PAULI_PAIRS,
    PAULIS,
    ROUNDING_EPS,
    SX,
    SY,
    SZ,
    WALL_TOL,
    WRAP_TOL,
    dag,
    kron_split,
    pauli_products,
    require_finite,
    require_unitary,
    tensor,
    unitary_eigenbasis,
)

MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]],
    dtype=complex,
) / np.sqrt(2)
_MAGIC_DAG = dag(MAGIC)

# Diagonal of sigma_ww in the magic basis; eigenphase j of the non-local
# core is phase + t1*dxx[j] + t2*dyy[j] + t3*dzz[j].
_DXX = np.array([1.0, 1.0, -1.0, -1.0])
_DYY = np.array([-1.0, 1.0, -1.0, 1.0])
_DZZ = np.array([1.0, -1.0, -1.0, 1.0])
_ANGLE_COLS = np.stack([np.ones(4), _DXX, _DYY, _DZZ], axis=-1)

# Hermitian single-qubit reflections exchanging Pauli axes (0, 1) and
# (1, 2) (and both qubits together leave the third axis invariant).
_AXIS_SWAPPERS = ((SX + SY) / np.sqrt(2), (SY + SZ) / np.sqrt(2))
_FLIPPERS = (SX, SY, SZ)


@dataclass(frozen=True, eq=False)
class KakDecomposition:
    """U = e^{i*global_phase} (a (x) b) exp(i theta.sigma_ww) (c (x) d)."""

    global_phase: float
    a_local: np.ndarray
    b_local: np.ndarray
    theta: tuple[float, float, float]
    c_local: np.ndarray
    d_local: np.ndarray


@dataclass(frozen=True)
class LocalEulerAngles:
    """u = e^{i*phase} Rz(lambda1) Ry(lambda2) Rz(lambda3)."""

    lambda1: float
    lambda2: float
    lambda3: float
    phase: float


@dataclass(frozen=True)
class NonlocalClass:
    """Lattice classification of canonical non-local angles.

    delta[w] is False iff theta_w = 0 (mod pi/2); odd_quarter_pi[w] is
    True iff theta_w = pi/4 (mod pi/2).  An angle with delta True but
    odd_quarter_pi False is generic (on neither lattice).
    """

    delta: tuple[bool, bool, bool]
    odd_quarter_pi: tuple[bool, bool, bool]
    is_swap_point: bool


def rot(axis: str, angle: float) -> np.ndarray:
    """Single-qubit rotation exp(-i*(angle/2)*sigma_axis)."""
    require_finite(angle, "rotation angle")
    if axis.upper() not in ("X", "Y", "Z"):
        raise ValueError(f"rotation axis must be x, y or z, got {axis!r}")
    sig = PAULIS[axis.upper()]
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * sig


def nonlocal_gate(theta) -> np.ndarray:
    """exp(i(t1 XX + t2 YY + t3 ZZ)) from its angle triple; a (..., 3) stack of
    triples gives the (..., 4, 4) stack of their gates, each bit for bit."""
    require_finite(theta, "non-local angles")
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (3,):
        raise ValueError(f"non-local angles must have shape (..., 3), got {theta.shape}")
    out = np.eye(4, dtype=complex)
    for t, sig in zip(np.moveaxis(theta, -1, 0)[..., None, None], (SX, SY, SZ)):
        out = out @ (np.cos(t) * np.eye(4) + 1j * np.sin(t) * tensor(sig, sig))
    return out


def kak_reconstruct(d: KakDecomposition) -> np.ndarray:
    return (
        np.exp(1j * d.global_phase)
        * tensor(d.a_local, d.b_local)
        @ nonlocal_gate(d.theta)
        @ tensor(d.c_local, d.d_local)
    )


def kak_decompose(u: np.ndarray) -> KakDecomposition:
    """Canonical Weyl-chamber KAK decomposition of a 4x4 unitary."""
    u = require_unitary(u, what="input gate", shape=(4, 4))

    m = _MAGIC_DAG @ u @ MAGIC
    # m^T m is symmetric unitary, so its real and imaginary parts are
    # commuting real symmetric matrices with a real orthogonal eigenbasis.
    s = m.T @ m
    phases2, p = unitary_eigenbasis(s.real, s.imag)

    if np.linalg.det(p) < 0:
        p[:, -1] *= -1
    lam = phases2 / 2.0
    k1 = m @ p @ np.diag(np.exp(-1j * lam))
    if np.linalg.det(k1).real < 0:
        lam[0] += np.pi
        k1[:, 0] *= -1
    k1 = k1.real

    phi, t1, t2, t3 = (_ANGLE_COLS.T @ lam) / 4.0
    ga, a, b = kron_split(MAGIC @ k1 @ _MAGIC_DAG)
    gc, c, d = kron_split(MAGIC @ p.T @ _MAGIC_DAG)
    phase = np.exp(1j * phi) * ga * gc
    return _canonicalize(phase, a, b, [t1, t2, t3], c, d)


def _canonicalize(phase, a, b, theta, c, d) -> KakDecomposition:
    eps = ROUNDING_EPS  # also: angles this close to 0 are reported as +0.0, never -0.0
    for k in range(3):  # shift (none at n = 0: phase * (1+0j) can flip a zero's sign)
        n = math.floor((eps - math.pi / 4 - theta[k]) / (math.pi / 2)) + 1
        if n:
            theta[k] += n * np.pi / 2
            phase *= (-1j) ** n
            if n % 2:
                c, d = _FLIPPERS[k] @ c, _FLIPPERS[k] @ d
    a, b, c, d = _sort(theta, a, b, c, d)
    for k in (0, 1):  # signs
        if theta[k] < 0:
            theta[k], theta[2] = -theta[k], -theta[2]
            b, d = b @ _FLIPPERS[1 - k], _FLIPPERS[1 - k] @ d
    if theta[0] > np.pi / 4 - WALL_TOL and theta[2] < -eps:  # wall
        theta[0], theta[2] = np.pi / 2 - theta[0], -theta[2]
        phase *= 1j
        b, c, d = b @ SY, SX @ c, SY @ (SX @ d)
        a, b, c, d = _sort(theta, a, b, c, d)
    return KakDecomposition(
        global_phase=float(np.angle(phase)),
        a_local=a,
        b_local=b,
        theta=tuple(0.0 if abs(t) <= eps else float(t) for t in theta),
        c_local=c,
        d_local=d,
    )


def _sort(theta, a, b, c, d):
    """Order theta by magnitude in place, paying each swap in the locals."""
    for k in (0, 1, 0):
        if abs(theta[k]) < abs(theta[k + 1]):
            h = _AXIS_SWAPPERS[k]
            theta[k], theta[k + 1] = theta[k + 1], theta[k]
            a, b, c, d = a @ h, b @ h, h @ c, h @ d
    return a, b, c, d


def classify_nonlocal(theta) -> NonlocalClass:
    """Classify canonical non-local angles against the pi/4 and pi/2 lattices,
    within LATTICE_TOL."""
    theta = require_finite(theta, "non-local angles", shape=(3,)).real
    r = theta % (np.pi / 2)
    delta = ~((r <= LATTICE_TOL) | (r >= np.pi / 2 - LATTICE_TOL))
    odd_quarter = np.abs(r - np.pi / 4) <= LATTICE_TOL
    swap_point = (np.abs(np.abs(theta) - np.pi / 4) <= LATTICE_TOL).all()
    return NonlocalClass(tuple(map(bool, delta)), tuple(map(bool, odd_quarter)), bool(swap_point))


def euler_zyz(u: np.ndarray) -> LocalEulerAngles:
    """ZYZ angles of a single-qubit unitary, lambda2 in [0, pi].

    u may also be a (..., 2, 2) stack, checked for unitarity once; the
    fields are then arrays over the leading axes, where one matrix gives
    floats.  At the gauge-degenerate points lambda2 = 0 or pi only the
    combination lambda1 +/- lambda3 is defined; lambda3 = 0 is reported
    there.
    """
    if np.shape(u)[-2:] != (2, 2):
        raise ValueError(f"single-qubit gate must be 2x2 or a (..., 2, 2) stack, got shape {np.shape(u)}")
    u = require_unitary(u, what="single-qubit gate")
    u00, u01, u10, u11 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    diagonal = np.abs(u10) <= ROUNDING_EPS
    antidiagonal = ~diagonal & (np.abs(u00) <= ROUNDING_EPS)
    generic = ~(diagonal | antidiagonal)
    plus = np.angle(u11 * np.conj(u00))
    minus = np.angle(u10 * np.conj(-u01))

    lam2 = np.where(diagonal, 0.0, np.where(antidiagonal, np.pi, 2.0 * np.arctan2(np.abs(u10), np.abs(u00))))
    lam1 = np.where(generic, (plus + minus) / 2.0, np.where(diagonal, plus, minus))
    lam3 = np.where(generic, (plus - minus) / 2.0, 0.0)
    phase = np.where(
        antidiagonal, np.angle(u10 * np.exp(-0.5j * lam1)), np.angle(u00 * np.exp(0.5j * (lam1 + lam3)))
    )
    # The principal branches of plus/minus may wrap with odd parity,
    # which flips the sign of both off-diagonal entries; shifting all
    # three angles by pi restores them without touching the diagonal.
    pred10 = np.exp(1j * (phase + 0.5 * minus)) * np.sin(lam2 / 2)
    flip = np.pi * (generic & ((u10 * np.conj(pred10)).real < 0))
    lam1, lam3, phase = lam1 + flip, lam3 + flip, phase + flip
    # Rz(x - 2pi) = -Rz(x), so every 2pi wrap costs pi of global phase.
    # (Angles of the gauge-degenerate rows are principal already.)
    jumps = sum(np.abs(_wrap(x) - x) > WRAP_TOL for x in (lam1, lam3))
    lam1, lam3, phase = _wrap(lam1), _wrap(lam3), _wrap(phase + np.pi * jumps)
    fields = (lam1, lam2, lam3, phase)
    return LocalEulerAngles(*(map(float, fields) if u.ndim == 2 else fields))


def _wrap(angle):
    """Wrap to (-pi, pi]."""
    return np.angle(np.exp(1j * angle))


def is_clifford(u: np.ndarray) -> bool:
    """True iff u maps every two-qubit Pauli product onto one, up to a phase
    within CLIFFORD_TOL (phase_residual)."""
    u = require_unitary(u, CLIFFORD_TOL, "input gate", shape=(4, 4))
    return bool((pauli_products(u @ PAULI_PAIRS @ dag(u), CLIFFORD_TOL) >= 0).all())
