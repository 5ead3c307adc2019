"""Tensor-product structure of two-qubit unitaries.

A 4x4 operator w expands as w = sum_s c_s A_s (x) B_s (its operator
Schmidt decomposition); w is a tensor product of single-qubit factors
exactly when the expansion has rank one.  The rank is read off the
singular values of the realigned matrix whose rows collect the A-side
indices and whose columns collect the B-side indices.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import EQ44_TOL, GAUGE_TIE_TOL, I2, PAULIS, SEPARABLE_TOL, require_finite, require_unitary, tensor
from .kak import rot

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class TensorFactorization:
    """Verdict and factors of w ~ e^{i*phase} factor_a (x) factor_b."""

    separable: bool
    factor_a: np.ndarray | None
    factor_b: np.ndarray | None
    phase: float
    schmidt_values: np.ndarray


def _realign(w: np.ndarray) -> np.ndarray:
    """Regroup w[..., (2a+b),(2c+d)] into r[..., (2a+c),(2b+d)]."""
    lead = w.shape[:-2]
    return w.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -2).reshape(*lead, 4, 4)


def operator_schmidt(w: np.ndarray) -> np.ndarray:
    """Operator Schmidt coefficients, descending, unit square sum, of a
    4x4 matrix or of each matrix of a (..., 4, 4) stack (last axis)."""
    w = require_finite(w)
    s = np.linalg.svd(_realign(w), compute_uv=False)
    total = np.linalg.norm(s, axis=-1, keepdims=True)
    return s / np.where(total > 0, total, 1.0)


def leading_products(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separability verdict and leading Schmidt term of each unitary of a
    (..., 4, 4) stack.  The verdict is tensor_factorize's screen (half the
    second singular value of the realigned unitary at most SEPARABLE_TOL);
    where it holds, the term is the product of tensor_factorize's factors,
    up to their phase."""
    u, s, vh = np.linalg.svd(_realign(ws))
    return s[..., 1] / 2.0 <= SEPARABLE_TOL, 2.0 * _realign(u[..., :1] @ vh[..., :1, :])


def tensor_factorize(w: np.ndarray) -> TensorFactorization:
    """Decide whether a unitary w is a tensor product and extract factors.

    Each factor, sqrt(2) times a leading singular vector of the realigned
    w, is gauged so its gauge_index entry is real positive; the residual
    phase lands in `phase` with e^{i*phase} kron(factor_a, factor_b) = w.
    Realignment keeps the Frobenius inner product, so that phase is the
    argument of the product of the two entries before gauging.
    """
    w = require_unitary(w, what="factorization input", shape=(4, 4))
    u, s, vh = np.linalg.svd(_realign(w))
    schmidt = s / 2.0
    if schmidt[1] > SEPARABLE_TOL:
        return TensorFactorization(False, None, None, 0.0, schmidt)
    a, b = _SQRT2 * u[:, 0], _SQRT2 * vh[0]
    top_a, top_b = complex(a[gauge_index(a)]), complex(b[gauge_index(b)])
    a = (a * (top_a.conjugate() / abs(top_a))).reshape(2, 2)
    b = (b * (top_b.conjugate() / abs(top_b))).reshape(2, 2)
    return TensorFactorization(True, a, b, cmath.phase(top_a * top_b), schmidt)


def factorize_all(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separability mask and factor pairs of a (k, 4, 4) stack of unitaries.

    The stack is checked for unitarity once and screened with one batched
    SVD at tensor_factorize's scale; only the candidates that pass go
    through tensor_factorize, whose verdict is final.  Pair i is
    (e^{i*phase} factor_a, factor_b), whose kron is w_i, where the mask
    holds and the identity pair elsewhere.
    """
    ws = require_unitary(ws, what="factorization input")
    schmidt = np.linalg.svd(_realign(ws), compute_uv=False) / 2.0
    separable = schmidt[:, 1] <= SEPARABLE_TOL
    pairs = np.zeros((len(ws), 2, 2, 2), dtype=complex)
    pairs[..., 0, 0] = pairs[..., 1, 1] = 1.0
    for i in np.flatnonzero(separable).tolist():
        f = tensor_factorize(ws[i])
        separable[i] = f.separable
        if f.separable:
            pairs[i, 0], pairs[i, 1] = np.exp(1j * f.phase) * f.factor_a, f.factor_b
    return separable, pairs


def gauge_index(m: np.ndarray) -> int:
    """First row-major entry within GAUGE_TIE_TOL of the maximum magnitude.

    A 2x2 unitary always carries tied magnitudes (|m00| = |m11| and
    |m01| = |m10|), so a plain argmax would be unstable under rounding.
    """
    mags = [abs(z) for z in m.ravel().tolist()]
    cut = max(mags) - GAUGE_TIE_TOL
    for i, mag in enumerate(mags):
        if mag > cut:
            return i
    return 0


_W_AXES = {1: ("z", 0), 2: ("z", 1), 3: ("y", 0), 4: ("y", 1)}
_W_PAULI_CHOICES = {1: ("X", "Y"), 2: ("X", "Y"), 3: ("X", "Z"), 4: ("X", "Z")}


def w_witness(kind: int, theta: float, lam: float, pauli: str = "X") -> np.ndarray:
    """One of the four conjugated-rotation witnesses.

    Kind 1/2 conjugates a first/second-qubit Z rotation by exp(i*theta*
    sigma_pp) with p in {X, Y}; kind 3/4 does the same for Y rotations
    with p in {X, Z}.
    """
    require_finite((theta, lam), "witness angles")
    if kind not in _W_AXES:
        raise ValueError("kind must be 1..4")
    pauli = pauli.upper()
    if pauli not in _W_PAULI_CHOICES[kind]:
        raise ValueError(f"witness {kind} takes pauli in {_W_PAULI_CHOICES[kind]}")
    axis, slot = _W_AXES[kind]
    sig = PAULIS[pauli]
    conj = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * tensor(sig, sig)
    mid = tensor(rot(axis, lam), I2) if slot == 0 else tensor(I2, rot(axis, lam))
    return conj @ mid @ conj.conj().T


def eq44_separable(theta: float, lam: float) -> bool:
    """Closed-form separability of the witnesses at (theta, lam).

    The witnesses are tensor products exactly on the solution families
    (theta = k*pi/2, any lam), (any theta, lam = 2*k*pi) and
    (theta = (2k+1)*pi/4, lam = n*pi).
    """
    require_finite((theta, lam), "witness angles")
    bracket = np.exp(0.5j * lam) * np.sin(theta) ** 2 + np.exp(-0.5j * lam) * np.cos(theta) ** 2
    value = np.sin(lam / 2.0) * np.sin(2.0 * theta) * bracket
    return bool(abs(value) <= EQ44_TOL)
