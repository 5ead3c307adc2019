"""The shared draws of the tests (pytest does not collect this module): fronts, Haar and
Clifford locals, bases, dressed gates e^{i phi} (A (x) B) N(theta) (C (x) D), and the
Hypothesis strategies over them.  numpy, Hypothesis and the public gateport API only."""
import numpy as np
from hypothesis import strategies as st

from gateport import bases
from gateport import linalg as la
from gateport.kak import nonlocal_gate

SEEDS = st.integers(0, 2**32 - 1)
ANGLES = st.floats(-np.pi, np.pi, allow_nan=False)
QUARTERS = st.integers(-4, 4).map(lambda k: k * np.pi / 4)
LATTICE_THETA = st.tuples(QUARTERS, QUARTERS, QUARTERS)

# The 24 single-qubit Cliffords up to phase: a Pauli times one of six gates that permute the
# axes X, Y, Z in each of the six ways.  I, X, Y, Z, H and S are in it exactly.
CLIFFORD_1Q = tuple(p @ c for p in (la.I2, la.SX, la.SY, la.SZ)
                    for c in (la.I2, la.H, la.S, la.H @ la.S, la.S @ la.H, la.H @ la.S @ la.H))


def front(basis, u):
    """The basis {U^dag b_j}: measuring it is applying U, then measuring `basis`."""
    return bases.MeasurementBasis(basis.vectors @ u.conj(), basis.name)


def haar_basis(seed):
    """The columns of a Haar unitary (seed: an int or a Generator), named "random"."""
    return bases.MeasurementBasis(la.haar_random_unitary(4, seed).T, "random")


def capable_basis(seed):
    """A Bell basis conjugated by a Haar local: every vector maximally entangled."""
    return bases.conjugated_pauli_basis(la.haar_random_unitary(2, seed))


def haar_local(seed):
    """A Haar A (x) B, A drawn first."""
    rng = np.random.default_rng(seed)
    return la.tensor(la.haar_random_unitary(2, rng), la.haar_random_unitary(2, rng))


def dressed(theta, a, b, c, d, phi=0.0):
    return np.exp(1j * phi) * la.tensor(a, b) @ nonlocal_gate(theta) @ la.tensor(c, d)


def beta_ab(t):
    return bases.beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2))


HAAR_1Q = SEEDS.map(lambda seed: la.haar_random_unitary(2, seed))
HAAR_GATES = SEEDS.map(lambda seed: la.haar_random_unitary(4, seed))
LOCALS = st.one_of(st.sampled_from(CLIFFORD_1Q), HAAR_1Q)
# Dressed lattice gates: theta on the k pi/4 lattice, each local a Clifford or a Haar draw.
DRESSED_GATES = st.builds(dressed, LATTICE_THETA, LOCALS, LOCALS, LOCALS, LOCALS, ANGLES)
# Angles k pi/4, exact half the time, else off by 1e-9 (a Clifford core still, on the lattice) up to
# 5e-5 either way, and gates with such a core between Clifford locals.
OFFSETS = st.one_of(st.just(0.0), st.sampled_from([1e-9, -1e-9, 1e-8, -3e-8, 1e-6, -1e-6, 5e-5, -5e-5]))
NEAR_QUARTERS = st.builds(lambda q, e: q + e, QUARTERS, OFFSETS)
CLIFFORD_LOCALS = st.sampled_from(CLIFFORD_1Q)
NEAR_LATTICE_GATES = st.builds(dressed, st.tuples(NEAR_QUARTERS, NEAR_QUARTERS, NEAR_QUARTERS),
                               CLIFFORD_LOCALS, CLIFFORD_LOCALS, CLIFFORD_LOCALS, CLIFFORD_LOCALS, ANGLES)

NAMED_BASES = st.sampled_from([make() for make in bases.NAMED_BASES.values()])
BETA_AB_BASES = st.floats(-np.pi, 2 * np.pi).map(beta_ab)
# Every basis here is capable: each vector is maximally entangled.
CAPABLE_BASES = st.one_of(NAMED_BASES, BETA_AB_BASES, LOCALS.map(bases.conjugated_pauli_basis))
# Capable bases, beta_nl bases on and off the capable lattice, and Haar bases.
BASES = st.one_of(
    CAPABLE_BASES,
    st.tuples(QUARTERS, QUARTERS, ANGLES).map(lambda t: bases.beta_nl_basis(*t)),
    SEEDS.map(haar_basis),
)
