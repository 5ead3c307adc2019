"""Margin audit of the tolerance ledger (linalg's first block).

Every verdict a ledger threshold that judges data decides (all but the
rounding guards WALL_TOL, ROUNDING_EPS, WRAP_TOL, DEGENERACY_GAPS,
EIGEN_TOL and EQ44_TOL, and GLOBAL_PHASE_TOL, which no analysis uses), over the benchmark catalogue's
33 gates and its bases, the named bases, beta_ab at scan grid 48 and
beta_nl at scan grid 8, is measured here the way the library measures it
and must sit at least MARGIN times from its threshold, on its own side.
So no verdict flips when any one tolerance is scaled by 10 or by 1/10,
and no test has to patch a default that was bound at import.

The stacks are built in one batch where the library goes one gate and
basis at a time; the rounding that changes is some 1e-16, far inside
every margin.  Measured extremes (below the threshold, above it):
second Schmidt coefficient 5.0e-16 and 0.0217 (four-way branches 4.7e-16
and 0.029), capability residual 1.8e-15 and 3.11, Pauli-label residual
1.4e-15 and 0.027, KAK lattice distance 1.1e-16 and 0.0217, Euler
lambda2 lattice distance 0 and 0.277, Clifford residual 5.1e-16 and 0.112,
gauge-tie gap 1.1e-15 and 0.18, oracle fidelity deficit 2.2e-15 and
3.1e-3 (per input), correctability residual 8.0e-17 and 0.024; no
probability comes within 10x of the floor (the smallest is 2.2e-3).
"""
import functools

import numpy as np
import pytest

from perfbench.workloads import catalogue
from gateport import bases, cli, kak
from gateport import linalg as la
from gateport import separability as sep
from gateport import teleport as tp
from gateport.simulator import run_gate_teleport
from strategies import beta_ab

MARGIN = 10.0


def _sides(values, tol):
    """(largest value at or under tol, smallest value over it), after checking
    that none lies within a factor MARGIN of tol on either side."""
    values = np.asarray(values, dtype=float).ravel()
    near = values[(values > tol / MARGIN) & (values < tol * MARGIN)]
    assert near.size == 0, f"{near.size} values within {MARGIN:g}x of {tol:g}: {near[:5]}"
    low, high = values[values <= tol], values[values > tol]
    return (low.max() if low.size else None), (high.min() if high.size else None)


@functools.cache
def _catalogue():
    cat = catalogue()
    gates = np.stack([cli.resolve_gate(g, la.DEFAULT_UNITARY_TOL) for g in cat["all_gates"]])
    specs = dict.fromkeys(["bell", "m1", "m2", *cat["all_bases"]])
    named = {spec: cli.resolve_basis(spec, la.DEFAULT_UNITARY_TOL) for spec in specs}
    ts = 2 * np.pi * np.arange(48) / 48  # as cmd_scan builds its grids
    scanned = [beta_ab(t) for t in ts]
    ts = 2 * np.pi * np.arange(8) / 8 - np.pi
    scanned += [bases.beta_nl_basis(t1, t2, 0.0) for t1 in ts for t2 in ts]
    return cat, gates, named, [*named.values(), *scanned]


def _capability_residuals(betas):
    """max_j ||P_j^dag P_j - I||_F over P_j = b_j (x) b_j, as bases.capable forms it."""
    products = np.einsum("...jac,...jbd->...jabcd", betas, betas).reshape(*betas.shape[:-3], 4, 4, 4)
    return np.linalg.norm(la.dag(products) @ products - la.I4, axis=(-2, -1)).max(axis=-1)


def _second_schmidt(ws):
    """The screen of separability.factorize_all: half the second singular
    value of each realigned matrix."""
    return np.linalg.svd(sep._realign(ws), compute_uv=False)[..., 1] / 2.0


@functools.cache
def _w_stacks():
    """The catalogue gates' W stacks under every capable audited basis,
    (gates, bases, 16, 4, 4), their second Schmidt coefficients and the
    capability residual of every basis."""
    _, gates, _, all_bases = _catalogue()
    betas = np.stack([bases.gate_betas(b) for b in all_bases])
    residuals = _capability_residuals(betas)
    products = np.stack([la.kron_pairs(b, b) for b in betas[residuals <= la.DEFAULT_UNITARY_TOL]])
    u = gates[:, None, None]
    ws = u @ products[None] @ la.dag(u)
    return ws, _second_schmidt(ws), residuals


def test_unitarity_norm_and_capability_clear_their_bounds():
    cat, gates, _, all_bases = _catalogue()
    unitarity = [np.linalg.norm(la.dag(gates) @ gates - la.I4, axis=(-2, -1))]
    unitarity += [np.linalg.norm(la.dag(b.matrix()) @ b.matrix() - la.I4) for b in all_bases]
    assert _sides(np.concatenate([np.ravel(u) for u in unitarity]), la.DEFAULT_UNITARY_TOL)[1] is None
    # beta_ab_basis' circle check, on the (a, b) of resolve_basis and of cmd_scan.
    a = np.array([float(spec[len("beta_ab:"):]) for spec in cat["bases"]["beta_ab"]])
    ts = 2 * np.pi * np.arange(48) / 48
    a, b = np.append(a, np.cos(ts) / np.sqrt(2)), np.append(np.sqrt(0.5 - a * a), np.sin(ts) / np.sqrt(2))
    assert _sides(np.abs(a * a + b * b - 0.5), la.NORM_TOL)[1] is None
    low, high = _sides(_w_stacks()[2], la.DEFAULT_UNITARY_TOL)
    assert low < 1e-14 and high > 3.0


def test_second_schmidt_coefficients_clear_separable_tol():
    low, high = _sides(_w_stacks()[1], la.SEPARABLE_TOL)
    assert low < 1e-15 and high > 0.02


def test_fourway_branches_clear_separable_and_factor_match_tols():
    cat, gates, named, _ = _catalogue()
    betas = np.stack([bases.gate_betas(named[spec]) for spec in cat["fourway_bases"]])
    beta_jk = np.stack([la.kron_pairs(b, b) for b in betas])
    sxx, szz = la.tensor(la.SX, la.SX), la.tensor(la.SZ, la.SZ)
    u = (gates @ np.diag([1.0, 1.0, -1.0, 1.0]))[:, None, None]  # u_t @ fourway.u1_gate()
    branches = (u @ np.concatenate((sxx @ beta_jk, szz @ beta_jk), axis=1)[None] @ la.dag(u)).reshape(-1, 4, 4)
    _sides(_second_schmidt(branches), la.SEPARABLE_TOL)
    low, high = _sides(_pauli_residuals(branches), la.FACTOR_MATCH_TOL)
    assert low is not None and high is not None


def _pauli_residuals(ms):
    """Each matrix's least phase_residual to a Pauli product: that of la.pauli_products,
    whose product of largest coefficient is the nearest one."""
    return la.phase_residual(ms[..., None, :, :], la.PAULI_PAIRS)[1].min(axis=-1)


def test_gauge_ties_clear_gauge_tie_tol():
    ws, schmidt, _ = _w_stacks()
    u, _, vh = np.linalg.svd(sep._realign(ws[schmidt <= la.SEPARABLE_TOL]))
    # tensor_factorize's factors, before their gauge: sqrt(2) times the leading singular vectors.
    mags = np.abs(np.sqrt(2) * np.concatenate((u[:, :, 0], vh[:, 0, :])))
    low, high = _sides(mags.max(axis=-1, keepdims=True) - mags, la.GAUGE_TIE_TOL)
    assert low < 1e-14 and high > 0.1


def test_table2_factors_clear_factor_match_tol():
    report = tp.analyze_gate_teleport(tp.t_gate(np.pi / 8, np.pi / 8), bases.m2_basis())
    num, sym = report.corrections, np.array(tp.table2_factors(np.pi / 8, np.pi / 8))
    misses = la.phase_residual(la.tensor(num[:, 0], num[:, 1]), la.tensor(sym[:, 0], sym[:, 1]))[1]  # as cmd_tables
    assert _sides(misses, la.FACTOR_MATCH_TOL)[1] is None


def test_kak_and_euler_lattice_distances_clear_lattice_tol():
    cat, gates, named, _ = _catalogue()
    distances, euler = [], []
    for g in gates:
        d = kak.kak_decompose(g)
        theta = np.array(d.theta)
        r = theta % (np.pi / 2)  # as classify_nonlocal reduces them
        distances += [np.minimum(r, np.pi / 2 - r), np.abs(r - np.pi / 4), np.abs(np.abs(theta) - np.pi / 4)]
        cls = kak.classify_nonlocal(d.theta)
        if not any(cls.delta) or not all(q for dl, q in zip(cls.delta, cls.odd_quarter_pi) if dl):
            continue
        # theorem1_check's lambda2 lattice of f and H f H, on the capable catalogue bases.
        sides = np.stack((d.c_local, d.d_local))[:, None]
        for spec in cat["all_bases"]:
            betas = bases.gate_betas(named[spec])
            if bases.capable(betas):
                f = sides @ betas @ la.dag(sides)
                lam2 = kak.euler_zyz(np.stack((f, la.H @ f @ la.H))).lambda2
                euler.append(np.minimum(lam2, np.pi - lam2))
    low, high = _sides(np.concatenate(distances), la.LATTICE_TOL)
    assert low < 1e-15 and high > 0.02
    low, high = _sides(np.concatenate(euler, axis=None), la.LATTICE_TOL)
    assert low < 1e-14 and high > 0.2


def test_clifford_residuals_clear_clifford_tol():
    _, gates, _, _ = _catalogue()
    # is_clifford's worst u P u^dag.
    residuals = _pauli_residuals(gates[:, None] @ la.PAULI_PAIRS @ la.dag(gates)[:, None]).max(axis=-1)
    low, high = _sides(residuals, la.CLIFFORD_TOL)
    assert low < 1e-14 and high > 0.1


def test_oracle_fidelity_deficits_and_probabilities_clear_their_bounds():
    # analyze --verify's 8 inputs over every catalogue gate and basis; each
    # input's deficit decides tables --verify, their worst decides analyze.
    cat, gates, named, _ = _catalogue()
    rng = np.random.default_rng(8)
    deficits = {True: [], False: []}
    probabilities = []
    for g in gates:
        for spec in cat["all_bases"]:
            report = tp.analyze_gate_teleport(g, named[spec])
            psis = np.stack([la.random_state(4, rng) for _ in range(8)])
            result = run_gate_teleport(psis, g, named[spec], report.correction_inverses())
            separable = np.array(report.separable)
            deficits[True].append((1.0 - result.fidelities[:, separable]).ravel())
            deficits[False].append((1.0 - result.fidelities[:, ~separable]).ravel())
            probabilities.append(result.probabilities)
    low, high = _sides(np.concatenate(deficits[True]), la.FIDELITY_TOL)
    assert high is None and low < 1e-14
    low, high = _sides(np.concatenate(deficits[False]), la.FIDELITY_TOL)
    assert low is None and high > 1e-3
    assert _sides(probabilities, la.PROBABILITY_FLOOR)[0] is None


@pytest.mark.parametrize("front", catalogue()["fronts"])
def test_state_teleport_clears_correctable_tol_and_the_probability_floor(front):
    cat, _, named, _ = _catalogue()
    u_front = cli.resolve_gate(front, la.DEFAULT_UNITARY_TOL) if front else None
    psi = tp.bell_resource()
    residuals, probabilities = [], []
    for spec in named:
        # analyze_state_teleport's outcome operators M_j and their Gram residuals.
        ms = psi @ np.stack(bases.beta_matrices(named[spec], u_front, "state_form").mats)
        grams = la.dag(ms) @ ms
        probs = np.trace(grams, axis1=-2, axis2=-1).real / 2.0
        residuals.append(np.linalg.norm(grams - probs[:, None, None] * la.I2, axis=(-2, -1)))
        probabilities.append(probs)
    low, high = _sides(residuals, la.CORRECTABLE_TOL)
    assert low is not None and high is not None
    assert _sides(probabilities, la.PROBABILITY_FLOOR)[0] is None
