"""The paper's definitions, one outcome at a time, for the differential tests
(pytest does not collect this module).  Gates and basis rows are plain arrays;
there is no SVD and nothing from gateport's separability, teleport, simulator
or fourway modules.  Constants and tolerances come from gateport.linalg."""
import itertools
from functools import cache, reduce

import numpy as np

from gateport.kak import classify_nonlocal, euler_zyz, kak_decompose
from gateport.linalg import (CORRECTABLE_TOL, DEFAULT_UNITARY_TOL, H, I2, I4, PROBABILITY_FLOOR, S,
                             SEPARABLE_TOL, SX, SZ)

OUTCOMES = tuple(itertools.product(range(4), repeat=2))  # (j, k), row-major
BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
# The eight-term resource of the four-way scheme, and the local flip U1 it brings.
CHI = np.array([1, 0, 0, -1, 0, -1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1]) / (2 * np.sqrt(2))
U1 = np.diag([1, 1, -1, 1])


def dag(m):
    return m.conj().T


def state_betas(rows, front=None):
    """State form: B_j[m, y] = <b_j|U|my>, U the front gate (none: the identity)."""
    return [(np.conj(b) if front is None else np.conj(b) @ front).reshape(2, 2) for b in rows]


def gate_betas(rows, front=None):
    """Gate form: b_j[y, x] = sqrt(2) <b_j|U|xy>."""
    return [np.sqrt(2.0) * o.T for o in state_betas(rows, front)]


def products(betas):
    return [np.kron(betas[j], betas[k]) for j, k in OUTCOMES]


def capable(prods):
    """Every b_j (x) b_k is unitary: every basis vector is maximally entangled."""
    return all(np.linalg.norm(dag(p) @ p - I4) <= DEFAULT_UNITARY_TOL for p in prods)


# Rows (i, j) and columns (k, m) of the 36 2x2 minors: w is a product exactly
# when every minor of its realignment vanishes.
_MINORS = np.array([(i, j, k, m) for i, j in itertools.combinations(range(4), 2)
                    for k, m in itertools.combinations(range(4), 2)]).T


def realign(w):
    """r[2a+c, 2b+d] = w[2a+b, 2c+d]: kron(A, B) realigns to vec(A) vec(B)^T."""
    return w.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def product_residual(w):
    """sqrt(sum |minor|^2) / 4 over the 36 2x2 minors of w's realignment, zero exactly on
    products.  The squared minors sum to sum_{i<j} s_i^2 s_j^2 (Cauchy-Binet), so near a
    product, for a unitary w, this lies between s_2 / 2 and sqrt(3) times it."""
    r, (i, j, k, m) = realign(w), _MINORS
    return float(np.linalg.norm(r[i, k] * r[j, m] - r[i, m] * r[j, k]) / 4)


def separable(w):
    return product_residual(w) <= SEPARABLE_TOL


def near_threshold(w):  # where this rule and one on the second Schmidt coefficient alone can disagree
    return SEPARABLE_TOL / 2 <= product_residual(w) <= 2 * SEPARABLE_TOL


def factors(w):
    """(a, b) with kron(a, b) = w for a product w, whose realignment r is vec(a) vec(b)^T:
    a is r times its largest row, conjugated (for w a product only within the tolerance,
    that power step gives its closest product), and b is the row a^dag r / |a|^2."""
    r = realign(w)
    a = r @ r[np.abs(r).max(axis=1).argmax()].conj()
    return a.reshape(2, 2), (a.conj() @ r / np.vdot(a, a).real).reshape(2, 2)


def gate_outcomes(u, rows):
    """W_jk = U (b_j (x) b_k) U^dag of every outcome, whether it teleports U
    (a capable basis and a product W_jk), and its pair (a, b) with
    kron(a, b) = W_jk, or None."""
    prods = products(gate_betas(rows))
    ok = capable(prods)
    ws = [u @ p @ dag(u) for p in prods]
    teleports = [ok and separable(w) for w in ws]
    return ws, teleports, [factors(w) if t else None for w, t in zip(ws, teleports)]


def state_outcomes(psi, rows, front=None):
    """Per outcome j of teleporting a qubit through the resource psi (|nm> -> psi[n, m]),
    measuring {b_j} after the front gate: M_j = psi B_j, p_j = tr(M_j^dag M_j) / 2, whether
    M_j^dag M_j = p_j I above the probability floor, and there V_j = M_j / sqrt(p_j)."""
    probs, correctable, vs = [], [], []
    for b in state_betas(rows, front):
        m = psi @ b
        gram = dag(m) @ m
        p = np.trace(gram).real / 2
        ok = bool(p > PROBABILITY_FLOOR and np.linalg.norm(gram - p * I2) <= CORRECTABLE_TOL)
        probs.append(p)
        correctable.append(ok)
        vs.append(m / np.sqrt(p) if ok else None)
    return probs, correctable, vs


def fourway_outcomes(u, rows, psi):
    """Per outcome of the four-way scheme, by FourwayReport's names: the verdicts of the
    branches (U U1) s (b_j (x) b_k) (U U1)^dag for s = XX and ZZ, the probability, the output
    U c / sqrt(p) of the carrier state c (zero at the floor) and its fidelity with U psi, raw
    and at best with a separable branch a (x) b undone; and whether a branch is near_threshold."""
    prods = products(gate_betas(rows))
    ok, full = capable(prods), u @ U1
    carriers = measure(np.kron(psi, CHI), [(0, 2), (1, 5)], rows)
    got = {name: [] for name in ("branch_xx_separable", "branch_zz_separable", "probabilities",
                                 "output_states", "fidelities_raw", "fidelities_corrected")}
    got["near_threshold"] = False
    for p_jk, c in zip(prods, carriers):
        undo = [I4]
        for name, pauli in (("branch_xx_separable", SX), ("branch_zz_separable", SZ)):
            branch = full @ np.kron(pauli, pauli) @ p_jk @ dag(full)
            got[name].append(ok and separable(branch))
            got["near_threshold"] |= near_threshold(branch)
            undo.append(dag(np.kron(*factors(branch))) if got[name][-1] else I4)
        p = np.vdot(c, c).real
        outs = [m @ u @ c / np.sqrt(p) if p > PROBABILITY_FLOOR else np.zeros(4) for m in undo]
        fids = [abs(np.vdot(u @ psi, out)) ** 2 for out in outs]
        got["probabilities"].append(p)
        got["output_states"].append(outs[0])
        got["fidelities_raw"].append(fids[0])
        got["fidelities_corrected"].append(max(fids))
    return got


# The statevector oracle: dense projectors on the whole register.
@cache
def _layout(qubits, n):
    """Per amplitude index (qubit 0 most significant): that of `qubits`' state and of the others'."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    others = [q for q in range(n) if q not in qubits]
    return tuple(bits[:, list(qs)] @ (1 << np.arange(len(qs) - 1, -1, -1)) for qs in (qubits, others))


def embed(op, qubits, n):
    """op on `qubits` of an n-qubit register and the identity on the others, as a 2^n x 2^n matrix."""
    sub, rest = _layout(tuple(qubits), n)
    return op[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])


def measure(state, pairs, rows):
    """Residual state of each joint outcome (j1, j2, ...) of measuring the pairs in the basis
    `rows`, row 4*j1 + j2: the projectors |b_j><b_j| collapse the register to
    (b_j1 (x) b_j2 ...) (x) r, and r, on the other qubits in increasing order, is read off."""
    n = len(state).bit_length() - 1
    projectors = [[embed(np.outer(b, np.conj(b)), pair, n) for b in rows] for pair in pairs]
    sub, rest = _layout(tuple(q for pair in pairs for q in pair), n)
    out = []
    for outcome in itertools.product(range(4), repeat=len(pairs)):
        collapsed = reduce(lambda amps, p: p @ amps, (ps[j] for j, ps in zip(outcome, projectors)), state)
        r = np.zeros(2 ** (n - 2 * len(pairs)), dtype=complex)
        np.add.at(r, rest, np.conj(reduce(np.kron, (rows[j] for j in outcome)))[sub] * collapsed)
        out.append(r)
    return np.array(out)


def _scores(rests, ops, target):
    """Fidelities with target of the normalized residuals after their operators, and the probabilities."""
    probs = [np.vdot(r, r).real for r in rests]
    return (np.array([abs(np.vdot(target, op @ r)) ** 2 / p if p > PROBABILITY_FLOOR else 0.0
                      for r, op, p in zip(rests, ops, probs)]), np.array(probs))


def state_circuit(xi, psi, rows, corrections, front=None):
    """(fidelities, probabilities): psi on qubits (0, 1), xi on 2, front and measurement on (1, 2)."""
    state = np.kron(np.reshape(psi, -1), xi)
    if front is not None:
        state = embed(front, (1, 2), 3) @ state
    return _scores(measure(state, [(1, 2)], rows), corrections, xi)


def gate_circuit(ab, u, rows, corrections):
    """(fidelities, probabilities): ab on (0, 1), Bell pairs on (2, 3) and (4, 5), measurements
    of (0, 3) and (1, 5), then U and the pair (a, b) on the carriers (2, 4)."""
    rests = measure(np.kron(np.kron(ab, BELL), BELL), [(0, 3), (1, 5)], rows)
    return _scores(rests, [np.kron(a, b) @ u for a, b in corrections], u @ ab)


def theorem1(u_t, rows):
    """theorem1_check's conclusion and branch, one euler_zyz call per conjugated basis matrix:
    each representative h, tried in order, asks every h c b_j c^dag h^dag and h d b_k d^dag h^dag
    to put its masked ZYZ angles on the integer-pi lattice.  x (all three angles) is tried for
    every count of active axes, z and y for one active axis, inactive_z (I, lambda2) for two."""
    tol = 1e-8  # the Euler-angle lattice tolerance
    reps = {"axis_x": (I2, (True, True, True)), "axis_z": (H, (False, True, False)),
            "axis_y": (S, (True, False, True)), "inactive_z": (I2, (False, True, False))}
    d = kak_decompose(u_t)
    cls = classify_nonlocal(d.theta)
    betas = gate_betas(rows)
    # Capability: every product b_j (x) b_k of the gate-form betas unitary within 1e-9.
    valid = capable(products(betas))
    condition2 = cls.is_swap_point and valid

    def on_lattice(m, mask):
        e = euler_zyz(m)
        r = np.array([e.lambda1, e.lambda2, e.lambda3])[list(mask)] % np.pi
        return bool(np.all((r <= tol) | (r >= np.pi - tol)))

    branch = None
    if valid and all((not dl) or q for dl, q in zip(cls.delta, cls.odd_quarter_pi)):
        n_active = sum(cls.delta)
        if n_active == 0:
            branch = "local"
        else:
            tried = {1: ("axis_x", "axis_z", "axis_y"), 2: ("axis_x", "inactive_z")}.get(n_active, ("axis_x",))
            for name in tried:
                h, mask = reps[name]
                if all(on_lattice(h @ loc @ b @ dag(loc) @ dag(h), mask) for loc in (d.c_local, d.d_local) for b in betas):
                    branch = name
                    break
    conclusion = "deterministic" if (branch is not None or condition2) else "not_covered"
    return conclusion, branch
