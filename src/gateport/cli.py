"""Command-line surface: gate/basis specs, file formats, reports, scans.

Exit codes: 0 success, 1 usage or parse error or closed output, 2
numerical validation failure (non-unitary gate, non-orthonormal basis),
3 table self-check or oracle mismatch.

Every subcommand but tables takes --tol, and tables ignores GATEPORT_TOL;
kak, analyze, state-teleport, fourway and validate-basis take --format;
analyze, tables, simulate and fourway take --seed.

--tol (default 1e-9) judges only the matrices a user types or loads: an
@file gate (also --front), an @file basis and a pauli_conj matrix.  Each
must be unitary within it and is replaced by its nearest unitary; an
@file basis whose gate-form betas are unitary within it also gets
maximally entangled vectors.  Named gates and bases are exact and pass
untouched.  GATEPORT_TOL, read on every call, sets the default (a
malformed value exits 1); an explicit --tol wins.  Either must be a
positive finite number.  The library's bounds are fixed: unitarity
1e-9, separability 1e-7, lattice and Clifford 1e-8, probability floor
1e-12.  A basis has capability zero when a product b_j (x) b_k of its
gate-form betas is not unitary.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .linalg import (
    DEFAULT_UNITARY_TOL,
    FACTOR_MATCH_TOL,
    FIDELITY_TOL,
    H,
    I2,
    PAULIS,
    ROUNDING_EPS,
    S,
    TABLE1_TOL,
    dag,
    is_unitary,
    nearest_unitary,
    phase_residual,
    random_state,
    tensor,
)
from .kak import classify_nonlocal, is_clifford, kak_decompose, nonlocal_gate
from .bases import (
    NAMED_BASES,
    MeasurementBasis,
    beta_ab_basis,
    beta_ab_bases,
    beta_nl_basis,
    beta_nl_bases,
    conjugated_pauli_basis,
    gate_betas,
    m2_basis,
    validate_basis,
)
from .teleport import (
    NAMED_GATES,
    PAIR_ORDER,
    TABLE1_BASES,
    TABLE1_EXPECTED,
    TABLE1_GATES,
    TABLE2_LABELS,
    analyze_gate_teleport,
    analyze_state_teleport,
    bell_resource,
    t_gate,
    table1_cells,
    table1_probabilities,
    table2_factors,
    theorem1_check,
)
from .simulator import run_gate_teleport
from .fourway import analyze_fourway


class UsageError(Exception):
    """A malformed command line, spec or file: exit 1."""


class SelfCheckError(Exception):
    """A table self-check or oracle mismatch: exit 3."""


# --- number / file formats -------------------------------------------------

def _complex_pairs(a) -> list:
    """Nested [re, im] lists of a complex array (a scalar gives one pair)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _pair_complex(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise UsageError(f"expected [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def _doc_to_rows(doc, shape) -> np.ndarray:
    try:
        m = np.array([[_pair_complex(p) for p in row] for row in doc], dtype=complex)
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an integer past float range
        raise UsageError(f"malformed complex matrix: {e}")
    if m.shape != shape:
        raise UsageError(f"expected shape {shape}, got {m.shape}")
    return m


def _write_doc(path: str, doc: dict, name: str) -> None:
    if name:
        doc["name"] = name
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_gate_file(path: str, matrix: np.ndarray, name: str = "") -> None:
    _write_doc(path, {"matrix": _complex_pairs(matrix)}, name)


def _read_matrix(path: str, key: str, shape) -> tuple[str, np.ndarray]:
    """The name ("" if none) and the `shape` complex matrix under `key` of
    the JSON object in `path`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path!r}: {e.strerror}")
    except (ValueError, RecursionError) as e:  # RecursionError: nested past the decoder's limit
        raise UsageError(f"{path!r} is not valid JSON: {e}")
    if not isinstance(doc, dict) or key not in doc:
        raise UsageError(f"{path!r} must hold a JSON object with a {key!r} key")
    return doc.get("name", ""), _doc_to_rows(doc[key], shape)


def read_gate_file(path: str) -> tuple[str, np.ndarray]:
    return _read_matrix(path, "matrix", (4, 4))


def write_basis_file(path: str, basis: MeasurementBasis) -> None:
    _write_doc(path, {"vectors": _complex_pairs(basis.vectors)}, basis.name)


def read_basis_file(path: str) -> MeasurementBasis:
    name, rows = _read_matrix(path, "vectors", (4, 4))
    return MeasurementBasis(rows, name)


# --- spec resolution --------------------------------------------------------

_SINGLE_QUBIT_NAMED = {"i": I2, "x": PAULIS["X"], "y": PAULIS["Y"], "z": PAULIS["Z"], "h": H, "s": S}


def _parse_floats(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{what} takes {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{what}: could not parse numbers in {text!r}")
    if not all(np.isfinite(values)):
        raise UsageError(f"{what}: numbers must be finite, got {text!r}")
    return values


def _accept(m: np.ndarray, tol: float, message: str) -> np.ndarray:
    """The nearest unitary to m, a matrix the user gave, if m is unitary within tol."""
    if not is_unitary(m, tol):
        raise ValueError(message)
    return nearest_unitary(m)


def _accept_basis(basis: MeasurementBasis, tol: float, message: str) -> MeasurementBasis:
    """The nearest orthonormal basis to basis, a basis the user gave, if it
    is orthonormal within tol.  When its gate-form betas are also unitary
    within tol, each is first replaced by its nearest unitary e^{i phi_j}
    q_j (q_j in SU(2)), which makes every vector maximally entangled; the
    final nearest unitary keeps them so, because with the q_j read as real
    unit 4-vectors it only mixes them by a real orthogonal matrix."""
    rows = basis.vectors  # unitary iff its transpose basis.matrix() is
    if not is_unitary(rows, tol):
        raise ValueError(message)
    betas = gate_betas(basis)
    if is_unitary(betas, tol):
        rows = dag(nearest_unitary(betas)).reshape(4, 4) / np.sqrt(2)
    return MeasurementBasis(nearest_unitary(rows), basis.name)


def resolve_gate(spec: str, tol: float) -> np.ndarray:
    spec = spec.strip()
    key = spec.lower()
    if key in NAMED_GATES:
        return NAMED_GATES[key]()
    if key.startswith("t:"):
        phi, xi = _parse_floats(spec[2:], 2, "t:phi,xi")
        return t_gate(phi, xi)
    if key.startswith("kak:"):
        t1, t2, t3 = _parse_floats(spec[4:], 3, "kak:t1,t2,t3")
        return nonlocal_gate((t1, t2, t3))
    if spec.startswith("@"):
        _, m = read_gate_file(spec[1:])
        return _accept(m, tol, f"gate from {spec[1:]!r} is not unitary within {tol}")
    raise UsageError(f"unknown gate spec {spec!r}")


def _resolve_single_qubit(spec: str, tol: float) -> np.ndarray:
    key = spec.lower()
    if key in _SINGLE_QUBIT_NAMED:
        return _SINGLE_QUBIT_NAMED[key]
    if spec.startswith("@"):
        _, m = _read_matrix(spec[1:], "matrix", (2, 2))
    else:
        vals = _parse_floats(spec, 8, "2x2 matrix (re,im x 4 entries)")
        m = np.array(
            [[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
             [complex(vals[4], vals[5]), complex(vals[6], vals[7])]]
        )
    return _accept(m, tol, "pauli_conj matrix is not unitary")


def resolve_basis(spec: str, tol: float) -> MeasurementBasis:
    spec = spec.strip()
    key = spec.lower()
    if key in NAMED_BASES:
        return NAMED_BASES[key]()
    if key.startswith("beta_ab:"):
        vals = spec[len("beta_ab:"):]
        if "," not in vals:
            (a,) = _parse_floats(vals, 1, "beta_ab:a")
            bsq = 0.5 - a * a
            if bsq < -ROUNDING_EPS:
                raise ValueError(f"beta_ab: |a| must be at most 1/sqrt(2), got {a}")
            b = float(np.sqrt(max(bsq, 0.0)))
        else:
            a, b = _parse_floats(vals, 2, "beta_ab:a,b")
        return beta_ab_basis(a, b)
    if key.startswith("beta_nl:"):
        t1, t2, t3 = _parse_floats(spec[len("beta_nl:"):], 3, "beta_nl:t1,t2,t3")
        return beta_nl_basis(t1, t2, t3)
    if key.startswith("pauli_conj:"):
        return conjugated_pauli_basis(_resolve_single_qubit(spec[len("pauli_conj:"):].strip(), tol))
    if spec.startswith("@"):
        return _accept_basis(read_basis_file(spec[1:]), tol, f"basis from {spec[1:]!r} is not orthonormal within {tol}")
    raise UsageError(f"unknown basis spec {spec!r}")


# --- output helpers ---------------------------------------------------------

def _num(x, spec: str) -> str:
    """format(x, spec), except that a result reading as zero is format(0.0,
    spec): no printed number shows a negative zero."""
    s = format(x, spec)
    return format(0.0, spec) if float(s) == 0 else s


def _fmt_mat(m: np.ndarray) -> str:
    """One indented line per row, each entry as +re+imj."""
    return "\n".join("    " + "  ".join(_num(z.real, "+.6f") + _num(z.imag, "+.6f") + "j" for z in row) for row in m)


def _json_default(obj):
    """json.dumps hook for the report values JSON has no type for (real arrays as lists)."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind != "c":
        return obj.tolist()
    if isinstance(obj, (np.ndarray, complex)):
        return _complex_pairs(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fields(report, skip=()) -> dict:
    """The report dataclass's fields by name, less those named in `skip`."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name not in skip}


def _emit_json(doc) -> None:
    # No indent: with one, json falls back to its pure-Python encoder.
    print(json.dumps(doc, sort_keys=True, default=_json_default))


# --- subcommands ------------------------------------------------------------

_FIDELITY_ONE = 1 - FIDELITY_TOL


def _oracle_fidelities(g, basis, report, inputs: int, rng) -> np.ndarray:
    """(inputs, 16) oracle fidelities of `report`'s corrections on Haar
    inputs drawn one after another from `rng`, run as one stack."""
    psis = np.stack([random_state(4, rng) for _ in range(inputs)])
    return run_gate_teleport(psis, g, basis, report.correction_inverses()).fidelities


def cmd_kak(args) -> None:
    g = resolve_gate(args.gate, args.tol)
    d = kak_decompose(g)
    cls = classify_nonlocal(d.theta)
    clifford = is_clifford(g)
    if args.format == "json":
        return _emit_json({"gate": args.gate, **_fields(d), **_fields(cls), "is_clifford": clifford})
    print(f"gate: {args.gate}")
    print(f"theta: ({', '.join(_num(t, '.6f') for t in d.theta)})")
    print(f"global phase: {_num(d.global_phase, '.6f')}")
    for label, m in (("A", d.a_local), ("B", d.b_local), ("C", d.c_local), ("D", d.d_local)):
        print(f"local {label}:")
        print(_fmt_mat(m))
    print(f"delta: {cls.delta}  odd_quarter_pi: {cls.odd_quarter_pi}  swap_point: {cls.is_swap_point}")
    print(f"clifford: {clifford}")


def cmd_analyze(args) -> None:
    g = resolve_gate(args.gate, args.tol)
    basis = resolve_basis(args.basis, args.tol)
    report = analyze_gate_teleport(g, basis)
    verdict = theorem1_check(g, basis)
    fidelities = None
    if args.verify:
        rng = np.random.default_rng(args.seed)
        fidelities = _oracle_fidelities(g, basis, report, args.inputs, rng).min(axis=0)
    if args.format == "json":
        factors = _complex_pairs(report.corrections)
        doc = {
            "gate": args.gate,
            "basis": args.basis,
            "n_separable": report.n_separable,
            "success_probability": report.success_probability,
            "deterministic": report.deterministic,
            "outcomes": [
                {
                    "j": j + 1,
                    "k": k + 1,
                    "separable": report.separable[idx],
                    "correction_a": factors[idx][0] if report.separable[idx] else None,
                    "correction_b": factors[idx][1] if report.separable[idx] else None,
                    "w_matrix": w_matrix,
                    **({"min_fidelity": float(fidelities[idx])} if fidelities is not None else {}),
                }
                for idx, ((j, k), w_matrix) in enumerate(zip(PAIR_ORDER, _complex_pairs(report.w_matrices)))
            ],
            "theorem1": _fields(verdict),
        }
        return _emit_json(doc)
    print(f"gate: {args.gate}   basis: {args.basis}")
    header = " j k separable"
    if fidelities is not None:
        header += "  min_fidelity"
    print(header)
    for idx, (j, k) in enumerate(PAIR_ORDER):
        line = f" {j + 1} {k + 1} {str(report.separable[idx]):<9}"
        if fidelities is not None:
            line += f"  {_num(fidelities[idx], '.9f')}"
        print(line)
    print(f"separable outcomes: {report.n_separable}/16")
    print(f"success probability: {_num(report.success_probability, '.3f')}")
    print(f"deterministic: {report.deterministic}")
    print(
        f"theorem1: {verdict.conclusion}"
        f" (condition1: {verdict.condition1_met}, condition2: {verdict.condition2_met}"
        + (f", branch: {verdict.branch}" if verdict.branch else "")
        + ")"
    )


def _table1_oracle_disagreements(cells, inputs: int, seed: int) -> int:
    """Outcome checks, over the Table-1 cells and `inputs` oracle inputs
    each, whose fidelity-one verdict differs from the analysis' separability."""
    rng = np.random.default_rng(seed)
    return sum(int(((_oracle_fidelities(g, basis, report, inputs, rng) >= _FIDELITY_ONE) != report.separable).sum())
               for g, basis, report in cells)


def cmd_tables(args) -> None:
    cells = table1_cells()
    table1 = table1_probabilities(cells)
    ok = np.allclose(table1, TABLE1_EXPECTED, rtol=0, atol=TABLE1_TOL)
    print(f"success probabilities (rows: {', '.join(TABLE1_GATES)})")
    print(f"{'gate':<10} " + " ".join(f"{name:>6}" for name in TABLE1_BASES))
    for name, row in zip(TABLE1_GATES, table1):
        print(f"{name:<10} " + " ".join(_num(p, ">6.3f") for p in row))
    print(f"table-1 self-check: {'ok' if ok else 'MISMATCH'}")

    phi, xi = np.pi / 8, np.pi / 8
    report = analyze_gate_teleport(t_gate(phi, xi), m2_basis())
    symbolic = table2_factors(phi, xi)
    print()
    print("correction factors of t:pi/8,pi/8 under m2 (phase aligns numeric to symbolic)")
    print(" j k  first       second       phase")
    ok2 = True
    rows = zip(PAIR_ORDER, report.separable, report.corrections, symbolic, TABLE2_LABELS)
    for (j, k), separable, corr, sym, labels in rows:
        if not separable:
            ok2 = False
            print(f" {j + 1} {k + 1}  NOT SEPARABLE")
            continue
        c, residual = phase_residual(tensor(*corr), tensor(*sym))
        match = residual <= FACTOR_MATCH_TOL
        ok2 = ok2 and match
        print(
            f" {j + 1} {k + 1}  {labels[0]:<11} {labels[1]:<12} {_num(np.angle(c), '+.6f')}"
            + ("" if match else "  MISMATCH")
        )
    print(f"table-2 self-check: {'ok' if ok2 else 'MISMATCH'}")
    bad = 0
    if args.verify:
        bad = _table1_oracle_disagreements(cells, args.verify, args.seed)
        print()
        print(f"statevector oracle: {args.verify} inputs per table-1 cell, seed {args.seed}")
        print(f"oracle self-check: {'ok' if bad == 0 else f'MISMATCH ({bad} outcome checks disagree)'}")
    if not (ok and ok2):
        raise SelfCheckError("table reproduction mismatch")
    if bad:
        raise SelfCheckError(f"{bad} oracle fidelities disagree with the table-1 verdicts")


def cmd_scan(args) -> None:
    g = resolve_gate(args.gate, args.tol)
    ts = 2 * np.pi * np.arange(args.grid) / args.grid
    if args.family == "beta_ab":
        print("t,a,b,success")
        points = np.stack([ts, np.cos(ts) / np.sqrt(2), np.sin(ts) / np.sqrt(2)], axis=-1)
        bases_ = beta_ab_bases(points[:, 1], points[:, 2])
    else:
        print("theta1,theta2,success")
        points = np.stack(np.meshgrid(ts - np.pi, ts - np.pi, indexing="ij"), axis=-1).reshape(-1, 2)
        bases_ = beta_nl_bases(np.pad(points, ((0, 0), (0, 1))))  # t3 = 0
    for point, basis in zip(points.tolist(), bases_):
        p = analyze_gate_teleport(g, basis).success_probability
        print(",".join(_num(x, ".9f") for x in point) + "," + _num(p, ".4f"))


def cmd_state_teleport(args) -> None:
    basis = resolve_basis(args.basis, args.tol)
    if args.front is not None:
        # A front gate U before measuring in {b_j} is the measurement in {U^dag b_j}.
        basis = MeasurementBasis(basis.vectors @ resolve_gate(args.front, args.tol).conj(), basis.name)
    report = analyze_state_teleport(bell_resource(), basis)
    if args.format == "json":
        corrections = [c if ok else None for c, ok in zip(_complex_pairs(report.corrections), report.teleportable)]
        return _emit_json({"basis": args.basis, "front": args.front, **_fields(report), "corrections": corrections})
    print(f"basis: {args.basis}   front gate: {args.front or 'none'}")
    print(f"resource entanglement |det psi|: {_num(report.entanglement, '.6f')}")
    for j in range(4):
        print(f" outcome {j + 1}: p = {_num(report.probabilities[j], '.6f')}  teleportable = {report.teleportable[j]}")
        if report.teleportable[j]:
            print(_fmt_mat(report.corrections[j]))
    print(f"deterministic: {report.deterministic}")


def cmd_simulate(args) -> None:
    g = resolve_gate(args.gate, args.tol)
    basis = resolve_basis(args.basis, args.tol)
    report = analyze_gate_teleport(g, basis)
    result = run_gate_teleport(random_state(4, args.seed), g, basis, report.correction_inverses())
    probs, fidelities = result.probabilities, result.fidelities
    outcomes = np.random.default_rng(args.seed).choice(16, size=args.trials, p=probs / probs.sum())
    hits = np.bincount(outcomes, minlength=16).tolist()
    print(f"gate: {args.gate}   basis: {args.basis}   trials: {args.trials}   seed: {args.seed}")
    # One input serves every trial, so each outcome's trials share one fidelity.
    print(" j k  hits  min_fidelity  mean_fidelity")
    for (j, k), n, f in zip(PAIR_ORDER, hits, fidelities):
        if not n:
            print(f" {j + 1} {k + 1}  {0:>4}  -             -")
            continue
        print(f" {j + 1} {k + 1}  {n:>4}  {_num(f, '.6f')}      {_num(f, '.6f')}")
    print(f"overall min fidelity: {_num(min(f for n, f in zip(hits, fidelities) if n), '.6f')}")


def cmd_fourway(args) -> None:
    g = resolve_gate(args.gate, args.tol)
    basis = resolve_basis(args.basis, args.tol)
    psi = random_state(4, args.seed)
    report = analyze_fourway(g, basis, psi)
    if args.format == "json":
        skip = ("branch_xx_pauli", "branch_zz_pauli", "output_states")
        return _emit_json({"gate": args.gate, "basis": args.basis, **_fields(report, skip),
                           "max_corrected_fidelity": report.max_corrected_fidelity})
    print(f"gate: {args.gate}   basis: {args.basis}   seed: {args.seed}")
    print(f"clifford case: {report.clifford_case}")
    print(" j k  p        xx_sep  zz_sep  fidelity  corrected")
    for idx, (j, k) in enumerate(PAIR_ORDER):
        print(
            f" {j + 1} {k + 1}  {_num(report.probabilities[idx], '.4f')}  "
            f"{str(report.branch_xx_separable[idx]):<6}  {str(report.branch_zz_separable[idx]):<6}  "
            f"{_num(report.fidelities_raw[idx], '.6f')}  {_num(report.fidelities_corrected[idx], '.6f')}"
        )
    print(f"max corrected fidelity: {_num(report.max_corrected_fidelity, '.6f')}")


def cmd_validate_basis(args) -> None:
    basis = resolve_basis(args.basis, args.tol)
    report = validate_basis(basis)
    capability_zero = not report.all_beta_unitary
    if args.format == "json":
        return _emit_json({"basis": args.basis, **_fields(report), "capability_zero": capability_zero})
    print(f"basis: {args.basis}")
    print(f"orthonormal: {report.orthonormal}")
    print(f"all beta unitary: {report.all_beta_unitary}")
    for j, e in enumerate(report.per_vector_entanglement):
        print(f" vector {j + 1} entanglement |det|: {_num(e, '.6f')}")
    if capability_zero:
        print("teleportation capability: zero")


# --- driver -----------------------------------------------------------------

def _silence_stdout() -> None:
    """Point a closed stdout at devnull, so the flush at interpreter exit
    raises no second BrokenPipeError (the Python docs' SIGPIPE recipe).
    A stream without a file descriptor, such as StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # StringIO raises io.UnsupportedOperation, an OSError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_TOL_FROM_ENV = "$GATEPORT_TOL"


def _tol(text: str) -> float:
    """--tol's type; each parse passes the default through it, reading GATEPORT_TOL then."""
    source, name = "float", "tolerance"
    if text == _TOL_FROM_ENV:
        source = name = "GATEPORT_TOL"
        text = os.environ.get("GATEPORT_TOL") or repr(DEFAULT_UNITARY_TOL)
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {source} value: {text!r}") from None
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"{name} must be a positive finite number, got {text!r}")
    return tol


def _count(text: str, low: int = 1) -> int:
    """Type of the count options (--inputs, --trials, tables --verify);
    with low=0, of --seed (numpy's generators take no negative seed); with
    low=2, of --grid."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


_GATE = ("--gate", {"required": True})
_BASIS = ("--basis", {"required": True})
_SEED = ("--seed", {"type": functools.partial(_count, low=0), "default": 0})
_TOL = ("--tol", {"type": _tol, "default": _TOL_FROM_ENV})
_FORMAT = ("--format", {"choices": ("human", "json"), "default": "human"})

# Subcommand: (handler, help line, options in --help order).
_COMMANDS = {
    "kak": (cmd_kak, "canonical decomposition of a gate", (_GATE, _TOL, _FORMAT)),
    "analyze": (cmd_analyze, "per-outcome teleportability of a gate", (
        _GATE, _BASIS,
        ("--verify", {"action": "store_true", "help": "run the statevector oracle"}),
        ("--inputs", {"type": _count, "default": 5, "help": "oracle inputs per outcome"}),
        _SEED, _TOL, _FORMAT)),
    "tables": (cmd_tables, "reproduce the reference tables (self-checking)", (
        ("--verify", {"type": _count, "metavar": "N", "help": "check table 1 with N oracle inputs per cell"}),
        _SEED)),
    "scan": (cmd_scan, "success probability over a basis family", (
        _GATE,
        ("--family", {"choices": ("beta_ab", "beta_nl"), "required": True}),
        ("--grid", {"type": functools.partial(_count, low=2), "default": 16}),
        _TOL)),
    "state-teleport": (cmd_state_teleport, "single-qubit teleportation report", (
        _BASIS, ("--front", {"help": "optional front gate spec"}), _TOL, _FORMAT)),
    "simulate": (cmd_simulate, "Monte Carlo gate teleportation", (
        _GATE, _BASIS, ("--trials", {"type": _count, "default": 100}), _SEED, _TOL)),
    "fourway": (cmd_fourway, "four-way-entangled-resource analysis", (
        _GATE, ("--basis", {"default": "bell"}), _SEED, _TOL, _FORMAT)),
    "validate-basis": (cmd_validate_basis, "orthonormality / capability report", (_BASIS, _TOL, _FORMAT)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call (not at import) and reused."""
    p = _Parser(prog="gateport", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return 0
    except BrokenPipeError:
        _silence_stdout()
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SelfCheckError as e:
        print(f"self-check failed: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # Spec checks and the library's own (unitarity, orthonormality,
        # normalization) raise ValueError.
        print(f"validation error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
