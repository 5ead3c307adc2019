"""Output checks for every benchmarked `gateport` command.

Each command's output (JSON or human format) is reduced to a summary of
the facts that must not change between commits: verdicts, exit codes,
Clifford flags and angles.  Correction matrices are left out on purpose,
because they are defined only up to a global phase.  The summaries of
the program at the commit that recorded `reference.json` are the
reference; `matches` compares a new summary to it.
"""
from __future__ import annotations

import json
import re

import numpy as np

FLOAT_TOL = 1e-6  # human formats print six decimals
FIDELITY_ONE = 1.0 - 1e-9  # oracle fidelity of a correctable outcome
SIM_FIDELITY_ONE = 1.0 - 1e-6  # simulate prints six decimals


def _mask(flags) -> str:
    return "".join("1" if f else "0" for f in flags)


def _bools(text: str) -> list[bool]:
    return [w == "True" for w in re.findall(r"True|False", text)]


def _line(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no line starting with {prefix!r}")


def _rows(out: str, width: int) -> list[list[str]]:
    """Rows of the per-outcome tables: ' j k ...' with width fields."""
    rows = [line.split() for line in out.splitlines()]
    return [r for r in rows if len(r) == width and r[0].isdigit() and r[1].isdigit()]


def _kak(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "theta": d["theta"],
            "is_clifford": d["is_clifford"],
            "delta": _mask(d["delta"]),
            "odd_quarter_pi": _mask(d["odd_quarter_pi"]),
            "is_swap_point": d["is_swap_point"],
        }
    theta = [float(x) for x in _line(out, "theta: (").rstrip(")").split(",")]
    cls = _line(out, "delta: ")
    flags = _bools(cls)
    return {
        "theta": theta,
        "is_clifford": _bools(_line(out, "clifford: "))[0],
        "delta": _mask(flags[0:3]),
        "odd_quarter_pi": _mask(flags[3:6]),
        "is_swap_point": flags[6],
    }


def _analyze(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "separable": _mask(o["separable"] for o in d["outcomes"]),
            "theorem1": d["theorem1"]["conclusion"],
        }
    return {
        "separable": _mask(r[2] == "True" for r in _rows(out, 3)),
        "theorem1": _line(out, "theorem1: ").split()[0],
    }


def _fourway(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "clifford_case": d["clifford_case"],
            "xx": _mask(d["branch_xx_separable"]),
            "zz": _mask(d["branch_zz_separable"]),
        }
    rows = _rows(out, 7)
    return {
        "clifford_case": _bools(_line(out, "clifford case: "))[0],
        "xx": _mask(r[3] == "True" for r in rows),
        "zz": _mask(r[4] == "True" for r in rows),
    }


def _validate(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "orthonormal": d["orthonormal"],
            "all_beta_unitary": d["all_beta_unitary"],
            "entanglement": d["per_vector_entanglement"],
        }
    ent = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines() if "entanglement |det|" in line]
    return {
        "orthonormal": _bools(_line(out, "orthonormal: "))[0],
        "all_beta_unitary": _bools(_line(out, "all beta unitary: "))[0],
        "entanglement": ent,
    }


def _state(out: str, fmt: str) -> dict:
    if fmt == "json":
        d = json.loads(out)
        return {
            "teleportable": _mask(d["teleportable"]),
            "deterministic": d["deterministic"],
            "probabilities": d["probabilities"],
        }
    lines = [line for line in out.splitlines() if line.startswith(" outcome ")]
    return {
        "teleportable": _mask(line.endswith("True") for line in lines),
        "deterministic": _bools(_line(out, "deterministic: "))[0],
        "probabilities": [float(line.split("p = ")[1].split()[0]) for line in lines],
    }


def _tables(out: str, fmt: str) -> dict:
    return {"self_checks": [line.split(": ")[1] for line in out.splitlines() if "self-check:" in line]}


SEPARABLE_DIGITS = "0123456789abcdefg"  # one digit per count of separable outcomes, 0..16


def _scan(out: str, fmt: str) -> dict:
    """Success column as one digit (16 * probability) per grid point."""
    lines = out.splitlines()[1:]
    return {"success": "".join(SEPARABLE_DIGITS[round(16 * float(line.rsplit(",", 1)[1]))] for line in lines)}


def _simulate(out: str, fmt: str) -> dict:
    """Hit outcomes by flat index: (hits, min fidelity reads as one)."""
    hits = {}
    for r in _rows(out, 5):
        if r[3] != "-":
            hits[4 * (int(r[0]) - 1) + int(r[1]) - 1] = (int(r[2]), float(r[3]) >= SIM_FIDELITY_ONE)
    return {"hits": hits}


SUMMARIZERS = {
    "kak": _kak,
    "analyze": _analyze,
    "fourway": _fourway,
    "validate-basis": _validate,
    "state-teleport": _state,
    "tables": _tables,
    "scan": _scan,
    "simulate": _simulate,
}


def summarize(cmd: str, fmt: str, out: str) -> dict:
    return SUMMARIZERS[cmd](out, fmt)


def matches(got, ref) -> bool:
    """Equality, except that floats agree within FLOAT_TOL."""
    if isinstance(ref, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(ref, (int, float)) and abs(got - ref) <= FLOAT_TOL
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(matches(got[k], ref[k]) for k in ref)
    if isinstance(ref, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(ref) and all(map(matches, got, ref))
    return got == ref


def verify_oracle_agrees(out: str) -> bool:
    """`analyze --verify`: min fidelity reaches one exactly on separable outcomes."""
    return all((o["min_fidelity"] >= FIDELITY_ONE) == o["separable"] for o in json.loads(out)["outcomes"])


def simulate_agrees(summary: dict, mask: str, trials: int) -> bool:
    """Sampled outcomes read fidelity one exactly where the analysis is separable."""
    hits = summary["hits"]
    return sum(h for h, _ in hits.values()) == trials and all(
        one == (mask[idx] == "1") for idx, (_, one) in hits.items()
    )


def check(op: dict, ref: dict | None, rc, escaped: str | None, out: str, err: str) -> str | None:
    """None when the operation behaved as documented, else the reason.

    Malformed input must exit 1 or 2 with one line on stderr; anything
    else must exit 0 with output that matches the reference.  `escaped`
    names the type of an exception that escaped `cli.main`, if one did.
    """
    if escaped:
        return f"{escaped} escaped cli.main"
    if op["malformed"]:
        if rc not in (1, 2):
            return f"exit code {rc} on malformed input"
        if len(err.splitlines()) != 1:
            return f"{len(err.splitlines())} stderr lines on malformed input"
        return None
    if rc != 0:
        return f"exit code {rc}"
    try:
        got = summarize(op["cmd"], op["fmt"], out)
        if op["cmd"] == "simulate":
            ok = simulate_agrees(got, ref["separable"], op["trials"])
        else:
            ok = matches(got, ref)
            if ok and op.get("verify"):
                ok = verify_oracle_agrees(out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unparsable output: {e!r}"
    return None if ok else "output differs from reference"


def scan_bases(family: str, grid: int):
    """The bases `gateport scan` visits, in its row order."""
    from gateport.bases import beta_ab_basis, beta_nl_basis

    if family == "beta_ab":
        ts = 2 * np.pi * np.arange(grid) / grid
        return [beta_ab_basis(np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2)) for t in ts]
    ts = -np.pi + 2 * np.pi * np.arange(grid) / grid
    return [beta_nl_basis(t1, t2, 0.0) for t1 in ts for t2 in ts]


def oracle_spot_check(gate, basis, n_separable: int, rng) -> bool:
    """The statevector oracle, driven with the analysis' corrections on a
    random input, reaches fidelity one on exactly n_separable outcomes."""
    from gateport.linalg import random_state
    from gateport.simulator import run_gate_teleport
    from gateport.teleport import analyze_gate_teleport

    corrections = analyze_gate_teleport(gate, basis).correction_inverses()
    fids = run_gate_teleport(random_state(4, rng), gate, basis, corrections).fidelities
    return sum(f >= FIDELITY_ONE for f in fids) == n_separable
