"""Seeded operations for the three workloads.

Every operation is one `gateport` command line (one `cli.main(argv)`
call).  The gate and basis specs come from a fixed catalogue, so that
each output can be checked against `reference.json`.  The benchmark seed
picks the specs of interactive commands, `beta_ab` parameters, output
formats, CLI `--seed` values and the order.  The mix of command kinds in
each pool is fixed, so that a workload costs about the same under every
seed.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

WORKLOADS = ("sweep", "verify", "interactive")

SWEEP_FAMILIES = (("beta_ab", 48), ("beta_nl", 8))
VERIFY_INPUTS = 8
SIMULATE_TRIALS = 100

INTERACTIVE_BLOCKS = 15
# Kinds of one interactive block of 20 commands.  Four slow commands
# (fourway, tables) in twenty put the 90th percentile inside the fourway
# cluster; one malformed command in twenty is the 5 % malformed share.
INTERACTIVE_BLOCK = (
    ("malformed", 1),
    ("validate-basis", 2),
    ("state-teleport", 2),
    ("kak", 3),
    ("analyze", 6),
    ("simulate", 2),
    ("fourway", 3),
    ("tables", 1),
)

# Traced layers that every pass over a workload's pool calls, whatever the
# seed (in interactive, `tables` resolves Table 1's square-root gates).  A
# layer missing from a traced run means that a wrapper was bypassed.
_ANALYSIS = ("linalg.require_unitary", "linalg.principal_sqrt", "bases.beta_matrices",
             "bases.require_orthonormal", "separability.tensor_factorize", "cli.resolve_gate")
REACHED = {
    "sweep": _ANALYSIS,
    "verify": _ANALYSIS + ("kak.kak_decompose", "kak.euler_zyz", "teleport.theorem1_check",
                           "simulator.run_gate_teleport", "cli.resolve_basis"),
    "interactive": _ANALYSIS + ("kak.kak_decompose", "kak.is_clifford", "kak.euler_zyz", "teleport.theorem1_check",
                                "simulator.run_gate_teleport", "fourway.analyze_fourway", "cli.resolve_basis"),
}

# Malformed commands.  Whether one lets an exception escape `cli.main`
# (a known defect) is recorded in reference.json, not assumed here.  The
# timed pools leave the known defects out, so that no operation of a
# workload fails; `defect_probes` runs each of them once per run instead.
MALFORMED = (
    ("kak", "--gate", "kak:nan,0,0"),
    ("analyze", "--gate", "cnot", "--basis", "beta_ab:x"),
    ("validate-basis", "--basis", "beta_ab:x"),
    ("analyze", "--gate", "t:nan,0", "--basis", "bell"),
    ("kak", "--gate", "cnot_cube"),
    ("analyze", "--gate", "t:0.5", "--basis", "bell"),
    ("validate-basis", "--basis", "beta_ab:0.9"),
    ("validate-basis", "--basis", "beta_ab:0.1,0.2"),
    ("analyze", "--gate", "cnot", "--basis", "pauli_conj:1,0,0,0,0,0,2,0"),
    ("simulate", "--gate", "cnot", "--basis", "bell", "--trials", "many"),
    ("state-teleport", "--basis", "m3"),
    ("state-teleport", "--basis", "bell", "--front", "swap_cube"),
    ("fourway", "--gate", "kak:0.1,0.2"),
    ("fourway", "--gate", "cz", "--basis", "pauli_conj:q"),
    ("kak",),
    ("kak", "--gate", "cnot", "--tol", "abc"),
)


def catalogue() -> dict:
    """The fixed gate and basis specs (drawn once from seed 1307)."""
    rng = np.random.default_rng(1307)
    gates = {
        "named": ["cnot", "swap", "q", "r", "cz", "c_pi8", "cnot_sqrt", "swap_sqrt", "exp_yy"],
        "t": [f"t:{p:.4f},{x:.4f}" for p, x in rng.uniform(0, 2 * np.pi, (12, 2))],
        "kak": [f"kak:{a:.4f},{b:.4f},{c:.4f}" for a, b, c in rng.uniform(-np.pi / 2, np.pi / 2, (12, 3))],
    }
    bases = {
        "bell": ["bell"],
        "m1": ["m1"],
        "m2": ["m2"],
        "beta_ab": [f"beta_ab:{a:.4f}" for a in rng.uniform(-0.7, 0.7, 4)],
        "pauli_conj": ["pauli_conj:h"],
        "beta_nl": ["beta_nl:0.3,0.1,0"],  # not maximally entangled
    }
    extra_nl = [f"beta_nl:{a:.4f},{b:.4f},{c:.4f}" for a, b, c in rng.uniform(-np.pi, np.pi, (4, 3))]
    all_bases = [b for kind in bases.values() for b in kind]
    return {
        "gates": gates,
        "bases": bases,
        "all_gates": [g for kind in gates.values() for g in kind],
        "all_bases": all_bases,
        "validate_bases": all_bases + extra_nl + ["beta_nl:0.7854,0.7854,0"],
        "fourway_bases": ["bell", "m2", "pauli_conj:h"],
        "fronts": ["", "cnot", "swap_sqrt", gates["t"][0], gates["kak"][0]],
    }


# --- reference keys: one per fact the output must reproduce ----------------

def analysis_key(gate: str, basis: str) -> str:
    return f"analysis|{gate}|{basis}"


def scan_key(gate: str, family: str, grid: int) -> str:
    return f"scan|{gate}|{family}|{grid}"


def kak_key(gate: str) -> str:
    return f"kak|{gate}"


def fourway_key(gate: str, basis: str) -> str:
    return f"fourway|{gate}|{basis}"


def validate_key(basis: str) -> str:
    return f"validate|{basis}"


def state_key(basis: str, front: str) -> str:
    return f"state|{basis}|{front}"


TABLES_KEY = "tables"


def malformed_key(argv) -> str:
    return "malformed|" + " ".join(argv)


def defect_id(key: str, fmt: str) -> str:
    """Names a command whose exception escaping `cli.main` is a recorded defect."""
    return f"{key}|{fmt}"


def _op(cmd, argv, key, fmt="human", **extra) -> dict:
    return {"cmd": cmd, "argv": list(argv), "ref": key, "fmt": fmt, "malformed": False, **extra}


def _malformed_op(argv) -> dict:
    return {"cmd": argv[0], "argv": list(argv), "ref": malformed_key(argv), "fmt": "human", "malformed": True}


def _fmt_args(fmt: str) -> list[str]:
    return ["--format", "json"] if fmt == "json" else []


class _Picker:
    """Seeded choices.  Gate kinds, basis kinds and output formats rotate,
    so that every pool has the same share of each."""

    def __init__(self, cat: dict, seed: int):
        self.cat = cat
        self.rng = np.random.default_rng(seed)
        self.turns = Counter()
        self.malformed = []

    def choice(self, seq):
        return seq[int(self.rng.integers(len(seq)))]

    def rotate(self, what: str, seq):
        self.turns[what] += 1
        return seq[self.turns[what] % len(seq)]

    def gate(self) -> str:
        return self.choice(self.cat["gates"][self.rotate("gate", ("named", "t", "kak"))])

    def basis(self, kind: str | None = None) -> str:
        bases = self.cat["bases"]
        return self.choice(bases[kind or self.rotate("basis", list(bases))])

    def fmt(self, cmd: str) -> str:
        return self.rotate(cmd, ("human", "json"))

    def cli_seed(self) -> str:
        return str(int(self.rng.integers(2**31)))

    def next_malformed(self) -> tuple:
        if not self.malformed:
            self.malformed = [MALFORMED[i] for i in self.rng.permutation(len(MALFORMED))]
        return self.malformed.pop()


def _interactive_op(kind: str, p: _Picker) -> dict:
    if kind == "malformed":
        return _malformed_op(p.next_malformed())
    if kind == "tables":
        return _op("tables", ["tables"], TABLES_KEY)
    if kind == "simulate":
        g, b = p.gate(), p.basis()
        argv = ["simulate", "--gate", g, "--basis", b, "--trials", str(SIMULATE_TRIALS), "--seed", p.cli_seed()]
        return _op("simulate", argv, analysis_key(g, b), trials=SIMULATE_TRIALS)
    fmt = p.fmt(kind)
    if kind == "kak":
        g = p.gate()
        return _op("kak", ["kak", "--gate", g, *_fmt_args(fmt)], kak_key(g), fmt)
    if kind == "analyze":
        g, b = p.gate(), p.basis()
        return _op("analyze", ["analyze", "--gate", g, "--basis", b, *_fmt_args(fmt)], analysis_key(g, b), fmt)
    if kind == "fourway":
        g, b = p.gate(), p.choice(p.cat["fourway_bases"])
        argv = ["fourway", "--gate", g, "--basis", b, "--seed", p.cli_seed(), *_fmt_args(fmt)]
        return _op("fourway", argv, fourway_key(g, b), fmt)
    if kind == "validate-basis":
        b = p.choice(p.cat["validate_bases"])
        return _op("validate-basis", ["validate-basis", "--basis", b, *_fmt_args(fmt)], validate_key(b), fmt)
    if kind == "state-teleport":
        b, front = p.basis(), p.choice(p.cat["fronts"])
        argv = ["state-teleport", "--basis", b, *(["--front", front] if front else []), *_fmt_args(fmt)]
        return _op("state-teleport", argv, state_key(b, front), fmt)
    raise ValueError(f"unknown command kind {kind!r}")


def _without_defects(kind: str, p: _Picker, known_defects) -> dict:
    """The next interactive command of `kind` that is not a recorded defect."""
    for _ in range(4 * len(MALFORMED)):
        op = _interactive_op(kind, p)
        if defect_id(op["ref"], op["fmt"]) not in known_defects:
            return op
    raise ValueError(f"every {kind} command is a recorded defect")


def defect_probes(known_defects) -> list[dict]:
    """One command for each recorded defect: the malformed commands and the
    `validate-basis --format json` commands that let an exception escape."""
    cat = catalogue()
    candidates = [_malformed_op(argv) for argv in MALFORMED]
    candidates += [_op("validate-basis", ["validate-basis", "--basis", b, "--format", "json"], validate_key(b), "json")
                   for b in cat["validate_bases"]]
    return [op for op in candidates if defect_id(op["ref"], op["fmt"]) in known_defects]


def generate(workload: str, seed: int, known_defects=frozenset()) -> list[dict]:
    """The workload's pool of operations; the timed loop cycles through it.

    Interactive commands that are recorded defects (`known_defects` holds
    their `defect_id`s) are drawn again, so the pool has none of them.
    """
    cat = catalogue()
    p = _Picker(cat, seed)
    ops = []
    # Command costs differ by gate up to 2.5x, so sweep and verify run
    # every catalogue gate and the seed sets the rest: basis parameters,
    # CLI seeds and the order.
    if workload == "sweep":
        for g in cat["all_gates"]:
            for family, grid in SWEEP_FAMILIES:
                argv = ["scan", "--gate", g, "--family", family, "--grid", str(grid)]
                ops.append(_op("scan", argv, scan_key(g, family, grid)))
    elif workload == "verify":
        for g in cat["all_gates"]:
            for kind in cat["bases"]:
                b = p.basis(kind)
                argv = ["analyze", "--gate", g, "--basis", b, "--verify", "--inputs", str(VERIFY_INPUTS),
                        "--format", "json", "--seed", p.cli_seed()]
                ops.append(_op("analyze", argv, analysis_key(g, b), "json", verify=True))
    elif workload == "interactive":
        kinds = [k for k, n in INTERACTIVE_BLOCK for _ in range(n)] * INTERACTIVE_BLOCKS
        ops = [_without_defects(kinds[i], p, known_defects) for i in p.rng.permutation(len(kinds))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in p.rng.permutation(len(ops))]


def gate_spec(op: dict) -> str | None:
    argv = op["argv"]
    return argv[argv.index("--gate") + 1] if "--gate" in argv[:-1] else None


def property_shares(ops: list[dict], work: dict) -> dict:
    """Input properties a later optimisation may depend on, with their bases.

    `work` maps a reference key to (analyses, early exits): how many
    `analyze_gate_teleport` calls the command makes and how many of them
    meet non-unitary gate-form betas.
    """
    analyses = early = 0
    for op in ops:
        a, e = work.get(op["ref"], (0, 0))
        analyses += a
        early += e
    n = len(ops)
    return {
        "early_exit_share": early / analyses if analyses else 0.0,
        "analyses": analyses,
        "sqrt_spec_share": sum(str(gate_spec(op)).endswith("_sqrt") for op in ops) / n,
        "malformed_share": sum(op["malformed"] for op in ops) / n,
        "ops": n,
    }
