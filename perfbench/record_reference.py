"""Record reference.json: what each catalogue command prints today.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

For every reference key of workloads.py it runs the command once through
`cli.main` and stores the summary that checks.py extracts.  It also
stores, per key, how many analyses the command makes and how many take
the non-unitary-beta early exit, and which commands let an exception
escape, with the exception's type (known defects).  It refuses a catalogue entry whose separability
verdict sits near the threshold, where a harmless change in rounding
could flip it, and one where the statevector oracle disagrees with the
analysis.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gateport import cli  # noqa: E402
from gateport.bases import beta_matrices  # noqa: E402
from gateport.linalg import is_unitary  # noqa: E402
from gateport.separability import operator_schmidt  # noqa: E402
from gateport.teleport import analyze_gate_teleport  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import ANALYZE, Tracer  # noqa: E402

AMBIGUOUS = (1e-9, 1e-4)  # second Schmidt coefficients refused as too close to the threshold


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}: {err.getvalue()}")
    return out.getvalue()


def escapes(argv, tracer: Tracer | None = None) -> str | None:
    """The type of the exception that escapes `cli.main` (a defect to record), if any."""
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    except Exception as e:
        return type(e).__name__
    finally:
        if tracer is not None:
            tracer.uninstall()
    return None


def require_clear_verdicts(gate, basis, what: str) -> bool:
    """True when the basis takes the early exit; refuses near-threshold outcomes."""
    rep = analyze_gate_teleport(gate, basis)
    if not all(is_unitary(b, 1e-8) for b in beta_matrices(basis, None, "gate_form").mats):
        return True  # the test analyze_gate_teleport applies before its early exit
    for w in rep.w_matrices:
        if AMBIGUOUS[0] < operator_schmidt(w)[1] < AMBIGUOUS[1]:
            raise SystemExit(f"{what}: separability verdict too close to the threshold")
    return False


def main() -> int:
    cat = wl.catalogue()
    ref, work, known_defects = {}, {}, {}
    for g in cat["all_gates"]:
        u = cli.resolve_gate(g, 1e-9)
        ref[wl.kak_key(g)] = checks.summarize("kak", "json", run(["kak", "--gate", g, "--format", "json"]))
        for b in cat["all_bases"]:
            key = wl.analysis_key(g, b)
            early = require_clear_verdicts(u, cli.resolve_basis(b, 1e-9), key)
            argv = ["analyze", "--gate", g, "--basis", b, "--format", "json"]
            ref[key] = checks.summarize("analyze", "json", run(argv))
            work[key] = (1, int(early))
            for seed in range(3):
                verify = argv + ["--verify", "--inputs", str(wl.VERIFY_INPUTS), "--seed", str(seed)]
                if not checks.verify_oracle_agrees(run(verify)):
                    raise SystemExit(f"{key}: oracle disagrees with the analysis")
        for family, grid in wl.SWEEP_FAMILIES:
            key = wl.scan_key(g, family, grid)
            early = [require_clear_verdicts(u, b, key) for b in checks.scan_bases(family, grid)]
            out = run(["scan", "--gate", g, "--family", family, "--grid", str(grid)])
            ref[key] = checks.summarize("scan", "human", out)
            work[key] = (len(early), sum(early))
        for b in cat["fourway_bases"]:
            out = run(["fourway", "--gate", g, "--basis", b, "--format", "json"])
            ref[wl.fourway_key(g, b)] = checks.summarize("fourway", "json", out)
    for b in cat["validate_bases"]:
        key = wl.validate_key(b)
        ref[key] = checks.summarize("validate-basis", "human", run(["validate-basis", "--basis", b]))
        escaped = escapes(["validate-basis", "--basis", b, "--format", "json"])
        if escaped:
            known_defects[wl.defect_id(key, "json")] = escaped
    for b in cat["all_bases"]:
        for front in cat["fronts"]:
            argv = ["state-teleport", "--basis", b, *(["--front", front] if front else []), "--format", "json"]
            ref[wl.state_key(b, front)] = checks.summarize("state-teleport", "json", run(argv))
    ref[wl.TABLES_KEY] = checks.summarize("tables", "human", run(["tables"]))
    work[wl.TABLES_KEY] = (16, 0)  # reproduce_table1 (5 gates x 3 bases) and the Table-2 analysis
    tracer = Tracer()
    for argv in wl.MALFORMED:
        tracer.reset()
        key = wl.malformed_key(argv)
        escaped = escapes(argv, tracer)
        if escaped:
            known_defects[wl.defect_id(key, "human")] = escaped
        if tracer.calls[ANALYZE]:  # an analysis that fails on its input
            work[key] = (tracer.calls[ANALYZE], 0)
    doc = {"summaries": ref, "work": work, "known_defects": known_defects}
    (HERE / "reference.json").write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {len(ref)} summaries, {len(known_defects)} known defects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
