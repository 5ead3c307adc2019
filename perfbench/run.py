"""Benchmark of the `gateport` command line, driven in process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client, one process, one BLAS thread:
a closed loop calls `gateport.cli.main(argv)` with the next command of
the workload as soon as the previous one returns, and checks every
output.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones (see README.md).  The last line of standard output is
the result as one JSON object.
"""
from __future__ import annotations

import os

# Pinned before numpy loads; subprocesses inherit them.  GATEPORT_TOL
# would change the CLI's default tolerance and with it the verdicts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GATEPORT_TOL", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import ANALYZE, FACTORIZE, LAYERS, ROOT, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

SETUP_LAUNCHES = 7
MIN_SAMPLES = 100  # leaves at least ten samples above the 90th percentile
WARMUP_S = 1.0
SPOT_CHECKS = 8


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that run `import gateport.cli`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import gateport.cli"]
    subprocess.run(cmd, env=env, cwd=REPO, check=True)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=REPO, check=True)
        times.append(time.perf_counter() - t0)
    return times


def host_speed(iterations: int = 3000) -> float:
    """Diagnostic, not a gate: iterations per second of a fixed numpy 4x4 loop."""
    a = np.random.default_rng(0).standard_normal((4, 4)) * (1 + 1j)
    t0 = time.perf_counter()
    for _ in range(iterations):
        np.linalg.svd(a @ a.conj().T, compute_uv=False)
    return iterations / (time.perf_counter() - t0)


class Loop:
    """Closed loop over a pool of operations; checks every output.

    A failure is unexpected unless it is the escape of the exception type
    that `known_defects` records for the command.
    """

    def __init__(self, cli, ops: list[dict], known_defects: dict[str, str]):
        self.cli = cli
        self.ops = ops
        self.known_defects = known_defects
        self.latencies = []
        self.executed = []
        self.failed = 0
        self.unexpected = []

    def step(self, i: int, record: bool = True) -> float:
        """Runs operation i (modulo the pool) and returns its latency."""
        op = self.ops[i % len(self.ops)]
        out, err = io.StringIO(), io.StringIO()
        rc, escaped = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op["argv"]))
        except Exception as e:  # an escaping exception is a failed operation, not a failed run
            escaped = type(e).__name__
        dt = time.perf_counter() - t0
        if record:
            reason = checks.check(op, op["summary"], rc, escaped, out.getvalue(), err.getvalue())
            self.latencies.append(dt)
            self.executed.append(op)
            if reason is not None:
                self.failed += 1
                known = self.known_defects.get(workloads.defect_id(op["ref"], op["fmt"]))
                if escaped is None or escaped != known:
                    self.unexpected.append(f"{' '.join(op['argv'])}: {reason}")
        return dt

    def run_for(self, seconds: float, min_ops: int = 0, record: bool = True) -> float:
        """Runs the pool in order, from its start, until the summed latency reaches `seconds`."""
        busy = 0.0
        n = 0
        while busy < seconds or n < min_ops:
            busy += self.step(n, record)
            n += 1
        return busy


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    loop.run_for(WARMUP_S, record=False)
    busy = loop.run_for(seconds, MIN_SAMPLES)
    lat_ms = [x * 1e3 for x in loop.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat_ms) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "samples": len(lat_ms),
        "samples_above_p90": sum(x > p90 for x in lat_ms),
        "setup_launches_s": [round(x, 4) for x in setup],
    }
    return metrics, info


def layer_problems(calls: dict, n_ops: int, analyses: int, reached) -> list[str]:
    """Checks that the wrappers saw the calls the pool is known to make.

    A call site that the rebinding missed runs untraced: its calls are
    not counted and its time folds into the caller's self time.
    """
    problems = []
    if calls.get(ROOT, 0) != n_ops:
        problems.append(f"{ROOT} traced {calls.get(ROOT, 0)} times for {n_ops} operations")
    if calls.get(ANALYZE, 0) != analyses:
        problems.append(f"{ANALYZE} traced {calls.get(ANALYZE, 0)} times, the commands make {analyses}")
    problems += [f"{layer} never traced" for layer in reached if not calls.get(layer)]
    return problems


def per_layer(loop: Loop, seconds: float, analyses: int, reached) -> tuple[dict, dict]:
    """Passes over the pool in which every operation runs untraced and traced.

    The two runs of an operation are back to back, in alternating order,
    so that drift in host speed cancels out of the tracing overhead.
    Counts are per pass (they repeat exactly for a seed); self times are
    the median over the passes.  `analyses` is the number of
    `analyze_gate_teleport` calls one pass makes and `reached` the layers
    it must call; each pass is checked against both.
    """
    tracer = Tracer()
    loop.run_for(WARMUP_S, record=False)
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.reset()
        plain.append(0.0)
        traced.append(0.0)
        for i in range(len(loop.ops)):
            for with_trace in (i % 2 == 1, i % 2 == 0):
                if not with_trace:
                    plain[-1] += loop.step(i)
                    continue
                tracer.install()
                try:
                    traced[-1] += loop.step(i)
                finally:
                    tracer.uninstall()
        passes.append((dict(tracer.calls), dict(tracer.self_s), tracer.root_s, tracer.separable))
        loop.unexpected += layer_problems(tracer.calls, len(loop.ops), analyses, reached)
    calls, _, _, separable = passes[-1]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_ms"] = (statistics.median(p[1].get(layer, 0.0) for p in passes) * 1e3, "ms")
    metrics["cli.main.total_ms"] = (statistics.median(p[2] for p in passes) * 1e3, "ms")
    factorize = calls.get(FACTORIZE, 0)
    metrics["separability.separable_share"] = (separable / factorize if factorize else 0.0, "ratio")
    metrics["trace_overhead_share"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    info = {"passes": len(passes), "untraced_s": sum(plain), "traced_s": sum(traced)}
    return metrics, info


def sweep_spot_checks(cli, ops: list[dict], summaries: dict, seed: int) -> list[str]:
    """Oracle check of a seeded sample of scan rows, outside the timed loop."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for i in rng.choice(len(ops), size=min(SPOT_CHECKS, len(ops)), replace=False):
        argv = ops[i]["argv"]
        gate, family, grid = argv[2], argv[4], int(argv[6])
        success = summaries[ops[i]["ref"]]["success"]
        row = int(rng.integers(len(success)))
        basis = checks.scan_bases(family, grid)[row]
        n_separable = checks.SEPARABLE_DIGITS.index(success[row])
        if not checks.oracle_spot_check(cli.resolve_gate(gate, 1e-9), basis, n_separable, rng):
            problems.append(f"oracle spot check failed: {' '.join(argv)} row {row}")
    return problems


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gateport" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'gateport'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gateport.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gateport":
        print(f"perfbench: imported {cli.__file__}, not the checkout's program", file=sys.stderr)
        return 2

    reference = json.loads((HERE / "reference.json").read_text())
    summaries = reference["summaries"]
    known_defects = reference["known_defects"]
    ops = workloads.generate(args.workload, args.seed, known_defects)
    probes = workloads.defect_probes(known_defects)
    if len(probes) != len(known_defects):
        print("perfbench: a recorded defect has no probe command", file=sys.stderr)
        return 2
    for op in ops + probes:
        op["summary"] = summaries.get(op["ref"])
        if op["summary"] is None and not op["malformed"]:
            print(f"perfbench: no reference for {op['ref']}", file=sys.stderr)
            return 2

    loop = Loop(cli, ops, {})  # the pool holds no known defect, so every failure is unexpected
    speed_before = host_speed()
    if args.trace:
        analyses = workloads.property_shares(ops, reference["work"])["analyses"]
        metrics, info = per_layer(loop, args.seconds, analyses, workloads.REACHED[args.workload])
    else:
        metrics, info = end_to_end(loop, args.seconds)
    speed_after = host_speed()
    if args.workload == "sweep":
        loop.unexpected += sweep_spot_checks(cli, ops, summaries, args.seed)
    # Each recorded defect runs once, outside the timed loop: still open if it
    # raises its recorded exception, fixed if it now behaves as documented.
    probe = Loop(cli, probes, known_defects)
    for i in range(len(probes)):
        probe.step(i)
    loop.unexpected += probe.unexpected

    shares = workloads.property_shares(loop.executed, reference["work"])
    attempted = len(loop.executed)
    failed_share = loop.failed / attempted
    if args.trace:
        metrics["teleport.early_exit_share"] = (shares["early_exit_share"], "ratio")
        metrics["sqrt_spec_share"] = (shares["sqrt_spec_share"], "ratio")
        metrics["malformed_share"] = (shares["malformed_share"], "ratio")
        metrics["failed_op_share"] = (failed_share, "ratio")
        metrics["known_defects_open"] = (probe.failed, "count")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment", json.dumps(environment(), sort_keys=True))
    print(f"host speed (numpy 4x4 loop, not a gate): {speed_before:.0f} /s before, {speed_after:.0f} /s after")
    print("inputs", json.dumps({**shares, "failed_op_share": failed_share, **info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"attempted {attempted}  failed {loop.failed}  unexpected failures {len(loop.unexpected)}")
    print(f"known defects still open: {probe.failed} of {len(probes)} (each run once, outside the loop)")
    for problem in loop.unexpected[:10]:
        print(f"  unexpected: {problem}", file=sys.stderr)
    result = {
        "correct": not loop.unexpected,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
