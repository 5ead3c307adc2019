"""Compare the CLI output of this checkout with that of another revision, byte for byte.

    python benchmarks/same_bytes.py --rev <revision> [--expect <file>]

The revision is checked out into a temporary `git worktree`.  Each tree runs
the same commands through `gateport.cli.main`, in process, in a child of its
own (two packages named `gateport` cannot share one process), with one BLAS
thread and `GATEPORT_TOL` unset.  The commands are the benchmark catalogue's
`kak` and `analyze` in both formats, its `fourway --format json` under the
four-way bases, `tables`, `tables --verify 3`, and the sweep, verify and
interactive pools of `perfbench.workloads` at seeds 1-3, each once.  Their
exit code, standard output and standard error are compared.

The script prints the count and each differing command with a short diff.  It
exits 1 unless every difference is a command listed in the `--expect` file
(one command per line, as printed; `#` starts a comment), and also when a
listed command does not differ.  Against `--rev HEAD` it shows that every
command's output is the same in two processes.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SEEDS = (1, 2, 3)
DIFF_LINES = 12

# Runs every command of a JSON list (stdin) through the cli of the tree argv[1]
# and writes {command: [exit code, stdout, stderr]} to the file argv[2].
_CHILD = """
import contextlib, io, json, pathlib, shlex, sys
src = pathlib.Path(sys.argv[1], "src").resolve()
sys.path.insert(0, str(src))
from gateport import cli
if pathlib.Path(cli.__file__).resolve().parents[1] != src:
    sys.exit(f"imported gateport from {cli.__file__}, not from {src}")
results = {}
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = f"{type(e).__name__} escaped cli.main"
    results[shlex.join(argv)] = [code, out.getvalue(), err.getvalue()]
pathlib.Path(sys.argv[2]).write_text(json.dumps(results))
"""


def commands() -> list[list[str]]:
    cat = workloads.catalogue()
    argvs = []
    for g in cat["all_gates"]:
        for fmt in ([], ["--format", "json"]):
            argvs.append(["kak", "--gate", g, *fmt])
            argvs += [["analyze", "--gate", g, "--basis", b, *fmt] for b in cat["all_bases"]]
        argvs += [["fourway", "--gate", g, "--basis", b, "--format", "json"] for b in cat["fourway_bases"]]
    argvs += [["tables"], ["tables", "--verify", "3"]]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            argvs += [op["argv"] for op in workloads.generate(workload, seed)]
    unique = {shlex.join(argv): argv for argv in argvs}
    return list(unique.values())


def run_tree(tree: pathlib.Path, argvs, scratch: pathlib.Path, label: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("GATEPORT_TOL", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = scratch / f"{label}.json"
    # Both children run in one empty directory, so relative paths resolve alike.
    subprocess.run([sys.executable, "-c", _CHILD, str(tree), str(out)], input=json.dumps(argvs),
                   text=True, env=env, cwd=scratch / "cwd", check=True)
    return json.loads(out.read_text())


def short_diff(old, new) -> list[str]:
    lines = [] if old[0] == new[0] else [f"exit code {old[0]!r} -> {new[0]!r}"]
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        diff = difflib.unified_diff(a.splitlines(), b.splitlines(), f"{name} (rev)", f"{name} (here)", n=0, lineterm="")
        lines += list(diff)
    return lines[:DIFF_LINES] + (["..."] if len(lines) > DIFF_LINES else [])


def read_expect(path) -> set[str]:
    if path is None:
        return set()
    lines = (line.split("#", 1)[0].strip() for line in pathlib.Path(path).read_text().splitlines())
    return {line for line in lines if line}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare with")
    parser.add_argument("--expect", help="file of the commands expected to differ, one a line")
    args = parser.parse_args(argv)
    expected = read_expect(args.expect)
    argvs = commands()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        (scratch / "cwd").mkdir()
        rev_tree = scratch / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(rev_tree), args.rev],
                       check=True)
        try:
            old = run_tree(rev_tree, argvs, scratch, "rev")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(rev_tree)], check=True)
        new = run_tree(ROOT, argvs, scratch, "here")
    differ = [cmd for cmd in new if new[cmd] != old[cmd]]
    print(f"{len(differ)} of {len(new)} commands differ from {args.rev}")
    for cmd in differ:
        print(f"{'expected' if cmd in expected else 'UNEXPECTED'}: {cmd}")
        print("\n".join("    " + line for line in short_diff(old[cmd], new[cmd])))
    unmatched = sorted(expected - set(differ))
    for cmd in unmatched:
        print(f"EXPECTED BUT SAME: {cmd}")
    return int(bool(set(differ) - expected or unmatched))


if __name__ == "__main__":
    sys.exit(main())
