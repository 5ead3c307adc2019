"""Per-layer spans recorded from outside the program.

Each traced function object is wrapped and the wrapper is bound, by
identity, wherever a `gateport` module namespace holds the original:
the defining module, every module that imported it by name (teleport
and fourway import `tensor_factorize` directly) and the package's
re-exports.  Nothing under `src/` changes; `uninstall` puts the
originals back.

A span's self time is its duration minus the durations of the traced
spans it contains, so the self times of all layers add up to the total
time of the outermost spans, which are the `cli.main` calls.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs whose calls are counted and timed.
TRACED = (
    ("linalg", "require_unitary"),
    ("linalg", "principal_sqrt"),
    ("kak", "kak_decompose"),
    ("kak", "is_clifford"),
    ("kak", "euler_zyz"),
    ("separability", "tensor_factorize"),
    ("bases", "beta_matrices"),
    ("bases", "require_orthonormal"),
    ("teleport", "analyze_gate_teleport"),
    ("teleport", "theorem1_check"),
    ("simulator", "run_gate_teleport"),
    ("fourway", "analyze_fourway"),
    ("cli", "resolve_gate"),
    ("cli", "resolve_basis"),
    ("cli", "main"),
)
LAYERS = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
ROOT = "cli.main"
FACTORIZE = "separability.tensor_factorize"
ANALYZE = "teleport.analyze_gate_teleport"


class Tracer:
    """Call counts, self times and root time of the traced functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.root_s = 0.0
        self.separable = 0
        self._child_s = []  # per open span: time spent in traced children
        self._bound = []  # (namespace, attribute, original)

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.root_s = 0.0
        self.separable = 0

    def _wrap(self, name: str, fn):
        child_s = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt
                else:
                    self.root_s += dt
            if name == FACTORIZE and result.separable:
                self.separable += 1
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "gateport" or n.startswith("gateport.")]
        wrappers = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"gateport.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()
