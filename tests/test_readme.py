"""README's library tour, run as written, states true values."""
import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_tour():
    """Run the tour's code block statement by statement; return its namespace
    and the value of each bare expression, keyed by its source text."""
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(block, node)] = eval(compile(ast.Expression(node.value), "tour", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "tour", "exec"), namespace)
    return namespace, values


def test_the_readme_library_tour_states_true_values():
    namespace, values = _run_tour()
    assert np.allclose(namespace["d"].theta, (np.pi / 4, 0, 0), rtol=0, atol=1e-9)
    assert values["rep.success_probability"] == 0.5
    assert values["rep.separable[:2]"].tolist() == [False, True]
    pair = values["rep.corrections[1]"]
    assert np.shape(pair) == (2, 2, 2) and not np.array_equal(pair, [np.eye(2)] * 2)
    assert np.array_equal(namespace["rep"].corrections[0], [np.eye(2)] * 2)
    assert values["analyze_gate_teleport(t, bell_basis()).deterministic"] is True
    assert abs(values["min(r.fidelities)"] - 1) <= 1e-9
    ones = values["run_gate_teleport(psis, t, bell_basis(), inv).fidelities.min(axis=0)"]
    assert ones.shape == (16,) and np.all(np.abs(ones - 1) <= 1e-9)
