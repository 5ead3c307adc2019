"""The tolerance ledger: every numeric threshold of src/ is named once, in
linalg's first block, and every bound the --help text or README.md states
is the ledger's value."""
import ast
import pathlib
import re

import numpy as np
import pytest

from gateport import cli
from gateport import linalg as la

SRC = pathlib.Path(la.__file__).parent
README = SRC.parents[1] / "README.md"


def _ledger_lines():
    """Line numbers (1-based) of linalg's ledger block: from its heading
    comment to the first blank line."""
    lines = (SRC / "linalg.py").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# Tolerance ledger"))
    end = lines.index("", start)
    return range(start + 1, end + 1)


def _ledger_names():
    tree = ast.parse((SRC / "linalg.py").read_text())
    block = _ledger_lines()
    return [t.id for node in tree.body if isinstance(node, ast.Assign) and node.lineno in block for t in node.targets]


def test_no_small_float_literal_outside_the_ledger():
    block = _ledger_lines()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
                if not (path.name == "linalg.py" and node.lineno in block):
                    stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not stray, stray


def test_each_ledger_name_is_assigned_once_and_reexported_unchanged():
    names = _ledger_names()
    assert len(names) == len(set(names)) == 18
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else []
            for t in targets:
                if isinstance(t, ast.Name) and t.id in names:
                    assert path.name == "linalg.py" and node.lineno in _ledger_lines(), (path.name, t.id)
    from gateport import kak, separability, teleport

    assert separability.SEPARABLE_TOL is la.SEPARABLE_TOL
    assert kak.LATTICE_TOL is la.LATTICE_TOL and kak.CLIFFORD_TOL is la.CLIFFORD_TOL
    assert teleport.CORRECTABLE_TOL is la.CORRECTABLE_TOL
    assert cli._FIDELITY_ONE == 1 - la.FIDELITY_TOL


def test_tol_default_and_require_normalized_read_the_ledger(monkeypatch):
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    assert cli._tol(cli._TOL_FROM_ENV) == la.DEFAULT_UNITARY_TOL
    monkeypatch.setattr(cli, "DEFAULT_UNITARY_TOL", 2.5e-6)
    assert cli._tol(cli._TOL_FROM_ENV) == 2.5e-6
    state = np.array([1 + 1e-6, 0])
    with pytest.raises(ValueError, match="off"):
        la.require_normalized(state, "off")
    monkeypatch.setattr(la, "NORM_TOL", 1e-5)
    la.require_normalized(state, "off")


def test_table1_self_check_reads_only_table1_tol(monkeypatch, capsys):
    # 1e-6 off every nonzero cell: far past TABLE1_TOL, inside numpy's default rtol.
    nudged = cli.TABLE1_EXPECTED + 1e-6 * (cli.TABLE1_EXPECTED != 0)
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", nudged)
    assert cli.main(["tables"]) == 3
    assert "table-1 self-check: MISMATCH" in capsys.readouterr().out


_NUMBER = re.compile(r"\d+(?:\.\d+)?e-\d+")
# (pattern, ledger names): each pattern's group is a bound the text states.
_CLI_DOC_BOUNDS = (
    (r"--tol \(default (\S+)\)", ("DEFAULT_UNITARY_TOL",)),
    (r"unitarity\s+(\S+),", ("DEFAULT_UNITARY_TOL",)),
    (r"separability\s+(\S+),", ("SEPARABLE_TOL",)),
    (r"lattice and Clifford\s+(\S+),", ("LATTICE_TOL", "CLIFFORD_TOL")),
    (r"probability floor\s+(\S+)\.", ("PROBABILITY_FLOOR",)),
)
_README_BOUNDS = (
    (r"1\.0 within (\S+)\n", ("FIDELITY_TOL",)),
    (r"`--tol` \(default (\S+)\)", ("DEFAULT_UNITARY_TOL",)),
    (r"gate-form betas is not unitary within (\S+),", ("DEFAULT_UNITARY_TOL",)),
    (r"reaches fidelity one \(within (\S+)\)", ("FIDELITY_TOL",)),
    (r"within (\S+) of its largest magnitude", ("GAUGE_TIE_TOL",)),
    (r"`SEPARABLE_TOL` \((\S+)\)", ("SEPARABLE_TOL",)),
)
# Numbers that are examples, not bounds.
_README_EXAMPLES = (r"off by (5e-8)", r"`--tol (1e-6)`")


def _check_bounds(text, bounds, examples=()):
    covered = []
    for pattern, names in bounds:
        matches = list(re.finditer(pattern, text))
        assert len(matches) == 1, pattern
        value = float(matches[0].group(1))
        assert all(value == getattr(la, name) for name in names), (pattern, value)
        covered.append(matches[0].span(1))
    for pattern in examples:
        covered += [m.span(1) for m in re.finditer(pattern, text)]
    # A number no pattern covers is a bound stated nowhere in this test.
    stray = [m.group() for m in _NUMBER.finditer(text) if m.span() not in covered]
    assert not stray, stray


def test_help_text_states_the_ledger_values():
    _check_bounds(cli.__doc__, _CLI_DOC_BOUNDS)


def test_readme_lists_every_ledger_constant_with_its_value():
    text = README.read_text()
    rows = re.findall(r"^\| `([A-Z_0-9]+)` \| ([^|]+?) \|", text, re.M)
    assert [name for name, _ in rows] == _ledger_names()
    for name, value in rows:
        assert ast.literal_eval(value) == getattr(la, name), name
    table = re.search(r"^\| constant \|.*?\n\n", text, re.M | re.S)
    _check_bounds(text[: table.start()] + text[table.end():], _README_BOUNDS, _README_EXAMPLES)
