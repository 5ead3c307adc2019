import argparse
import functools
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gateport import linalg as la
from gateport import bases, cli
from gateport import separability as sep
from gateport import simulator as sim
from gateport import teleport as tp
from gateport.kak import nonlocal_gate
from perfbench.workloads import catalogue
import reference as ref
from strategies import CAPABLE_BASES, HAAR_GATES, SEEDS, beta_ab, haar_basis, haar_local


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resolve_named_gates():
    assert np.allclose(cli.resolve_gate("cnot", 1e-9), la.CNOT)
    assert np.allclose(cli.resolve_gate("swap", 1e-9), la.SWAP)
    sq = cli.resolve_gate("cnot_sqrt", 1e-9)
    assert np.linalg.norm(sq @ sq - la.CNOT) < 1e-10
    t = cli.resolve_gate("t:0.3,0.7", 1e-9)
    assert np.allclose(t, np.diag([1j, np.exp(0.3j), np.exp(0.7j), 1j * np.exp(1.0j)]))


def test_resolve_gate_from_file(tmp_path):
    path = tmp_path / "gate.json"
    cli.write_gate_file(str(path), la.CZ)
    assert np.allclose(cli.resolve_gate(f"@{path}", 1e-9), la.CZ)
    cli.write_gate_file(str(path), np.diag([1, 1, 1, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="not unitary"):
        cli.resolve_gate(f"@{path}", 1e-9)


def test_resolve_bases():
    assert cli.resolve_basis("bell", 1e-9).name == "bell"
    b = cli.resolve_basis("beta_ab:0.5", 1e-9)
    assert b.is_orthonormal(1e-10)
    b = cli.resolve_basis("pauli_conj:h", 1e-9)
    assert b.is_orthonormal(1e-10)
    with pytest.raises(cli.UsageError):
        cli.resolve_basis("nope", 1e-9)
    with pytest.raises(ValueError, match="at most 1/sqrt"):
        cli.resolve_basis("beta_ab:0.9", 1e-9)


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["analyze", "--gate", "{}", "--basis", "bell"], "t:0.1,0.2"),
        (["analyze", "--gate", "cnot", "--basis", "{}"], "beta_nl:0.1,0.2,0.3"),
        (["validate-basis", "--basis", "{}"], "pauli_conj:h"),
    ],
)
def test_padded_specs_read_their_parameters_like_unpadded_ones(capsys, argv, spec):
    padded = f" {spec} "
    code, plain_out, plain_err = run(capsys, *(a.format(spec) for a in argv))
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, *(a.format(padded) for a in argv))
    assert code == 0 and err == ""
    # Only the echoed spec keeps its padding.
    assert out.replace(padded, spec) == plain_out


def test_pauli_conj_file_after_a_space_is_read_as_a_file(capsys, tmp_path):
    path = tmp_path / "h.json"
    cli.write_gate_file(str(path), la.H)
    code, plain, _ = run(capsys, "validate-basis", "--basis", f"pauli_conj:@{path}")
    assert code == 0
    code, out, err = run(capsys, "validate-basis", "--basis", f"pauli_conj: @{path}")
    assert code == 0 and err == ""
    assert out.replace(f"pauli_conj: @{path}", f"pauli_conj:@{path}") == plain


# Per command, lines its stdout holds in full; a JSON report (one line) gives top-level values
# instead, a list by its length.
_OUTPUTS = [
    ("kak --gate cnot", ["theta: (0.785398, 0.000000, 0.000000)"]),
    ("kak --gate swap", ["theta: (0.785398, 0.785398, 0.785398)"]),
    ("kak --gate t:0.3927,0.3927", ["clifford: False"]),
    ("analyze --gate cnot --basis bell", ["success probability: 1.000"]),
    ("analyze --gate cnot --basis m1", ["success probability: 0.000"]),
    ("analyze --gate swap_sqrt --basis m2 --verify", ["success probability: 0.250"]),
    ("analyze --gate cnot --basis m2 --verify --seed 3", [" 1 2 True       1.000000000", "separable outcomes: 8/16"]),
    ("analyze --gate cnot --basis m2 --format json", {"n_separable": 8, "success_probability": 0.5, "outcomes": 16}),
    ("tables", ["cnot        1.000  0.000  0.500", "table-1 self-check: ok",
                " 1 1  P           -P           +0.000000", "table-2 self-check: ok"]),
    ("scan --gate swap --family beta_ab --grid 6", ["t,a,b,success", "3.141592654,-0.707106781,0.000000000,1.0000"]),
    ("simulate --gate t:0.449,0.242 --basis m2 --trials 100 --seed 7", ["overall min fidelity: 1.000000"]),
    ("validate-basis --basis beta_nl:0.3,0.1,0", ["teleportation capability: zero"]),
    ("validate-basis --basis bell", ["all beta unitary: True"]),
    ("fourway --gate c_pi8", ["clifford case: False", "max corrected fidelity: 0.507165"]),
    ("state-teleport --basis bell", ["deterministic: True"]),
]


@pytest.mark.parametrize("argv, want", _OUTPUTS, ids=["_".join(argv.replace("--", "").split()) for argv, _ in _OUTPUTS])
def test_report_holds_its_lines(capsys, monkeypatch, argv, want):
    """The command exits 0 with no stderr, prints the same bytes when run again, and holds its lines."""
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert run(capsys, *argv.split()) == (0, out, "")
    if isinstance(want, dict):
        doc = json.loads(out)
        assert {key: len(doc[key]) if isinstance(doc[key], list) else doc[key] for key in want} == want
    else:
        assert set(want) <= set(out.splitlines()), out


def _scan_stdout(gate: str, family: str, grid: int) -> str:
    """scan's stdout: each grid point, formatted with cli._num, and the success
    probability of the per-outcome reference's analysis there."""
    g = cli.resolve_gate(gate, la.DEFAULT_UNITARY_TOL)
    ts = 2 * np.pi * np.arange(grid) / grid
    if family == "beta_ab":
        points = [(t, np.cos(t) / np.sqrt(2), np.sin(t) / np.sqrt(2)) for t in ts]
        header, rows = "t,a,b,success", [bases.beta_ab_basis(a, b).vectors for _, a, b in points]
    else:
        points = list(itertools.product(ts - np.pi, repeat=2))
        header, rows = "theta1,theta2,success", [nonlocal_gate((*p, 0.0)).T for p in points]  # the columns of N
    lines = [",".join(cli._num(x, ".9f") for x in point) + "," + cli._num(sum(ref.gate_outcomes(g, r)[1]) / 16, ".4f")
             for point, r in zip(points, rows)]
    return "\n".join([header, *lines]) + "\n"


# beta_nl has no capable point at grid 4 and 32 of 64 at grid 8 (the next test).
@pytest.mark.parametrize("family, grid", [("beta_ab", 8), ("beta_nl", 4)])
def test_scan_stdout_equals_the_former_per_point_loop(capsys, family, grid):
    for gate in catalogue()["all_gates"]:
        code, out, err = run(capsys, "scan", "--gate", gate, "--family", family, "--grid", str(grid))
        assert (code, out, err) == (0, _scan_stdout(gate, family, grid), "")
        if family == "beta_ab" and gate in ("cnot", "exp_yy"):
            # In closed form: cnot teleports exactly where a*b = 0 (the Bell basis), exp_yy everywhere.
            for _, a, b, p in (map(float, row.split(",")) for row in out.splitlines()[1:]):
                assert p == (1.0 if gate == "exp_yy" or a * b == 0 else 0.0)


@pytest.mark.parametrize("gate", ["cnot", "swap_sqrt", "t:0.3287,1.6594"])
def test_scan_stdout_at_capable_beta_nl_points_equals_the_former_loop(capsys, gate):
    assert run(capsys, "scan", "--gate", gate, "--family", "beta_nl", "--grid", "8") == (
        0, _scan_stdout(gate, "beta_nl", 8), "")


def test_simulate_sample_is_seeded_and_every_hit_teleports(capsys):
    argv = ("simulate", "--gate", "cnot", "--basis", "bell", "--trials", "200", "--seed", "7")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv)[1] == out  # the seed fixes the sample
    rows = [line.split() for line in out.splitlines()[2:-1]]
    assert len(rows) == 16
    assert sum(int(row[2]) for row in rows) == 200
    hit_rows = [row for row in rows if row[2] != "0"]
    assert hit_rows and all(row[3:] == ["1.000000", "1.000000"] for row in hit_rows)


# (spec, basis): the catalogue's bases by spec, and Haar bases, which have no spec.
_STATE_BASES = st.one_of(
    st.sampled_from(catalogue()["validate_bases"]).map(lambda spec: (spec, cli.resolve_basis(spec, la.DEFAULT_UNITARY_TOL))),
    SEEDS.map(lambda seed: (None, haar_basis(seed))),
)
# Complex fronts only: for a real U the basis {U^T b_j} is {U^dag b_j}.
_FRONTS = st.one_of(
    HAAR_GATES,
    SEEDS.map(haar_local),  # keeps a capable basis capable
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_STATE_BASES, _FRONTS, SEEDS)
def test_a_front_gate_is_the_basis_of_u_dag_b_j(capsys, tmp_path, spec_basis, front, seed):
    """A front gate U before measuring {b_j} equals measuring {U^dag b_j}: the folded basis'
    report is the reference's with the front gate (the identity where an outcome has none),
    its oracle the circuit with U on the measured pair, and state-teleport --front prints it."""
    spec, basis = spec_basis
    rng = np.random.default_rng(seed)
    folded = bases.MeasurementBasis(basis.vectors @ front.conj(), basis.name)
    for psi in (tp.bell_resource(), la.random_state(4, rng).reshape(2, 2)):
        report = tp.analyze_state_teleport(psi, folded)
        probabilities, teleportable, corrections = ref.state_outcomes(psi, basis.vectors, front)
        assert np.allclose(report.probabilities, probabilities, rtol=0, atol=1e-12)
        assert report.teleportable.tolist() == teleportable
        assert report.deterministic == all(ok or p <= la.PROBABILITY_FLOOR
                                           for ok, p in zip(teleportable, probabilities))
        assert abs(report.entanglement - abs(np.linalg.det(psi))) <= 1e-15
        for ok, got, want in zip(teleportable, report.corrections, corrections):
            assert np.allclose(got, want, rtol=0, atol=1e-12) if ok else np.array_equal(got, la.I2)
        inverses = report.correction_inverses()
        assert np.allclose(inverses @ report.corrections, la.I2, rtol=0, atol=1e-12)
        xi = la.random_state(2, rng)
        result = sim.run_state_teleport(xi, psi, folded, inverses)
        want = ref.state_circuit(xi, psi, basis.vectors, inverses, front)
        assert np.allclose((result.fidelities, result.probabilities), want, rtol=0, atol=1e-12)
    if spec is None:
        return
    path = tmp_path / "front.json"
    cli.write_gate_file(str(path), front)
    u = cli.resolve_gate(f"@{path}", la.DEFAULT_UNITARY_TOL)
    report = tp.analyze_state_teleport(tp.bell_resource(), bases.MeasurementBasis(basis.vectors @ u.conj(), basis.name))
    code, out, err = run(capsys, "state-teleport", "--basis", spec, "--front", f"@{path}", "--format", "json")
    assert (code, err) == (0, "")
    corrections = [cli._complex_pairs(v) if ok else None for v, ok in zip(report.corrections, report.teleportable)]
    doc = {"basis": spec, "front": f"@{path}", "deterministic": report.deterministic, "corrections": corrections,
           "entanglement": report.entanglement, "probabilities": report.probabilities.tolist(),
           "teleportable": report.teleportable.tolist()}
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_library_value_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    # Unitary within --tol, but not within the analysis' own 1e-9: the CLI
    # accepts it and analyses its nearest unitary, which is CNOT.
    path = tmp_path / "near.json"
    near = la.CNOT.copy()
    near[0, 0] += 3e-8
    cli.write_gate_file(str(path), near)
    code, out, err = run(capsys, "analyze", "--gate", f"@{path}", "--basis", "bell", "--tol", "1e-6")
    assert (code, err) == (0, "")
    assert out == run(capsys, "analyze", "--gate", "cnot", "--basis", "bell")[1].replace("cnot", f"@{path}")

    def fails(*args, **kwargs):
        raise ValueError("teleported gate is not unitary within 1e-09")

    # A ValueError from the library still exits 2 with one stderr line.
    monkeypatch.setattr(cli, "analyze_gate_teleport", fails)
    code, out, err = run(capsys, "analyze", "--gate", "cnot", "--basis", "bell")
    assert (code, out) == (2, "")
    assert err == "validation error: teleported gate is not unitary within 1e-09\n"


# Inputs a hair off: a gate file 3e-8 off unitary (CNOT), a basis file 6e-8
# off orthonormal (m2 with one entry scaled by 1 + 5e-8, so that its first
# vector's gate-form beta is also 1e-7 off unitary: not maximally entangled
# within the library's 1e-9) and a typed pauli_conj matrix 1e-7 off
# unitary.  Within --tol 1e-6, each is accepted and gets the exact input's
# report.
_NEAR_SPECS = {"@g.json": "cnot", "@b.json": "m2", "pauli_conj:1,0,0,0,0,0,1.0000001,0": "pauli_conj:i"}


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--gate", "@g.json", "--basis", "bell"),
        ("fourway", "--gate", "@g.json", "--basis", "bell"),
        ("simulate", "--gate", "@g.json", "--basis", "bell"),
        ("state-teleport", "--basis", "bell", "--front", "@g.json"),
        ("analyze", "--gate", "cnot", "--basis", "@b.json"),
        ("fourway", "--gate", "cz", "--basis", "@b.json"),
        ("validate-basis", "--basis", "@b.json"),
        ("state-teleport", "--basis", "@b.json"),
        ("analyze", "--gate", "cnot", "--basis", "pauli_conj:1,0,0,0,0,0,1.0000001,0"),
    ],
    ids=["analyze-gate", "fourway-gate", "simulate-gate", "state-teleport-front", "analyze-basis", "fourway-basis",
         "validate-basis", "state-teleport-basis", "pauli-conj"],
)
def test_inputs_within_tol_get_the_exact_inputs_report(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    gate = la.CNOT.copy()
    gate[0, 0] += 3e-8
    cli.write_gate_file("g.json", gate)
    vectors = np.stack(bases.m2_basis().vectors)
    vectors[0, 0] *= 1 + 5e-8
    cli.write_basis_file("b.json", bases.MeasurementBasis(tuple(vectors), "m2"))
    near = next(a for a in argv if a in _NEAR_SPECS)
    code, out, err = run(capsys, *argv, "--tol", "1e-6")
    assert (code, err) == (0, "")
    exact = [_NEAR_SPECS.get(a, a) for a in argv]
    assert out == run(capsys, *exact)[1].replace(_NEAR_SPECS[near], near)


_FILE_BASES = st.one_of(
    CAPABLE_BASES,
    # Without capability: the computational basis and beta_nl bases far from pi/4.
    st.just(bases.MeasurementBasis(tuple(np.eye(4, dtype=complex)), "computational")),
    st.builds(bases.beta_nl_basis, st.floats(0.1, np.pi / 4 - 0.1), st.floats(-0.05, 0.05), st.floats(-np.pi, np.pi)),
)


@settings(max_examples=60)
@given(_FILE_BASES, SEEDS, st.floats(-12, -7).map(lambda e: 10.0**e))
# At t = 1e-7 some second Schmidt coefficients of CNOT's W sit at SEPARABLE_TOL itself.
@example(basis=beta_ab(1e-7), seed=0, size=1e-7)
def test_a_basis_file_within_tol_keeps_the_exact_bases_verdicts(basis, seed, size):
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rows = np.stack(basis.vectors) + size * noise / np.linalg.norm(noise)
    accepted = cli._accept_basis(bases.MeasurementBasis(tuple(rows), "file"), 1e-6, "not orthonormal")
    assert accepted.is_orthonormal()
    assert bases.capable(bases.gate_betas(accepted)) == bases.capable(bases.gate_betas(basis))
    gates = (la.CNOT, la.SWAP, tp.C_PI8, la.principal_sqrt(la.CNOT))
    reports = [tp.analyze_gate_teleport(gate, basis) for gate in gates]
    # A perturbation of about `size` moves a Schmidt coefficient by about as much, so no
    # bound keeps the verdicts of a coefficient within a few times size of the threshold.
    second = np.concatenate([sep.operator_schmidt(np.stack(r.w_matrices))[:, 1] for r in reports])
    assume(np.all(np.abs(second - la.SEPARABLE_TOL) > 10 * size))
    for gate, report in zip(gates, reports):
        assert np.array_equal(tp.analyze_gate_teleport(gate, accepted).separable, report.separable)


def test_capability_is_one_verdict_at_pi_over_4_plus_1_6e_9(capsys):
    # beta_nl:0.785398165,0,0 is 1.6e-9 past the maximally entangled pi/4.
    spec = "beta_nl:0.785398165,0,0"
    code, out, err = run(capsys, "validate-basis", "--basis", spec, "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["capability_zero"] is True
    code, out, err = run(capsys, "analyze", "--gate", "cnot", "--basis", spec, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["n_separable"] == 0 and doc["theorem1"]["conclusion"] == "not_covered"
    code, out, err = run(capsys, "fourway", "--gate", "cz", "--basis", spec, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert not any(doc["branch_xx_separable"] + doc["branch_zz_separable"])


_NUMBER = st.floats(-2, 2).map(repr)
_NON_NUMBER = st.sampled_from(["", "x", "1e", "--1", "0x1", "1j", "1.2.3", "nan", "inf", "-inf", "1e400"])


@st.composite
def _malformed_number_list(draw, counts):
    """Comma-separated numbers: a count not in `counts`, or one bad token."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 9).filter(lambda n: n not in counts))
        return ",".join(draw(st.lists(_NUMBER, min_size=n, max_size=n)))
    tokens = draw(st.lists(_NUMBER, min_size=counts[-1], max_size=counts[-1]))
    tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_NON_NUMBER)
    return ",".join(tokens)


# Finite entries whose squares overflow, and infinite ones: m^dag m overflows.
_HUGE_FINITE = st.floats(1e160, 1e308).flatmap(lambda x: st.sampled_from([x, -x]))
_HUGE = st.one_of(_HUGE_FINITE, st.sampled_from([np.inf, -np.inf]))


@st.composite
def _huge_number_list(draw, n):
    """n comma-separated numbers, one of them finite but huge."""
    tokens = draw(st.lists(_NUMBER, min_size=n, max_size=n))
    tokens[draw(st.integers(0, n - 1))] = repr(draw(_HUGE_FINITE))
    return ",".join(tokens)


_KNOWN_SPECS = ("cnot", "swap", "q", "r", "cz", "c_pi8", "cnot_sqrt", "swap_sqrt", "exp_yy", "bell", "m1", "m2")
_UNKNOWN_SPEC = st.text(max_size=12).filter(
    lambda t: t.strip().lower() not in _KNOWN_SPECS and ":" not in t and not t.startswith("@")
)
_GATE_SPECS = st.one_of(
    _UNKNOWN_SPEC,
    _malformed_number_list((2,)).map(lambda t: "t:" + t),
    _malformed_number_list((3,)).map(lambda t: "kak:" + t),
)
_BASIS_SPECS = st.one_of(
    _UNKNOWN_SPEC,
    _malformed_number_list((1, 2)).map(lambda t: "beta_ab:" + t),
    _malformed_number_list((3,)).map(lambda t: "beta_nl:" + t),
    _malformed_number_list((8,)).map(lambda t: "pauli_conj:" + t),
    _huge_number_list(8).map(lambda t: "pauli_conj:" + t),
    st.floats(0.71, 10).map(lambda a: f"beta_ab:{a!r}"),  # |a| > 1/sqrt(2)
)
_PAIR = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list)
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4))
_JSON = st.recursive(
    _JSON_SCALAR,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)


@st.composite
def _malformed_doc(draw, key, n):
    """The text of a JSON file that is no valid `key` document of an n x n matrix."""
    kind = draw(st.sampled_from(["text", "no key", "shape", "entry", "values", "huge", "deep"]))
    if kind == "deep":  # nested past the JSON decoder's recursion limit
        return "[" * 100_000 + "]" * 100_000
    if kind == "text":
        text = draw(st.text(max_size=20))
        try:
            json.loads(text)
        except ValueError:
            return text
        return text + "]"
    if kind == "no key":
        doc = draw(_JSON)
        return json.dumps({k: v for k, v in doc.items() if k != key} if isinstance(doc, dict) else doc)
    shape = (n, n)
    if kind == "shape":
        shape = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(lambda s: s != [n, n]))
    rows = np.empty(tuple(shape), dtype=object)
    for idx in np.ndindex(rows.shape):
        rows[idx] = draw(_PAIR)
    rows = rows.tolist()
    if kind == "entry":
        bad = draw(st.sampled_from([None, "x", "", "1j", [], [1], [1, 2, 3], {}, {"re": 1}, 10**400, -(10**400)]))
        i, j, part = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 1, None]))
        if part is None:
            rows[i][j] = bad
        else:
            rows[i][j][part] = bad
    if kind == "huge":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(_HUGE)
    if kind == "values":
        m = np.array([[complex(*p) for p in row] for row in rows])
        assume(not la.is_unitary(m, 1e-9))
    return json.dumps({key: rows})


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_malformed_specs_and_files_exit_with_one_line(capsys, monkeypatch, tmp_path, data):
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    path = str(tmp_path / "spec.json")
    what = data.draw(st.sampled_from(["gate", "basis", "gate file", "basis file", "pauli_conj file"]))
    spec = data.draw(_GATE_SPECS if what == "gate" else _BASIS_SPECS) if what in ("gate", "basis") else "@" + path
    if what.endswith("file"):
        key, n = ("vectors", 4) if what == "basis file" else ("matrix", 2 if what.startswith("pauli") else 4)
        with open(path, "w") as fh:
            fh.write(data.draw(_malformed_doc(key, n)))
        spec = ("pauli_conj:" if what.startswith("pauli") else "") + spec
    if what.startswith("gate"):
        commands = [
            ("kak", "--gate", spec),
            ("analyze", "--gate", spec, "--basis", "bell"),
            ("scan", "--gate", spec, "--family", "beta_ab", "--grid", "2"),
            ("state-teleport", "--basis", "bell", "--front", spec),
        ]
    else:
        commands = [("validate-basis", "--basis", spec), ("analyze", "--gate", "cnot", "--basis", spec)]
    argv = data.draw(st.sampled_from(commands))
    code, out, err = run(capsys, *argv)
    assert code in (1, 2) and out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err


_NOT_UNITARY = {"matrix": cli._complex_pairs(np.diag([1, 1, 1, 0.5]))}
_PROJECTOR = {"matrix": cli._complex_pairs(np.diag([1, 1, 1, 0]))}  # unitary within no positive finite tol
_TOL_VALUES = ("nan", "inf", "0", "-1")
_JSON_BRACE = "is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"

# (id, argv, GATEPORT_TOL or None for unset, {file: text or JSON document}, exit code, the one
# stderr line); stdout stays empty.  A file name holding a newline is quoted, so the error stays one line.
_ERRORS = [
    ("unknown-gate", "analyze --gate nope --basis bell", None, {}, 1, "error: unknown gate spec 'nope'"),
    ("empty-front", "state-teleport --basis bell --front ''", None, {}, 1, "error: unknown gate spec ''"),
    ("t-one-number", "kak --gate t:1", None, {}, 1, "error: t:phi,xi takes 2 comma-separated numbers, got '1'"),
    ("kak-nan", "kak --gate kak:nan,0,0", None, {}, 1, "error: kak:t1,t2,t3: numbers must be finite, got 'nan,0,0'"),
    ("t-nan", "kak --gate t:nan,0", None, {}, 1, "error: t:phi,xi: numbers must be finite, got 'nan,0'"),
    ("analyze-beta_ab-x", "analyze --gate cnot --basis beta_ab:x", None, {}, 1,
     "error: beta_ab:a: could not parse numbers in 'x'"),
    ("validate-beta_ab-x", "validate-basis --basis beta_ab:x", None, {}, 1,
     "error: beta_ab:a: could not parse numbers in 'x'"),
    ("inputs-0", "analyze --gate kak:0.3,0.2,0.1 --basis m1 --verify --inputs 0", None, {}, 1,
     "error: argument --inputs: must be at least 1, got 0"),
    ("inputs-negative-json", "analyze --gate kak:0.3,0.2,0.1 --basis m1 --verify --inputs -3 --format json", None, {}, 1,
     "error: argument --inputs: must be at least 1, got -3"),
    ("trials-0", "simulate --gate cnot --basis bell --trials 0", None, {}, 1,
     "error: argument --trials: must be at least 1, got 0"),
    ("trials-negative", "simulate --gate cnot --basis bell --trials -2", None, {}, 1,
     "error: argument --trials: must be at least 1, got -2"),
    ("tables-verify-0", "tables --verify 0", None, {}, 1, "error: argument --verify: must be at least 1, got 0"),
    # Before any output: tables used to print both tables, then exit 2.
    ("seed-tables", "tables --verify 2 --seed -1", None, {}, 1, "error: argument --seed: must be at least 0, got -1"),
    ("seed-analyze", "analyze --gate cnot --basis bell --verify --seed -1", None, {}, 1,
     "error: argument --seed: must be at least 0, got -1"),
    ("seed-simulate", "simulate --gate cnot --basis bell --seed -3", None, {}, 1,
     "error: argument --seed: must be at least 0, got -3"),
    ("seed-fourway", "fourway --gate cnot --seed -2 --format json", None, {}, 1,
     "error: argument --seed: must be at least 0, got -2"),
    ("grid-1", "scan --gate cnot --family beta_ab --grid 1", None, {}, 1,
     "error: argument --grid: must be at least 2, got 1"),
    ("tables-tol", "tables --tol 1e-6", None, {}, 1, "error: unrecognized arguments: --tol 1e-6"),
    ("tol-abc", "kak --gate cnot --tol abc", None, {}, 1, "error: argument --tol: invalid float value: 'abc'"),
    ("env-tol-abc", "kak --gate cnot", "abc", {}, 1, "error: argument --tol: invalid GATEPORT_TOL value: 'abc'"),
    *[(f"tol-{value}", f"kak --gate @p.json --tol {value}", None, {"p.json": _PROJECTOR}, 1,
       f"error: argument --tol: tolerance must be a positive finite number, got '{value}'") for value in _TOL_VALUES],
    *[(f"env-tol-{value}", "kak --gate @p.json", value, {"p.json": _PROJECTOR}, 1,
       f"error: argument --tol: GATEPORT_TOL must be a positive finite number, got '{value}'") for value in _TOL_VALUES],
    ("gate-missing-file", "analyze --gate @g.json --basis bell", None, {}, 1,
     "error: cannot read 'g.json': No such file or directory"),
    ("gate-missing-key", "analyze --gate @g.json --basis bell", None, {"g.json": '{"name": "no matrix"}'}, 1,
     "error: 'g.json' must hold a JSON object with a 'matrix' key"),
    ("gate-invalid-json", "analyze --gate @g.json --basis bell", None, {"g.json": '{"matrix": [[[1, 0]'}, 1,
     "error: 'g.json' is not valid JSON: Expecting ',' delimiter: line 1 column 20 (char 19)"),
    ("gate-not-unitary", "analyze --gate @g.json --basis bell", None, {"g.json": _NOT_UNITARY}, 2,
     "validation error: gate from 'g.json' is not unitary within 1e-09"),
    ("basis-missing-key", "analyze --gate cnot --basis @b.json", None, {"b.json": '{"name": "no vectors"}'}, 1,
     "error: 'b.json' must hold a JSON object with a 'vectors' key"),
    ("basis-invalid-json", "analyze --gate cnot --basis @b.json", None, {"b.json": "not json"}, 1,
     "error: 'b.json' is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("basis-nested-too-deep", "analyze --gate cnot --basis @b.json", None, {"b.json": "[" * 100_000 + "]" * 100_000}, 1,
     "error: 'b.json' is not valid JSON: maximum recursion depth exceeded"
     " while decoding a JSON array from a unicode string"),
    ("pauli-conj-missing-key", "validate-basis --basis pauli_conj:@h.json", None, {"h.json": '{"vectors": []}'}, 1,
     "error: 'h.json' must hold a JSON object with a 'matrix' key"),
    ("pauli-conj-invalid-json", "validate-basis --basis pauli_conj:@h.json", None, {"h.json": "{"}, 1,
     f"error: 'h.json' {_JSON_BRACE}"),
    ("int-past-float-range", "validate-basis --basis pauli_conj:@h.json", None,
     {"h.json": {"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}}, 1,
     "error: malformed complex matrix: int too large to convert to float"),
    ("quoted-missing-file", "analyze --gate cnot --basis '@no\nsuch.json'", None, {}, 1,
     "error: cannot read 'no\\nsuch.json': No such file or directory"),
    ("quoted-invalid-json", "analyze --gate '@no\nsuch.json' --basis bell", None, {"no\nsuch.json": "{"}, 1,
     f"error: 'no\\nsuch.json' {_JSON_BRACE}"),
    ("quoted-not-an-object", "analyze --gate cnot --basis '@no\nsuch.json'", None, {"no\nsuch.json": "[]"}, 1,
     "error: 'no\\nsuch.json' must hold a JSON object with a 'vectors' key"),
    ("quoted-gate-not-unitary", "analyze --gate '@no\nsuch.json' --basis bell", None, {"no\nsuch.json": _NOT_UNITARY}, 2,
     "validation error: gate from 'no\\nsuch.json' is not unitary within 1e-09"),
    ("quoted-basis-not-orthonormal", "analyze --gate cnot --basis '@no\nsuch.json'", None,
     {"no\nsuch.json": {"vectors": cli._complex_pairs(np.ones((4, 4)))}}, 2,
     "validation error: basis from 'no\\nsuch.json' is not orthonormal within 1e-09"),
    # A basis name holding a newline, in a file whose NaN entry (json writes a NaN literal) rejects it.
    ("quoted-basis-name", "analyze --gate cnot --basis @b.json", None,
     {"b.json": {"name": "line one\nline two", "vectors": cli._complex_pairs(np.diag([np.nan, 1, 1, 1]))}}, 2,
     "validation error: basis 'line one\\nline two' has non-finite entries"),
]


@pytest.mark.parametrize("argv, env, files, code, line", [row[1:] for row in _ERRORS], ids=[row[0] for row in _ERRORS])
def test_bad_input_exits_with_one_exact_stderr_line(capsys, monkeypatch, tmp_path, argv, env, files, code, line):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("GATEPORT_TOL", raising=False)
    else:
        monkeypatch.setenv("GATEPORT_TOL", env)
    for name, content in files.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
    assert run(capsys, *shlex.split(argv)) == (code, "", line + "\n")


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_out():
    probe = "import sys, gateport.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    result = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--gate", "cnot", "--basis", "m2", "--format", "json"),
        ("scan", "--gate", "cnot", "--family", "beta_ab", "--grid", "8"),
    ],
    ids=["analyze-json", "scan"],
)
def test_closed_stdout_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "gateport.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def test_broken_pipe_leaves_a_stream_without_fileno_alone(capsys, monkeypatch):
    def closed(*args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "kak_decompose", closed)
    # capsys's stream has no file descriptor, like the StringIO of in-process callers
    assert run(capsys, "kak", "--gate", "cnot") == (1, "", "")


@pytest.mark.parametrize("spec", ["bell", "m1", "m2", "beta_ab:0.3", "beta_nl:0.1,0.2,0.3", "pauli_conj:h"])
def test_validate_basis_json_matches_human_format(capsys, spec):
    code, out, _ = run(capsys, "validate-basis", "--basis", spec, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    _, human, _ = run(capsys, "validate-basis", "--basis", spec)
    assert doc["orthonormal"] is True
    assert f"all beta unitary: {doc['all_beta_unitary']}" in human
    assert doc["capability_zero"] is (not doc["all_beta_unitary"])
    assert len(doc["per_vector_entanglement"]) == 4


def test_tables_self_check_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", np.zeros((5, 3)))
    code, _, err = run(capsys, "tables")
    assert code == 3


def test_tables_verify_runs_the_oracle_after_the_unchanged_tables(capsys, monkeypatch):
    from gateport import teleport as tp

    calls = []
    original = tp.analyze_gate_teleport

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, "analyze_gate_teleport", counted)
    monkeypatch.setattr(cli, "analyze_gate_teleport", counted)
    code, plain, _ = run(capsys, "tables")
    assert code == 0 and len(calls) == 16
    assert plain.endswith("table-2 self-check: ok\n")
    calls.clear()
    code, verified, _ = run(capsys, "tables", "--verify", "3", "--seed", "4")
    assert code == 0 and len(calls) == 16  # the oracle reuses the Table-1 analyses
    assert verified == plain + "\nstatevector oracle: 3 inputs per table-1 cell, seed 4\noracle self-check: ok\n"


def test_tables_verify_exits_3_on_oracle_disagreement(capsys, monkeypatch):
    # No fidelity reaches the threshold, so every separable outcome disagrees.
    monkeypatch.setattr(cli, "_FIDELITY_ONE", 2.0)
    code, out, err = run(capsys, "tables", "--verify", "2")
    assert code == 3
    assert "oracle self-check: MISMATCH" in out
    assert len(err.splitlines()) == 1 and err.startswith("self-check failed: ")


def test_tables_ignores_gateport_tol(capsys, monkeypatch):
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    code, plain, _ = run(capsys, "tables")
    assert code == 0
    monkeypatch.setenv("GATEPORT_TOL", "abc")
    assert run(capsys, "tables") == (0, plain, "")


def test_env_var_tolerance(monkeypatch):
    monkeypatch.setenv("GATEPORT_TOL", "1e-3")
    parser = cli._build_parser()
    args = parser.parse_args(["kak", "--gate", "cnot"])
    assert args.tol == 1e-3
    args = parser.parse_args(["kak", "--gate", "cnot", "--tol", "1e-7"])
    assert args.tol == 1e-7
    monkeypatch.setenv("GATEPORT_TOL", "abc")  # an explicit --tol wins, so the environment is not read
    assert parser.parse_args(["kak", "--gate", "cnot", "--tol", "1e-7"]).tol == 1e-7


def _type_name(t):
    if isinstance(t, functools.partial):
        return f"{t.func.__name__}({', '.join(f'{k}={v!r}' for k, v in t.keywords.items())})"
    return getattr(t, "__name__", None)


_GATE = ("--gate", None, True, None, None)
_BASIS = ("--basis", None, True, None, None)
_SEED = ("--seed", 0, False, None, "_count(low=0)")
_TOL = ("--tol", "$GATEPORT_TOL", False, None, "_tol")
_FORMAT = ("--format", "human", False, ("human", "json"), None)

# Per subcommand, in --help order: option, default, required, choices, type name.
_PARSER_SURFACE = {
    "kak": [_GATE, _TOL, _FORMAT],
    "analyze": [_GATE, _BASIS, ("--verify", False, False, None, None), ("--inputs", 5, False, None, "_count"),
                _SEED, _TOL, _FORMAT],
    "tables": [("--verify", None, False, None, "_count"), _SEED],
    "scan": [_GATE, ("--family", None, True, ("beta_ab", "beta_nl"), None), ("--grid", 16, False, None, "_count(low=2)"), _TOL],
    "state-teleport": [_BASIS, ("--front", None, False, None, None), _TOL, _FORMAT],
    "simulate": [_GATE, _BASIS, ("--trials", 100, False, None, "_count"), _SEED, _TOL],
    "fourway": [_GATE, ("--basis", "bell", False, None, None), _SEED, _TOL, _FORMAT],
    "validate-basis": [_BASIS, _TOL, _FORMAT],
}


def test_parser_surface_is_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (*a.option_strings, a.default, a.required, a.choices, _type_name(a.type))
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sp in sub.choices.items()
    }
    assert surface == _PARSER_SURFACE
    assert list(surface) == list(_PARSER_SURFACE)


def test_top_level_help_keeps_the_docstring_paragraphs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    out = capsys.readouterr().out
    assert exit_info.value.code == 0
    assert any(line.startswith("Exit codes: 0 success") for line in out.splitlines())
    assert cli.__doc__.strip() in out  # line breaks and blank lines as written


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_subcommand_help_exits_0(capsys, command):
    # argparse formats help strings only when asked, so each --help is run once here.
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gateport {command} [-h]")


def test_parser_reuse_leaks_no_options(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("GATEPORT_TOL", raising=False)
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "analyze", "--gate", "cnot", "--basis", "m2", "--verify")
    assert code == 0 and "min_fidelity" in out
    code, out, _ = run(capsys, "analyze", "--gate", "cnot", "--basis", "m2")
    assert code == 0 and "min_fidelity" not in out
    code, out, _ = run(capsys, "analyze", "--gate", "cnot", "--basis", "m2", "--format", "json")
    assert all("min_fidelity" not in o for o in json.loads(out)["outcomes"])

    # Residual ||m^dag m - I||_F of about 4e-9: past the default 1e-9, within
    # is_clifford's own 1e-8, so GATEPORT_TOL alone decides the verdict.
    path = tmp_path / "near.json"
    near = la.CNOT.copy()
    near[0, 0] *= 1 + 2e-9
    cli.write_gate_file(str(path), near)
    argv = ("kak", "--gate", f"@{path}")
    assert run(capsys, *argv)[0] == 2
    monkeypatch.setenv("GATEPORT_TOL", "1e-3")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.delenv("GATEPORT_TOL")
    assert run(capsys, *argv)[0] == 2


def test_kak_tol_reaches_the_clifford_check(capsys, monkeypatch, tmp_path):
    # Residual ||m^dag m - I||_F of about 1.6e-5: past is_clifford's default
    # 1e-8, within the --tol that resolve_gate and kak_decompose accept.
    path = tmp_path / "near.json"
    near = la.CNOT.copy()
    near[0, 0] *= 1 + 8e-6
    cli.write_gate_file(str(path), near)
    code, out, err = run(capsys, "kak", "--gate", f"@{path}", "--tol", "1e-3")
    assert (code, err) == (0, "")
    assert out.endswith("clifford: True\n")
    monkeypatch.setenv("GATEPORT_TOL", "1e-3")
    code, out, err = run(capsys, "kak", "--gate", f"@{path}", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["is_clifford"] is True


@pytest.mark.parametrize("env", [False, True])
def test_kak_tol_leaves_the_clifford_threshold(capsys, monkeypatch, env):
    # A unitary 5e-4 off the Clifford point pi/4 is not Clifford at any --tol.
    argv = ["kak", "--gate", "kak:0.7954,0,0"]
    if env:
        monkeypatch.setenv("GATEPORT_TOL", "1e-3")
    else:
        argv += ["--tol", "1e-3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "odd_quarter_pi: (False, False, False)" in out
    assert out.endswith("clifford: False\n")


# A printed zero with a minus sign: -0.0, -0.000000, but not -0.0000001.
_NEGATIVE_ZERO = re.compile(r"-0\.0+(?![0-9]*[1-9])")


# Beyond the named gates of the next test: local B of a Z (x) H gate file holds rounding-size
# negative entries, and the t gates' theta has two zero angles.
@pytest.mark.parametrize("gate", ["@zh.json", "t:0.3287,1.6594", "t:3.0598,6.2321"])
def test_kak_prints_no_negative_zero(capsys, monkeypatch, tmp_path, gate):
    monkeypatch.chdir(tmp_path)
    cli.write_gate_file("zh.json", la.tensor(la.SZ, la.H))
    code, out, _ = run(capsys, "kak", "--gate", gate)
    assert code == 0
    assert not _NEGATIVE_ZERO.search(out), out
    code, out, _ = run(capsys, "kak", "--gate", gate, "--format", "json")
    assert all(repr(t) == "0.0" for t in json.loads(out)["theta"] if abs(t) <= 1e-12)


@pytest.mark.parametrize(
    "template",
    [
        "kak --gate {g}",
        "analyze --gate {g} --basis {b} --verify --inputs 2",
        "tables",
        "scan --gate {g} --family beta_ab --grid 4",
        "scan --gate {g} --family beta_nl --grid 3",
        "state-teleport --basis {b} --front {g}",
        "simulate --gate {g} --basis {b} --trials 20",
        "fourway --gate {g} --basis {b}",
        "validate-basis --basis {b}",
    ],
    ids=["kak", "analyze", "tables", "scan-beta_ab", "scan-beta_nl", "state-teleport", "simulate", "fourway",
         "validate-basis"],
)
def test_no_human_report_prints_a_negative_zero(capsys, template):
    argvs = {template.format(g=g, b=b) for g in tp.NAMED_GATES for b in bases.NAMED_BASES}
    for argv in sorted(argvs):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        assert not _NEGATIVE_ZERO.search(out), (argv, out)


@st.composite
def _complex_arrays(draw, finite=False, shape=None):
    if shape is None:
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=5))
    floats = st.floats(allow_nan=not finite, allow_infinity=not finite) | st.sampled_from([0.0, -0.0])
    # set the parts one by one: re + 1j * im would turn -0.0 and infinite
    # parts into other values
    a = np.empty(shape, dtype=complex)
    a.real = draw(hnp.arrays(np.float64, shape, elements=floats))
    a.imag = draw(hnp.arrays(np.float64, shape, elements=floats))
    return a


@settings(max_examples=200)
@given(_complex_arrays())
def test_complex_pairs_match_per_entry_conversion(a):
    """Each entry becomes the [re, im] pair of its two doubles, nested as a is,
    and JSON carries each double back bit for bit (a NaN as a NaN)."""
    pairs = cli._complex_pairs(a)
    flat = pairs if a.ndim == 1 else [p for row in pairs for p in row]
    # repr tells -0.0 from 0.0 and prints NaN, where == would not
    assert repr(flat) == repr([cli._complex_pairs(z) for z in a.ravel()])
    assert repr(flat) == repr([[float(z.real), float(z.imag)] for z in a.ravel()])
    back, want = np.array(json.loads(json.dumps(pairs)), dtype=float), np.stack([a.real, a.imag], -1)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(back), nan) and back[~nan].tobytes() == want[~nan].tobytes()


def _basis_example(basis):
    return example(basis.vectors, basis.name)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_complex_arrays(finite=True, shape=(4, 4)), st.text(max_size=8))
# Each basis constructor's vectors and name.
@_basis_example(bases.bell_basis())
@_basis_example(bases.m1_basis())
@_basis_example(bases.m2_basis())
@_basis_example(bases.beta_ab_basis(0.3, np.sqrt(0.5 - 0.09)))
@_basis_example(bases.beta_nl_basis(0.0, np.pi / 4, 0.37))
@_basis_example(bases.conjugated_pauli_basis(la.haar_random_unitary(2, 5)))
@_basis_example(bases.phase_paired_basis(la.haar_random_unitary(4, 6), np.exp(1j * np.pi / 4), 1j))
def test_gate_and_basis_files_round_trip_bit_for_bit(tmp_path, m, name):
    """Either file reads back its matrix bit for bit and its name, and a gate file
    written from what was read is the same bytes."""
    path = tmp_path / "doc.json"
    cli.write_gate_file(str(path), m, name)
    back_name, back = cli.read_gate_file(str(path))
    assert back_name == name and back.tobytes() == m.tobytes()
    text = path.read_bytes()
    cli.write_gate_file(str(path), back, back_name)
    assert path.read_bytes() == text
    cli.write_basis_file(str(path), bases.MeasurementBasis(m, name))
    back = cli.read_basis_file(str(path))
    assert back.name == name and back.vectors.tobytes() == m.tobytes()


def _key_paths(doc, prefix=""):
    """Dotted key paths of a JSON document; "key[]." prefixes the keys that
    every object of a list of objects holds."""
    paths = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths.add(prefix + key)
            paths |= _key_paths(value, prefix + key + ".")
    elif isinstance(doc, list) and doc and all(isinstance(x, dict) for x in doc):
        per_item = [_key_paths(x, prefix[:-1] + "[].") for x in doc]
        assert all(p == per_item[0] for p in per_item)
        paths |= per_item[0]
    return paths


_ANALYZE_KEYS = {
    "gate", "basis", "n_separable", "success_probability", "deterministic", "outcomes",
    "outcomes[].j", "outcomes[].k", "outcomes[].separable", "outcomes[].correction_a",
    "outcomes[].correction_b", "outcomes[].w_matrix", "theorem1", "theorem1.condition1_met",
    "theorem1.condition2_met", "theorem1.conclusion", "theorem1.branch",
}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ("kak", "--gate", "cnot"),
            {"gate", "theta", "global_phase", "a_local", "b_local", "c_local", "d_local", "delta",
             "odd_quarter_pi", "is_swap_point", "is_clifford"},
        ),
        (("analyze", "--gate", "cnot", "--basis", "m2"), _ANALYZE_KEYS),
        (("analyze", "--gate", "cnot", "--basis", "m2", "--verify"), _ANALYZE_KEYS | {"outcomes[].min_fidelity"}),
        (
            ("state-teleport", "--basis", "bell"),
            {"basis", "front", "probabilities", "teleportable", "corrections", "deterministic", "entanglement"},
        ),
        (
            ("fourway", "--gate", "c_pi8"),
            {"gate", "basis", "clifford_case", "branch_xx_separable", "branch_zz_separable", "probabilities",
             "fidelities_raw", "fidelities_corrected", "max_corrected_fidelity"},
        ),
        (
            ("validate-basis", "--basis", "bell"),
            {"basis", "orthonormal", "all_beta_unitary", "per_vector_entanglement", "capability_zero"},
        ),
    ],
    ids=["kak", "analyze", "analyze-verify", "state-teleport", "fourway", "validate-basis"],
)
def test_json_key_sets(capsys, argv, keys):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert _key_paths(json.loads(out)) == keys


def _assert_encodes(loaded, value):
    """loaded, read back from the JSON text, is value exactly: a complex array
    or number as [re, im] pairs, a real or bool array as a plain list, a numpy
    scalar as the Python one (repr tells -0.0 from 0.0 and prints NaN)."""
    if isinstance(value, dict):
        assert sorted(loaded) == sorted(value)
        loaded, value = [loaded[key] for key in value], list(value.values())
    if isinstance(value, (list, tuple)):
        assert isinstance(loaded, list) and len(loaded) == len(value)
        for got, item in zip(loaded, value):
            _assert_encodes(got, item)
    elif np.iscomplexobj(value):
        assert np.array(loaded, dtype=float).view(complex)[..., 0].tobytes() == np.asarray(value).tobytes()
    else:
        assert repr(loaded) == repr(np.asarray(value).tolist())


def _assert_one_line_encoding(out, doc):
    assert out.endswith("\n") and out.count("\n") == 1
    _assert_encodes(json.loads(out), doc)


@pytest.mark.parametrize(
    "argv",
    [
        ("kak", "--gate", "cnot_sqrt"),
        ("analyze", "--gate", "cnot", "--basis", "m2"),
        ("analyze", "--gate", "kak:0.3,0.2,0.1", "--basis", "m1", "--verify", "--inputs", "3"),
        ("state-teleport", "--basis", "bell"),
        ("state-teleport", "--basis", "m2", "--front", "cnot"),
        ("fourway", "--gate", "c_pi8"),
        ("validate-basis", "--basis", "beta_nl:0.3,0.1,0"),
    ],
    ids=["kak", "analyze", "analyze-verify", "state-teleport", "state-teleport-front", "fourway", "validate-basis"],
)
def test_json_reports_are_one_line_equal_to_the_indented_documents(capsys, monkeypatch, argv):
    docs = []
    emit = cli._emit_json

    def recording(doc):
        docs.append(doc)
        emit(doc)

    monkeypatch.setattr(cli, "_emit_json", recording)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(docs) == 1
    _assert_one_line_encoding(out, docs[0])


def test_emit_json_maps_numpy_and_complex_scalars(capsys):
    doc = {
        "flags": [np.bool_(True), np.bool_(False), True],
        "counts": (np.int64(7), np.int32(-2), 3),
        "reals": [np.float64(-0.0), np.float32(0.5), float("nan"), np.float64("inf"), -0.0],
        "complex": [1 - 2j, np.complex128(-0.0 + 1j), complex(float("nan"), 0.0)],
        "matrix": np.array([[1, 1j], [-1j, -0.0]]),
        "nested": {"none": None, "text": "x", "tuple": (np.float64(0.25), (np.bool_(True),))},
        # Report arrays: real and bool ones are plain lists, as the former report tuples were.
        "real_array": np.array([0.25, -0.0, 1.5]),
        "real_stack": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "bool_array": np.array([True, False]),
        "empty": np.zeros(0),
    }
    cli._emit_json(doc)
    out = capsys.readouterr().out
    _assert_one_line_encoding(out, doc)
    loaded = json.loads(out)
    assert loaded["flags"] == [True, False, True] and loaded["counts"] == [7, -2, 3]
    assert loaded["complex"][0] == [1.0, -2.0]
    assert repr(loaded["real_array"]) == "[0.25, -0.0, 1.5]"
    assert loaded["real_stack"] == [[1.0, 2.0], [3.0, 4.0]] and loaded["empty"] == []
    assert loaded["bool_array"] == [True, False] and all(type(x) is bool for x in loaded["bool_array"])
    assert '"real_array": [0.25, -0.0, 1.5]' in out and '"bool_array": [true, false]' in out
    with pytest.raises(TypeError):
        cli._emit_json({"set": {1, 2}})
