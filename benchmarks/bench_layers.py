"""Per-layer timings of the scan path, for pytest-benchmark.

This file lies outside tests/, so the Tier-1 run does not collect it.  Run it
from the repository root with one BLAS thread, as the end-to-end benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_layers.py --benchmark-json=layers.json

The inputs are those of one `scan` point that factorizes all 16 outcomes:
t:0.3287,1.6594 under m2.  The grid benchmarks build the bases of
`scan --family beta_ab --grid 48` and `--family beta_nl --grid 8`, the
benchmark's sweep grids; the stacked builders are skipped on a tree that
lacks them, so one file times both sides of a comparison.  The basis
benchmarks build one named basis, resolve one basis spec as the CLI does
and build the 48-point beta_ab grid alone.
"""
import numpy as np
import pytest

from gateport import bases, cli, linalg, separability, teleport

GATE = teleport.t_gate(0.3287, 1.6594)
BASIS = bases.m2_basis()
BETAS = bases.gate_betas(BASIS)
W = ((GATE @ linalg.kron_pairs(BETAS, BETAS)).reshape(64, 4) @ linalg.dag(GATE)).reshape(16, 4, 4)

_AB = 2 * np.pi * np.arange(48) / 48
_A, _B = np.cos(_AB) / np.sqrt(2), np.sin(_AB) / np.sqrt(2)
_NL = 2 * np.pi * np.arange(8) / 8 - np.pi
_TRIPLES = np.array([(t1, t2, 0.0) for t1 in _NL for t2 in _NL])


def test_require_unitary_one_matrix(benchmark):
    benchmark(linalg.require_unitary, GATE)


def test_require_unitary_stack_of_16(benchmark):
    benchmark(linalg.require_unitary, W)


def test_beta_matrices(benchmark):
    benchmark(bases.beta_matrices, BASIS)


def test_tensor_factorize_separable(benchmark):
    assert benchmark(separability.tensor_factorize, W[0]).separable


def test_analyze_gate_teleport(benchmark):
    assert benchmark(teleport.analyze_gate_teleport, GATE, BASIS).n_separable == 16


def test_scan_grid_per_point(benchmark):
    def build():
        return ([bases.beta_ab_basis(a, b) for a, b in zip(_A, _B)],
                [bases.beta_nl_basis(*t) for t in _TRIPLES.tolist()])

    benchmark(build)


def test_scan_grid_stacked(benchmark):
    if not hasattr(bases, "beta_nl_bases"):
        pytest.skip("this tree builds scan grids point by point")
    benchmark(lambda: (bases.beta_ab_bases(_A, _B), bases.beta_nl_bases(_TRIPLES)))


def test_bell_basis(benchmark):
    benchmark(bases.bell_basis)


def test_resolve_basis_m2(benchmark):
    benchmark(cli.resolve_basis, "m2", 1e-9)


def test_beta_ab_grid_48(benchmark):
    if not hasattr(bases, "beta_ab_bases"):
        pytest.skip("this tree builds scan grids point by point")
    benchmark(bases.beta_ab_bases, _A, _B)
