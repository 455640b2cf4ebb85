"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` calls the package by module attribute
(``models.potential_v3``, ``flux.solve_R_given_kappa``, ...).  Running one
seeded block of ``ring_scan`` and one ``flux_sweep`` and one
``variational`` operation through its own executor, checked by its own
scipy oracles, makes a rename of any name the benchmark binds fail here
rather than in a benchmark run.  Nothing
under ``perfbench/`` is modified.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    # oracles.py imports workloads as a top-level module, as run.py does;
    # no bytecode is written next to the benchmark's sources
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import oracles
        import workloads

        assert Path(workloads.__file__).resolve().parent == PERFBENCH
        yield workloads, oracles
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        for name in ("workloads", "oracles"):
            sys.modules.pop(name, None)


def test_one_ring_scan_block(bench):
    workloads, oracles = bench
    run = workloads.executor("ring_scan")
    block = list(itertools.islice(workloads.operations("ring_scan", 1), 20))
    assert {op["kind"] for op in block} == {"tune", "minima", "curve"}
    checks = {"tune": oracles.check_tune, "minima": oracles.check_minima,
              "curve": oracles.check_curve}
    for op in block:
        assert checks[op["kind"]](op, run(op)) is None, op


def test_one_flux_sweep_operation(bench):
    workloads, oracles = bench
    run = workloads.executor("flux_sweep")
    op = next(op for op in workloads.operations("flux_sweep", 1)
              if op["kappa"] > workloads.KAPPA_MIN)
    u_min, k_min = oracles.kappa_min()
    assert oracles.check_flux(op, run(op), u_min, k_min) is None


def test_one_variational_operation(bench):
    workloads, oracles = bench
    run = workloads.executor("variational")
    op = next(workloads.operations("variational", 1))
    assert oracles.check_variational(op, run(op)) is None


def test_ring_scan_tuning_finds_the_float_grids_minima(bench, grids_compared):
    # the tuning operations of the first four blocks at the benchmark's
    # seeds 1 and 2: every tight minimum they search, scanned by one array
    # call, is the one the float grid finds (see conftest.grids_compared)
    workloads, oracles = bench
    run = workloads.executor("ring_scan")
    for seed in (1, 2):
        block = itertools.islice(workloads.operations("ring_scan", seed), 80)
        tunes = [op for op in block if op["kind"] == "tune"]
        assert {op["k"] for op in tunes} == {0, 1, 2, 3}
        for op in tunes:
            assert oracles.check_tune(op, run(op)) is None, op
    assert len(grids_compared) > 16 * 8


def test_ring_scan_scans_sample_the_float_values(bench, grids_compared):
    # the minima and curve operations of the first four blocks at the
    # benchmark's seeds 1 and 2: each scan, one call on its grid of a lambda
    # over potential_v3 or potential_scaling_law, finds the minima and
    # samples the values that a float-by-float scan does
    workloads, oracles = bench
    run = workloads.executor("ring_scan")
    checks = {"minima": oracles.check_minima, "curve": oracles.check_curve}
    scans = 0
    for seed in (1, 2):
        block = itertools.islice(workloads.operations("ring_scan", seed), 80)
        for op in block:
            if op["kind"] in checks:
                assert checks[op["kind"]](op, run(op)) is None, op
                scans += 1
    assert len(grids_compared) == scans > 80
