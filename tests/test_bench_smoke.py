"""One unit of each benchmark workload, run through its own gates.

The benchmark under ``bench/`` drives pengeo through public names
(``Problem.seed_deflection``, ``solve_drift_problem(integrator_steps=)``,
``SolverConfig(grid_size=)``, ``pengeo.cli.main`` and others); one unit of
each workload here fails as soon as one of them goes missing.  Only reads
``bench/``.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOAD_NAMES = ("vertical-heis", "drift-heis", "catalogue-cli")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_bench_unit_passes_its_gates(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    workload = WORKLOADS[name](0, tmp_path)
    result = workload.check(workload.run(workload.prepare(0), lambda label: contextlib.nullcontext()))
    assert result.ops and all(ok for _, ok in result.ops), result.ops
    assert result.problems == []
