"""Release acceptance checks.

Each test verifies one release criterion end to end at its stated
tolerance and records a PASS/FAIL line; the collected lines are printed
as an extra section at the end of the pytest run, one per criterion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import expm

from pengeo import (
    DiscretePath,
    SolverConfig,
    continuation_solve,
    energy,
    energy_gradient,
    get_problem,
    horizontality_defect,
    recovery_sequence_check,
    semimetric_rho,
    solve_drift_problem,
    validate_bracket_generating,
    vertical_heisenberg_problem,
    zero_drift,
)
from conftest import (
    fd_energy_gradient,
    heisenberg_lifted_circle,
    martinet_lifted_wave,
    random_path,
    record_criterion,
)

Q_LADDER = [1.0, 10.0, 100.0, 1000.0, 10000.0]


def _solve_preset(name: str):
    problem = get_problem(name)
    config = SolverConfig(grid_size=problem.grid_size)
    if problem.has_drift:
        solution = solve_drift_problem(
            problem.structure,
            problem.drift,
            problem.start,
            problem.end,
            problem.schedule,
            config,
            integrator_steps=problem.integrator_steps,
            seed_deflection=problem.seed_deflection(),
        )
        return solution.results, solution
    results = continuation_solve(
        problem.structure,
        (problem.start, problem.end),
        problem.schedule,
        config,
        seed_deflection=problem.seed_deflection(),
    )
    return results, None


@pytest.fixture(scope="module")
def catalogue_runs():
    names = [
        "euclidean-n",
        "heisenberg",
        "martinet",
        "drift-constant-1d",
        "drift-linear-2d",
        "heisenberg-drift",
    ]
    return {name: _solve_preset(name) for name in names}


@pytest.fixture(scope="module")
def vertical_run():
    problem = vertical_heisenberg_problem(200)
    config = SolverConfig(grid_size=problem.grid_size)
    started = time.perf_counter()
    results = continuation_solve(
        problem.structure,
        (problem.start, problem.end),
        problem.schedule,
        config,
        seed_deflection=problem.seed_deflection(),
    )
    wall = time.perf_counter() - started
    return results, wall


def test_criterion_01_exact_affine_energy_identity(heisenberg, rng):
    worst = 0.0
    for _ in range(50):
        path = random_path(heisenberg, 100, rng)
        defect = horizontality_defect(heisenberg, path)
        for q_a, q_b in ((1.0, 10.0), (1.0, 1e4), (10.0, 1e4)):
            gap = energy(heisenberg, q_b, path) - energy(heisenberg, q_a, path)
            expected = (q_b - q_a) / 2.0 * defect
            worst = max(worst, abs(gap - expected) / abs(expected))
    ok = worst <= 1e-10
    record_criterion(
        "criterion 01 exact affine energy identity", ok, f"max residual {worst:.2e}"
    )
    assert ok, f"relative residual {worst:.3e} above 1e-10"


def test_criterion_02_gradient_matches_finite_differences(
    heisenberg, martinet, euclidean3, rng
):
    worst = 0.0
    for structure in (heisenberg, martinet, euclidean3):
        for _ in range(20):
            q = float(rng.choice([1.0, 10.0, 100.0]))
            path = random_path(structure, 12, rng, scale=0.3)
            grad = energy_gradient(structure, q, path)
            fd = fd_energy_gradient(structure, q, path)
            denom = float(np.max(np.abs(fd))) + 1e-12
            worst = max(worst, float(np.max(np.abs(grad - fd))) / denom)
    ok = worst <= 1e-5
    record_criterion(
        "criterion 02 analytic gradient vs finite differences",
        ok,
        f"max relative gap {worst:.2e}",
    )
    assert ok, f"gradient mismatch {worst:.3e} above 1e-5"


def test_criterion_03_horizontal_chord_fixed_point(catalogue_runs):
    results, _ = catalogue_runs["heisenberg"]
    all_converged = all(r.converged for r in results)
    length_ok = all(abs(r.length - 1.0) <= 1e-4 for r in results)
    defect_ok = all(r.defect <= 1e-8 for r in results)
    ok = all_converged and length_ok and defect_ok
    record_criterion(
        "criterion 03 admissible chord is a fixed point",
        ok,
        f"max |length-1| {max(abs(r.length - 1.0) for r in results):.2e}",
    )
    assert all_converged, "a penalty step failed to converge"
    assert length_ok, f"lengths {[r.length for r in results]}"
    assert defect_ok, f"defects {[r.defect for r in results]}"


def test_criterion_04_constrained_distance_limit(vertical_run):
    results, wall = vertical_run
    lengths = [r.length for r in results]
    strictly_increasing = all(b > a for a, b in zip(lengths, lengths[1:]))
    below_band = all(l <= 1.01 for l in lengths)
    final_close = lengths[-1] >= 0.95
    final_defect_ok = results[-1].defect <= 1e-3
    time_ok = wall <= 120.0
    ok = strictly_increasing and below_band and final_close and final_defect_ok and time_ok
    record_criterion(
        "criterion 04 constrained distance via penalty limit",
        ok,
        f"final length {lengths[-1]:.6f}, wall {wall:.1f}s",
    )
    assert strictly_increasing, f"lengths not strictly increasing: {lengths}"
    assert below_band, f"a length exceeds 1.01: {lengths}"
    assert final_close, f"final length {lengths[-1]} below 0.95"
    assert final_defect_ok, f"final defect {results[-1].defect:.3e} above 1e-3"
    assert time_ok, f"runtime {wall:.1f}s above 120s"


def test_criterion_05_monotone_infima_across_catalogue(catalogue_runs):
    violations = []
    for name, (results, _) in catalogue_runs.items():
        energies = [r.energy for r in results]
        for a, b in zip(energies, energies[1:]):
            if b < a - 1e-12 * (1.0 + abs(a)):
                violations.append((name, a, b))
    ok = not violations
    record_criterion(
        "criterion 05 minimized energies nondecreasing in q",
        ok,
        f"{len(violations)} violations over {len(catalogue_runs)} problems",
    )
    assert ok, f"monotonicity violations: {violations}"


def test_criterion_06_linear_drift_gramian_oracle(catalogue_runs):
    _, solution = catalogue_runs["drift-linear-2d"]
    problem = get_problem("drift-linear-2d")
    A = np.array([[0.0, 1.0], [0.0, 0.0]])

    taus = np.linspace(0.0, 1.0, 4001)
    stack = np.array([expm(tau * A) @ expm(tau * A).T for tau in taus])
    weights = np.ones(taus.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    W = ((taus[1] - taus[0]) / 3.0) * np.einsum("m,mij->ij", weights, stack)
    residual = problem.end - expm(A) @ problem.start
    oracle = float(residual @ np.linalg.solve(W, residual))

    rel_cost = abs(solution.control_cost - oracle) / oracle
    identity_ok = solution.cost_identity_gap <= 1e-6 * (1.0 + abs(solution.control_cost))
    ok = rel_cost <= 0.01 and identity_ok
    record_criterion(
        "criterion 06 linear drift cost vs independent oracle",
        ok,
        f"cost {solution.control_cost:.6f}, oracle {oracle:.6f}, rel {rel_cost:.2e}",
    )
    assert oracle == pytest.approx(12.0 / 13.0, rel=1e-10)
    assert rel_cost <= 0.01, f"cost off by {rel_cost:.3%}"
    assert identity_ok, f"identity gap {solution.cost_identity_gap:.3e}"


def test_criterion_07_zero_drift_reduction(euclidean3, heisenberg, catalogue_runs):
    worst = 0.0
    for name, structure in (("euclidean-n", euclidean3), ("heisenberg", heisenberg)):
        base_results, _ = catalogue_runs[name]
        problem = get_problem(name)
        config = SolverConfig(grid_size=problem.grid_size)
        lifted = solve_drift_problem(
            structure,
            zero_drift(structure.dimension),
            problem.start,
            problem.end,
            problem.schedule,
            config,
        )
        for lift_res, base_res in zip(lifted.results, base_results):
            worst = max(worst, abs((lift_res.energy - 0.5) - base_res.energy))
    ok = worst <= 1e-8
    record_criterion(
        "criterion 07 zero drift reduces to the base solve",
        ok,
        f"max energy gap {worst:.2e}",
    )
    assert ok, f"zero-drift energy gap {worst:.3e} above 1e-8"


def test_criterion_08_recovery_sequence_bound(heisenberg, martinet, euclidean3):
    benchmarks = [
        DiscretePath.chord(np.zeros(3), np.ones(3), 60),
        DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 100),
        heisenberg_lifted_circle(radius=0.3, grid_size=150),
        martinet_lifted_wave(amplitude=0.4, grid_size=150),
    ]
    structures = [euclidean3, heisenberg, heisenberg, martinet]
    worst = 0.0
    for structure, path in zip(structures, benchmarks):
        worst = max(worst, recovery_sequence_check(structure, path, Q_LADDER))
    ok = worst <= 1e-10
    record_criterion(
        "criterion 08 admissible paths are their own recovery sequences",
        ok,
        f"max energy deviation {worst:.2e}",
    )
    assert ok, f"recovery deviation {worst:.3e} above 1e-10"


def test_criterion_09_minimizer_cauchy_behavior(catalogue_runs, vertical_run):
    worst = 0.0
    for name in ("euclidean-n", "heisenberg"):
        results, _ = catalogue_runs[name]
        for prev, curr in zip(results, results[1:]):
            rho1 = float(np.max(semimetric_rho(prev.path, curr.path, order=1)))
            worst = max(worst, rho1)
    ok = worst <= 1e-6

    vertical_results, _ = vertical_run
    reported = [
        float(np.max(semimetric_rho(prev.path, curr.path, order=1)))
        for prev, curr in zip(vertical_results, vertical_results[1:])
    ]
    reported_ok = all(np.isfinite(reported))

    record_criterion(
        "criterion 09 consecutive minimizers are Cauchy when the limit is unique",
        ok and reported_ok,
        f"max rho1 {worst:.2e}; non-unique case reported {['%.3g' % r for r in reported]}",
    )
    assert ok, f"consecutive rho1 {worst:.3e} above 1e-6"
    assert reported_ok


def test_criterion_10_bracket_generation_certificates(heisenberg, martinet, rng):
    heis_ok = all(
        validate_bracket_generating(heisenberg, rng.normal(size=3), 3) == (3, 2)
        for _ in range(10)
    )
    mart_ok = all(
        validate_bracket_generating(
            martinet, np.array([pt[0], 0.0, pt[1]]), 3
        )
        == (3, 3)
        for pt in rng.normal(size=(10, 2))
    )
    ok = heis_ok and mart_ok
    record_criterion(
        "criterion 10 bracket generation certificates",
        ok,
        "contact rank 3 at depth 2, flat plane rank 3 at depth 3",
    )
    assert heis_ok, "contact structure certificate failed"
    assert mart_ok, "flat-plane certificate failed"


def test_every_ladder_converges_at_default_settings(catalogue_runs, vertical_run):
    ladders = {name: results for name, (results, _) in catalogue_runs.items()}
    ladders["vertical"] = vertical_run[0]
    unconverged = [
        f"{name} q={r.q:g}"
        for name, results in ladders.items()
        for r in results
        if not r.converged
    ]
    assert not unconverged, f"rungs hit the iteration cap: {unconverged}"


def test_vertical_run_leaves_the_chord_saddle_at_q100(vertical_run):
    # The chord is critical for every penalty; by q = 100 it is a saddle, so
    # a rung that stopped at a minimizer sits strictly below it.
    problem = vertical_heisenberg_problem(200)
    chord = DiscretePath.chord(problem.start, problem.end, problem.grid_size)
    rung = next(r for r in vertical_run[0] if r.q == 100.0)
    assert rung.energy < energy(problem.structure, 100.0, chord)
