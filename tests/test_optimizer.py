from __future__ import annotations

import numpy as np
import pytest

from pengeo import (
    ContinuationSchedule,
    DiscretePath,
    SolverConfig,
    build_lifted_structure,
    constant_speed_reparametrize,
    continuation_solve,
    energy_gradient,
    linear_drift,
    minimize_energy,
    penalized_gram,
    sinusoidal_deflection,
    vertical_heisenberg_problem,
)
from pengeo.optimizer import _velocity_hessian_factor
from conftest import fd_energy_gradient, random_path


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(backtracking_ratio=1.0)
    with pytest.raises(ValueError):
        SolverConfig(sufficient_decrease=0.6)
    with pytest.raises(ValueError):
        SolverConfig(grid_size=1)
    with pytest.raises(ValueError):
        SolverConfig(memory=0)


def test_schedule_values():
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=5)
    np.testing.assert_allclose(sched.q_values(), [1.0, 10.0, 100.0, 1000.0, 10000.0])
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=0.0, ratio=10.0, step_count=3)
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=1.0, ratio=0.9, step_count=3)
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=0)


def test_gradient_matches_finite_differences(heisenberg, martinet, euclidean3, rng):
    for structure in (heisenberg, martinet, euclidean3):
        for q in (1.0, 100.0):
            path = random_path(structure, 12, rng, scale=0.3)
            grad = energy_gradient(structure, q, path)
            fd = fd_energy_gradient(structure, q, path)
            denom = np.max(np.abs(fd)) + 1e-12
            assert np.max(np.abs(grad - fd)) / denom < 1e-5


def test_gradient_affine_in_q(heisenberg, rng):
    path = random_path(heisenberg, 15, rng)
    g1 = energy_gradient(heisenberg, 1.0, path)
    g2 = energy_gradient(heisenberg, 2.0, path)
    g4 = energy_gradient(heisenberg, 4.0, path)
    slope_a = g2 - g1
    slope_b = (g4 - g2) / 2.0
    assert np.max(np.abs(slope_a - slope_b)) <= 1e-9 * (1.0 + np.max(np.abs(g4)))


def test_gradient_frozen_coordinates(heisenberg, rng):
    path = random_path(heisenberg, 10, rng)
    frozen = np.array([False, False, True])
    grad = energy_gradient(heisenberg, 5.0, path, frozen_coords=frozen)
    grid = grad.reshape(path.grid_size - 1, path.dimension)
    np.testing.assert_array_equal(grid[:, 2], 0.0)
    assert np.any(grid[:, :2] != 0.0)


def _dense_velocity_hessian(structure, q, path):
    """H0 assembled entry by entry: blocks N (M_{j-1} + M_j) and -N M_j."""
    N, n = path.grid_size, path.dimension
    mids = 0.5 * (path.points[:-1] + path.points[1:])
    M = penalized_gram(structure, q, mids)
    H = np.zeros(((N - 1) * n, (N - 1) * n))
    for j in range(N - 1):
        H[j * n : (j + 1) * n, j * n : (j + 1) * n] = N * (M[j] + M[j + 1])
        if j + 1 < N - 1:
            H[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = -N * M[j + 1]
            H[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = -N * M[j + 1]
    return H


def _assert_solves(H, x, b):
    """x solves H x = b as well as a dense LU solve does.

    The backward error must sit at roundoff.  The forward error against
    ``np.linalg.solve`` must be 1e-10, or eps * cond(H) where that is
    larger: at q = 1e4 and N = 200, cond(H0) is about 1.6e8, and two
    backward-stable solves then differ by a few 1e-10 (dense LU and a
    sequential block elimination do too).
    """
    expected = np.linalg.solve(H, b)
    assert np.linalg.norm(H @ x - b) <= 1e-14 * np.linalg.norm(H, 2) * np.linalg.norm(x)
    floor = max(1e-10, np.finfo(float).eps * np.linalg.cond(H))
    assert np.linalg.norm(x - expected) <= floor * np.linalg.norm(expected)


# Odd, even and single-block elimination levels all occur among these.
BLOCK_COUNTS = [1, 2, 3, 4, 5, 8, 199, 200]


@pytest.mark.parametrize("blocks", BLOCK_COUNTS)
@pytest.mark.parametrize("q", [1.0, 1e4])
def test_velocity_hessian_solve_matches_dense(heisenberg, rng, blocks, q):
    path = random_path(heisenberg, blocks + 1, rng, scale=0.3)
    b = rng.normal(size=blocks * 3)
    x = _velocity_hessian_factor(heisenberg, q, path, None).solve(b)
    _assert_solves(_dense_velocity_hessian(heisenberg, q, path), x, b)


@pytest.mark.parametrize("blocks", BLOCK_COUNTS)
def test_velocity_hessian_solve_frozen_time_coordinate(heisenberg, rng, blocks):
    # The lifted drift structure with s frozen, as the drift solver runs it:
    # the free coordinates solve the free part of H0, the frozen ones
    # return the right-hand side unchanged.
    drift = linear_drift(0.3 * np.eye(3))
    lifted = build_lifted_structure(heisenberg, drift, integrator_steps=10)
    start = np.concatenate([rng.normal(size=3), [0.0]])
    end = np.concatenate([rng.normal(size=3), [1.0]])
    path = random_path(lifted, blocks + 1, rng, scale=0.3, start=start, end=end)
    s_line = DiscretePath.chord(start, end, blocks + 1).interior()[:, 3]
    interior = path.interior()
    interior[:, 3] = s_line
    path = path.with_interior(interior)
    frozen = np.array([False, False, False, True])
    b = rng.normal(size=blocks * 4)
    x = _velocity_hessian_factor(lifted, 1e3, path, frozen).solve(b)

    free = ~np.tile(frozen, blocks)
    H = _dense_velocity_hessian(lifted, 1e3, path)
    _assert_solves(H[np.ix_(free, free)], x[free], b[free])
    np.testing.assert_array_equal(x[~free], b[~free])


def test_minimize_euclidean_zigzag_one_iteration(euclidean3, rng):
    # With the exact velocity-term model, a flat problem is solved by a
    # single full quasi-Newton step from any start.
    path = random_path(euclidean3, 20, rng, start=np.zeros(3), end=np.ones(3))
    config = SolverConfig(grid_size=20)
    result = minimize_energy(euclidean3, 1.0, path, config)
    assert result.converged
    assert result.iterations <= 2
    assert result.energy == pytest.approx(1.5, rel=1e-10)
    assert result.length == pytest.approx(np.sqrt(3.0), rel=1e-10)


def test_minimize_heisenberg_perturbed_chord(heisenberg, rng):
    path = random_path(
        heisenberg, 30, rng, scale=0.05, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    config = SolverConfig(grid_size=30)
    result = minimize_energy(heisenberg, 1.0, path, config)
    assert result.converged
    assert result.energy == pytest.approx(0.5, abs=1e-8)
    assert result.gradient_norm <= config.gradient_tolerance * (1.0 + result.energy)


def test_minimize_respects_iteration_cap(heisenberg):
    prob = vertical_heisenberg_problem(40)
    seed = prob.seed_deflection()
    start_path = DiscretePath.chord(prob.start, prob.end, 40)
    kicked = start_path.with_interior(start_path.interior() + seed[1:-1])
    config = SolverConfig(grid_size=40, max_iterations=2)
    result = minimize_energy(heisenberg, 1e4, kicked, config)
    assert not result.converged
    assert result.iterations == 2
    assert np.isfinite(result.gradient_norm)


def test_minimize_energy_history_decreases(heisenberg, rng):
    path = random_path(
        heisenberg, 25, rng, scale=0.2, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    config = SolverConfig(grid_size=25)
    result = minimize_energy(heisenberg, 100.0, path, config)
    hist = np.array(result.energy_history)
    assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))


def test_steepest_descent_mode_still_converges(euclidean3):
    path = DiscretePath.chord(np.zeros(3), np.ones(3), 8)
    bent = path.with_interior(path.interior() + 0.3)
    config = SolverConfig(grid_size=8, quasi_newton=False, max_iterations=2000)
    result = minimize_energy(euclidean3, 1.0, bent, config)
    assert result.converged
    assert result.energy == pytest.approx(1.5, rel=1e-6)


def test_continuation_threads_warm_starts(heisenberg):
    config = SolverConfig(grid_size=40)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=4)
    results = continuation_solve(
        heisenberg, (np.zeros(3), np.array([1.0, 0.0, 0.0])), sched, config
    )
    assert [r.q for r in results] == [1.0, 10.0, 100.0, 1000.0]
    assert all(r.converged for r in results)
    energies = [r.energy for r in results]
    assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))


def test_continuation_seed_kick_escapes_stationary_chord(heisenberg):
    # The straight chord between vertically separated endpoints is critical
    # for every penalty, so without a nudge the ladder never leaves it and
    # the energy grows linearly in q; the deflection breaks the tie.
    prob = vertical_heisenberg_problem(60)
    config = SolverConfig(grid_size=60, max_iterations=400)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=4)
    endpoints = (prob.start, prob.end)

    stuck = continuation_solve(heisenberg, endpoints, sched, config)
    assert stuck[-1].energy == pytest.approx(
        1000.0 * prob.end[2] ** 2 / 2.0, rel=1e-8
    )

    kicked = continuation_solve(
        heisenberg, endpoints, sched, config, seed_deflection=prob.seed_deflection()
    )
    assert kicked[-1].energy < 0.6
    assert kicked[-1].length < 1.05


def test_continuation_rejects_bad_deflection(heisenberg):
    config = SolverConfig(grid_size=10)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=2)
    bad_shape = np.zeros((5, 3))
    with pytest.raises(ValueError):
        continuation_solve(
            heisenberg,
            (np.zeros(3), np.ones(3)),
            sched,
            config,
            seed_deflection=bad_shape,
        )
    nonzero_ends = np.ones((11, 3))
    with pytest.raises(ValueError):
        continuation_solve(
            heisenberg,
            (np.zeros(3), np.ones(3)),
            sched,
            config,
            seed_deflection=nonzero_ends,
        )


def test_seed_deflection_shape_and_ends():
    seed = sinusoidal_deflection(50, 3, 0.05)
    assert seed.shape == (51, 3)
    np.testing.assert_array_equal(seed[0], 0.0)
    np.testing.assert_array_equal(seed[-1], 0.0)
    assert np.max(np.abs(seed)) <= 2 * 0.05 + 1e-15
    assert np.max(np.abs(seed)) > 0.0


def test_reparametrize_two_segment_example(euclidean3):
    pts = np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [1.0, 0.0, 0.0]])
    path = DiscretePath.from_points(pts)
    even = constant_speed_reparametrize(euclidean3, 1.0, path)
    np.testing.assert_allclose(even.points[1], [0.5, 0.0, 0.0], atol=1e-12)
    assert even.points[0].tobytes() == path.points[0].tobytes()
    assert even.points[-1].tobytes() == path.points[-1].tobytes()


def test_reparametrize_evens_speeds_on_a_line(euclidean3, rng):
    # On a collinear path the polyline is the segment itself, so equal
    # arclength spacing means exactly equal segment speeds.
    fractions = np.sort(rng.uniform(0.01, 0.99, size=29))
    pts = np.concatenate([[0.0], fractions, [1.0]])[:, None] * np.ones(3)
    path = DiscretePath.from_points(pts)
    even = constant_speed_reparametrize(euclidean3, 1.0, path)
    vels = 30 * np.diff(even.points, axis=0)
    speeds = np.linalg.norm(vels, axis=1)
    assert np.std(speeds) / np.mean(speeds) < 1e-12


def test_reparametrize_zero_length_rejected(euclidean3):
    path = DiscretePath.chord(np.zeros(3), np.zeros(3), 5)
    with pytest.raises(ValueError):
        constant_speed_reparametrize(euclidean3, 1.0, path)


def test_solver_minimizers_have_even_speed(heisenberg):
    config = SolverConfig(grid_size=50)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=3)
    results = continuation_solve(
        heisenberg, (np.zeros(3), np.array([1.0, 0.0, 0.0])), sched, config
    )
    assert results[-1].speed_cv < 0.01
