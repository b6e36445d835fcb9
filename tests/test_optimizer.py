from __future__ import annotations

import numpy as np
import pytest

from pengeo import (
    ContinuationSchedule,
    DiscretePath,
    MetricField,
    SolverConfig,
    SubRiemannianStructure,
    build_lifted_structure,
    continuation_solve,
    energy,
    energy_gradient,
    horizontality_defect,
    length,
    linear_drift,
    minimize_energy,
    penalized_gram,
    sinusoidal_deflection,
    vertical_heisenberg_problem,
)
from pengeo.functionals import _evaluate
from pengeo.optimizer import DECREMENT_TOLERANCE, _velocity_hessian_factor
from conftest import fd_energy_gradient, random_path


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(grid_size=1)


def test_schedule_values():
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=5)
    np.testing.assert_allclose(sched.q_values(), [1.0, 10.0, 100.0, 1000.0, 10000.0])
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=0.0, ratio=10.0, step_count=3)
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=1.0, ratio=0.9, step_count=3)
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=0)
    # Every rung must be a finite penalty, checked when the ladder is built.
    for ratio in (float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError):
            ContinuationSchedule(q_start=1.0, ratio=ratio, step_count=3)
    with pytest.raises(ValueError):
        ContinuationSchedule(q_start=1e300, ratio=1e10, step_count=2)
    assert ContinuationSchedule(q_start=1e300, ratio=10.0, step_count=2).q_values()[-1] == 1e301


def _warped_heisenberg(heisenberg):
    """The Heisenberg frame under the point-dependent metric I + w w^T."""

    def gram(pts):
        w = np.stack([np.sin(pts[:, 1]), pts[:, 0], 0.5 * pts[:, 2]], axis=1)
        return np.eye(3) + w[:, :, None] * w[:, None, :]

    return SubRiemannianStructure(
        dimension=3, rank=2, metric=MetricField(gram=gram), frame=heisenberg.frame, name="warped"
    )


def _time_on_chord(path):
    """The path with its last (time) coordinate put back on its chord."""
    interior = path.interior()
    interior[:, -1] = DiscretePath.chord(path.start, path.end, path.grid_size).interior()[:, -1]
    return path.with_interior(interior)


def _assert_gradient_matches(structure, q, path, frozen=None):
    grad = energy_gradient(structure, q, path, frozen_coords=frozen)
    fd = fd_energy_gradient(structure, q, path).reshape(path.grid_size - 1, path.dimension)
    if frozen is not None:
        fd[:, frozen] = 0.0
    denom = np.max(np.abs(fd)) + 1e-12
    assert np.max(np.abs(grad - fd.ravel())) / denom < 1e-5


def test_gradient_matches_finite_differences(heisenberg, martinet, euclidean3, rng):
    for structure in (heisenberg, martinet, euclidean3):
        for q in (1.0, 100.0):
            _assert_gradient_matches(structure, q, random_path(structure, 12, rng, scale=0.3))
    # The presets' metrics are all Euclidean, so the warped metric is what
    # exercises the metric terms of the base-point derivative.  The lift's
    # fields come through the flow transport; its time coordinate s is
    # frozen on its chord, as in a drift solve.
    warped = _warped_heisenberg(heisenberg)
    lifted = build_lifted_structure(heisenberg, linear_drift(0.3 * np.eye(3)))
    start, end = np.zeros(4), np.array([1.0, 0.0, 0.0, 1.0])
    for q in (1.0, 10.0, 100.0):
        _assert_gradient_matches(warped, q, random_path(warped, 12, rng, scale=0.3))
        path = _time_on_chord(random_path(lifted, 12, rng, scale=0.3, start=start, end=end))
        _assert_gradient_matches(lifted, q, path, frozen=np.array([False, False, False, True]))


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
    everything = np.ones(3, dtype=bool)
    np.testing.assert_array_equal(energy_gradient(heisenberg, 5.0, path, frozen_coords=everything), 0.0)


def _h0_factor(structure, q, path, frozen=None):
    """H0 factored from the path's evaluation at q, as minimize_energy does."""
    if frozen is None:
        frozen = np.zeros(path.dimension, dtype=bool)
    return _velocity_hessian_factor(_evaluate(structure, q, path).factor.gram(q), frozen)


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
    x = _h0_factor(heisenberg, q, path).solve(b)
    _assert_solves(_dense_velocity_hessian(heisenberg, q, path), x, b)


@pytest.mark.parametrize("blocks", BLOCK_COUNTS)
def test_velocity_hessian_solve_frozen_time_coordinate(heisenberg, rng, blocks):
    # The lifted drift structure with s frozen, as the drift solver runs it:
    # the free coordinates solve the free part of H0, the frozen ones
    # return the right-hand side unchanged.
    drift = linear_drift(0.3 * np.eye(3))
    lifted = build_lifted_structure(heisenberg, drift)
    start = np.concatenate([rng.normal(size=3), [0.0]])
    end = np.concatenate([rng.normal(size=3), [1.0]])
    path = random_path(lifted, blocks + 1, rng, scale=0.3, start=start, end=end)
    s_line = DiscretePath.chord(start, end, blocks + 1).interior()[:, 3]
    interior = path.interior()
    interior[:, 3] = s_line
    path = path.with_interior(interior)
    frozen = np.array([False, False, False, True])
    b = rng.normal(size=blocks * 4)
    x = _h0_factor(lifted, 1e3, path, frozen).solve(b)

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
    # The stop rule: the Newton decrement g^T H0^{-1} g at the returned path.
    g = energy_gradient(heisenberg, 1.0, result.path)
    factor = _h0_factor(heisenberg, 1.0, result.path)
    assert float(g @ factor.solve(g)) <= DECREMENT_TOLERANCE * (1.0 + result.energy)


def test_solve_result_certificates_equal_the_functionals_bitwise(heisenberg, rng):
    path = random_path(
        heisenberg, 25, rng, scale=0.2, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    result = minimize_energy(heisenberg, 100.0, path, SolverConfig(grid_size=25))
    assert result.energy == energy(heisenberg, 100.0, result.path)
    assert result.length == length(heisenberg, 100.0, result.path)
    assert result.defect == horizontality_defect(heisenberg, result.path)


@pytest.mark.parametrize("lifted", [False, True])
def test_each_accepted_point_set_is_factored_once(heisenberg, rng, monkeypatch, lifted):
    # Factorizations are the evaluations (the start and every line-search
    # trial) alone; the gradient, H0 and the certificates reuse the accepted
    # trial's factor.  The lift transports each factored point set once and
    # each gradient's shifted midpoints once more, in one batch.
    from pengeo import drift, functionals, geometry, optimizer

    counts = {"factor": 0, "evaluate": 0, "transport": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (geometry, functionals):
        monkeypatch.setattr(module, "_factor_frame", counting("factor", module._factor_frame))
    monkeypatch.setattr(optimizer, "_evaluate", counting("evaluate", optimizer._evaluate))
    monkeypatch.setattr(
        drift.FlowMap, "transport_batch", counting("transport", drift.FlowMap.transport_batch)
    )

    structure, frozen = heisenberg, None
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    if lifted:
        structure = build_lifted_structure(heisenberg, linear_drift(0.3 * np.eye(3)))
        start, end = np.append(start, 0.0), np.append(end, 1.0)
        frozen = np.array([False, False, False, True])
    path = random_path(structure, 12, rng, scale=0.1, start=start, end=end)
    if lifted:
        path = _time_on_chord(path)

    result = minimize_energy(structure, 100.0, path, SolverConfig(grid_size=12), frozen)
    assert result.converged and result.iterations >= 1
    assert counts["evaluate"] >= result.iterations + 1
    gradients = result.iterations + 1
    assert counts["factor"] == counts["evaluate"]
    assert counts["transport"] == (counts["evaluate"] + gradients if lifted else 0)


def test_degenerate_trial_frame_backtracks(heisenberg):
    # At q = 1e8 and 1e12 the unit step from this path lands where the frame
    # Gram matrix is too ill conditioned to factor; that trial must fail the
    # Armijo test and backtrack rather than end the solve.
    for q in (1e8, 1e12):
        path = random_path(
            heisenberg, 10, np.random.default_rng(0), start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
        )
        result = minimize_energy(heisenberg, q, path, SolverConfig(grid_size=10, max_iterations=20))
        assert result.iterations == 20 and not result.converged
        assert result.energy < result.energy_history[0]


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


def test_solver_minimizers_have_even_speed(heisenberg):
    config = SolverConfig(grid_size=50)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=3)
    results = continuation_solve(
        heisenberg, (np.zeros(3), np.array([1.0, 0.0, 0.0])), sched, config
    )
    assert results[-1].speed_cv < 0.01
