from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

import pengeo.drift as drift_module
from pengeo import (
    ContinuationSchedule,
    DriftField,
    FlowMap,
    SolverConfig,
    build_lifted_structure,
    constant_drift,
    continuation_solve,
    euclidean_structure,
    get_problem,
    integrate_flow,
    linear_drift,
    pullback_control,
    solve_drift_problem,
    zero_drift,
)


def _gramian_min_cost(A: np.ndarray, x0: np.ndarray, y: np.ndarray, nodes: int = 4001) -> float:
    """Minimum-energy steering cost for x' = A x + u via Simpson quadrature.

    The reachability Gramian W = int_0^1 e^{(1-s)A} e^{(1-s)A^T} ds gives
    cost = r^T W^{-1} r with r = y - e^A x0.  Simpson on a fine grid of the
    integrand keeps the quadrature independent of any closed form.
    """
    taus = np.linspace(0.0, 1.0, nodes)
    stack = np.array([expm(tau * A) @ expm(tau * A).T for tau in taus])
    h = taus[1] - taus[0]
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    W = (h / 3.0) * np.einsum("m,mij->ij", weights, stack)
    r = y - expm(A) @ x0
    return float(r @ np.linalg.solve(W, r))


def test_drift_factories_and_jacobians(rng):
    p = rng.normal(size=3)
    z = zero_drift(3)
    np.testing.assert_array_equal(z(0.3, p), np.zeros(3))
    np.testing.assert_array_equal(z.jac(0.3, p), np.zeros((3, 3)))

    c = constant_drift([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(c(0.9, p), [1.0, -2.0, 0.5])
    np.testing.assert_array_equal(c.jac(0.9, p), np.zeros((3, 3)))

    A = rng.normal(size=(3, 3))
    lin = linear_drift(A)
    np.testing.assert_allclose(lin(0.0, p), A @ p)
    np.testing.assert_allclose(lin.jac(0.0, p), A)
    with pytest.raises(ValueError):
        linear_drift(np.zeros((2, 3)))


def test_drift_field_shape_check_and_fd_jacobian(rng):
    bad = DriftField(name="bad", eval=lambda t, p: np.zeros(2))
    with pytest.raises(ValueError):
        bad(0.0, np.zeros(3))

    swirl = DriftField(
        name="swirl",
        eval=lambda t, p: np.array([np.sin(p[1]), np.cos(p[0])]),
    )
    p = rng.normal(size=2)
    expected = np.array([[0.0, np.cos(p[1])], [-np.sin(p[0]), 0.0]])
    np.testing.assert_allclose(swirl.jac(0.0, p), expected, atol=1e-8)


def test_integrate_flow_constant_is_exact(rng):
    c = np.array([0.4, -1.1])
    p = rng.normal(size=2)
    point, jac = integrate_flow(constant_drift(c), p, 0.7, 10)
    np.testing.assert_allclose(point, p + 0.7 * c, atol=1e-14)
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-14)


def test_integrate_flow_linear_matches_matrix_exponential(rng):
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    p = rng.normal(size=2)
    point, jac = integrate_flow(linear_drift(A), p, 1.0, 100)
    exact = expm(A)
    np.testing.assert_allclose(point, exact @ p, atol=1e-8)
    np.testing.assert_allclose(jac, exact, atol=1e-8)


def test_integrate_flow_validation():
    c = constant_drift([1.0])
    with pytest.raises(ValueError):
        integrate_flow(c, [0.0], -0.1, 10)
    with pytest.raises(ValueError):
        integrate_flow(c, [0.0], 1.5, 10)
    with pytest.raises(ValueError):
        integrate_flow(c, [0.0], 0.5, 0)
    point, jac = integrate_flow(c, [3.0], 0.0, 10)
    np.testing.assert_array_equal(point, [3.0])
    np.testing.assert_array_equal(jac, [[1.0]])


def test_integrate_flow_detects_divergence():
    nan_field = DriftField(name="nan", eval=lambda t, p: np.array([float("nan")]))
    with pytest.raises(FloatingPointError):
        integrate_flow(nan_field, [0.0], 1.0, 4)


def test_flow_map_group_property_and_inverse(rng):
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    flow = FlowMap(linear_drift(A), steps_per_unit=200)
    p = rng.normal(size=2)
    composed = flow.map(0.3, flow.map(0.4, p))
    np.testing.assert_allclose(composed, flow.map(0.7, p), atol=1e-9)
    y = flow.map(0.6, p)
    np.testing.assert_allclose(flow.inverse(0.6, y), p, atol=1e-10)
    np.testing.assert_array_equal(flow.inverse(0.0, y), y)
    with pytest.raises(ValueError):
        FlowMap(linear_drift(A), steps_per_unit=0)


def test_flow_map_inverse_for_nonaffine_field(rng):
    swirl = DriftField(
        name="swirl",
        eval=lambda t, p: 0.5 * np.array([np.sin(p[1]), np.cos(p[0])]),
    )
    flow = FlowMap(swirl, steps_per_unit=400)
    p = rng.normal(size=2)
    y = flow.map(1.0, p)
    np.testing.assert_allclose(flow.inverse(1.0, y), p, atol=1e-6)


def test_flow_map_transport_batch_matches_scalar(rng):
    A = np.array([[0.1, 0.8], [0.0, -0.4]])
    flow = FlowMap(linear_drift(A), steps_per_unit=100)
    times = np.array([0.0, 0.25, 0.5, 0.25])
    pts = rng.normal(size=(4, 2))
    images, jacs = flow.transport_batch(times, pts)
    for i in range(4):
        pt_i, jac_i = flow.transport(float(times[i]), pts[i])
        np.testing.assert_allclose(images[i], pt_i, atol=1e-12)
        np.testing.assert_allclose(jacs[i], jac_i, atol=1e-12)


def _per_row_affine_transport(drift, steps_per_unit, times, points):
    """The affine transport one row at a time: integrate, stack, matmul."""
    m, n = points.shape
    mats = np.empty((m, n, n))
    offs = np.empty((m, n))
    for i, t in enumerate(times):
        if t == 0.0:
            mats[i], offs[i] = np.eye(n), 0.0
        else:
            steps = max(1, int(np.ceil(steps_per_unit * t)))
            offs[i], mats[i] = integrate_flow(drift, np.zeros(n), t, steps)
    return np.einsum("mij,mj->mi", mats, points) + offs, mats


def test_flow_map_transport_batch_matches_per_row_loop_exactly(rng):
    drift = linear_drift(np.array([[0.1, 0.8, 0.0], [0.0, -0.4, 0.3], [0.2, 0.0, 0.1]]))
    flow = FlowMap(drift, steps_per_unit=50)
    flow.transport_batch(np.array([0.25, 0.5]), rng.normal(size=(2, 3)))
    # Hits (0.25, 0.5), misses (0.75, 0.1), repeats and t = 0 in one batch.
    times = np.array([0.5, 0.0, 0.75, 0.25, 0.75, 0.1, 0.5, 0.0])
    pts = rng.normal(size=(times.size, 3))
    images, jacs = flow.transport_batch(times, pts)
    ref_images, ref_jacs = _per_row_affine_transport(drift, 50, times, pts)
    np.testing.assert_array_equal(images, ref_images)
    np.testing.assert_array_equal(jacs, ref_jacs)


def test_flow_map_cache_stays_bounded(rng, monkeypatch):
    monkeypatch.setattr(drift_module, "FLOW_CACHE_LIMIT", 4)
    drift = linear_drift(np.array([[0.1, 0.8], [0.0, -0.4]]))
    flow = FlowMap(drift, steps_per_unit=20)
    for start in range(5):
        times = (start + np.array([0.0, 1.0, 2.0])) / 8.0
        pts = rng.normal(size=(3, 2))
        images, jacs = flow.transport_batch(times, pts)
        assert flow._times.size <= 4
        ref_images, ref_jacs = _per_row_affine_transport(drift, 20, times, pts)
        np.testing.assert_array_equal(images, ref_images)
        np.testing.assert_array_equal(jacs, ref_jacs)


def test_pullback_control_round_trip(rng):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    flow = FlowMap(linear_drift(A), steps_per_unit=100)
    p = rng.normal(size=2)

    def control(t, x):
        return np.array([x[0], 1.0 - t])

    u = pullback_control(flow, control, 0.5, p)
    image, jac = flow.transport(0.5, p)
    np.testing.assert_allclose(jac @ u, control(0.5, image), atol=1e-12)


def test_lifted_structure_blocks_for_zero_drift(heisenberg, rng):
    lifted = build_lifted_structure(heisenberg, zero_drift(3))
    assert lifted.dimension == 4
    assert lifted.rank == 3
    pts = np.column_stack([rng.normal(size=(5, 3)), rng.uniform(0.0, 1.0, size=5)])
    gram = lifted.metric.gram_batch(pts)
    base_gram = heisenberg.metric.gram_batch(pts[:, :3])
    np.testing.assert_allclose(gram[:, :3, :3], base_gram, atol=1e-12)
    np.testing.assert_allclose(gram[:, 3, 3], 1.0, atol=1e-15)
    np.testing.assert_allclose(gram[:, :3, 3], 0.0, atol=1e-15)
    cols = lifted.frame.frame_batch(pts)
    base_cols = heisenberg.frame.frame_batch(pts[:, :3])
    np.testing.assert_allclose(cols[:, :3, :2], base_cols, atol=1e-12)
    np.testing.assert_allclose(cols[:, 3, 2], 1.0, atol=1e-15)
    np.testing.assert_allclose(cols[:, :3, 2], 0.0, atol=1e-15)


def test_lifted_structure_transports_through_constant_drift(euclidean3, rng):
    # A constant field has identity flow Jacobian, so the lifted metric's
    # p block equals the base metric at the translated point.
    drift = constant_drift([0.2, 0.0, -0.1])
    lifted = build_lifted_structure(euclidean3, drift)
    pts = np.column_stack([rng.normal(size=(4, 3)), rng.uniform(0.0, 1.0, size=4)])
    gram = lifted.metric.gram_batch(pts)
    np.testing.assert_allclose(gram[:, :3, :3], np.tile(np.eye(3), (4, 1, 1)), atol=1e-12)


@pytest.fixture(scope="module")
def constant_1d_solution():
    prob = get_problem("drift-constant-1d")
    config = SolverConfig(grid_size=prob.grid_size)
    return solve_drift_problem(
        prob.structure,
        prob.drift,
        prob.start,
        prob.end,
        prob.schedule,
        config,
        integrator_steps=prob.integrator_steps,
    )


def test_constant_drift_cancellation_oracle(constant_1d_solution):
    # Holding position against unit drift costs exactly the drift energy:
    # u = -1 throughout, trajectory pinned at the origin.
    sol = constant_1d_solution
    assert sol.success
    assert sol.control_cost == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(sol.trajectory[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.control_mid[:, 0], -1.0, atol=1e-10)
    np.testing.assert_allclose(sol.control_grid[:, 0], -1.0, atol=1e-10)
    assert sol.cost_identity_gap <= 1e-12
    assert sol.endpoint_mismatch <= 1e-12
    assert sol.time_rate_deviation <= 1e-12
    assert sol.control_defect <= 1e-10


def test_constant_drift_shapes(constant_1d_solution):
    sol = constant_1d_solution
    N = sol.trajectory.shape[0] - 1
    assert sol.control_grid.shape == (N + 1, 1)
    assert sol.control_mid.shape == (N, 1)
    assert len(sol.results) == 5


def test_linear_drift_cost_matches_gramian_oracle():
    prob = get_problem("drift-linear-2d")
    config = SolverConfig(grid_size=prob.grid_size)
    sol = solve_drift_problem(
        prob.structure,
        prob.drift,
        prob.start,
        prob.end,
        prob.schedule,
        config,
        integrator_steps=prob.integrator_steps,
    )
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    oracle = _gramian_min_cost(A, prob.start, prob.end)
    # the quadrature oracle and the closed-form value agree to tight accuracy
    assert oracle == pytest.approx(12.0 / 13.0, rel=1e-10)
    assert sol.control_cost == pytest.approx(oracle, rel=0.01)
    assert sol.cost_identity_gap <= 1e-6 * (1.0 + abs(sol.control_cost))
    assert sol.success


def test_zero_drift_solve_reduces_to_base(euclidean3):
    start = np.zeros(3)
    end = np.ones(3)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=3)
    config = SolverConfig(grid_size=20)
    base = continuation_solve(euclidean3, (start, end), sched, config)
    lifted = solve_drift_problem(
        euclidean3, zero_drift(3), start, end, sched, config
    )
    for lift_res, base_res in zip(lifted.results, base):
        assert lift_res.energy - 0.5 == pytest.approx(base_res.energy, abs=1e-8)
    assert lifted.control_cost == pytest.approx(2.0 * base[-1].energy, abs=1e-8)


def test_drift_solver_rejects_wrong_dimensions(euclidean3):
    config = SolverConfig(grid_size=10)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=2)
    with pytest.raises(ValueError):
        solve_drift_problem(
            euclidean3, zero_drift(2), np.zeros(3), np.ones(3), sched, config
        )
