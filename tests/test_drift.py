from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

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
    linear_drift,
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
    z = zero_drift(3)
    np.testing.assert_array_equal(z.A, np.zeros((3, 3)))
    np.testing.assert_array_equal(z.b, np.zeros(3))

    c = constant_drift([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(c.A, np.zeros((3, 3)))
    np.testing.assert_array_equal(c.b, [1.0, -2.0, 0.5])

    A = rng.normal(size=(3, 3))
    lin = linear_drift(A)
    np.testing.assert_array_equal(lin.A, A)
    np.testing.assert_array_equal(lin.b, np.zeros(3))
    with pytest.raises(ValueError):
        linear_drift(np.zeros((2, 3)))


def test_drift_field_validation():
    DriftField(name="ok", A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0])
    for A, b in (
        (np.zeros((2, 3)), np.zeros(2)),  # non-square A
        (np.zeros((2, 2)), np.zeros(3)),  # b of the wrong length
        (np.zeros(2), np.zeros(2)),  # A not a matrix
        ([[0.0, float("nan")], [0.0, 0.0]], np.zeros(2)),
        (np.zeros((2, 2)), [float("inf"), 0.0]),
    ):
        with pytest.raises(ValueError, match="drift field bad"):
            DriftField(name="bad", A=A, b=b)


def test_flow_map_group_property_and_inverse(rng):
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    flow = FlowMap(linear_drift(A))

    def flow_map(t, p):
        return flow.transport_batch(np.array([t]), p[None, :])[0][0]

    p = rng.normal(size=2)
    composed = flow_map(0.3, flow_map(0.4, p))
    np.testing.assert_allclose(composed, flow_map(0.7, p), atol=1e-9)
    y = flow_map(0.6, p)
    np.testing.assert_allclose(flow.inverse(0.6, y), p, atol=1e-10)
    np.testing.assert_array_equal(flow.inverse(0.0, y), y)


def test_flow_map_transport_batch_matches_scalar(rng):
    A = np.array([[0.1, 0.8], [0.0, -0.4]])
    flow = FlowMap(linear_drift(A))
    times = np.array([0.0, 0.25, 0.5, 0.25])
    pts = rng.normal(size=(4, 2))
    images, jacs = flow.transport_batch(times, pts)
    for i in range(4):
        (pt_i,), (jac_i,) = flow.transport_batch(times[i : i + 1], pts[i : i + 1])
        np.testing.assert_allclose(images[i], pt_i, atol=1e-12)
        np.testing.assert_allclose(jacs[i], jac_i, atol=1e-12)


def _per_row_exact_transport(drift, times, points):
    """The affine transport one row at a time from scipy's exp(t Ahat)."""
    A, b = drift.A, drift.b
    n = b.size
    aug = np.block([[A, b[:, None]], [np.zeros((1, n + 1))]])
    flows = np.array([expm(t * aug) for t in times])
    mats, offs = flows[:, :n, :n], flows[:, :n, n]
    return np.einsum("mij,mj->mi", mats, points) + offs, mats


_SKEWED = np.array([[0.1, 0.8, 0.0], [0.0, -0.4, 0.3], [0.2, 0.0, 0.1]])


def _assert_matches_exact_transport(flow, rng):
    # Repeats and t = 0 in one batch.
    times = np.array([0.5, 0.0, 0.75, 0.25, 0.75, 0.1, 0.5, 0.0, 1.0])
    pts = rng.normal(size=(times.size, 3))
    images, jacs = flow.transport_batch(times, pts)
    ref_images, ref_jacs = _per_row_exact_transport(flow.drift, times, pts)
    # Exact up to roundoff, relative to the largest entry of the reference.
    assert np.max(np.abs(images - ref_images)) <= 1e-13 * np.max(np.abs(ref_images))
    assert np.max(np.abs(jacs - ref_jacs)) <= 1e-13 * np.max(np.abs(ref_jacs))
    np.testing.assert_array_equal(jacs[1], np.eye(3))
    np.testing.assert_array_equal(images[1], pts[1])


def test_flow_map_transport_batch_matches_per_row_loop_exactly(rng):
    _assert_matches_exact_transport(FlowMap(linear_drift(_SKEWED)), rng)


@pytest.mark.parametrize(
    "scale, b, squarings",
    # ||Ahat||_1 = 6 and 40: the scaled series is squared 3 and 6 times.
    [(5.0, [0.5, -1.0, 0.0], 3), (20.0, [2.0, 8.0, -30.0], 6)],
)
def test_flow_map_squarings_match_exact_transport(rng, scale, b, squarings):
    A, b = scale * _SKEWED, np.array(b)
    flow = FlowMap(DriftField(name="affine", A=A, b=b))
    assert flow._squarings == squarings
    _assert_matches_exact_transport(flow, rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_map_diverging_affine_flow_raises():
    flow = FlowMap(linear_drift(1e6 * np.eye(2)))
    with pytest.raises(FloatingPointError, match="drift field linear diverged"):
        flow.transport_batch(np.array([0.0, 1.0]), np.ones((2, 2)))
    with pytest.raises(FloatingPointError, match="drift field linear diverged"):
        flow.inverse(1.0, np.ones(2))


def test_flow_map_rejects_times_outside_unit_interval():
    flow = FlowMap(constant_drift([1.0]))
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            flow.transport_batch(np.array([bad]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            flow.inverse(bad, [0.0])


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
    with pytest.raises(ValueError, match="drift field zero does not act on dimension 3"):
        solve_drift_problem(
            euclidean3, zero_drift(2), np.zeros(3), np.ones(3), sched, config
        )
