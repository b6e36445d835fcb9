from __future__ import annotations

import logging

import numpy as np
import pytest
from scipy.linalg import expm

from pengeo import (
    ContinuationSchedule,
    DiscretePath,
    DriftField,
    SolverConfig,
    constant_drift,
    continuation_solve,
    get_problem,
    linear_drift,
    solve_drift_problem,
    validate_bracket_generating,
    zero_drift,
)
from pengeo.drift import _lift, _lifted_evaluation, _pull_back
from pengeo.functionals import _evaluate, _evaluate_segments, _segments
from pengeo.geometry import _factor_frame
from conftest import assert_same_evaluation


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


def test_drift_field_builds_its_flow_series_on_first_use():
    # Building a preset computes no exponential; the first transport does,
    # once, and the inverse flow reads the same series.
    drift = get_problem("heisenberg-drift").drift
    assert "_series" not in vars(drift)
    drift.transport_batch(np.array([0.5]), np.zeros((1, 3)))
    series = vars(drift)["_series"]
    drift.inverse(1.0, np.zeros(3))
    assert vars(drift)["_series"] is series


def test_flow_map_group_property_and_inverse(rng):
    A = np.array([[0.0, 1.0], [-1.0, -0.2]])
    drift = linear_drift(A)

    def flow_map(t, p):
        return drift.transport_batch(np.array([t]), p[None, :])[0][0]

    p = rng.normal(size=2)
    composed = flow_map(0.3, flow_map(0.4, p))
    np.testing.assert_allclose(composed, flow_map(0.7, p), atol=1e-9)
    y = flow_map(0.6, p)
    np.testing.assert_allclose(drift.inverse(0.6, y), p, atol=1e-10)
    np.testing.assert_array_equal(drift.inverse(0.0, y), y)


def test_flow_map_transport_batch_matches_scalar(rng):
    A = np.array([[0.1, 0.8], [0.0, -0.4]])
    drift = linear_drift(A)
    times = np.array([0.0, 0.25, 0.5, 0.25])
    pts = rng.normal(size=(4, 2))
    images, jacs, _ = drift.transport_batch(times, pts)
    for i in range(4):
        (pt_i,), (jac_i,), _ = drift.transport_batch(times[i : i + 1], pts[i : i + 1])
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


def _assert_matches_exact_transport(drift, rng):
    # Repeats and t = 0 in one batch.
    times = np.array([0.5, 0.0, 0.75, 0.25, 0.75, 0.1, 0.5, 0.0, 1.0])
    pts = rng.normal(size=(times.size, 3))
    images, jacs, _ = drift.transport_batch(times, pts)
    ref_images, ref_jacs = _per_row_exact_transport(drift, times, pts)
    # Exact up to roundoff, relative to the largest entry of the reference.
    assert np.max(np.abs(images - ref_images)) <= 1e-13 * np.max(np.abs(ref_images))
    assert np.max(np.abs(jacs - ref_jacs)) <= 1e-13 * np.max(np.abs(ref_jacs))
    np.testing.assert_array_equal(jacs[1], np.eye(3))
    np.testing.assert_array_equal(images[1], pts[1])


def test_flow_map_transport_batch_matches_per_row_loop_exactly(rng):
    _assert_matches_exact_transport(linear_drift(_SKEWED), rng)


@pytest.mark.parametrize(
    "scale, b, squarings",
    # ||Ahat||_1 = 6 and 40: the scaled series is squared 3 and 6 times.
    [(5.0, [0.5, -1.0, 0.0], 3), (20.0, [2.0, 8.0, -30.0], 6)],
)
def test_flow_map_squarings_match_exact_transport(rng, scale, b, squarings):
    A, b = scale * _SKEWED, np.array(b)
    drift = DriftField(name="affine", A=A, b=b)
    assert drift._series[0] == squarings
    _assert_matches_exact_transport(drift, rng)


def test_flow_map_inverse_flow_matches_the_inverse_matrix(rng):
    # exp(-t Ahat) comes from the same series and squarings as exp(t Ahat),
    # with no solve.  A rotation at rate 3 is not nilpotent and has
    # ||Ahat||_1 = 3, so its series is squared twice.  The measured
    # gap to np.linalg.inv is 8.9e-16 relative (1.9e-15 on other hosts); the
    # bound of 1e-13 is the one the transport tests use, fifty times that.
    A, b = 3.0 * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, -0.5])
    drift = DriftField(name="rotation", A=A, b=b)
    assert drift._series[0] == 2
    times = np.linspace(0.0, 1.0, 11)
    pts = rng.normal(size=(times.size, 2))
    images, jacs, inverses = drift.transport_batch(times, pts)
    reference = np.linalg.inv(jacs)
    assert np.max(np.abs(inverses - reference)) <= 1e-13 * np.max(np.abs(reference))
    back = np.array([drift.inverse(t, y) for t, y in zip(times, images)])
    assert np.max(np.abs(back - pts)) <= 1e-13 * np.max(np.abs(pts))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_map_diverging_affine_flow_raises():
    drift = linear_drift(1e6 * np.eye(2))
    with pytest.raises(FloatingPointError, match="drift field linear diverged"):
        drift.transport_batch(np.array([0.0, 1.0]), np.ones((2, 2)))
    with pytest.raises(FloatingPointError, match="drift field linear diverged"):
        drift.inverse(1.0, np.ones(2))


def test_flow_map_rejects_times_outside_unit_interval():
    drift = constant_drift([1.0])
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            drift.transport_batch(np.array([bad]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            drift.inverse(bad, [0.0])


def test_pulled_back_fields_are_the_base_fields_under_zero_drift(heisenberg, rng):
    # The zero drift's flow is the identity, so at any time the pulled-back
    # fields are the base fields.
    pulled = _pull_back(heisenberg, zero_drift(3))
    assert pulled.dimension == 3
    pts = rng.normal(size=(5, 3))
    gram, cols = pulled._fields(pts, rng.uniform(0.0, 1.0, size=5))
    assert cols.shape == (5, 3, 2)
    base_gram, base_cols = heisenberg._fields(pts)
    np.testing.assert_array_equal(gram, base_gram)
    np.testing.assert_array_equal(cols, base_cols)


def test_pulled_back_bracket_certificate_is_the_base_one(heisenberg, martinet, rng):
    # The certificate reads the frame at time 0, where the flow Jacobian is
    # the identity, so a pulled-back structure's frame there is its base
    # frame bitwise and its certificate the base one, also for a flow whose
    # exponential takes squarings.
    spin = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for base in (heisenberg, martinet):
        for drift in (linear_drift(spin), constant_drift([0.2, 0.0, -0.1])):
            pulled = _pull_back(base, drift)
            for p in (rng.normal(size=3), np.array([0.3, 0.0, -0.1])):
                for a, b in zip(pulled._fields(p[None, :], np.zeros(1)), base._fields(p[None, :])):
                    np.testing.assert_array_equal(a, b)
                certificate = validate_bracket_generating(pulled, p, 3)
                assert certificate == validate_bracket_generating(base, p, 3)
    assert validate_bracket_generating(_pull_back(martinet, linear_drift(spin)), np.zeros(3), 3) == (3, 3)


def test_pulled_back_metric_is_the_identity_under_constant_drift(euclidean3, rng):
    # A constant field has identity flow Jacobian, so the pulled-back metric
    # equals the base metric at the translated point.
    pulled = _pull_back(euclidean3, constant_drift([0.2, 0.0, -0.1]))
    gram, _ = pulled._fields(rng.normal(size=(4, 3)), rng.uniform(0.0, 1.0, size=4))
    np.testing.assert_allclose(gram, np.tile(np.eye(3), (4, 1, 1)), atol=1e-12)


def test_time_dependent_fields_need_the_points_times(heisenberg):
    # A frame factor read without times fails on a drift's pulled-back
    # fields, which cannot do without them.
    pulled = _pull_back(heisenberg, linear_drift(0.3 * np.eye(3)))
    with pytest.raises(ValueError, match="change in time and need the points' times"):
        _factor_frame(pulled, np.zeros((2, 3)))


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
    assert sol.results[-1].defect <= 1e-10


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


@pytest.mark.parametrize("name", ["drift-constant-1d", "drift-linear-2d", "heisenberg-drift"])
def test_drift_rungs_are_reported_on_the_lift(name):
    # The ladder runs on R^n; each rung is reported on the lifted path (p, t),
    # whose forms are the pulled-back ones with v_s^2 added to the horizontal
    # form: the same defect, and the energy plus the mean of v_s^2 / 2.
    prob = get_problem(name)
    sol = solve_drift_problem(
        prob.structure,
        prob.drift,
        prob.start,
        prob.end,
        prob.schedule,
        SolverConfig(grid_size=prob.grid_size),
        seed_deflection=prob.seed_deflection(),
    )
    pulled = _pull_back(prob.structure, prob.drift)
    n = prob.structure.dimension
    for r in sol.results:
        assert r.path.dimension == n + 1
        np.testing.assert_array_equal(r.path.points[:, -1], r.path.times)
        lifted = _lifted_evaluation(pulled, r.path)
        certificates = [r.energy, r.length, r.defect, r.speed_cv]
        assert certificates == [lifted.energy(r.q), lifted.length(r.q), lifted.defect, lifted.speed_cv(r.q)]
        reduced = _evaluate(pulled, DiscretePath(r.path.points[:, :n]))
        assert r.defect == reduced.defect
        N = r.path.grid_size
        time_speeds = N * np.diff(r.path.points[:, -1])
        expected = reduced.energy(r.q) + np.sum(time_speeds**2) / (2.0 * N)
        assert r.energy == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_drift_solve_at_the_iteration_cap_is_not_a_success(caplog):
    # One iteration per rung leaves heisenberg-drift's upper rungs short of
    # their stop test: the solve returns, unsuccessful, and says so.
    prob = get_problem("heisenberg-drift")
    with caplog.at_level(logging.WARNING, logger="pengeo"):
        sol = solve_drift_problem(
            prob.structure,
            prob.drift,
            prob.start,
            prob.end,
            prob.schedule,
            SolverConfig(max_iterations=1, grid_size=prob.grid_size),
            seed_deflection=prob.seed_deflection(),
        )
    assert sol.success is False
    assert not all(r.converged for r in sol.results)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(w.startswith("drift solve on heisenberg+drift:") for w in warnings)
    assert any("hit the iteration cap" in w for w in warnings)


def test_control_defect_reads_the_base_frame(heisenberg):
    # The control defect is by construction the last rung's defect, read in
    # the pulled-back frame.  Read independently, from the recovered control
    # in the base frame at the transported midpoints, it is the same number
    # up to roundoff, and the two forms there add to the control cost.  The
    # drift's flow Jacobian is not symmetric, so a transposed or dropped
    # Jacobian in the control recovery shows.
    drift = linear_drift(np.array([[0.0, -0.4, 0.0], [0.4, 0.0, 0.0], [0.0, 0.2, 0.1]]))
    schedule = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=5)
    end = np.array([1.0, 0.0, 0.05])
    config = SolverConfig(grid_size=40)
    sol = solve_drift_problem(heisenberg, drift, np.zeros(3), end, schedule, config)
    assert sol.success
    assert sol.results[-1].defect > 1e-9
    mids, _ = _segments(sol.results[-1].path)
    base_mid = drift.transport_batch(mids[:, 3], mids[:, :3])[0]
    control = _evaluate_segments(heisenberg, base_mid, None, sol.control_mid)
    horizontal, vertical = control.horizontal, control.vertical
    assert sol.results[-1].defect == pytest.approx(np.sum(vertical) / 40, rel=1e-10)
    assert sol.control_cost == pytest.approx(np.sum(horizontal + vertical) / 40, rel=1e-12)


def test_lifted_evaluation_reforms_bitwise():
    # The lifted evaluation of a path (p, s) is, at every q, bitwise the
    # evaluation of the p path with the lift's v_s^2 added to its horizontal
    # form: the reading of every reported drift rung.
    prob = get_problem("heisenberg-drift")
    pulled = _pull_back(prob.structure, prob.drift)
    chord = DiscretePath.chord(prob.start, prob.end, 12)
    jitter = 0.1 * np.random.default_rng(3).normal(size=(11, 3))
    path = chord.with_interior(chord.interior() + jitter)
    lifted = DiscretePath(np.column_stack([path.points, path.times]))
    time_speeds = _segments(lifted)[1][:, -1]
    on_lift, on_path = _lifted_evaluation(pulled, lifted), _lift(_evaluate(pulled, path), time_speeds)
    for q in (1.0, 10.0, 1e4, 1e6):
        assert_same_evaluation(on_lift, on_path, q)


def test_drift_solve_factors_each_point_set_once(monkeypatch):
    # The lifted reports read the ladder's own evaluations, and the q = 1
    # lifted energy and the control defect the last rung's, so the frame is
    # factored once per ladder evaluation and nowhere else: 17 times on
    # heisenberg-drift, where factoring each report again took 24.
    from pengeo import functionals, geometry, optimizer

    counts = dict.fromkeys(["factor", "evaluate"], 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (geometry, functionals):
        monkeypatch.setattr(module, "_factor_frame", counting("factor", module._factor_frame))
    monkeypatch.setattr(optimizer, "_evaluate", counting("evaluate", optimizer._evaluate))
    prob = get_problem("heisenberg-drift")
    sol = solve_drift_problem(
        prob.structure,
        prob.drift,
        prob.start,
        prob.end,
        prob.schedule,
        SolverConfig(grid_size=prob.grid_size),
        seed_deflection=prob.seed_deflection(),
    )
    assert sol.success
    assert counts["factor"] == counts["evaluate"] == 17


def test_drift_solver_rejects_a_lifted_seed_deflection():
    prob = get_problem("heisenberg-drift")
    N, n = prob.grid_size, prob.structure.dimension
    with pytest.raises(ValueError, match=r"seed_deflection must have shape \(101, 3\)"):
        solve_drift_problem(
            prob.structure,
            prob.drift,
            prob.start,
            prob.end,
            prob.schedule,
            SolverConfig(grid_size=N),
            seed_deflection=np.zeros((N + 1, n + 1)),
        )
