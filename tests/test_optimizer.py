from __future__ import annotations

import logging
import sys
from dataclasses import replace

import numpy as np
import pytest

from pengeo import (
    ContinuationSchedule,
    DiscretePath,
    SolverConfig,
    SubRiemannianStructure,
    continuation_solve,
    energy,
    energy_gradient,
    horizontality_defect,
    length,
    linear_drift,
    get_problem,
    minimize_energy,
    problem_names,
    sinusoidal_deflection,
    vertical_heisenberg_problem,
)
from pengeo.drift import _lifted_result, _pull_back
from pengeo.functionals import _evaluate, _evaluate_segments
from pengeo.geometry import DegenerateFrameError, _field_stencil
from pengeo.optimizer import (
    DECREMENT_TOLERANCE,
    StepUnderflowError,
    _base_point_hessian,
    _BlockTridiagonalFactor,
    _gradient,
    _velocity_decrement,
    _velocity_hessian,
)
from conftest import (
    count_calls,
    fd_energy_gradient,
    fd_energy_hessian,
    nan_hessian,
    random_path,
    stalled_line_search,
)
from test_geometry import _ClockedStructure


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
        dimension=3, metric=gram, frame=heisenberg.frame, name="warped"
    )


def _mixed_frame_heisenberg():
    """A Heisenberg-like frame (1, 0, x y - y/2), (0, 1, x/2 + y z) under the
    flat metric: its second derivatives along (x, y) and (y, z) are nonzero."""

    def columns(pts):
        x, y, z = pts.T
        F = np.zeros((pts.shape[0], 3, 2))
        F[:, 0, 0] = F[:, 1, 1] = 1.0
        F[:, 2, 0] = x * y - 0.5 * y
        F[:, 2, 1] = 0.5 * x + y * z
        return F

    return SubRiemannianStructure(
        dimension=3,
        metric=lambda pts: np.eye(3),
        frame=columns,
        name="mixed-frame",
    )


def _bent_line_on_the_plane():
    """A rank-1 frame (1 + y^2/2, x y - x/2) on R^2 under the metric I + w w^T,
    w = (sin y, x): n = 2 and k = 1, unlike every other Hessian case."""

    def gram(pts):
        w = np.stack([np.sin(pts[:, 1]), pts[:, 0]], axis=1)
        return np.eye(2) + w[:, :, None] * w[:, None, :]

    def columns(pts):
        x, y = pts.T
        return np.stack([1.0 + 0.5 * y**2, x * y - 0.5 * x], axis=1)[:, :, None]

    return SubRiemannianStructure(
        dimension=2, metric=gram, frame=columns, name="bent-line"
    )


def _varying_line():
    """The frame 1 + x/2 on R^1 under the metric 1 + x^2: n = 1, so there
    are no mixed second differences and the corner stencil is empty."""
    return SubRiemannianStructure(
        dimension=1,
        metric=lambda pts: 1.0 + pts[:, :, None] ** 2,
        frame=lambda pts: 1.0 + 0.5 * pts[:, :, None],
        name="varying-line",
    )


def _warped_rank_two_on_r4():
    """A rank-2 frame on R^4 whose columns and the metric I + w w^T all vary
    in every coordinate, with nonzero mixed second derivatives: n = 4."""

    def gram(pts):
        x0, x1, x2, x3 = pts.T
        w = np.stack([np.sin(x1), x0, 0.5 * x2, x3 * x0], axis=1)
        return np.eye(4) + w[:, :, None] * w[:, None, :]

    def columns(pts):
        x0, x1, x2, x3 = pts.T
        F = np.zeros((pts.shape[0], 4, 2))
        F[:, 0, 0] = F[:, 1, 1] = 1.0
        F[:, 2, 0] = x0 * x1 - 0.5 * x1 + x3
        F[:, 3, 0] = x2 * x3
        F[:, 2, 1] = 0.5 * x0 + x1 * x2
        F[:, 3, 1] = x0 * x3 - 0.5 * x2**2
        return F

    return SubRiemannianStructure(
        dimension=4, metric=gram, frame=columns, name="warped-r4"
    )


def _drift_heisenberg(heisenberg):
    """The Heisenberg drift problem on R^3 under the linear drift 0.3 p: its
    fields are the pulled-back, time-dependent ones of a drift solve."""
    return _pull_back(heisenberg, linear_drift(0.3 * np.eye(3)))


def _rotating_heisenberg(heisenberg):
    """The Heisenberg drift problem on R^3 under the rotation drift about z,
    X = (-2 y, 2 x, 0).  The rotation keeps the flat metric and the
    distribution, so the pulled-back metric is G and the pulled-back frame is
    F R(2t) with R(2t) a planar rotation: dF changes with t, and a field
    derivative read at another segment's time gives a wrong gradient."""
    return _pull_back(heisenberg, linear_drift([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def _assert_gradient_matches(structure, q, path):
    grad = energy_gradient(structure, q, path)
    fd = fd_energy_gradient(structure, q, path)
    denom = np.max(np.abs(fd)) + 1e-12
    assert np.max(np.abs(grad - fd)) / denom < 1e-5


def test_gradient_matches_finite_differences(heisenberg, martinet, euclidean3, rng):
    for structure in (heisenberg, martinet, euclidean3):
        for q in (1.0, 100.0):
            _assert_gradient_matches(structure, q, random_path(structure, 12, rng, scale=0.3))
    # The presets' metrics are all Euclidean, so the warped metric is what
    # exercises the metric terms of the base-point derivative.  The drift
    # problems' fields come through the flow transport at the segment
    # mid-times, as in a drift solve; under the linear drift 0.3 p the
    # derivatives dG = 0 and dF do not change with t, under the rotation they
    # do, so only the rotation sees a field read at the wrong time.
    warped = _warped_heisenberg(heisenberg)
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    for q in (1.0, 10.0, 100.0):
        _assert_gradient_matches(warped, q, random_path(warped, 12, rng, scale=0.3))
        for drifted in (_drift_heisenberg(heisenberg), _rotating_heisenberg(heisenberg)):
            path = random_path(drifted, 12, rng, scale=0.3, start=start, end=end)
            _assert_gradient_matches(drifted, q, path)


def test_gradient_from_reused_field_differences_is_bitwise(heisenberg, rng):
    # A warm start passes the previous rung's evaluation on as it is, with
    # the field differences it keeps: read at the new q, its gradient and
    # q-slope are bitwise those of a fresh evaluation, and the differences
    # are not read again.
    drifted = _drift_heisenberg(heisenberg)
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    for structure in (heisenberg, drifted):
        path = random_path(structure, 12, rng, scale=0.3, start=start, end=end)
        evaluation = _evaluate(structure, path)
        _gradient(evaluation, 10.0)  # the previous rung's read of the differences
        differences = evaluation.differences
        for q in (1.0, 1e3):
            g, slope = _gradient(evaluation, q)
            fresh = _gradient(_evaluate(structure, path), q)
            np.testing.assert_array_equal(g, energy_gradient(structure, q, path))
            np.testing.assert_array_equal(slope, fresh[1])
            assert evaluation.differences is differences


def test_evaluation_keeps_the_parts_the_derivatives_read(heisenberg, rng):
    # The gradient and the Hessian read c = F+ v, Pc v and G Pc v from the
    # evaluation; they are bitwise what its factor gives for its velocities.
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    for structure in (_warped_heisenberg(heisenberg), _rotating_heisenberg(heisenberg)):
        evaluation = _evaluate(structure, random_path(structure, 12, rng, 0.3, start, end))
        v = evaluation.vels[:, :, None]
        c = np.matmul(evaluation.Fplus, v)
        r = v - np.matmul(evaluation.F, c)
        np.testing.assert_array_equal(evaluation.coefficients, c[:, :, 0])
        np.testing.assert_array_equal(evaluation.complement, r[:, :, 0])
        np.testing.assert_array_equal(evaluation.vertical_flux, np.matmul(evaluation.G, r)[:, :, 0])


def _dense_block_tridiagonal(diag, off):
    """The symmetric matrix with diagonal blocks ``diag`` and super-diagonal blocks ``off``."""
    m, n, _ = diag.shape
    H = np.zeros((m * n, m * n))
    for j in range(m):
        H[j * n : (j + 1) * n, j * n : (j + 1) * n] = diag[j]
        if j + 1 < m:
            H[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = off[j]
            H[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = off[j].T
    return H


def _assert_hessian_matches(structure, q, path):
    evaluation = _evaluate(structure, path)
    h0_diag, h0_off = _velocity_hessian(evaluation.gram(q))
    rest_diag, rest_off = _base_point_hessian(evaluation, q)
    H = _dense_block_tridiagonal(h0_diag + rest_diag, h0_off + rest_off)
    fd = fd_energy_hessian(structure, q, path)
    assert np.max(np.abs(H - fd)) / (np.max(np.abs(fd)) + 1e-12) < 1e-5


def test_hessian_matches_finite_differences_of_the_gradient(heisenberg, martinet, rng):
    # The exact Hessian, H0 plus the base-point and mixed blocks, against
    # central differences of the gradient, on the same structures as the
    # gradient test: the warped metric exercises the metric terms and the
    # drift problem the transported, time-dependent fields.  The mixed
    # frame is the one whose frame has nonzero mixed second derivatives.
    # The rank-1 frame on R^2 and the rank-2 frame on R^4 have n != 3 and
    # k != 2, so a contraction that swaps two axes of the derivative stacks
    # fails there even where it cancels at n = 3, k = 2.  The line R^1 has
    # no pairs c < d, so its mixed stencil is empty.
    warped = _warped_heisenberg(heisenberg)
    mixed = _mixed_frame_heisenberg()
    drifted = _drift_heisenberg(heisenberg)
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    for q in (1.0, 10.0, 100.0):
        for structure in (
            heisenberg,
            martinet,
            warped,
            mixed,
            _varying_line(),
            _bent_line_on_the_plane(),
            _warped_rank_two_on_r4(),
        ):
            _assert_hessian_matches(structure, q, random_path(structure, 12, rng, scale=0.3))
        path = random_path(drifted, 12, rng, scale=0.3, start=start, end=end)
        _assert_hessian_matches(drifted, q, path)


def _metric_stacks(structure, rng):
    """(dG, d2G) of the field differences and stencil at a few points and times."""
    points = 0.3 * rng.normal(size=(7, structure.dimension))
    evaluation = _evaluate_segments(structure, points, np.linspace(0.05, 0.95, 7), np.zeros_like(points))
    return evaluation.differences[0], _field_stencil(evaluation)[0]


def test_metric_stacks_are_none_exactly_where_the_metric_does_not_move(heisenberg, rng):
    # Every preset's metric, and its drift pull-back J(t)^T G J(t), does not
    # depend on the point, so both metric stacks are None there; a metric
    # that varies in the point, or in the point and time, gives arrays.
    problems = [get_problem(name) for name in problem_names()] + [vertical_heisenberg_problem(50)]
    for problem in problems:
        structure = _pull_back(problem.structure, problem.drift) if problem.has_drift else problem.structure
        assert _metric_stacks(structure, rng) == (None, None), structure.name
    clocked = _ClockedStructure(3, heisenberg.metric, heisenberg.frame, "clocked")
    for structure in (
        _warped_heisenberg(heisenberg),
        _bent_line_on_the_plane(),
        _warped_rank_two_on_r4(),
        clocked,
    ):
        for stack in _metric_stacks(structure, rng):
            assert isinstance(stack, np.ndarray), structure.name


def test_omitted_metric_terms_change_no_bit(heisenberg, rng, monkeypatch):
    # The gradient and the Hessian blocks from None metric stacks are
    # bitwise those of the full formulas on explicit zero stacks, on a flat
    # metric under a frame with second derivatives and on a drift pull-back.
    from pengeo import optimizer

    stencil = optimizer._field_stencil
    start, end = np.zeros(3), np.array([1.0, 0.0, 0.0])
    for structure in (_mixed_frame_heisenberg(), _drift_heisenberg(heisenberg)):
        evaluation = _evaluate(structure, random_path(structure, 12, rng, 0.3, start, end))
        differences = evaluation.differences
        assert differences[0] is None
        omitted = _gradient(evaluation, 10.0), _base_point_hessian(evaluation, 10.0)
        # A copy of the evaluation, without its cache, whose differences hold a zero dG.
        zeroed = replace(evaluation)
        zeroed.__dict__["differences"] = (np.zeros((12, 3, 3, 3)),) + differences[1:]
        with monkeypatch.context() as patch:
            patch.setattr(
                optimizer, "_field_stencil", lambda e: (np.zeros((12, 3, 3, 3, 3)), stencil(e)[1])
            )
            full = _gradient(zeroed, 10.0), _base_point_hessian(zeroed, 10.0)
        for parts, full_parts in zip(omitted, full):
            for a, b in zip(parts, full_parts):
                np.testing.assert_array_equal(a, b)


def test_gradient_affine_in_q(heisenberg, rng):
    path = random_path(heisenberg, 15, rng)
    g1 = energy_gradient(heisenberg, 1.0, path)
    g2 = energy_gradient(heisenberg, 2.0, path)
    g4 = energy_gradient(heisenberg, 4.0, path)
    slope_a = g2 - g1
    slope_b = (g4 - g2) / 2.0
    assert np.max(np.abs(slope_a - slope_b)) <= 1e-9 * (1.0 + np.max(np.abs(g4)))


def _h0_factor(structure, q, path):
    """H0 factored from the path's evaluation at q, as minimize_energy does."""
    return _BlockTridiagonalFactor(*_velocity_hessian(_evaluate(structure, path).gram(q)))


def _dense_velocity_hessian(structure, q, path):
    """H0 assembled entry by entry: blocks N (M_{j-1} + M_j) and -N M_j, with
    M_j the penalized metric at midpoint j and its mid-time."""
    N, n = path.grid_size, path.dimension
    M = _evaluate(structure, path).gram(q)
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


def _random_spd_block_tridiagonal(rng, blocks, n=3):
    """Random diagonal and (unsymmetric) off-diagonal blocks of an SPD matrix.

    The exact Hessian's off-diagonal blocks are not symmetric, unlike H0's,
    so these are not either; the diagonal is shifted to a smallest
    eigenvalue of 1.
    """
    diag = rng.normal(size=(blocks, n, n))
    diag = diag + diag.transpose(0, 2, 1)
    off = rng.normal(size=(blocks - 1, n, n))
    diag += (1.0 - np.linalg.eigvalsh(_dense_block_tridiagonal(diag, off))[0]) * np.eye(n)
    return diag, off


@pytest.mark.parametrize("blocks", BLOCK_COUNTS)
def test_block_tridiagonal_solve_matches_dense(rng, blocks):
    diag, off = _random_spd_block_tridiagonal(rng, blocks)
    b = rng.normal(size=blocks * 3)
    x = _BlockTridiagonalFactor(diag, off).solve(b)
    _assert_solves(_dense_block_tridiagonal(diag, off), x, b)


@pytest.mark.parametrize("blocks", [2, 5, 8, 200])
def test_block_tridiagonal_factor_rejects_indefinite(rng, blocks):
    # Cyclic reduction is block elimination on a symmetric permutation, so
    # a matrix that is not positive definite fails a Cholesky pivot: here
    # block 0, eliminated at the first level, or the one block left at the
    # last level.
    diag, off = _random_spd_block_tridiagonal(rng, blocks)
    rows = list(range(blocks))
    while len(rows) > 1:
        rows = rows[1::2]
    first = diag.copy()
    first[0] = -first[0]
    last = diag.copy()
    last[rows[0]] -= 1e3 * np.max(np.abs(diag)) * np.eye(3)
    for bad in (first, last):
        assert np.linalg.eigvalsh(_dense_block_tridiagonal(bad, off))[0] < 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _BlockTridiagonalFactor(bad, off)


def test_minimize_euclidean_zigzag_one_iteration(euclidean3, rng):
    # On a flat problem the exact Hessian is H0, so a single full Newton
    # step solves it from any start.
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


@pytest.mark.parametrize("name", ["vertical-50", "heisenberg-drift"])
def test_closed_form_decrement_matches_the_dense_velocity_hessian(name):
    # The stop test's g^T H0^{-1} g comes from the midpoint metrics alone,
    # with no block factorization, at the kicked chord of each ladder (the
    # drift one on R^3 with its pulled-back fields).  Two backward-stable
    # evaluations of it may differ by about eps cond(H0), which is the bound.
    # Measured relative gaps to the dense solve at q = 1, 1e2, 1e4: 2.0e-15,
    # 2.1e-15, 1.7e-15 on the vertical run and 1.3e-15, 1.4e-14, 1.5e-11 on
    # the drift one, against bounds of 2.2e-13 ... 9.0e-9; block cyclic
    # reduction's own gaps there are 1.8e-15, 1.0e-15, 3.4e-16 and 1.4e-16,
    # 8.8e-14, 2.4e-11.
    structure, endpoints, _, config, seed = _ladder_inputs(name)
    chord = DiscretePath.chord(*endpoints, config.grid_size)
    path = chord.with_interior(chord.interior() + seed[1:-1])
    for q in (1.0, 1e2, 1e4):
        g = energy_gradient(structure, q, path)
        decrement = _velocity_decrement(_evaluate(structure, path).gram(q), g)
        H = _dense_velocity_hessian(structure, q, path)
        dense = float(g @ np.linalg.solve(H, g))
        assert abs(decrement - dense) <= np.finfo(float).eps * np.linalg.cond(H) * dense


def test_non_positive_definite_metric_block_is_a_singular_velocity_hessian(heisenberg, monkeypatch):
    # The batched Cholesky factorization of the midpoint metrics is the stop
    # test's check that H0 is positive definite.
    from pengeo.functionals import _Evaluation

    gram = _Evaluation.gram

    def one_block_flipped(self, q):
        M = gram(self, q)
        M[3] = -M[3]
        return M

    monkeypatch.setattr(_Evaluation, "gram", one_block_flipped)
    path = random_path(
        heisenberg, 10, np.random.default_rng(0), scale=0.1, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    with pytest.raises(FloatingPointError, match="velocity Hessian is singular at q=10 after 0 iterations"):
        minimize_energy(heisenberg, 10.0, path, SolverConfig(grid_size=10))


def test_velocity_hessian_without_block_pivots_is_a_floating_point_error(heisenberg, monkeypatch):
    # Midpoint metrics that pass their Cholesky test leave H0 positive
    # definite in exact arithmetic.  Should its block pivots fail anyway, the
    # shift grows past 1/eps and then turns infinite, factoring H0 itself,
    # which raises instead of looping: 23 tries, at mu = 0, 1e-4, ..., 1e16, inf.
    from pengeo import optimizer

    build = optimizer._velocity_hessian
    factored = []

    def negated(M):
        diag, off = build(M)
        return -diag, -off

    def counting(diag, off):
        factored.append(off)
        return _BlockTridiagonalFactor(diag, off)

    monkeypatch.setattr(optimizer, "_velocity_hessian", negated)
    monkeypatch.setattr(optimizer, "_BlockTridiagonalFactor", counting)
    path = random_path(
        heisenberg, 10, np.random.default_rng(0), scale=0.1, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    with pytest.raises(FloatingPointError, match="velocity Hessian is singular at q=10 after 0 iterations"):
        minimize_energy(heisenberg, 10.0, path, SolverConfig(grid_size=10))
    assert len(factored) == 23


def test_solve_result_certificates_equal_the_functionals_bitwise(heisenberg, rng):
    path = random_path(
        heisenberg, 25, rng, scale=0.2, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    result = minimize_energy(heisenberg, 100.0, path, SolverConfig(grid_size=25))
    assert result.energy == energy(heisenberg, 100.0, result.path)
    assert result.length == length(heisenberg, 100.0, result.path)
    assert result.defect == horizontality_defect(heisenberg, result.path)


def _count_solver_calls(monkeypatch):
    """Count frame factorizations, evaluations (and those of predicted
    starts), Hessian builds, block factorizations that succeed, solves,
    field evaluations, lift transports and the rows of each Hessian's field
    stencil."""
    from pengeo import drift, functionals, geometry, optimizer

    counts = dict.fromkeys(
        ["factor", "evaluate", "predicted", "hessian", "block", "minimize", "fields", "transport"], 0
    )
    counts["stencil_rows"] = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if key == "fields" and _called_from("_fields"):
                return fn(*args, **kwargs)  # a pulled-back read of the base fields
            counts[key] += 1
            if key == "evaluate" and _called_from("_predict"):
                counts["predicted"] += 1
            if key == "fields" and _called_from("_field_stencil"):
                counts["stencil_rows"].append(args[1].shape[0])
            return fn(*args, **kwargs)

        return wrapper

    for module in (geometry, functionals):
        monkeypatch.setattr(module, "_factor_frame", counting("factor", module._factor_frame))
    monkeypatch.setattr(optimizer, "_evaluate", counting("evaluate", optimizer._evaluate))
    monkeypatch.setattr(
        optimizer, "_base_point_hessian", counting("hessian", optimizer._base_point_hessian)
    )
    monkeypatch.setattr(optimizer, "_minimize", counting("minimize", optimizer._minimize))
    block_factor = optimizer._BlockTridiagonalFactor

    def factored(diag, off):
        factor = block_factor(diag, off)  # a failed pivot raises before the count
        counts["block"] += 1
        return factor

    monkeypatch.setattr(optimizer, "_BlockTridiagonalFactor", factored)
    for cls in (SubRiemannianStructure, drift._PulledBackStructure):
        monkeypatch.setattr(cls, "_fields", counting("fields", cls._fields))
    monkeypatch.setattr(
        drift.DriftField, "transport_batch", counting("transport", drift.DriftField.transport_batch)
    )
    return counts


def _assert_hessian_counts(counts, gradients, transported, n, grid_size):
    """Each evaluation factors its point set once and nothing else factors;
    each evaluation, gradient and Hessian build reads the fields once (a
    drift problem transports each such read once), a Hessian's read on the
    2n(n - 1) N mixed rows of its stencil, since it reuses the gradient's
    first-order rows.  Only the Newton step factors a block matrix, and it
    succeeds once per Hessian: the stop test factors none."""
    assert counts["factor"] == counts["evaluate"]
    assert counts["fields"] == counts["evaluate"] + gradients + counts["hessian"]
    assert counts["transport"] == (counts["fields"] if transported else 0)
    assert counts["stencil_rows"] == [2 * n * (n - 1) * grid_size] * counts["hessian"]
    assert counts["block"] == counts["hessian"]


@pytest.mark.parametrize("drifted", [False, True])
def test_each_accepted_point_set_is_factored_once(heisenberg, rng, monkeypatch, drifted):
    # Factorizations are the evaluations (the start and every line-search
    # trial); the gradient, H0, the Hessian and the certificates reuse the
    # accepted trial's factor.  Each iteration builds one Hessian, and the
    # exit test (on H0) none.  The gradient and the Hessian each read the
    # fields once more, at the shifted midpoints of their difference
    # stencils; the Hessian only at the rows the gradient did not read.
    counts = _count_solver_calls(monkeypatch)
    structure = _drift_heisenberg(heisenberg) if drifted else heisenberg
    path = random_path(structure, 12, rng, scale=0.1, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0]))

    result = minimize_energy(structure, 100.0, path, SolverConfig(grid_size=12))
    assert result.converged and result.iterations >= 1
    assert counts["evaluate"] >= result.iterations + 1
    assert counts["hessian"] == result.iterations
    _assert_hessian_counts(counts, result.iterations + 1, drifted, 3, 12)


def test_converged_start_factors_nothing(heisenberg, monkeypatch):
    # The chord is the minimizer on the Heisenberg preset, so the stop test
    # accepts it at iteration 0; the closed-form decrement builds no block
    # factorization and no Hessian.
    counts = _count_solver_calls(monkeypatch)
    path = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 20)
    result = minimize_energy(heisenberg, 100.0, path, SolverConfig(grid_size=20))
    assert result.converged and result.iterations == 0
    assert counts["block"] == counts["hessian"] == 0


def test_chord_ladder_factors_its_frame_once(monkeypatch):
    # Every rung of the Heisenberg preset stops at iteration 0 on the chord,
    # so each warm start takes the first rung's evaluation as it is: one
    # frame factorization and one first-order field read for the whole ladder.
    from pengeo import functionals, geometry, optimizer

    counts = dict.fromkeys(["factor", "differences"], 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (geometry, functionals):
        monkeypatch.setattr(module, "_factor_frame", counting("factor", module._factor_frame))
    for module in (geometry, functionals):
        monkeypatch.setattr(
            module, "_field_differences", counting("differences", module._field_differences)
        )
    structure, endpoints, schedule, config, seed = _ladder_inputs("heisenberg")
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    assert len(results) == 5 and all(r.iterations == 0 for r in results)
    assert counts == {"factor": 1, "differences": 1}


@pytest.mark.parametrize(
    "name, iterations",
    [("vertical-200", [1, 3, 4, 8, 2]), ("heisenberg-drift", [1, 3, 3, 2, 2])],
)
def test_default_ladders_take_their_recorded_iterations(name, iterations):
    # The per-rung Newton iterations of the two benchmark ladders at their
    # preset kicks: a solver change that keeps the numbers keeps these.
    structure, endpoints, schedule, config, seed = _ladder_inputs(name)
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    assert [r.iterations for r in results] == iterations
    assert all(r.converged for r in results)


@pytest.mark.parametrize("name", ["vertical-50", "heisenberg-drift"])
def test_predictor_adds_one_evaluation_per_predicted_start(monkeypatch, caplog, name):
    # Over a whole ladder the counts of a single solve still hold, summed
    # over every solve (kicked rungs solve twice): the predictor builds no
    # Hessian and factors and transports nothing but the evaluation of each
    # predicted start, which the rung's solve then takes as its own.  Every
    # solve's start is evaluated once, except a warm start on the previous
    # minimizer, which takes that rung's final evaluation as it is, field
    # differences included; each iteration's line search evaluates once per
    # halving of its logged step, plus one.
    structure, endpoints, schedule, config, seed = _ladder_inputs(name)
    counts = _count_solver_calls(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="pengeo"):
        results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    lines = [r.getMessage() for r in caplog.records]
    used = [line for line in lines if line.endswith("predicted start used")]
    reused = [line for line in lines if "(evaluation reused)" in line]
    steps = [float(line.rsplit(", step ", 1)[1]) for line in lines if " iteration " in line]
    trials = sum(1 + round(-np.log2(step)) for step in steps)
    iterations = sum(r.iterations for r in results)
    gradients = counts["minimize"] - len(reused) + iterations
    assert used and counts["predicted"] == len(used)
    assert len(steps) == iterations
    evaluations = {"vertical-50": 29, "heisenberg-drift": 17}[name]
    assert counts["evaluate"] == counts["minimize"] - len(reused) + trials == evaluations
    assert counts["hessian"] == iterations
    transported = name.endswith("drift")
    _assert_hessian_counts(counts, gradients, transported, structure.dimension, config.grid_size)


def test_non_finite_newton_direction_is_a_floating_point_error(heisenberg, monkeypatch):
    # The Cholesky factorization of a NaN block returns NaN without raising,
    # so the direction is checked before the line search uses it.
    nan_hessian(monkeypatch)
    path = random_path(
        heisenberg, 20, np.random.default_rng(0), scale=0.1, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    with pytest.raises(FloatingPointError, match=r"not finite at q=10 in iteration 1"):
        minimize_energy(heisenberg, 10.0, path, SolverConfig(grid_size=20))


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


def test_line_search_underflow_is_a_step_underflow_error(heisenberg, monkeypatch):
    # Every trial frame is degenerate, so every step backtracks until it
    # falls below the floor and the search reports that it stalled.
    stalled_line_search(monkeypatch)
    path = random_path(
        heisenberg, 20, np.random.default_rng(0), scale=0.1, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    with pytest.raises(StepUnderflowError, match=r"^line search stalled at q=10 after 0 iterations"):
        minimize_energy(heisenberg, 10.0, path, SolverConfig(grid_size=20))


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


def test_continuation_reaches_q_1e5_in_few_iterations():
    # Newton on the exact Hessian pays for N, not for q: the q = 1e5 rung
    # takes about ten iterations where the velocity-Hessian-preconditioned
    # quasi-Newton method took about two thousand.  The bound of 50 guards
    # against that regression; it is not a tuned value.
    prob = vertical_heisenberg_problem(50)
    results = continuation_solve(
        prob.structure,
        (prob.start, prob.end),
        ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=6),
        SolverConfig(grid_size=50),
        seed_deflection=prob.seed_deflection(),
    )
    assert results[-1].q == 1e5
    assert all(r.converged for r in results)
    assert results[-1].iterations < 50


def test_minimize_logs_one_debug_line_per_iteration(heisenberg, rng, caplog):
    path = random_path(
        heisenberg, 25, rng, scale=0.2, start=np.zeros(3), end=np.array([1.0, 0.0, 0.0])
    )
    with caplog.at_level(logging.DEBUG, logger="pengeo"):
        result = minimize_energy(heisenberg, 100.0, path, SolverConfig(grid_size=25))
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert result.iterations >= 1
    assert len(lines) == result.iterations
    for k, (line, f) in enumerate(zip(lines, result.energy_history[1:]), start=1):
        assert line.startswith(f"q=100 iteration {k}: energy {f:.17g}, H0 decrement ")
        assert ", shift " in line and ", step " in line


def test_debug_lines_count_the_failed_shifted_factorizations(monkeypatch, caplog):
    # Each iteration's line logs how many shifted block factorizations
    # failed before the one that succeeded; summed over the vertical ladder
    # at N = 200 they equal the failures and successes of the factor class.
    from pengeo import optimizer

    built = {"ok": 0, "failed": 0}
    block_factor = optimizer._BlockTridiagonalFactor

    def factored(diag, off):
        try:
            factor = block_factor(diag, off)
        except np.linalg.LinAlgError:
            built["failed"] += 1
            raise
        built["ok"] += 1
        return factor

    monkeypatch.setattr(optimizer, "_BlockTridiagonalFactor", factored)
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-200")
    with caplog.at_level(logging.DEBUG, logger="pengeo"):
        continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    lines = [r.getMessage() for r in caplog.records if " iteration " in r.getMessage()]
    failed = [int(line.split(" after ")[1].split(" failed factorizations")[0]) for line in lines]
    assert (sum(failed), len(lines)) == (built["failed"], built["ok"]) == (12, 18)


def test_rank_two_ladder_reads_the_condition_number_in_closed_form(monkeypatch):
    # Every catalogue Heisenberg frame has rank 2, so no condition check of
    # a whole ladder, evaluations and Hessian stencils alike, calls eigvalsh.
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-50")
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    assert sum(r.iterations for r in results) > 0
    assert calls == []


def test_newton_step_contracts_without_einsum(monkeypatch):
    # The Hessian's base-point blocks and the gradient's form derivatives
    # contract segment-major stacks by batched matmuls: no einsum call of a
    # whole vertical ladder comes from either, while the calls that remain
    # (the split forms and the stop test) still reach the counter.
    from pengeo import optimizer

    calls = count_calls(monkeypatch, np, "einsum", optimizer._base_point_hessian, optimizer._gradient)
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-50")
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    assert sum(r.iterations for r in results) > 0
    assert calls and set(calls) == {None}


def test_small_blocks_are_inverted_by_sweeps(monkeypatch):
    # The frame Grams and the stop test's midpoint metrics are inverted by
    # batched sweeps: a whole vertical ladder calls np.linalg.inv nowhere, and
    # np.linalg.cholesky only to check the block pivots of a Newton factor.
    from pengeo import optimizer

    inverses = count_calls(monkeypatch, np.linalg, "inv")
    factors = count_calls(monkeypatch, np.linalg, "cholesky", optimizer._BlockTridiagonalFactor.__init__)
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-50")
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    assert sum(r.iterations for r in results) > 0
    assert inverses == []
    assert factors and set(factors) == {"_BlockTridiagonalFactor.__init__"}


def _ladder_inputs(name):
    """(structure, endpoints, schedule, config, seed) of a ladder as the CLI
    runs it; a drift preset runs on R^n with the pulled-back fields, between
    the start and the target pulled back by the flow, as in
    ``solve_drift_problem``."""
    if name.startswith("vertical-"):
        prob = vertical_heisenberg_problem(int(name.split("-")[1]))
    else:
        prob = get_problem(name)
    structure, endpoints = prob.structure, (prob.start, prob.end)
    if prob.has_drift:
        structure = _pull_back(prob.structure, prob.drift)
        endpoints = (prob.start, prob.drift.inverse(1.0, prob.end))
    config = SolverConfig(grid_size=prob.grid_size)
    return structure, endpoints, prob.schedule, config, prob.seed_deflection()


def _plain_ladder(structure, endpoints, schedule, config, seed=None):
    """The ladder warm started rung by rung from the previous minimizer, with
    the seed kick on every start that is accepted at iteration 0."""
    guess = DiscretePath.chord(*endpoints, config.grid_size)
    results = []
    for q in schedule.q_values():
        result = minimize_energy(structure, q, guess, config)
        if result.iterations == 0 and seed is not None:
            kicked = guess.with_interior(guess.interior() + seed[1:-1])
            result = minimize_energy(structure, q, kicked, config)
        results.append(result)
        guess = result.path
    return results


@pytest.mark.parametrize("name", ["vertical-50", "heisenberg-drift"])
def test_predicted_ladder_matches_plain_warm_starts(name):
    # Both ladders stop every rung on the same decrement tolerance, so they
    # find the same minimizers.  Energies agree to 1e-12.  The length is not
    # stationary at an energy minimizer, so the stop rule leaves it less
    # settled: one more Newton step moves the plain ladder's last
    # heisenberg-drift length by 1.07e-12 relative and the predicted one's by
    # 3e-16, hence 2e-12 for lengths.  The drift rungs are compared as
    # reported, on the lift.  The iteration count guards the predictor
    # against regression; it is not a tuned value.
    structure, endpoints, schedule, config, seed = _ladder_inputs(name)
    predicted = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    plain = _plain_ladder(structure, endpoints, schedule, config, seed)
    if name == "heisenberg-drift":
        predicted, plain = (
            [_lifted_result(r, _evaluate(structure, r.path)) for r in rungs]
            for rungs in (predicted, plain)
        )
    assert [r.q for r in predicted] == [r.q for r in plain]
    for a, b in zip(predicted, plain):
        assert a.converged and b.converged
        assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0.0)
        assert a.length == pytest.approx(b.length, rel=2e-12, abs=0.0)
    assert predicted[-1].q == 1e4
    assert predicted[-1].iterations < plain[-1].iterations


def _assert_same_results(results, reference):
    assert len(results) == len(reference)
    for a, b in zip(results, reference):
        fields = ("q", "energy", "length", "defect", "iterations")
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        np.testing.assert_array_equal(a.path.points, b.path.points)


@pytest.mark.parametrize("name", ["heisenberg", "martinet", "euclidean-n"])
@pytest.mark.parametrize("kick", [False, True])
def test_chord_presets_match_plain_warm_starts_bitwise(name, kick):
    # The chord is the minimizer of every rung, so no predictor step is
    # taken, and with a seed kick every rung is kicked off the chord and
    # solved back to it, exactly as by plain warm starts.
    structure, endpoints, schedule, config, seed = _ladder_inputs(name)
    if kick:
        seed = sinusoidal_deflection(config.grid_size, structure.dimension, 0.05)
    results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    _assert_same_results(results, _plain_ladder(structure, endpoints, schedule, config, seed))


def _called_from(name):
    """Whether the caller of the function that calls this one is ``name``."""
    return sys._getframe(2).f_code.co_name == name


def test_predicted_start_with_degenerate_frame_falls_back(monkeypatch, caplog):
    # Every predicted start fails to factor, so each rung warm starts from
    # the previous minimizer and the ladder is the plain one, kicks included.
    from pengeo import optimizer

    refused = []

    def degenerate_when_predicted(structure, path):
        if _called_from("_predict"):
            refused.append(path)
            raise DegenerateFrameError("frame is degenerate at the predicted start")
        return _evaluate(structure, path)

    monkeypatch.setattr(optimizer, "_evaluate", degenerate_when_predicted)
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-50")
    with caplog.at_level(logging.DEBUG, logger="pengeo"):
        results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    starts = [r.getMessage() for r in caplog.records if "rung start" in r.getMessage()]
    assert refused and len(starts) == len(results)
    assert all(line.endswith("predicted start not used") for line in starts)
    assert all(r.converged for r in results)
    _assert_same_results(results, _plain_ladder(structure, endpoints, schedule, config, seed))


def test_continuation_logs_one_debug_line_per_rung(caplog):
    structure, endpoints, schedule, config, seed = _ladder_inputs("vertical-50")
    with caplog.at_level(logging.DEBUG, logger="pengeo"):
        results = continuation_solve(structure, endpoints, schedule, config, seed_deflection=seed)
    lines = [r.getMessage() for r in caplog.records if "rung start" in r.getMessage()]
    assert len(lines) == len(results)
    # Each line names the start its rung took: the initial path, the
    # previous minimizer with its evaluation reused, or the predicted path.
    for line, result in zip(lines, results):
        assert line.startswith(f"q={result.q:g} rung start: predictor step ")
    for line in lines[1:]:
        assert line.endswith(", predicted path evaluated, predicted start used") or line.endswith(
            ", previous minimizer (evaluation reused), predicted start not used"
        )
    assert lines[0] == (
        "q=1 rung start: predictor step 0.000e+00, initial path evaluated, predicted start not used"
    )
    assert lines[-1].endswith(", predicted start used")
    assert any("(evaluation reused)" in line for line in lines)


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
