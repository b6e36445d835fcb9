from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from pengeo import (
    DegenerateFrameError,
    SubRiemannianStructure,
    check_penalty,
    field_jacobian,
    lie_bracket,
    validate_bracket_generating,
    validate_structure,
)
from pengeo.geometry import (
    FRAME_CONDITION_LIMIT,
    _condition_numbers,
    _factor_frame,
    _fd_step,
    _field_differences,
    _field_stencil,
    _frame_gram,
    _shifted_rows,
    _spd_inverse,
)
from pengeo.functionals import _evaluate_segments
from conftest import random_path


def _heisenberg_normal(p: np.ndarray) -> np.ndarray:
    """Unit Euclidean normal of the Heisenberg plane at p.

    The two frame columns (1, 0, -y/2) and (0, 1, x/2) both annihilate
    (y/2, -x/2, 1), so with the flat metric the orthogonal projection is
    the rank-one projector onto this direction.
    """
    n = np.array([p[1] / 2.0, -p[0] / 2.0, 1.0])
    return n / np.linalg.norm(n)


def _evaluation(structure, points, vectors=None, times=None):
    """The evaluation of one vector per point (zero vectors when none are
    given), from one frame factor."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vectors = np.zeros_like(points) if vectors is None else np.atleast_2d(np.asarray(vectors, dtype=float))
    return _evaluate_segments(structure, points, times, vectors)


def _project(structure, p, v):
    """The horizontal and complement parts (F c, Pc v) of v at p, from one
    evaluation: P v is read off its frame coefficients c = F+ v."""
    evaluation = _evaluation(structure, p, v)
    return evaluation.F[0] @ evaluation.coefficients[0], evaluation.complement[0]


def test_heisenberg_projection_worked_example(heisenberg):
    p = np.array([0.0, 2.0, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    pv, pperp = _project(heisenberg, p, v)
    np.testing.assert_allclose(pv, [0.5, 0.0, -0.5], atol=1e-14)
    np.testing.assert_allclose(pperp, [0.5, 0.0, 0.5], atol=1e-14)
    evaluation = _evaluation(heisenberg, p, v)
    assert evaluation.horizontal[0] + 3.0 * evaluation.vertical[0] == pytest.approx(2.0)


def test_projection_matches_normal_vector_oracle(heisenberg, rng):
    for _ in range(20):
        p = rng.normal(size=3)
        v = rng.normal(size=3)
        _, pperp = _project(heisenberg, p, v)
        nhat = _heisenberg_normal(p)
        expected = (v @ nhat) * nhat
        np.testing.assert_allclose(pperp, expected, atol=1e-12)


def test_projection_idempotent_and_orthogonal(martinet, rng):
    for _ in range(10):
        p = rng.normal(size=3)
        v = rng.normal(size=3)
        pv, pperp = _project(martinet, p, v)
        pv2, residue = _project(martinet, p, pv)
        np.testing.assert_allclose(pv2, pv, atol=1e-12)
        np.testing.assert_allclose(residue, 0.0, atol=1e-12)
        # flat metric, so g-orthogonality is the dot product
        assert abs(pv @ pperp) < 1e-12
        np.testing.assert_allclose(pv + pperp, v, atol=1e-14)


def test_penalized_metric_affine_in_q(heisenberg, rng):
    p = rng.normal(size=3)
    v = rng.normal(size=3)

    def g(q):
        evaluation = _evaluation(heisenberg, p, v)
        return float(evaluation.horizontal[0] + q * evaluation.vertical[0])

    g1, g2, g4 = g(1.0), g(2.0), g(4.0)
    assert g2 - g1 == pytest.approx((g4 - g2) / 2.0, rel=1e-12, abs=1e-14)
    pv, pperp = _project(heisenberg, p, v)
    assert g1 == pytest.approx(v @ v, rel=1e-12)
    assert g4 == pytest.approx(pv @ pv + 4.0 * (pperp @ pperp), rel=1e-12)


def test_penalized_gram_matches_forms(heisenberg, rng):
    pts = rng.normal(size=(8, 3))
    vecs = rng.normal(size=(8, 3))
    evaluation = _evaluation(heisenberg, pts, vecs)
    for q in (1.0, 7.5, 1e4):
        gram = evaluation.gram(q)
        hor, vert = evaluation.horizontal, evaluation.vertical
        quad = np.einsum("ij,ijk,ik->i", vecs, gram, vecs)
        np.testing.assert_allclose(quad, hor + q * vert, rtol=1e-10)
        np.testing.assert_allclose(gram, np.transpose(gram, (0, 2, 1)), atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert np.all(eigs > 0.0)


def test_penalized_forms_flux_is_gradient_of_quadratic(heisenberg, rng):
    pts = rng.normal(size=(5, 3))
    vecs = rng.normal(size=(5, 3))
    q = 30.0
    evaluation = _evaluation(heisenberg, pts, vecs)
    np.testing.assert_allclose(evaluation.flux(q), np.einsum("ijk,ik->ij", evaluation.gram(q), vecs), rtol=1e-10)


def test_check_penalty_validation():
    assert check_penalty(1) == 1.0
    assert check_penalty(np.float64(1e4)) == 1e4
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            check_penalty(bad)


def _flat_plane(metric=lambda p: np.eye(2), frame=lambda p: np.eye(2)):
    """A structure on R^2 with the given metric and frame callables."""
    return SubRiemannianStructure(dimension=2, metric=metric, frame=frame, name="plane")


def test_metric_field_rejects_asymmetric_gram():
    bad = _flat_plane(metric=lambda p: np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        bad._fields(np.zeros((1, 2)))


def test_fields_of_zero_points(heisenberg):
    G, F = heisenberg._fields(np.zeros((0, 3)))
    assert G.shape == (0, 3, 3) and F.shape == (0, 3, 2)


def test_fields_reject_non_symmetric_metrics(rng):
    # A constant metric is checked once, before it is broadcast over the
    # points, and a point-dependent one at every point.
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])

    def warped(pts):
        G = np.tile(np.eye(2), (pts.shape[0], 1, 1))
        G[:, 0, 1] += pts[:, 0] ** 2
        return G

    points = rng.normal(size=(7, 2))
    for gram in (lambda pts: skew, warped):
        with pytest.raises(ValueError, match="not symmetric"):
            _flat_plane(metric=gram)._fields(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_frame_detected():
    structure = _flat_plane(frame=lambda p: np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateFrameError):
        _project(structure, np.zeros(2), np.ones(2))


def _graded_frame_structure(gram_condition: float, rank: int = 2) -> SubRiemannianStructure:
    """Flat structure on R^(rank + 1) whose frame Gram is diagonal, graded
    geometrically from 1 to 1/gram_condition."""
    columns = np.eye(rank + 1, rank) * gram_condition ** (-0.5 * np.linspace(0.0, 1.0, rank))
    return SubRiemannianStructure(
        dimension=rank + 1,
        metric=lambda p: np.eye(rank + 1),
        frame=lambda p: columns,
        name="graded",
    )


def test_ill_conditioned_frame_rejected_with_its_condition_number():
    structure = _graded_frame_structure(1e9)
    with pytest.raises(DegenerateFrameError, match=r"condition number 1\.0\d*e\+09"):
        _project(structure, np.zeros(3), np.ones(3))


def test_frame_below_condition_limit_accepted():
    structure = _graded_frame_structure(1e7)
    pv, pperp = _project(structure, np.zeros(3), np.ones(3))
    np.testing.assert_allclose(pv, [1.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(pperp, [0.0, 0.0, 1.0], atol=1e-9)


def test_rank_three_frame_keeps_the_eigenvalue_condition_check(monkeypatch):
    # Only rank 2 has the closed form; a rank-3 frame is checked by eigvalsh,
    # with the same limit and message.
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    with pytest.raises(DegenerateFrameError, match=r"condition number 1\.0\d*e\+09"):
        _project(_graded_frame_structure(1e9, rank=3), np.zeros(4), np.ones(4))
    assert calls == [(1, 3, 3)]
    pv, pperp = _project(_graded_frame_structure(1e7, rank=3), np.zeros(4), np.ones(4))
    np.testing.assert_allclose(pv, [1.0, 1.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(pperp, [0.0, 0.0, 0.0, 1.0], atol=1e-9)


def _rotated_diagonals(rng, cond, scale):
    """Symmetric 2 x 2 stack R diag(s, +-s/c) R^T, every third one indefinite."""
    m = cond.size
    sign = np.where(np.arange(m) % 3 == 0, -1.0, 1.0)
    theta = rng.uniform(0.0, np.pi, m)
    R = np.stack([np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=1).reshape(m, 2, 2)
    M = np.einsum("mik,mk,mjk->mij", R, np.stack([scale, sign * scale / cond], axis=1), R)
    return 0.5 * (M + M.transpose(0, 2, 1))


def test_closed_form_condition_number_matches_eigvalsh(rng):
    # Cond c from 1 to 1e12 and scale s from 1e-150 to 1e150, then c up to
    # 1e6 at s near 1e+-300, where a product of two entries overflows or
    # underflows unless the matrix is scaled first: the closed form agrees
    # with eigvalsh within 8 eps c relative, the accuracy of eigvalsh's
    # smallest eigenvalue, and so on every accept/reject decision at the limit.
    m = 20000
    M = np.concatenate([
        _rotated_diagonals(rng, 10.0 ** rng.uniform(0.0, 12.0, m), 10.0 ** rng.uniform(-150.0, 150.0, m)),
        _rotated_diagonals(rng, 10.0 ** rng.uniform(0.0, 6.0, 60), 10.0 ** np.repeat([-300.0, 300.0], 30)),
    ])
    spectrum = np.abs(np.linalg.eigvalsh(M))
    reference = spectrum.max(axis=1) / spectrum.min(axis=1)
    closed = _condition_numbers(M)
    eps = np.finfo(float).eps
    assert np.all(np.abs(closed / reference - 1.0) <= 8.0 * eps * reference)
    accepted = reference <= FRAME_CONDITION_LIMIT
    assert 0 < accepted.sum() < len(M)
    np.testing.assert_array_equal(closed <= FRAME_CONDITION_LIMIT, accepted)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_zero_and_rank_one_frame_grams_are_rejected(scale):
    # A zero Gram matrix has cond nan, an exactly singular one inf, and both
    # are rejected at every scale: the zero one as a vanishing frame, since
    # its nan is 0/0 and not a size, the singular one as ill conditioned.
    M = scale * np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]])
    cond = _condition_numbers(M)
    assert np.isnan(cond[0]) and cond[1] == np.inf and cond[2] == 1.0
    G = np.broadcast_to(np.eye(2), (1, 2, 2))
    vanishes = r"frame vanishes at point \[0\.0, 0\.0\] \(its Gram matrix F\^T G F is zero\)"
    for F, message in (
        (np.zeros((1, 2, 2)), vanishes),
        (np.array([[[1.0, 2.0], [0.0, 0.0]]]), "condition number inf exceeds"),
    ):
        with pytest.raises(DegenerateFrameError, match=message):
            _frame_gram(np.zeros((1, 2)), G, np.sqrt(scale) * F)
    # Other ranks take eigvalsh, whose cond of a zero matrix is nan too.
    with pytest.raises(DegenerateFrameError, match="frame vanishes at point"):
        _frame_gram(np.zeros((1, 3)), np.broadcast_to(np.eye(3), (1, 3, 3)), np.zeros((1, 3, 3)))


def _spd_stack(rng, m, k, log_cond):
    """m random symmetric positive definite k x k matrices whose eigenvalues
    spread over ``log_cond`` decades, exactly symmetric."""
    Q = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
    spectrum = 10.0 ** (log_cond * rng.uniform(size=(m, k)))
    M = np.matmul(Q * spectrum[:, None, :], Q.transpose(0, 2, 1))
    return 0.5 * (M + M.transpose(0, 2, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_spd_inverse_matches_lapack_inverse(rng, k):
    # Both inverses have a normwise forward error of at most a modest
    # multiple of u cond_2(M) to first order, u = eps/2 (Higham, *Accuracy
    # and Stability of Numerical Algorithms*, 2nd ed., ch. 14: Gauss-Jordan
    # elimination, which the sweep is on a symmetric matrix, and LU-based
    # inversion), with constants that grow with k as the rounded operations
    # per entry do: k pivot steps of k-term updates.  So the two may differ by
    # up to about k^2 eps cond_2(M), which the test allows; the largest gap
    # measured over such stacks, cond_2 from 1 to 1e8 (the frame condition
    # limit), is about 2 eps cond_2 at k = 3 and 4, 1 at k = 2 and 0 at k = 1.
    # The sweep's result is exactly symmetric.
    eps = np.finfo(float).eps
    for log_cond in (0.0, 2.0, 4.0, 6.0, 8.0):
        M = _spd_stack(rng, 500, k, log_cond)
        X, Y = _spd_inverse(M), np.linalg.inv(M)
        gap = np.linalg.norm(X - Y, 2, axis=(1, 2)) / np.linalg.norm(Y, 2, axis=(1, 2))
        assert np.all(gap <= k * k * eps * np.linalg.cond(M))
        np.testing.assert_array_equal(X, X.transpose(0, 2, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_spd_inverse_rejects_what_cholesky_rejects(rng, k):
    # One matrix that is not positive definite, wherever it sits in the stack,
    # fails a sweep pivot exactly when it fails a Cholesky pivot; a positive
    # definite stack, even a nearly singular one, passes both.
    Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    bad = [
        np.zeros((k, k)),
        -np.eye(k),
        np.diag(np.r_[np.ones(k - 1), 0.0]),
        (Q * np.r_[np.ones(k - 1), -1.0]) @ Q.T,
    ]
    if k >= 2:
        coupled = np.eye(k)
        coupled[:2, :2] = 1.0  # exactly singular behind a nonzero first pivot
        bad.append(coupled)
    good = _spd_stack(rng, 6, k, 12.0)
    np.linalg.cholesky(good)
    _spd_inverse(good)
    for block in bad:
        for position in (0, 3, 5):
            stack = good.copy()
            stack[position] = 0.5 * (block + block.T)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(stack)
            with pytest.raises(np.linalg.LinAlgError, match="Matrix is not positive definite"):
                _spd_inverse(stack)


def test_spd_inverse_passes_nan_blocks(rng):
    # A NaN pivot passes a Cholesky factorization without raising, and so it
    # passes the sweep, silently: RuntimeWarnings are errors in this suite.
    # The NaN stays in its own block; the others are still inverted.
    M = _spd_stack(rng, 5, 3, 2.0)
    M[1] = np.nan
    M[3, 0, 2] = M[3, 2, 0] = np.nan
    np.linalg.cholesky(M)
    X = _spd_inverse(M)
    assert np.all(np.isnan(X[1])) and np.any(np.isnan(X[3]))
    clean = [0, 2, 4]
    np.testing.assert_allclose(X[clean], np.linalg.inv(M[clean]), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("columns", [0, 4])
def test_fields_reject_a_column_count_outside_one_to_dimension(columns):
    # The rank is the frame's column count k, which must satisfy 1 <= k <= n.
    structure = replace(_graded_frame_structure(1.0), frame=lambda p: np.eye(3, columns))
    expected = f"frame field returned shape (4, 3, {columns}), expected (m, 3, k), 1 <= k <= 3"
    with pytest.raises(ValueError, match=re.escape(expected)):
        _factor_frame(structure, np.zeros((4, 3)))


def test_frame_factor_rejects_an_indefinite_gram():
    # Under diag(1, -1, 1) the plane frame Gram diag(1, -1) is perfectly
    # conditioned but not positive definite, which the sweep's pivots catch.
    plane = _graded_frame_structure(1.0)
    points = np.zeros((4, 3))
    indefinite = replace(plane, metric=lambda p: np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(DegenerateFrameError, match="^frame Gram matrix is not positive definite"):
        _factor_frame(indefinite, points)


def _plane_structure(gram, scale):
    """Flat-plane frame diag(1, scale(x)) under the metric field ``gram``."""

    def columns(pts):
        F = np.zeros((pts.shape[0], 2, 2))
        F[:, 0, 0] = 1.0
        F[:, 1, 1] = scale(pts[:, 0])
        return F

    return _flat_plane(metric=gram, frame=columns)


def test_field_stencil_keeps_the_frame_checks():
    # The Hessian's stencil factors no frame, but rejects what factoring the
    # gradient's first-order rows would have rejected, and a metric that is
    # not finite on any mixed row, with the messages of _factor_frame.
    origin, times = np.zeros((1, 2)), np.zeros(1)

    def derivatives(structure):
        evaluation = _evaluation(structure, origin, times=times)
        return evaluation.differences[:2] + _field_stencil(evaluation)

    def gram_nan_on_diagonals(pts):
        both = (pts[:, 0] > 0.0) & (pts[:, 1] > 0.0)
        return np.where(both[:, None, None], np.nan, np.eye(2))

    def unit(x):
        return np.ones_like(x)

    # Only the mixed row (h, h) of the stencil sees the non-finite metric.
    structure = _plane_structure(gram_nan_on_diagonals, unit)
    with pytest.raises(DegenerateFrameError, match="F\\^T G F is not finite"):
        derivatives(structure)
    # The first-order row (h, 0) has a frame Gram condition number of 1e10,
    # and the message names that row.
    structure = _plane_structure(lambda pts: np.eye(2), lambda x: np.where(x > 0.0, 1e-5, 1.0))
    point = [_fd_step(origin), 0.0]
    message = re.escape(f"at point {point} (frame Gram condition number ") + r"1\.0\d*e\+10"
    with pytest.raises(DegenerateFrameError, match=message):
        derivatives(structure)
    # Neither field varies on a plain plane: the metric stacks are None, as
    # every exactly zero metric derivative is, and the frame stacks are zero.
    structure = _plane_structure(lambda pts: np.eye(2), unit)
    dG, dF, d2G, d2F = derivatives(structure)
    assert dG is None and d2G is None
    np.testing.assert_array_equal(dF, 0.0)
    np.testing.assert_array_equal(d2F, 0.0)


class _ClockedStructure(SubRiemannianStructure):
    """Fields that change in time, row by row: the metric I + t w w^T with
    w = (sin y, x z, 1), and the Heisenberg-like frame (1, 0, x y - t y),
    (0, 1, t x + y z)."""

    def _fields(self, points, times):
        x, y, z = points.T
        w = np.stack([np.sin(y), x * z, np.ones_like(x)], axis=1)
        G = np.eye(3) + times[:, None, None] * w[:, :, None] * w[:, None, :]
        F = np.zeros((points.shape[0], 3, 2))
        F[:, 0, 0] = F[:, 1, 1] = 1.0
        F[:, 2, 0] = x * y - times * y
        F[:, 2, 1] = times * x + y * z
        return G, F


def test_field_derivative_stacks_are_segment_major(heisenberg, rng):
    # Row i of every derivative stack belongs to point i and its time, and
    # the coordinate axis comes next: the difference along c is bitwise the
    # central difference of the fields read at points +- h e_c alone.  The
    # second derivatives are symmetric in their two coordinate axes.
    structure = _ClockedStructure(3, heisenberg.metric, heisenberg.frame, "clocked")
    points, times = rng.normal(size=(7, 3)), np.linspace(0.05, 0.95, 7)
    first = _field_differences(structure, points, times)
    h = _fd_step(points)
    for c in range(3):
        plus = structure._fields(points + h * np.eye(3)[c], times)
        minus = structure._fields(points - h * np.eye(3)[c], times)
        for derivative, up, down in zip(first[:2], plus, minus):
            np.testing.assert_array_equal(derivative[:, c], (up - down) / (2.0 * h))
    assert first[0].shape == (7, 3, 3, 3) and first[1].shape == (7, 3, 3, 2)
    second = _field_stencil(_evaluation(structure, points, times=times))
    for derivative, k in zip(second, (3, 2)):
        assert derivative.shape == (7, 3, 3, 3, k)
        assert np.any(derivative[:, 0, 1] != 0.0)
        np.testing.assert_array_equal(derivative, derivative.transpose(0, 2, 1, 3, 4))


def test_heisenberg_bracket_symbolic_oracle(heisenberg, rng):
    # [X1, X2] = d/dz everywhere: both columns are affine in (x, y), so the
    # central-difference Jacobians inside lie_bracket are exact to roundoff.
    def x1(p):
        return np.array([1.0, 0.0, -p[1] / 2.0])

    def x2(p):
        return np.array([0.0, 1.0, p[0] / 2.0])

    for _ in range(5):
        p = rng.normal(size=3)
        np.testing.assert_allclose(lie_bracket(x1, x2, p), [0.0, 0.0, 1.0], atol=1e-9)


def test_martinet_bracket_symbolic_oracle(rng):
    # X1 = (1, 0, y^2), X2 = (0, 1, 0): [X1, X2] = (0, 0, -2y) and the
    # depth-three bracket [X2, [X1, X2]] = (0, 0, -2) at every point.
    def x1(p):
        return np.array([1.0, 0.0, p[1] ** 2])

    def x2(p):
        return np.array([0.0, 1.0, 0.0])

    for _ in range(5):
        p = rng.normal(size=3)
        np.testing.assert_allclose(lie_bracket(x1, x2, p), [0.0, 0.0, -2.0 * p[1]], atol=1e-8)

        def first(x, _x1=x1, _x2=x2):
            return lie_bracket(_x1, _x2, x)

        np.testing.assert_allclose(lie_bracket(x2, first, p), [0.0, 0.0, -2.0], atol=1e-6)


def test_field_jacobian_matches_analytic(rng):
    A = rng.normal(size=(3, 3))

    def field(p):
        return A @ p + np.array([1.0, -2.0, 0.5])

    p = rng.normal(size=3)
    np.testing.assert_allclose(field_jacobian(field, p), A, atol=1e-9)


def test_bracket_generation_certificates(heisenberg, martinet, euclidean3, rng):
    for _ in range(5):
        p = rng.normal(size=3)
        assert validate_bracket_generating(heisenberg, p, 3) == (3, 2)
        on_plane = np.array([p[0], 0.0, p[2]])
        assert validate_bracket_generating(martinet, on_plane, 3) == (3, 3)
    off_plane = np.array([0.3, 0.7, -0.1])
    assert validate_bracket_generating(martinet, off_plane, 3) == (3, 2)
    assert validate_bracket_generating(euclidean3, rng.normal(size=3), 2) == (3, 1)


def test_bracket_generation_reports_failure_without_raising():
    # A single coordinate field in the plane commutes with itself, so no
    # depth can complete the span; the certificate reports rank 1 honestly.
    structure = _flat_plane(frame=lambda p: np.array([[1.0], [0.0]]))
    rank, depth = validate_bracket_generating(structure, np.zeros(2), 4)
    assert rank == 1
    assert depth == 4


def test_validate_structure_passes_on_presets(heisenberg, martinet, euclidean3, rng):
    pts = rng.normal(size=(6, 3))
    validate_structure(heisenberg, pts)
    validate_structure(martinet, pts)
    validate_structure(euclidean3, pts)
    with pytest.raises(ValueError):
        validate_structure(heisenberg, rng.normal(size=(4, 2)))


def test_random_path_helper_respects_endpoints(heisenberg, rng):
    path = random_path(heisenberg, 20, rng, start=np.zeros(3), end=np.ones(3))
    assert path.grid_size == 20
    np.testing.assert_array_equal(path.start, np.zeros(3))
    np.testing.assert_array_equal(path.end, np.ones(3))
