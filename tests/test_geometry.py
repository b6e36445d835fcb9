from __future__ import annotations

import numpy as np
import pytest

from pengeo import (
    DegenerateFrameError,
    FrameField,
    MetricField,
    SubRiemannianStructure,
    check_penalty,
    field_jacobian,
    lie_bracket,
    penalized_forms,
    penalized_gram,
    project_horizontal,
    validate_bracket_generating,
    validate_structure,
)
from conftest import random_path


def _heisenberg_normal(p: np.ndarray) -> np.ndarray:
    """Unit Euclidean normal of the Heisenberg plane at p.

    The two frame columns (1, 0, -y/2) and (0, 1, x/2) both annihilate
    (y/2, -x/2, 1), so with the flat metric the orthogonal projection is
    the rank-one projector onto this direction.
    """
    n = np.array([p[1] / 2.0, -p[0] / 2.0, 1.0])
    return n / np.linalg.norm(n)


def test_heisenberg_projection_worked_example(heisenberg):
    p = np.array([0.0, 2.0, 0.0])
    v = np.array([1.0, 0.0, 0.0])
    pv, pperp = project_horizontal(heisenberg, p, v)
    np.testing.assert_allclose(pv, [0.5, 0.0, -0.5], atol=1e-14)
    np.testing.assert_allclose(pperp, [0.5, 0.0, 0.5], atol=1e-14)
    horizontal, vertical, _ = penalized_forms(heisenberg, 3.0, p[None, :], v[None, :])
    assert horizontal[0] + 3.0 * vertical[0] == pytest.approx(2.0)


def test_projection_matches_normal_vector_oracle(heisenberg, rng):
    for _ in range(20):
        p = rng.normal(size=3)
        v = rng.normal(size=3)
        _, pperp = project_horizontal(heisenberg, p, v)
        nhat = _heisenberg_normal(p)
        expected = (v @ nhat) * nhat
        np.testing.assert_allclose(pperp, expected, atol=1e-12)


def test_projection_idempotent_and_orthogonal(martinet, rng):
    for _ in range(10):
        p = rng.normal(size=3)
        v = rng.normal(size=3)
        pv, pperp = project_horizontal(martinet, p, v)
        pv2, residue = project_horizontal(martinet, p, pv)
        np.testing.assert_allclose(pv2, pv, atol=1e-12)
        np.testing.assert_allclose(residue, 0.0, atol=1e-12)
        # flat metric, so g-orthogonality is the dot product
        assert abs(pv @ pperp) < 1e-12
        np.testing.assert_allclose(pv + pperp, v, atol=1e-14)


def test_penalized_metric_affine_in_q(heisenberg, rng):
    p = rng.normal(size=3)
    v = rng.normal(size=3)

    def g(q):
        horizontal, vertical, _ = penalized_forms(heisenberg, q, p[None, :], v[None, :])
        return float(horizontal[0] + q * vertical[0])

    g1, g2, g4 = g(1.0), g(2.0), g(4.0)
    assert g2 - g1 == pytest.approx((g4 - g2) / 2.0, rel=1e-12, abs=1e-14)
    pv, pperp = project_horizontal(heisenberg, p, v)
    assert g1 == pytest.approx(v @ v, rel=1e-12)
    assert g4 == pytest.approx(pv @ pv + 4.0 * (pperp @ pperp), rel=1e-12)


def test_penalized_gram_matches_forms(heisenberg, rng):
    pts = rng.normal(size=(8, 3))
    vecs = rng.normal(size=(8, 3))
    for q in (1.0, 7.5, 1e4):
        gram = penalized_gram(heisenberg, q, pts)
        hor, vert, _ = penalized_forms(heisenberg, q, pts, vecs)
        quad = np.einsum("ij,ijk,ik->i", vecs, gram, vecs)
        np.testing.assert_allclose(quad, hor + q * vert, rtol=1e-10)
        np.testing.assert_allclose(gram, np.transpose(gram, (0, 2, 1)), atol=1e-12)
        eigs = np.linalg.eigvalsh(gram)
        assert np.all(eigs > 0.0)


def test_penalized_forms_flux_is_gradient_of_quadratic(heisenberg, rng):
    pts = rng.normal(size=(5, 3))
    vecs = rng.normal(size=(5, 3))
    q = 30.0
    gram = penalized_gram(heisenberg, q, pts)
    _, _, flux = penalized_forms(heisenberg, q, pts, vecs)
    np.testing.assert_allclose(flux, np.einsum("ijk,ik->ij", gram, vecs), rtol=1e-10)


def test_check_penalty_validation():
    assert check_penalty(1) == 1.0
    assert check_penalty(np.float64(1e4)) == 1e4
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            check_penalty(bad)


def test_metric_field_rejects_asymmetric_gram():
    bad = MetricField(gram=lambda p: np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        bad(np.zeros(2))


def test_gram_batch_of_zero_points(heisenberg):
    assert heisenberg.metric.gram_batch(np.zeros((0, 3))).shape == (0, 3, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_frame_detected():
    frame = FrameField(columns=lambda p: np.array([[1.0, 1.0], [0.0, 0.0]]))
    metric = MetricField(gram=lambda p: np.eye(2))
    structure = SubRiemannianStructure(
        dimension=2, rank=2, metric=metric, frame=frame, name="degenerate"
    )
    with pytest.raises(DegenerateFrameError):
        project_horizontal(structure, np.zeros(2), np.ones(2))


def _graded_frame_structure(gram_condition: float) -> SubRiemannianStructure:
    """Flat 3-D structure whose frame Gram is diag(1, 1/gram_condition)."""
    columns = np.array([[1.0, 0.0], [0.0, gram_condition**-0.5], [0.0, 0.0]])
    return SubRiemannianStructure(
        dimension=3,
        rank=2,
        metric=MetricField(gram=lambda p: np.eye(3)),
        frame=FrameField(columns=lambda p: columns),
        name="graded",
    )


def test_ill_conditioned_frame_rejected_with_its_condition_number():
    structure = _graded_frame_structure(1e9)
    with pytest.raises(DegenerateFrameError, match=r"condition number 1\.0\d*e\+09"):
        project_horizontal(structure, np.zeros(3), np.ones(3))


def test_frame_below_condition_limit_accepted():
    structure = _graded_frame_structure(1e7)
    pv, pperp = project_horizontal(structure, np.zeros(3), np.ones(3))
    np.testing.assert_allclose(pv, [1.0, 1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(pperp, [0.0, 0.0, 1.0], atol=1e-9)


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
    frame = FrameField(columns=lambda p: np.array([[1.0], [0.0]]))
    metric = MetricField(gram=lambda p: np.eye(2))
    structure = SubRiemannianStructure(
        dimension=2, rank=1, metric=metric, frame=frame, name="flat-line"
    )
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
