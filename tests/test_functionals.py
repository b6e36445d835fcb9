from __future__ import annotations

import math

import numpy as np
import pytest

from pengeo import (
    DiscretePath,
    energy,
    horizontality_defect,
    length,
    limit_energy,
    semimetric_rho,
)
from pengeo.functionals import _evaluate
from conftest import assert_same_evaluation, random_path


def test_chord_construction(euclidean3):
    path = DiscretePath.chord(np.zeros(3), np.ones(3), 4)
    assert path.grid_size == 4
    assert path.dimension == 3
    np.testing.assert_allclose(path.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(path.points[2], [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(path.start, path.points[0])
    np.testing.assert_array_equal(path.end, path.points[-1])


def test_path_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DiscretePath.chord(np.zeros(3), np.ones(3), 1)
    pts = np.linspace(0.0, 1.0, 5)[:, None] * np.ones(3)
    with pytest.raises(ValueError):
        DiscretePath(pts[:, 0])
    pts[2, 1] = np.nan
    with pytest.raises(ValueError):
        DiscretePath(pts)


def test_path_copies_its_points_and_reads_its_endpoints_from_them():
    pts = np.linspace(0.0, 1.0, 5)[:, None] * np.ones(3)
    expected = pts.copy()
    path = DiscretePath(pts)
    pts[:] = 7.0
    np.testing.assert_array_equal(path.points, expected)
    np.testing.assert_array_equal(path.start, np.zeros(3))
    np.testing.assert_array_equal(path.end, np.ones(3))
    for endpoint in (path.start, path.end):
        with pytest.raises(ValueError):
            endpoint[0] = 99.0


def test_path_points_are_read_only():
    path = DiscretePath.chord(np.zeros(2), np.ones(2), 3)
    with pytest.raises(ValueError):
        path.points[1, 0] = 99.0


def test_paths_compare_by_identity_without_raising():
    # Equality on the points would compare arrays elementwise, whose truth
    # value is ambiguous; paths compare by identity instead.
    a = DiscretePath.chord(np.zeros(2), np.ones(2), 4)
    b = DiscretePath.chord(np.zeros(2), np.ones(2), 4)
    assert (a == b) is False
    assert a == a


def test_with_interior_keeps_endpoints_bitwise():
    start = np.array([0.1, -0.7])
    end = np.array([2.0, 0.3])
    path = DiscretePath.chord(start, end, 6)
    moved = path.with_interior(path.interior() + 0.25)
    assert moved.points[0].tobytes() == start.tobytes()
    assert moved.points[-1].tobytes() == end.tobytes()
    np.testing.assert_allclose(moved.interior(), path.interior() + 0.25)


def test_euclidean_chord_energy_and_length(euclidean3):
    path = DiscretePath.chord(np.zeros(3), np.ones(3), 10)
    assert energy(euclidean3, 1.0, path) == pytest.approx(1.5, rel=1e-14)
    assert length(euclidean3, 1.0, path) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert horizontality_defect(euclidean3, path) == 0.0


def test_euclidean_zigzag_energy(euclidean3):
    # Three segments traversed at speed 3 each: energy (1/6)(9 + 9 + 9),
    # nine times the straight chord's 0.5.
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    path = DiscretePath(pts)
    assert energy(euclidean3, 1.0, path) == pytest.approx(4.5, rel=1e-14)


def test_energy_affine_in_q(heisenberg, rng):
    path = random_path(heisenberg, 40, rng)
    defect = horizontality_defect(heisenberg, path)
    assert defect > 1e-4
    e1 = energy(heisenberg, 1.0, path)
    for q in (2.0, 10.0, 1e4):
        expected = e1 + (q - 1.0) * defect / 2.0
        assert energy(heisenberg, q, path) == pytest.approx(expected, rel=1e-12)


def test_vertical_chord_energy_scales_with_q(heisenberg):
    # Straight vertical segments have unit-speed purely non-admissible
    # velocity, so the energy is exactly q/2 and the defect is 1.
    path = DiscretePath.chord(np.zeros(3), np.array([0.0, 0.0, 1.0]), 25)
    assert horizontality_defect(heisenberg, path) == pytest.approx(1.0, rel=1e-12)
    for q in (1.0, 100.0, 1e4):
        assert energy(heisenberg, q, path) == pytest.approx(q / 2.0, rel=1e-12)


def test_length_energy_cauchy_schwarz(heisenberg, rng):
    for _ in range(5):
        path = random_path(heisenberg, 30, rng)
        for q in (1.0, 50.0):
            l = length(heisenberg, q, path)
            e = energy(heisenberg, q, path)
            assert l * l <= 2.0 * e + 1e-10


def test_limit_energy_finite_iff_horizontal(heisenberg, euclidean3):
    chord = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 20)
    assert limit_energy(heisenberg, chord) == pytest.approx(0.5, rel=1e-12)

    vertical = DiscretePath.chord(np.zeros(3), np.array([0.0, 0.0, 1.0]), 20)
    assert limit_energy(heisenberg, vertical) == math.inf


def test_semimetric_rho_velocity_example():
    # Constant path against the diagonal: velocities differ by exactly one
    # in each coordinate, midpoints by t, so the order-1 gap is exactly 1
    # and the order-0 gap tends to sqrt(1/3).
    n = 1000
    still = DiscretePath.chord(np.zeros(2), np.zeros(2), n)
    moving = DiscretePath.chord(np.zeros(2), np.ones(2), n)
    rho1 = semimetric_rho(still, moving, order=1)
    np.testing.assert_allclose(rho1, [1.0, 1.0], rtol=1e-12)
    rho0 = semimetric_rho(still, moving, order=0)
    np.testing.assert_allclose(rho0, math.sqrt(1.0 / 3.0), rtol=1e-3)


def test_semimetric_rho_validation(rng):
    a = DiscretePath.chord(np.zeros(2), np.ones(2), 10)
    b = DiscretePath.chord(np.zeros(2), np.ones(2), 12)
    with pytest.raises(ValueError):
        semimetric_rho(a, b, order=1)
    with pytest.raises(ValueError):
        semimetric_rho(a, a, order=2)
    np.testing.assert_array_equal(semimetric_rho(a, a, order=0), np.zeros(2))


def test_reformed_evaluation_is_a_fresh_one_bitwise(heisenberg, martinet, rng):
    # The factor and the split forms do not depend on q, so an evaluation
    # re-formed at q' is the evaluation at q', to the last bit.
    for structure in (heisenberg, martinet):
        path = random_path(structure, 12, rng, scale=0.3)
        for q in (1.0, 10.0, 1e4):
            evaluation = _evaluate(structure, q, path)
            for q_new in (1.0, 3.5, 1e6):
                assert_same_evaluation(evaluation.at(q_new), _evaluate(structure, q_new, path))
