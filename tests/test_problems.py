from __future__ import annotations

import math

import numpy as np
import pytest

from pengeo import (
    get_problem,
    heisenberg_vertical_distance,
    horizontality_defect,
    length,
    problem_names,
    validate_bracket_generating,
    validate_structure,
    vertical_heisenberg_problem,
)
from conftest import heisenberg_lifted_circle


def test_registry_has_exactly_six_entries():
    names = problem_names()
    assert len(names) == 6
    assert set(names) == {
        "euclidean-n",
        "heisenberg",
        "martinet",
        "drift-constant-1d",
        "drift-linear-2d",
        "heisenberg-drift",
    }


def test_euclidean_lookup_parses_dimension():
    prob = get_problem("euclidean-7")
    assert prob.structure.dimension == 7
    assert prob.structure.rank == 7
    np.testing.assert_array_equal(prob.start, np.zeros(7))
    np.testing.assert_array_equal(prob.end, np.ones(7))
    assert get_problem("euclidean-n").structure.dimension == 3
    assert prob.reference_distance == pytest.approx(math.sqrt(7.0))


def test_unknown_problem_raises_key_error():
    with pytest.raises(KeyError):
        get_problem("elliptic")
    with pytest.raises(KeyError):
        get_problem("euclidean-0")
    with pytest.raises(KeyError):
        get_problem("euclidean-x")


def test_preset_structures_are_valid(rng):
    for name in problem_names():
        prob = get_problem(name)
        pts = rng.normal(size=(5, prob.structure.dimension))
        validate_structure(prob.structure, pts)
        assert prob.description
        assert prob.grid_size >= 2
        assert prob.schedule.step_count >= 1


def test_drift_presets_carry_drift_fields():
    for name in ("drift-constant-1d", "drift-linear-2d", "heisenberg-drift"):
        prob = get_problem(name)
        assert prob.has_drift
    for name in ("euclidean-n", "heisenberg", "martinet"):
        assert not get_problem(name).has_drift


def test_bracket_certificates_of_presets(rng):
    heis = get_problem("heisenberg").structure
    mart = get_problem("martinet").structure
    for _ in range(3):
        assert validate_bracket_generating(heis, rng.normal(size=3), 3) == (3, 2)
        p = rng.normal(size=3)
        assert validate_bracket_generating(mart, [p[0], 0.0, p[2]], 3) == (3, 3)


def test_seed_deflection_of_drift_problem_freezes_time():
    prob = get_problem("heisenberg-drift")
    seed = prob.seed_deflection()
    assert seed is not None
    assert seed.shape == (prob.grid_size + 1, prob.structure.dimension + 1)
    np.testing.assert_array_equal(seed[:, -1], 0.0)
    assert np.max(np.abs(seed[:, :-1])) > 0.0
    assert get_problem("heisenberg").seed_deflection() is None


def test_vertical_problem_is_not_in_catalogue():
    prob = vertical_heisenberg_problem()
    assert prob.name not in problem_names()
    assert not prob.unique_limit
    assert prob.grid_size == 200
    assert prob.reference_distance == pytest.approx(1.0)
    assert prob.end[2] == pytest.approx(1.0 / (4.0 * math.pi))
    seed = prob.seed_deflection()
    assert seed is not None and seed.shape == (201, 3)


def test_vertical_distance_formula():
    assert heisenberg_vertical_distance(1.0 / (4.0 * math.pi)) == pytest.approx(1.0)
    assert heisenberg_vertical_distance(math.pi) == pytest.approx(2.0 * math.pi)
    with pytest.raises(ValueError):
        heisenberg_vertical_distance(0.0)
    with pytest.raises(ValueError):
        heisenberg_vertical_distance(-1.0)


def test_vertical_distance_reference_against_lifted_circles(heisenberg):
    # Independent geometric check of the reference formula.  An admissible
    # lifted circle reaching height z always measures at least 2 sqrt(pi z)
    # (the planar isoperimetric bound), and approaches it as the loop
    # shrinks, because the vertical velocity's contribution to the flat
    # metric scales away like the enclosed area.
    for radius, slack in ((0.4, 0.05), (0.02, 3e-4)):
        path = heisenberg_lifted_circle(radius=radius, grid_size=400)
        assert horizontality_defect(heisenberg, path) < 1e-25
        reached = float(path.end[2])
        assert reached == pytest.approx(math.pi * radius**2, rel=1e-4)
        measured = length(heisenberg, 1.0, path)
        reference = heisenberg_vertical_distance(reached)
        assert measured >= reference * (1.0 - 1e-4)
        assert measured <= reference * (1.0 + slack)
