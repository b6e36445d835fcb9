from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from pengeo import (
    ContinuationSchedule,
    DiscretePath,
    NotHorizontalError,
    SolverConfig,
    SolveResult,
    continuation_solve,
    distance_chain_report,
    energy,
    get_problem,
    horizontality_defect,
    limit_energy,
    pointwise_affine_check,
    recovery_sequence_check,
)
from pengeo import functionals
from conftest import random_path


def _fake_result(q, path, energy_value, length_value, defect_value):
    return SolveResult(
        q=q,
        path=path,
        energy=energy_value,
        length=length_value,
        defect=defect_value,
        iterations=1,
        converged=True,
        gradient_norm=0.0,
        speed_cv=0.0,
        energy_history=(energy_value,),
    )


@pytest.fixture(scope="module")
def heisenberg_chord_run(heisenberg):
    config = SolverConfig(grid_size=40)
    sched = ContinuationSchedule(q_start=1.0, ratio=10.0, step_count=4)
    return continuation_solve(
        heisenberg, (np.zeros(3), np.array([1.0, 0.0, 0.0])), sched, config
    )


def test_affine_check_recovers_defect_slope(heisenberg, rng):
    path = random_path(heisenberg, 30, rng)
    intercept, slope, residual = pointwise_affine_check(
        heisenberg, path, [1.0, 3.0, 10.0, 30.0, 100.0]
    )
    defect = horizontality_defect(heisenberg, path)
    assert slope == pytest.approx(defect / 2.0, rel=1e-12)
    assert residual <= 1e-10 * (1.0 + abs(intercept))
    with pytest.raises(ValueError):
        pointwise_affine_check(heisenberg, path, [1.0, 2.0])
    with pytest.raises(ValueError):
        pointwise_affine_check(heisenberg, path, [1.0, 2.0, 2.0])


def test_recovery_check_on_horizontal_chord(heisenberg):
    chord = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 50)
    gap = recovery_sequence_check(
        heisenberg, chord, [1.0, 10.0, 100.0, 1000.0, 1e4]
    )
    assert gap <= 1e-10


def test_recovery_check_rejects_vertical_path(heisenberg):
    vertical = DiscretePath.chord(np.zeros(3), np.array([0.0, 0.0, 1.0]), 20)
    with pytest.raises(NotHorizontalError):
        recovery_sequence_check(heisenberg, vertical, [1.0, 10.0])


def test_chain_report_on_real_run(heisenberg_chord_run):
    report = distance_chain_report(heisenberg_chord_run, reference_d_infinity=1.0)
    assert report.energies_nondecreasing
    assert report.lengths_nondecreasing
    assert report.defects_nonincreasing
    assert report.lengths_within_reference
    assert abs(report.final_gap) < 1e-4
    assert report.rho0[0] is None
    assert report.rho1[1] is not None
    text = report.format_text()
    assert "nondecreasing" in text
    assert "q=1000" in text or "1000" in text


def _column_ends(line: str) -> list:
    return [match.end() for match in re.finditer(r"\S+", line)]


@pytest.mark.parametrize(
    "q_top, width", [(10.0, 12), (1.0000009999999999, 18)], ids=["default", "long-q"]
)
def test_report_columns_line_up_with_their_headers(q_top, width):
    # The q columns are 12 wide, or as wide as the longest q printed with 17
    # significant digits, so every row of both tables ends each column where
    # its header does.
    path = DiscretePath.chord(np.zeros(2), np.ones(2), 5)
    results = [_fake_result(q, path, 1.0, 1.0, 0.5) for q in (1.0, q_top)]
    report = distance_chain_report(results)
    for text, header, rows in (
        (report.format_text(), " energy ", 2),
        (report.format_cauchy(), " q_to ", 1),
    ):
        lines = text.splitlines()
        at = next(i for i, line in enumerate(lines) if header in line)
        table = lines[at : at + 1 + rows]
        assert lines[at + 1 + rows] == ""
        assert [_column_ends(line) for line in table[1:]] == [_column_ends(table[0])] * rows
        assert re.match(rf" {{{width - 1}}}1 ", table[1])


def _equal_problems():
    problem = get_problem("heisenberg")
    return problem, replace(problem, end=problem.end.copy())


def _equal_reports():
    path = DiscretePath.chord(np.zeros(2), np.ones(2), 5)
    rung = _fake_result(1.0, path, 1.0, 1.0, 0.5)
    results = [rung, replace(rung, q=10.0)]
    return distance_chain_report(results), distance_chain_report(results)


@pytest.mark.parametrize(
    "pair", [_equal_problems, _equal_reports], ids=["Problem", "ConvergenceReport"]
)
def test_records_holding_arrays_answer_eq_and_hash(pair):
    # Two records equal field by field hold equal but distinct arrays, whose
    # truth value is ambiguous; records compare and hash by identity instead.
    first, second = pair()
    assert first == first
    assert (first == second) is False
    assert hash(first) == hash(first)
    assert hash(first) != hash(second)


def test_chain_report_flags_violations():
    path = DiscretePath.chord(np.zeros(2), np.ones(2), 5)
    good = _fake_result(1.0, path, 1.0, 1.0, 0.5)
    worse = _fake_result(10.0, path, 0.5, 0.9, 0.7)
    report = distance_chain_report([good, worse])
    assert not report.energies_nondecreasing
    assert not report.lengths_nondecreasing
    assert not report.defects_nonincreasing
    assert report.reference_distance is None
    assert report.lengths_within_reference is None


def test_chain_report_validation():
    with pytest.raises(ValueError):
        distance_chain_report([])
    path = DiscretePath.chord(np.zeros(2), np.ones(2), 5)
    res = _fake_result(1.0, path, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        distance_chain_report([res], reference_d_infinity=-1.0)


def test_cauchy_report_on_unique_limit(heisenberg_chord_run):
    report = distance_chain_report(heisenberg_chord_run, unique_limit=True)
    assert report.cauchy_passed is True
    assert float(np.max(report.rho1[-1])) <= 1e-6
    text = report.format_cauchy()
    assert "rho" in text


def test_cauchy_report_without_uniqueness(heisenberg_chord_run):
    report = distance_chain_report(heisenberg_chord_run, unique_limit=False)
    assert report.cauchy_passed is None


def test_cauchy_report_needs_two_results(heisenberg_chord_run):
    report = distance_chain_report(heisenberg_chord_run[:1], unique_limit=True)
    assert report.cauchy_passed is None
    with pytest.raises(ValueError):
        report.format_cauchy()


def test_cauchy_report_needs_matching_grids(heisenberg_chord_run):
    small = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 10)
    mismatched = list(heisenberg_chord_run) + [_fake_result(1e5, small, 0.5, 1.0, 0.0)]
    with pytest.raises(ValueError):
        distance_chain_report(mismatched, unique_limit=True)


def test_witnesses_factor_the_path_once(heisenberg, rng, monkeypatch):
    # Each witness evaluates its path once and re-forms it at every q, which
    # gives the energies energy() gives, bitwise.
    path = random_path(heisenberg, 30, rng)
    chord = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 50)
    qs = [1.0, 3.0, 10.0, 30.0, 100.0]
    energies = np.array([energy(heisenberg, q, path) for q in qs])
    design = np.column_stack([np.ones(len(qs)), qs])
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    expected_fit = (
        float(coeffs[0]),
        float(coeffs[1]),
        float(np.max(np.abs(energies - design @ coeffs))),
    )
    limit = limit_energy(heisenberg, chord)
    expected_gap = max(abs(energy(heisenberg, q, chord) - limit) for q in qs)

    factored = []
    original = functionals._factor_frame

    def counted(structure, points, times=None):
        factored.append(points.shape[0])
        return original(structure, points, times)

    monkeypatch.setattr(functionals, "_factor_frame", counted)
    assert pointwise_affine_check(heisenberg, path, qs) == expected_fit
    assert len(factored) == 1
    assert recovery_sequence_check(heisenberg, chord, qs) == expected_gap
    assert len(factored) == 2
