"""Numerical witnesses for the limiting behavior of penalty continuation.

Three computable facts anchor the diagnostics: the discrete energy of a
fixed path is exactly affine in the penalty q (slope half the defect), a
horizontal path's energy deviates from its limit value by at most
q * defect / 2, and along a continuation run the minimized lengths grow
toward the constrained distance while defects shrink.  One report covers a
run: the chain verdicts and the semimetric gaps between consecutive
minimizers, which are Cauchy when the limit minimizer is unique.  Reports
check these as verdicts and never raise on a violation; assertions are the
test suite's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functionals import HORIZONTAL_TOLERANCE, DiscretePath, _evaluate, _rms_gap, _segments
from .geometry import SubRiemannianStructure, check_penalty

__all__ = [
    "NotHorizontalError",
    "ConvergenceReport",
    "pointwise_affine_check",
    "recovery_sequence_check",
    "distance_chain_report",
]

# Floating-point slack for the order verdicts on lengths and defects.
ORDER_SLACK = 1e-9
# Relative slack of the lengths over the reference distance.
REFERENCE_TOLERANCE = 0.01


class NotHorizontalError(ValueError):
    """Recovery check called on a path whose defect exceeds the tolerance."""


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """One continuation run's results, the gaps between consecutive
    minimizers, and the verdicts they support.

    ``rho0`` and ``rho1`` hold one :func:`semimetric_rho` vector per rung,
    None at the first.  ``lengths_within_reference`` and ``final_gap`` are
    None when no reference distance was supplied, and ``cauchy_passed`` is
    None unless the limit minimizer is declared unique and there are at
    least two rungs; the gap table is then informational only.  Verdicts use
    a small floating-point slack so exact ties (identical minimizers at
    consecutive q) pass.  Reports, which hold arrays, compare by identity.
    """

    results: tuple
    rho0: tuple
    rho1: tuple
    energies_nondecreasing: bool
    lengths_nondecreasing: bool
    defects_nonincreasing: bool
    reference_distance: Optional[float]
    lengths_within_reference: Optional[bool]
    final_gap: Optional[float]
    rho1_threshold: float
    cauchy_passed: Optional[bool]

    def _q_width(self) -> int:
        """Width of the q columns: 12, or the longest q printed exactly."""
        return max([12] + [len(f"{res.q:.17g}") for res in self.results])

    def format_text(self) -> str:
        lines = ["convergence report", "=" * 18, ""]
        w = self._q_width()
        header = (
            f"{'q':>{w}} {'energy':>22} {'length':>22} {'defect':>12}"
            f" {'iters':>6} {'conv':>5} {'rho1_max':>12}"
        )
        lines.append(header)
        for res, rho1 in zip(self.results, self.rho1):
            rho1 = "-" if rho1 is None else f"{float(np.max(rho1)):.3e}"
            lines.append(
                f"{res.q:>{w}.17g} {res.energy:>22.15e} {res.length:>22.15e}"
                f" {res.defect:>12.3e} {res.iterations:>6d}"
                f" {str(res.converged):>5} {rho1:>12}"
            )
        lines.append("")
        lines.append(f"energies nondecreasing in q: {self.energies_nondecreasing}")
        lines.append(f"lengths nondecreasing in q:  {self.lengths_nondecreasing}")
        lines.append(f"defects nonincreasing in q:  {self.defects_nonincreasing}")
        if self.reference_distance is not None:
            lines.append(
                f"reference constrained distance: {self.reference_distance:.17g}"
            )
            lines.append(
                "all lengths within reference * (1 + tol):"
                f" {self.lengths_within_reference}"
                f" (tol {REFERENCE_TOLERANCE:g})"
            )
            lines.append(f"final length gap to reference: {self.final_gap:.6e}")
        return "\n".join(lines) + "\n"

    def format_cauchy(self) -> str:
        """The consecutive-minimizer gap table with its verdict, if any."""
        if len(self.results) < 2:
            raise ValueError("the Cauchy table needs at least two continuation results")
        lines = ["minimizer Cauchy table", "=" * 22, ""]
        w = self._q_width()
        lines.append(f"{'q_from':>{w}} {'q_to':>{w}} {'rho0_max':>12} {'rho1_max':>12}")
        for prev, curr, rho0, rho1 in zip(self.results, self.results[1:], self.rho0[1:], self.rho1[1:]):
            lines.append(
                f"{prev.q:>{w}.17g} {curr.q:>{w}.17g}"
                f" {float(np.max(rho0)):>12.3e} {float(np.max(rho1)):>12.3e}"
            )
        lines.append("")
        if self.cauchy_passed is None:
            lines.append(
                "limit minimizer not unique: gaps reported without a verdict"
            )
        else:
            lines.append(
                f"final rho1 max {float(np.max(self.rho1[-1])):.3e} vs threshold"
                f" {self.rho1_threshold:g}: {'pass' if self.cauchy_passed else 'FAIL'}"
            )
        return "\n".join(lines) + "\n"


def pointwise_affine_check(
    structure: SubRiemannianStructure,
    path: DiscretePath,
    q_list: Sequence[float],
):
    """Least-squares affine fit of q to the energy of one fixed path.

    Returns (intercept, slope, max_residual).  The discrete energy is
    exactly affine in q with slope half the defect, so the residual is pure
    roundoff; callers assert it below 1e-10 * (1 + intercept).  The path is
    evaluated once and read at each q.
    """
    qs = np.asarray(sorted(float(q) for q in q_list), dtype=float)
    if qs.size < 3 or np.unique(qs).size != qs.size:
        raise ValueError("need at least three distinct penalty values")
    evaluation = _evaluate(structure, path)
    energies = np.array([evaluation.energy(check_penalty(q)) for q in qs])
    design = np.column_stack([np.ones_like(qs), qs])
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    intercept, slope = float(coeffs[0]), float(coeffs[1])
    residuals = energies - design @ coeffs
    return intercept, slope, float(np.max(np.abs(residuals)))


def recovery_sequence_check(
    structure: SubRiemannianStructure,
    path: DiscretePath,
    q_list: Sequence[float],
) -> float:
    """Max deviation of the penalized energy from the limit energy.

    The path must be horizontal within ``HORIZONTAL_TOLERANCE``; then the
    deviation at penalty q is (q - 1)/2 times the defect, so the returned
    maximum obeys  max <= q_max * defect / 2 + roundoff.  The path is
    evaluated once and read at each q.

    Raises
    ------
    NotHorizontalError
        If the defect exceeds the tolerance, since the limit energy is
        infinite there and no finite deviation exists.
    """
    evaluation = _evaluate(structure, path)
    defect = evaluation.defect
    if defect > HORIZONTAL_TOLERANCE:
        raise NotHorizontalError(
            f"path has defect {defect:.3e}, above the horizontal tolerance {HORIZONTAL_TOLERANCE:g}"
        )
    limit = evaluation.energy(1.0)
    deviations = [abs(evaluation.energy(check_penalty(q)) - limit) for q in q_list]
    return float(max(deviations))


def distance_chain_report(
    results,
    reference_d_infinity: Optional[float] = None,
    unique_limit: bool = False,
    rho1_threshold: float = 1e-6,
) -> ConvergenceReport:
    """The report of one continuation run.

    Checks that minimized energies and lengths are nondecreasing and defects
    nonincreasing along the ladder (within floating-point slack), and, when
    a reference constrained distance is given, that every length stays below
    reference * (1 + ``REFERENCE_TOLERANCE``), reporting the final closing gap.
    The semimetric gaps between consecutive minimizers need all paths on one
    grid (ValueError otherwise); when the limit minimizer is declared unique,
    the run is Cauchy if the last rung's largest rho1 is at most
    ``rho1_threshold``.
    """
    if not results:
        raise ValueError("need at least one continuation result")
    results = tuple(results)
    # semimetric_rho of each neighbouring pair, from each path segmented once.
    mids, vels = zip(*(_segments(r.path) for r in results))
    rho0, rho1 = ((None,) + tuple(map(_rms_gap, xs, xs[1:])) for xs in (mids, vels))

    energies = [r.energy for r in results]
    lengths = [r.length for r in results]
    defects = [r.defect for r in results]
    energies_ok = all(
        b >= a - ORDER_SLACK * (1.0 + abs(a)) for a, b in zip(energies, energies[1:])
    )
    lengths_ok = all(
        b >= a - ORDER_SLACK * (1.0 + abs(a)) for a, b in zip(lengths, lengths[1:])
    )
    defects_ok = all(
        b <= a + ORDER_SLACK * (1.0 + abs(a)) for a, b in zip(defects, defects[1:])
    )

    within = None
    gap = None
    if reference_d_infinity is not None:
        ref = float(reference_d_infinity)
        if ref <= 0.0:
            raise ValueError("reference distance must be positive")
        within = all(l <= ref * (1.0 + REFERENCE_TOLERANCE) for l in lengths)
        gap = float(ref - lengths[-1])

    cauchy_passed = None
    if unique_limit and len(results) > 1:
        cauchy_passed = float(np.max(rho1[-1])) <= rho1_threshold

    return ConvergenceReport(
        results=results,
        rho0=rho0,
        rho1=rho1,
        energies_nondecreasing=energies_ok,
        lengths_nondecreasing=lengths_ok,
        defects_nonincreasing=defects_ok,
        reference_distance=None if reference_d_infinity is None else float(reference_d_infinity),
        lengths_within_reference=within,
        final_gap=gap,
        rho1_threshold=rho1_threshold,
        cauchy_passed=cauchy_passed,
    )
