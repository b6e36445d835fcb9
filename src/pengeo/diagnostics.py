"""Numerical witnesses for the limiting behavior of penalty continuation.

Three computable facts anchor the diagnostics: the discrete energy of a
fixed path is exactly affine in the penalty q (slope half the defect), a
horizontal path's energy deviates from its limit value by at most
q * defect / 2, and along a continuation run the minimized lengths grow
toward the constrained distance while defects shrink.  Reports check these
as verdicts and never raise on a violation; assertions are the test suite's
job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .functionals import (
    HORIZONTAL_TOLERANCE,
    DiscretePath,
    _rms_gap,
    _segments,
    energy,
    horizontality_defect,
    limit_energy,
)
from .geometry import SubRiemannianStructure

__all__ = [
    "NotHorizontalError",
    "QRecord",
    "ConvergenceReport",
    "CauchyStep",
    "CauchyReport",
    "pointwise_affine_check",
    "recovery_sequence_check",
    "distance_chain_report",
    "minimizer_cauchy_report",
]

# Floating-point slack for the order verdicts on lengths and defects.
ORDER_SLACK = 1e-9
# Relative slack of the lengths over the reference distance.
REFERENCE_TOLERANCE = 0.01


class NotHorizontalError(ValueError):
    """Recovery check called on a path whose defect exceeds the tolerance."""


@dataclass(frozen=True)
class QRecord:
    """One continuation step as the report sees it."""

    q: float
    energy: float
    length: float
    defect: float
    iterations: int
    converged: bool
    gradient_norm: float
    rho0: Optional[np.ndarray]
    rho1: Optional[np.ndarray]


@dataclass(frozen=True)
class ConvergenceReport:
    """Ordered per-q records plus the chain verdicts they support.

    ``lengths_within_reference`` and ``final_gap`` are None when no
    reference distance was supplied.  Verdicts use a small floating-point
    slack so exact ties (identical minimizers at consecutive q) pass.
    """

    records: tuple
    energies_nondecreasing: bool
    lengths_nondecreasing: bool
    defects_nonincreasing: bool
    reference_distance: Optional[float]
    lengths_within_reference: Optional[bool]
    final_gap: Optional[float]

    def format_text(self) -> str:
        lines = ["convergence report", "=" * 18, ""]
        header = (
            f"{'q':>12} {'energy':>22} {'length':>22} {'defect':>12}"
            f" {'iters':>6} {'conv':>5} {'rho1_max':>12}"
        )
        lines.append(header)
        for rec in self.records:
            rho1 = "-" if rec.rho1 is None else f"{float(np.max(rec.rho1)):.3e}"
            lines.append(
                f"{rec.q:>12g} {rec.energy:>22.15e} {rec.length:>22.15e}"
                f" {rec.defect:>12.3e} {rec.iterations:>6d}"
                f" {str(rec.converged):>5} {rho1:>12}"
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


def pointwise_affine_check(
    structure: SubRiemannianStructure,
    path: DiscretePath,
    q_list: Sequence[float],
):
    """Least-squares affine fit of q to the energy of one fixed path.

    Returns (intercept, slope, max_residual).  The discrete energy is
    exactly affine in q with slope half the defect, so the residual is pure
    roundoff; callers assert it below 1e-10 * (1 + intercept).
    """
    qs = np.asarray(sorted(float(q) for q in q_list), dtype=float)
    if qs.size < 3 or np.unique(qs).size != qs.size:
        raise ValueError("need at least three distinct penalty values")
    energies = np.array([energy(structure, q, path) for q in qs])
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
    maximum obeys  max <= q_max * defect / 2 + roundoff.

    Raises
    ------
    NotHorizontalError
        If the defect exceeds the tolerance, since the limit energy is
        infinite there and no finite deviation exists.
    """
    defect = horizontality_defect(structure, path)
    if defect > HORIZONTAL_TOLERANCE:
        raise NotHorizontalError(
            f"path has defect {defect:.3e}, above the horizontal tolerance {HORIZONTAL_TOLERANCE:g}"
        )
    limit = limit_energy(structure, path)
    deviations = [abs(energy(structure, q, path) - limit) for q in q_list]
    return float(max(deviations))


def _rho_pairs(results) -> list:
    """(rho0, rho1) per step against the previous minimizer, None for the first.

    The values of :func:`semimetric_rho`, from one pass over each path's
    segments.  Raises ValueError unless all paths share grid size and
    dimension.
    """
    shapes = sorted({r.path.points.shape for r in results})
    if len(shapes) > 1:
        raise ValueError(f"paths must share grid size and dimension: point shapes {shapes}")
    segments = [_segments(r.path) for r in results]
    pairs = [(None, None)]
    for prev, curr in zip(segments, segments[1:]):
        pairs.append((_rms_gap(prev[0], curr[0]), _rms_gap(prev[1], curr[1])))
    return pairs


def distance_chain_report(
    results,
    reference_d_infinity: Optional[float] = None,
) -> ConvergenceReport:
    """Chain verdicts for one continuation run.

    Checks that minimized energies and lengths are nondecreasing and defects
    nonincreasing along the ladder (within floating-point slack), and, when
    a reference constrained distance is given, that every length stays below
    reference * (1 + ``REFERENCE_TOLERANCE``), reporting the final closing gap.
    """
    if not results:
        raise ValueError("need at least one continuation result")
    rhos = _rho_pairs(results)
    records = tuple(
        QRecord(
            q=res.q,
            energy=res.energy,
            length=res.length,
            defect=res.defect,
            iterations=res.iterations,
            converged=res.converged,
            gradient_norm=res.gradient_norm,
            rho0=rho0,
            rho1=rho1,
        )
        for res, (rho0, rho1) in zip(results, rhos)
    )

    energies = [r.energy for r in records]
    lengths = [r.length for r in records]
    defects = [r.defect for r in records]
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

    return ConvergenceReport(
        records=records,
        energies_nondecreasing=energies_ok,
        lengths_nondecreasing=lengths_ok,
        defects_nonincreasing=defects_ok,
        reference_distance=None if reference_d_infinity is None else float(reference_d_infinity),
        lengths_within_reference=within,
        final_gap=gap,
    )


@dataclass(frozen=True)
class CauchyStep:
    """Semimetric gaps between the minimizers at consecutive penalties."""

    q_from: float
    q_to: float
    rho0: np.ndarray
    rho1: np.ndarray


@dataclass(frozen=True)
class CauchyReport:
    """Consecutive-minimizer gap table with an optional uniqueness verdict.

    ``passed`` is None when the limit minimizer is not known to be unique;
    the table is then informational only.
    """

    steps: tuple
    unique_limit: bool
    rho1_threshold: float
    final_rho1_max: float
    passed: Optional[bool]

    def format_text(self) -> str:
        lines = ["minimizer Cauchy table", "=" * 22, ""]
        lines.append(f"{'q_from':>12} {'q_to':>12} {'rho0_max':>12} {'rho1_max':>12}")
        for step in self.steps:
            lines.append(
                f"{step.q_from:>12g} {step.q_to:>12g}"
                f" {float(np.max(step.rho0)):>12.3e} {float(np.max(step.rho1)):>12.3e}"
            )
        lines.append("")
        if self.passed is None:
            lines.append(
                "limit minimizer not unique: gaps reported without a verdict"
            )
        else:
            lines.append(
                f"final rho1 max {self.final_rho1_max:.3e} vs threshold"
                f" {self.rho1_threshold:g}: {'pass' if self.passed else 'FAIL'}"
            )
        return "\n".join(lines) + "\n"


def minimizer_cauchy_report(
    results,
    unique_limit: bool = False,
    rho1_threshold: float = 1e-6,
) -> CauchyReport:
    """Consecutive-minimizer semimetric gaps along a continuation run.

    Needs at least two results on one grid.  The verdict activates only
    when the problem's limit minimizer is declared unique; otherwise
    ``passed`` stays None and callers should only display the table.
    """
    if len(results) < 2:
        raise ValueError("need at least two continuation results")
    steps = [
        CauchyStep(q_from=prev.q, q_to=curr.q, rho0=rho0, rho1=rho1)
        for prev, curr, (rho0, rho1) in zip(results, results[1:], _rho_pairs(results)[1:])
    ]
    final_rho1_max = float(np.max(steps[-1].rho1))
    passed = (final_rho1_max <= rho1_threshold) if unique_limit else None
    return CauchyReport(
        steps=tuple(steps),
        unique_limit=unique_limit,
        rho1_threshold=rho1_threshold,
        final_rho1_max=final_rho1_max,
        passed=passed,
    )
