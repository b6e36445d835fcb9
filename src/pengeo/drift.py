"""Affine drift flows and the time-lifted constrained problem.

A control system  p' = X(p) + u  with u constrained to the distribution of
a base structure is reduced to a drift-free problem one dimension up: the
extra coordinate is the time parameter s of the drift flow, the frame is the
flow-pulled-back base frame together with the unit vector along s, and the
metric is the flow pullback of the base metric on the first block with a
unit weight on s.  Pinning s to advance linearly from 0 to 1 makes the q = 1
lifted energy equal to half the control cost plus one half, an identity the
result object reports as a cross-check.

Drifts are affine, X(p) = A p + b, and their flows are evaluated exactly as
exp(t [[A, b], [0, 0]]) (Van Loan, IEEE TAC 23(3), 1978).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functionals import _segments, energy
from .geometry import (
    FrameField,
    MetricField,
    SubRiemannianStructure,
    as_point,
    penalized_forms,
)
from .optimizer import ContinuationSchedule, SolverConfig, continuation_solve

logger = logging.getLogger("pengeo")

__all__ = [
    "DriftField",
    "zero_drift",
    "constant_drift",
    "linear_drift",
    "FlowMap",
    "LiftedStructure",
    "build_lifted_structure",
    "DriftSolveResult",
    "solve_drift_problem",
]

# Taylor degree of the affine flow exponential (truncation error < 1/19!).
FLOW_TAYLOR_DEGREE = 18


@dataclass(frozen=True, eq=False)
class DriftField:
    """Affine drift field X(p) = A p + b, the same at every time.

    The constructor stores A and b as float arrays and raises ValueError
    unless A is square, b has A's size and both are finite.
    """

    name: str
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(
                f"drift field {self.name}: expected a square matrix, got shape {A.shape}"
            )
        if b.shape != A.shape[:1]:
            raise ValueError(
                f"drift field {self.name}: offset has shape {b.shape}, expected {A.shape[:1]}"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError(f"drift field {self.name}: entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def zero_drift(dimension: int) -> DriftField:
    """The zero field; its flow is the identity for all times."""
    return DriftField("zero", np.zeros((dimension, dimension)), np.zeros(dimension))


def constant_drift(vector) -> DriftField:
    """Constant field X = c; the flow translates by t c."""
    c = as_point(vector)
    return DriftField("constant", np.zeros((c.size, c.size)), c)


def linear_drift(matrix) -> DriftField:
    """Linear field X = A p; the flow is the matrix exponential of t A."""
    A = np.asarray(matrix, dtype=float)
    return DriftField("linear", A, np.zeros(A.shape[:1]))


class FlowMap:
    """Flow of an affine drift field: points and Jacobians at given times.

    For X = A p + b the flow is phi_t(p) = M(t) p + v(t), where
    [[M, v], [0, 1]] = exp(t Ahat) with Ahat = [[A, b], [0, 0]].  The
    constructor picks the fewest squarings s with ||2^-s Ahat||_1 <= 1 and
    keeps the Taylor terms (2^-s Ahat)^k / k! for k <= 18, so a batch of
    times in [0, 1] costs one matmul of its time powers against those terms
    and s batched squarings (Moler & Van Loan, SIAM Rev. 45(1), 2003).  On
    every preset ||Ahat||_1 <= 1 and Ahat^2 = 0, so s = 0, the series stops
    after its linear term, and the result is exact.
    """

    def __init__(self, drift: DriftField):
        self.drift = drift
        aug = np.block([[drift.A, drift.b[:, None]], [np.zeros((1, drift.b.size + 1))]])
        # The fewest s with norm <= 2**s, read off norm = mantissa * 2**exponent
        # (mantissa in [0.5, 1)); an overflowing norm fails in _pairs.
        mantissa, exponent = math.frexp(float(np.max(np.sum(np.abs(aug), axis=0))))
        self._squarings = max(0, exponent - 1 if mantissa == 0.5 else exponent)
        scaled = np.ldexp(aug, -self._squarings)
        self._size = aug.shape[0]
        terms = [np.eye(self._size)]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, FLOW_TAYLOR_DEGREE + 1):
                term = terms[-1] @ scaled / k
                if not term.any():  # Ahat is nilpotent: the series ends here
                    break
                terms.append(term)
        self._terms = np.reshape(terms, (len(terms), -1))

    def _pairs(self, ts: np.ndarray):
        """Stacks of the flow matrix M(t) and offset v(t) for every time in ts."""
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise ValueError(f"flow times must lie in [0, 1], got {ts.min()} to {ts.max()}")
        powers = ts[:, None] ** np.arange(self._terms.shape[0])
        # A diverging flow ends in the FloatingPointError below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            flows = np.reshape(powers @ self._terms, (ts.size, self._size, self._size))
            for _ in range(self._squarings):
                flows = flows @ flows
        if not np.isfinite(flows).all():
            raise FloatingPointError(
                f"flow of drift field {self.drift.name} diverged by time {ts.max():g}"
            )
        return flows[:, :-1, :-1], flows[:, :-1, -1]

    def transport_batch(self, times, points):
        """Flow points and Jacobians for per-row times; shapes (m,) and (m, n)."""
        mats, offs = self._pairs(np.asarray(times, dtype=float))
        return np.einsum("mij,mj->mi", mats, np.asarray(points, dtype=float)) + offs, mats

    def inverse(self, t: float, y) -> np.ndarray:
        """Point p with phi_t(p) = y, by one linear solve."""
        mats, offs = self._pairs(np.array([float(t)]))
        return np.linalg.solve(mats[0], as_point(y) - offs[0])


@dataclass(frozen=True)
class LiftedStructure(SubRiemannianStructure):
    """Drift-free structure on (p, s) whose geodesics encode drift controls."""

    base: SubRiemannianStructure = field(repr=False, default=None)  # type: ignore[assignment]
    drift: DriftField = field(repr=False, default=None)  # type: ignore[assignment]
    flow: FlowMap = field(repr=False, default=None, compare=False)  # type: ignore[assignment]

    def _fields(self, points: np.ndarray):
        """Lifted metric and frame stacks at points (p, s), from one flow transport."""
        n = self.base.dimension
        k = self.base.rank
        m = points.shape[0]
        images, jacs = self.flow.transport_batch(points[:, n], points[:, :n])
        G = np.zeros((m, n + 1, n + 1))
        G[:, :n, :n] = np.matmul(
            jacs.transpose(0, 2, 1), np.matmul(self.base.metric.gram_batch(images), jacs)
        )
        G[:, n, n] = 1.0
        F = np.zeros((m, n + 1, k + 1))
        F[:, :n, :k] = np.linalg.solve(jacs, self.base.frame.frame_batch(images))
        F[:, n, k] = 1.0
        return G, F


def build_lifted_structure(
    structure: SubRiemannianStructure,
    drift: DriftField,
) -> LiftedStructure:
    """Lift a base structure and drift to a drift-free structure on (p, s).

    At a lifted point (p, s) with flow data (image, J) = phi_s evaluated at
    p, the metric is block diagonal: J^T G(image) J on the p block and 1 on
    the s coordinate.  The frame consists of the pulled-back base frame
    J^{-1} F(image) extended by zero in s, plus the unit s direction.  The
    s direction is therefore always horizontal, and the p block measures a
    lifted velocity exactly as the base metric measures its flow transport.
    The solver reads metric and frame together, one flow transport per point
    set; the ``metric`` and ``frame`` fields each transport for themselves.
    """
    n = structure.dimension
    if drift.b.size != n:
        raise ValueError(f"drift field {drift.name} does not act on dimension {n}")
    # The field closures read ``lifted`` when called, after it is bound.
    lifted = LiftedStructure(
        dimension=n + 1,
        rank=structure.rank + 1,
        metric=MetricField(gram=lambda pts: lifted._fields(pts)[0]),
        frame=FrameField(columns=lambda pts: lifted._fields(pts)[1]),
        name=f"{structure.name}+drift:{drift.name}",
        base=structure,
        drift=drift,
        flow=FlowMap(drift),
    )
    return lifted


@dataclass(frozen=True)
class DriftSolveResult:
    """Everything the drift reduction produces, plus its consistency gaps.

    ``results`` is the lifted continuation ladder; ``trajectory`` is the
    controlled path gamma(t_i) = phi(s_i, zeta_i) recovered from the final
    lifted minimizer; ``control_grid`` holds grid samples of the control
    (finite differences of the trajectory minus the drift) while
    ``control_mid`` holds the midpoint samples that define ``control_cost``.
    ``cost_identity_gap`` is |cost - (2 E_1 - 1)| for the final lifted path,
    which vanishes up to roundoff because the s coordinate is pinned to the
    time.  ``time_rate_deviation`` is the largest gap between the discrete
    rate of the s coordinate and 1, a roundoff-level check of that pinning.
    """

    results: list
    trajectory: np.ndarray
    control_grid: np.ndarray
    control_mid: np.ndarray
    control_cost: float
    lifted_energy: float
    cost_identity_gap: float
    control_defect: float
    endpoint_mismatch: float
    time_rate_deviation: float
    success: bool
    target: np.ndarray


def solve_drift_problem(
    structure: SubRiemannianStructure,
    drift: DriftField,
    start,
    target,
    schedule: ContinuationSchedule,
    config: SolverConfig,
    integrator_steps: int = 100,  # unused; bench/workloads.py still passes it
    endpoint_tolerance: float = 1e-6,
    seed_deflection: Optional[np.ndarray] = None,
) -> DriftSolveResult:
    """Steer the drift system from ``start`` to ``target`` in unit time.

    Runs penalty continuation on the lifted structure between (start, 0) and
    (phi_1^{-1}(target), 1) with the s coordinate frozen to its linear
    interpolant, so s is the time.  The final lifted minimizer is mapped back
    to the controlled trajectory by one batched flow transport on the grid,
    and the control is read off by a second one at the segment midpoints.
    The control cost is the time integral of the base metric norm squared of
    the control, evaluated at those midpoints so it ties exactly to the
    lifted energy.
    """
    x = as_point(start, structure.dimension)
    y = as_point(target, structure.dimension)
    lifted = build_lifted_structure(structure, drift)
    flow = lifted.flow

    lifted_start = np.concatenate([x, [0.0]])
    lifted_end = np.concatenate([flow.inverse(1.0, y), [1.0]])
    frozen = np.zeros(structure.dimension + 1, dtype=bool)
    frozen[-1] = True

    results = continuation_solve(
        lifted,
        (lifted_start, lifted_end),
        schedule,
        config,
        frozen_coords=frozen,
        seed_deflection=seed_deflection,
    )
    final = results[-1].path
    N = final.grid_size
    n = structure.dimension

    trajectory, _ = flow.transport_batch(final.points[:, n], final.points[:, :n])

    # Midpoint control samples: transport the lifted p-velocity by the flow
    # Jacobian at the segment midpoint, matching the energy quadrature.
    mids, vels = _segments(final)
    base_mid, jacs = flow.transport_batch(mids[:, n], mids[:, :n])
    control_mid = np.einsum("mij,mj->mi", jacs, vels[:, :n])
    G_mid = structure.metric.gram_batch(base_mid)
    control_cost = float(
        np.einsum("mi,mij,mj->", control_mid, G_mid, control_mid) / N
    )

    # Grid control samples for reporting: difference the recovered
    # trajectory and subtract the drift (one-sided at the ends).
    dgamma = np.empty_like(trajectory)
    dgamma[1:-1] = 0.5 * N * (trajectory[2:] - trajectory[:-2])
    dgamma[0] = N * (trajectory[1] - trajectory[0])
    dgamma[-1] = N * (trajectory[-1] - trajectory[-2])
    control_grid = dgamma - (trajectory @ drift.A.T + drift.b)

    lifted_energy = energy(lifted, 1.0, final)
    cost_identity_gap = abs(control_cost - (2.0 * lifted_energy - 1.0))

    _, vertical, _ = penalized_forms(structure, 1.0, base_mid, control_mid)
    control_defect = float(np.sum(vertical) / N)

    time_rate_deviation = float(np.max(np.abs(vels[:, n] - 1.0)))
    endpoint_mismatch = float(np.max(np.abs(trajectory[-1] - y)))
    success = all(r.converged for r in results) and endpoint_mismatch <= endpoint_tolerance
    if not success:
        logger.warning(
            "drift solve on %s: converged=%s, endpoint mismatch %.3e",
            lifted.name,
            all(r.converged for r in results),
            endpoint_mismatch,
        )

    return DriftSolveResult(
        results=results,
        trajectory=trajectory,
        control_grid=control_grid,
        control_mid=control_mid,
        control_cost=control_cost,
        lifted_energy=lifted_energy,
        cost_identity_gap=cost_identity_gap,
        control_defect=control_defect,
        endpoint_mismatch=endpoint_mismatch,
        time_rate_deviation=time_rate_deviation,
        success=success,
        target=y.copy(),
    )
