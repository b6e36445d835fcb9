"""Affine drift flows and the drift problem in the interaction picture.

A control system  p' = X(p) + u  with u constrained to the distribution of
a base structure becomes a drift-free problem in coordinates that follow
the drift flow: at time t the metric is the flow pullback of the base
metric and the frame is the pulled-back base frame.  That is the one
structure here, :class:`_PulledBackStructure`, and the solver runs on R^n
with its fields at each segment's mid-time.

Each rung is reported on the lifted path (p, s), with s the time: the
problem one dimension up whose metric is diag(G, 1) and whose frame adds
the unit s column.  Its forms are the pulled-back ones with v_s^2 added to
the horizontal form, so the ladder's own final evaluation of each rung
gives them, with no further factorization, and :func:`_lifted_evaluation`
reads a stored lifted path from one factorization of the pulled-back
frame.  With s pinned to advance linearly
from 0 to 1, the q = 1 lifted energy equals half the control cost plus one
half, an identity the result object reports as a cross-check.

Drifts are affine, X(p) = A p + b, and their flows are evaluated exactly as
exp(t [[A, b], [0, 0]]) (Van Loan, IEEE TAC 23(3), 1978).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .functionals import DiscretePath, _evaluate_segments, _Evaluation, _segments
from .geometry import SubRiemannianStructure, as_point
from .optimizer import ContinuationSchedule, SolveResult, SolverConfig, _ladder

logger = logging.getLogger("pengeo")

__all__ = [
    "DriftField",
    "zero_drift",
    "constant_drift",
    "linear_drift",
    "FlowMap",
    "DriftSolveResult",
    "solve_drift_problem",
]

# Taylor degree of the affine flow exponential (truncation error < 1/19!).
FLOW_TAYLOR_DEGREE = 18
# Largest endpoint mismatch of the recovered trajectory that counts as success.
ENDPOINT_TOLERANCE = 1e-6


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
    """Flow of an affine drift field: points, Jacobians and inverse flows at given times.

    For X = A p + b the flow is phi_t(p) = M(t) p + v(t), where
    [[M, v], [0, 1]] = exp(t Ahat) with Ahat = [[A, b], [0, 0]], and the
    inverse flow is exp(-t Ahat) = [[M^{-1}, -M^{-1} v], [0, 1]].  The
    constructor picks the fewest squarings s with ||2^-s Ahat||_1 <= 1 and
    keeps the Taylor terms (2^-s Ahat)^k / k! for k <= 18 beside their
    signed copies (-1)^k (2^-s Ahat)^k / k!, so a batch of times in [0, 1]
    costs one matmul of its time powers against both and s batched
    squarings of both exponentials together (Moler & Van Loan, SIAM Rev.
    45(1), 2003).  Forward transport, pull-back and :meth:`inverse` all
    read that one product, and nothing solves against M(t).  On every
    preset ||Ahat||_1 <= 1 and Ahat^2 = 0, so s = 0, the series stops after
    its linear term, and the result is exact.
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
        terms = np.reshape(terms, (len(terms), -1))
        signs = (-1.0) ** np.arange(len(terms))
        self._terms = np.concatenate([terms, signs[:, None] * terms], axis=1)

    def _pairs(self, ts: np.ndarray):
        """Stacks of exp(t Ahat) and exp(-t Ahat) for every time in ts."""
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise ValueError(f"flow times must lie in [0, 1], got {ts.min()} to {ts.max()}")
        powers = ts[:, None] ** np.arange(self._terms.shape[0])
        # A diverging flow ends in the FloatingPointError below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            flows = np.reshape(powers @ self._terms, (ts.size, 2, self._size, self._size))
            for _ in range(self._squarings):
                flows = flows @ flows
        if not np.isfinite(flows).all():
            raise FloatingPointError(
                f"flow of drift field {self.drift.name} diverged by time {ts.max():g}"
            )
        return flows[:, 0], flows[:, 1]

    def transport_batch(self, times, points):
        """Flow points, Jacobians M(t) and their inverses M(t)^{-1} = exp(-t A)
        for per-row times; shapes (m,) and (m, n)."""
        flows, inverses = self._pairs(np.asarray(times, dtype=float))
        mats = flows[:, :-1, :-1]
        images = np.einsum("mij,mj->mi", mats, np.asarray(points, dtype=float)) + flows[:, :-1, -1]
        return images, mats, inverses[:, :-1, :-1]

    def inverse(self, t: float, y) -> np.ndarray:
        """Point p with phi_t(p) = y: the inverse flow exp(-t Ahat) applied to (y, 1)."""
        _, inverses = self._pairs(np.array([float(t)]))
        return (inverses[0] @ np.append(as_point(y), 1.0))[:-1]


@dataclass(frozen=True)
class _PulledBackStructure(SubRiemannianStructure):
    """The drift problem on R^n in the interaction picture: the base fields
    pulled back by the drift flow, which change in time.

    At time t the metric is J^T G(phi_t p) J and the frame J^{-1} F(phi_t p),
    with J = M(t) the flow Jacobian.  ``metric`` and ``frame`` are the base
    fields G and F, whose checked stacks ``_fields`` pulls back and which
    the pulled-back fields equal at t = 0.  Build it with :func:`_pull_back`.
    """

    flow: FlowMap = field(repr=False, compare=False)

    def _fields(self, points: np.ndarray, times):
        """Pulled-back metric and frame stacks at points p and their times, from one
        flow transport; J^{-1} = exp(-t A) comes from J's series, so no row is solved."""
        if times is None:
            raise ValueError(f"the fields of {self.name} change in time and need the points' times")
        images, jacs, inverses = self.flow.transport_batch(times, points)
        G, F = super()._fields(images)
        return np.matmul(jacs.transpose(0, 2, 1), np.matmul(G, jacs)), np.matmul(inverses, F)


def _pull_back(structure: SubRiemannianStructure, drift: DriftField) -> _PulledBackStructure:
    """The fields of ``structure`` pulled back by the flow of ``drift``."""
    n = structure.dimension
    if drift.b.size != n:
        raise ValueError(f"drift field {drift.name} does not act on dimension {n}")
    return _PulledBackStructure(
        n,
        structure.rank,
        structure.metric,
        structure.frame,
        f"{structure.name}+drift:{drift.name}",
        flow=FlowMap(drift),
    )


def _lifted_evaluation(structure: _PulledBackStructure, q, lifted_path: DiscretePath) -> _Evaluation:
    """The quadrature of a lifted path (p, s), whose metric is diag(G, 1) and
    whose frame has the unit s column beside the pulled-back one.

    The s direction is horizontal with unit weight, so the lifted forms are
    the pulled-back ones at the p-midpoints and the s-midpoints, with v_s^2
    added to the horizontal form: one factorization of the pulled-back
    frame.  The factor, velocities and flux are those of the p block.
    """
    n = structure.dimension
    mids, vels = _segments(lifted_path)
    evaluation = _evaluate_segments(structure, q, mids[:, :n], mids[:, n], vels[:, :n])
    return evaluation.at(q, vels[:, n] ** 2)


def _lifted_result(result: SolveResult, evaluation: _Evaluation) -> SolveResult:
    """A rung solved on R^n, reported on the lifted path (p, t): its certificates
    are those of ``evaluation``, the rung path's evaluation at its q, with the
    lift's v_s^2 added to the horizontal form, bitwise what
    :func:`_lifted_evaluation` reads from the lifted path; its energy history
    adds the 1/2 of the unit s speed."""
    path = DiscretePath(np.column_stack([result.path.points, result.path.times]))
    lifted = evaluation.at(result.q, _segments(path)[1][:, -1] ** 2)
    return replace(
        result,
        path=path,
        energy=lifted.energy,
        length=lifted.length,
        defect=lifted.defect,
        speed_cv=lifted.speed_cv,
        energy_history=tuple(e + 0.5 for e in result.energy_history),
    )


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
    time.  ``control_defect`` is by construction the last rung's defect:
    the mean vertical form of the control in the base frame is the
    pulled-back vertical form of the final velocities, so it is read from
    the last rung's evaluation and factors nothing.
    ``time_rate_deviation`` is the largest gap between the discrete rate of
    the s coordinate and 1, a roundoff-level check of that pinning.
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


def solve_drift_problem(
    structure: SubRiemannianStructure,
    drift: DriftField,
    start,
    target,
    schedule: ContinuationSchedule,
    config: SolverConfig,
    integrator_steps: int = 100,  # unused; bench/workloads.py still passes it
    seed_deflection: Optional[np.ndarray] = None,
) -> DriftSolveResult:
    """Steer the drift system from ``start`` to ``target`` in unit time.

    The lift's s coordinate is the time, so penalty continuation runs on
    R^n, with the fields pulled back by the flow to each segment's mid-time,
    between ``start`` and phi_1^{-1}(target); ``seed_deflection`` has shape
    (N+1, n).  Each rung is reported on the lifted path (p, t), from the
    ladder's own evaluation of its path, and the q = 1 lifted energy is the
    last rung's evaluation re-formed at q = 1, whose defect is the control
    defect.  The final
    minimizer is mapped back to the controlled trajectory by one batched
    flow transport on the grid, and the control is read off by a second one
    at the segment midpoints.  The control cost is the time integral of the
    base metric norm squared of the control, evaluated at those midpoints
    so it ties exactly to the lifted energy.  It succeeds if every rung
    converged and the trajectory ends within ``ENDPOINT_TOLERANCE`` of target.
    """
    x = as_point(start, structure.dimension)
    y = as_point(target, structure.dimension)
    pulled = _pull_back(structure, drift)
    flow = pulled.flow

    endpoints = (x, flow.inverse(1.0, y))
    results = []
    for result, evaluation in _ladder(pulled, endpoints, schedule, config, seed_deflection):
        results.append(_lifted_result(result, evaluation))
    final = results[-1].path
    N = final.grid_size
    n = structure.dimension

    trajectory, _, _ = flow.transport_batch(final.points[:, n], final.points[:, :n])

    # Midpoint control samples: transport the lifted p-velocity by the flow
    # Jacobian at the segment midpoint, matching the energy quadrature.
    mids, vels = _segments(final)
    base_mid, jacs, _ = flow.transport_batch(mids[:, n], mids[:, :n])
    control_mid = np.einsum("mij,mj->mi", jacs, vels[:, :n])
    G_mid = structure._fields(base_mid)[0]
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

    lifted_energy = evaluation.at(1.0, vels[:, n] ** 2).energy  # the last rung's evaluation
    cost_identity_gap = abs(control_cost - (2.0 * lifted_energy - 1.0))

    time_rate_deviation = float(np.max(np.abs(vels[:, n] - 1.0)))
    endpoint_mismatch = float(np.max(np.abs(trajectory[-1] - y)))
    success = all(r.converged for r in results) and endpoint_mismatch <= ENDPOINT_TOLERANCE
    if not success:
        logger.warning(
            "drift solve on %s: converged=%s, endpoint mismatch %.3e",
            pulled.name,
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
        control_defect=evaluation.defect,
        endpoint_mismatch=endpoint_mismatch,
        time_rate_deviation=time_rate_deviation,
        success=success,
    )
