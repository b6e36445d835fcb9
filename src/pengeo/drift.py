"""Drift flows, control pullback, and the time-lifted constrained problem.

A control system  p' = X(t, p) + u  with u constrained to the distribution
of a base structure is reduced to a drift-free problem one dimension up:
the extra coordinate is the time parameter s of the drift flow, the frame is
the flow-pulled-back base frame together with the unit vector along s, and
the metric is the flow pullback of the base metric on the first block with a
unit weight on s.  Pinning s to advance linearly from 0 to 1 makes the q = 1
lifted energy equal to half the control cost plus one half, an identity the
result object reports as a cross-check.

Affine drifts X(t, p) = A p + b, which all the built-in kinds are, have the
exact flow exp(t [[A, b], [0, 0]]) (Van Loan, IEEE TAC 23(3), 1978).  Other
fields are integrated with classical fourth-order Runge-Kutta, jointly with
their Jacobians (variational equation).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .functionals import energy
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
    "integrate_flow",
    "FlowMap",
    "pullback_control",
    "LiftedStructure",
    "build_lifted_structure",
    "DriftSolveResult",
    "solve_drift_problem",
]

JACOBIAN_FD_SCALE = 1e-5

# Taylor degree of the affine flow exponential (truncation error < 1/19!).
FLOW_TAYLOR_DEGREE = 18


@dataclass(frozen=True)
class DriftField:
    """Time-dependent vector field X(t, p) with an optional analytic Jacobian.

    ``eval`` maps (t, p) to the drift vector; ``jacobian``, if given, maps
    (t, p) to the matrix of partial derivatives in p, otherwise central
    differences are used.  ``affine`` holds (A, b) for fields X = A p + b,
    whose flows :class:`FlowMap` evaluates exactly, and is None otherwise.
    Only non-affine fields are integrated, so only they read a step count.
    """

    name: str
    eval: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    affine: Optional[tuple] = None

    def __call__(self, t: float, p) -> np.ndarray:
        pt = as_point(p)
        out = np.asarray(self.eval(float(t), pt), dtype=float)
        if out.shape != pt.shape:
            raise ValueError(
                f"drift field {self.name} returned shape {out.shape} at a point of shape {pt.shape}"
            )
        return out

    def jac(self, t: float, p) -> np.ndarray:
        pt = as_point(p)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(float(t), pt), dtype=float)
        h = JACOBIAN_FD_SCALE * (1.0 + float(np.max(np.abs(pt))))
        cols = []
        for a in range(pt.size):
            e = np.zeros(pt.size)
            e[a] = h
            cols.append((self(t, pt + e) - self(t, pt - e)) / (2.0 * h))
        return np.column_stack(cols)


def _affine_drift(name: str, A: np.ndarray, b: np.ndarray) -> DriftField:
    return DriftField(
        name=name, eval=lambda t, p: A @ p + b, jacobian=lambda t, p: A, affine=(A, b)
    )


def zero_drift(dimension: int) -> DriftField:
    """The zero field; its flow is the identity for all times."""
    return _affine_drift("zero", np.zeros((dimension, dimension)), np.zeros(dimension))


def constant_drift(vector) -> DriftField:
    """Constant field X = c; the flow translates by t c."""
    c = as_point(vector)
    return _affine_drift("constant", np.zeros((c.size, c.size)), c)


def linear_drift(matrix) -> DriftField:
    """Linear field X = A p; the flow is the matrix exponential of t A."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _affine_drift("linear", A, np.zeros(A.shape[0]))


def integrate_flow(drift: DriftField, p, t: float, steps: int):
    """Flow point and Jacobian at time t by joint RK4 integration.

    Integrates  r' = X(s, r)  and the variational equation
    J' = (dX/dp)(s, r) J  from (p, I) over ``steps`` uniform substeps.
    Negative t is not supported here; use :meth:`FlowMap.inverse` to go
    backward.  Returns the pair (flow point, Jacobian matrix).
    """
    pt = as_point(p)
    tf = float(t)
    if not 0.0 <= tf <= 1.0:
        raise ValueError(f"flow time must lie in [0, 1], got {tf}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    n = pt.size
    if tf == 0.0:
        return pt.copy(), np.eye(n)

    h = tf / steps

    def rhs(s, state):
        r, J = state
        if not np.all(np.isfinite(r)):
            raise FloatingPointError(
                f"flow of drift field {drift.name} diverged near time {s:g}"
            )
        return drift(s, r), drift.jac(s, r) @ J

    r = pt.copy()
    J = np.eye(n)
    # A diverging flow ends in the FloatingPointError below, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            s = i * h
            k1 = rhs(s, (r, J))
            k2 = rhs(s + 0.5 * h, (r + 0.5 * h * k1[0], J + 0.5 * h * k1[1]))
            k3 = rhs(s + 0.5 * h, (r + 0.5 * h * k2[0], J + 0.5 * h * k2[1]))
            k4 = rhs(s + h, (r + h * k3[0], J + h * k3[1]))
            r = r + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            J = J + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
        raise FloatingPointError(
            f"flow of drift field {drift.name} diverged by time {tf}"
        )
    return r, J


class FlowMap:
    """Flow of a drift field: points and Jacobians at given times.

    For an affine drift X = A p + b the flow is phi_t(p) = M(t) p + v(t),
    where [[M, v], [0, 1]] = exp(t Ahat) with Ahat = [[A, b], [0, 0]].  The
    constructor picks the fewest squarings s with ||2^-s Ahat||_1 <= 1 and
    keeps the Taylor terms (2^-s Ahat)^k / k! for k <= 18, so a batch of
    times in [0, 1] costs one matmul of its time powers against those terms
    and s batched squarings (Moler & Van Loan, SIAM Rev. 45(1), 2003).  On
    every preset ||Ahat||_1 <= 1 and Ahat^2 = 0, so s = 0, the series stops
    after its linear term, and the result is exact.  Other drifts are
    integrated by RK4 per row at ``steps_per_unit`` steps per unit time.
    """

    def __init__(self, drift: DriftField, steps_per_unit: int = 100):
        if steps_per_unit < 1:
            raise ValueError("steps_per_unit must be at least 1")
        self.drift = drift
        self.steps_per_unit = steps_per_unit
        if drift.affine is None:
            return
        A, b = drift.affine
        aug = np.block([[A, b[:, None]], [np.zeros((1, b.size + 1))]])
        # The fewest s with norm <= 2**s, read off norm = mantissa * 2**exponent
        # (mantissa in [0.5, 1)); a non-finite norm fails in _affine_pairs.
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

    def _steps(self, t: float) -> int:
        return max(1, int(np.ceil(self.steps_per_unit * abs(t))))

    def _affine_pairs(self, ts: np.ndarray):
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

    def transport(self, t: float, p):
        """Flow point and Jacobian at time t from p."""
        images, jacs = self.transport_batch(np.array([float(t)]), as_point(p)[None, :])
        return images[0], jacs[0]

    def transport_batch(self, times, points):
        """Flow points and Jacobians for per-row times; shapes (m,) and (m, n)."""
        ts = np.asarray(times, dtype=float)
        pts = np.asarray(points, dtype=float)
        m, n = pts.shape
        if self.drift.affine is not None:
            mats, offs = self._affine_pairs(ts)
            return np.einsum("mij,mj->mi", mats, pts) + offs, mats
        images = np.empty_like(pts)
        jacs = np.empty((m, n, n))
        for i in range(m):
            t = float(ts[i])
            images[i], jacs[i] = integrate_flow(self.drift, pts[i], t, self._steps(t))
        return images, jacs

    def map(self, t: float, p) -> np.ndarray:
        """Flow point only."""
        return self.transport(t, p)[0]

    def inverse(self, t: float, y) -> np.ndarray:
        """Point p with phi_t(p) = y.

        Affine flows invert by a linear solve.  General flows integrate the
        reversed field  r'(s) = -X(t - s, r)  from y over time t, which
        traces the trajectory backward.
        """
        yt = as_point(y)
        tf = float(t)
        if tf == 0.0:
            return yt.copy()
        if self.drift.affine is not None:
            mats, offs = self._affine_pairs(np.array([tf]))
            return np.linalg.solve(mats[0], yt - offs[0])
        reversed_field = DriftField(
            name=f"{self.drift.name}-reversed",
            eval=lambda s, r: -self.drift(tf - s, r),
            jacobian=lambda s, r: -self.drift.jac(tf - s, r),
        )
        r, _ = integrate_flow(reversed_field, yt, tf, self._steps(tf))
        return r


def pullback_control(flow: FlowMap, control: Callable[[float, np.ndarray], np.ndarray], t: float, p) -> np.ndarray:
    """Pull a control vector at the flow image back through the flow Jacobian.

    Returns the solution u of  J_phi(t, p) u = control(t, phi_t(p)), i.e.
    the vector at p that the flow transports onto the given control vector.
    """
    pt = as_point(p)
    image, J = flow.transport(t, pt)
    target = np.asarray(control(float(t), image), dtype=float)
    return np.linalg.solve(J, target)


@dataclass(frozen=True)
class LiftedStructure(SubRiemannianStructure):
    """Drift-free structure on (p, s) whose geodesics encode drift controls."""

    base: SubRiemannianStructure = field(repr=False, default=None)  # type: ignore[assignment]
    drift: DriftField = field(repr=False, default=None)  # type: ignore[assignment]
    flow: FlowMap = field(repr=False, default=None, compare=False)  # type: ignore[assignment]


def build_lifted_structure(
    structure: SubRiemannianStructure,
    drift: DriftField,
    integrator_steps: int = 100,
) -> LiftedStructure:
    """Lift a base structure and drift to a drift-free structure on (p, s).

    At a lifted point (p, s) with flow data (image, J) = phi_s evaluated at
    p, the metric is block diagonal: J^T G(image) J on the p block and 1 on
    the s coordinate.  The frame consists of the pulled-back base frame
    J^{-1} F(image) extended by zero in s, plus the unit s direction.  The
    s direction is therefore always horizontal, and the p block measures a
    lifted velocity exactly as the base metric measures its flow transport.
    ``integrator_steps`` is the RK4 resolution for a non-affine drift.
    """
    n = structure.dimension
    if drift.affine is not None and drift.affine[1].size != n:
        raise ValueError(f"drift field {drift.name} does not act on dimension {n}")
    flow = FlowMap(drift, steps_per_unit=integrator_steps)

    def lifted_gram(points: np.ndarray) -> np.ndarray:
        m = points.shape[0]
        images, jacs = flow.transport_batch(points[:, n], points[:, :n])
        Gb = structure.metric.gram_batch(images)
        out = np.zeros((m, n + 1, n + 1))
        out[:, :n, :n] = np.matmul(jacs.transpose(0, 2, 1), np.matmul(Gb, jacs))
        out[:, n, n] = 1.0
        return out

    def lifted_columns(points: np.ndarray) -> np.ndarray:
        m = points.shape[0]
        k = structure.rank
        images, jacs = flow.transport_batch(points[:, n], points[:, :n])
        Fb = structure.frame.frame_batch(images)
        out = np.zeros((m, n + 1, k + 1))
        out[:, :n, :k] = np.linalg.solve(jacs, Fb)
        out[:, n, k] = 1.0
        return out

    return LiftedStructure(
        dimension=n + 1,
        rank=structure.rank + 1,
        metric=MetricField(gram=lifted_gram),
        frame=FrameField(columns=lifted_columns),
        name=f"{structure.name}+drift:{drift.name}",
        base=structure,
        drift=drift,
        flow=flow,
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
    integrator_steps: int = 100,
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
    lifted = build_lifted_structure(structure, drift, integrator_steps)
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
    mids = 0.5 * (final.points[:-1] + final.points[1:])
    vels = N * (final.points[1:] - final.points[:-1])
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
    times = final.times
    control_grid = np.empty_like(trajectory)
    for i in range(N + 1):
        control_grid[i] = dgamma[i] - drift(float(times[i]), trajectory[i])

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
