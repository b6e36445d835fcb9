"""Drift flows, control pullback, and the time-lifted constrained problem.

A control system  p' = X(t, p) + u  with u constrained to the distribution
of a base structure is reduced to a drift-free problem one dimension up:
the extra coordinate is the time parameter s of the drift flow, the frame is
the flow-pulled-back base frame together with the unit vector along s, and
the metric is the flow pullback of the base metric on the first block with a
unit weight on s.  Pinning s to advance linearly from 0 to 1 makes the q = 1
lifted energy equal to half the control cost plus one half, an identity the
result object reports as a cross-check.

Flows are integrated with classical fourth-order Runge-Kutta, jointly with
their Jacobians (variational equation).  Affine drifts X(t, p) = A p + b get
their transported (matrix, offset) pairs cached per time, which turns the
per-quadrature-point flow work into a single matmul.
"""

from __future__ import annotations

import logging
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

# Most (matrix, offset) pairs an affine FlowMap keeps before it starts over.
FLOW_CACHE_LIMIT = 65536


@dataclass(frozen=True)
class DriftField:
    """Time-dependent vector field X(t, p) with an optional analytic Jacobian.

    ``eval`` maps (t, p) to the drift vector; ``jacobian``, if given, maps
    (t, p) to the matrix of partial derivatives in p, otherwise central
    differences are used.  ``affine`` marks fields of the form A(t) p + b(t),
    which unlocks exact flow caching in :class:`FlowMap`.
    """

    name: str
    eval: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    affine: bool = False

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


def zero_drift(dimension: int) -> DriftField:
    """The zero field; its flow is the identity for all times."""
    z = np.zeros(dimension)
    j = np.zeros((dimension, dimension))
    return DriftField(
        name="zero",
        eval=lambda t, p: z,
        jacobian=lambda t, p: j,
        affine=True,
    )


def constant_drift(vector) -> DriftField:
    """Constant field X = c; the flow translates by t c."""
    c = as_point(vector)
    j = np.zeros((c.size, c.size))
    return DriftField(
        name="constant",
        eval=lambda t, p: c,
        jacobian=lambda t, p: j,
        affine=True,
    )


def linear_drift(matrix) -> DriftField:
    """Linear field X = A p; the flow is the matrix exponential of t A."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return DriftField(
        name="linear",
        eval=lambda t, p: A @ p,
        jacobian=lambda t, p: A,
        affine=True,
    )


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
    """Flow of a drift field with per-time caching for affine fields.

    For affine drifts the flow is itself affine, phi_t(p) = M(t) p + v(t)
    with Jacobian M(t), so one integration from the origin and one from each
    basis point would suffice; here M and v are recovered from a single
    joint integration at the origin (M is the Jacobian there, v the image of
    the origin) and cached in a table sorted by t, which a batch of times
    reads with one ``np.searchsorted``.  Non-affine drifts fall back to a
    fresh integration per call.
    """

    def __init__(self, drift: DriftField, steps_per_unit: int = 100):
        if steps_per_unit < 1:
            raise ValueError("steps_per_unit must be at least 1")
        self.drift = drift
        self.steps_per_unit = steps_per_unit
        self._times = np.empty(0)
        self._mats = None
        self._offs = None

    def _steps(self, t: float) -> int:
        return max(1, int(np.ceil(self.steps_per_unit * abs(t))))

    def transport(self, t: float, p):
        """Flow point and Jacobian at time t from p."""
        pt = as_point(p)
        if self.drift.affine:
            M, v = self._affine_pair(t, pt.size)
            return M @ pt + v, M.copy()
        return integrate_flow(self.drift, pt, t, self._steps(t))

    def transport_batch(self, times, points):
        """Flow points and Jacobians for per-row times; shapes (m,) and (m, n).

        Affine drifts gather cached (matrix, offset) pairs for all rows at
        once and finish with a batched matmul; other drifts fall back to one
        integration per row.
        """
        ts = np.asarray(times, dtype=float)
        pts = np.asarray(points, dtype=float)
        m, n = pts.shape
        if self.drift.affine:
            mats, offs = self._affine_pairs(ts, n)
            images = np.einsum("mij,mj->mi", mats, pts) + offs
            return images, mats
        images = np.empty_like(pts)
        jacs = np.empty((m, n, n))
        for i in range(m):
            t = float(ts[i])
            images[i], jacs[i] = integrate_flow(self.drift, pts[i], t, self._steps(t))
        return images, jacs

    def _affine_pairs(self, ts: np.ndarray, n: int):
        """Stacks of the flow matrix M(t) and offset v(t) for every time in ts.

        Times missing from the table are integrated once each and merged in;
        a full table keeps just the times of the current batch.
        """
        if self._mats is None:
            self._mats = np.empty((0, n, n))
            self._offs = np.empty((0, n))
        distinct, rows = np.unique(ts, return_inverse=True)
        slots = np.searchsorted(self._times, distinct)
        known = slots < self._times.size
        known[known] = self._times[slots[known]] == distinct[known]
        if not np.all(known):
            fresh = distinct[~known]
            mats = np.empty((fresh.size, n, n))
            offs = np.empty((fresh.size, n))
            for i, t in enumerate(fresh.tolist()):
                if t == 0.0:
                    mats[i], offs[i] = np.eye(n), 0.0
                else:
                    offs[i], mats[i] = integrate_flow(
                        self.drift, np.zeros(n), t, self._steps(t)
                    )
            if self._times.size + fresh.size > FLOW_CACHE_LIMIT:
                keep = slots[known]
                self._times = self._times[keep]
                self._mats = self._mats[keep]
                self._offs = self._offs[keep]
            times = np.concatenate([self._times, fresh])
            order = np.argsort(times)
            self._times = times[order]
            self._mats = np.concatenate([self._mats, mats])[order]
            self._offs = np.concatenate([self._offs, offs])[order]
            slots = np.searchsorted(self._times, distinct)
        picks = slots[rows]
        return self._mats[picks], self._offs[picks]

    def _affine_pair(self, t: float, n: int):
        """M(t) and v(t) for one time, as views into the table (not to be written)."""
        key = float(t)
        slot = int(np.searchsorted(self._times, key))
        if slot == self._times.size or self._times[slot] != key:
            self._affine_pairs(np.array([key]), n)
            slot = int(np.searchsorted(self._times, key))
        return self._mats[slot], self._offs[slot]

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
        if self.drift.affine:
            M, v = self._affine_pair(tf, yt.size)
            return np.linalg.solve(M, yt - v)
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
    """
    n = structure.dimension
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
        metric=MetricField(gram=lifted_gram, vectorized=True),
        frame=FrameField(columns=lifted_columns, vectorized=True),
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
