"""Energy minimization over interior path points, with penalty continuation.

The decision variable is the flattened stack of interior points of a
:class:`~pengeo.functionals.DiscretePath`; endpoints stay pinned.  The
gradient of the discrete energy is assembled from the penalized form's flux
vectors (velocity dependence, exact) plus a central finite difference in the
segment midpoints (base-point dependence of the metric and frame).

Minimization is a backtracking descent with optional limited-memory
quasi-Newton acceleration.  The quasi-Newton initial metric is not the usual
scalar multiple of the identity but the exact velocity-part Hessian of the
discrete energy, a block tridiagonal matrix assembled from the penalized
metric at the segment midpoints.  That term carries both ill-conditioning
sources (the 1/N^2 grid stiffness and the penalty q), so solving against it
leaves the curvature pairs only the gentle metric-variation remainder; large
penalties then cost roughly as many iterations as small ones.  It is factored
by block cyclic reduction, which works on all blocks of a level at once in
O(log N) batched calls.  Continuation walks a geometric penalty ladder and
warm starts each solve from the previous minimizer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functionals import DiscretePath, energy, horizontality_defect, length
from .geometry import (
    SubRiemannianStructure,
    check_penalty,
    penalized_forms,
    penalized_gram,
)

logger = logging.getLogger("pengeo")

__all__ = [
    "SolverConfig",
    "ContinuationSchedule",
    "SolveResult",
    "StepUnderflowError",
    "energy_gradient",
    "minimize_energy",
    "continuation_solve",
    "constant_speed_reparametrize",
]

# Relative step scale for differencing the quadratic form in its base point.
MIDPOINT_FD_SCALE = 1e-6

# Line search steps below this are treated as a hard failure.
STEP_FLOOR = 1e-20

# Curvature pairs with s.y below this relative threshold are discarded.
CURVATURE_FLOOR = 1e-12

# Accepted steps whose energy decrease is below this relative size count as
# stagnant; a long run of them means the iteration has hit the resolution of
# double precision and further polishing cannot help.
STAGNATION_EPS = 1e-14
STAGNATION_LIMIT = 30


class StepUnderflowError(RuntimeError):
    """Backtracking line search shrank the step below the floor."""


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver settings shared across all continuation steps."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    initial_step: float = 1.0
    backtracking_ratio: float = 0.5
    sufficient_decrease: float = 1e-4
    grid_size: int = 100
    quasi_newton: bool = True
    memory: int = 10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.gradient_tolerance:
            raise ValueError("gradient_tolerance must be positive")
        if not 0.0 < self.initial_step:
            raise ValueError("initial_step must be positive")
        if not 0.0 < self.backtracking_ratio < 1.0:
            raise ValueError("backtracking_ratio must lie in (0, 1)")
        if not 0.0 < self.sufficient_decrease <= 0.5:
            raise ValueError("sufficient_decrease must lie in (0, 0.5]")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric penalty ladder q_j = q_start * ratio**j, j = 0..step_count-1."""

    q_start: float = 1.0
    ratio: float = 10.0
    step_count: int = 5

    def __post_init__(self):
        check_penalty(self.q_start)
        if self.ratio <= 1.0:
            raise ValueError("ratio must exceed 1 so the ladder ascends")
        if self.step_count < 1:
            raise ValueError("step_count must be positive")

    def q_values(self) -> np.ndarray:
        return self.q_start * self.ratio ** np.arange(self.step_count, dtype=float)


@dataclass(frozen=True)
class SolveResult:
    """Minimizer and certificates for one penalty value.

    ``energy``, ``length`` and ``defect`` are re-evaluations of the stored
    path through the public functionals, so they can be reproduced from the
    path alone.
    """

    q: float
    path: DiscretePath
    energy: float
    length: float
    defect: float
    iterations: int
    converged: bool
    gradient_norm: float
    speed_cv: float
    energy_history: tuple


def _speed_variation(structure: SubRiemannianStructure, q: float, path: DiscretePath) -> float:
    """Coefficient of variation of the per-segment penalized speeds."""
    pts = path.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    vels = path.grid_size * (pts[1:] - pts[:-1])
    horizontal, vertical, _ = penalized_forms(structure, q, mids, vels)
    speeds = np.sqrt(np.clip(horizontal + q * vertical, 0.0, None))
    mean = float(np.mean(speeds))
    if mean <= 0.0:
        return 0.0
    return float(np.std(speeds) / mean)


def energy_gradient(
    structure: SubRiemannianStructure,
    q,
    path: DiscretePath,
    frozen_coords: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the discrete energy in the flattened interior points.

    The velocity dependence is differentiated exactly through the penalized
    form's flux; the base-point dependence (metric and frame varying along
    the path) is differenced centrally in the midpoint coordinates.
    Coordinates flagged in ``frozen_coords`` (a boolean mask of length n)
    are excluded from both parts and their gradient entries are zero, which
    pins those coordinates to whatever the path already does linearly.
    """
    qf = check_penalty(q)
    pts = path.points
    N = path.grid_size
    n = path.dimension
    mids = 0.5 * (pts[:-1] + pts[1:])
    vels = N * (pts[1:] - pts[:-1])

    # Velocity dependence: d/dv of the quadratic form is 2 flux, the segment
    # velocity scales differences by N, and the quadrature carries 1/(2N),
    # so the factors cancel and each segment contributes +-flux to its ends.
    _, _, flux = penalized_forms(structure, qf, mids, vels)
    grad = np.zeros_like(pts)
    grad[1:] += flux
    grad[:-1] -= flux

    if frozen_coords is None:
        active = range(n)
    else:
        mask = np.asarray(frozen_coords, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"frozen_coords must be a boolean mask of length {n}")
        active = [a for a in range(n) if not mask[a]]

    scale = MIDPOINT_FD_SCALE * (1.0 + float(np.max(np.abs(mids), initial=0.0)))
    for a in active:
        shift = np.zeros(n)
        shift[a] = scale
        hp, vp, _ = penalized_forms(structure, qf, mids + shift, vels)
        hm, vm, _ = penalized_forms(structure, qf, mids - shift, vels)
        dQ = ((hp + qf * vp) - (hm + qf * vm)) / (2.0 * scale)
        grad[:-1, a] += dQ / (4.0 * N)
        grad[1:, a] += dQ / (4.0 * N)

    if frozen_coords is not None:
        grad[:, np.asarray(frozen_coords, dtype=bool)] = 0.0
    return grad[1:-1].ravel()


def _pad_block(stack: np.ndarray) -> np.ndarray:
    """``stack`` with one zero block appended along the first axis."""
    return np.concatenate([stack, np.zeros((1,) + stack.shape[1:])])


class _BlockTridiagonalFactor:
    """Symmetric block tridiagonal system reduced by block cyclic reduction.

    Row j of the system reads A_j x_{j-1} + B_j x_j + C_j x_{j+1} = b_j with
    diagonal blocks B_j = ``diag[j]``, super-diagonal blocks C_j = ``off[j]``
    and sub-diagonal blocks A_{j+1} = C_j^T (A_0 and C_{m-1} are zero).  Each
    level eliminates the even-numbered rows 0, 2, 4, ... at once: with the
    multipliers [a_e | c_e] = B_e^{-1} [A_e | C_e] from one batched solve,
    the odd row i keeps the Schur complement

        B_i - A_i c_{i-1} - C_i a_{i+1},   -A_i a_{i-1},   -C_i c_{i+1}

    as its new diagonal, sub- and super-diagonal blocks, so the odd rows form
    a block tridiagonal system of half the size.  The levels stop at a single
    block.  Every reduced system is a Schur complement of the SPD matrix, so
    it stays SPD and needs no pivoting (Buzbee, Golub & Nielson, SINUM 7(4),
    1970).  A solve runs the levels forward on the right-hand side and
    back-substitutes the eliminated rows in reverse, so both factor and solve
    take O(log m) batched numpy calls.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        m, n, _ = diag.shape
        self.block_count = m
        self.block_size = n
        # coupling[j] = [A_j | C_j], the blocks that tie row j to its neighbours.
        coupling = np.zeros((m, n, 2 * n))
        coupling[1:, :, :n] = off.transpose(0, 2, 1)
        coupling[:-1, :, n:] = off
        self.levels = []
        while m > 1:
            kept = m // 2
            mult = np.linalg.solve(diag[0::2], coupling[0::2])
            left = coupling[1::2, :, :n] @ mult[:kept]
            right = coupling[1::2, :, n:] @ _pad_block(mult)[1 : kept + 1]
            self.levels.append((diag[0::2], coupling[1::2], mult))
            diag = diag[1::2] - left[:, :, n:] - right[:, :, :n]
            coupling = -np.concatenate([left[:, :, :n], right[:, :, n:]], axis=2)
            m = kept
        self.last = diag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n = self.block_size
        b = rhs.reshape(self.block_count, n, 1)
        eliminated = []
        for elim_diag, kept_coupling, _ in self.levels:
            kept = b.shape[0] // 2
            y = np.linalg.solve(elim_diag, b[0::2])
            neighbours = np.concatenate([y[:kept], _pad_block(y)[1 : kept + 1]], axis=1)
            eliminated.append(y)
            b = b[1::2] - kept_coupling @ neighbours
        x = np.linalg.solve(self.last, b)
        for (_, _, mult), y in zip(reversed(self.levels), reversed(eliminated)):
            count = y.shape[0]
            padded = np.concatenate([np.zeros((1, n, 1)), x, np.zeros((1, n, 1))])
            neighbours = np.concatenate([padded[:count], padded[1 : count + 1]], axis=1)
            full = np.empty((count + x.shape[0], n, 1))
            full[0::2] = y - mult @ neighbours
            full[1::2] = x
            x = full
        return x.ravel()


def _velocity_hessian_factor(
    structure: SubRiemannianStructure,
    q: float,
    path: DiscretePath,
    frozen_mask: Optional[np.ndarray],
) -> _BlockTridiagonalFactor:
    """Factor the velocity-part Hessian of the energy at the current path.

    With M_i the penalized metric matrix at midpoint i, the Hessian of
    (1/2N) sum vel^T M vel in the interior points has diagonal blocks
    N (M_{j-1} + M_j) and off-diagonal blocks -N M_j.  Frozen coordinates
    get their rows and columns zeroed and a unit diagonal, so the solve
    leaves them untouched.
    """
    pts = path.points
    N = path.grid_size
    mids = 0.5 * (pts[:-1] + pts[1:])
    M = penalized_gram(structure, q, mids)
    if frozen_mask is not None:
        M = M.copy()
        M[:, frozen_mask, :] = 0.0
        M[:, :, frozen_mask] = 0.0
    diag = float(N) * (M[:-1] + M[1:])
    off = -float(N) * M[1:-1]
    if frozen_mask is not None:
        idx = np.where(frozen_mask)[0]
        diag[:, idx, idx] = 1.0
    return _BlockTridiagonalFactor(diag, off)


def _two_loop_direction(gradient, s_list, y_list, apply_h0):
    """L-BFGS two-loop recursion around a caller-supplied initial metric."""
    direction = -gradient
    if not s_list:
        return apply_h0(direction)
    alphas = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_list, y_list)]
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rhos)):
        alpha = rho * float(s @ direction)
        direction -= alpha * y
        alphas.append(alpha)
    direction = apply_h0(direction)
    for (s, y, rho), alpha in zip(zip(s_list, y_list, rhos), reversed(alphas)):
        beta = rho * float(y @ direction)
        direction += (alpha - beta) * s
    return direction


def minimize_energy(
    structure: SubRiemannianStructure,
    q,
    initial: DiscretePath,
    config: SolverConfig,
    frozen_coords: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the penalized energy at fixed q from the given initial path.

    Convergence is declared when the sup norm of the gradient drops below
    ``gradient_tolerance * (1 + |E|)``.  Hitting the iteration cap, or
    stalling for ``STAGNATION_LIMIT`` consecutive accepted steps whose
    decrease is below double-precision resolution, returns
    ``converged=False`` rather than raising; only a line-search step
    underflow (a genuinely stuck search direction) raises
    :class:`StepUnderflowError`.
    """
    qf = check_penalty(q)
    path = initial
    frozen_mask = None
    if frozen_coords is not None:
        frozen_mask = np.asarray(frozen_coords, dtype=bool)

    x = path.interior().ravel()

    def rebuild(vec: np.ndarray) -> DiscretePath:
        return path.with_interior(vec.reshape(path.grid_size - 1, path.dimension))

    current = path
    f = energy(structure, qf, current)
    g = energy_gradient(structure, qf, current, frozen_coords)
    history = [f]
    s_list: list = []
    y_list: list = []
    iterations = 0
    converged = False
    stagnant = 0
    anchor_gnorm = float(np.max(np.abs(g), initial=0.0))
    steepest_step = config.initial_step

    while True:
        gnorm = float(np.max(np.abs(g), initial=0.0))
        if gnorm <= config.gradient_tolerance * (1.0 + abs(f)):
            converged = True
            break
        if iterations >= config.max_iterations:
            break

        if config.quasi_newton:
            factor = _velocity_hessian_factor(structure, qf, current, frozen_mask)
            direction = _two_loop_direction(g, s_list, y_list, factor.solve)
            slope = float(g @ direction)
            if slope >= 0.0:
                s_list.clear()
                y_list.clear()
                direction = -factor.solve(g)
                slope = float(g @ direction)
            step = 1.0
        else:
            direction = -g
            slope = float(g @ direction)
            step = steepest_step
        if slope == 0.0:
            converged = True
            break

        # Trial points only need the energy; the gradient is computed once,
        # at the accepted point, since it costs several times as much.
        accepted = False
        while step >= STEP_FLOOR:
            x_new = x + step * direction
            cand = rebuild(x_new)
            f_new = energy(structure, qf, cand)
            if f_new <= f + config.sufficient_decrease * step * slope:
                accepted = True
                break
            step *= config.backtracking_ratio
        if not accepted:
            raise StepUnderflowError(
                f"line search stalled at q={qf:g} after {iterations} iterations"
                f" (|grad|_inf = {gnorm:.3e})"
            )
        if not config.quasi_newton:
            # Let the trial step grow back after successes so a single steep
            # stretch does not pin the whole run to a tiny step.
            steepest_step = min(config.initial_step, 2.0 * step)
        g_new = energy_gradient(structure, qf, cand, frozen_coords)

        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > config.memory:
                s_list.pop(0)
                y_list.pop(0)

        # Near the optimum the energy pins to machine resolution while the
        # gradient can still shrink steadily (steps with unmeasurable
        # decrease are accepted and keep polishing).  Count an iteration as
        # stagnant only when neither the energy nor the gradient anchor
        # moves; a halved gradient norm is real progress and resets both.
        gnew_norm = float(np.max(np.abs(g_new), initial=0.0))
        if gnew_norm < 0.5 * anchor_gnorm:
            anchor_gnorm = gnew_norm
            stagnant = 0
        elif f - f_new <= STAGNATION_EPS * (1.0 + abs(f_new)):
            stagnant += 1
        else:
            stagnant = 0

        x, f, g, current = x_new, f_new, g_new, cand
        history.append(f)
        iterations += 1

        if stagnant >= STAGNATION_LIMIT:
            # Every recent step was accepted but moved the energy by less
            # than double precision can resolve; more iterations cannot make
            # progress, so stop and report the point unconverged.
            break

    final_gnorm = float(np.max(np.abs(g), initial=0.0))
    return SolveResult(
        q=qf,
        path=current,
        energy=energy(structure, qf, current),
        length=length(structure, qf, current),
        defect=horizontality_defect(structure, current),
        iterations=iterations,
        converged=converged,
        gradient_norm=final_gnorm,
        speed_cv=_speed_variation(structure, qf, current),
        energy_history=tuple(history),
    )


def continuation_solve(
    structure: SubRiemannianStructure,
    endpoints,
    schedule: ContinuationSchedule,
    config: SolverConfig,
    initial: Optional[DiscretePath] = None,
    frozen_coords: Optional[np.ndarray] = None,
    seed_deflection: Optional[np.ndarray] = None,
) -> list:
    """Solve the penalty ladder with warm starts; one SolveResult per q.

    ``seed_deflection`` (shape (N+1, n), zero rows at both ends) is added to
    a warm start whenever that warm start is already a critical point of the
    incoming step's objective.  A path that is critical for every penalty at
    once (the straight chord between vertically separated points is the
    canonical case) turns from minimizer into saddle as q grows, and a
    descent method started exactly on it would never leave; the nudge breaks
    that symmetry.  Warm starts with a live gradient are left alone, since
    kicking them would only throw away progress.
    """
    start, end = endpoints
    if initial is None:
        initial = DiscretePath.chord(start, end, config.grid_size)
    deflect = None
    if seed_deflection is not None:
        deflect = np.asarray(seed_deflection, dtype=float)
        if deflect.shape != initial.points.shape:
            raise ValueError(
                f"seed_deflection must have shape {initial.points.shape}, got {deflect.shape}"
            )
        if np.any(deflect[0] != 0.0) or np.any(deflect[-1] != 0.0):
            raise ValueError("seed_deflection must vanish at both endpoint rows")

    results = []
    guess = initial
    for qv in schedule.q_values():
        if deflect is not None:
            f0 = energy(structure, qv, guess)
            g0 = energy_gradient(structure, qv, guess, frozen_coords)
            stationary = float(np.max(np.abs(g0), initial=0.0)) <= (
                config.gradient_tolerance * (1.0 + abs(f0))
            )
            if stationary:
                guess = guess.with_interior(guess.interior() + deflect[1:-1])
        result = minimize_energy(structure, qv, guess, config, frozen_coords)
        if not result.converged:
            cause = (
                "hit the iteration cap"
                if result.iterations >= config.max_iterations
                else "stalled at double-precision resolution"
            )
            logger.warning(
                "penalty step q=%g on %s %s (|grad|_inf = %.3e)",
                qv,
                structure.name,
                cause,
                result.gradient_norm,
            )
        results.append(result)
        guess = result.path
    return results


def constant_speed_reparametrize(
    structure: SubRiemannianStructure, q, path: DiscretePath
) -> DiscretePath:
    """Resample a path so its segments advance equal penalized arclength.

    Segment speeds are measured in the penalized metric at the segment
    midpoints; the new grid points sit on the old polyline at equal
    arclength fractions, so the polyline's geometry (and hence its length,
    up to the midpoint quadrature's sensitivity) is preserved while the
    parametrization is evened out.  Endpoints are kept bitwise.  A path of
    zero length cannot be reparametrized and raises ValueError.
    """
    qf = check_penalty(q)
    pts = path.points
    N = path.grid_size
    mids = 0.5 * (pts[:-1] + pts[1:])
    vels = N * (pts[1:] - pts[:-1])
    horizontal, vertical, _ = penalized_forms(structure, qf, mids, vels)
    seg = np.sqrt(np.clip(horizontal + qf * vertical, 0.0, None)) / N
    total = float(np.sum(seg))
    if total <= 0.0:
        raise ValueError("cannot reparametrize a path of zero length")

    knots = np.concatenate([[0.0], np.cumsum(seg)]) / total
    targets = np.linspace(0.0, 1.0, N + 1)
    new_pts = np.empty_like(pts)
    new_pts[0] = pts[0]
    new_pts[-1] = pts[-1]
    for i in range(1, N):
        t = targets[i]
        j = int(np.searchsorted(knots, t, side="right") - 1)
        j = min(max(j, 0), N - 1)
        width = knots[j + 1] - knots[j]
        lam = 0.0 if width <= 0.0 else (t - knots[j]) / width
        new_pts[i] = (1.0 - lam) * pts[j] + lam * pts[j + 1]
    return DiscretePath(start=path.start, end=path.end, points=new_pts)
