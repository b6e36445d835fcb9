"""Energy minimization over interior path points, with penalty continuation.

The decision variable is the flattened stack of interior points of a
:class:`~pengeo.functionals.DiscretePath`; endpoints stay pinned.  The
gradient of the discrete energy is assembled from the penalized form's flux
vectors (velocity dependence) and its base-point derivative, which the frame
factor gives from central differences of the metric and frame fields at
shifted midpoints: one batched field evaluation, no factorization.

Minimization is limited-memory BFGS with a backtracking Armijo line search
that starts every search at the unit step.  The initial inverse metric of the
two-loop recursion is not the usual scalar multiple of the identity but the
exact velocity-part Hessian of the discrete energy, a block tridiagonal
matrix assembled from the penalized metric at the segment midpoints.  That
term carries both ill-conditioning sources (the 1/N^2 grid stiffness and the
penalty q), so solving against it leaves the curvature pairs only the gentle
metric-variation remainder; large penalties then cost roughly as many
iterations as small ones.  It is factored by block cyclic reduction, which
works on all blocks of a level at once in O(log N) batched calls.  The same
factor gives the one stop rule, the Newton decrement g^T H0^{-1} g, which
reads alike at every penalty and grid size.
The frame at each accepted iterate is factored once, by the line-search
trial that found it; that evaluation gives the gradient, H0 and, at exit,
the certificates.
Continuation walks a geometric penalty ladder and warm starts each solve
from the previous minimizer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functionals import DiscretePath, _evaluate
from .geometry import DegenerateFrameError, SubRiemannianStructure, _field_differences, check_penalty

logger = logging.getLogger("pengeo")

__all__ = [
    "SolverConfig",
    "ContinuationSchedule",
    "SolveResult",
    "StepUnderflowError",
    "energy_gradient",
    "minimize_energy",
    "continuation_solve",
]

# Line search steps below this are treated as a hard failure.
STEP_FLOOR = 1e-20

# Curvature pairs with s.y below this relative threshold are discarded.
CURVATURE_FLOOR = 1e-12

# Number of curvature pairs the two-loop recursion keeps.
LBFGS_MEMORY = 10

# Backtracking shrink factor and Armijo sufficient-decrease constant.
BACKTRACKING_RATIO = 0.5
SUFFICIENT_DECREASE = 1e-4

# Stop once the Newton decrement g^T H0^{-1} g is at most this times (1 + |E|):
# its half, the decrease the quadratic model predicts, is then within 8 ulps of
# (1 + |E|), where the Armijo test compares energies differing by rounding noise.
DECREMENT_TOLERANCE = 16.0 * np.finfo(float).eps


class StepUnderflowError(RuntimeError):
    """Backtracking line search shrank the step below the floor."""


@dataclass(frozen=True)
class SolverConfig:
    """Inner-solver settings shared across all continuation steps."""

    max_iterations: int = 500
    grid_size: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Geometric penalty ladder q_j = q_start * ratio**j, j = 0..step_count-1."""

    q_start: float = 1.0
    ratio: float = 10.0
    step_count: int = 5

    def __post_init__(self):
        if not self.ratio > 1.0:
            raise ValueError("ratio must exceed 1 so the ladder ascends")
        if self.step_count < 1:
            raise ValueError("step_count must be positive")
        with np.errstate(over="ignore"):  # an overflowing rung fails as inf below
            rungs = self.q_values()
        for q in rungs.tolist():
            check_penalty(q)

    def q_values(self) -> np.ndarray:
        return self.q_start * self.ratio ** np.arange(self.step_count, dtype=float)


@dataclass(frozen=True)
class SolveResult:
    """Minimizer and certificates for one penalty value.

    ``energy``, ``length`` and ``defect`` equal the public functionals on the
    stored path bitwise; ``converged`` is False only at the iteration cap.
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


def energy_gradient(
    structure: SubRiemannianStructure,
    q,
    path: DiscretePath,
    frozen_coords: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of the discrete energy in the flattened interior points.

    The velocity dependence is differentiated exactly through the penalized
    form's flux; the base-point dependence differentiates the form through
    the projection, from central differences of the O(1) metric and frame
    fields (not of the O(q) form) in the midpoint coordinates.
    Coordinates flagged in ``frozen_coords`` (a boolean mask of length n)
    are excluded from both parts and their gradient entries are zero, which
    pins those coordinates to whatever the path already does linearly.
    """
    mask = _frozen_mask(frozen_coords, path.dimension)
    return _gradient(structure, _evaluate(structure, q, path), mask)


def _frozen_mask(frozen_coords, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool) if frozen_coords is None else np.asarray(frozen_coords, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"frozen_coords must be a boolean mask of length {n}")
    return mask


def _gradient(structure, evaluation, frozen_mask: np.ndarray) -> np.ndarray:
    """:func:`energy_gradient` from the path's evaluation, whose flux and factor it reuses."""
    q, mids, vels = evaluation.q, evaluation.mids, evaluation.vels
    N, n = vels.shape

    # Velocity dependence: d/dv of the quadratic form is 2 flux, the segment
    # velocity scales differences by N, and the quadrature carries 1/(2N),
    # so the factors cancel and each segment contributes +-flux to its ends.
    grad = np.zeros((N + 1, n))
    grad[1:] += evaluation.flux
    grad[:-1] -= evaluation.flux

    # Base-point dependence: each midpoint is the mean of its segment's ends
    # and the quadrature carries 1/(2N), so each end gets dQ/(4N).
    active = np.flatnonzero(~frozen_mask)
    if active.size:
        dG, dF = _field_differences(structure, mids, active)
        dQ = evaluation.factor.form_derivatives(q, vels, dG, dF).T / (4.0 * N)
        grad[:-1, active] += dQ
        grad[1:, active] += dQ

    grad[:, frozen_mask] = 0.0
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


def _velocity_hessian_factor(M: np.ndarray, frozen_mask: np.ndarray) -> _BlockTridiagonalFactor:
    """Factor the velocity-part Hessian of the energy from the penalized Gram stack.

    With M_i the penalized metric matrix at midpoint i of a path of
    N = ``len(M)`` segments, the Hessian of (1/2N) sum vel^T M vel in the
    interior points has diagonal blocks N (M_{j-1} + M_j) and off-diagonal
    blocks -N M_j.  Frozen coordinates get their rows and columns zeroed (in
    ``M``, which is overwritten) and a unit diagonal, so the solve leaves
    them untouched.
    """
    N = M.shape[0]
    M[:, frozen_mask, :] = 0.0
    M[:, :, frozen_mask] = 0.0
    diag = float(N) * (M[:-1] + M[1:])
    off = -float(N) * M[1:-1]
    idx = np.flatnonzero(frozen_mask)
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

    Each iteration factors the velocity Hessian H0 at the current path and
    stops, converged, once the Newton decrement g^T H0^{-1} g is at most
    ``DECREMENT_TOLERANCE * (1 + |E|)`` (Boyd & Vandenberghe, *Convex
    Optimization*, 9.5.4).  Otherwise it takes the L-BFGS direction around
    H0, or the Newton direction -H0^{-1} g when that is not a descent
    direction, and backtracks from the unit step to the Armijo condition; a
    trial whose frame is degenerate fails that test and backtracks too.
    The accepted trial's evaluation is kept: its frame factor gives H0, the
    gradient and, at exit, the certificates.

    Hitting the iteration cap returns ``converged=False`` rather than
    raising.  A line-search step underflow (a genuinely stuck search
    direction) raises :class:`StepUnderflowError`; an H0 that is singular
    in floating point (a penalty so large that q G + (1 - q) G P loses its
    horizontal block to rounding) raises ``FloatingPointError``.
    """
    qf = check_penalty(q)
    frozen_mask = _frozen_mask(frozen_coords, initial.dimension)
    x = initial.interior().ravel()

    def rebuild(vec: np.ndarray) -> DiscretePath:
        return initial.with_interior(vec.reshape(initial.grid_size - 1, initial.dimension))

    current = initial
    evaluation = _evaluate(structure, qf, current)
    f = evaluation.energy
    g = _gradient(structure, evaluation, frozen_mask)
    history = [f]
    s_list: list = []
    y_list: list = []
    iterations = 0

    while True:
        try:
            factor = _velocity_hessian_factor(evaluation.factor.gram(qf), frozen_mask)
            newton = factor.solve(g)
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(
                f"velocity Hessian is singular at q={qf:g} after {iterations} iterations: {exc}"
            ) from exc
        decrement = float(g @ newton)
        converged = decrement <= DECREMENT_TOLERANCE * (1.0 + abs(f))
        if converged or iterations >= config.max_iterations:
            break

        direction = _two_loop_direction(g, s_list, y_list, factor.solve)
        slope = float(g @ direction)
        if slope >= 0.0:
            s_list.clear()
            y_list.clear()
            direction = -newton
            slope = -decrement

        # Trial points only need the energy; the gradient is computed once,
        # at the accepted point, since it costs several times as much.
        step = 1.0
        while step >= STEP_FLOOR:
            x_new = x + step * direction
            cand = rebuild(x_new)
            try:
                trial = _evaluate(structure, qf, cand)
            except DegenerateFrameError:
                pass  # a step too long to factor the frame: take a shorter one
            else:
                if trial.energy <= f + SUFFICIENT_DECREASE * step * slope:
                    break
            step *= BACKTRACKING_RATIO
        else:
            raise StepUnderflowError(
                f"line search stalled at q={qf:g} after {iterations} iterations"
                f" (|grad|_inf = {float(np.max(np.abs(g), initial=0.0)):.3e})"
            )
        g_new = _gradient(structure, trial, frozen_mask)

        s_vec = x_new - x
        y_vec = g_new - g
        sy = float(s_vec @ y_vec)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s_vec)) * float(np.linalg.norm(y_vec)):
            s_list.append(s_vec)
            y_list.append(y_vec)
            if len(s_list) > LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)

        x, f, g, current, evaluation = x_new, trial.energy, g_new, cand, trial
        history.append(f)
        iterations += 1

    speeds = evaluation.speeds()
    mean = float(np.mean(speeds))
    return SolveResult(
        q=qf,
        path=current,
        energy=f,
        length=evaluation.length,
        defect=evaluation.defect,
        iterations=iterations,
        converged=converged,
        gradient_norm=float(np.max(np.abs(g), initial=0.0)),
        speed_cv=0.0 if mean <= 0.0 else float(np.std(speeds) / mean),
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
    a warm start that :func:`minimize_energy` accepts at iteration 0, i.e. a
    critical point of the incoming step's objective, and the step is solved
    again from there.  A path that is critical for every penalty at once
    (the straight chord between vertically separated points is the canonical
    case) turns from minimizer into saddle as q grows, and a descent method
    started exactly on it would never leave; the nudge breaks that symmetry.
    Warm starts with a live gradient are left alone, since kicking them
    would only throw away progress.
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
        result = minimize_energy(structure, qv, guess, config, frozen_coords)
        if result.iterations == 0 and deflect is not None:
            kicked = guess.with_interior(guess.interior() + deflect[1:-1])
            result = minimize_energy(structure, qv, kicked, config, frozen_coords)
        if not result.converged:
            logger.warning(
                "penalty step q=%g on %s hit the iteration cap (|grad|_inf = %.3e)",
                qv,
                structure.name,
                result.gradient_norm,
            )
        results.append(result)
        guess = result.path
    return results

