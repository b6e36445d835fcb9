"""Energy minimization over interior path points, with penalty continuation.

The decision variable is the flattened stack of interior points of a
:class:`~pengeo.functionals.DiscretePath`; endpoints stay pinned.  The
gradient of the discrete energy is assembled from the penalized form's flux
vectors (velocity dependence) and its base-point derivative, which the path's
evaluation gives from central differences of the metric and frame fields at
shifted midpoints: one batched field evaluation, no factorization.  Fields
that change in time, as a drift problem's pulled-back ones do, are read at
each segment's mid-time.

Minimization is Newton's method on the exact Hessian of the discrete energy,
with a backtracking Armijo line search that starts every search at the unit
step.  Each energy term couples only the two ends of its segment, so the
Hessian is block tridiagonal, and block cyclic reduction factors it in
O(log N) batched calls.  Its velocity part H0, assembled from the penalized
metric at the segment midpoints, carries both ill-conditioning sources (the
1/N^2 grid stiffness and the penalty q); the base-point and mixed parts,
also O(q), follow by the chain rule through the accepted evaluation's
factor, from first and second differences of the metric and frame fields
at shifted midpoints, and factor no frame.  A constant metric, as on
every preset and inline ``[structure]``, is one (n, n) matrix that numpy
broadcasts through the Newton step and that is never differenced; a
metric difference stack that is exactly zero, as there and on their drift
pull-backs, is None and neither formed nor contracted; a metric that
depends on the point takes the full chain rule.  The chain rule's batched
matmuls multiply contiguous copies of transposed stacks, not strided views.
Where the Hessian H is not positive definite the direction solves against
(H + mu H0) / (1 + mu) instead, with the shift mu raised geometrically
until the factorization succeeds (Nocedal & Wright, *Numerical
Optimization*, 2nd ed., 3.4); the scaling keeps the unit step of a large
shift near H0's Newton step, not 1 / (1 + mu) of it.  The stop rule is the
Newton decrement g^T H0^{-1} g, which reads alike at every penalty and grid
size.  H0 is a path-graph Laplacian in the midpoint metrics, so the
decrement has a closed form in them that needs no block factorization and
no H, and an already converged start factors nothing.
The frame at each accepted iterate is factored once, by the line-search
trial that found it; that evaluation gives the gradient, H0, H and, at
exit, the certificates.  H reuses the gradient's first-order field
differences and reads the fields only at the mixed second-order shifts.
Continuation walks a geometric penalty ladder and starts each rung on the
minimizer curve x(s), s = 1/q.  The energy is affine in q,
E_q = E_1 + (q - 1) D/2, so the curve's tangent is dx/dq = -H^{-1} grad(D/2):
the previous rung's last Newton factor stands in for H, and grad(D/2) is the
q-slope of its final gradient, from the same field differences.  The
predictor therefore costs one block solve per rung and no factorization
(Allgower & Georg, *Introduction to Numerical Continuation Methods*, 1990,
ch. 2).  A rung that stopped at iteration 0 built no Newton factor, and the
next one warm starts from its minimizer.  A path's evaluation does not
depend on q, so a rung that starts on the previous minimizer takes that
rung's final evaluation as it is, field differences included, and reads it
at its own q: it factors and reads nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .functionals import DiscretePath, _evaluate
from .geometry import (
    DegenerateFrameError,
    SubRiemannianStructure,
    _contract,
    _field_stencil,
    _spd_inverse,
    check_penalty,
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
]

# Line search steps below this are treated as a hard failure.
STEP_FLOOR = 1e-20

# The first nonzero shift mu of (H + mu H0) / (1 + mu), the factor by which it
# grows after each failed factorization, and the shift after whose failure the
# next is infinite (factoring H0 itself; past 1/eps, H is rounding next to H0).
# Each iteration starts from the previous accepted shift divided by the growth
# factor (zero once that falls below the first shift), since successive
# Hessians of one solve are close.
SHIFT_START = 1e-4
SHIFT_GROWTH = 10.0
SHIFT_CEILING = 1.0 / np.finfo(float).eps

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
    stored path bitwise; on a drift rung, whose path is lifted to (p, t),
    they equal what ``pengeo diagnose`` re-derives from it.  ``converged``
    is False only at the iteration cap.  ``gradient_norm``, the inf-norm of
    the final gradient, is rounding noise on a converged rung (1e-14 ...
    5e-8 on the catalogue): the stop rule reads the Newton decrement, not
    this norm, so it is not a result.  The stop rule settles ``energy`` to
    rounding but ``length`` only to about 1e-12 relative: the discrete
    length is not stationary at an energy minimizer, and one more Newton
    step moves the ``heisenberg-drift`` q = 1e4 length by 1.1e-12.
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


def energy_gradient(structure: SubRiemannianStructure, q, path: DiscretePath) -> np.ndarray:
    """Gradient of the discrete energy in the flattened interior points.

    The velocity dependence is differentiated exactly through the penalized
    form's flux; the base-point dependence differentiates the form through
    the projection, from central differences of the O(1) metric and frame
    fields (not of the O(q) form) in the midpoint coordinates, at the
    segment mid-times.
    """
    qf = check_penalty(q)
    return _gradient(_evaluate(structure, path), qf)[0]


def _gradient(evaluation, q: float):
    """:func:`energy_gradient` at q from the path's evaluation, whose flux and
    factor it reuses, and the gradient's slope in q.

    The energy is affine in q with slope half the defect, so the slope is the
    gradient of D/2; it is assembled from the slopes of the flux and of the
    base-point derivative, from the field differences that the evaluation
    keeps and the Hessian at the same evaluation reuses; a None dG is exactly
    zero, and the terms that contract it are omitted.
    """
    N, n = evaluation.vels.shape

    # Velocity dependence: d/dv of the quadratic form is 2 flux, the segment
    # velocity scales differences by N, and the quadrature carries 1/(2N),
    # so the factors cancel and each segment contributes +-flux to its ends.
    # Row 0 is the gradient, row 1 its slope.
    grads = np.zeros((2, N + 1, n))
    flux = np.stack([evaluation.flux(q), evaluation.vertical_flux])
    grads[:, 1:] += flux
    grads[:, :-1] -= flux

    # Base-point dependence: each midpoint is the mean of its segment's ends
    # and the quadrature carries 1/(2N), so each end gets dQ/(4N).  With
    # c = F+ v and Pc v = v - F c, differentiating the form's matrix
    # M_q = q G + (1 - q) G P through P = F (F^T G F)^{-1} F^T G gives
    #     dQ_a = v^T dG_a v + (q - 1) (Pc v^T dG_a Pc v - 2 (dF_a c)^T G Pc v),
    # whose q-slope is the bracket; c, Pc v and G Pc v are the evaluation's.
    dG, dF = evaluation.differences[:2]
    v, c, r, Gr = evaluation.columns()
    dQ_slope = _sum(_contract(_contract(dG, r), r), -2.0 * _contract(_contract(dF, c), Gr))
    dQ_full = _sum(_contract(_contract(dG, v), v), (q - 1.0) * dQ_slope)
    dQ = np.stack([dQ_full, dQ_slope]) / (4.0 * N)
    grads[:, :-1] += dQ
    grads[:, 1:] += dQ
    return grads[0, 1:-1].ravel(), grads[1, 1:-1].ravel()


def _sum(*terms):
    """The sum from the left of the terms that are not None.  A term that
    contracts a None (exactly zero) metric stack is None and omitted, which
    changes no bit of the sum: x + 0.0 = x and 0.0 - y = -y."""
    return reduce(np.add, [term for term in terms if term is not None])


def _pad_block(stack: np.ndarray) -> np.ndarray:
    """``stack`` with one zero block appended along the first axis."""
    return np.concatenate([stack, np.zeros((1,) + stack.shape[1:])])


class _BlockTridiagonalFactor:
    """Symmetric positive definite block tridiagonal system, reduced by block
    cyclic reduction.

    Row j of the system reads A_j x_{j-1} + B_j x_j + C_j x_{j+1} = b_j with
    diagonal blocks B_j = ``diag[j]``, super-diagonal blocks C_j = ``off[j]``
    and sub-diagonal blocks A_{j+1} = C_j^T (A_0 and C_{m-1} are zero).  Each
    level eliminates the even-numbered rows 0, 2, 4, ... at once: with the
    multipliers [a_e | c_e] = B_e^{-1} [A_e | C_e] from one batched solve,
    the odd row i keeps the Schur complement

        B_i - A_i c_{i-1} - C_i a_{i+1},   -A_i a_{i-1},   -C_i c_{i+1}

    as its new diagonal, sub- and super-diagonal blocks, so the odd rows form
    a block tridiagonal system of half the size.  The levels stop at a single
    block.  The even rows of a level do not couple to each other, so this is
    block elimination on a symmetric permutation of the matrix (Buzbee, Golub
    & Nielson, SINUM 7(4), 1970): the pivots, every eliminated block and the
    last one, are all positive definite exactly when the matrix is.  One
    batched Cholesky factorization of the pivots checks that and raises
    ``np.linalg.LinAlgError`` when it fails.  A solve runs the levels forward
    on the right-hand side and back-substitutes the eliminated rows in
    reverse, so both factor and solve take O(log m) batched numpy calls.
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
        np.linalg.cholesky(np.concatenate([level[0] for level in self.levels] + [diag]))

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


def _velocity_decrement(M: np.ndarray, g: np.ndarray) -> float:
    """The Newton decrement g^T H0^{-1} g in closed form, with no block factorization.

    H0 = N D^T M D is a path-graph Laplacian: D takes the interior points to
    the N segment differences (the ends are pinned) and M = blockdiag(M_i)
    holds the penalized metric matrices at the midpoints.  The differences
    of interior points are exactly the u with sum_i u_i = 0, so minimizing
    the quadratic model over them with a multiplier gives, with
    S_i = g_1 + ... + g_i (S_0 = 0),

        y_0 = (sum_i M_i^{-1})^{-1} sum_i M_i^{-1} S_i,   y_i = y_0 - S_i,
        g^T H0^{-1} g = (1/N) sum_i y_i^T M_i^{-1} y_i.

    The M_i^{-1} come from one batched sweep (:func:`_spd_inverse`), whose
    pivots raise ``np.linalg.LinAlgError`` where a Cholesky factorization
    would: when an M_i is not positive definite, so that H0 is singular in
    floating point.
    """
    N, n, _ = M.shape
    S = np.zeros((N, n))
    np.cumsum(g.reshape(N - 1, n), axis=0, out=S[1:])
    Minv = _spd_inverse(M)
    y = np.linalg.solve(Minv.sum(axis=0), np.einsum("mij,mj->i", Minv, S)) - S
    return float(np.einsum("mi,mij,mj->", y, Minv, y)) / N


def _velocity_hessian(M: np.ndarray):
    """Blocks (diag, off) of the velocity-part Hessian H0 of the energy.

    With M_i the penalized metric matrix at midpoint i of a path of
    N = ``len(M)`` segments, the Hessian of (1/2N) sum vel^T M vel in the
    interior points has diagonal blocks N (M_{j-1} + M_j) and off-diagonal
    blocks -N M_j.
    """
    N = M.shape[0]
    diag = float(N) * (M[:-1] + M[1:])
    off = -float(N) * M[1:-1]
    return diag, off


def _transposed(X: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of the transpose of the last two axes of X: a
    batched matmul runs several times faster on it than on the strided view."""
    return np.ascontiguousarray(np.swapaxes(X, -1, -2))


def _base_point_hessian(evaluation, q: float):
    """Blocks (diag, off) of the exact Hessian's remainder H - H0 at q.

    Segment i contributes (1/2N) vel^T M_q(mid) vel, with mid = (p_i +
    p_{i+1})/2 and vel = N (p_{i+1} - p_i).  Its second derivatives are
    M_q / N in vel (which H0 holds), J^T / N across mid and vel, with
    J = d flux / d mid, and Q / 2N in mid, with Q the mid-derivative of the
    form's base-point derivative; the map to (p_i, p_{i+1}) is the constant
    [[I/2, I/2], [-N I, N I]].  J and Q follow by the chain rule through the
    frame coefficients c = F+ v and the complement r = v - F c, from the
    accepted evaluation's factor (Golub & Pereyra, SINUM 10(2), 1973):

        dc = S^{-1} (dF^T G r + F^T dG r) - F+ dF c,   dr = -(dF c + F dc),
        J_c = dG_c v + (q - 1) (dG_c r + G d_c r),
        Q_cd = v^T d2G v + (q - 1) (r^T d2G r + 2 d_d r^T dG_c r
               - 2 (d2F c + dF_c d_d c)^T G r - 2 (dF_c c)^T (dG_d r + G d_d r)),

    with d2G, d2F the second derivatives along c and d.  The first
    derivatives are the field differences the gradient read from this
    evaluation, of shapes (N, n, n, n) and (N, n, n, k), and the second
    ones come from :func:`_field_stencil`, which reuses them: one field
    evaluation on the 2n(n - 1) N mixed rows and no frame factorization,
    of shapes (N, n, n, n, n) and (N, n, n, n, k); the terms that contract a
    None (exactly zero) dG or d2G are omitted.  With the segment first,
    every contraction is a batched matmul over segments of a free reshape
    or of a contiguous transposed copy, and both twist terms share
    w_c = (G r)^T dF_c.
    """
    N = evaluation.vels.shape[0]
    dG, dF = evaluation.differences[:2]
    d2G, d2F = _field_stencil(evaluation)
    G, F, Fplus = evaluation.G, evaluation.F, evaluation.Fplus

    # Axis 1 of the (N, n, .) stacks below runs over the coordinates (c and d above).
    v, c, r, Gr = evaluation.columns()
    dFc = _contract(dF, c)
    dGr = _contract(dG, r)
    w = np.matmul(Gr.transpose(0, 2, 1)[:, None], dF)[:, :, 0]  # w_c = (G r)^T dF_c
    dGrF = None if dGr is None else np.matmul(dGr, F)
    # The sweep keeps S^{-1} exactly symmetric, so it stands for its transpose.
    Sinv = np.ascontiguousarray(evaluation.Sinv)
    dc = np.matmul(_sum(w, dGrF), Sinv) - np.matmul(dFc, _transposed(Fplus))
    dr = -(dFc + np.matmul(dc, _transposed(F)))
    # dflux_c = dG_c r + G d_c r, the complement's part of the flux derivative.
    dflux = _sum(dGr, np.matmul(dr, _transposed(G)))

    J = _sum(_contract(dG, v), (q - 1.0) * dflux).transpose(0, 2, 1)
    twist = _contract(_contract(d2F, c), Gr) + np.matmul(w, _transposed(dc))
    slope = _sum(
        _contract(_contract(d2G, r), r),
        None if dGr is None else 2.0 * np.matmul(dGr, _transposed(dr)),
        -2.0 * twist,
        -2.0 * np.matmul(dFc, _transposed(dflux)),
    )
    Q = _sum(_contract(_contract(d2G, v), v), (q - 1.0) * slope)

    # Per segment: the mid-mid part Q / 8N enters all four end blocks, the
    # mixed part enters the diagonal blocks as -+(J + J^T)/2 and the block
    # (p_i, p_{i+1}) as (J^T - J)/2.
    quarter = (Q + Q.transpose(0, 2, 1)) / (16.0 * N)
    sym = 0.5 * (J + J.transpose(0, 2, 1))
    diag = quarter[:-1] + quarter[1:] + sym[:-1] - sym[1:]
    off = quarter[1:-1] + 0.5 * (J.transpose(0, 2, 1) - J)[1:-1]
    return diag, off


def minimize_energy(
    structure: SubRiemannianStructure,
    q,
    initial: DiscretePath,
    config: SolverConfig,
) -> SolveResult:
    """Minimize the penalized energy at fixed q from the given initial path.

    Each iteration reads the Newton decrement g^T H0^{-1} g of the velocity
    Hessian H0 at the current path in closed form (:func:`_velocity_decrement`)
    and stops, converged, once it is at most ``DECREMENT_TOLERANCE * (1 +
    |E|)`` (Boyd & Vandenberghe, *Convex Optimization*, 9.5.4).  Otherwise
    it builds H0 and the exact Hessian H and takes
    the direction -(1 + mu) (H + mu H0)^{-1} g, with the smallest shift mu of
    the geometric sequence, infinite once it passes ``SHIFT_CEILING``, that
    lets the factorization succeed; the matrix is then positive definite, so
    the direction descends.  It backtracks from
    the unit step to the Armijo condition; a trial whose frame is
    degenerate fails that test and backtracks too.  The accepted trial's
    evaluation is kept: its factor and its split of the velocities
    (c = F+ v, Pc v and G Pc v) give H0, H, the gradient and, at exit, the
    certificates.  Each iteration is logged at DEBUG on the
    ``pengeo`` logger, with the number of shifted factorizations that failed
    before one succeeded.

    Hitting the iteration cap returns ``converged=False`` rather than
    raising.  A line-search step underflow (a genuinely stuck search
    direction) raises :class:`StepUnderflowError`; an H0 that is singular
    in floating point, so that a sweep pivot of a midpoint metric's
    inverse (:func:`_velocity_decrement`) or the Cholesky factorization of
    H0's block pivots fails (a penalty so large that
    q G + (1 - q) G P loses its horizontal block to rounding), or a Newton
    direction that is not finite (a Hessian with non-finite entries, which
    the factorization does not reject) raises ``FloatingPointError``, as
    does a start energy that is not finite, which the stop test would
    otherwise pass.
    """
    return _minimize(structure, q, initial, config)[0]


def _minimize(structure, q, initial: DiscretePath, config, evaluation=None):
    """:func:`minimize_energy`, which also returns what the next rung needs.

    Returns the ``SolveResult``, the last shifted Newton factor (None when
    the solve stopped at iteration 0), the q-slope of the final gradient,
    and the final path's evaluation.  ``evaluation``, when given, is the
    evaluation of ``initial``.
    """
    qf = check_penalty(q)
    x = initial.interior().ravel()
    current = initial
    if evaluation is None:
        evaluation = _evaluate(structure, current)
    with np.errstate(over="ignore"):  # an energy that overflows fails below, not in warnings
        f = evaluation.energy(qf)
    if not np.isfinite(f):  # the stop test's bound would be infinite too
        raise FloatingPointError(f"energy is not finite at q={qf:.17g}")
    g, slope = _gradient(evaluation, qf)
    history = [f]
    shift = 0.0
    iterations = 0
    factor = None

    def singular(exc):
        return FloatingPointError(
            f"velocity Hessian is singular at q={qf:.17g} after {iterations} iterations: {exc}"
        )

    while True:
        gram = evaluation.gram(qf)
        try:
            decrement = _velocity_decrement(gram, g)
        except np.linalg.LinAlgError as exc:
            raise singular(exc) from exc
        converged = decrement <= DECREMENT_TOLERANCE * (1.0 + abs(f))
        if converged or iterations >= config.max_iterations:
            break

        h0_diag, h0_off = _velocity_hessian(gram)
        rest_diag, rest_off = _base_point_hessian(evaluation, qf)
        shift = shift / SHIFT_GROWTH if shift >= SHIFT_START * SHIFT_GROWTH else 0.0
        failures = 0  # shifted factorizations that failed before one succeeded
        while True:
            try:
                factor = _BlockTridiagonalFactor(
                    h0_diag + rest_diag / (1.0 + shift), h0_off + rest_off / (1.0 + shift)
                )
                break
            except np.linalg.LinAlgError as exc:
                # An infinite shift factors H0 itself: its M_i passed their
                # sweep's pivot test, but its block pivots did not.
                if shift == np.inf:
                    raise singular(exc) from exc
                failures += 1
                shift = np.inf if shift >= SHIFT_CEILING else max(SHIFT_START, SHIFT_GROWTH * shift)
        direction = -factor.solve(g)
        if not np.all(np.isfinite(direction)):
            raise FloatingPointError(
                f"Newton direction is not finite at q={qf:.17g} in iteration {iterations + 1}"
            )
        descent = float(g @ direction)  # the Armijo slope, not the gradient's q-slope

        # Trial points only need the energy; the gradient is computed once,
        # at the accepted point, since it costs several times as much.
        step = 1.0
        while step >= STEP_FLOOR:
            x_new = x + step * direction
            cand = initial.with_interior(x_new.reshape(initial.grid_size - 1, -1))
            try:
                trial = _evaluate(structure, cand)
            except DegenerateFrameError:
                pass  # a step too long to factor the frame: take a shorter one
            else:
                f_trial = trial.energy(qf)
                if f_trial <= f + SUFFICIENT_DECREASE * step * descent:
                    break
            step *= BACKTRACKING_RATIO
        else:
            raise StepUnderflowError(
                f"line search stalled at q={qf:.17g} after {iterations} iterations"
                f" (|grad|_inf = {float(np.max(np.abs(g), initial=0.0)):.3e})"
            )

        x, f, current, evaluation = x_new, f_trial, cand, trial
        g, slope = _gradient(evaluation, qf)
        history.append(f)
        iterations += 1
        logger.debug(
            "q=%g iteration %d: energy %.17g, H0 decrement %.3e, shift %.3g"
            " after %d failed factorizations, step %.3g",
            qf,
            iterations,
            f,
            decrement,
            shift,
            failures,
            step,
        )

    result = SolveResult(
        q=qf,
        path=current,
        energy=f,
        length=evaluation.length(qf),
        defect=evaluation.defect,
        iterations=iterations,
        converged=converged,
        gradient_norm=float(np.max(np.abs(g), initial=0.0)),
        speed_cv=evaluation.speed_cv(qf),
        energy_history=tuple(history),
    )
    return result, factor, slope, evaluation


def _predict(structure, q, previous: SolveResult, factor, slope):
    """The start of rung q predicted along the minimizer curve in s = 1/q.

    E_q = E_1 + (q - 1) D/2, so the minimizers move at dx/dq = -H^{-1}
    grad(D/2) and, along s, at dx/ds = -q^2 dx/dq.  ``factor`` is the
    previous rung's last Newton factor, standing in for H, and ``slope`` the
    q-slope grad(D/2) of its final gradient, so the step costs one block
    solve.  Returns (path, its evaluation or None, step inf-norm).  The
    previous minimizer comes back with no evaluation when the predicted
    frame does not factor, or when the step's squared norm in the factor is
    within the stop rule's tolerance: the rung could not resolve such a
    step, and on a chord that is critical for every q it is rounding.
    """
    scale = (1.0 / q - 1.0 / previous.q) * previous.q**2
    step = scale * factor.solve(slope)
    step_norm = float(np.max(np.abs(step), initial=0.0))
    path = previous.path
    size = scale * float(slope @ step)  # the step's squared norm in the factor
    if not DECREMENT_TOLERANCE * (1.0 + abs(previous.energy)) < size < np.inf:
        return path, None, step_norm
    predicted = path.with_interior(path.interior() + step.reshape(path.grid_size - 1, -1))
    try:
        return predicted, _evaluate(structure, predicted), step_norm
    except DegenerateFrameError:
        return path, None, step_norm


def continuation_solve(
    structure: SubRiemannianStructure,
    endpoints,
    schedule: ContinuationSchedule,
    config: SolverConfig,
    seed_deflection: Optional[np.ndarray] = None,
) -> list:
    """Solve the penalty ladder; one SolveResult per q.

    The first rung starts on the chord between the endpoints, with
    ``config.grid_size`` segments.  Each rung after the first starts at the
    tangent prediction of
    :func:`_predict` from the previous minimizer, and falls back to the
    previous minimizer itself (a warm start) when the previous rung stopped
    at iteration 0 and so built no Newton factor, when the predicted frame
    does not factor, or when the step is below the stop rule's resolution.
    A warm start takes the previous rung's final evaluation as it is, field
    differences included.  Each rung logs its q, the predictor
    step's inf-norm, which start it took and whether the predicted start was
    used at DEBUG on the ``pengeo`` logger.

    ``seed_deflection`` (shape (N+1, n), zero rows at both ends) is added to
    a warm start that :func:`minimize_energy` accepts at iteration 0, i.e. a
    critical point of the incoming step's objective, and the step is solved
    again from there; a predicted start is never kicked.  A path that is
    critical for every penalty at once (the straight chord between vertically
    separated points is the canonical case) turns from minimizer into saddle
    as q grows, and a descent method started exactly on it would never leave;
    the nudge breaks that symmetry.  Warm starts with a live gradient are left
    alone, since kicking them would only throw away progress.
    """
    rungs = _ladder(structure, endpoints, schedule, config, seed_deflection)
    return [result for result, _ in rungs]


def _ladder(structure, endpoints, schedule, config, seed_deflection):
    """:func:`continuation_solve` rung by rung: yields each rung's result with
    the evaluation of its path."""
    initial = DiscretePath.chord(*endpoints, config.grid_size)
    deflect = None
    if seed_deflection is not None:
        deflect = np.asarray(seed_deflection, dtype=float)
        if deflect.shape != initial.points.shape:
            raise ValueError(
                f"seed_deflection must have shape {initial.points.shape}, got {deflect.shape}"
            )
        if np.any(deflect[0] != 0.0) or np.any(deflect[-1] != 0.0):
            raise ValueError("seed_deflection must vanish at both endpoint rows")

    # The last rung's result, final evaluation, Newton factor and gradient q-slope.
    result = final = factor = slope = None
    for qv in schedule.q_values():
        rung_start, evaluation, step_norm = initial, None, 0.0
        if factor is not None:
            rung_start, evaluation, step_norm = _predict(structure, qv, result, factor, slope)
        predicted = evaluation is not None
        if predicted:
            kind = "predicted path evaluated"
        elif result is not None:
            rung_start, evaluation = result.path, final
            kind = "previous minimizer (evaluation reused)"
        else:
            kind = "initial path evaluated"
        logger.debug(
            "q=%g rung start: predictor step %.3e, %s, predicted start %s",
            qv,
            step_norm,
            kind,
            "used" if predicted else "not used",
        )
        result, factor, slope, final = _minimize(structure, qv, rung_start, config, evaluation)
        if result.iterations == 0 and deflect is not None and not predicted:
            kicked = rung_start.with_interior(rung_start.interior() + deflect[1:-1])
            result, factor, slope, final = _minimize(structure, qv, kicked, config)
        if not result.converged:
            logger.warning(
                "penalty step q=%.17g on %s hit the iteration cap (|grad|_inf = %.3e)",
                qv,
                structure.name,
                result.gradient_norm,
            )
        yield result, final
