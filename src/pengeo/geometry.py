"""Chart-level geometry: metric fields, horizontal frames, projections, and
the penalized metric family.

Everything lives in a single global coordinate chart on R^n.  Points and
tangent vectors are plain 1-d numpy arrays of length n; no wrapper classes
are used for them.  A :class:`SubRiemannianStructure` holds a Riemannian
metric (a callable returning Gram matrices) and a frame (a callable returning
the vector fields that span the constraint distribution), and reads both.
The penalized metric keeps the base metric on the distribution and scales
its g-orthogonal complement by a factor q >= 1, so q = 1 recovers the base
metric and large q makes non-horizontal motion expensive.  The solver's
derivatives read central differences of the two fields, which each frame
factor keeps for its points; a metric difference stack that is exactly zero
is None, not formed.

All operations here are pure functions of immutable inputs and are safe to
call concurrently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

logger = logging.getLogger("pengeo")

__all__ = [
    "DegenerateFrameError",
    "SubRiemannianStructure",
    "check_penalty",
    "project_horizontal",
    "penalized_forms",
    "penalized_gram",
    "field_jacobian",
    "lie_bracket",
    "validate_bracket_generating",
    "validate_structure",
]

# Condition number of the frame Gram matrix beyond which the projection is
# considered numerically meaningless.
FRAME_CONDITION_LIMIT = 1e8

# Singular values above this fraction of the largest one count toward the
# numerical rank in the bracket-generation certificate.
RANK_TOLERANCE = 1e-6

# The message of a frame whose Gram matrix F^T G F, or the metric under it,
# is not finite.
_NOT_FINITE_MESSAGE = "frame is degenerate: its Gram matrix F^T G F is not finite"

# Relative step scale for the central differences used on metric and frame fields.
BRACKET_FD_SCALE = 1e-5


class DegenerateFrameError(RuntimeError):
    """Frame Gram matrix numerically singular or ill conditioned at a point."""


def as_point(p, dimension: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its length.

    Used for both points and tangent vectors, which share the same
    coordinate representation.
    """
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    if dimension is not None and arr.size != dimension:
        raise ValueError(f"expected {dimension} coordinates, got {arr.size}")
    return arr


def check_penalty(q) -> float:
    """Validate the penalty parameter: any finite real q >= 1."""
    qf = float(q)
    if not np.isfinite(qf) or qf < 1.0:
        raise ValueError(f"penalty parameter must be a finite real >= 1, got {q!r}")
    return qf


@dataclass(frozen=True)
class SubRiemannianStructure:
    """The geometric problem datum: chart dimension, metric, horizontal frame.

    ``metric`` maps a stack of points of shape (m, n) to an (m, n, n) stack of
    symmetric positive definite Gram matrices, or to a single (n, n) matrix
    valid for all of them (constant metrics).  ``frame`` maps it to an
    (m, n, k) stack whose columns are the frame vectors at each point, or to
    a constant (n, k) matrix.  The distribution is the column span of the
    frame; orthogonal projections onto it (and its g-orthogonal complement)
    are computed on demand by :func:`project_horizontal`.  Instances are
    immutable and safe to share.
    """

    dimension: int
    rank: int
    metric: Callable[[np.ndarray], np.ndarray]
    frame: Callable[[np.ndarray], np.ndarray]
    name: str

    def __post_init__(self):
        if not 1 <= self.rank <= self.dimension:
            raise ValueError(
                f"need 1 <= rank <= dimension, got rank {self.rank} in dimension {self.dimension}"
            )

    def _fields(self, points: np.ndarray, times=None):
        """Metric and frame stacks (G, F) at a batch of points (m, n), in one
        evaluation, with constant fields broadcast over the points; these
        fields do not change in time, so the points' ``times`` are unused."""
        m, n = points.shape
        G = np.asarray(self.metric(points), dtype=float)
        if G.shape not in ((n, n), (m, n, n)):
            raise ValueError(f"metric field returned shape {G.shape}, expected {(m, n, n)}")
        # A constant metric is checked once, before it is broadcast.
        gap = float(np.max(np.abs(G - np.swapaxes(G, -1, -2)), initial=0.0))
        if gap > 1e-10 * (1.0 + float(np.max(np.abs(G), initial=0.0))):
            raise ValueError(f"metric Gram matrix is not symmetric (gap {gap:.3e})")
        if G.ndim == 2:
            G = np.broadcast_to(G, (m, n, n))
        # A frame that overflows along the path fails below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            F = np.asarray(self.frame(points), dtype=float)
        if F.ndim == 2:
            F = np.broadcast_to(F, (m,) + F.shape)
        if F.ndim != 3 or F.shape[0] != m or F.shape[1] != n:
            raise ValueError(f"frame field returned shape {F.shape}, expected (m, {n}, k)")
        if not np.all(np.isfinite(F)):
            raise DegenerateFrameError("frame is degenerate: its field returned non-finite entries")
        return G, F


@dataclass(frozen=True)
class _FrameFactor:
    """The q-free factored frame of ``structure`` at a batch of ``points`` and
    their ``times``: the metric stack G, the frame stack F, the g-weighted
    pseudo-inverse F+ = (F^T G F)^{-1} F^T G of F, so that c = F+ v are the
    frame coefficients of P v and P = F F+, and the inverse frame Gram
    matrices S^{-1} = (F^T G F)^{-1}, from one batched sweep
    (:func:`_spd_inverse`).  The projection, the penalized forms and the
    penalized Gram matrices at these points follow from it for every q and
    every batch of vectors; S^{-1} carries the derivative of c through the
    exact Hessian's base-point blocks, and :attr:`differences` holds the
    field differences there, read at most once."""

    structure: SubRiemannianStructure
    points: np.ndarray
    times: Optional[np.ndarray]
    G: np.ndarray
    F: np.ndarray
    Fplus: np.ndarray
    Sinv: np.ndarray

    def project(self, vectors):
        """Frame coefficients c = F+ v, and the horizontal and complement parts
        (P v, v - P v) = (F c, v - F c), of one vector per point."""
        c = np.matmul(self.Fplus, vectors[:, :, None])
        pv = np.matmul(self.F, c)[:, :, 0]
        return c[:, :, 0], pv, vectors - pv

    def split_forms(self, vectors):
        """(horizontal, vertical, G P v, G Pc v, c, Pc v): the forms, the two
        parts of the flux G (P v + q Pc v), which is affine in q, and the
        frame coefficients and complement part of v, which the form's
        base-point derivatives reuse."""
        c, pv, pperp = self.project(vectors)
        Gpv = np.matmul(self.G, pv[:, :, None])[:, :, 0]
        Gpp = np.matmul(self.G, pperp[:, :, None])[:, :, 0]
        horizontal = np.einsum("mi,mi->m", pv, Gpv)
        vertical = np.einsum("mi,mi->m", pperp, Gpp)
        return horizontal, vertical, Gpv, Gpp, c, pperp

    def gram(self, q: float) -> np.ndarray:
        """The penalized metric matrices q G + (1 - q) G P, symmetrized."""
        Gq = q * self.G + (1.0 - q) * np.matmul(self.G, np.matmul(self.F, self.Fplus))
        return 0.5 * (Gq + Gq.transpose(0, 2, 1))

    @cached_property
    def differences(self):
        """:func:`_field_differences` at the factor's points and times."""
        return _field_differences(self.structure, self.points, self.times)


def _contract(X: Optional[np.ndarray], u: np.ndarray) -> Optional[np.ndarray]:
    """Contract the last axis of the stack X (m, ..., l) with the column stack
    u (m, l, 1), segment by segment: one batched matmul on a free reshape of
    X, of shape X.shape[:-1]; a None (exactly zero) stack contracts to None."""
    if X is None:
        return None
    return np.matmul(X.reshape(X.shape[0], -1, X.shape[-1]), u).reshape(X.shape[:-1])


def _condition_numbers(M: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a finite stack of symmetric k x k matrices.

    For a symmetric matrix this is the ratio of the extreme eigenvalue
    magnitudes; a singular matrix gives inf, and a zero one nan.  Rank 2
    has a closed form (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    8.5.2): for M = [[a, b], [b, d]] the largest magnitude is
    top = (|a + d| + hypot(a - d, 2b)) / 2 and the eigenvalues multiply to
    ad - b^2, so cond = top^2 / |ad - b^2|.  Each matrix is first scaled by
    its largest entry, which leaves cond as it is and keeps products of
    entries from overflowing or underflowing.  The rounding of ad - b^2
    bounds the error by a few eps * cond relative, the accuracy of
    ``eigvalsh``'s smallest eigenvalue, which other ranks take.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if M.shape[-1] != 2:
            spectrum = np.abs(np.linalg.eigvalsh(M))
            return spectrum.max(axis=1) / spectrum.min(axis=1)
        a, b, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(d))
        a, b, d = a / scale, b / scale, d / scale
        top = 0.5 * (np.abs(a + d) + np.hypot(a - d, 2.0 * b))
        return top * top / np.abs(a * d - b * b)


def _spd_inverse(M: np.ndarray) -> np.ndarray:
    """Inverses of a stack of symmetric positive definite k x k matrices.

    The symmetric sweep operator (Goodnight, *The American Statistician*
    33(3), 1979) on each pivot j in turn, vectorized over the stack in a
    batch-last copy, where every entry is one contiguous row: with
    d = A_jj and a the j-th column,

        A_jj <- -1/d,   A_ij = A_ji <- a_i/d,   A_il <- A_il - a_i a_l/d,

    so that k sweeps leave -M^{-1}, and every update keeps an exactly
    symmetric A so.  The pivots d are the Schur complements whose square
    roots are the diagonal of M's Cholesky factor, so a pivot <= 0 in any
    matrix raises ``np.linalg.LinAlgError`` where a Cholesky factorization
    fails, up to rounding at the boundary (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 10 and 14).  A NaN pivot passes,
    as in LAPACK, and the arithmetic after a bad pivot warns of nothing:
    LAPACK does not either.
    """
    k = M.shape[-1]
    A = M.transpose(1, 2, 0).copy()
    pivots = np.empty((k, M.shape[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k):
            pivots[j] = A[j, j]
            r = 1.0 / pivots[j]
            a = A[j].copy()
            A -= a[:, None] * a[None, :] * r
            A[j] = A[:, j] = a * r
            A[j, j] = -r
    if np.any(pivots <= 0.0):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.negative(A, out=A).transpose(2, 0, 1)


def _frame_gram(points: np.ndarray, G: np.ndarray, F: np.ndarray, offsets=None):
    """F^T G and the symmetrized frame Gram matrices F^T G F at a batch of points.

    The rows of G and F are at ``points``, or, when ``offsets`` is given, at
    their copies ``_shifted_rows(points, offsets)``, of which only a bad one
    is built, for the message.  Raises :class:`DegenerateFrameError` when
    F^T G F is not finite, vanishes (its condition number is then 0/0), or
    its condition number (:func:`_condition_numbers`, in closed form at rank
    2) exceeds ``FRAME_CONDITION_LIMIT``, at any of the rows.
    """
    # A frame that overflows along the path fails below, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        FtG = np.matmul(F.transpose(0, 2, 1), G)
        M = np.matmul(FtG, F)
        M = 0.5 * (M + M.transpose(0, 2, 1))
    if not np.all(np.isfinite(M)):
        raise DegenerateFrameError(_NOT_FINITE_MESSAGE)
    cond = _condition_numbers(M)
    bad = ~np.isfinite(cond) | (cond > FRAME_CONDITION_LIMIT)
    if np.any(bad):
        i = int(np.argmax(bad))
        point = points[i] if offsets is None else _shifted_row(points, offsets, i)
        if not M[i].any():
            raise DegenerateFrameError(
                f"frame vanishes at point {point.tolist()} (its Gram matrix F^T G F is zero)"
            )
        raise DegenerateFrameError(
            f"frame is numerically degenerate at point {point.tolist()}"
            f" (frame Gram condition number {cond[i]:.3e} exceeds {FRAME_CONDITION_LIMIT:.1e})"
        )
    return FtG, M


def _factor_frame(structure: SubRiemannianStructure, points: np.ndarray, times=None) -> _FrameFactor:
    """Factor the frame Gram matrix F^T G F at a batch of points into F+.

    G and F come from one joint field evaluation at the points and their
    ``times``, ``structure._fields``; a drift problem transports each point
    set once in it.  (F^T G F)^{-1} comes from one batched sweep,
    :func:`_spd_inverse`, whose pivots test positive definiteness as a
    Cholesky factorization would.  Raises :class:`DegenerateFrameError`
    when F^T G F is not finite, ill conditioned or not positive definite at
    any point.
    """
    G, F = structure._fields(points, times)
    m = points.shape[0]
    expected = (m, structure.dimension, structure.rank)
    if F.shape != expected:
        raise ValueError(f"frame stack has shape {F.shape}, expected {expected}")
    FtG, M = _frame_gram(points, G, F)
    try:
        Sinv = _spd_inverse(M)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(
            f"frame Gram matrix is not positive definite: {exc}"
        ) from exc
    return _FrameFactor(structure, points, times, G, F, np.matmul(Sinv, FtG), Sinv)


def _fd_step(points: np.ndarray) -> float:
    """The difference step h = ``BRACKET_FD_SCALE * (1 + |points|_inf)``."""
    return BRACKET_FD_SCALE * (1.0 + float(np.max(np.abs(points), initial=0.0)))


def _shifted_rows(points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The copies points + o of every point for each offset o in the (s, j, n)
    stack ``offsets``, in the order (s, point, j): a point's copies for one s
    are adjacent, so their times are ``np.tile(np.repeat(times, j), s)``."""
    m, (j, n) = points.shape[0], offsets.shape[1:]
    return (np.repeat(points, j, axis=0).reshape(1, m, j, n) + offsets[:, None]).reshape(-1, n)


def _shifted_row(points: np.ndarray, offsets: np.ndarray, i: int) -> np.ndarray:
    """Row i of ``_shifted_rows(points, offsets)``, without building the others."""
    s, p, j = np.unravel_index(i, (offsets.shape[0], points.shape[0], offsets.shape[1]))
    return points[p] + offsets[s, j]


def _field_differences(structure: SubRiemannianStructure, points: np.ndarray, times):
    """Derivatives (dG, dF) of the metric and frame stacks along every
    coordinate, with the stacks they come from.

    Central differences from one ``structure._fields`` evaluation at the 2n
    copies points +- h e_c, stacked into one batch with the ``times`` of the
    points, and h from :func:`_fd_step`.  Returns (dG, dF, G, F): the
    derivatives, of shapes (m, n, n, n) and (m, n, n, k), and the stacks at
    the copies, of shapes (2, m, n, n, n) and (2, m, n, n, k) with the plus
    copies first, which :func:`_field_stencil` reuses.  A frame factor keeps
    them as :attr:`_FrameFactor.differences`.  The segment comes
    before the coordinate, so every stack reshapes for free into the
    batched matmuls of the Newton step.  No frame is factored.  dG is None
    when it is exactly zero, as for any metric that does not depend on the point.
    """
    m, n = points.shape
    h = _fd_step(points)
    axes = h * np.eye(n)
    rows = _shifted_rows(points, np.stack([axes, -axes]))
    G, F = structure._fields(rows, np.tile(np.repeat(times, n), 2))
    G = G.reshape(2, m, n, n, n)
    F = F.reshape(2, m, n, n, -1)
    dG = (G[0] - G[1]) / (2.0 * h)
    return dG if dG.any() else None, (F[0] - F[1]) / (2.0 * h), G, F


def _field_stencil(factor: _FrameFactor):
    """Second derivatives (d2G, d2F) of the metric and frame stacks in all
    coordinates, at the factor's points and times.

    The stacks of the factor's :attr:`~_FrameFactor.differences` at points
    +- h e_c, with its own G and F at the points, give the diagonal second
    differences, so one ``structure._fields`` evaluation reads only the
    2n(n - 1) m copies
    points +- h e_c +- h e_d, c < d, for the mixed ones (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., 8.1).  Shapes (m, n, n, n, n) and
    (m, n, n, n, k), segment first and symmetric in the two coordinate
    axes after it.  No frame is factored, but the checks of
    :func:`_factor_frame` still hold: F^T G F must be finite and well
    conditioned on the first-order rows, and G finite on the mixed ones, or
    :class:`DegenerateFrameError` is raised.  d2G is None, and not formed,
    when G reads back bitwise equal to the factor's G on every first-order
    and every mixed row.
    """
    structure, points, times = factor.structure, factor.points, factor.times
    m, n = points.shape
    h = _fd_step(points)
    axes = h * np.eye(n)
    _, _, Gs, Fs = factor.differences
    _frame_gram(
        points, Gs.reshape((-1,) + Gs.shape[3:]), Fs.reshape((-1,) + Fs.shape[3:]), np.stack([axes, -axes])
    )
    c, d = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # the pairs c < d
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[:, :, None, None]
    offsets = signs[:, 0] * axes[c] + signs[:, 1] * axes[d]
    G, F = structure._fields(_shifted_rows(points, offsets), np.tile(np.repeat(times, c.size), 4))
    if not np.all(np.isfinite(G)):
        raise DegenerateFrameError(_NOT_FINITE_MESSAGE)

    def second(mixed, shifted, X0):
        mixed = mixed.reshape((4, m, c.size) + mixed.shape[1:])
        out = np.empty((m, n, n) + X0.shape[1:])
        out[:, np.arange(n), np.arange(n)] = (shifted[0] - 2.0 * X0[:, None] + shifted[1]) / h**2
        out[:, c, d] = out[:, d, c] = (mixed[0] - mixed[1] - mixed[2] + mixed[3]) / (4.0 * h**2)
        return out

    G0 = factor.G[:, None]
    flat = (Gs == G0).all() and (G.reshape(4, m, c.size, n, n) == G0).all()
    return None if flat else second(G, Gs, factor.G), second(F, Fs, factor.F)


def penalized_forms(structure: SubRiemannianStructure, q, points, vectors):
    """Penalized quadratic-form data for a batch of tangent vectors.

    For each row i, with P the g-orthogonal projection onto the distribution
    at ``points[i]`` and Pc its complement, returns three arrays:

    - ``horizontal[i] = g(P v_i, P v_i)``
    - ``vertical[i]   = g(Pc v_i, Pc v_i)``
    - ``flux[i]       = G (P v_i + q Pc v_i)``

    so that the penalized form g_q(v, v) is ``horizontal + q * vertical`` and
    ``flux`` is the penalized form's matrix applied to v_i (the derivative of
    the form in its vector argument is ``2 flux``).  Each call factors the
    frame at ``points``; the solver factors once and reads all it needs.
    """
    qf = check_penalty(q)
    factor = _factor_frame(structure, np.asarray(points, dtype=float))
    horizontal, vertical, Gpv, Gpp = factor.split_forms(np.asarray(vectors, dtype=float))[:4]
    return horizontal, vertical, Gpv + qf * Gpp


def penalized_gram(structure: SubRiemannianStructure, q, points) -> np.ndarray:
    """Matrix stack of the penalized metric at a batch of points.

    With P the g-orthogonal projection onto the distribution, the penalized
    form's matrix is  M_q = q G + (1 - q) G P, which is symmetric because G P
    is (P is g-self-adjoint).  The result is symmetrized to scrub roundoff
    and is positive definite for every valid q.  Each call factors the frame
    at ``points``, as :func:`penalized_forms` does.
    """
    qf = check_penalty(q)
    return _factor_frame(structure, np.asarray(points, dtype=float)).gram(qf)


def project_horizontal(structure: SubRiemannianStructure, p, v):
    """Split a tangent vector into its distribution and complement parts.

    Solves (F^T G F) c = F^T G v by a symmetric positive definite
    factorization and returns (F c, v - F c), the g-orthogonal projections
    of v onto the distribution and onto its complement at p.

    Parameters
    ----------
    structure : SubRiemannianStructure
    p : array_like, shape (n,)
        Base point.
    v : array_like, shape (n,)
        Tangent vector at p.

    Returns
    -------
    (pv, pperp_v) : pair of ndarrays, shape (n,)
        Horizontal part and complement part; their sum reproduces v.

    Raises
    ------
    DegenerateFrameError
        If the frame Gram matrix at p is numerically singular.
    """
    pt = as_point(p, structure.dimension)
    vec = as_point(v, structure.dimension)
    _, pv, pperp = _factor_frame(structure, pt[None, :]).project(vec[None, :])
    return pv[0], pperp[0]


def field_jacobian(field: Callable[[np.ndarray], np.ndarray], p) -> np.ndarray:
    """Jacobian of a vector field by central finite differences of step :func:`_fd_step` at p."""
    pt = as_point(p)
    h = _fd_step(pt)
    cols = []
    for a in range(pt.size):
        e = np.zeros(pt.size)
        e[a] = h
        fp = np.asarray(field(pt + e), dtype=float)
        fm = np.asarray(field(pt - e), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def lie_bracket(field_v, field_w, p) -> np.ndarray:
    """Lie bracket [V, W](p) = DW(p) V(p) - DV(p) W(p), Jacobians by central differences."""
    pt = as_point(p)
    jv = field_jacobian(field_v, pt)
    jw = field_jacobian(field_w, pt)
    return jw @ np.asarray(field_v(pt), dtype=float) - jv @ np.asarray(field_w(pt), dtype=float)


def _bracket_field(field_v, field_w):
    def bracket(p):
        return lie_bracket(field_v, field_w, p)

    return bracket


def validate_bracket_generating(structure: SubRiemannianStructure, p, max_depth: int):
    """Certificate that iterated frame brackets span the whole chart at p.

    Starting from the frame fields at time 0 (depth 1), which on a drift
    problem's pulled-back structure are its base frame, brackets of accumulated fields
    whose depths sum to d are adjoined at each depth d, and the numerical
    rank of all field values at p is taken after every round (singular
    values above ``RANK_TOLERANCE`` times the largest count).

    Returns
    -------
    (generated_rank, depth_reached) : pair of ints
        The final rank and the first depth at which full rank was reached;
        ``depth_reached`` equals ``max_depth`` when full rank was not
        achieved, which is a valid report, not an error.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    pt = as_point(p, structure.dimension)
    n, k = structure.dimension, structure.rank

    def frame_column(j):
        def column(x):
            x = np.asarray(x, dtype=float)
            return structure._fields(x[None, :], np.zeros(1))[1][0][:, j]

        return column

    fields = [(1, frame_column(j)) for j in range(k)]

    def span_rank() -> int:
        values = np.column_stack([f(pt) for _, f in fields])
        sv = np.linalg.svd(values, compute_uv=False)
        if sv.size == 0 or sv[0] <= 0.0:
            return 0
        return int(np.sum(sv > RANK_TOLERANCE * sv[0]))

    rank = span_rank()
    if rank >= n:
        return rank, 1
    for depth in range(2, max_depth + 1):
        new_fields = []
        for ia in range(len(fields)):
            for ib in range(ia + 1, len(fields)):
                da, fa = fields[ia]
                db, fb = fields[ib]
                if da + db != depth:
                    continue
                new_fields.append((depth, _bracket_field(fa, fb)))
        fields.extend(new_fields)
        rank = span_rank()
        if rank >= n:
            return rank, depth
    logger.warning(
        "distribution of %s not verified bracket-generating at %s (rank %d of %d at depth %d)",
        structure.name,
        pt.tolist(),
        rank,
        n,
        max_depth,
    )
    return rank, max_depth


def validate_structure(structure: SubRiemannianStructure, points) -> None:
    """Spot-check metric definiteness and frame regularity at sample points.

    Raises ValueError or DegenerateFrameError on a violation; returns None
    when all checks pass.  Intended for problem setup and tests, not for
    inner loops.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != structure.dimension:
        raise ValueError(
            f"sample points have dimension {pts.shape[1]}, structure has {structure.dimension}"
        )
    smallest = np.linalg.eigvalsh(_factor_frame(structure, pts).G)[:, 0]
    if np.any(smallest <= 0.0):
        i = int(np.argmin(smallest))
        raise ValueError(
            f"metric is not positive definite at point {pts[i].tolist()}"
            f" (smallest eigenvalue {smallest[i]:.3e})"
        )
