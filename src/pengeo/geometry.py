"""Chart-level geometry: metric fields, horizontal frames, projections, and
the penalized metric family.

Everything lives in a single global coordinate chart on R^n.  Points and
tangent vectors are plain 1-d numpy arrays of length n; no wrapper classes
are used for them.  A :class:`SubRiemannianStructure` bundles a Riemannian
metric (as a Gram-matrix field) with a frame of vector fields spanning the
constraint distribution.  The penalized metric keeps the base metric on the
distribution and scales its g-orthogonal complement by a factor q >= 1, so
q = 1 recovers the base metric and large q makes non-horizontal motion
expensive.

All operations here are pure functions of immutable inputs and are safe to
call concurrently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

logger = logging.getLogger("pengeo")

__all__ = [
    "DegenerateFrameError",
    "MetricField",
    "FrameField",
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
class MetricField:
    """Riemannian metric given by its Gram-matrix field in chart coordinates.

    ``gram`` maps a stack of points of shape (m, n) to an (m, n, n) stack of
    symmetric positive definite Gram matrices, or to a single (n, n) matrix
    valid for all of them (constant metrics).
    """

    gram: Callable[[np.ndarray], np.ndarray]

    def __call__(self, p) -> np.ndarray:
        pt = as_point(p)
        return self.gram_batch(pt[None, :])[0]

    def gram_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the Gram matrix at every row of ``points`` (shape (m, n))."""
        m, n = points.shape
        raw = np.asarray(self.gram(points), dtype=float)
        if raw.ndim == 2:
            raw = np.broadcast_to(raw, (m, n, n))
        if raw.shape != (m, n, n):
            raise ValueError(
                f"metric field returned shape {raw.shape}, expected {(m, n, n)}"
            )
        gap = float(np.max(np.abs(raw - raw.transpose(0, 2, 1)), initial=0.0))
        if gap > 1e-10 * (1.0 + float(np.max(np.abs(raw), initial=0.0))):
            raise ValueError(f"metric Gram matrix is not symmetric (gap {gap:.3e})")
        return raw


@dataclass(frozen=True)
class FrameField:
    """Frame of vector fields spanning the constraint distribution.

    ``columns`` maps a stack of points (m, n) to an (m, n, k) stack whose
    columns are the frame vectors at each point, or to a constant (n, k)
    matrix.
    """

    columns: Callable[[np.ndarray], np.ndarray]

    def __call__(self, p) -> np.ndarray:
        pt = as_point(p)
        return self.frame_batch(pt[None, :])[0]

    def frame_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the frame matrix at every row of ``points`` (shape (m, n))."""
        m, n = points.shape
        # A frame that overflows along the path fails below, not in warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.asarray(self.columns(points), dtype=float)
        if raw.ndim == 2:
            raw = np.broadcast_to(raw, (m,) + raw.shape)
        if raw.ndim != 3 or raw.shape[0] != m or raw.shape[1] != n:
            raise ValueError(
                f"frame field returned shape {raw.shape}, expected (m, {n}, k)"
            )
        if not np.all(np.isfinite(raw)):
            raise DegenerateFrameError("frame is degenerate: its field returned non-finite entries")
        return raw


@dataclass(frozen=True)
class SubRiemannianStructure:
    """The geometric problem datum: chart dimension, metric, horizontal frame.

    The distribution is the column span of ``frame``; orthogonal projections
    onto it (and its g-orthogonal complement) are computed on demand by
    :func:`project_horizontal`.  Instances are immutable and safe to share.
    """

    dimension: int
    rank: int
    metric: MetricField
    frame: FrameField
    name: str

    def __post_init__(self):
        if not 1 <= self.rank <= self.dimension:
            raise ValueError(
                f"need 1 <= rank <= dimension, got rank {self.rank} in dimension {self.dimension}"
            )

    def _fields(self, points: np.ndarray):
        """Metric and frame stacks (G, F) at a batch of points, in one evaluation."""
        return self.metric.gram_batch(points), self.frame.frame_batch(points)


@dataclass(frozen=True)
class _FrameFactor:
    """The q-free factored frame at a batch of points: the metric stack G,
    the frame stack F and the g-weighted pseudo-inverse F+ = (F^T G F)^{-1}
    F^T G of F, so that c = F+ v are the frame coefficients of P v and
    P = F F+.  The projection, the penalized forms, their base-point
    derivatives and the penalized Gram matrices at these points follow from
    it for every q and every batch of vectors."""

    G: np.ndarray
    F: np.ndarray
    Fplus: np.ndarray

    def project(self, vectors):
        """Horizontal and complement parts (P v, v - P v) of one vector per point."""
        pv = np.matmul(self.F, np.matmul(self.Fplus, vectors[:, :, None]))[:, :, 0]
        return pv, vectors - pv

    def forms(self, q: float, vectors):
        """(horizontal, vertical, flux) of :func:`penalized_forms` at penalty q."""
        pv, pperp = self.project(vectors)
        Gpv = np.matmul(self.G, pv[:, :, None])[:, :, 0]
        Gpp = np.matmul(self.G, pperp[:, :, None])[:, :, 0]
        horizontal = np.einsum("mi,mi->m", pv, Gpv)
        vertical = np.einsum("mi,mi->m", pperp, Gpp)
        return horizontal, vertical, Gpv + q * Gpp

    def form_derivatives(self, q: float, vectors, dG, dF):
        """Base-point derivatives of the penalized forms v^T M_q v at fixed v.

        ``dG`` (a, m, n, n) and ``dF`` (a, m, n, k) are the derivatives of
        the metric and frame stacks along a coordinates.  With c = F+ v,
        P v = F c and Pc v = v - F c, differentiating
        M_q = q G + (1 - q) G P  through P = F (F^T G F)^{-1} F^T G gives

            v^T dG v + (q - 1) (Pc v^T dG Pc v - 2 (dF c)^T G Pc v),

        returned as an (a, m) array.
        """
        c = np.matmul(self.Fplus, vectors[:, :, None])
        pperp = vectors - np.matmul(self.F, c)[:, :, 0]
        Gpp = np.matmul(self.G, pperp[:, :, None])[:, :, 0]
        full = np.einsum("mi,amij,mj->am", vectors, dG, vectors)
        complement = np.einsum("mi,amij,mj->am", pperp, dG, pperp)
        twist = np.einsum("amij,mj,mi->am", dF, c[:, :, 0], Gpp)
        return full + (q - 1.0) * (complement - 2.0 * twist)

    def gram(self, q: float) -> np.ndarray:
        """The penalized metric matrices q G + (1 - q) G P, symmetrized."""
        Gq = q * self.G + (1.0 - q) * np.matmul(self.G, np.matmul(self.F, self.Fplus))
        return 0.5 * (Gq + Gq.transpose(0, 2, 1))


def _factor_frame(structure: SubRiemannianStructure, points: np.ndarray) -> _FrameFactor:
    """Factor the frame Gram matrix F^T G F at a batch of points into F+.

    G and F come from one joint field evaluation, ``structure._fields``; the
    drift lift uses it to transport each point set once.  Raises
    :class:`DegenerateFrameError` when F^T G F is not finite, ill
    conditioned or not positive definite at any of the points.
    """
    G, F = structure._fields(points)
    m = points.shape[0]
    expected = (m, structure.dimension, structure.rank)
    if F.shape != expected:
        raise ValueError(f"frame stack has shape {F.shape}, expected {expected}")
    # A frame that overflows along the path fails below, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        FtG = np.matmul(F.transpose(0, 2, 1), G)
        M = np.matmul(FtG, F)
        M = 0.5 * (M + M.transpose(0, 2, 1))
    if not np.all(np.isfinite(M)):
        raise DegenerateFrameError("frame is degenerate: its Gram matrix F^T G F is not finite")
    # For a symmetric matrix the 2-norm condition number is the ratio of the
    # extreme eigenvalue magnitudes; a singular M gives inf (or nan if M = 0).
    spectrum = np.abs(np.linalg.eigvalsh(M))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = spectrum.max(axis=1) / spectrum.min(axis=1)
    bad = ~np.isfinite(cond) | (cond > FRAME_CONDITION_LIMIT)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateFrameError(
            f"frame is numerically degenerate at point {points[i].tolist()}"
            f" (frame Gram condition number {cond[i]:.3e} exceeds {FRAME_CONDITION_LIMIT:.1e})"
        )
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(
            f"frame Gram matrix is not positive definite: {exc}"
        ) from exc
    # (F^T G F)^{-1} = L^{-T} L^{-1}, from one batched k x k inverse.
    Linv = np.linalg.inv(L)
    return _FrameFactor(G, F, np.matmul(Linv.transpose(0, 2, 1), np.matmul(Linv, FtG)))


def _field_differences(structure: SubRiemannianStructure, points: np.ndarray, coords):
    """Derivatives (dG, dF) of the metric and frame stacks along ``coords``.

    Central differences with step ``BRACKET_FD_SCALE * (1 + |points|_inf)``
    from one ``structure._fields`` evaluation at the 2a shifted copies of
    the points, stacked into one batch; shapes (a, m, n, n) and (a, m, n, k).
    No frame is factored.
    """
    m, n = points.shape
    h = BRACKET_FD_SCALE * (1.0 + float(np.max(np.abs(points), initial=0.0)))
    shift = h * np.eye(n)[coords][:, None, :]
    G, F = structure._fields(np.concatenate([points + shift, points - shift]).reshape(-1, n))
    G = G.reshape(2, len(coords), m, n, n)
    F = F.reshape(2, len(coords), m, n, -1)
    return (G[0] - G[1]) / (2.0 * h), (F[0] - F[1]) / (2.0 * h)


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
    return factor.forms(qf, np.asarray(vectors, dtype=float))


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
    pv, pperp = _factor_frame(structure, pt[None, :]).project(vec[None, :])
    return pv[0], pperp[0]


def field_jacobian(field: Callable[[np.ndarray], np.ndarray], p, step: Optional[float] = None) -> np.ndarray:
    """Jacobian of a vector field by central finite differences.

    The step is ``BRACKET_FD_SCALE * (1 + |p|_inf)`` unless given explicitly.
    """
    pt = as_point(p)
    h = step if step is not None else BRACKET_FD_SCALE * (1.0 + float(np.max(np.abs(pt))))
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

    Starting from the frame fields (depth 1), brackets of accumulated fields
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
            return structure.frame.frame_batch(x[None, :])[0][:, j]

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
