"""Discrete paths and the penalized energy, length, and defect functionals.

A path is stored as N+1 points on the uniform grid t_i = i/N.  All
quadratures use the midpoint of each segment as the evaluation point and the
scaled difference N (p_{i+1} - p_i) as the velocity, so the discrete energy

    E_q = (1 / 2N) sum_i g_q(mid_i; vel_i, vel_i)

is exactly affine in q with slope half the horizontality defect.  That
identity is what the continuation diagnostics rely on, so the quadrature
must never be changed independently of them.

``_evaluate`` is that quadrature: it factors the frame at the midpoints once
and keeps the factor and the per-segment forms, which the functionals here
and the optimizer's gradient, H0 and certificates all read.  The factor, with
the field differences it keeps, and the split forms do not depend on q, so an
evaluation re-forms at another penalty without factoring or reading again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import SubRiemannianStructure, _factor_frame, _FrameFactor, as_point, check_penalty

__all__ = [
    "DiscretePath",
    "energy",
    "length",
    "horizontality_defect",
    "limit_energy",
    "semimetric_rho",
]

# Largest defect at which a path counts as horizontal.
HORIZONTAL_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class DiscretePath:
    """Uniformly sampled path, its points of shape (N+1, n) with N >= 2.

    Rows 0 and -1 are the pinned endpoints, read as :attr:`start` and
    :attr:`end`.  The constructor stores a read-only copy of the points and
    raises ValueError unless they are a finite 2-d array with at least three
    rows, so a path can be shared freely between solver iterations.  Paths
    compare by identity; compare ``points`` to compare samples.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must have shape (N+1, n), got {pts.shape}")
        if pts.shape[0] < 3:
            raise ValueError("a path needs at least two segments (three grid points)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def chord(cls, start, end, grid_size: int) -> "DiscretePath":
        """Straight-line path from start to end with ``grid_size`` segments."""
        s = as_point(start)
        e = as_point(end, s.size)
        lam = np.linspace(0.0, 1.0, grid_size + 1)[:, None]
        pts = (1.0 - lam) * s[None, :] + lam * e[None, :]
        pts[0] = s
        pts[-1] = e
        return cls(pts)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @property
    def grid_size(self) -> int:
        """Number of segments N."""
        return self.points.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def times(self) -> np.ndarray:
        """The grid t_i = i/N as a vector of length N+1."""
        return np.linspace(0.0, 1.0, self.grid_size + 1)

    def interior(self) -> np.ndarray:
        """Writable copy of the interior points, shape (N-1, n)."""
        return self.points[1:-1].copy()

    def with_interior(self, interior) -> "DiscretePath":
        """New path with the same endpoints and the given interior points."""
        inner = np.asarray(interior, dtype=float)
        if inner.shape != (self.grid_size - 1, self.dimension):
            raise ValueError(
                f"interior must have shape {(self.grid_size - 1, self.dimension)}, got {inner.shape}"
            )
        return DiscretePath(np.vstack([self.start[None, :], inner, self.end[None, :]]))


def _segments(path: DiscretePath):
    pts = path.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    vels = path.grid_size * (pts[1:] - pts[:-1])
    return mids, vels


@dataclass(frozen=True)
class _Evaluation:
    """One path at one penalty: its segment velocities, the frame factor at the
    segment midpoints and mid-times, the per-segment forms, the two parts
    G P v and G Pc v of the flux G (P v + q Pc v), and the frame coefficients
    c = F+ v and complement parts Pc v of the velocities, which the gradient
    and the Hessian reuse.  Only ``q`` and what is read from it, the energy,
    flux and speeds, depend on the penalty, so :meth:`at` re-forms the
    evaluation at another one without factoring again."""

    q: float
    vels: np.ndarray
    factor: _FrameFactor
    horizontal: np.ndarray
    vertical: np.ndarray
    horizontal_flux: np.ndarray
    vertical_flux: np.ndarray
    coefficients: np.ndarray
    complement: np.ndarray

    def at(self, q, extra=None) -> "_Evaluation":
        """The same segments at penalty q, bitwise what :func:`_evaluate_segments`
        gives there; ``extra``, if given, is a per-segment term added to the
        horizontal form."""
        horizontal = self.horizontal if extra is None else self.horizontal + extra
        return replace(self, q=check_penalty(q), horizontal=horizontal)

    def columns(self):
        """The velocities v, frame coefficients c = F+ v, complement parts Pc v
        and fluxes G Pc v of the segments, as (N, ., 1) column stacks."""
        return tuple(x[:, :, None] for x in (self.vels, self.coefficients, self.complement, self.vertical_flux))

    @cached_property
    def energy(self) -> float:
        return float(np.sum(self.horizontal + self.q * self.vertical) / (2.0 * self.vels.shape[0]))

    @property
    def flux(self) -> np.ndarray:
        return self.horizontal_flux + self.q * self.vertical_flux

    def speeds(self) -> np.ndarray:
        """Per-segment penalized speeds sqrt(g_q(mid; vel, vel))."""
        return np.sqrt(np.clip(self.horizontal + self.q * self.vertical, 0.0, None))

    @property
    def length(self) -> float:
        return float(np.sum(self.speeds()) / self.vertical.size)

    @property
    def defect(self) -> float:
        return float(np.sum(self.vertical) / self.vertical.size)

    @property
    def speed_cv(self) -> float:
        """Coefficient of variation of the speeds, 0 when they all vanish."""
        speeds = self.speeds()
        mean = float(np.mean(speeds))
        return 0.0 if mean <= 0.0 else float(np.std(speeds) / mean)


def _evaluate(structure: SubRiemannianStructure, q, path: DiscretePath) -> _Evaluation:
    """Factor the frame at the path's midpoints and mid-times once and evaluate its forms at q."""
    mids, vels = _segments(path)
    t = path.times
    return _evaluate_segments(structure, q, mids, 0.5 * (t[:-1] + t[1:]), vels)


def _evaluate_segments(structure, q, mids, times, vels) -> _Evaluation:
    """The quadrature of :func:`_evaluate` on given segment midpoints, mid-times
    and velocities."""
    qf = check_penalty(q)
    factor = _factor_frame(structure, mids, times)
    return _Evaluation(qf, vels, factor, *factor.split_forms(vels))


def energy(structure: SubRiemannianStructure, q, path: DiscretePath) -> float:
    """Penalized discrete energy E_q = (1 / 2N) sum g_q(mid; vel, vel)."""
    return _evaluate(structure, q, path).energy


def length(structure: SubRiemannianStructure, q, path: DiscretePath) -> float:
    """Penalized discrete length l_q = (1 / N) sum sqrt(g_q(mid; vel, vel))."""
    return _evaluate(structure, q, path).length


def horizontality_defect(structure: SubRiemannianStructure, path: DiscretePath) -> float:
    """Mean squared complement speed (1 / N) sum g(Pc vel, Pc vel).

    Zero exactly on horizontal paths; the penalized energy is
    E_1 + (q - 1)/2 times this value for every q.
    """
    return _evaluate(structure, 1.0, path).defect


def limit_energy(structure: SubRiemannianStructure, path: DiscretePath) -> float:
    """The q -> infinity energy: E_1 on horizontal paths, ``inf`` otherwise.

    A path counts as horizontal when its defect does not exceed
    ``HORIZONTAL_TOLERANCE``; discrete paths are almost never exactly
    horizontal, so the tolerance is part of the definition rather than a
    fudge.
    """
    evaluation = _evaluate(structure, 1.0, path)
    return float("inf") if evaluation.defect > HORIZONTAL_TOLERANCE else evaluation.energy


def semimetric_rho(path_a: DiscretePath, path_b: DiscretePath, order: int) -> np.ndarray:
    """Per-coordinate root mean square gap between two paths on one grid.

    Order 0 compares segment midpoints, order 1 compares segment velocities;
    both return a length-n vector so anisotropic convergence is visible.
    Paths must share grid size and dimension.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    return _rms_gap(_segments(path_a)[order], _segments(path_b)[order])


def _rms_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column root mean square of a - b, two segment stacks of one path
    shape (grid size, dimension); ValueError if the shapes differ."""
    if a.shape != b.shape:
        raise ValueError(f"paths must share grid size and dimension: {a.shape} vs {b.shape}")
    diff = a - b
    return np.sqrt(np.mean(diff * diff, axis=0))
