"""Discrete paths and the penalized energy, length, and defect functionals.

A path is stored as N+1 points on the uniform grid t_i = i/N.  All
quadratures use the midpoint of each segment as the evaluation point and the
scaled difference N (p_{i+1} - p_i) as the velocity, so the discrete energy

    E_q = (1 / 2N) sum_i g_q(mid_i; vel_i, vel_i)

is exactly affine in q with slope half the horizontality defect.  That
identity is what the continuation diagnostics rely on, so the quadrature
must never be changed independently of them.

``_evaluate`` is that quadrature: it factors the frame at the midpoints once
and keeps the factor, the per-segment forms and fluxes and, once read, the
field differences.  None of them depends on q, so one evaluation serves every
penalty: the functionals here and the optimizer's gradient, H0 and
certificates read it at the q they hold, without factoring or reading again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import SubRiemannianStructure, _factor_frame, _field_differences, as_point, check_penalty

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
    """One set of segments, factored once and free of the penalty q.

    At the segment midpoints ``points`` and mid-``times`` of ``structure``:
    the metric G (one (n, n) matrix if constant) and the frame stack F, the
    g-weighted pseudo-inverse F+ = S^{-1} F^T G, so that c = F+ v and
    P = F F+, and S^{-1} = (F^T G F)^{-1}.  With the velocities ``vels``: the horizontal and
    vertical forms, the parts G P v and G Pc v of the flux G (P v + q Pc v),
    c and Pc v, and :attr:`differences`, read at most once.  The readings
    that depend on q take it from the caller, who checks it."""

    structure: SubRiemannianStructure
    points: np.ndarray
    times: np.ndarray
    G: np.ndarray
    F: np.ndarray
    Fplus: np.ndarray
    Sinv: np.ndarray
    vels: np.ndarray
    horizontal: np.ndarray
    vertical: np.ndarray
    horizontal_flux: np.ndarray
    vertical_flux: np.ndarray
    coefficients: np.ndarray
    complement: np.ndarray

    def columns(self):
        """The velocities v, frame coefficients c = F+ v, complement parts Pc v
        and fluxes G Pc v of the segments, as (N, ., 1) column stacks."""
        return tuple(x[:, :, None] for x in (self.vels, self.coefficients, self.complement, self.vertical_flux))

    @cached_property
    def differences(self):
        """:func:`~pengeo.geometry._field_differences` at the midpoints and mid-times."""
        return _field_differences(self.structure, self.points, self.times)

    def energy(self, q: float) -> float:
        return float(np.sum(self.horizontal + q * self.vertical) / (2.0 * self.vels.shape[0]))

    def flux(self, q: float) -> np.ndarray:
        return self.horizontal_flux + q * self.vertical_flux

    def speeds(self, q: float) -> np.ndarray:
        """Per-segment penalized speeds sqrt(g_q(mid; vel, vel))."""
        return np.sqrt(np.clip(self.horizontal + q * self.vertical, 0.0, None))

    def length(self, q: float) -> float:
        return float(np.sum(self.speeds(q)) / self.vertical.size)

    @property
    def defect(self) -> float:
        return float(np.sum(self.vertical) / self.vertical.size)

    def speed_cv(self, q: float) -> float:
        """Coefficient of variation of the speeds, 0 when they all vanish."""
        speeds = self.speeds(q)
        mean = float(np.mean(speeds))
        return 0.0 if mean <= 0.0 else float(np.std(speeds) / mean)

    def gram(self, q: float) -> np.ndarray:
        """The penalized metric matrices q G + (1 - q) G P, symmetrized."""
        Gq = q * self.G + (1.0 - q) * np.matmul(self.G, np.matmul(self.F, self.Fplus))
        return 0.5 * (Gq + Gq.transpose(0, 2, 1))


def _evaluate(structure: SubRiemannianStructure, path: DiscretePath) -> _Evaluation:
    """Factor the frame at the path's midpoints and mid-times once and evaluate its forms."""
    mids, vels = _segments(path)
    t = path.times
    return _evaluate_segments(structure, mids, 0.5 * (t[:-1] + t[1:]), vels)


def _evaluate_segments(structure, mids, times, vels) -> _Evaluation:
    """The quadrature of :func:`_evaluate` on given segment midpoints, mid-times
    and velocities: the projection c = F+ v, P v = F c and Pc v = v - P v,
    and the forms and fluxes of both parts."""
    G, F, Fplus, Sinv = _factor_frame(structure, mids, times)
    c = np.matmul(Fplus, vels[:, :, None])
    pv = np.matmul(F, c)[:, :, 0]
    pperp = vels - pv
    Gpv = np.matmul(G, pv[:, :, None])[:, :, 0]
    Gpp = np.matmul(G, pperp[:, :, None])[:, :, 0]
    horizontal = np.einsum("mi,mi->m", pv, Gpv)
    vertical = np.einsum("mi,mi->m", pperp, Gpp)
    forms = (horizontal, vertical, Gpv, Gpp, c[:, :, 0], pperp)
    return _Evaluation(structure, mids, times, G, F, Fplus, Sinv, vels, *forms)


def energy(structure: SubRiemannianStructure, q, path: DiscretePath) -> float:
    """Penalized discrete energy E_q = (1 / 2N) sum g_q(mid; vel, vel)."""
    qf = check_penalty(q)
    return _evaluate(structure, path).energy(qf)


def length(structure: SubRiemannianStructure, q, path: DiscretePath) -> float:
    """Penalized discrete length l_q = (1 / N) sum sqrt(g_q(mid; vel, vel))."""
    qf = check_penalty(q)
    return _evaluate(structure, path).length(qf)


def horizontality_defect(structure: SubRiemannianStructure, path: DiscretePath) -> float:
    """Mean squared complement speed (1 / N) sum g(Pc vel, Pc vel).

    Zero exactly on horizontal paths; the penalized energy is
    E_1 + (q - 1)/2 times this value for every q.
    """
    return _evaluate(structure, path).defect


def limit_energy(structure: SubRiemannianStructure, path: DiscretePath) -> float:
    """The q -> infinity energy: E_1 on horizontal paths, ``inf`` otherwise.

    A path counts as horizontal when its defect does not exceed
    ``HORIZONTAL_TOLERANCE``; discrete paths are almost never exactly
    horizontal, so the tolerance is part of the definition rather than a
    fudge.
    """
    evaluation = _evaluate(structure, path)
    return float("inf") if evaluation.defect > HORIZONTAL_TOLERANCE else evaluation.energy(1.0)


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
