"""Built-in benchmark problems and the structures they run on.

Each problem bundles a structure, endpoints, a penalty ladder, and the
metadata the diagnostics need (whether the constrained minimizer is known
to be unique, what the true constrained distance is when a closed form
exists).  The registry accepts ``euclidean-<n>`` for any chart dimension;
all other names are fixed presets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .drift import DriftField, constant_drift, linear_drift
from .geometry import SubRiemannianStructure
from .optimizer import ContinuationSchedule

__all__ = [
    "Problem",
    "euclidean_structure",
    "heisenberg_structure",
    "martinet_structure",
    "heisenberg_vertical_distance",
    "vertical_heisenberg_problem",
    "sinusoidal_deflection",
    "problem_names",
    "get_problem",
]


def euclidean_structure(dimension: int) -> SubRiemannianStructure:
    """Flat R^n with the full tangent space as distribution (rank n)."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    eye = np.eye(dimension)
    return SubRiemannianStructure(
        dimension=dimension,
        metric=lambda pts: eye,
        frame=lambda pts: eye,
        name=f"euclidean-{dimension}",
    )


def heisenberg_structure() -> SubRiemannianStructure:
    """Rank-2 contact distribution on R^3 with the Euclidean metric.

    Frame columns (1, 0, -y/2) and (0, 1, x/2); their bracket is the unit
    vertical direction, so one bracket depth spans the chart everywhere.
    """
    eye = np.eye(3)

    def columns(pts: np.ndarray) -> np.ndarray:
        m = pts.shape[0]
        F = np.zeros((m, 3, 2))
        F[:, 0, 0] = 1.0
        F[:, 1, 1] = 1.0
        F[:, 2, 0] = -0.5 * pts[:, 1]
        F[:, 2, 1] = 0.5 * pts[:, 0]
        return F

    return SubRiemannianStructure(
        dimension=3,
        metric=lambda pts: eye,
        frame=columns,
        name="heisenberg",
    )


def martinet_structure() -> SubRiemannianStructure:
    """Rank-2 distribution on R^3 that needs bracket depth 3 on the plane y = 0.

    Frame columns (1, 0, y^2) and (0, 1, 0).  Off that plane a single
    bracket already spans the chart; on it the first bracket is tangent to
    the distribution and a second-order bracket is required, the standard
    example of non-uniform bracket depth.
    """
    eye = np.eye(3)

    def columns(pts: np.ndarray) -> np.ndarray:
        m = pts.shape[0]
        F = np.zeros((m, 3, 2))
        F[:, 0, 0] = 1.0
        F[:, 1, 1] = 1.0
        F[:, 2, 0] = pts[:, 1] ** 2
        return F

    return SubRiemannianStructure(
        dimension=3,
        metric=lambda pts: eye,
        frame=columns,
        name="martinet",
    )


def heisenberg_vertical_distance(z: float) -> float:
    """Reference distance from the origin to (0, 0, z), z > 0.

    An admissible curve between these points projects to a planar loop
    that climbs in z by exactly the oriented area it encloses, so its
    planar length is at least the isoperimetric value 2 sqrt(pi z), with
    the circle of area z as the extremal loop.  Under this package's flat
    ambient metric a curve is measured with its vertical velocity included,
    which adds a positive correction of relative size about 3 z / (16 pi)
    on the extremal circle; at the benchmark height 1/(4 pi) the
    constrained distance therefore sits a fraction of a percent above the
    value returned here, which is why report tolerances around this
    reference are one-sided and loose (0.95 to 1.01 of it) rather than
    tight.
    """
    if z <= 0.0:
        raise ValueError("height must be positive")
    return 2.0 * float(np.sqrt(np.pi * z))


def sinusoidal_deflection(grid_size: int, dimension: int, amplitude: float) -> np.ndarray:
    """One-lobe transverse nudge with exactly zero endpoint rows.

    Used to push continuation warm starts off straight-line critical paths;
    shape (grid_size + 1, dimension).  In dimension one the single column is
    a half sine; otherwise the first column is sin(2 pi t) and the second
    1 - cos(2 pi t), a loop-like displacement that does not move endpoints.
    """
    t = np.linspace(0.0, 1.0, grid_size + 1)
    out = np.zeros((grid_size + 1, dimension))
    if amplitude == 0.0:
        return out
    if dimension == 1:
        out[:, 0] = amplitude * np.sin(np.pi * t)
    else:
        out[:, 0] = amplitude * np.sin(2.0 * np.pi * t)
        out[:, 1] = amplitude * (1.0 - np.cos(2.0 * np.pi * t))
    out[0] = 0.0
    out[-1] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class Problem:
    """A named benchmark: structure, endpoints, ladder, and ground truth.

    The defaults are what the presets share: a ``grid_size`` of 100
    segments; the ladder ``ContinuationSchedule()``, q = 1, 10, ..., 10^4;
    ``unique_limit`` True, so the Cauchy verdict is checked, against a max
    rho1 of ``cauchy_rho1_tol`` = 1e-6; no ``reference_distance`` (None: no
    closed form, so no length verdict) and an empty ``reference_note``, the
    text that ``list-problems`` prints beside it; no ``drift``; and a zero
    ``seed_amplitude``, so the first rung starts on the straight chord.
    Records compare and hash by identity, as their arrays do not compare to
    a truth value.
    """

    name: str
    description: str
    structure: SubRiemannianStructure
    start: np.ndarray
    end: np.ndarray
    grid_size: int = 100
    schedule: ContinuationSchedule = ContinuationSchedule()
    unique_limit: bool = True
    cauchy_rho1_tol: float = 1e-6
    reference_distance: Optional[float] = None
    reference_note: str = ""
    drift: Optional[DriftField] = None
    integrator_steps: int = 100  # unused; bench/workloads.py still reads it
    seed_amplitude: float = 0.0

    @property
    def has_drift(self) -> bool:
        return self.drift is not None

    def seed_deflection(self) -> Optional[np.ndarray]:
        """The seed kick, shape (N+1, n) for drift problems too, or None."""
        if self.seed_amplitude == 0.0:
            return None
        return sinusoidal_deflection(self.grid_size, self.structure.dimension, self.seed_amplitude)


def _euclidean_problem(name: str, dimension: int) -> Problem:
    start = np.zeros(dimension)
    end = np.ones(dimension)
    return Problem(
        name=name,
        description=(
            f"Flat R^{dimension} with an unconstrained distribution; the minimizer"
            " is the straight chord at every penalty, a pure regression anchor."
        ),
        structure=euclidean_structure(dimension),
        start=start,
        end=end,
        grid_size=60,
        reference_distance=float(np.linalg.norm(end - start)),
        reference_note="straight-line distance",
    )


def _heisenberg_problem() -> Problem:
    return Problem(
        name="heisenberg",
        description=(
            "Contact structure on R^3, horizontal endpoints (0,0,0) to (1,0,0);"
            " the straight chord is horizontal and optimal, distance 1.  For"
            " vertical endpoints (0,0,0) to (0,0,z) the reference distance is"
            " 2 sqrt(pi z) (isoperimetric circle, sharp as z goes to 0);"
            " override the endpoints in a config to run that case."
        ),
        structure=heisenberg_structure(),
        start=np.zeros(3),
        end=np.array([1.0, 0.0, 0.0]),
        reference_distance=1.0,
        reference_note="horizontal straight chord",
    )


def vertical_heisenberg_problem(grid_size: int = 200) -> Problem:
    """The hard benchmark: purely vertical Heisenberg endpoints.

    Steers (0,0,0) to (0,0,1/(4 pi)), with isoperimetric reference distance
    2 sqrt(pi z) = 1 while the straight chord is maximally non-admissible.
    The constrained minimizer is a near-circular loop, unique only up to
    rotation about the z axis, so this problem carries
    ``unique_limit=False`` and is not part of the fixed catalogue; build it
    here or run the ``heisenberg`` preset with overridden endpoints.
    """
    z = 1.0 / (4.0 * np.pi)
    return Problem(
        name="heisenberg-vertical",
        description=(
            "Contact structure on R^3, purely vertical endpoints (0,0,0) to"
            f" (0,0,{z:.17g}); the minimizer loops around an enclosed area"
            " of z, reference distance 2 sqrt(pi z) = 1."
        ),
        structure=heisenberg_structure(),
        start=np.zeros(3),
        end=np.array([0.0, 0.0, z]),
        grid_size=grid_size,
        unique_limit=False,
        reference_distance=heisenberg_vertical_distance(z),
        reference_note="isoperimetric circle, 2 sqrt(pi z)",
        seed_amplitude=0.05,
    )


def _martinet_problem() -> Problem:
    return Problem(
        name="martinet",
        description=(
            "Flat Martinet structure on R^3, endpoints (0,0,0) to (1,0,0)"
            " along the singular line y = 0; the straight chord is horizontal"
            " and optimal, distance 1."
        ),
        structure=martinet_structure(),
        start=np.zeros(3),
        end=np.array([1.0, 0.0, 0.0]),
        reference_distance=1.0,
        reference_note="horizontal straight chord",
    )


def _drift_constant_1d_problem() -> Problem:
    return Problem(
        name="drift-constant-1d",
        description=(
            "Scalar system p' = 1 + u steered from 0 back to 0 in unit time;"
            " the optimal control is u = -1 with cost 1, so every reported"
            " number has a closed form."
        ),
        structure=euclidean_structure(1),
        start=np.zeros(1),
        end=np.zeros(1),
        grid_size=50,
        reference_note="optimal control cost 1 (constant control -1)",
        drift=constant_drift(np.array([1.0])),
    )


def _drift_linear_2d_problem() -> Problem:
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    return Problem(
        name="drift-linear-2d",
        description=(
            "Double-integrator-style system p' = A p + u with A the"
            " upper-triangular nilpotent 2x2 matrix, steered from the origin"
            " to (1, 0) in unit time; the minimum-energy control follows the"
            " controllability Gramian, cost 12/13."
        ),
        structure=euclidean_structure(2),
        start=np.zeros(2),
        end=np.array([1.0, 0.0]),
        grid_size=40,
        reference_note="Gramian minimum-energy cost 12/13",
        drift=linear_drift(A),
    )


def _heisenberg_drift_problem() -> Problem:
    return Problem(
        name="heisenberg-drift",
        description=(
            "Contact structure on R^3 with a constant drift (0.1, 0, 0) and a"
            " constrained control, steered from the origin to (1, 0, 0.05);"
            " the vertical climb forces the control to enclose area while"
            " fighting the drift, so no closed form is available."
        ),
        structure=heisenberg_structure(),
        start=np.zeros(3),
        end=np.array([1.0, 0.0, 0.05]),
        cauchy_rho1_tol=0.05,
        reference_note="no closed form; diagnostics only",
        drift=constant_drift(np.array([0.1, 0.0, 0.0])),
        seed_amplitude=0.05,
    )


_PRESETS = {
    "heisenberg": _heisenberg_problem,
    "martinet": _martinet_problem,
    "drift-constant-1d": _drift_constant_1d_problem,
    "drift-linear-2d": _drift_linear_2d_problem,
    "heisenberg-drift": _heisenberg_drift_problem,
}

_EUCLIDEAN_PATTERN = re.compile(r"^euclidean-(\d+)$")


def problem_names() -> list:
    """Canonical names accepted by :func:`get_problem`."""
    return ["euclidean-n"] + sorted(_PRESETS)


def get_problem(name: str) -> Problem:
    """Look up a benchmark problem by name.

    ``euclidean-<n>`` builds the flat problem in dimension n; the alias
    ``euclidean-n`` means n = 3.  Unknown names raise KeyError listing the
    valid choices.
    """
    if name == "euclidean-n":
        return _euclidean_problem("euclidean-n", 3)
    match = _EUCLIDEAN_PATTERN.match(name)
    if match:
        dimension = int(match.group(1))
        if dimension < 1:
            raise KeyError(f"euclidean dimension must be positive in {name!r}")
        return _euclidean_problem(name, dimension)
    maker = _PRESETS.get(name)
    if maker is None:
        raise KeyError(
            f"unknown problem {name!r}; choose one of {', '.join(problem_names())}"
        )
    return maker()
