from __future__ import annotations

import sys

import numpy as np
import pytest

from pengeo import (
    DiscretePath,
    energy,
    energy_gradient,
    euclidean_structure,
    heisenberg_structure,
    martinet_structure,
)

_ACCEPTANCE_LINES: list = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    """Collect one acceptance verdict for the end-of-run summary."""
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    _ACCEPTANCE_LINES.append(f"{verdict}  {name}{suffix}")


def pytest_terminal_summary(terminalreporter) -> None:
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240911)


@pytest.fixture(scope="session")
def heisenberg():
    return heisenberg_structure()


@pytest.fixture(scope="session")
def martinet():
    return martinet_structure()


@pytest.fixture(scope="session")
def euclidean3():
    return euclidean_structure(3)


def random_path(
    structure,
    grid_size: int,
    rng: np.random.Generator,
    scale: float = 0.5,
    start=None,
    end=None,
) -> DiscretePath:
    """A chord between random (or given) endpoints with jittered interior."""
    n = structure.dimension
    if start is None:
        start = rng.normal(size=n)
    if end is None:
        end = rng.normal(size=n)
    base = DiscretePath.chord(start, end, grid_size)
    jitter = scale * rng.normal(size=(grid_size - 1, n))
    return base.with_interior(base.interior() + jitter)


def fd_energy_gradient(structure, q, path, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the energy over interior coordinates."""
    interior = path.interior()
    grad = np.zeros_like(interior)
    h = step * (1.0 + float(np.max(np.abs(interior), initial=0.0)))
    for i in range(interior.shape[0]):
        for j in range(interior.shape[1]):
            plus = interior.copy()
            plus[i, j] += h
            minus = interior.copy()
            minus[i, j] -= h
            e_plus = energy(structure, q, path.with_interior(plus))
            e_minus = energy(structure, q, path.with_interior(minus))
            grad[i, j] = (e_plus - e_minus) / (2.0 * h)
    return grad.ravel()


def fd_energy_hessian(structure, q, path, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of ``energy_gradient`` over interior coordinates.

    Column k of the result differences the gradient along interior
    coordinate k.  The step is larger than :func:`fd_energy_gradient`'s
    because the gradient carries its own central-difference roundoff.
    """
    interior = path.interior()
    flat = interior.ravel()
    h = step * (1.0 + float(np.max(np.abs(interior), initial=0.0)))
    columns = []
    for k in range(flat.size):
        plus = flat.copy()
        plus[k] += h
        minus = flat.copy()
        minus[k] -= h
        plus_path = path.with_interior(plus.reshape(interior.shape))
        minus_path = path.with_interior(minus.reshape(interior.shape))
        g_plus = energy_gradient(structure, q, plus_path)
        g_minus = energy_gradient(structure, q, minus_path)
        columns.append((g_plus - g_minus) / (2.0 * h))
    return np.column_stack(columns)


def heisenberg_lifted_circle(radius: float, grid_size: int) -> DiscretePath:
    """Discrete admissible lift of a planar circle through the origin.

    The z increments cancel the admissibility one-form at the segment
    midpoints, so the discrete defect is pure roundoff and the final height
    equals the polygon's enclosed (shoelace) area.
    """
    t = np.linspace(0.0, 1.0, grid_size + 1)
    x = radius * np.sin(2.0 * np.pi * t)
    y = radius * (1.0 - np.cos(2.0 * np.pi * t))
    z = np.zeros(grid_size + 1)
    for i in range(grid_size):
        xm = 0.5 * (x[i] + x[i + 1])
        ym = 0.5 * (y[i] + y[i + 1])
        z[i + 1] = z[i] + 0.5 * (xm * (y[i + 1] - y[i]) - ym * (x[i + 1] - x[i]))
    return DiscretePath(np.column_stack([x, y, z]))


def martinet_lifted_wave(amplitude: float, grid_size: int) -> DiscretePath:
    """Discrete admissible path for the flat-plane benchmark with one bend.

    Follows x = t with y a sine arch, accumulating z so that the one-form
    dz - y^2 dx vanishes at every segment midpoint.
    """
    t = np.linspace(0.0, 1.0, grid_size + 1)
    x = t.copy()
    y = amplitude * np.sin(2.0 * np.pi * t)
    z = np.zeros(grid_size + 1)
    for i in range(grid_size):
        ym = 0.5 * (y[i] + y[i + 1])
        z[i + 1] = z[i] + ym * ym * (x[i + 1] - x[i])
    return DiscretePath(np.column_stack([x, y, z]))


def nan_hessian(monkeypatch) -> None:
    """Make every exact-Hessian build return non-finite diagonal blocks."""
    from pengeo import optimizer

    build = optimizer._base_point_hessian

    def nan_blocks(evaluation, q):
        diag, off = build(evaluation, q)
        return np.full_like(diag, np.nan), off

    monkeypatch.setattr(optimizer, "_base_point_hessian", nan_blocks)


def stalled_line_search(monkeypatch) -> None:
    """Let the optimizer's first path evaluation through and make every later
    one raise DegenerateFrameError, so the first line search that runs backtracks
    below its floor."""
    from pengeo import optimizer
    from pengeo.geometry import DegenerateFrameError

    evaluate = optimizer._evaluate
    calls = []

    def first_only(structure, path):
        calls.append(path)
        if len(calls) > 1:
            raise DegenerateFrameError("every trial frame is rejected")
        return evaluate(structure, path)

    monkeypatch.setattr(optimizer, "_evaluate", first_only)


def assert_same_evaluation(a, b, q) -> None:
    """Two path evaluations agree bitwise in every form and in every reading at q."""
    readings = ("energy", "length", "speed_cv")
    assert [getattr(a, f)(q) for f in readings] == [getattr(b, f)(q) for f in readings]
    assert a.defect == b.defect
    np.testing.assert_array_equal(a.flux(q), b.flux(q))
    for name in ("horizontal", "vertical", "horizontal_flux", "vertical_flux"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def count_calls(monkeypatch, owner, name: str, *callers) -> list:
    """Record every call of ``owner.name`` (a numpy function, say) for the rest
    of the test, and return the list of records.

    Each record is the ``__qualname__`` of the innermost of the functions
    ``callers`` on the call stack, matched by code object, or None when none
    of them is on it (always None when no callers are given).
    """
    fn = getattr(owner, name)
    codes = {caller.__code__: caller.__qualname__ for caller in callers}
    calls = []

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in codes:
            frame = frame.f_back
        calls.append(None if frame is None else codes[frame.f_code])
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls
