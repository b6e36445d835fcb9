"""Batch front end: problem catalogue, config ingestion, runs, and audits.

Configurations are UTF-8 INI files, read with no ``%`` interpolation, with
sections [problem], [schedule], [solver], [drift], [structure], and [output];
a file that does not parse is a configuration error, and every key is
validated against a whitelist so a typo fails fast with the offending name.
``solve`` and ``drift-solve`` share one run path; a drift run differs only in
the solver it calls, two extra tables, a report block and its verdicts.  Runs
write comma-separated tables, and name each path file by its q, with 17
significant digits, which round-trips doubles exactly; that is what lets
``diagnose`` re-derive every reported number from the stored path samples and
flag any mismatch.

Exit codes: 0 when everything converged and all activated verdicts hold,
1 for solver failures or failed verdicts (reports are still written),
2 for malformed configuration or command lines.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import contextlib
import functools
import logging
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .diagnostics import ConvergenceReport, distance_chain_report
from .drift import (
    _lifted_evaluation,
    _pull_back,
    constant_drift,
    linear_drift,
    solve_drift_problem,
    zero_drift,
)
from .functionals import DiscretePath, _evaluate, _rms_gap, _segments
from .geometry import DegenerateFrameError, SubRiemannianStructure
from .optimizer import SolverConfig, StepUnderflowError, continuation_solve
from .problems import Problem, get_problem, problem_names

logger = logging.getLogger("pengeo")

__all__ = ["ConfigError", "parse_config", "main", "main_entry", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "PENGEO_OUT"
DEFAULT_OUTPUT_ROOT = "pengeo-results"

# Stored functionals must be reproducible from stored paths this tightly.
REDERIVE_TOLERANCE = 1e-9

# Relative gap allowed between the control cost and 2 * lifted energy - 1.
IDENTITY_TOLERANCE = 1e-6

class ConfigError(Exception):
    """Malformed configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunSpec:
    """Everything one run needs, assembled from a config file."""

    problem: Problem
    solver: SolverConfig
    out_root: Optional[str]


def _parse_vector(text: str, key: str, dimension: Optional[int] = None) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a comma-separated vector: {text!r}") from exc
    if not np.isfinite(values).all():
        raise ConfigError(f"key '{key}' has an entry that is not finite: {text!r}")
    if dimension is not None and values.size != dimension:
        raise ConfigError(
            f"key '{key}' has {values.size} entries, expected {dimension}"
        )
    return values


# Every key of every section with its reader; None marks a key read by hand.
# A typed key of [problem], [schedule] or [solver] is named as the Problem,
# ContinuationSchedule or SolverConfig field it sets.
_KEYS = {
    "problem": {
        "name": None,
        "start": _parse_vector,
        "end": _parse_vector,
        "grid_size": int,
        "unique_limit": bool,
        "cauchy_rho1_tol": float,
        "reference_distance": float,
        "seed_amplitude": float,
    },
    "schedule": {"q_start": float, "ratio": float, "step_count": int},
    "solver": {"max_iterations": int},
    "drift": {"kind": None, "vector": None, "matrix": None},
    "structure": {"dimension": int, "frame": None},
    "output": {"root": None},
}

_BOOLEANS = {
    "true": True, "yes": True, "1": True, "on": True,
    "false": False, "no": False, "0": False, "off": False,
}


def _fields(parser, section: str, dimension: Optional[int] = None) -> dict:
    """The typed keys ``section`` sets, each read by its ``_KEYS`` reader;
    a vector must have ``dimension`` entries."""
    if not parser.has_section(section):
        return {}
    fields = {}
    for key, raw in parser[section].items():
        reader = _KEYS[section][key]
        where = f"key '{key}' in [{section}]"
        if reader is _parse_vector:
            fields[key] = _parse_vector(raw, key, dimension)
        elif reader is bool:
            fields[key] = _BOOLEANS.get(raw.strip().lower())
            if fields[key] is None:
                raise ConfigError(f"{where} is not a boolean: {raw!r}")
        elif reader is not None:
            try:
                fields[key] = reader(raw)
            except ValueError as exc:
                kind = "a number" if reader is float else "an integer"
                raise ConfigError(f"{where} is not {kind}: {raw!r}") from exc
            if reader is float and not np.isfinite(fields[key]):
                raise ConfigError(f"{where} is not finite: {raw!r}")
    return fields


def _parse_matrix(text: str, key: str) -> np.ndarray:
    rows = [r for r in (part.strip() for part in text.split(";")) if r]
    try:
        matrix = np.array(
            [[float(tok) for tok in row.split(",")] for row in rows], dtype=float
        )
    except ValueError as exc:
        raise ConfigError(
            f"key '{key}' is not a semicolon-separated matrix: {text!r}"
        ) from exc
    if not np.isfinite(matrix).all():
        raise ConfigError(f"key '{key}' has an entry that is not finite: {text!r}")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError(f"key '{key}' must be a square matrix, got shape {matrix.shape}")
    return matrix


def _compile_polynomial(text: str, dimension: int, key: str):
    """Compile one polynomial entry in variables x1..xn to a batch evaluator.

    Supports +, -, *, / by a constant, integer powers (either ** or ^), and
    numeric literals.  Anything else, and a constant part that is not finite
    (``1e400``, ``9^9^9``), is rejected with the config key named, so frame
    tables cannot smuggle in arbitrary code.  A probe at the origin raises
    these errors while the config is parsed.
    """
    source = text.strip().replace("^", "**")
    if not source:
        raise ConfigError(f"key '{key}' contains an empty frame entry")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"key '{key}': cannot parse entry {text!r}") from exc
    index = {f"x{i + 1}": i for i in range(dimension)}

    def evaluate(node, pts):
        try:
            value = compute(node, pts)
        except OverflowError:  # float powers overflow by raising
            value = float("inf")
        if np.isscalar(value) and not np.isfinite(value):
            raise ConfigError(f"key '{key}': constant part of entry {text!r} is not finite")
        return value

    def compute(node, pts):
        if isinstance(node, ast.Expression):
            return evaluate(node.body, pts)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id not in index:
                raise ConfigError(
                    f"key '{key}': unknown variable {node.id!r} in entry {text!r}"
                    f" (use x1..x{dimension})"
                )
            return pts[:, index[node.id]]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = evaluate(node.operand, pts)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp):
            left = evaluate(node.left, pts)
            right = evaluate(node.right, pts)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if not np.isscalar(right) or right == 0.0:
                    raise ConfigError(
                        f"key '{key}': division only by a nonzero constant in {text!r}"
                    )
                return left / right
            if isinstance(node.op, ast.Pow):
                if not np.isscalar(right) or right != int(right) or right < 0:
                    raise ConfigError(
                        f"key '{key}': exponents must be nonnegative integers in {text!r}"
                    )
                return left ** int(right)
        raise ConfigError(f"key '{key}': unsupported expression in entry {text!r}")

    def entry(pts: np.ndarray) -> np.ndarray:
        value = evaluate(tree, pts)
        if np.isscalar(value):
            return np.full(pts.shape[0], float(value))
        return np.asarray(value, dtype=float)

    entry(np.zeros((1, dimension)))
    return entry


def _parse_structure(parser) -> SubRiemannianStructure:
    """Build a structure from an inline [structure] section.

    The metric is Euclidean; the frame is a semicolon-separated list of
    columns, each column a comma-separated tuple of polynomial entries in
    x1..xn, parentheses optional.  The rank is the number of columns, at
    most the dimension.
    """
    dimension = _fields(parser, "structure").get("dimension", 0)
    if dimension < 1:
        raise ConfigError("key 'dimension' must be a positive integer")
    eye = np.eye(dimension)

    frame_text = parser["structure"].get("frame")
    if not frame_text:
        raise ConfigError("key 'frame' is required in [structure]")
    columns = []
    for col_text in frame_text.split(";"):
        col_text = col_text.strip().strip("()")
        entries = [e for e in (part.strip() for part in col_text.split(",")) if e]
        if len(entries) != dimension:
            raise ConfigError(
                f"key 'frame': column {col_text!r} has {len(entries)} entries,"
                f" expected {dimension}"
            )
        columns.append([_compile_polynomial(e, dimension, "frame") for e in entries])
    if len(columns) > dimension:
        raise ConfigError(f"key 'frame' has {len(columns)} columns, more than the dimension {dimension}")

    def frame_columns(pts: np.ndarray) -> np.ndarray:
        out = np.empty((pts.shape[0], dimension, len(columns)))
        for j, col in enumerate(columns):
            for i, entry in enumerate(col):
                out[:, i, j] = entry(pts)
        return out

    return SubRiemannianStructure(
        dimension=dimension,
        metric=lambda pts: eye,
        frame=frame_columns,
        name="custom",
    )


def _parse_drift(section, dimension: int):
    kind = section.get("kind")
    if kind is None:
        raise ConfigError("key 'kind' is required in [drift]")
    kind = kind.strip().lower()
    if kind == "zero":
        return zero_drift(dimension)
    if kind == "constant":
        raw = section.get("vector")
        if raw is None:
            raise ConfigError("key 'vector' is required for a constant drift")
        return constant_drift(_parse_vector(raw, "vector", dimension))
    if kind == "linear":
        raw = section.get("matrix")
        if raw is None:
            raise ConfigError("key 'matrix' is required for a linear drift")
        matrix = _parse_matrix(raw, "matrix")
        if matrix.shape[0] != dimension:
            raise ConfigError(
                f"key 'matrix' is {matrix.shape[0]}x{matrix.shape[1]},"
                f" expected {dimension}x{dimension}"
            )
        return linear_drift(matrix)
    raise ConfigError(f"key 'kind': unknown drift kind {kind!r}")


def parse_config(path) -> RunSpec:
    """Read and validate a run configuration; raise ConfigError on any defect."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    if parser.has_section("structure"):
        structure = _parse_structure(parser)
        if not (parser.has_option("problem", "start") and parser.has_option("problem", "end")):
            raise ConfigError(
                "keys 'start' and 'end' are required with an inline [structure]"
            )
        base = Problem(
            name=parser.get("problem", "name", fallback="custom"),
            description="inline structure from configuration",
            structure=structure,
            start=np.zeros(structure.dimension),
            end=np.zeros(structure.dimension),
            unique_limit=False,
        )
    else:
        name = parser.get("problem", "name", fallback=None)
        if not name:
            raise ConfigError("key 'name' is required in [problem]")
        try:
            base = get_problem(name)
        except KeyError as exc:
            raise ConfigError(f"key 'name': {exc.args[0]}") from exc

    dim = base.structure.dimension
    fields = _fields(parser, "problem", dim)
    if parser.has_section("drift"):
        fields["drift"] = _parse_drift(parser["drift"], dim)
    try:
        fields["schedule"] = replace(base.schedule, **_fields(parser, "schedule"))
    except ValueError as exc:
        raise ConfigError(f"invalid [schedule]: {exc}") from exc
    problem = replace(base, **fields)
    if problem.has_drift and "reference_distance" in fields:
        raise ConfigError("key 'reference_distance' does not apply to a problem with a drift field")
    if problem.grid_size < 2:
        raise ConfigError("key 'grid_size' must be at least 2")
    if problem.reference_distance is not None and problem.reference_distance <= 0.0:
        raise ConfigError("key 'reference_distance' must be positive")

    try:
        solver = SolverConfig(grid_size=problem.grid_size, **_fields(parser, "solver"))
    except ValueError as exc:
        raise ConfigError(f"invalid [solver]: {exc}") from exc

    out_root = parser.get("output", "root", fallback=None) or None
    return RunSpec(problem=problem, solver=solver, out_root=out_root)


def _resolve_out_dir(explicit: Optional[str], spec: RunSpec) -> Path:
    if explicit:
        return Path(explicit)
    if spec.out_root:
        return Path(spec.out_root) / spec.problem.name
    root = os.environ.get(OUTPUT_ROOT_ENV, DEFAULT_OUTPUT_ROOT)
    return Path(root) / spec.problem.name


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _path_file_name(q: float) -> str:
    return f"path_q{_fmt(q)}.csv"


def _write_results_csv(
    out_dir: Path, problem: Problem, chain: ConvergenceReport, dimension: int, wall_time: float
) -> None:
    lines = [
        f"# problem: {problem.name}",
        f"# dimension: {dimension}",
        f"# grid_size: {problem.grid_size}",
        f"# solver_version: {__version__}",
        f"# wall_time_s: {wall_time:.3f}",
        "q,energy,length,defect,iterations,converged,gradient_norm,rho0,rho1",
    ]
    for res, rho0, rho1 in zip(chain.results, chain.rho0, chain.rho1):
        fields = [_fmt(res.q), _fmt(res.energy), _fmt(res.length), _fmt(res.defect)]
        fields += [str(res.iterations), str(res.converged).lower(), _fmt(res.gradient_norm)]
        fields += ["nan" if r is None else _fmt(np.max(r)) for r in (rho0, rho1)]
        lines.append(",".join(fields))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")


def _write_samples_csv(path: Path, times: np.ndarray, values: np.ndarray, prefix: str) -> None:
    """Header ``t,<prefix>1,...`` and rows of '%.17g' values in one write: the bytes
    of ``np.savetxt(fmt="%.17g", delimiter=",", comments="")``, read back bitwise."""
    header = ",".join(["t"] + [f"{prefix}{i + 1}" for i in range(values.shape[1])])
    table = np.column_stack([times, values])
    row = ",".join(["%.17g"] * table.shape[1])
    path.write_text("\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n")


def _read_table(path: Path):
    """Rows of a comma-separated file as dicts, skipping '#' comment lines."""
    lines = [
        line
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if len(lines) < 2:
        raise ConfigError(f"{path.parent}: {path.name} has no header and data rows")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cmd_list_problems() -> int:
    print("built-in problems:")
    for name in problem_names():
        problem = get_problem(name)
        drift_note = problem.drift.name if problem.has_drift else "none"
        rank = problem.structure._fields(problem.start[None, :])[1].shape[2]
        print()
        print(name)
        print(f"  dimension {problem.structure.dimension}, rank {rank}, drift: {drift_note}")
        print(f"  unique limit minimizer: {str(problem.unique_limit).lower()}")
        if problem.reference_distance is not None:
            print(
                f"  reference distance: {problem.reference_distance:.17g}"
                f" ({problem.reference_note})"
            )
        else:
            print(f"  reference: {problem.reference_note}")
        print(f"  {problem.description}")
    return 0


def _cmd_run(command: str, config_path: str, out: Optional[str]) -> int:
    """Run ``solve`` or ``drift-solve`` on a config; write, print and judge the ladder.

    A solver failure (line-search underflow, a degenerate frame, a diverging
    flow) writes ``report.txt`` as ``solver failure: <message>``, prints the
    same line to stderr and returns 1.  Otherwise one
    :func:`distance_chain_report` covers the ladder: its chain block heads
    ``report.txt`` and, from two rungs on, its Cauchy table ends it.  A drift
    run also writes ``controls.csv`` and ``trajectory.csv`` on the final grid
    and puts a "drift reduction" block between the two.  The run passes when
    every rung converged, energies rise, defects fall and the Cauchy check (if
    the limit is declared unique) holds; ``solve`` also needs lengths that
    rise and stay within the reference distance, ``drift-solve`` a successful
    drift solve and the control cost identity.
    """
    spec = parse_config(config_path)
    problem = spec.problem
    drift = command == "drift-solve"
    if problem.has_drift != drift:
        raise ConfigError(
            f"problem '{problem.name}' includes a drift field; use the drift-solve command"
            if problem.has_drift
            else f"problem '{problem.name}' has no drift field; use the solve command"
        )
    out_dir = _resolve_out_dir(out, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.suppress(shutil.SameFileError):  # a re-run into the config's own directory
        shutil.copyfile(config_path, out_dir / "config.ini")

    qs = problem.schedule.q_values()
    print(
        f"problem {problem.name}: {qs.size} penalty steps,"
        f" q from {_fmt(qs[0])} to {_fmt(qs[-1])}, grid size {problem.grid_size}"
    )
    started = time.perf_counter()
    try:
        if drift:
            solution = solve_drift_problem(
                problem.structure,
                problem.drift,
                problem.start,
                problem.end,
                problem.schedule,
                spec.solver,
                seed_deflection=problem.seed_deflection(),
            )
            results = solution.results
        else:
            results = continuation_solve(
                problem.structure,
                (problem.start, problem.end),
                problem.schedule,
                spec.solver,
                seed_deflection=problem.seed_deflection(),
            )
    except (StepUnderflowError, DegenerateFrameError, FloatingPointError) as exc:
        (out_dir / "report.txt").write_text(f"solver failure: {exc}\n")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    chain = distance_chain_report(
        results,
        None if drift else problem.reference_distance,
        problem.unique_limit,
        problem.cauchy_rho1_tol,
    )
    final = results[-1].path
    _write_results_csv(out_dir, problem, chain, final.dimension, wall)
    for res in results:
        _write_samples_csv(
            out_dir / _path_file_name(res.q), res.path.times, res.path.points, "x"
        )
    report_text = chain.format_text()
    if drift:
        _write_samples_csv(out_dir / "controls.csv", final.times, solution.control_grid, "Y")
        _write_samples_csv(out_dir / "trajectory.csv", final.times, solution.trajectory, "x")
        identity_ok = solution.cost_identity_gap <= IDENTITY_TOLERANCE * (
            1.0 + abs(solution.control_cost)
        )
        report_text += "\n" + "\n".join(
            [
                "drift reduction",
                "=" * 15,
                "",
                f"control cost:                     {solution.control_cost:.17g}",
                f"lifted energy (q = 1):            {solution.lifted_energy:.17g}",
                f"cost identity |cost - (2E - 1)|:  {solution.cost_identity_gap:.6e}"
                f" ({'pass' if identity_ok else 'FAIL'})",
                f"control defect:                   {results[-1].defect:.6e}",
                f"endpoint mismatch:                {solution.endpoint_mismatch:.6e}",
                f"time rate deviation:              {solution.time_rate_deviation:.6e}"
                " (time coordinate pinned)",
                "",
            ]
        )
        verdict = solution.success and identity_ok
    else:
        verdict = chain.lengths_nondecreasing and chain.lengths_within_reference is not False
    if len(results) > 1:
        report_text += "\n" + chain.format_cauchy()
    (out_dir / "report.txt").write_text(report_text)

    for res in results:
        print(
            f"  q={_fmt(res.q)}: energy={res.energy:.12g} length={res.length:.12g}"
            f" defect={res.defect:.3e} iterations={res.iterations}"
            f" converged={str(res.converged).lower()}"
        )
    if drift:
        print(
            f"control cost {solution.control_cost:.12g},"
            f" identity gap {solution.cost_identity_gap:.3e},"
            f" endpoint mismatch {solution.endpoint_mismatch:.3e}"
        )
    ok = (
        all(r.converged for r in results)
        and chain.energies_nondecreasing
        and chain.defects_nonincreasing
        and chain.cauchy_passed is not False
        and verdict
    )
    print(f"results written to {out_dir}")
    print(f"verdicts: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_diagnose(results_dir: str) -> int:
    root = Path(results_dir)
    config_path = root / "config.ini"
    results_path = root / "results.csv"
    report_path = root / "report.txt"
    if report_path.is_file():
        first_line = report_path.read_text().partition("\n")[0]
        if first_line.startswith("solver failure:"):
            print(first_line, file=sys.stderr)
            return 1
    for required in (config_path, results_path):
        if not required.is_file():
            raise ConfigError(f"{root} is not a results directory (missing {required.name})")
    spec = parse_config(config_path)
    problem = spec.problem
    # A drift-solve path is lifted: its last column is the time s.
    if problem.has_drift:
        structure = _pull_back(problem.structure, problem.drift)
        evaluate, width = _lifted_evaluation, structure.dimension + 1
    else:
        structure = problem.structure
        evaluate, width = _evaluate, structure.dimension

    rows = _read_table(results_path)
    failures = []

    def number(index: int, column: str) -> float:
        text = rows[index].get(column)
        try:
            return float(text)
        except (TypeError, ValueError):
            where = f"{root}: results.csv row {index + 1} column '{column}'"
            raise ConfigError(f"{where} is not a number: {text!r}") from None

    def check(q: float, field_name: str, stored: float, recomputed: float) -> None:
        gap = abs(stored - recomputed)
        # An infinite recomputed value would widen the bound to inf.
        ok = np.isfinite(recomputed) and gap <= REDERIVE_TOLERANCE * (1.0 + abs(recomputed))
        status = "ok" if ok else "MISMATCH"
        print(
            f"q={_fmt(q)} {field_name}: stored={stored:.12g}"
            f" recomputed={recomputed:.12g} [{status}]"
        )
        if not ok:
            failures.append((q, field_name, gap))

    def mismatch(q: float, what: str) -> None:
        print(f"q={_fmt(q)} {what} [MISMATCH]")
        failures.append((q, what, float("nan")))

    # The last row's path, its segments and, if it re-derived, its evaluation.
    previous_path = previous_segments = previous = None
    for index, row in enumerate(rows):
        q = number(index, "q")
        try:
            samples = np.loadtxt(root / _path_file_name(q), delimiter=",", skiprows=1, ndmin=2)
            path = DiscretePath(samples[:, 1:])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{root}: cannot read {_path_file_name(q)}: {exc}") from exc
        # One frame factorization per distinct path: the factor and the forms do
        # not depend on q, so a row storing the previous row's points bitwise
        # (of the same width, checked first) re-forms that row's evaluation.
        same = previous is not None and path.points.tobytes() == previous_path.points.tobytes()
        evaluation = None
        try:
            if path.dimension != width:
                raise ValueError(f"path width is {path.dimension}, expected {width}")
            evaluation = previous.at(q) if same else evaluate(structure, q, path)
        except (DegenerateFrameError, FloatingPointError, ValueError) as exc:
            mismatch(q, f"re-derivation failed: {exc}")
        else:
            for field_name in ("energy", "length", "defect"):
                check(q, field_name, number(index, field_name), getattr(evaluation, field_name))
        # A tampered path far from its neighbour reads as rho = inf.
        with np.errstate(over="ignore"):
            segments = _segments(path)
        for order, field_name in ((0, "rho0"), (1, "rho1")):
            if previous_path is None:
                if row.get(field_name) != "nan":
                    mismatch(q, f"{field_name}: expected nan on the first row")
                continue
            try:
                with np.errstate(over="ignore"):
                    recomputed = float(np.max(_rms_gap(previous_segments[order], segments[order])))
            except ValueError as exc:  # the two paths differ in grid size or dimension
                mismatch(q, f"{field_name}: re-derivation failed: {exc}")
                continue
            check(q, field_name, number(index, field_name), recomputed)
        previous_path, previous_segments, previous = path, segments, evaluation

    if failures:
        print(f"diagnose: {len(failures)} mismatches found")
        return 1
    print(f"diagnose: all {len(rows)} rows re-derived within {REDERIVE_TOLERANCE:g}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call and shared by
    every later one: `parse_args` reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="pengeo",
        description=(
            "Penalty-continuation solver for constrained geodesics and"
            " minimum-energy controls of drift systems."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list-problems", help="print the built-in problem catalogue")
    for name, text in (
        ("solve", "run penalty continuation on a problem"),
        ("drift-solve", "steer a drift system via the lifted problem"),
    ):
        run_cmd = commands.add_parser(name, help=text)
        run_cmd.add_argument("--config", required=True, help="INI configuration file")
        run_cmd.add_argument("--out", help="output directory (default from config or environment)")
    diag_cmd = commands.add_parser(
        "diagnose", help="re-derive every stored number from the stored paths"
    )
    diag_cmd.add_argument("--results", required=True, help="directory written by solve or drift-solve")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "list-problems":
            return _cmd_list_problems()
        if args.command in ("solve", "drift-solve"):
            return _cmd_run(args.command, args.config, args.out)
        if args.command == "diagnose":
            return _cmd_diagnose(args.results)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
