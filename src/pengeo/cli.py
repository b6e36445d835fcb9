"""Batch front end: problem catalogue, config ingestion, runs, and audits.

Configurations are INI files with sections [problem], [schedule], [solver],
[drift], [structure], and [output]; every key is validated against a
whitelist so a typo fails fast with the offending name.  Runs write
comma-separated tables with 17 significant digits, which round-trips doubles
exactly; that is what lets ``diagnose`` re-derive every reported number from
the stored path samples and flag any mismatch.

Exit codes: 0 when everything converged and all activated verdicts hold,
1 for solver failures or failed verdicts (reports are still written),
2 for malformed configuration or command lines.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import logging
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .diagnostics import ConvergenceReport, distance_chain_report, minimizer_cauchy_report
from .drift import build_lifted_structure, constant_drift, linear_drift, solve_drift_problem, zero_drift
from .functionals import DiscretePath, energy, horizontality_defect, length, semimetric_rho
from .geometry import DegenerateFrameError, FrameField, MetricField, SubRiemannianStructure
from .optimizer import (
    ContinuationSchedule,
    SolverConfig,
    StepUnderflowError,
    continuation_solve,
)
from .problems import Problem, get_problem, problem_names

logger = logging.getLogger("pengeo")

__all__ = ["ConfigError", "parse_config", "main", "main_entry", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "PENGEO_OUT"
DEFAULT_OUTPUT_ROOT = "pengeo-results"

# Stored functionals must be reproducible from stored paths this tightly.
REDERIVE_TOLERANCE = 1e-9

# Relative gap allowed between the control cost and 2 * lifted energy - 1.
IDENTITY_TOLERANCE = 1e-6

_SECTION_KEYS = {
    "problem": {
        "name",
        "start",
        "end",
        "grid_size",
        "unique_limit",
        "cauchy_rho1_tol",
        "reference_distance",
        "seed_amplitude",
    },
    "schedule": {"q_start", "ratio", "step_count"},
    "solver": {"max_iterations"},
    "drift": {"kind", "vector", "matrix"},
    "structure": {"dimension", "rank", "metric", "frame"},
    "output": {"root"},
}


class ConfigError(Exception):
    """Malformed configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunSpec:
    """Everything one run needs, assembled from a config file."""

    problem: Problem
    schedule: ContinuationSchedule
    solver: SolverConfig
    out_root: Optional[str]


def _get_float(section, key: str, fallback: float) -> float:
    raw = section.get(key)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{section.name}] is not a number: {raw!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"key '{key}' in [{section.name}] is not finite: {raw!r}")
    return value


def _get_int(section, key: str, fallback: int) -> int:
    raw = section.get(key)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not an integer: {raw!r}") from exc


def _get_bool(section, key: str, fallback: bool) -> bool:
    raw = section.get(key)
    if raw is None:
        return fallback
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key '{key}' is not a boolean: {raw!r}")


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


def _parse_structure(section) -> SubRiemannianStructure:
    """Build a structure from an inline [structure] section.

    The metric is a named preset (only ``euclidean`` is built in); the frame
    is a semicolon-separated list of columns, each column a comma-separated
    tuple of polynomial entries in x1..xn, parentheses optional.
    """
    dimension = _get_int(section, "dimension", 0)
    if dimension < 1:
        raise ConfigError("key 'dimension' must be a positive integer")
    metric_name = section.get("metric", "euclidean").strip().lower()
    if metric_name != "euclidean":
        raise ConfigError(
            f"key 'metric': unknown preset {metric_name!r} (only 'euclidean' is built in)"
        )
    eye = np.eye(dimension)
    metric = MetricField(gram=lambda pts: eye)

    frame_text = section.get("frame")
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
    rank = len(columns)
    declared = _get_int(section, "rank", rank)
    if declared != rank:
        raise ConfigError(
            f"key 'rank' says {declared} but the frame has {rank} columns"
        )

    def frame_columns(pts: np.ndarray) -> np.ndarray:
        out = np.empty((pts.shape[0], dimension, rank))
        for j, col in enumerate(columns):
            for i, entry in enumerate(col):
                out[:, i, j] = entry(pts)
        return out

    return SubRiemannianStructure(
        dimension=dimension,
        rank=rank,
        metric=metric,
        frame=FrameField(columns=frame_columns),
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
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    problem_section = parser["problem"] if parser.has_section("problem") else {}

    if parser.has_section("structure"):
        structure = _parse_structure(parser["structure"])
        name = problem_section.get("name", "custom")
        if problem_section.get("start") is None or problem_section.get("end") is None:
            raise ConfigError(
                "keys 'start' and 'end' are required with an inline [structure]"
            )
        base = Problem(
            name=name,
            description="inline structure from configuration",
            structure=structure,
            start=np.zeros(structure.dimension),
            end=np.zeros(structure.dimension),
            grid_size=100,
            schedule=ContinuationSchedule(),
            unique_limit=False,
            cauchy_rho1_tol=1e-6,
            reference_distance=None,
            reference_note="",
        )
    else:
        name = problem_section.get("name")
        if not name:
            raise ConfigError("key 'name' is required in [problem]")
        try:
            base = get_problem(name)
        except KeyError as exc:
            raise ConfigError(f"key 'name': {exc.args[0]}") from exc

    dim = base.structure.dimension
    overrides = {}
    if problem_section.get("start") is not None:
        overrides["start"] = _parse_vector(problem_section["start"], "start", dim)
    if problem_section.get("end") is not None:
        overrides["end"] = _parse_vector(problem_section["end"], "end", dim)
    grid_size = _get_int(problem_section, "grid_size", base.grid_size)
    if grid_size < 2:
        raise ConfigError("key 'grid_size' must be at least 2")
    overrides["grid_size"] = grid_size
    overrides["unique_limit"] = _get_bool(
        problem_section, "unique_limit", base.unique_limit
    )
    overrides["cauchy_rho1_tol"] = _get_float(
        problem_section, "cauchy_rho1_tol", base.cauchy_rho1_tol
    )
    if problem_section.get("reference_distance") is not None:
        ref = _get_float(problem_section, "reference_distance", 0.0)
        if ref <= 0.0:
            raise ConfigError("key 'reference_distance' must be positive")
        overrides["reference_distance"] = ref
    overrides["seed_amplitude"] = _get_float(
        problem_section, "seed_amplitude", base.seed_amplitude
    )

    if parser.has_section("drift"):
        overrides["drift"] = _parse_drift(parser["drift"], dim)

    problem = replace(base, **overrides)

    sched_section = parser["schedule"] if parser.has_section("schedule") else {}
    try:
        schedule = ContinuationSchedule(
            q_start=_get_float(sched_section, "q_start", base.schedule.q_start),
            ratio=_get_float(sched_section, "ratio", base.schedule.ratio),
            step_count=_get_int(sched_section, "step_count", base.schedule.step_count),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [schedule]: {exc}") from exc

    solver_section = parser["solver"] if parser.has_section("solver") else {}
    try:
        solver = SolverConfig(
            max_iterations=_get_int(solver_section, "max_iterations", 500),
            grid_size=problem.grid_size,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [solver]: {exc}") from exc

    out_root = None
    if parser.has_section("output"):
        out_root = parser["output"].get("root") or None

    return RunSpec(problem=problem, schedule=schedule, solver=solver, out_root=out_root)


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
    return f"path_q{q:g}.csv"


def _write_results_csv(
    out_dir: Path, problem: Problem, records, dimension: int, wall_time: float
) -> None:
    lines = [
        f"# problem: {problem.name}",
        f"# dimension: {dimension}",
        f"# grid_size: {problem.grid_size}",
        f"# solver_version: {__version__}",
        f"# wall_time_s: {wall_time:.3f}",
        "q,energy,length,defect,iterations,converged,gradient_norm,rho0,rho1",
    ]
    for rec in records:
        fields = [_fmt(rec.q), _fmt(rec.energy), _fmt(rec.length), _fmt(rec.defect)]
        fields += [str(rec.iterations), str(rec.converged).lower(), _fmt(rec.gradient_norm)]
        fields += ["nan" if r is None else _fmt(np.max(r)) for r in (rec.rho0, rec.rho1)]
        lines.append(",".join(fields))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")


def _write_samples_csv(path: Path, times: np.ndarray, values: np.ndarray, prefix: str) -> None:
    header = ",".join(["t"] + [f"{prefix}{i + 1}" for i in range(values.shape[1])])
    table = np.column_stack([times, values])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")


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
        print()
        print(name)
        print(
            f"  dimension {problem.structure.dimension},"
            f" rank {problem.structure.rank}, drift: {drift_note}"
        )
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


@dataclass(frozen=True)
class _Ladder:
    """What a command's solve step hands to the shared run pipeline: the ladder,
    the command's own verdicts on the chain report, the reference distance for
    its length checks, extra (file name, values, column prefix) tables on the
    final grid, a block for ``report.txt`` and a summary line."""

    results: list
    verdict: Callable[[ConvergenceReport], bool]
    reference_distance: Optional[float] = None
    tables: tuple = ()
    report: str = ""
    summary: Optional[str] = None


def _run_ladder(
    config_path: str, out: Optional[str], spec: RunSpec, solve: Callable[[], _Ladder]
) -> int:
    """Run ``solve`` and write, print and judge what it returns.

    A solver failure (line-search underflow, a degenerate frame, a diverging
    flow) writes ``report.txt`` as ``solver failure: <message>``, prints the
    same line to stderr and returns 1.  Otherwise the run passes when every
    rung converged, energies rise, defects fall, the Cauchy check (if any)
    holds and the command's own verdicts hold.
    """
    problem = spec.problem
    out_dir = _resolve_out_dir(out, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(config_path, out_dir / "config.ini")

    qs = spec.schedule.q_values()
    print(
        f"problem {problem.name}: {qs.size} penalty steps,"
        f" q from {qs[0]:g} to {qs[-1]:g}, grid size {problem.grid_size}"
    )
    started = time.perf_counter()
    try:
        ladder = solve()
    except (StepUnderflowError, DegenerateFrameError, FloatingPointError) as exc:
        (out_dir / "report.txt").write_text(f"solver failure: {exc}\n")
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    results = ladder.results
    chain = distance_chain_report(results, ladder.reference_distance)
    cauchy = None
    if len(results) > 1:
        cauchy = minimizer_cauchy_report(
            results, problem.unique_limit, problem.cauchy_rho1_tol
        )

    final = results[-1].path
    _write_results_csv(out_dir, problem, chain.records, final.dimension, wall)
    for res in results:
        _write_samples_csv(
            out_dir / _path_file_name(res.q), res.path.times, res.path.points, "x"
        )
    for name, values, prefix in ladder.tables:
        _write_samples_csv(out_dir / name, final.times, values, prefix)
    report_text = chain.format_text()
    if ladder.report:
        report_text += "\n" + ladder.report
    if cauchy is not None:
        report_text += "\n" + cauchy.format_text()
    (out_dir / "report.txt").write_text(report_text)

    for rec in chain.records:
        print(
            f"  q={rec.q:g}: energy={rec.energy:.12g} length={rec.length:.12g}"
            f" defect={rec.defect:.3e} iterations={rec.iterations}"
            f" converged={str(rec.converged).lower()}"
        )
    if ladder.summary is not None:
        print(ladder.summary)
    ok = (
        all(r.converged for r in results)
        and chain.energies_nondecreasing
        and chain.defects_nonincreasing
        and (cauchy is None or cauchy.passed is not False)
        and ladder.verdict(chain)
    )
    print(f"results written to {out_dir}")
    print(f"verdicts: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_solve(config_path: str, out: Optional[str]) -> int:
    spec = parse_config(config_path)
    problem = spec.problem
    if problem.has_drift:
        raise ConfigError(
            f"problem '{problem.name}' includes a drift field; use the drift-solve command"
        )

    def solve() -> _Ladder:
        results = continuation_solve(
            problem.structure,
            (problem.start, problem.end),
            spec.schedule,
            spec.solver,
            seed_deflection=problem.seed_deflection(),
        )
        return _Ladder(
            results=results,
            verdict=lambda chain: chain.lengths_nondecreasing
            and chain.lengths_within_reference is not False,
            reference_distance=problem.reference_distance,
        )

    return _run_ladder(config_path, out, spec, solve)


def _cmd_drift_solve(config_path: str, out: Optional[str]) -> int:
    spec = parse_config(config_path)
    problem = spec.problem
    if not problem.has_drift:
        raise ConfigError(
            f"problem '{problem.name}' has no drift field; use the solve command"
        )

    def solve() -> _Ladder:
        solution = solve_drift_problem(
            problem.structure,
            problem.drift,
            problem.start,
            problem.end,
            spec.schedule,
            spec.solver,
            seed_deflection=problem.seed_deflection(),
        )
        identity_ok = solution.cost_identity_gap <= IDENTITY_TOLERANCE * (
            1.0 + abs(solution.control_cost)
        )
        report = [
            "drift reduction",
            "=" * 15,
            "",
            f"control cost:                     {solution.control_cost:.17g}",
            f"lifted energy (q = 1):            {solution.lifted_energy:.17g}",
            f"cost identity |cost - (2E - 1)|:  {solution.cost_identity_gap:.6e}"
            f" ({'pass' if identity_ok else 'FAIL'})",
            f"control defect:                   {solution.control_defect:.6e}",
            f"endpoint mismatch:                {solution.endpoint_mismatch:.6e}",
            f"time rate deviation:              {solution.time_rate_deviation:.6e}"
            " (time coordinate pinned)",
            "",
        ]
        return _Ladder(
            results=solution.results,
            verdict=lambda chain: solution.success and identity_ok,
            tables=(
                ("controls.csv", solution.control_grid, "Y"),
                ("trajectory.csv", solution.trajectory, "x"),
            ),
            report="\n".join(report),
            summary=(
                f"control cost {solution.control_cost:.12g},"
                f" identity gap {solution.cost_identity_gap:.3e},"
                f" endpoint mismatch {solution.endpoint_mismatch:.3e}"
            ),
        )

    return _run_ladder(config_path, out, spec, solve)


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
    if problem.has_drift:
        structure = build_lifted_structure(problem.structure, problem.drift)
    else:
        structure = problem.structure

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
        bound = REDERIVE_TOLERANCE * (1.0 + abs(recomputed))
        status = "ok" if gap <= bound else "MISMATCH"
        print(f"q={q:g} {field_name}: stored={stored:.12g} recomputed={recomputed:.12g} [{status}]")
        if gap > bound:
            failures.append((q, field_name, gap))

    previous_path = None
    for index, row in enumerate(rows):
        q = number(index, "q")
        try:
            samples = np.loadtxt(root / _path_file_name(q), delimiter=",", skiprows=1, ndmin=2)
            path = DiscretePath.from_points(samples[:, 1:])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{root}: cannot read {_path_file_name(q)}: {exc}") from exc
        checks = [
            ("energy", energy(structure, q, path)),
            ("length", length(structure, q, path)),
            ("defect", horizontality_defect(structure, path)),
        ]
        for field_name, recomputed in checks:
            check(q, field_name, number(index, field_name), recomputed)
        for order, field_name in ((0, "rho0"), (1, "rho1")):
            if previous_path is None:
                if row.get(field_name) != "nan":
                    failures.append((q, field_name, float("nan")))
                    print(f"q={q:g} {field_name}: expected nan on the first row [MISMATCH]")
                continue
            recomputed = float(np.max(semimetric_rho(previous_path, path, order)))
            check(q, field_name, number(index, field_name), recomputed)
        previous_path = path

    if failures:
        print(f"diagnose: {len(failures)} mismatches found")
        return 1
    print(f"diagnose: all {len(rows)} rows re-derived within {REDERIVE_TOLERANCE:g}")
    return 0


def main(argv: Optional[list] = None) -> int:
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

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "list-problems":
            return _cmd_list_problems()
        if args.command == "solve":
            return _cmd_solve(args.config, args.out)
        if args.command == "drift-solve":
            return _cmd_drift_solve(args.config, args.out)
        if args.command == "diagnose":
            return _cmd_diagnose(args.results)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main_entry() -> None:
    sys.exit(main())
