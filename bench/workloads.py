"""The three benchmark workloads and their correctness gates.

Each workload builds its inputs when constructed and then runs whole units:
one penalty ladder, or one pass of five CLI runs.  ``key(unit)`` names the
input a unit runs on, ``prepare`` builds it outside the timed region,
``run`` is the timed call into pengeo, and ``check`` turns the output into
a :class:`UnitResult` outside the timed region.  A unit result holds its
operations (one per penalty rung and, for the CLI, one per command), the
correctness-gate violations, the iteration count, and a digest of its
outputs that lets the runner compare units bitwise.

The gates reuse the acceptance-test bounds unchanged.  A rung that ends
``converged=False``, a ladder that raises ``StepUnderflowError``, a nonzero
exit code and a gate violation each mark an operation failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pengeo import (
    SolverConfig,
    StepUnderflowError,
    continuation_solve,
    get_problem,
    solve_drift_problem,
    vertical_heisenberg_problem,
)
from pengeo.cli import main as cli_main

from tracer import Target

# Public callables whose spans feed the per-layer metrics.  The two ladder
# entry points are traced so that their own work is not counted as CLI time.
TRACE_TARGETS = (
    Target("pengeo.geometry", "penalized_forms", "geometry.penalized_forms", "points"),
    Target("pengeo.geometry", "penalized_gram", "geometry.penalized_gram", "points"),
    Target("pengeo.geometry", "MetricField.gram_batch", "geometry.gram_batch", "points"),
    Target("pengeo.geometry", "FrameField.frame_batch", "geometry.frame_batch", "points"),
    Target("pengeo.functionals", "energy", "functionals.energy"),
    Target("pengeo.optimizer", "energy_gradient", "optimizer.energy_gradient"),
    Target("pengeo.optimizer", "minimize_energy", "optimizer.minimize_energy"),
    Target("pengeo.optimizer", "continuation_solve", "optimizer.continuation_solve"),
    Target("pengeo.drift", "FlowMap.transport_batch", "drift.transport_batch", "times"),
    Target("pengeo.drift", "integrate_flow", "drift.integrate_flow"),
    Target("pengeo.drift", "solve_drift_problem", "drift.solve_drift_problem"),
    Target("pengeo.diagnostics", "distance_chain_report", "diagnostics.distance_chain_report"),
    Target("pengeo.diagnostics", "minimizer_cauchy_report", "diagnostics.minimizer_cauchy_report"),
)

# Bounds of acceptance criteria 03-06 (tests/test_acceptance.py), unchanged.
MONOTONE_SLACK = 1e-12
CHORD_LENGTH_TOL = 1e-4
CHORD_DEFECT_TOL = 1e-8
VERTICAL_LENGTH_BAND = (0.95, 1.01)
VERTICAL_DEFECT_TOL = 1e-3
GRAMIAN_COST = 12.0 / 13.0
GRAMIAN_REL_TOL = 0.01
IDENTITY_REL_TOL = 1e-6
# Default endpoint tolerance of solve_drift_problem.
ENDPOINT_TOL = 1e-6

CATALOGUE = (
    ("euclidean-n", "solve"),
    ("heisenberg", "solve"),
    ("martinet", "solve"),
    ("drift-constant-1d", "drift-solve"),
    ("drift-linear-2d", "drift-solve"),
)
CHORD_PRESETS = ("euclidean-n", "heisenberg", "martinet")


@dataclass
class UnitResult:
    ops: list = field(default_factory=list)  # [label, ok] per operation
    problems: list = field(default_factory=list)
    iterations: int = 0
    digest: str = ""
    files_written: int = 0
    bytes_written: int = 0

    def fail(self, index: int, message: str) -> None:
        self.ops[index][1] = False
        self.problems.append(message)


def _monotone_violations(energies) -> list:
    """Indices of rungs whose energy drops below the previous one (criterion 05)."""
    return [
        i + 1
        for i, (a, b) in enumerate(zip(energies, energies[1:]))
        if b < a - MONOTONE_SLACK * (1.0 + abs(a))
    ]


def _ladder_result(label: str, results, problems_fn) -> UnitResult:
    out = UnitResult(ops=[[f"{label} q={r.q:g}", bool(r.converged)] for r in results])
    out.iterations = sum(r.iterations for r in results)
    for i in _monotone_violations([r.energy for r in results]):
        out.fail(i, f"{label}: energy at q={results[i].q:g} below the previous rung")
    for i, message in problems_fn(results):
        out.fail(i, message)
    digest = hashlib.sha256()
    for r in results:
        digest.update(r.path.points.tobytes())
        digest.update(np.array(r.energy_history + (r.energy, r.length, r.defect)).tobytes())
    out.digest = digest.hexdigest()
    return out


def _underflow_result(label: str, rungs: int, exc: Exception) -> UnitResult:
    out = UnitResult(ops=[[f"{label} rung {j}", False] for j in range(rungs)])
    out.problems.append(f"{label}: {exc}")
    out.digest = "underflow"
    return out


class VerticalHeisenberg:
    """``vertical_heisenberg_problem(200)`` through ``continuation_solve``.

    Seed 0 runs the preset kick.  Other seeds rotate the kick about the z
    axis, a symmetry of the problem, by angles drawn from the seed, so a run
    averages over the roundoff-driven spread in iteration counts that
    different angles give.  Units 0 and 1 share the first angle, so that the
    runner's bitwise comparison of units on the same input always has a
    pair to compare; every later unit gets a new angle.
    """

    name = "vertical-heis"
    uses_seed = True

    def __init__(self, seed: int, workdir: Path):
        self.problem = vertical_heisenberg_problem(200)
        self.config = SolverConfig(grid_size=self.problem.grid_size)
        self.kick = self.problem.seed_deflection()
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.angles: list = []

    def angle(self, unit: int) -> float:
        if self.seed == 0:
            return 0.0
        index = max(unit - 1, 0)
        while len(self.angles) <= index:
            self.angles.append(float(self.rng.uniform(0.0, 2.0 * np.pi)))
        return self.angles[index]

    def _rotated_kick(self, theta: float) -> np.ndarray:
        if theta == 0.0:
            return self.kick
        c, s = np.cos(theta), np.sin(theta)
        out = self.kick.copy()
        out[:, 0] = c * self.kick[:, 0] - s * self.kick[:, 1]
        out[:, 1] = s * self.kick[:, 0] + c * self.kick[:, 1]
        return out

    def key(self, unit: int) -> float:
        return self.angle(unit)

    def prepare(self, unit: int):
        return self._rotated_kick(self.angle(unit))

    def run(self, kick, span):
        p = self.problem
        try:
            return continuation_solve(
                p.structure, (p.start, p.end), p.schedule, self.config, seed_deflection=kick
            )
        except StepUnderflowError as exc:
            return exc

    def check(self, output) -> UnitResult:
        rungs = self.problem.schedule.step_count
        if isinstance(output, StepUnderflowError):
            return _underflow_result(self.name, rungs, output)
        ref = self.problem.reference_distance
        low, high = VERTICAL_LENGTH_BAND

        def criterion_04(results):
            lengths = [r.length for r in results]
            for i in range(1, len(lengths)):
                if not lengths[i] > lengths[i - 1]:
                    yield i, f"length not increasing at q={results[i].q:g}"
            for i, value in enumerate(lengths):
                if value > high * ref:
                    yield i, f"length {value:.6f} above {high} of reference at q={results[i].q:g}"
            if lengths[-1] < low * ref:
                yield len(lengths) - 1, f"final length {lengths[-1]:.6f} below {low} of reference"
            if results[-1].defect > VERTICAL_DEFECT_TOL:
                yield len(lengths) - 1, f"final defect {results[-1].defect:.3e} above {VERTICAL_DEFECT_TOL:g}"

        return _ladder_result(self.name, output, criterion_04)


class HeisenbergDrift:
    """The ``heisenberg-drift`` preset through ``solve_drift_problem``; ignores the seed."""

    name = "drift-heis"
    uses_seed = False

    def __init__(self, seed: int, workdir: Path):
        self.problem = get_problem("heisenberg-drift")
        self.config = SolverConfig(grid_size=self.problem.grid_size)
        self.kick = self.problem.seed_deflection()

    def key(self, unit: int) -> int:
        return 0

    def prepare(self, unit: int):
        return self.kick

    def run(self, kick, span):
        p = self.problem
        try:
            return solve_drift_problem(
                p.structure,
                p.drift,
                p.start,
                p.end,
                p.schedule,
                self.config,
                integrator_steps=p.integrator_steps,
                seed_deflection=kick,
            )
        except StepUnderflowError as exc:
            return exc

    def check(self, output) -> UnitResult:
        rungs = self.problem.schedule.step_count
        if isinstance(output, StepUnderflowError):
            return _underflow_result(self.name, rungs, output)

        def drift_gates(results):
            last = len(results) - 1
            bound = IDENTITY_REL_TOL * (1.0 + abs(output.control_cost))
            if output.cost_identity_gap > bound:
                yield last, f"cost identity gap {output.cost_identity_gap:.3e} above {bound:.3e}"
            if output.endpoint_mismatch > ENDPOINT_TOL:
                yield last, f"endpoint mismatch {output.endpoint_mismatch:.3e} above {ENDPOINT_TOL:g}"

        out = _ladder_result(self.name, output.results, drift_gates)
        out.digest = hashlib.sha256(
            (out.digest + repr((output.control_cost, output.cost_identity_gap))).encode()
            + output.trajectory.tobytes()
        ).hexdigest()
        return out


_COST = re.compile(r"^control cost:\s+(\S+)", re.M)
_GAP = re.compile(r"^cost identity \|cost - \(2E - 1\)\|:\s+(\S+)", re.M)


class CatalogueCli:
    """Five light presets through ``pengeo.cli.main`` in process; ignores the seed.

    Each preset runs ``solve`` or ``drift-solve`` into a fresh directory and
    then ``diagnose`` on it.  Calling ``main`` in process keeps the workload
    independent of whether the ``pengeo`` console script is installed.
    """

    name = "catalogue-cli"
    uses_seed = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.configs = {}
        self.references = {}
        for preset, _ in CATALOGUE:
            path = workdir / f"{preset}.ini"
            path.write_text(f"[problem]\nname = {preset}\n")
            self.configs[preset] = path
            self.references[preset] = get_problem(preset).reference_distance
        self.passes = 0

    def key(self, unit: int) -> int:
        return 0

    def prepare(self, unit: int) -> Path:
        self.passes += 1
        out_root = self.workdir / f"pass{self.passes}"
        out_root.mkdir()
        return out_root

    def run(self, out_root: Path, span) -> tuple:
        codes = {}
        for preset, command in CATALOGUE:
            out_dir = str(out_root / preset)
            with contextlib.redirect_stdout(io.StringIO()):
                with span("cli.solve"):
                    solved = cli_main(
                        [command, "--config", str(self.configs[preset]), "--out", out_dir]
                    )
                with span("cli.diagnose"):
                    diagnosed = cli_main(["diagnose", "--results", out_dir])
            codes[preset] = (solved, diagnosed)
        return out_root, codes

    def check(self, output) -> UnitResult:
        out_root, codes = output
        unit = UnitResult()
        digest = hashlib.sha256()
        for preset, command in CATALOGUE:
            run_dir = out_root / preset
            solved, diagnosed = codes[preset]
            rows = _read_rows(run_dir / "results.csv")
            first = len(unit.ops)
            unit.ops.extend([f"{preset} q={row['q']}", row["converged"] == "true"] for row in rows)
            unit.ops.append([f"{preset} {command}", True])
            unit.ops.append([f"{preset} diagnose", True])
            solve_op, diagnose_op = len(unit.ops) - 2, len(unit.ops) - 1
            if solved != 0:
                unit.fail(solve_op, f"{preset}: {command} exited {solved}")
            if diagnosed != 0:
                unit.fail(diagnose_op, f"{preset}: diagnose exited {diagnosed}")
            if not rows:
                unit.fail(solve_op, f"{preset}: no rungs in results.csv")
                continue
            unit.iterations += sum(int(row["iterations"]) for row in rows)
            energies = [float(row["energy"]) for row in rows]
            for i in _monotone_violations(energies):
                unit.fail(first + i, f"{preset}: energy at q={rows[i]['q']} below the previous rung")
            if preset in CHORD_PRESETS:
                ref = self.references[preset]
                for i, row in enumerate(rows):
                    if abs(float(row["length"]) - ref) > CHORD_LENGTH_TOL:
                        unit.fail(first + i, f"{preset}: length {row['length']} off the chord {ref:.17g}")
                    if float(row["defect"]) > CHORD_DEFECT_TOL:
                        unit.fail(first + i, f"{preset}: defect {row['defect']} above {CHORD_DEFECT_TOL:g}")
            if preset == "drift-linear-2d":
                for message in _gramian_gate((run_dir / "report.txt").read_text()):
                    unit.fail(solve_op, f"{preset}: {message}")
        for path in sorted(out_root.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                unit.files_written += 1
                unit.bytes_written += len(data)
                digest.update(str(path.relative_to(out_root)).encode())
                # The recorded wall time is the one line that may differ.
                digest.update(re.sub(rb"(?m)^# wall_time_s:.*$", b"", data))
        unit.digest = digest.hexdigest()
        shutil.rmtree(out_root)
        return unit


def _read_rows(path: Path) -> list:
    if not path.is_file():
        return []
    lines = [ln for ln in path.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _gramian_gate(report: str) -> list:
    """Criterion 06: cost within 1 % of 12/13 and the cost identity at roundoff."""
    cost, gap = _COST.search(report), _GAP.search(report)
    if cost is None or gap is None:
        return ["report.txt lacks the control cost or the identity gap"]
    cost, gap = float(cost.group(1)), float(gap.group(1))
    problems = []
    if abs(cost - GRAMIAN_COST) > GRAMIAN_REL_TOL * GRAMIAN_COST:
        problems.append(f"control cost {cost:.12g} not within 1% of 12/13")
    if gap > IDENTITY_REL_TOL * (1.0 + abs(cost)):
        problems.append(f"cost identity gap {gap:.3e} above 1e-6 (1 + cost)")
    return problems


WORKLOADS = {w.name: w for w in (VerticalHeisenberg, HeisenbergDrift, CatalogueCli)}
