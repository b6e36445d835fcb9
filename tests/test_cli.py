from __future__ import annotations

import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pengeo.cli import OUTPUT_ROOT_ENV, ConfigError, main, parse_config

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_config(tmp_path: Path, body: str, name: str = "run.ini") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def _data_rows(csv_path: Path) -> list:
    lines = [
        line
        for line in csv_path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _non_comment_text(path: Path) -> str:
    return "\n".join(
        line for line in path.read_text().splitlines() if not line.startswith("#")
    )


def test_list_problems_prints_catalogue(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in (
        "euclidean-n",
        "heisenberg",
        "martinet",
        "drift-constant-1d",
        "drift-linear-2d",
        "heisenberg-drift",
    ):
        assert name in out
    assert "2 sqrt(pi z)" in out
    assert out.count("reference") >= 5


def test_solve_heisenberg_writes_full_results(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "verdicts: pass" in captured

    rows = _data_rows(out_dir / "results.csv")
    assert len(rows) == 5
    assert [float(r["q"]) for r in rows] == [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for row in rows:
        assert abs(float(row["length"]) - 1.0) <= 1e-4
        assert float(row["defect"]) <= 1e-8
        assert row["converged"] == "true"
    assert rows[0]["rho0"] == "nan" and rows[0]["rho1"] == "nan"
    assert float(rows[1]["rho1"]) <= 1e-6

    for q_label in ("1", "10", "100", "1000", "10000"):
        assert (out_dir / f"path_q{q_label}.csv").is_file()
    assert (out_dir / "config.ini").read_text() == config.read_text()
    report = (out_dir / "report.txt").read_text()
    assert "nondecreasing" in report


def test_solve_is_deterministic(tmp_path):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-3
        grid_size = 30
        """,
    )
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["solve", "--config", str(config), "--out", str(first)]) == 0
    assert main(["solve", "--config", str(config), "--out", str(second)]) == 0
    assert _non_comment_text(first / "results.csv") == _non_comment_text(
        second / "results.csv"
    )
    assert (first / "path_q100.csv").read_text() == (second / "path_q100.csv").read_text()


def test_solve_single_step_euclidean_energy(tmp_path):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-3
        grid_size = 20

        [schedule]
        q_start = 1
        ratio = 10
        step_count = 1
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    rows = _data_rows(out_dir / "results.csv")
    assert len(rows) == 1
    assert float(rows[0]["energy"]) == pytest.approx(1.5, rel=1e-10)


def test_solve_inline_structure_matches_preset(tmp_path):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = inline-contact
        start = 0, 0, 0
        end = 1, 0, 0
        grid_size = 40

        [structure]
        dimension = 3
        rank = 2
        metric = euclidean
        frame = (1, 0, -x2/2); (0, 1, x1/2)

        [schedule]
        step_count = 1
        """,
    )
    out_dir = tmp_path / "inline"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    rows = _data_rows(out_dir / "results.csv")
    assert float(rows[0]["energy"]) == pytest.approx(0.5, abs=1e-8)


def test_output_root_from_environment(tmp_path, monkeypatch):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-2
        grid_size = 10

        [schedule]
        step_count = 1
        """,
    )
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
    assert main(["solve", "--config", str(config)]) == 0
    assert (tmp_path / "envroot" / "euclidean-2" / "results.csv").is_file()


def test_output_root_from_config_section(tmp_path):
    config = _write_config(
        tmp_path,
        f"""
        [problem]
        name = euclidean-2
        grid_size = 10

        [schedule]
        step_count = 1

        [output]
        root = {tmp_path / "cfgroot"}
        """,
    )
    assert main(["solve", "--config", str(config)]) == 0
    assert (tmp_path / "cfgroot" / "euclidean-2" / "results.csv").is_file()


def test_malformed_configs_exit_2(tmp_path, capsys):
    cases = {
        "bad_start.ini": (
            """
            [problem]
            name = heisenberg
            start = 0, banana, 0
            """,
            "start",
        ),
        "unknown_key.ini": (
            """
            [problem]
            name = heisenberg
            colour = red
            """,
            "colour",
        ),
        "unknown_section.ini": (
            """
            [problem]
            name = heisenberg

            [paint]
            shade = blue
            """,
            "paint",
        ),
        "unknown_problem.ini": (
            """
            [problem]
            name = elliptic
            """,
            "elliptic",
        ),
        "missing_name.ini": (
            """
            [schedule]
            step_count = 2
            """,
            "name",
        ),
        "bad_grid.ini": (
            """
            [problem]
            name = heisenberg
            grid_size = 1
            """,
            "grid_size",
        ),
        # Removed keys fail like any other unknown key.
        "removed_quasi_newton.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            quasi_newton = false
            """,
            "quasi_newton",
        ),
        "removed_memory.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            memory = 10
            """,
            "memory",
        ),
        "removed_initial_step.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            initial_step = 1
            """,
            "initial_step",
        ),
        "removed_free_time.ini": (
            """
            [problem]
            name = heisenberg

            [drift]
            kind = zero
            free_time = yes
            """,
            "free_time",
        ),
        "removed_integrator_steps.ini": (
            """
            [problem]
            name = drift-constant-1d

            [drift]
            kind = constant
            vector = 1
            integrator_steps = 7
            """,
            "integrator_steps",
        ),
        "removed_gradient_tolerance.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            gradient_tolerance = 1e-6
            """,
            "gradient_tolerance",
        ),
        "removed_backtracking_ratio.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            backtracking_ratio = 0.5
            """,
            "backtracking_ratio",
        ),
        "removed_sufficient_decrease.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            sufficient_decrease = 1e-4
            """,
            "sufficient_decrease",
        ),
        # Constant frame entries that are not finite are malformed input.
        "infinite_frame_constant.ini": (
            """
            [structure]
            dimension = 2
            frame = (1, 0); (1, 1e400)

            [problem]
            start = 0, 0
            end = 3, 0
            """,
            "frame",
        ),
        "overflowing_frame_constant.ini": (
            """
            [structure]
            dimension = 2
            frame = (1, 0); (1, 9^9^9)

            [problem]
            start = 0, 0
            end = 3, 0
            """,
            "frame",
        ),
        # Every rung of the ladder must be a finite penalty.
        "nan_ratio.ini": (
            """
            [problem]
            name = heisenberg

            [schedule]
            ratio = nan
            """,
            "[schedule]",
        ),
        "infinite_ratio.ini": (
            """
            [problem]
            name = heisenberg

            [schedule]
            ratio = inf
            """,
            "[schedule]",
        ),
        "overflowing_ladder.ini": (
            """
            [problem]
            name = heisenberg

            [schedule]
            ratio = 1e200
            """,
            "[schedule]",
        ),
        # Every number a config gives must be finite.
        "infinite_drift_vector.ini": (
            """
            [problem]
            name = drift-constant-1d

            [drift]
            kind = constant
            vector = inf
            """,
            "vector",
        ),
        "nan_start.ini": (
            """
            [problem]
            name = heisenberg
            start = 0, 0, nan
            """,
            "start",
        ),
        "nan_seed_amplitude.ini": (
            """
            [problem]
            name = heisenberg
            seed_amplitude = nan
            """,
            "seed_amplitude",
        ),
        "nan_drift_matrix.ini": (
            """
            [problem]
            name = drift-linear-2d

            [drift]
            kind = linear
            matrix = nan, 1; 0, 0
            """,
            "matrix",
        ),
        "nan_cauchy_tolerance.ini": (
            """
            [problem]
            name = heisenberg
            cauchy_rho1_tol = nan
            """,
            "cauchy_rho1_tol",
        ),
    }
    for filename, (body, needle) in cases.items():
        config = _write_config(tmp_path, body, name=filename)
        assert main(["solve", "--config", str(config)]) == 2, filename
        err = capsys.readouterr().err
        assert "config error" in err
        assert needle in err, filename


def test_solve_refuses_drift_problem(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = drift-constant-1d
        """,
    )
    assert main(["solve", "--config", str(config)]) == 2
    assert "drift-solve" in capsys.readouterr().err


def test_drift_solve_refuses_plain_problem(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        """,
    )
    assert main(["drift-solve", "--config", str(config)]) == 2
    assert "solve" in capsys.readouterr().err


def test_drift_solve_constant_1d(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = drift-constant-1d
        """,
    )
    out_dir = tmp_path / "drift"
    assert main(["drift-solve", "--config", str(config), "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "control cost 1" in printed
    assert "verdicts: pass" in printed

    controls = _data_rows(out_dir / "controls.csv")
    assert all(abs(float(row["Y1"]) + 1.0) <= 1e-6 for row in controls)
    trajectory = _data_rows(out_dir / "trajectory.csv")
    assert all(abs(float(row["x1"])) <= 1e-9 for row in trajectory)
    report = (out_dir / "report.txt").read_text()
    assert "cost identity" in report
    assert "(pass)" in report
    assert "time coordinate pinned" in report
    rows = _data_rows(out_dir / "results.csv")
    assert len(rows) == 5


def test_drift_solve_inline_drift_override(tmp_path):
    # zero drift over euclidean-2 behaves like the base geodesic problem
    # shifted by the time coordinate's energy contribution of 1/2.
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-2
        grid_size = 20

        [drift]
        kind = zero

        [schedule]
        step_count = 2
        """,
    )
    out_dir = tmp_path / "lifted"
    assert main(["drift-solve", "--config", str(config), "--out", str(out_dir)]) == 0
    rows = _data_rows(out_dir / "results.csv")
    assert float(rows[-1]["energy"]) == pytest.approx(1.0 + 0.5, rel=1e-8)


def test_solve_degenerate_frame_is_a_solver_failure(tmp_path, capsys):
    # A frame that collapses, or whose entries or Gram matrix overflow, along
    # the path; a numpy warning on the way fails the test (pyproject filter).
    cases = [
        ("(1, 0); (0, x1)", "0, 1"),
        ("(1, 0); (1, x1^400)", "3, 0"),
        ("(1, 0); (1, x1^1000)", "3, 0"),
    ]
    for index, (frame, end) in enumerate(cases):
        config = _write_config(
            tmp_path,
            f"""
            [structure]
            dimension = 2
            frame = {frame}

            [problem]
            start = 0, 0
            end = {end}
            """,
            name=f"run{index}.ini",
        )
        out_dir = tmp_path / f"run{index}"
        assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 1, frame
        report = (out_dir / "report.txt").read_text()
        assert report.startswith("solver failure:"), frame
        assert "degenerate" in report, frame
        assert capsys.readouterr().err.startswith("solver failure:"), frame


@pytest.mark.parametrize("schedule", ["ratio = 1e200", "q_start = 1e300"])
def test_solve_singular_velocity_hessian_is_a_solver_failure(tmp_path, capsys, schedule):
    # Representable penalties so large that q G + (1 - q) G P loses its
    # horizontal block to rounding leave H0 singular in floating point.
    config = _write_config(
        tmp_path,
        f"""
        [problem]
        name = heisenberg
        grid_size = 20

        [schedule]
        {schedule}
        step_count = 2
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 1
    report = (out_dir / "report.txt").read_text()
    assert report.startswith("solver failure:")
    assert "singular" in report
    assert capsys.readouterr().err.startswith("solver failure:")


def test_drift_solve_diverging_flow_is_a_solver_failure(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = drift-linear-2d

        [drift]
        kind = linear
        matrix = 1e6, 0; 0, 1e6
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["drift-solve", "--config", str(config), "--out", str(out_dir)]) == 1
    report = (out_dir / "report.txt").read_text()
    assert report.startswith("solver failure:")
    assert "diverged" in report
    assert capsys.readouterr().err.startswith("solver failure:")


def test_diagnose_reports_a_solver_failure_directory(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = drift-linear-2d

        [drift]
        kind = linear
        matrix = 1e6, 0; 0, 1e6
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["drift-solve", "--config", str(config), "--out", str(out_dir)]) == 1
    assert not (out_dir / "results.csv").exists()
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure:")
    assert "diverged" in err
    assert "config error" not in err


def test_diagnose_round_trip_solve(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        grid_size = 40
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "MISMATCH" not in printed
    assert "all 5 rows re-derived" in printed


def test_diagnose_round_trip_drift(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = drift-constant-1d
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["drift-solve", "--config", str(config), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_diagnose_detects_tampering(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-2
        grid_size = 10

        [schedule]
        step_count = 2
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    results = out_dir / "results.csv"
    lines = results.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("q,"))
    row = lines[header_idx + 1].split(",")
    row[1] = "2.5"
    lines[header_idx + 1] = ",".join(row)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_diagnose_requires_results_directory(tmp_path, capsys):
    assert main(["diagnose", "--results", str(tmp_path)]) == 2
    assert "missing config.ini" in capsys.readouterr().err
    (tmp_path / "config.ini").write_text("[problem]\nname = heisenberg\n")
    assert main(["diagnose", "--results", str(tmp_path)]) == 2
    assert "missing results.csv" in capsys.readouterr().err


def _solved_euclidean_run(tmp_path: Path) -> Path:
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = euclidean-2
        grid_size = 10

        [schedule]
        step_count = 3
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    return out_dir


def test_diagnose_missing_path_file_is_a_config_error(tmp_path, capsys):
    out_dir = _solved_euclidean_run(tmp_path)
    (out_dir / "path_q100.csv").unlink()
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(out_dir) in err
    assert "path_q100.csv" in err


def test_diagnose_comment_only_results_is_a_config_error(tmp_path, capsys):
    out_dir = _solved_euclidean_run(tmp_path)
    results = out_dir / "results.csv"
    comments = [line for line in results.read_text().splitlines() if line.startswith("#")]
    results.write_text("\n".join(comments) + "\n")
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(out_dir) in err
    assert "results.csv" in err


def test_diagnose_non_numeric_field_is_a_config_error(tmp_path, capsys):
    out_dir = _solved_euclidean_run(tmp_path)
    results = out_dir / "results.csv"
    lines = results.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("q,"))
    row = lines[header_idx + 2].split(",")
    row[2] = "banana"
    lines[header_idx + 2] = ",".join(row)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert str(out_dir) in err
    assert "results.csv row 2 column 'length'" in err
    assert "banana" in err


def test_readme_ini_examples_parse(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no ini examples"
    for index, block in enumerate(blocks):
        config = tmp_path / f"readme_{index}.ini"
        config.write_text(block)
        parse_config(config)


def test_parse_config_roundtrip_values(tmp_path):
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        end = 0, 0, 0.5
        grid_size = 24
        unique_limit = false
        seed_amplitude = 0.07

        [schedule]
        q_start = 2
        ratio = 5
        step_count = 3

        [solver]
        max_iterations = 123

        [drift]
        kind = constant
        vector = 0.1, 0, 0
        """,
    )
    spec = parse_config(config)
    assert spec.problem.grid_size == 24
    np.testing.assert_array_equal(spec.problem.end, [0.0, 0.0, 0.5])
    assert not spec.problem.unique_limit
    assert spec.problem.seed_amplitude == 0.07
    np.testing.assert_allclose(spec.schedule.q_values(), [2.0, 10.0, 50.0])
    assert spec.solver.max_iterations == 123
    assert spec.solver.grid_size == 24
    assert spec.problem.has_drift
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.ini")


def _pengeo_distribution_installed() -> bool:
    try:
        importlib.metadata.distribution("pengeo")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_is_installed(tmp_path):
    """The `[project.scripts]` entry gives a `pengeo` command that lists the
    catalogue and hands back `main`'s exit code.

    Runs without an install: the launcher a console-script installer would
    write is written into a temporary `bin/` and found on that path.
    """
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    scripts = project.get("scripts", {})
    assert "pengeo" in scripts
    entry = importlib.metadata.EntryPoint(
        name="pengeo", value=scripts["pengeo"], group="console_scripts"
    )
    assert entry.module and entry.attr

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "pengeo"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)
    exe = shutil.which("pengeo", path=str(bin_dir))
    assert exe is not None

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    def run(*args):
        return subprocess.run(
            [exe, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )

    proc = run("list-problems")
    assert proc.returncode == 0, proc.stderr
    assert "heisenberg" in proc.stdout
    proc = run("no-such-command")
    assert proc.returncode == 2, proc.stderr


@pytest.mark.skipif(
    not _pengeo_distribution_installed(), reason="the pengeo distribution is not installed"
)
def test_installed_console_script_runs():
    exe = shutil.which("pengeo")
    assert exe is not None
    proc = subprocess.run(
        [exe, "list-problems"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "heisenberg" in proc.stdout
