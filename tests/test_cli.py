from __future__ import annotations

import argparse
import importlib.metadata
import logging
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pengeo import (
    DiscretePath,
    SolverConfig,
    cli,
    energy,
    energy_gradient,
    functionals,
    geometry,
    length,
    minimize_energy,
    pointwise_affine_check,
    recovery_sequence_check,
)
from pengeo.cli import (
    OUTPUT_ROOT_ENV,
    ConfigError,
    _path_file_name,
    _write_samples_csv,
    main,
    parse_config,
)
from pengeo.problems import get_problem, problem_names
from conftest import nan_hessian, stalled_line_search

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
    # The rank is the column count of the frame read at the problem's start.
    for name, dimension, rank in (
        ("euclidean-n", 3, 3),
        ("heisenberg", 3, 2),
        ("martinet", 3, 2),
        ("drift-constant-1d", 1, 1),
        ("drift-linear-2d", 2, 2),
        ("heisenberg-drift", 3, 2),
    ):
        assert f"\n{name}\n  dimension {dimension}, rank {rank}, drift: " in out


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
        frame = (1, 0, -x2/2); (0, 1, x1/2)

        [schedule]
        step_count = 1
        """,
    )
    out_dir = tmp_path / "inline"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    rows = _data_rows(out_dir / "results.csv")
    assert float(rows[0]["energy"]) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize(
    "frame",
    [
        "(1, 0, -x2/2); (0, 1, 0.5*(x1))",
        "((1)*1, 0, -x2/2); (0, 1, x1/2)",
        "(1)+0, 0, -x2/2; 0, 1, 0.5*(x1)",
        "(1, 0, -x2/2); (0, 1, " + "-" * 300 + "x1/2)",
    ],
    ids=[
        "entry-ending-in-paren",
        "entry-starting-with-paren",
        "no-enclosing-parens",
        "300-unary-minuses",
    ],
)
def test_inline_frame_entries_keep_their_own_parentheses(tmp_path, frame):
    # Only a pair of parentheses that encloses a whole column is stripped, so
    # each spelling is the contact frame (1, 0, -x2/2); (0, 1, x1/2), bitwise;
    # 300 unary minuses are exact negations, nested within what the parser
    # and the evaluator can recurse.
    tables = []
    for name, text in (("reference", "(1, 0, -x2/2); (0, 1, x1/2)"), ("spelled", frame)):
        config = _write_config(
            tmp_path,
            f"""
            [problem]
            start = 0, 0, 0
            end = 1, 0.5, 0.2
            grid_size = 20

            [structure]
            dimension = 3
            frame = {text}

            [schedule]
            step_count = 2
            """,
            name=f"{name}.ini",
        )
        out_dir = tmp_path / name
        assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
        tables.append(_non_comment_text(out_dir / "results.csv"))
    assert tables[1] == tables[0]


@pytest.mark.parametrize(
    "entry", ["-" * 600 + "x1", "1+" * 3000 + "x1"], ids=["600-minuses", "3000-terms"]
)
def test_deeply_nested_frame_entry_is_a_config_error(tmp_path, capsys, entry):
    # 600 unary minuses overflow the evaluator's probe and 3,000 terms overflow
    # the parser; both are config errors naming the key and the entry.
    config = _write_config(
        tmp_path,
        f"""
        [problem]
        start = 0, 0, 0
        end = 1, 0, 0

        [structure]
        dimension = 3
        frame = (1, 0, -x2/2); (0, 1, {entry})
        """,
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: key 'frame': entry {entry!r} is nested too deeply\n"
    assert not (tmp_path / "run").exists()


def test_frame_entry_that_overflows_when_evaluated_is_a_config_error():
    # An entry that passes the probe can still overflow where the stack is
    # deeper, inside a solve; that too is a config error, not a traceback.
    entry = cli._compile_polynomial("-" * 300 + "x1", 3, "frame")

    def deep(depth):
        return deep(depth - 1) if depth else entry(np.zeros((1, 3)))

    with pytest.raises(ConfigError, match="^key 'frame': entry '-+x1' is nested too deeply$"):
        deep(sys.getrecursionlimit() - 400)


def test_unbalanced_inline_frame_column_is_a_config_error(tmp_path, capsys):
    # A column whose parentheses do not pair up is left as it is, and its
    # first entry does not parse.
    config = _write_config(
        tmp_path,
        """
        [problem]
        start = 0, 0, 0
        end = 1, 0, 0

        [structure]
        dimension = 3
        frame = (1, 0, -x2/2); (0, 1, 0.5*(x1)
        """,
    )
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "config error: key 'frame': cannot parse entry '(0'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_cauchy_tolerance_is_a_config_error(tmp_path, capsys):
    # A ladder's largest rho1 is never below a negative threshold, so such a
    # run could only fail its Cauchy verdict; it stops before solving.
    config = _write_config(tmp_path, "[problem]\nname = heisenberg\ncauchy_rho1_tol = -1\n")
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert "config error: key 'cauchy_rho1_tol' must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    # As in `pengeo list-problems | head -0`: the reader has gone before the
    # first write, and the run ends with exit code 1 and nothing on stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "pengeo", "list-problems"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err.decode()
    assert err == b""


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
        "removed_metric.ini": (
            """
            [structure]
            dimension = 2
            metric = euclidean
            frame = (1, 0); (0, 1)

            [problem]
            start = 0, 0
            end = 1, 0
            """,
            "metric",
        ),
        "removed_rank.ini": (
            """
            [structure]
            dimension = 2
            rank = 2
            frame = (1, 0); (0, 1)

            [problem]
            start = 0, 0
            end = 1, 0
            """,
            "rank",
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
        # Malformed integers and booleans name their key and section.
        "fractional_iterations.ini": (
            """
            [problem]
            name = heisenberg

            [solver]
            max_iterations = 2.5
            """,
            "key 'max_iterations' in [solver] is not an integer",
        ),
        "non_boolean_unique_limit.ini": (
            """
            [problem]
            name = heisenberg
            unique_limit = maybe
            """,
            "key 'unique_limit' in [problem] is not a boolean",
        ),
        # A file the INI reader rejects is malformed input too.
        "duplicate_key.ini": (
            """
            [problem]
            name = heisenberg
            name = martinet
            """,
            "option 'name' in section 'problem' already exists",
        ),
        "duplicate_section.ini": (
            """
            [problem]
            name = heisenberg

            [problem]
            grid_size = 20
            """,
            "section 'problem' already exists",
        ),
        "missing_section_header.ini": (
            """
            name = heisenberg
            """,
            "no section headers",
        ),
        "zero_reference_distance.ini": (
            """
            [problem]
            name = heisenberg
            reference_distance = 0
            """,
            "key 'reference_distance' must be positive",
        ),
        "word_reference_distance.ini": (
            """
            [problem]
            name = heisenberg
            reference_distance = far
            """,
            "key 'reference_distance' in [problem] is not a number: 'far'",
        ),
        # A drift run reports no reference distance, so it may not set one.
        "drift_reference_distance.ini": (
            """
            [problem]
            name = drift-constant-1d
            reference_distance = 0.01
            """,
            "key 'reference_distance' does not apply to a problem with a drift field",
        ),
        # The rank is the frame's column count, at most the dimension.
        "too_many_frame_columns.ini": (
            """
            [structure]
            dimension = 2
            frame = (1, 0); (0, 1); (1, 1)

            [problem]
            start = 0, 0
            end = 1, 0
            """,
            "key 'frame' has 3 columns, more than the dimension 2",
        ),
        "word_dimension.ini": (
            """
            [structure]
            dimension = three
            frame = (1, 0); (0, 1)

            [problem]
            start = 0, 0
            end = 1, 0
            """,
            "key 'dimension' in [structure] is not an integer: 'three'",
        ),
        # A % is an ordinary character, not the start of an interpolation.
        "percent_in_value.ini": (
            """
            [problem]
            name = heisen%berg
            """,
            "unknown problem 'heisen%berg'",
        ),
    }
    for filename, (body, needle) in cases.items():
        config = _write_config(tmp_path, body, name=filename)
        assert main(["solve", "--config", str(config)]) == 2, filename
        err = capsys.readouterr().err
        assert "config error" in err
        assert needle in err, filename
        # diagnose reads a results directory's copy of the config alike.
        results = _results_dir_with_config(tmp_path / Path(filename).stem, config.read_bytes())
        assert main(["diagnose", "--results", str(results)]) == 2, filename
        assert needle in capsys.readouterr().err, filename


def _results_dir_with_config(directory: Path, config: bytes) -> Path:
    """A results directory holding ``config`` as its config.ini and an empty results.csv."""
    directory.mkdir()
    (directory / "config.ini").write_bytes(config)
    (directory / "results.csv").write_text("")
    return directory


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # Bytes that do not decode as UTF-8 are a config error in solve and in
    # diagnose, not a decoding traceback.
    config = tmp_path / "latin1.ini"
    config.write_bytes("[problem]\nname = heisenberg\n# caf\xe9\n".encode("latin-1"))
    assert main(["solve", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "utf-8" in err
    results = _results_dir_with_config(tmp_path / "results", config.read_bytes())
    assert main(["diagnose", "--results", str(results)]) == 2
    assert "config error" in capsys.readouterr().err


def test_rerun_into_the_config_directory(tmp_path, capsys):
    # A results directory's own config.ini can be solved again into that
    # directory: the copy onto itself is skipped, and the run re-derives.
    config = _write_config(tmp_path, "[problem]\nname = heisenberg\ngrid_size = 20\n")
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    own = out_dir / "config.ini"
    assert main(["solve", "--config", str(own), "--out", str(out_dir)]) == 0
    assert own.read_text() == config.read_text()
    assert main(["diagnose", "--results", str(out_dir)]) == 0


@pytest.mark.parametrize("command, name", [("solve", "heisenberg"), ("drift-solve", "heisenberg-drift")])
@pytest.mark.parametrize("spelling", ["--out", "root"])
def test_unwritable_output_directory_is_a_config_error(tmp_path, capsys, command, name, spelling):
    # An output directory that is an existing file, or lies under one, cannot
    # be made: the run stops before any solve and names the directory.
    afile = tmp_path / "afile"
    afile.write_text("")
    body = f"[problem]\nname = {name}\n"
    if spelling == "--out":
        argv, target = ["--out", str(afile)], afile
    else:
        body += f"\n[output]\nroot = {afile}\n"
        argv, target = [], afile / name
    config = _write_config(tmp_path, body)
    assert main([command, "--config", str(config)] + argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: cannot write results to {target}: ")
    assert "Traceback" not in err
    assert out == ""
    assert afile.read_text() == ""


def test_rungs_whose_q_agree_to_six_digits_get_their_own_path_files(tmp_path, capsys):
    # Path files name q with 17 significant digits, as the tables do, so two
    # rungs a ratio of 1 + 1e-6 apart write two files and diagnose reads each
    # rung's own path back.
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        grid_size = 50
        start = 0, 0, 0
        end = 0, 0, 0.0796
        seed_amplitude = 0.05
        unique_limit = false

        [schedule]
        ratio = 1.000001
        step_count = 2
        """,
    )
    out_dir = tmp_path / "run"
    main(["solve", "--config", str(config), "--out", str(out_dir)])
    names = sorted(path.name for path in out_dir.glob("path_q*.csv"))
    assert names == ["path_q1.0000009999999999.csv", "path_q1.csv"]
    # The header and the per-rung stdout lines tell the two rungs apart as well.
    out = capsys.readouterr().out
    assert "2 penalty steps, q from 1 to 1.0000009999999999, grid size 50" in out
    printed = re.findall(r"^  q=(\S+): energy=", out, flags=re.MULTILINE)
    assert printed == ["1", "1.0000009999999999"]
    # So do both tables of report.txt: the rung rows and the Cauchy row.
    report = (out_dir / "report.txt").read_text()
    assert re.findall(r"^ *(1\S*) +\S+e[+-]\d+ ", report, flags=re.MULTILINE) == ["1", "1.0000009999999999"]
    assert re.search(r"^ +1 1\.0000009999999999 ", report, flags=re.MULTILINE)
    assert main(["diagnose", "--results", str(out_dir)]) == 0
    printed = re.findall(r"^q=(\S+) energy:", capsys.readouterr().out, flags=re.MULTILINE)
    assert printed == ["1", "1.0000009999999999"]


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


def test_solve_non_finite_newton_direction_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # A Hessian with NaN blocks factors without raising; the non-finite
    # direction it gives ends the run as a solver failure, not a traceback.
    nan_hessian(monkeypatch)
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        grid_size = 20
        end = 1, 0.5, 0.3
        """,
    )
    out_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 1
    report = (out_dir / "report.txt").read_text()
    assert report.startswith("solver failure:")
    assert "Newton direction is not finite" in report
    assert capsys.readouterr().err.startswith("solver failure:")


def test_solve_line_search_underflow_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # A line search that backtracks below its floor ends the run, and
    # diagnose on its directory, as a solver failure.
    stalled_line_search(monkeypatch)
    config = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg
        grid_size = 20
        end = 1, 0.5, 0.3

        [schedule]
        q_start = 1.0000009999999999
        """,
    )
    out_dir = tmp_path / "run"
    # The message names q with 17 significant digits, so this rung does not
    # read as q = 1.
    stalled = "solver failure: line search stalled at q=1.0000009999999999 after 0 iterations"
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 1
    assert (out_dir / "report.txt").read_text().startswith(stalled)
    assert capsys.readouterr().err.startswith(stalled)
    assert main(["diagnose", "--results", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(stalled)


_VERTICAL_CONFIG = """
    [problem]
    name = heisenberg
    grid_size = 200
    start = 0, 0, 0
    end = 0, 0, 0.0796
    seed_amplitude = 0.05
    unique_limit = false
    """


@pytest.mark.parametrize(
    "command, body",
    [("solve", _VERTICAL_CONFIG), ("drift-solve", "[problem]\nname = heisenberg-drift\n")],
    ids=["vertical", "heisenberg-drift"],
)
def test_iteration_cap_fails_the_run(tmp_path, caplog, command, body):
    # One iteration per rung is too few for the vertical run and for
    # heisenberg-drift: the run still writes its results, with the capped
    # rungs marked unconverged, logs the cap and fails its verdicts.
    config = _write_config(tmp_path, body + "\n[solver]\nmax_iterations = 1\n")
    out_dir = tmp_path / "run"
    with caplog.at_level(logging.WARNING, logger="pengeo"):
        assert main([command, "--config", str(config), "--out", str(out_dir)]) == 1
    converged = [row["converged"] for row in _data_rows(out_dir / "results.csv")]
    assert "false" in converged and set(converged) <= {"true", "false"}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("hit the iteration cap" in w for w in warnings)


def test_iteration_cap_warning_names_q_exactly(tmp_path, caplog):
    # Two capped rungs a ratio of 1 + 1e-6 apart warn with their own q.
    config = _write_config(
        tmp_path,
        _VERTICAL_CONFIG
        + "\n[schedule]\nq_start = 1000\nratio = 1.000001\nstep_count = 2\n"
        + "\n[solver]\nmax_iterations = 1\n",
    )
    with caplog.at_level(logging.WARNING, logger="pengeo"):
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    capped = [
        re.match(r"penalty step q=(\S+) on heisenberg hit the iteration cap", r.getMessage())
        for r in caplog.records
    ]
    assert [m.group(1) for m in capped if m] == ["1000", "1000.0009999999999"]


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


def _round_trip(tmp_path, capsys, monkeypatch, name: str, command: str) -> None:
    config = _write_config(tmp_path, f"[problem]\nname = {name}\n")
    out_dir = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    factored = []
    original = geometry._factor_frame

    def counted(structure, points, times=None):
        factored.append(points.shape[0])
        return original(structure, points, times)

    monkeypatch.setattr(geometry, "_factor_frame", counted)
    monkeypatch.setattr(functionals, "_factor_frame", counted)
    assert main(["diagnose", "--results", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    rows = _data_rows(out_dir / "results.csv")
    # One evaluation per distinct stored path gives its energy, length and
    # defect; a row storing the previous row's path re-forms its evaluation.
    paths = [(out_dir / _path_file_name(float(row["q"]))).read_text() for row in rows]
    assert len(factored) == len(set(paths))
    rows = len(rows)
    assert "MISMATCH" not in printed
    assert f"all {rows} rows re-derived" in printed


@pytest.mark.parametrize("name", [n for n in problem_names() if not get_problem(n).has_drift])
def test_diagnose_round_trip_solve(tmp_path, capsys, monkeypatch, name):
    _round_trip(tmp_path, capsys, monkeypatch, name, "solve")


@pytest.mark.parametrize("name", [n for n in problem_names() if get_problem(n).has_drift])
def test_diagnose_round_trip_drift(tmp_path, capsys, monkeypatch, name):
    _round_trip(tmp_path, capsys, monkeypatch, name, "drift-solve")


def _set_field(row: int, column: int, text: str):
    def tamper(lines: list) -> None:
        fields = lines[row].split(",")
        fields[column] = text
        lines[row] = ",".join(fields)

    return tamper


def _drop_last_column(lines: list) -> None:
    lines[:] = [line.rpartition(",")[0] for line in lines]


_HEISENBERG_TWO_RUNGS = "[problem]\nname = heisenberg\ngrid_size = 10\n[schedule]\nstep_count = 2\n"


@pytest.mark.parametrize(
    "command, body, file_name, tamper, failed_line",
    [
        # An overflowing coordinate leaves F^T G F non-finite at a midpoint.
        (
            "solve",
            _HEISENBERG_TWO_RUNGS,
            "path_q1.csv",
            _set_field(3, 1, "1e200"),
            "q=1 re-derivation failed: frame is degenerate: its Gram matrix F^T G F is not finite",
        ),
        # A lifted path whose s coordinate leaves [0, 1] has no flow to read.
        (
            "drift-solve",
            "[problem]\nname = drift-constant-1d\n",
            "path_q10.csv",
            _set_field(3, -1, "3.0"),
            "q=10 re-derivation failed: flow times must lie in [0, 1]",
        ),
        # A path with a grid point removed cannot be compared with its neighbour.
        (
            "solve",
            _HEISENBERG_TWO_RUNGS,
            "path_q10.csv",
            lambda lines: lines.pop(4),
            "q=10 rho0: re-derivation failed: paths must share grid size",
        ),
        # A path with a column dropped names the width its command writes:
        # n for solve, n + 1 for the lifted paths of drift-solve.
        (
            "solve",
            _HEISENBERG_TWO_RUNGS,
            "path_q10.csv",
            _drop_last_column,
            "q=10 re-derivation failed: path width is 2, expected 3",
        ),
        (
            "drift-solve",
            "[problem]\nname = drift-constant-1d\n",
            "path_q10.csv",
            _drop_last_column,
            "q=10 re-derivation failed: path width is 1, expected 2",
        ),
    ],
    ids=["degenerate-frame", "flow-time", "grid-size", "path-width-solve", "path-width-drift"],
)
def test_diagnose_rederivation_failure_is_a_mismatch(
    tmp_path, capsys, command, body, file_name, tamper, failed_line
):
    config = _write_config(tmp_path, body)
    out_dir = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out_dir)]) == 0
    path_file = out_dir / file_name
    lines = path_file.read_text().splitlines()
    tamper(lines)
    path_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert any(line.startswith(failed_line) and line.endswith(" [MISMATCH]") for line in printed)
    # Every MISMATCH line is counted, and an infinite rho never passes.
    mismatches = sum(line.endswith("[MISMATCH]") for line in printed)
    assert printed[-1] == f"diagnose: {mismatches} mismatches found"
    assert not any("recomputed=inf [ok]" in line for line in printed)


def test_samples_csv_matches_savetxt_and_reads_back_bitwise(tmp_path):
    edges = np.array([-0.0, 2.0**-1074, 1e-310, 1e300, 1e16, 1.0 / 3.0, np.pi])
    values = np.column_stack([edges[::-1], -edges])
    written = tmp_path / "written.csv"
    _write_samples_csv(written, edges, values, "x")
    reference = tmp_path / "reference.csv"
    table = np.column_stack([edges, values])
    np.savetxt(reference, table, fmt="%.17g", delimiter=",", header="t,x1,x2", comments="")
    assert written.read_bytes() == reference.read_bytes()
    read = np.loadtxt(written, delimiter=",", skiprows=1, ndmin=2)
    assert read.tobytes() == table.tobytes()


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


def test_penalty_is_checked_by_every_reader(tmp_path, capsys, heisenberg):
    # A path's evaluation holds no q, so every reader that takes one checks
    # it, and diagnose reports a stored q below 1 as a row it cannot re-derive.
    path = DiscretePath.chord(np.zeros(3), np.array([1.0, 0.0, 0.0]), 10)
    readers = {
        "energy": lambda q: energy(heisenberg, q, path),
        "length": lambda q: length(heisenberg, q, path),
        "energy_gradient": lambda q: energy_gradient(heisenberg, q, path),
        "minimize_energy": lambda q: minimize_energy(heisenberg, q, path, SolverConfig(grid_size=10)),
        "pointwise_affine_check": lambda q: pointwise_affine_check(heisenberg, path, [1.0, 2.0, q]),
        "recovery_sequence_check": lambda q: recovery_sequence_check(heisenberg, path, [1.0, q]),
    }
    for q in (0.5, float("inf")):
        for name, read in readers.items():
            with pytest.raises(ValueError, match="penalty parameter must be a finite real >= 1"):
                read(q)
                pytest.fail(f"{name} accepted q={q}")

    out_dir = _solved_euclidean_run(tmp_path)
    results = out_dir / "results.csv"
    lines = results.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("q,"))
    row = lines[header_idx + 1].split(",")
    assert row[0] == "1"
    row[0] = "0.5"
    lines[header_idx + 1] = ",".join(row)
    results.write_text("\n".join(lines) + "\n")
    (out_dir / _path_file_name(1.0)).rename(out_dir / _path_file_name(0.5))
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 1
    out = capsys.readouterr().out
    expected = "q=0.5 re-derivation failed: penalty parameter must be a finite real >= 1, got 0.5 [MISMATCH]"
    assert expected in out.splitlines()


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


@pytest.mark.parametrize("name", ["report.txt", "results.csv"])
def test_diagnose_run_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, name):
    # Run files are UTF-8; other bytes are a config error that names the
    # file, as for a path file, not a decoding traceback.
    out_dir = _solved_euclidean_run(tmp_path)
    path = out_dir / name
    path.write_bytes(path.read_bytes() + "# caf\xe9\n".encode("latin-1"))
    capsys.readouterr()
    assert main(["diagnose", "--results", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out_dir}: cannot read {name}: ")
    assert "utf-8" in err


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


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    cli._parser.cache_clear()
    progs = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    config = _write_config(tmp_path, "[problem]\nname = euclidean-n\n")
    out_dir = tmp_path / "run"
    assert main(["list-problems"]) == 0
    assert main(["solve", "--config", str(config), "--out", str(out_dir)]) == 0
    assert main(["diagnose", "--results", str(out_dir)]) == 0
    # One build: the top-level parser and one parser per command.
    assert progs == [
        "pengeo",
        "pengeo list-problems",
        "pengeo solve",
        "pengeo drift-solve",
        "pengeo diagnose",
    ]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def recorded(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = recorded\n"
        "import pengeo.cli\n"
        "print(built)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv", [[], ["solve"], ["bogus"]], ids=["no-command", "no-config", "unknown-command"]
)
def test_usage_errors_exit_2_alike_on_every_call(capsys, argv):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("usage: pengeo")
    assert errors[1] == errors[0]


def test_solve_runs_after_help(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pengeo")
    config = _write_config(tmp_path, "[problem]\nname = euclidean-n\n")
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0


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
        start = 0, 0.25, 0
        end = 0, 0, 0.5
        grid_size = 24
        unique_limit = false
        cauchy_rho1_tol = 0.01
        reference_distance = 2.5
        seed_amplitude = 0.07

        [schedule]
        q_start = 2
        ratio = 5
        step_count = 3

        [solver]
        max_iterations = 123
        """,
    )
    spec = parse_config(config)
    assert spec.problem.grid_size == 24
    np.testing.assert_array_equal(spec.problem.start, [0.0, 0.25, 0.0])
    np.testing.assert_array_equal(spec.problem.end, [0.0, 0.0, 0.5])
    assert not spec.problem.unique_limit
    assert spec.problem.cauchy_rho1_tol == 0.01
    assert spec.problem.reference_distance == 2.5
    assert spec.problem.seed_amplitude == 0.07
    np.testing.assert_allclose(spec.problem.schedule.q_values(), [2.0, 10.0, 50.0])
    assert spec.solver.max_iterations == 123
    assert spec.solver.grid_size == 24
    # A drift run takes no reference distance, so the drift comes in its own config.
    drifted = _write_config(
        tmp_path,
        """
        [problem]
        name = heisenberg

        [drift]
        kind = constant
        vector = 0.1, 0, 0
        """,
        name="drift.ini",
    )
    assert parse_config(drifted).problem.has_drift
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
