import csv

import numpy as np
import pytest

from ttriem.cli import main
from ttriem.tt import random_tt, tt_write

from conftest import run_python_optimized


class TestCheck:
    def test_full_battery_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_filter_selects_subset(self, capsys):
        assert main(["check", "--filter", "stop-gradient"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["PASS stop-gradient"]

    def test_unknown_filter_fails(self, capsys):
        assert main(["check", "--filter", "does-not-exist"]) == 1


class TestBench:
    def test_csv_columns_and_content(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--function", "qf", "--method", "ad", "--op", "grad",
            "--d", "3", "--n", "2", "--rx", "2", "--rz", "2", "--ra", "2",
            "--trials", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == [
            "function", "method", "op", "d", "n", "rx", "rz", "ra",
            "seconds_mean", "seconds_std", "residual_vs_ad",
        ]
        assert row["function"] == "qf" and float(row["seconds_mean"]) > 0.0
        assert float(row["residual_vs_ad"]) == 0.0  # ad vs itself

    def test_unavailable_row_written_without_crash(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--function", "gram", "--method", "optimized", "--op", "hvp",
            "--d", "3", "--n", "2", "--rx", "2", "--rz", "2", "--ra", "2",
            "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["seconds_mean"] == ""
        assert "unavailable" in capsys.readouterr().out


class TestDemo:
    @pytest.mark.parametrize("kind,steps", [("solve", "5"), ("complete", "12")])
    def test_demo_runs(self, kind, steps, capsys):
        assert main(["demo", kind, "--steps", steps]) == 0
        out = capsys.readouterr().out
        assert "start" in out and "end" in out

    def test_demo_eigen_with_step_size(self, capsys):
        assert main(["demo", "eigen", "--steps", "5", "--step-size", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "min eigenvalue 1" in out and "after 5 steps" in out

    def test_demo_with_initial_tensor_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x0 = random_tt(rng, (3, 4, 3), 2)
        path = tmp_path / "x0.ttv1"
        tt_write(x0, path)
        assert main(["demo", "solve", "--steps", "5", "--in", str(path)]) == 0


class TestCheckUnderOptimize:
    @pytest.mark.parametrize("check, sabotage", [
        ("dense-kernels",
         "import ttriem.checks as checks\n"
         "checks.contract = lambda a, b, axes: a @ b + 1.0\n"),
        ("method-agreement",
         "import ttriem.baselines as baselines\n"
         "from ttriem.ttmanifold import tangent_scale\n"
         "fused = baselines.project_matvec\n"
         "baselines.project_matvec = lambda a, y, x: tangent_scale(1.0 + 1e-6, fused(a, y, x))\n"),
    ], ids=["contract", "project_matvec"])
    def test_sabotaged_check_fails_under_dash_o(self, check, sabotage):
        code = (
            "assert False, 'asserts are live: not running under -O'\n"
            "import sys\n"
            "from ttriem.cli import main\n"
            + sabotage
            + f"sys.exit(main(['check', '--filter', {check!r}]))\n"
        )
        proc = run_python_optimized(code)
        assert f"FAIL {check}" in proc.stdout, proc.stderr
        assert proc.returncode != 0
