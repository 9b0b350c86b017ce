"""Command-line interface: subcommands, config handling, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emdenlab
from emdenlab import cli, shooting


def run_cli(argv):
    return cli.run(argv)


class TestClassify:
    def test_subcritical_verdict(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run_cli(["classify", "--n", "3", "--p", "2", "--alpha", "4.9",
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"][0]["verdict"] == "no_positive_solution"
        assert rep["results"][0]["theorem"] == "2.1"

    def test_bubble_out_of_range(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["classify", "--n", "3", "--p", "2", "--alpha", "5",
                 "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["results"][0]["verdict"] == "out_of_range"


class TestThresholds:
    def test_table_values(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["thresholds", "--n", "3", "--p", "2",
                        "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        table = {row["name"]: row for row in rep["results"][0]["table"]}
        assert table["ps"]["value"] == 5.0
        assert table["main3_ii"]["value"] == 5.0

    def test_infinity_serialized(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["thresholds", "--n", "3", "--p", "3", "--out", str(out)])
        rep = json.loads(out.read_text())
        table = {row["name"]: row for row in rep["results"][0]["table"]}
        assert table["ps"]["value"] == "inf"


class TestIdentitiesCommand:
    def test_small_suite_passes_and_deterministic(self, tmp_path):
        argv = ["identities", "--suite", "decomposition", "--dim", "3",
                "--p", "2,3", "--samples", "200", "--seed", "7",
                "--models", "euclidean,hyperbolic"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert rep["pass"] and rep["config"]["seed"] == 7

    def test_tolerances_echoed(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["identities", "--suite", "advection", "--dim", "2",
                 "--samples", "100", "--models", "euclidean",
                 "--out", str(out)])
        rep = json.loads(out.read_text())
        assert all("tol" in r for r in rep["results"])


class TestScanCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "table.csv"
        code = run_cli(["scan", "--n", "3", "--p", "2", "--alpha", "1,3",
                        "--u0", "1", "--horizon", "50", "--out", str(out),
                        "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,u0,outcome,r_cross"
        assert len(lines) == 3

    def test_trajectories_do_not_change_the_report(self, tmp_path):
        # a cell that cannot be solved is an error cell with or without
        # --trajectories, and only solved cells get a trajectory file
        argv = ["scan", "--n", "3", "--p", "2", "--alpha", "3", "--u0=-1,1",
                "--horizon", "50"]
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        table, trajs = tmp_path / "table.csv", tmp_path / "trajs"
        assert run_cli(argv + ["--out", str(plain)]) == 1
        assert run_cli(argv + ["--out", str(traced), "--csv", str(table),
                               "--trajectories", str(trajs)]) == 1
        assert traced.read_bytes() == plain.read_bytes()
        cells = json.loads(traced.read_text())["results"][0]["cells"]
        assert [c["outcome"] for c in cells] == ["error", "crossed_zero"]
        assert len(table.read_text().strip().splitlines()) == 3
        assert sorted(f.name for f in trajs.iterdir()) == ["alpha3_u01.csv"]

    def test_one_solve_per_cell(self, tmp_path, monkeypatch):
        solves = []
        solve_ivp = shooting.solve_ivp

        def counted(*args, **kwargs):
            solves.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", counted)
        out, trajs = tmp_path / "rep.json", tmp_path / "trajs"
        assert run_cli(["scan", "--n", "3", "--p", "2", "--alpha", "1,3",
                        "--u0", "0.5,1", "--horizon", "50", "--out", str(out),
                        "--trajectories", str(trajs)]) == 0
        assert len(solves) == 4
        assert len(list(trajs.iterdir())) == 4
        for cell in json.loads(out.read_text())["results"][0]["cells"]:
            assert cell["outcome"] == "crossed_zero"
            path = trajs / f"alpha{cell['alpha']:g}_u0{cell['u0']:g}.csv"
            last = path.read_text().strip().splitlines()[-1]
            assert float(last.split(",")[0]) == cell["r_cross"]


class TestConfigFile:
    def test_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        out = tmp_path / "rep.json"
        run_cli(["classify", "--n", "3", "--p", "2", "--alpha", "4.9",
                 "--config", str(cfg), "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["config"]["alpha"] == 2.0
        # alpha = 2 sits inside the gradient-estimate window, unlike 4.9
        assert "2.3" in rep["results"][0]["theorems"]

    def test_unknown_field_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["classify", "--n", "3", "--p", "2", "--alpha", "1",
                     "--config", str(cfg)])
        assert exc.value.code == 2


class TestOtherCommands:
    def test_bubble(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["bubble", "--n", "3", "--p", "2", "--lam", "1",
                        "--rmax", "10", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        kinds = {r["identity_id"] for r in rep["results"]}
        assert kinds == {"emden_bubble_residual", "bubble_trajectory_match"}

    def test_volume(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["volume", "--model", "euclidean", "--dim", "3",
                        "--radii", "1,2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["results"][0]["volumes"][0]["volume"] == pytest.approx(
            4.18879, rel=1e-4
        )
        assert rep["results"][1]["non_increasing"]

    def test_moser(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["moser", "--n", "3", "--p", "2", "--alpha", "2",
                        "--delta0", "0", "--lam", "2", "--out", str(out)]) == 0

    def test_harnack(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["harnack", "--profile", "constant", "--q", "1",
                        "--radii", "1,2,4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["results"]) == 2  # both principles by default

    def test_numerical_failure_exit_one(self, tmp_path):
        # q outside the admissible window: precondition error -> exit 1
        out = tmp_path / "rep.json"
        code = run_cli(["harnack", "--profile", "constant", "--q", "3.5",
                        "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert not rep["pass"]

    def test_wall_time_not_in_report(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["thresholds", "--n", "3", "--p", "2", "--out", str(out)])
        assert "wall_time" not in out.read_text()


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same emdenlab as this process
        src = str(Path(emdenlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "emdenlab.cli", "classify", "--n", "3",
             "--p", "2", "--alpha", "1.0"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["verdict"] in (
            "no_positive_solution", "constant_forced",
        )
