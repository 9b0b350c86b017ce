"""Command-line interface: subcommands, config handling, reports."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emdenlab
from emdenlab import cli, estimates, identities, shooting
from emdenlab.reports import TOOL_VERSION

ROOT = Path(__file__).resolve().parents[1]


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

    def test_empty_grid_fails(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["identities", "--suite", "decomposition", "--p", "",
                        "--samples", "100", "--models", "euclidean",
                        "--out", str(out)]) == 1
        result = json.loads(out.read_text())["results"][0]
        assert result["samples"] == 0 and not result["pass"]

    def test_default_grids_are_the_library_grid(self, tmp_path):
        # the b = +-2 rows of criterion 1 run at the defaults
        assert cli.build_parser().parse_args(["identities"]).b == identities.AB_GRID
        out = tmp_path / "rep.json"
        assert run_cli(["identities", "--suite", "bochner-x", "--dim", "2",
                        "--samples", "100", "--models", "euclidean",
                        "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["a"] == rep["config"]["b"] == list(identities.AB_GRID)
        assert rep["results"][0]["samples"] == 100 * 3 * len(identities.AB_GRID)

    def test_solution_suite_reads_the_weight_flags(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["identities", "--suite", "solution", "--a", "1", "--b", "0",
                        "--out", str(out)]) == 0
        [result] = json.loads(out.read_text())["results"]
        assert result["identity_id"] == "solution_divergence"
        assert (result["worst_case"]["a"], result["worst_case"]["b"]) == (1.0, 0.0)
        # one (a, b) row over the solution's radii
        assert 0 < result["samples"] <= 400

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

    def test_one_solve_per_row(self, tmp_path, monkeypatch):
        # each alpha row solves its largest u0; the u0 = 0.5 cell is read
        # off that solve, and its trajectory still ends at its own r_cross
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
        assert len(solves) == 2
        assert len(list(trajs.iterdir())) == 4
        cells = json.loads(out.read_text())["results"][0]["cells"]
        assert [c.get("from_u0") for c in cells] == [1.0, None] * 2
        for cell in cells:
            assert cell["outcome"] == "crossed_zero"
            path = trajs / f"alpha{cell['alpha']:g}_u0{cell['u0']:g}.csv"
            last = path.read_text().strip().splitlines()[-1]
            assert float(last.split(",")[0]) == cell["r_cross"]

    def test_colliding_trajectory_names_fail_closed(self, tmp_path, monkeypatch):
        # alpha{:g} keeps 6 digits, so these two cells would share one
        # file: the run fails before any solve and writes nothing
        solves = []
        monkeypatch.setattr(shooting, "solve_ivp", lambda *a, **k: solves.append(1))
        out, trajs = tmp_path / "rep.json", tmp_path / "trajs"
        assert run_cli(["scan", "--alpha", "4.9999991,4.9999992", "--u0", "1",
                        "--out", str(out), "--trajectories", str(trajs)]) == 1
        [result] = json.loads(out.read_text())["results"]
        assert result["pass"] is False
        assert "(4.9999991, 1.0)" in result["error"]
        assert "(4.9999992, 1.0)" in result["error"]
        assert "alpha5_u01.csv" in result["error"]
        assert not solves and not trajs.exists()

    def test_repeated_cell_is_no_collision(self, tmp_path):
        trajs = tmp_path / "trajs"
        assert run_cli(["scan", "--n", "3", "--p", "2", "--alpha", "3,3",
                        "--u0", "1", "--horizon", "50", "--out",
                        str(tmp_path / "rep.json"), "--trajectories", str(trajs)]) == 0
        assert [f.name for f in trajs.iterdir()] == ["alpha3_u01.csv"]


    def test_trajectory_csv_text(self, tmp_path, monkeypatch):
        # each file reads back, row for row, as its cell's trajectory
        # arrays, the non-finite values of an overflowing start included
        outcomes = {}
        scan = shooting.liouville_scan

        def recording(*args, on_cell, **kwargs):
            def hook(alpha, u0, out):
                outcomes[alpha, u0] = out
                on_cell(alpha, u0, out)

            return scan(*args, on_cell=hook, **kwargs)

        monkeypatch.setattr(shooting, "liouville_scan", recording)
        trajs = tmp_path / "trajs"
        assert run_cli(["scan", "--n", "3", "--p", "2", "--alpha", "3,5",
                        "--u0", "1,1e200", "--horizon", "50", "--out",
                        str(tmp_path / "rep.json"), "--trajectories", str(trajs)]) == 1
        assert len(outcomes) == 4
        for (alpha, u0), out in outcomes.items():
            header, *rows = (trajs / f"alpha{alpha:g}_u0{u0:g}.csv").read_text().splitlines()
            assert header == "r,u,uprime,m"
            got = np.array([[float(x) for x in row.split(",")] for row in rows])
            for k, key in enumerate(header.split(",")):
                assert np.array_equal(got[:, k], out.trajectory[key], equal_nan=True)

    def test_trajectory_bytes_are_csv_writers(self, tmp_path, monkeypatch):
        # a file is byte for byte what csv.writer writes for its rows,
        # random values and nan, +-inf, -0.0 and 1e300 alike
        import csv
        from types import SimpleNamespace

        rng = np.random.default_rng(np.random.Philox(4))
        cols = rng.normal(size=(4, 40)) * 10.0 ** rng.integers(-300, 300, size=(4, 40))
        cols[:, :8] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300, 5e-324]
        traj = dict(zip(("r", "u", "uprime", "m"), cols))

        def fake_scan(n, p, alphas, u0s, horizon, on_cell):
            on_cell(alphas[0], u0s[0], SimpleNamespace(trajectory=traj))
            return {"cells": [], "pass": True}

        monkeypatch.setattr(shooting, "liouville_scan", fake_scan)
        trajs = tmp_path / "trajs"
        run_cli(["scan", "--alpha", "3", "--u0", "1", "--out", str(tmp_path / "rep.json"),
                 "--trajectories", str(trajs)])
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "u", "uprime", "m"])
            writer.writerows(np.column_stack(cols).tolist())
        assert (trajs / "alpha3_u01.csv").read_bytes() == expected.read_bytes()


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_config_run_leaves_no_state(self, tmp_path):
        # a scan with --config, then the same scan without it, reports
        # what that second scan reports when it runs first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": [0.5], "horizon": 20, "n": 4}))
        argv = ["scan", "--alpha", "1", "--u0", "1", "--horizon", "30"]
        first, configured, second = (tmp_path / f for f in ("1.json", "c.json", "2.json"))
        cli.build_parser.cache_clear()
        assert run_cli(argv + ["--out", str(first)]) == 0
        assert run_cli(argv + ["--config", str(cfg), "--out", str(configured)]) == 0
        assert run_cli(argv + ["--out", str(second)]) == 0
        assert json.loads(configured.read_text())["config"]["n"] == 4
        assert second.read_bytes() == first.read_bytes()


class TestEmptyInputs:
    """An input that leaves nothing to check fails the run (exit 1)."""

    @pytest.mark.parametrize("argv,message", [
        (["kato", "--samples", "0"], "a campaign needs at least one sample"),
        (["trace-ineq", "--samples", "0"], "a campaign needs at least one sample"),
        (["harnack", "--radii", ","], "need at least one radius"),
    ], ids=["kato", "trace-ineq", "harnack"])
    def test_error_result(self, tmp_path, argv, message):
        out = tmp_path / "rep.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["results"] == [
            {"error": f"PreconditionError: {message}", "pass": False}
        ]

    @pytest.mark.parametrize("argv", [
        ["identities", "--dim", ","],
        ["gradient-bound", "--n", ","],
        ["bubble", "--lam", ","],
        ["volume", "--radii", ","],
    ], ids=["identities", "gradient-bound", "bubble", "volume"])
    def test_no_results_fail(self, tmp_path, argv):
        out = tmp_path / "rep.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert not rep["pass"]

    @pytest.mark.parametrize("argv", [
        ["scan", "--alpha", "1", "--u0", ","],
        ["bv-sphere", "--u0", ","],
        ["bv-sphere", "--q", "6", "--u0", ","],
    ], ids=["scan", "bv-sphere", "bv-sphere-exploration"])
    def test_no_cells_fail(self, tmp_path, argv):
        out = tmp_path / "rep.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        result = json.loads(out.read_text())["results"][0]
        assert result["cells"] == [] and not result["pass"]


class TestInvalidInputs:
    """An input outside a check's domain (a radius or horizon <= 0, a jet
    grid value with n < 2 or p <= 1, a radial start u0 <= 0 or p <= 1)
    fails the run with one error result and no warning, before any
    arithmetic on it; so does a series start that overflows or is too
    coarse, once the solve has judged it."""

    @pytest.mark.parametrize("argv,error", [
        (["bubble", "--rmax", "0"], "PreconditionError: rmax must be positive"),
        (["gradient-bound", "--rtail", "0"],
         "PreconditionError: r_tail must be positive"),
        (["gradient-bound", "--rtail", "-5"],
         "PreconditionError: r_tail must be positive"),
        (["gradient-bound", "--rtail", "9"],
         "PreconditionError: r_tail must exceed the grid start 9/sqrt(kappa) = 9"),
        (["gradient-bound", "--rtail", "5"],
         "PreconditionError: r_tail must exceed the grid start 9/sqrt(kappa) = 9"),
        (["harnack", "--radii", "0"], "PreconditionError: radii must be positive"),
        (["trace-ineq", "--p", "1", "--samples", "10"],
         "DomainError: need n >= 2 and p > 1"),
        (["trace-ineq", "--n", "1", "--samples", "10"],
         "DomainError: need n >= 2 and p > 1"),
        (["kato", "--p", "1", "--samples", "10"],
         "DomainError: need n >= 2 and p > 1"),
        (["kato", "--n", "1", "--samples", "10"],
         "DomainError: need n >= 2 and p > 1"),
        (["identities", "--suite", "all", "--dim", "2", "--models", "euclidean",
          "--samples", "100", "--p", "1"], "DomainError: need n >= 2 and p > 1"),
        (["identities", "--suite", "all", "--dim", "2", "--models", "euclidean",
          "--samples", "100", "--p", "-1"], "DomainError: need n >= 2 and p > 1"),
        (["identities", "--suite", "solution", "--p", "0.5"],
         "DomainError: need n >= 2 and p > 1"),
        (["moser", "--u0", "-1"], "PreconditionError: u0 must be positive"),
        (["moser", "--p", "1"], "PreconditionError: p must exceed 1"),
        (["moser", "--p", "1.5", "--alpha", "3", "--u0", "1e100"],
         "NumericalError: dense solve failed: non-finite state at r=0.0001"),
        (["moser", "--n", "3", "--p", "2.5", "--alpha", "14", "--u0", "10"],
         "NumericalError: dense solve failed: series start error 2.51e+03 exceeds 1e-08"),
        (["moser", "--u0", "1e-5"],
         "NumericalError: dense solve failed: u0 1e-05 below atol/rtol 0.01: "
         "the error control on u is absolute"),
        (["bv-sphere", "--u0", "0,1"], "u0 must be positive"),
        (["classify", "--n", "3", "--p", "2", "--alpha", "2", "--sign", "mixed"],
         "InputError: a pure power t^alpha is not of mixed sign"),
        (["classify", "--n", "3", "--p", "2", "--alpha", "1.5", "--sign", "mixed",
          "--no-pure-power", "--negated-power"],
         "InputError: -t^alpha is not of mixed sign"),
    ], ids=["bubble-rmax", "gradient-bound-rtail-0", "gradient-bound-rtail-neg",
            "gradient-bound-rtail-9", "gradient-bound-rtail-5",
            "harnack-radius", "trace-ineq-p", "trace-ineq-n", "kato-p", "kato-n",
            "identities-p-1", "identities-p-neg", "identities-solution-p",
            "moser-u0", "moser-p", "moser-overflow", "moser-coarse-start",
            "moser-tiny-u0", "bv-sphere-u0", "classify-mixed-pure-power",
            "classify-mixed-negated-power"])
    def test_error_result(self, tmp_path, argv, error):
        out = tmp_path / "rep.json"
        assert run_cli(argv + ["--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        if argv[0] == "bv-sphere":
            # a scan records the failure in an error cell and runs the rest
            [scan] = rep["results"]
            assert scan["pass"] is False
            assert [(c["outcome"], c["reason"]) for c in scan["cells"]] == [
                ("error", error), ("stayed_positive", None)]
        else:
            assert rep["results"] == [{"error": error, "pass": False}]


class TestToleranceFlag:
    def test_solution_suite_honours_tol(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["identities", "--suite", "solution", "--dim", "3",
                        "--tol", "1e-30", "--out", str(out)]) == 1
        result = json.loads(out.read_text())["results"][0]
        assert result["tol"] == 1e-30 and not result["pass"]

    def test_unset_tol_keeps_each_check_default(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run_cli(["identities", "--dim", "2", "--samples", "100",
                        "--models", "euclidean", "--out", str(out)]) == 0
        tols = {r["identity_id"]: r["tol"]
                for r in json.loads(out.read_text())["results"]}
        assert tols == {
            "p_laplacian_decomposition": 1e-8,
            "flux_advection": 1e-8,
            "bochner_vector_field": 1e-7,
            "bochner_p_linearized": 1e-7,
            "weighted_divergence": 1e-7,
            "solution_divergence": 1e-6,
        }


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


class TestConfigValues:
    """A config value goes through its flag's own type and choices."""

    def _same_as_flags(self, tmp_path, argv, config, flags):
        cfg, by_config, by_flags = (tmp_path / f for f in ("c.json", "a.json", "b.json"))
        cfg.write_text(json.dumps(config))
        assert run_cli(argv + ["--config", str(cfg), "--out", str(by_config)]) == 0
        assert run_cli(argv + flags + ["--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    def test_number_for_a_list_flag(self, tmp_path):
        self._same_as_flags(
            tmp_path, ["identities", "--suite", "decomposition", "--samples", "100",
                       "--models", "euclidean"],
            {"dim": 3}, ["--dim", "3"])

    def test_string_for_an_int_flag(self, tmp_path):
        self._same_as_flags(tmp_path, ["kato", "--n", "3", "--p", "2"],
                            {"samples": "50"}, ["--samples", "50"])

    def test_list_reads_as_the_comma_form(self, tmp_path):
        self._same_as_flags(
            tmp_path, ["identities", "--suite", "advection", "--samples", "100",
                       "--models", "euclidean"],
            {"dim": [2], "p": [2, 3]}, ["--dim", "2", "--p", "2,3"])

    def test_switch(self, tmp_path):
        self._same_as_flags(tmp_path, ["classify", "--n", "3", "--p", "2",
                                       "--alpha", "2"],
                            {"growth": True, "pure_power": False},
                            ["--growth", "--no-pure-power"])

    @pytest.mark.parametrize("argv,config", [
        (["identities"], {"suite": "everything"}),
        (["harnack"], {"profile": "linear"}),
        (["kato"], {"samples": "many"}),
        (["kato"], {"samples": 1.5}),
        (["identities"], {"dim": "3.5"}),
        (["bv-sphere"], {"u0": "1:0:-1"}),
        (["moser"], {"lam": None}),
        (["moser"], {"n": True}),
        (["classify", "--n", "3", "--p", "2", "--alpha", "2"], {"growth": "yes"}),
        (["scan", "--alpha", "1"], {"csv": "table.csv"}),
        (["bubble"], {"seed": 1}),
        (["bubble"], {"tol": 1e-30}),
        (["bv-sphere"], {"u0": "0:inf:1"}),
        (["identities"], {"p": "0:1:nan"}),
        (["identities"], {"p": "0:1e12:1"}),
        (["identities"], {"p": "-1e308:1e308:1"}),
        (["identities"], {"p": "nan"}),
        (["identities"], {"p": [2.0, float("nan")]}),
        (["scan", "--alpha", "1"], {"alpha": "inf,1"}),
        (["bv-sphere"], {"u0": [1, "-inf"]}),
    ], ids=["suite-choice", "profile-choice", "int-text", "int-float", "ints-text",
            "floats-step", "null", "bool-for-int", "switch-text", "path-key",
            "dropped-seed", "dropped-tol", "floats-inf-bound", "floats-nan-step",
            "floats-too-many", "floats-span-overflow", "floats-nan", "floats-nan-list",
            "floats-inf", "floats-minus-inf-list"])
    def test_rejected_value_is_usage_error(self, tmp_path, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["bv-sphere", "--u0", "0:inf:1"],
        ["identities", "--p", "0:1e12:1"],
        ["identities", "--p", "nan", "--suite", "decomposition", "--models", "euclidean",
         "--dim", "2"],
        ["scan", "--alpha", "inf,1"],
    ], ids=["inf-bound", "too-many", "nan-list", "inf-list"])
    def test_rejected_range_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_range_count_bound(self):
        # the largest range the bound admits, and one value past it
        assert len(cli._floats(f"1:{cli.MAX_RANGE_VALUES}:1")) == cli.MAX_RANGE_VALUES
        with pytest.raises(argparse.ArgumentTypeError):
            cli._floats(f"0:{cli.MAX_RANGE_VALUES}:1")


# the commands that take no --seed, each with the arguments it requires
_NO_SEED = {
    "moser": [], "bubble": [], "scan": ["--alpha", "1"], "bv-sphere": [],
    "gradient-bound": [], "harnack": [],
    "classify": ["--n", "3", "--p", "2", "--alpha", "2"],
    "thresholds": ["--n", "3", "--p", "2"], "volume": [],
}
_NO_TOL = [c for c in _NO_SEED if c != "moser"]  # moser reads --tol


class TestFlags:
    @pytest.mark.parametrize("flag,command", [
        *(("--seed", c) for c in _NO_SEED), *(("--tol", c) for c in _NO_TOL),
    ])
    def test_unread_flag_is_usage_error(self, capsys, flag, command):
        parser = cli.build_parser()
        argv = [command, *_NO_SEED[command]]
        parser.parse_args(argv)  # valid without the flag
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_pure_power_is_only_switched_off(self, capsys):
        parser = cli.build_parser()
        argv = ["classify", "--n", "3", "--p", "2", "--alpha", "2"]
        assert parser.parse_args(argv).pure_power
        assert not parser.parse_args(argv + ["--no-pure-power"]).pure_power
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--pure-power"])

    @pytest.mark.parametrize("command,flags", [
        ("identities", {"seed": 7, "tol": 1e-9}),
        ("trace-ineq", {"seed": 7, "tol": 1e-9}),
        ("kato", {"seed": 7, "tol": 1e-9}),
        ("moser", {"tol": 1e-9}),
    ], ids=["identities", "trace-ineq", "kato", "moser"])
    def test_seed_and_tol_where_read(self, command, flags):
        argv = [command] + [t for k, v in flags.items() for t in (f"--{k}", str(v))]
        args = vars(cli.build_parser().parse_args(argv))
        assert {k: args[k] for k in flags} == flags
        assert ("seed" in args) == ("seed" in flags)

    def test_suite_choices_are_the_suite_table(self):
        parser = cli.build_parser()
        for suite in ["all", *cli._SUITES]:
            assert parser.parse_args(["identities", "--suite", suite]).suite == suite


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("emdenlab ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_examples_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_lists_every_command():
    [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(commands.choices)


def test_one_version_string():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == TOOL_VERSION == emdenlab.__version__


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


#: sha256 of the reports of criteria 2-4 and 7-9's commands, so that a
#: refactor of these checks cannot move a byte silently.  All of the pins
#: take about 0.05 s (2 vCPUs, Python 3.11, numpy 2.4).
_REPORT_SHA256 = {
    "trace-ineq --samples 2000":
        "6263438aecbf0de1d92a2d663071cc1630b8bde3b36ca5820b07ff05370f6c93",
    "kato --samples 2000":
        "c6c4a70b18fe1591febaeb6ac1c7bf7ce9e1ae28abbd1eff91da7480b63f547c",
    "bubble": "9002105982bdc44538551cb2ce846dc966c775d7baadc73cc20cbf7d8ee5c145",
    "moser": "82c4c17d38842d1d9b985a3d5121ed7038c14d1b7e73495bfcaf637d07377e6a",
    "gradient-bound":
        "b65b35e2afbf24cf943e22a81d0e242a28ddad821cd28b961fdaac7e71accc58",
    "harnack --profile constant":
        "7aea5e250d4e383ed6f9b854d530267ee5a6576e6062c41a8417409118026a44",
    "harnack --profile inverse_sqrt":
        "ca5878e5153b91e6029fab0a24c73684837817bf222c66340a09e41a2c37b293",
    "harnack --profile smoothed_cap":
        "4ebb50209a175fb5a0934c50726b42d9d608ed36645218eac4de115df277f9f1",
}


class TestReportBytes:
    @pytest.mark.parametrize("command", sorted(_REPORT_SHA256))
    def test_report_bytes_are_pinned(self, tmp_path, command):
        out = tmp_path / "rep.json"
        run_cli(command.split() + ["--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _REPORT_SHA256[command]

    def test_gradient_bound_csv_bytes_are_pinned(self, tmp_path):
        out, table = tmp_path / "rep.json", tmp_path / "g.csv"
        assert run_cli(["gradient-bound", "--out", str(out), "--csv", str(table)]) == 0
        assert hashlib.sha256(table.read_bytes()).hexdigest() == (
            "f1bc6691d2f9221b20b1ca42d4be20ca8511ae58e23ab6a52093079e67297e43")

    def test_local_scaling_bytes_are_pinned(self):
        # criterion 8's grid
        reports = [estimates.local_scaling_check(n, p, radii=(1.0, 2.0, 4.0, 8.0))
                   for n, p in [(3, 2.0), (2, 3.0), (4, 1.5)]]
        assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == (
            "0591c707a7212a3ed17547f506f0694e91783446a661219a555956d176b5b45a")


class TestBvSphereCommand:
    @pytest.mark.parametrize("grid,code", [("0.999997,1.3", 0), ("0.999997", 1)])
    def test_small_residual_is_not_regular(self, tmp_path, grid, code):
        # inside the hypotheses only the search's root near 1 is regular
        out = tmp_path / "rep.json"
        assert run_cli(["bv-sphere", "--u0", grid, "--out", str(out)]) == code
        [scan] = json.loads(out.read_text())["results"]
        assert len(scan["regular_u0"]) == 1 - code


class TestConsoleEntry:
    @staticmethod
    def child(*argv):
        # the child imports the same emdenlab as this process and, like
        # this one, treats warnings as errors
        src = str(Path(emdenlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "emdenlab.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_invocation(self):
        proc = self.child("classify", "--n", "3", "--p", "2", "--alpha", "1.0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"][0]["verdict"] in (
            "no_positive_solution", "constant_forced",
        )

    def test_overflowing_sphere_cell_fails_closed(self):
        # f(1e200) overflows: that cell is inconclusive, with no warning
        # escaping to stderr, and the scan fails
        proc = self.child("bv-sphere", "--u0", "1,1e200")
        assert proc.returncode == 1
        [scan] = json.loads(proc.stdout)["results"]
        assert scan["pass"] is False
        assert [(c["outcome"], c["status"]) for c in scan["cells"]] == [
            ("stayed_positive", 0), ("inconclusive", -1)]
        assert scan["cells"][1]["reason"].startswith("non-finite state")
        [line] = proc.stderr.splitlines()
        assert line.startswith("[emdenlab] pass=False")

    def test_inconclusive_scan_cell_fails_closed(self):
        # u0 = 1e200 overflows at the first step: that cell is
        # inconclusive with its reason, and a critical row passes only
        # when every cell stays positive
        proc = self.child("scan", "--n", "3", "--p", "2", "--alpha", "5",
                          "--u0", "1,1e200", "--horizon", "200")
        assert proc.returncode == 1
        [scan] = json.loads(proc.stdout)["results"]
        assert scan["pass"] is False
        assert [(c["outcome"], c["reason"]) for c in scan["cells"]] == [
            ("stayed_positive", None),
            ("inconclusive", "non-finite state at r=0.0001"),
        ]
        [line] = proc.stderr.splitlines()
        assert line.startswith("[emdenlab] pass=False")

    def test_nonpositive_model_curvature_fails_closed(self):
        # --kappa is H^n's kappa: -1 is a DomainError, not kappa = 1
        proc = self.child("volume", "--model", "hyperbolic", "--kappa", "-1")
        assert proc.returncode == 1
        [result] = json.loads(proc.stdout)["results"]
        assert result["pass"] is False
        assert result["error"].startswith("DomainError")
        [line] = proc.stderr.splitlines()
        assert line.startswith("[emdenlab] pass=False")
