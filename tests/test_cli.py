import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import shockld
from shockld import cli, montecarlo
from shockld.cli import _write_matrix, main
from shockld.config import ConfigError, parse_config
from shockld.diagnostics import (analytic_center_law,
                                 analytic_exit_probability, wave_centers)
from shockld.fluxes import cfl_number
from shockld.grid import SpaceTimeGrid, WaveSpec
from shockld.montecarlo import epsilon_sweep, sample_terminal_states
from shockld.noise import build_noise_model
from shockld.optimize import initial_values
from shockld.rate import PathMatrix, rate

TABLE1 = {
    "grid": {"L": -15.0, "R": 20.0, "dx": 0.5, "T": 1.0, "dt": 0.05},
    "wave": {"u_minus": 2.0, "u_plus": 1.0, "D": 1.0, "gamma_frame": 1.5},
    "noise": {"kind": "exponential", "sigma": 1.0, "l_c": 5.0},
    "scenario": {"kind": "displacement", "x0": 5.0,
                 "delta": math.sqrt(0.5)},
    "run": {"seed": 1234, "K": 10000, "eps": 0.15},
}
DELTA = TABLE1["scenario"]["delta"]


def make_config(tmp_path, **changes):
    doc = json.loads(json.dumps(TABLE1))
    for dotted, value in changes.items():
        sec, key = dotted.split(".")
        if value is None:
            doc[sec].pop(key, None)
        else:
            doc[sec][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_benchmark_document_accepted(self, tmp_path):
        cfg = parse_config(make_config(tmp_path).read_text())
        assert cfg.grid.M == 70 and cfg.grid.N == 20
        assert cfg.wave.gamma == 1.5
        assert cfg.scenario.delta == pytest.approx(math.sqrt(0.5))

    def test_bad_spacing_names_key(self, tmp_path):
        text = make_config(tmp_path, **{"grid.dx": 0.3}).read_text()
        with pytest.raises(ConfigError, match="dx"):
            parse_config(text)

    def test_negative_delta_rejected(self, tmp_path):
        text = make_config(tmp_path, **{"scenario.delta": -1.0}).read_text()
        with pytest.raises(ConfigError, match="delta"):
            parse_config(text)

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(make_config(tmp_path).read_text())
        doc["grid"]["dy"] = 1.0
        with pytest.raises(ConfigError, match="grid.dy"):
            parse_config(json.dumps(doc))

    def test_missing_field_names_key(self, tmp_path):
        text = make_config(tmp_path, **{"wave.D": None}).read_text()
        with pytest.raises(ConfigError, match="wave.D"):
            parse_config(text)

    def test_type_mismatch_names_key(self, tmp_path):
        text = make_config(tmp_path, **{"run.seed": "abc"}).read_text()
        with pytest.raises(ConfigError, match="run.seed"):
            parse_config(text)

    def test_run_mode_rejected_as_unknown(self, tmp_path):
        text = make_config(tmp_path, **{"run.mode": "mc"}).read_text()
        with pytest.raises(ConfigError, match="unknown key: run.mode"):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [("run.eps", -0.1),
                                            ("run.eps_grid", [-0.1, 0.1])])
    def test_negative_eps_rejected(self, tmp_path, key, value):
        text = make_config(tmp_path, **{key: value}).read_text()
        with pytest.raises(ConfigError, match=re.escape(key) + " "):
            parse_config(text)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, tmp_path, trials):
        text = make_config(tmp_path, **{"run.trials": trials}).read_text()
        with pytest.raises(ConfigError, match=re.escape("run.trials must be "
                                                        "at least 1")):
            parse_config(text)

    def test_estimator_names_validated(self, tmp_path):
        text = make_config(tmp_path, **{"run.estimators": ["mc", "magic"]}).read_text()
        with pytest.raises(ConfigError, match="magic"):
            parse_config(text)

    def test_repeated_estimator_refused(self, tmp_path):
        text = make_config(
            tmp_path, **{"run.estimators": ["mc", "is0", "mc"]}).read_text()
        with pytest.raises(ConfigError, match=re.escape(
                "repeated estimator in run.estimators: 'mc'")):
            parse_config(text)

    def test_target_wave_only_for_transitions(self, tmp_path):
        doc = json.loads(make_config(tmp_path).read_text())
        doc["scenario"]["target_wave"] = {"u_minus": 2.5, "u_plus": 0.5}
        with pytest.raises(ConfigError, match="target_wave"):
            parse_config(json.dumps(doc))
        doc["scenario"] = {"kind": "weak_to_strong",
                           "target_wave": {"u_minus": 2.5, "u_plus": 0.5}}
        cfg = parse_config(json.dumps(doc))
        assert cfg.scenario.boundary_width == 2


def csv_writer_reference(fname, header, matrix):
    """The matrix files as csv.writer wrote them, one formatted value at a
    time."""
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in [header, *matrix]:
            writer.writerow([f"{float(v):.17g}" for v in row])


class TestMatrixWriter:
    def test_bytes_match_csv_writer_and_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2 ** 64, size=(41, 12), dtype=np.uint64)
        matrix = bits.view(np.float64)
        matrix[0] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
                     1.0 / 3.0, -2.5]
        header = rng.standard_normal(12)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_matrix(str(ours), header, matrix)
        csv_writer_reference(str(ref), header, matrix)
        assert ours.read_bytes() == ref.read_bytes()
        assert ours.read_bytes().count(b"\r\n") == 42

        back = np.loadtxt(ours, delimiter=",", skiprows=1)
        nan = np.isnan(matrix)
        assert np.array_equal(np.isnan(back), nan)
        assert np.array_equal(back.view(np.uint64)[~nan], bits[~nan])
        head = np.loadtxt(ours, delimiter=",", max_rows=1)
        assert np.array_equal(head.view(np.uint64), header.view(np.uint64))


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSubcommands:
    def small_optimize_config(self, tmp_path):
        return make_config(
            tmp_path,
            **{"grid.dx": 0.5, "grid.dt": 0.1, "noise.kind": "identity",
               "noise.sigma": None, "noise.l_c": None,
               "scenario.x0": 2.0, "scenario.delta": 0.0, "run.K": None,
               "run.eps": None})

    def test_optimize_round_trip(self, tmp_path):
        cfg_path = self.small_optimize_config(tmp_path)
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        row = read_rows(out / "optimize_summary.csv")[0]
        assert row["format_version"] == "2"
        grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.1)
        wave = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        model = build_noise_model("identity", grid)
        q = np.loadtxt(out / "optimal_path.csv", delimiter=",", skiprows=1)
        path = PathMatrix(q, grid, wave)
        assert rate(path, model) == pytest.approx(float(row["I_star"]),
                                                  abs=1e-10)
        meta = json.loads((out / "optimize_meta.json").read_text())
        assert meta["code_version"]
        assert meta["config"]["grid"]["dx"] == 0.5
        record = meta["optimizer"]
        assert record["iterations"] == int(row["iterations"])
        assert record["evaluations"] > record["iterations"]

    def test_meta_records_numerical_regime(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg_path = make_config(
            tmp_path, **{"grid.dt": 0.1, "noise.kind": "identity",
                         "noise.sigma": None, "noise.l_c": None,
                         "scenario.x0": 2.0, "scenario.delta": 0.0})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "optimize_meta.json").read_text())
        cfg = parse_config(cfg_path.read_text())
        assert meta["cfl_number"] == cfl_number(cfg.grid, cfg.wave) == \
            pytest.approx(0.9)
        assert meta["thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                      "OMP_NUM_THREADS": "2",
                                      "MKL_NUM_THREADS": None}

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 3)])
    @pytest.mark.parametrize("subcommand", ["mc", "is", "sweep-eps",
                                            "center-diagnostics"])
    def test_monte_carlo_meta_records_kernel_workers(
            self, tmp_path, monkeypatch, subcommand, cpus, workers):
        # 20 samples in chunks of 7: one worker per usable CPU, at most one
        # per chunk
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
        delta = 0.0 if subcommand == "center-diagnostics" else DELTA
        cfg_path = make_config(
            tmp_path, **{"run.K": 20, "run.eps": 0.2, "run.eps_grid": [0.2],
                         "run.estimators": ["mc"], "scenario.delta": delta})
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        name = subcommand.replace("-", "_") + "_meta.json"
        meta = json.loads((out / name).read_text())
        assert meta["kernel_workers"] == workers
        assert "thread_env" in meta

    @pytest.mark.parametrize("K, chunks", [(5, 1), (20, 3)])
    def test_sweep_eps_meta_records_one_worker_per_chunk(
            self, tmp_path, monkeypatch, K, chunks):
        # a sweep's items are the chunks of its K samples, each stepped at
        # every eps: three eps add no worker, even with CPUs to spare
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 8)
        cfg_path = make_config(
            tmp_path, **{"run.K": K, "run.eps_grid": [0.1, 0.15, 0.2],
                         "run.estimators": ["mc"]})
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "sweep_eps_meta.json").read_text())
        assert meta["kernel_workers"] == chunks

    def test_estimator_meta_records_each_solve(self, tmp_path):
        # the benchmark ball solve converges; both weak_to_strong solves
        # stall on a Godunov kink and end in a failed line search, and their
        # forcings still feed the samplers, so the record must say so
        cfg_path = make_config(tmp_path, **{"run.K": 20, "run.eps": 0.2})
        out = tmp_path / "is"
        assert main(["is", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "is_meta.json").read_text())
        cfg = parse_config(cfg_path.read_text())
        model = build_noise_model(cfg.noise_kind, cfg.grid, sigma=cfg.sigma,
                                  l_c=cfg.l_c)
        opt = cli.minimize_ball(cfg.scenario, model)
        assert meta["I_star"] == opt.rate_value
        assert meta["solves"] == {"is-delta": {
            "converged": True, "message": "converged",
            "iterations": opt.iterations, "evaluations": opt.evaluations}}

        cfg_path = make_config(
            tmp_path, **{"wave.u_minus": 1.75, "wave.u_plus": 1.25,
                         "scenario.kind": "weak_to_strong", "scenario.x0": None,
                         "scenario.target_wave": {"u_minus": 2.5,
                                                  "u_plus": 0.5},
                         "scenario.delta": 0.5, "run.K": 20,
                         "run.eps_grid": [0.2],
                         "run.estimators": ["mc", "is0", "is-delta"]})
        out = tmp_path / "sweep"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        solves = json.loads((out / "sweep_eps_meta.json").read_text())["solves"]
        assert sorted(solves) == ["is-delta", "is0"]
        for record in solves.values():
            assert record["converged"] is False
            assert record["message"] == \
                "line search failed; best iterate returned"
            assert 0 < record["iterations"] < record["evaluations"]

    def test_optimize_on_acceptance_scaling_grid_warns_once(self, tmp_path):
        # criteria 01 and 02 solve on dx 0.2, dt 0.02 with D = 1, just past
        # the explicit-Euler stability heuristic:
        # 0.02 (0.5 / 0.2 + 2 / 0.04) = 1.05 > 1
        cfg_path = make_config(
            tmp_path, **{"grid.R": 35.0, "grid.dx": 0.2, "grid.dt": 0.02,
                         "noise.kind": "identity", "noise.sigma": None,
                         "noise.l_c": None, "scenario.x0": 2.0,
                         "scenario.delta": 0.0})
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning) as caught:
            assert main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == [
            "explicit Euler stability heuristic exceeded: "
            "dt*(max|F'|/dx + 2D/dx^2) = 1.05 > 1"]
        meta = json.loads((out / "optimize_meta.json").read_text())
        assert meta["cfl_number"] == pytest.approx(1.05)

    def test_optimize_meta_records_ball_outer_steps(self, tmp_path):
        cfg_path = make_config(
            tmp_path, **{"grid.dt": 0.1, "noise.kind": "identity",
                         "noise.sigma": None, "noise.l_c": None,
                         "scenario.x0": 2.0, "scenario.delta": 0.5})
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        row = read_rows(out / "optimize_summary.csv")[0]
        record = json.loads((out / "optimize_meta.json").read_text())["optimizer"]
        assert record["iterations"] == int(row["iterations"])
        assert record["evaluations"] > record["iterations"]
        assert set(record) == {"iterations", "evaluations"}

    def test_infeasible_ball_fails_with_diagnostic(self, tmp_path, capsys):
        # the pinned boundary cells alone sit at squared distance 0.00362
        # from the x0 = 15 target, beyond delta^2 = 0.0025
        cfg_path = make_config(tmp_path, **{"scenario.x0": 15.0,
                                            "scenario.delta": 0.05})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld optimize" in err and "infeasible" in err

    def test_same_seed_byte_identical(self, tmp_path):
        cfg_path = self.small_optimize_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("optimal_path.csv", "optimize_summary.csv", "forcing.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mc_report(self, tmp_path):
        cfg_path = make_config(tmp_path, **{"run.K": 200, "run.eps": 0.2})
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_rows(out / "reports.csv")
        assert len(rows) == 1
        assert rows[0]["estimator"] == "mc"
        assert rows[0]["K"] == "200"
        assert 0.0 <= float(rows[0]["estimate"]) <= 1.0

    def test_seed_override_changes_rows(self, tmp_path):
        cfg_path = make_config(tmp_path, **{"run.K": 400, "run.eps": 0.25,
                                            "scenario.delta": 2.0})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["mc", "--config", str(cfg_path), "--out", str(out1)])
        main(["mc", "--config", str(cfg_path), "--out", str(out2),
              "--seed", "999"])
        r1 = read_rows(out1 / "reports.csv")[0]
        r2 = read_rows(out2 / "reports.csv")[0]
        assert r1["seed"] == "1234" and r2["seed"] == "999"
        assert r1["estimate"] != r2["estimate"]

    def test_sweep_eps_row_count(self, tmp_path):
        cfg_path = make_config(
            tmp_path,
            **{"run.K": 150, "run.eps": None,
               "run.eps_grid": [0.1, 0.15, 0.2],
               "run.estimators": ["mc", "is-delta"]})
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "reports.csv")
        assert len(rows) == 6
        assert {r["estimator"] for r in rows} == {"mc", "is-delta"}

    def test_sweep_eps_repeated_estimator_fails_with_diagnostic(
            self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, **{"run.K": 50, "run.eps": None,
                                            "run.eps_grid": [0.1, 0.2],
                                            "run.estimators": ["mc", "mc"]})
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld sweep-eps" in err
        assert "repeated estimator in run.estimators: 'mc'" in err
        assert not (out / "reports.csv").exists()

    def test_sweep_eps_repeated_eps_fails_with_diagnostic(self, tmp_path,
                                                          capsys):
        # the points share their draws, so a repeated eps would only copy
        # a report
        cfg_path = make_config(tmp_path, **{"run.K": 50, "run.eps": None,
                                            "run.eps_grid": [0.1, 0.2, 0.1],
                                            "run.estimators": ["mc"]})
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld sweep-eps" in err
        assert "ValueError: repeated eps: 0.1" in err
        assert not (out / "reports.csv").exists()

    def test_sweep_eps_rerun_byte_identical(self, tmp_path, ball_scen,
                                            exp_model, ball_exp_opt,
                                            pinned_exp_opt, monkeypatch):
        # one kernel call takes the three chunks of 50 of each eps, and a
        # rerun writes the same bytes
        monkeypatch.setattr(montecarlo, "_CHUNK", 50)
        cfg_path = make_config(
            tmp_path,
            **{"run.K": 120, "run.eps": None,
               "run.eps_grid": [0.1, 0.15, 0.2],
               "run.estimators": ["mc", "is0", "is-delta"]})
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["sweep-eps", "--config", str(cfg_path), "--out",
                         str(out)]) == 0
            outs.append((out / "reports.csv").read_bytes())
        assert outs[0] == outs[1]
        # the points are epsilon_sweep's
        rows = read_rows(tmp_path / "b" / "reports.csv")
        ref = epsilon_sweep(ball_scen, exp_model, [0.1, 0.15, 0.2], 120,
                            ["mc", "is0", "is-delta"], seed=1234,
                            forcing_pinned=pinned_exp_opt.forcing,
                            forcing_ball=ball_exp_opt.forcing)
        assert [(float(r["eps"]), r["estimator"], float(r["estimate"]),
                 float(r["std"])) for r in rows] == \
            [(eps, name, rep.estimate, rep.std) for eps, name, rep in ref]

    def test_sweep_x0(self, tmp_path):
        cfg_path = make_config(
            tmp_path,
            **{"grid.dt": 0.1, "noise.kind": "identity", "noise.sigma": None,
               "noise.l_c": None, "scenario.delta": 0.0,
               "run.x0_grid": [0.0, 1.0, 2.0], "run.K": None,
               "run.eps": None})
        out = tmp_path / "out"
        assert main(["sweep-x0", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "rate_summary.csv")
        assert [float(r["x0"]) for r in rows] == [0.0, 1.0, 2.0]
        istars = [float(r["I_star"]) for r in rows]
        assert istars[0] < istars[1] < istars[2]
        for r in rows:
            assert float(r["lower_bound"]) <= float(r["I_star"]) + 1e-10

    @pytest.mark.parametrize("subcommand, estimator",
                             [("mc", "mc"), ("is", "is-delta")],
                             ids=["mc", "is-delta"])
    def test_estimator_row_is_one_point_sweep(self, tmp_path, subcommand,
                                              estimator):
        # the row equals the one-point sweep's, and the points of a longer
        # sweep share their draws, so its row at run.eps is the same
        cfg_path = make_config(
            tmp_path, **{"run.K": 300, "run.eps": 0.2, "run.eps_grid": [0.2],
                         "run.estimators": [estimator]})
        one, sweep = tmp_path / "one", tmp_path / "sweep"
        assert main([subcommand, "--config", str(cfg_path),
                     "--out", str(one)]) == 0
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(sweep)]) == 0
        reports = (one / "reports.csv").read_bytes()
        assert reports == (sweep / "reports.csv").read_bytes()
        cfg_path = make_config(
            tmp_path, **{"run.K": 300, "run.eps_grid": [0.15, 0.2],
                         "run.estimators": [estimator]})
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(sweep)]) == 0
        header, row = reports.splitlines()
        assert (sweep / "reports.csv").read_bytes().splitlines()[::2] == \
            [header, row]
        assert read_rows(one / "reports.csv")[0]["estimator"] == estimator
        if subcommand == "is":
            meta = json.loads((one / "is_meta.json").read_text())
            assert meta["I_star"] > 0

    @pytest.mark.parametrize("subcommand", ["mc", "is", "sweep-eps"])
    def test_zero_delta_refused_by_estimators(self, tmp_path, capsys,
                                              subcommand):
        # dx |Q^N - target|^2 <= 0 has probability 0: no row is written
        cfg_path = make_config(
            tmp_path, **{"run.K": 50, "run.eps_grid": [0.2],
                         "run.estimators": ["mc", "is0"],
                         "scenario.delta": 0.0})
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"shockld {subcommand}" in err and "scenario.delta" in err
        assert "probability 0" in err
        assert not (out / "reports.csv").exists()

    def test_sweep_T(self, tmp_path):
        cfg_path = make_config(
            tmp_path,
            **{"grid.dt": 0.1, "noise.kind": "identity", "noise.sigma": None,
               "noise.l_c": None, "scenario.x0": 2.0, "scenario.delta": 0.0,
               "run.T_grid": [0.5, 1.0, 1.5], "run.K": None,
               "run.eps": None})
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["sweep-T", "--config", str(cfg_path), "--out",
                         str(out)]) == 0
            outs.append((out / "rate_summary.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = read_rows(tmp_path / "a" / "rate_summary.csv")
        assert [float(r["T"]) for r in rows] == [0.5, 1.0, 1.5]
        istars = [float(r["I_star"]) for r in rows]
        assert istars[0] > istars[1] > istars[2]

    def test_convexity_row(self, tmp_path):
        cfg_path = make_config(
            tmp_path,
            **{"grid.dt": 0.1, "noise.kind": "identity", "noise.sigma": None,
               "noise.l_c": None, "scenario.x0": 2.0, "scenario.delta": 0.0,
               "run.trials": 200, "run.K": None, "run.eps": None})
        out = tmp_path / "out"
        assert main(["convexity", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        row = read_rows(out / "convexity.csv")[0]
        assert float(row["fraction"]) >= 0.99
        assert row["trials"] == "200"

    def test_center_diagnostics_row(self, tmp_path):
        cfg_path = make_config(tmp_path, **{"run.K": 2000, "run.eps": 0.1,
                                            "scenario.delta": 0.0})
        out = tmp_path / "out"
        assert main(["center-diagnostics", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        row = read_rows(out / "center_diagnostics.csv")[0]
        assert float(row["var_ratio"]) == pytest.approx(1.0, abs=0.2)
        assert row["margin_ok"] == "true"

    @pytest.mark.parametrize("eps", [0.0, 1e-170])
    def test_zero_eps_refused_by_center_diagnostics(self, tmp_path, capsys,
                                                    eps):
        # the center law at eps = 0, or where eps^2 underflows, has
        # variance 0: var_ratio would be nan
        cfg_path = make_config(tmp_path, **{"run.K": 50, "run.eps": eps,
                                            "scenario.delta": 0.0})
        out = tmp_path / "out"
        assert main(["center-diagnostics", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld center-diagnostics" in err and "run.eps" in err
        assert not (out / "center_diagnostics.csv").exists()

    def test_one_traced_wave_centers_call_per_chunk(self, tmp_path,
                                                    monkeypatch):
        # perfbench/tracing.py times the center reduction and counts the
        # trajectories by patching these shockld.cli attributes; the kernel
        # must call the patched wave_centers once per chunk.  The workers
        # run it, so each appends (its pid, the chunk's shape) per call to a
        # file that this process reads back.
        log = tmp_path / "centers.txt"
        counts = []
        centers, sample = cli.wave_centers, cli.sample_terminal_states

        def counting_centers(states, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write("%d %d %d\n" % (os.getpid(), *states.shape))
            return centers(states, *args, **kwargs)

        def counting_sample(*args, **kwargs):
            out = sample(*args, **kwargs)
            counts.append(out.shape[0])
            return out

        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "wave_centers", counting_centers)
        monkeypatch.setattr(cli, "sample_terminal_states", counting_sample)
        cfg_path = make_config(tmp_path, **{"run.K": 20, "run.eps": 0.1,
                                            "scenario.delta": 0.0})
        assert main(["center-diagnostics", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        calls = [tuple(map(int, line.split()))
                 for line in log.read_text().splitlines()]
        assert sorted(shape for _, *shape in calls) == \
            [[6, 70], [7, 70], [7, 70]]
        assert os.getpid() not in {pid for pid, *_ in calls}
        assert counts == [20]

    def test_negative_eps_grid_fails_with_diagnostic(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, **{"run.K": 50, "run.eps": None,
                                            "run.eps_grid": [-0.1, 0.1],
                                            "run.estimators": ["mc"]})
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", str(cfg_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld sweep-eps" in err and "run.eps_grid" in err
        assert not (out / "reports.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("run.eps", math.nan), ("run.eps", math.inf),
        ("scenario.x0", math.nan), ("wave.gamma_frame", math.nan),
        ("scenario.delta", math.inf), ("run.eps_grid", [0.1, math.nan]),
        ("scenario.x0", 10 ** 400), ("run.eps_grid", [0.1, 10 ** 400])],
        ids=["eps-nan", "eps-inf", "x0-nan", "gamma_frame-nan", "delta-inf",
             "eps_grid-nan", "x0-overflow", "eps_grid-overflow"])
    def test_non_finite_number_fails_with_diagnostic(self, tmp_path, capsys,
                                                      key, value):
        # json writes NaN and Infinity, and reads them back; 10 ** 400 comes
        # back as an int no float can hold
        cfg_path = make_config(tmp_path, **{"run.K": 50, key: value})
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shockld mc" in err and f"{key} " in err and "finite" in err
        assert not out.exists()

    def test_boundary_width_key_fails_with_diagnostic(self, tmp_path, capsys):
        # the width follows scenario.kind; the key is not settable
        cfg_path = make_config(tmp_path, **{"scenario.boundary_width": 2})
        assert main(["optimize", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown key: scenario.boundary_width" in err

    def test_missing_run_field_fails_with_diagnostic(self, tmp_path, capsys):
        cfg_path = make_config(tmp_path, **{"run.K": None})
        assert main(["mc", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "run.K" in err and "shockld mc" in err

    def test_bad_config_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["optimize", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_sweep_x0_two_points(self, tmp_path):
        cfg_path = make_config(
            tmp_path,
            **{"grid.dt": 0.1, "noise.kind": "identity", "noise.sigma": None,
               "noise.l_c": None, "scenario.delta": 0.0,
               "run.x0_grid": [0.0, 1.0], "run.K": None, "run.eps": None})
        out = tmp_path / "out"
        assert main(["sweep-x0", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert len(read_rows(out / "rate_summary.csv")) == 2

    @pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
    def test_threads_flag_refused(self, subcommand, tmp_path, capsys):
        # there is no worker-count option for any subcommand: argparse
        # refuses the flag before a config is read or a directory made
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main([subcommand, "--config", str(make_config(tmp_path)),
                  "--out", str(out), "--threads", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "-1"])
    def test_threads_env_ignored(self, value, tmp_path, monkeypatch):
        # SHOCKLD_THREADS is read by nothing: values that were once refused
        # leave every output byte as it is without the variable
        cfg_path = self.small_optimize_config(tmp_path)
        outs = []
        for env in (None, value):
            if env is None:
                monkeypatch.delenv("SHOCKLD_THREADS", raising=False)
            else:
                monkeypatch.setenv("SHOCKLD_THREADS", env)
            out = tmp_path / f"out{len(outs)}"
            assert main(["optimize", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert "optimize_summary.csv" in outs[0]
        assert outs[0] == outs[1]


def float_bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestCenterStatistics:
    @pytest.mark.parametrize("size", [1, 7, 129, 100003])
    @pytest.mark.parametrize("kind", ["float", "indicator"])
    def test_in_place_moments_match_numpy_bits(self, size, kind):
        rng = np.random.default_rng(size)
        if kind == "float":
            x = 3.0 + 2.0 * rng.standard_normal(size)
        else:
            x = (rng.random(size) < 0.3).astype(float)
        mean, var = cli._mean_var_in_place(x.copy())
        assert float_bits(mean, var, np.sqrt(var)) == \
            float_bits(np.mean(x), np.var(x), np.std(x))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_csv_matches_numpy_reference(self, tmp_path, seed):
        # the row as np.mean, np.var and np.std on a float copy of the exit
        # indicator compute it, every column to the last bit
        K, eps, p_exit = 700, 0.1, 0.1
        cfg_path = make_config(tmp_path, **{"run.K": K, "run.eps": eps,
                                            "run.seed": seed,
                                            "run.exit_probability": p_exit,
                                            "scenario.delta": 0.0})
        cfg = parse_config(cfg_path.read_text())
        grid, wave = cfg.grid, cfg.wave
        model = build_noise_model(cfg.noise_kind, grid, sigma=cfg.sigma,
                                  l_c=cfg.l_c)
        reference = initial_values(cfg.scenario, grid)
        centers = wave_centers(
            sample_terminal_states(cfg.scenario, model, eps, K, seed),
            reference, wave, grid.dx)
        mean, var = analytic_center_law(eps, grid.T, model, wave)
        threshold = float(np.sqrt(var) * NormalDist().inv_cdf(1.0 - p_exit))
        exceed = (centers >= mean + threshold).astype(float)
        mc_p, mc_std = float(np.mean(exceed)), float(np.std(exceed))
        half = 2.6 * mc_std / np.sqrt(K)
        emp_var = float(np.var(centers))
        expected = {"empirical_mean": float(np.mean(centers)),
                    "empirical_var": emp_var, "var_ratio": emp_var / var,
                    "exit_threshold": threshold, "exit_mc": mc_p,
                    "exit_ci_low": mc_p - half, "exit_ci_high": mc_p + half,
                    "exit_analytic": analytic_exit_probability(
                        threshold, grid.T, eps, model, wave)}
        assert 0 < mc_p < 1
        out = tmp_path / "out"
        assert main(["center-diagnostics", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        row = read_rows(out / "center_diagnostics.csv")[0]
        assert {key: row[key] for key in expected} == \
            {key: f"{v:.17g}" for key, v in expected.items()}

    def test_statistics_hold_one_float_array_and_one_bool_array(
            self, tmp_path, monkeypatch):
        # after the kernel, the caller holds the K centers (8K bytes) and
        # the exit indicator (K bytes) and no K-float temporary: np.var on
        # the centers, or np.std on a float copy of the indicator, would
        # add 8K each.  The constant covers small objects and the 128 KiB
        # that csv.writer allocates for its first row in a process.
        K = 100_000
        cfg_path = make_config(tmp_path, **{"run.K": K, "run.eps": 0.1,
                                            "scenario.delta": 0.0})
        cfg = parse_config(cfg_path.read_text())
        model = build_noise_model(cfg.noise_kind, cfg.grid, sigma=cfg.sigma,
                                  l_c=cfg.l_c)
        _, var = analytic_center_law(0.1, cfg.grid.T, model, cfg.wave)
        prepared = np.sqrt(var) * np.random.default_rng(5).standard_normal(K)
        before = []

        def prepared_centers(*args, **kwargs):
            before.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return prepared.copy()

        monkeypatch.setattr(cli, "sample_terminal_states", prepared_centers)
        tracemalloc.start()
        try:
            assert main(["center-diagnostics", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before[0] <= 8 * K + K + 192 * 1024


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # command itself imports
    src = os.path.dirname(os.path.dirname(shockld.__file__))
    code = ("import sys, shockld.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
