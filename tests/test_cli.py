import csv
import json
import math

import pytest

from shockld.cli import main, read_path_csv
from shockld.config import ConfigError, parse_config
from shockld.grid import SpaceTimeGrid, WaveSpec
from shockld.montecarlo import epsilon_sweep
from shockld.noise import build_noise_model
from shockld.rate import rate

TABLE1 = {
    "grid": {"L": -15.0, "R": 20.0, "dx": 0.5, "T": 1.0, "dt": 0.05},
    "wave": {"u_minus": 2.0, "u_plus": 1.0, "D": 1.0, "gamma_frame": 1.5},
    "noise": {"kind": "exponential", "sigma": 1.0, "l_c": 5.0},
    "scenario": {"kind": "displacement", "x0": 5.0,
                 "delta": math.sqrt(0.5)},
    "run": {"seed": 1234, "K": 10000, "eps": 0.15},
}


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

    def test_estimator_names_validated(self, tmp_path):
        text = make_config(tmp_path, **{"run.estimators": ["mc", "magic"]}).read_text()
        with pytest.raises(ConfigError, match="magic"):
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
        assert row["format_version"] == "1"
        grid = SpaceTimeGrid.from_spacing(-15.0, 20.0, 0.5, 1.0, 0.1)
        wave = WaveSpec(2.0, 1.0, 1.0, gamma=1.5)
        model = build_noise_model("identity", grid)
        path = read_path_csv(out / "optimal_path.csv", grid, wave)
        assert rate(path, model) == pytest.approx(float(row["I_star"]),
                                                  abs=1e-10)
        meta = json.loads((out / "optimize_meta.json").read_text())
        assert meta["code_version"]
        assert meta["config"]["grid"]["dx"] == 0.5
        record = meta["optimizer"]
        assert record["iterations"] == int(row["iterations"])
        assert record["evaluations"] > record["iterations"]
        assert record["outer_steps"] is None

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
        assert record["outer_steps"] >= 1

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

    def test_sweep_eps_threads_byte_identical(self, tmp_path, ball_scen,
                                              exp_model, ball_exp_opt,
                                              pinned_exp_opt):
        cfg_path = make_config(
            tmp_path,
            **{"run.K": 120, "run.eps": None,
               "run.eps_grid": [0.1, 0.15, 0.2],
               "run.estimators": ["mc", "is0", "is-delta"]})
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["sweep-eps", "--config", str(cfg_path), "--out",
                         str(out), "--threads", threads]) == 0
            outs.append((out / "reports.csv").read_bytes())
        assert outs[0] == outs[1]
        # the points keep epsilon_sweep's run keys
        rows = read_rows(tmp_path / "t2" / "reports.csv")
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

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHOCKLD_THREADS", "2")
        cfg_path = make_config(
            tmp_path,
            **{"grid.dt": 0.1, "noise.kind": "identity", "noise.sigma": None,
               "noise.l_c": None, "scenario.delta": 0.0,
               "run.x0_grid": [0.0, 1.0], "run.K": None, "run.eps": None})
        out = tmp_path / "out"
        assert main(["sweep-x0", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert len(read_rows(out / "rate_summary.csv")) == 2
