import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hndeploy.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from hndeploy.config import config_from_dict, load_config
from hndeploy import validate


def _write_config(tmp_path, **overrides):
    cfg = {
        "models": ["half_normal", "uniform"],
        "sigma_values": [10.0],
        "n_values": [10, 50],
        "s_values": [5.0],
        "d_values": [5.0],
        "r_values": [1.0],
        "region": [-50.0, 50.0, -50.0, 50.0],
        "trials": 2000,
        "master_seed": 42,
        "output_path": str(tmp_path / "sweep.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSampleCommand:
    def test_empty_deployment_writes_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sample", "--model", "half_normal", "--sigma", "5", "--n", "0",
                   "--seed", "1", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == "x,y\n"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sample", "--model", "uniform", "--n", "100", "--seed", "7",
                "--region", "0", "10", "0", "10"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_half_normal_column_mean(self, tmp_path):
        out = tmp_path / "hn.csv"
        rc = main(["sample", "--model", "half_normal", "--sigma", "5", "--n", "100000",
                   "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        xs = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
        assert abs(xs.mean() - 5.0 * math.sqrt(2.0 / math.pi)) < 0.05

    def test_unwritable_path(self, tmp_path):
        rc = main(["sample", "--model", "half_normal", "--sigma", "1", "--n", "1",
                   "--seed", "1", "--out", str(tmp_path / "missing" / "s.csv")])
        assert rc == EXIT_IO

    def test_missing_sigma_rejected(self, tmp_path):
        rc = main(["sample", "--model", "half_normal", "--n", "1", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_VALIDATION


class TestAnalyticCommand:
    def test_zero_sensors(self, capsys):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "5", "-d", "3", "-N", "0"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["p_d"] == 0.0

    def test_components_sum_and_json_round_trip(self, capsys):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "5", "-d", "3", "-N", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["p_total"] == pytest.approx(
            payload["p_rect"] + payload["p_left"] + payload["p_right"], abs=1e-8)
        assert "p_d=" in out

    def test_matches_library_report(self, capsys):
        from hndeploy.analytic import full_report
        from hndeploy.geometry import IntruderScenario

        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "5", "-d", "3", "-N", "10"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        report = full_report(IntruderScenario(start_s=5.0, distance_d=3.0), 1.0, 5.0, 10)
        assert f"p_d={report.p_d:.10g}" in out

    def test_domain_error_exit_code(self, capsys):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "2", "-d", "3", "-N", "10"])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("bounds", [["0", "inf", "-50", "50"], ["0", "10", "-5", "inf"],
                                        ["0", "10", "nan", "5"]])
    def test_unbounded_region_rejected(self, bounds):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "5", "-d", "3", "-N", "10",
                   "--region", *bounds])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("s,d", [("inf", "3"), ("inf", "inf"), ("5", "nan")])
    def test_non_finite_scenario_rejected(self, s, d):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-N", "10", "-S", s, "-d", d])
        assert rc == EXIT_VALIDATION


    @pytest.mark.parametrize("r", ["inf", "nan", "0", "-1"])
    def test_bad_range_rejected(self, r, capsys):
        rc = main(["analytic", "--sigma", "5", "-r", r, "-S", "5", "-d", "3", "-N", "10"])
        assert rc == EXIT_VALIDATION
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma,r", [("1e-300", "1"), ("5", "1e308")])
    def test_density_overflow_exits_ok(self, sigma, r, capsys):
        # x / (sigma sqrt 2) squared exceeds the float range; the density is 0
        rc = main(["analytic", "--sigma", sigma, "-r", r, "-S", "5", "-d", "3", "-N", "10"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= payload["p_d"] <= 1.0

    @pytest.mark.parametrize("sigma", ["1e-320", "5e-324"])
    def test_subnormal_sigma_rejected(self, sigma, capsys):
        rc = main(["analytic", "--sigma", sigma, "-r", "1", "-S", "5", "-d", "3", "-N", "10"])
        assert rc == EXIT_VALIDATION
        assert "sigma must be" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tolerance_rejected(self, tol, capsys):
        rc = main(["analytic", "--sigma", "5", "-r", "1", "-S", "5", "-d", "3", "-N", "10",
                   "--tolerance", tol])
        assert rc == EXIT_VALIDATION
        assert "absolute_tolerance" in capsys.readouterr().err


class TestSimulateCommand:
    def test_single_trial_binary(self, capsys):
        rc = main(["simulate", "--model", "half_normal", "--sigma", "5", "-N", "10",
                   "-r", "1", "-S", "5", "-d", "3", "--trials", "1", "--seed", "4"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["p_hat"] in (0.0, 1.0)

    @pytest.mark.parametrize("extra", [["--sigma", "nan"], ["--sigma", "inf"],
                                       ["--sigma", "1e-320"], ["--sigma", "5e-324"],
                                       ["--sigma", "5", "--region", "0", "inf", "-5", "5"],
                                       ["--sigma", "5", "-r", "inf"], ["--sigma", "5", "-r", "0"],
                                       ["--sigma", "5", "-r", "-1"], ["--sigma", "5", "-r", "nan"]])
    def test_bad_sigma_range_or_region_rejected(self, extra, capsys):
        rc = main(["simulate", "--model", "half_normal", "-N", "10", "-r", "1", "-S", "5",
                   "-d", "3", "--trials", "100", "--seed", "4", *extra])
        assert rc == EXIT_VALIDATION
        assert "grossly mismatched" not in capsys.readouterr().err

    def test_identical_output_for_same_seed(self, capsys):
        args = ["simulate", "--model", "half_normal", "--sigma", "5", "-N", "10",
                "-r", "1", "-S", "5", "-d", "3", "--trials", "2000", "--seed", "42"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_fixed_field_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "half_normal", "--sigma", "5", "-N", "10", "-r", "1",
                  "-S", "5", "-d", "3", "--trials", "100", "--seed", "4", "--fixed-field"])
        assert exc.value.code == 2
        assert "--fixed-field" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        first = out.read_bytes()
        header = first.decode().splitlines()[0]
        assert header == "model,sigma,N,S,d,r,trials,p_analytic,p_hat,ci_half_width,seed,status"
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        assert out.read_bytes() == first

    def test_cartesian_product_rows(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()[1:]
        models = [line.split(",")[0] for line in lines]
        assert models.count("half_normal") == 2
        assert models.count("uniform") == 2

    def test_bad_config_rejected_before_compute(self, tmp_path):
        for overrides in ({"trials": 0}, {"sigma_values": [-1.0]}, {"typo_key": 1},
                          {"n_values": []}):
            config = _write_config(tmp_path, **overrides)
            assert main(["sweep", "--config", str(config)]) == EXIT_VALIDATION

    def test_empty_output_path_is_a_validation_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, output_path="")
        assert main(["sweep", "--config", str(config)]) == EXIT_VALIDATION
        assert "output_path" in capsys.readouterr().err


class TestPlotCommand:
    def _sweep_csv(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config)]) == EXIT_OK
        return out

    def test_two_series_two_polylines(self, tmp_path):
        csv_path = self._sweep_csv(tmp_path)
        svg = tmp_path / "chart.svg"
        rc = main(["plot", "--csv", str(csv_path), "--x", "N", "--y", "p_hat",
                   "--series", "model", "--out", str(svg)])
        assert rc == EXIT_OK
        content = svg.read_text()
        assert content.count("<polyline") == 2
        assert "http://" not in content.replace('xmlns="http://www.w3.org/2000/svg"', "")

    def test_byte_identical(self, tmp_path):
        csv_path = self._sweep_csv(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["plot", "--csv", str(csv_path), "--x", "N", "--y", "p_hat",
                "--series", "model"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_named(self, tmp_path, capsys):
        csv_path = self._sweep_csv(tmp_path)
        rc = main(["plot", "--csv", str(csv_path), "--x", "N", "--y", "nope",
                   "--out", str(tmp_path / "c.svg")])
        assert rc == EXIT_VALIDATION
        assert "nope" in capsys.readouterr().err

    def test_empty_data_rows(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("N,p_hat\n")
        rc = main(["plot", "--csv", str(empty), "--x", "N", "--y", "p_hat",
                   "--out", str(tmp_path / "c.svg")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("rows", ["1,0.1\ninf,0.2\n", "1,0.1\n2,nan\n", "1,-inf\n2,0.5\n"])
    def test_non_finite_values_rejected(self, tmp_path, capsys, rows):
        data = tmp_path / "bad.csv"
        data.write_text("N,p_hat\n" + rows)
        svg = tmp_path / "c.svg"
        rc = main(["plot", "--csv", str(data), "--x", "N", "--y", "p_hat", "--out", str(svg)])
        assert rc == EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err
        assert not svg.exists()

    def test_range_wider_than_float_rejected(self, tmp_path, capsys):
        # both values are finite, but hi - lo overflows to inf
        data = tmp_path / "wide.csv"
        data.write_text("N,p_hat\n1,-1e308\n2,1e308\n")
        rc = main(["plot", "--csv", str(data), "--x", "N", "--y", "p_hat",
                   "--out", str(tmp_path / "c.svg")])
        assert rc == EXIT_VALIDATION
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["1e16,0.1\n1e16,0.2\n", "1,1e16\n2,1e16\n"])
    def test_constant_series_beyond_2_53(self, tmp_path, rows):
        # a +-0.5 widening of a constant 1e16 column is below its float spacing
        data = tmp_path / "flat.csv"
        data.write_text("N,p_hat\n" + rows)
        svg = tmp_path / "c.svg"
        rc = main(["plot", "--csv", str(data), "--x", "N", "--y", "p_hat", "--out", str(svg)])
        assert rc == EXIT_OK
        assert "<polyline" in svg.read_text()

    def test_range_below_tick_resolution_terminates(self, tmp_path):
        # 0.5-steps cannot move t past 1e16 (its ulp is 2); a separate process
        # with a memory cap keeps a tick loop that never ends from hurting the run
        data = tmp_path / "big.csv"
        data.write_text("N,p_hat\n1e16,0.1\n10000000000000002,0.2\n")
        svg = tmp_path / "c.svg"
        script = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from hndeploy.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "plot", "--csv", str(data), "--x", "N",
             "--y", "p_hat", "--out", str(svg)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
        assert proc.returncode == EXIT_OK, proc.stderr
        content = svg.read_text()
        assert "nan" not in content
        assert content.count(">1e+16</text>") == 1


class TestValidateCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_injected_wrong_normalizer_fails(self, monkeypatch):
        pdf = validate.half_normal_pdf
        monkeypatch.setattr(validate, "half_normal_pdf", lambda y, params: 1.02 * pdf(y, params))
        results = validate.run_validation()
        assert len(results) == 9
        failed = {r.name for r in results if not r.passed}
        assert failed == {"pdf_normalization", "cdf_vs_quadrature"}


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = _write_config(tmp_path)
        config = load_config(str(path))
        assert config.trials == 2000
        assert config.region.area == 10000.0

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"models": ["uniform"], "bogus": 1})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_dict({"models": ["uniform"]})

    def test_rejects_bad_region(self, tmp_path):
        path = _write_config(tmp_path, region=[0.0, 1.0])
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_rejects_out_of_domain(self, tmp_path):
        for overrides in ({"trials": 0}, {"r_values": [0.0]}, {"workers": 0},
                          {"quadrature_tolerance": 0.0}, {"d_values": [-1.0]},
                          {"sigma_values": [5.0, 1e-320]}, {"sigma_values": [5e-324]}):
            path = _write_config(tmp_path, **overrides)
            with pytest.raises(ValueError):
                load_config(str(path))

    @pytest.mark.parametrize("overrides", [
        {"trials": 2.7}, {"trials": True}, {"n_values": [True]}, {"n_values": [10, 2.5]},
        {"master_seed": 1.5}, {"workers": 1.5}, {"workers": True}, {"trials": "20"},
    ])
    def test_rejects_bools_and_fractional_counts(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            load_config(str(_write_config(tmp_path, **overrides)))

    @pytest.mark.parametrize("overrides", [
        {"sigma_values": [math.inf]}, {"s_values": [math.inf]}, {"d_values": [math.nan]},
        {"r_values": [math.inf]}, {"quadrature_tolerance": math.inf},
        {"quadrature_tolerance": math.nan}, {"sigma_values": [True]},
        {"region": [0.0, math.inf, -50.0, 50.0]}, {"region": [0.0, 100.0, -50.0, math.nan]},
    ])
    def test_rejects_non_finite_values(self, tmp_path, overrides):
        # json writes these as Infinity / NaN, which json.load reads back
        with pytest.raises(ValueError):
            load_config(str(_write_config(tmp_path, **overrides)))

    def test_sweep_with_subnormal_sigma_writes_nothing(self, tmp_path, capsys):
        path = _write_config(tmp_path, sigma_values=[1e-320])
        assert main(["sweep", "--config", str(path)]) == EXIT_VALIDATION
        assert "sigma must be" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("output_path", [True, 2, "", None, ["sweep.csv"]])
    def test_rejects_non_string_output_path(self, tmp_path, output_path):
        # true and 2 would be taken as file descriptors 1 and 2 by open()
        with pytest.raises(ValueError, match="output_path"):
            load_config(str(_write_config(tmp_path, output_path=output_path)))

    def test_integral_floats_accepted(self, tmp_path):
        config = load_config(str(_write_config(tmp_path, trials=2000.0, n_values=[10.0],
                                               workers=2.0)))
        assert (config.trials, config.n_values, config.workers) == (2000, [10], 2)
        assert isinstance(config.trials, int)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hndeploy.cli", "analytic", "--sigma", "5",
         "-r", "1", "-S", "5", "-d", "3", "-N", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "p_d=" in proc.stdout
