"""End-to-end tests of the command-line front end.

Everything drives ``martkit.cli.main`` in process and inspects the files
or captured stdout it produces; one test runs the module as a subprocess
to cover the ``python -m`` entry.  Float cells are written at 17
significant digits, so reparsing a CSV must reproduce the library's
doubles bit for bit; that equality is asserted rather than approximated.
"""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import martkit
from martkit.applications import (least_squares, RegressionData,
                                  self_norm_envelope, wang_jing_bound)
from martkit.bounds import (BernsteinParams, BoundConstant, lambda_bar,
                            nonuniform_be_envelope)
from martkit import cli, montecarlo
from martkit.cli import main
from martkit.martingales import ScaledRademacher
from martkit.montecarlo import SimulationConfig, calibrate_constant


def run_csv(tmp_path, argv, name="out.csv"):
    """Run main() writing CSV to a temp file; return (rc, header, rows)."""
    out = tmp_path / name
    rc = main(list(argv) + ["--format", "csv", "--out", str(out)])
    if not out.exists():
        return rc, [], []
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return rc, header, rows


def cell(row, header, name):
    return row[header.index(name)]


class TestExitCodes:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bound", "--envelope", "dlp", "--frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["bound"]) == 2

    def test_verify_has_no_max_order_flag(self, capsys):
        assert main(["verify", "--model", "rademacher", "--n", "8",
                     "--paths", "300", "--max-order", "8"]) == 2
        assert "--max-order" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--z-mean", "--no-z-mean"])
    def test_verify_has_no_z_mean_flag(self, capsys, flag):
        assert main(["verify", "--model", "rademacher", "--n", "8",
                     "--paths", "300", flag]) == 2
        assert flag in capsys.readouterr().err

    def test_model_without_n_is_config_error(self, capsys):
        assert main(["simulate", "--model", "rademacher"]) == 2

    def test_tilt_with_plain_estimator_is_config_error(self, capsys):
        assert main(["simulate", "--model", "rademacher", "--n", "4",
                     "--tilt", "0.5"]) == 2

    def test_application_epsilon_out_of_range_is_domain_error(self, capsys):
        assert main(["bound", "--envelope", "regression",
                     "--epsilon", "0.9"]) == 3

    def test_bernstein_epsilon_out_of_range_is_domain_error(self, capsys):
        rc = main(["bound", "--envelope", "thm21", "--epsilon", "0.9"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "(0, 1/2]" in err

    def test_negative_threshold_for_tail_bound_is_domain_error(self, capsys):
        assert main(["bound", "--envelope", "thm22", "--x-from", "-1",
                     "--x-to", "-1"]) == 3

    def test_non_finite_domination_level_is_domain_error(self, capsys):
        assert main(["verify", "--model", "rademacher", "--n", "8",
                     "--paths", "300", "--levels", "nan"]) == 3
        assert capsys.readouterr().err == \
            "error: domination_levels values must be finite\n"

    def test_negative_domination_level_is_refused_before_drawing(
            self, monkeypatch, capsys):
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(montecarlo, "generator_for", no_draw)
        assert main(["verify", "--model", "selfnorm", "--n", "64",
                     "--a", "1", "--b", "2.5", "--paths", "50000",
                     "--levels=-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: domination_levels values must be nonnegative\n"

    @pytest.mark.parametrize("fraction", ["1", "1.5", "-0.2", "nan"])
    def test_tilt_fraction_outside_unit_interval_is_domain_error(
            self, fraction, capsys):
        assert main(["verify", "--model", "selfnorm", "--n", "64",
                     "--a", "1", "--b", "2.5", "--paths", "300",
                     "--lam-fractions", fraction]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tilt")

    def test_bad_env_seed_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MARTKIT_SEED", "not-a-number")
        assert main(["simulate", "--model", "rademacher", "--n", "4"]) == 2

    def test_failed_verification_exits_four(self, tmp_path, capsys,
                                            monkeypatch):
        # a zero band puts every VarianceSwitch path outside it
        monkeypatch.setattr(montecarlo, "verify_A2",
                            lambda model: (0.0, True))
        rc, header, rows = run_csv(
            tmp_path,
            ["verify", "--model", "variance-switch", "--n", "64",
             "--delta", "0.5", "--paths", "20000", "--seed", "13",
             "--lam-fractions", "0.9", "--levels", ""])
        assert rc == 4
        kinds = [r[0] for r in rows]
        assert "violation" in kinds
        bad = [r for r in rows if r[0] == "violation"]
        assert any(cell(r, header, "name") == "characteristic-band"
                   for r in bad)
        assert all(cell(r, header, "chunk") and cell(r, header, "row")
                   for r in bad)
        assert "seed 13" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [
        ["--paths", "1000000000", "--chunk-size", "1000000000"],
        ["--paths", "1000000000000", "--chunk-size", "1"],
    ])
    def test_oversized_chunk_config_is_refused_before_drawing(
            self, monkeypatch, capsys, sizes):
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(montecarlo, "generator_for", no_draw)
        assert main(["simulate", "--model", "selfnorm", "--n", "64",
                     "--a", "1", "--b", "2", "--seed", "1",
                     "--no-exhaustive"] + sizes) == 2
        assert "above the cap" in capsys.readouterr().err


class TestBoundCommand:
    def test_thm21_matches_library_bit_for_bit(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "thm21", "--epsilon", "0.05",
                       "--delta", "0.1", "--C", "1.5", "--x-from", "0",
                       "--x-to", "3", "--x-step", "0.5"])
        assert rc == 0
        assert header == ["x", "xhat", "lambda_bar", "value", "log_value"]
        params = BernsteinParams(0.05, 0.1)
        c = BoundConstant(1.5)
        assert len(rows) == 7
        for row in rows:
            x = float(cell(row, header, "x"))
            env = nonuniform_be_envelope(x, params, c)
            assert float(cell(row, header, "value")) == env.value
            assert float(cell(row, header, "log_value")) == env.log_value
            assert float(cell(row, header, "xhat")) == env.xhat
            assert float(cell(row, header, "lambda_bar")) == \
                lambda_bar(abs(x), params)

    def test_dlp_is_one_at_origin(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "dlp", "--epsilon", "0.1",
                       "--x-from", "0", "--x-to", "0"])
        assert rc == 0
        assert float(cell(rows[0], header, "value")) == 1.0
        assert cell(rows[0], header, "xhat") == ""

    def test_mills_sandwich_rows_are_ordered(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "mc-sandwich", "--x-from", "1",
                       "--x-to", "2", "--x-step", "1"])
        assert rc == 0
        assert header[-1] == "variant"
        assert len(rows) == 6
        for i in (0, 3):
            lo, mid, hi = (float(cell(r, header, "value"))
                           for r in rows[i:i + 3])
            assert lo < mid < hi
            assert [cell(r, header, "variant") for r in rows[i:i + 3]] == \
                ["lower", "exact", "upper"]

    def test_classical_emits_three_variants_per_point(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "classical",
                       "--third-moments", "0.01", "--trunc-second", "0.001",
                       "--trunc-third", "0.002", "--qc-moment", "0.005",
                       "--delta-m", "1", "--x-from", "0", "--x-to", "1",
                       "--x-step", "0.5"])
        assert rc == 0
        variants = [cell(r, header, "variant") for r in rows]
        assert variants == ["bikelis", "chen_shao", "haeusler_joos"] * 3

    def test_wang_jing_matches_library(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "wang-jing", "--l3n", "0.02",
                       "--tail-sum", "0.001", "--C", "0.8", "--x-from", "0",
                       "--x-to", "4", "--x-step", "1"])
        assert rc == 0
        for row in rows:
            x = float(cell(row, header, "x"))
            want = wang_jing_bound(x, 0.02, 0.001, BoundConstant(0.8))
            assert float(cell(row, header, "value")) == want

    def test_selfnorm_token_matches_library(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "selfnorm", "--epsilon",
                       "0.05", "--x-from", "0.5", "--x-to", "0.5"])
        assert rc == 0
        want = self_norm_envelope(0.5, 0.05).envelope
        assert float(cell(rows[0], header, "value")) == want.value

    def test_json_format_carries_manifest_and_rows(self, tmp_path):
        out = tmp_path / "bound.json"
        rc = main(["bound", "--envelope", "thm21", "--epsilon", "0.1",
                   "--x-from", "0", "--x-to", "1", "--x-step", "1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text(encoding="utf-8"))
        assert set(blob) == {"manifest", "rows"}
        man = blob["manifest"]
        assert man["command"] == "bound"
        assert man["toolkit_version"] == "0.1.0"
        assert man["parameters"]["epsilon"] == 0.1
        assert str(out) in man["outputs"]
        env = nonuniform_be_envelope(1.0, BernsteinParams(0.1))
        assert blob["rows"][1]["value"] == env.value

    def test_single_point_grid_ignores_step(self, tmp_path):
        rc, _, rows = run_csv(
            tmp_path, ["bound", "--envelope", "dlp", "--x-from", "2",
                       "--x-to", "2", "--x-step", "0"])
        assert rc == 0
        assert len(rows) == 1

    def test_descending_grid_is_config_error(self, capsys):
        assert main(["bound", "--envelope", "dlp", "--x-from", "2",
                     "--x-to", "1"]) == 2

    @pytest.mark.parametrize("grid", [
        ["--x-from", "0", "--x-to", "1", "--x-step", "1e-300"],
        ["--x-from=-1e308", "--x-to", "1e308", "--x-step", "1"],
        ["--x-from", "0", "--x-to", "1", "--x-step", "5e-324"],
    ])
    def test_oversized_grid_is_refused_before_building(self, monkeypatch,
                                                      capsys, grid):
        def no_build(*args):
            raise AssertionError("grid points were generated")

        # _x_grid builds its points through range(); shadow it in the module
        monkeypatch.setattr(cli, "range", no_build, raising=False)
        assert main(["bound", "--envelope", "dlp"] + grid) == 2
        assert "points" in capsys.readouterr().err

    def test_grid_cap_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "X_GRID_MAX_POINTS", 5)
        rc, _, rows = run_csv(tmp_path, ["bound", "--envelope", "dlp",
                                         "--x-from", "0", "--x-to", "2",
                                         "--x-step", "0.5"])
        assert rc == 0 and len(rows) == 5
        assert main(["bound", "--envelope", "dlp", "--x-from", "0",
                     "--x-to", "2.5", "--x-step", "0.5"]) == 2
        assert cli.X_GRID_MAX_POINTS == 5


class TestSimulateCommand:
    def test_exhaustive_four_step_walk_is_exact(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "rademacher", "--n", "4",
                       "--exhaustive", "--x-from", "0.9", "--x-to", "0.9"])
        assert rc == 0
        (row,) = rows
        assert float(cell(row, header, "p_hat")) == 0.3125
        assert float(cell(row, header, "ci_lo")) == 0.3125
        assert cell(row, header, "method") == "exact_enumeration"

    def test_plain_sampling_interval_brackets_estimate(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "variance-switch", "--n", "32",
                       "--delta", "0.5", "--paths", "5000", "--seed", "2",
                       "--x-from", "0.5", "--x-to", "1.5", "--x-step", "0.5"])
        assert rc == 0
        assert len(rows) == 3
        for row in rows:
            lo = float(cell(row, header, "ci_lo"))
            p = float(cell(row, header, "p_hat"))
            hi = float(cell(row, header, "ci_hi"))
            assert lo <= p <= hi
            assert cell(row, header, "method") == "plain_clopper_pearson"
            assert cell(row, header, "seed") == "2"

    def test_is_estimator_with_explicit_tilt(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "selfnorm", "--n", "32",
                       "--a", "1", "--b", "2", "--paths", "4000",
                       "--seed", "9", "--estimator", "is", "--tilt", "0.8",
                       "--no-exhaustive", "--x-from", "2", "--x-to", "2"])
        assert rc == 0
        (row,) = rows
        assert cell(row, header, "method") == "importance_sampled_delta"
        assert float(cell(row, header, "effective_samples")) > 1.0

    def test_is_estimator_default_tilt(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "rademacher", "--n", "64",
                       "--paths", "3000", "--seed", "4", "--estimator", "is",
                       "--x-from", "3", "--x-to", "3"])
        assert rc == 0
        assert 0.0 < float(cell(rows[0], header, "p_hat")) < 0.01

    def test_weights_flag_builds_unequal_model(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "rademacher", "--weights",
                       "0.5,0.5,0.5,0.5", "--exhaustive", "--x-from", "0.9",
                       "--x-to", "0.9"])
        assert rc == 0
        assert float(cell(rows[0], header, "p_hat")) == 0.3125


class TestVerifyCommand:
    def test_passing_run_reports_checks(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["verify", "--model", "rademacher", "--n", "16",
                       "--paths", "8000", "--seed", "21"])
        assert rc == 0
        kinds = {r[0] for r in rows}
        assert kinds == {"condition", "check", "z_stat"}
        names = [cell(r, header, "name") for r in rows if r[0] == "check"]
        assert "drift-bound" in names
        assert "log-mgf-bound" in names
        zrows = [r for r in rows if r[0] == "z_stat"]
        assert len(zrows) == 3
        for r in zrows:
            assert float(cell(r, header, "se")) > 0.0

    def test_verify_twice_is_byte_identical(self, tmp_path):
        argv = ["verify", "--model", "rademacher", "--n", "8",
                "--paths", "8000", "--seed", "21", "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_tilt_fractions_is_config_error(self, capsys,
                                                     monkeypatch):
        # each tilt holds three rows-long arrays per chunk: a long
        # --lam-fractions list is refused before any chunk is drawn
        def no_draws(*args, **kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(montecarlo, "_simulate_chunk", no_draws)
        fractions = ",".join(["0.5"] * (montecarlo.VERIFY_TILT_MAX + 1))
        assert main(["verify", "--model", "selfnorm", "--n", "64",
                     "--a", "1", "--b", "2.5", "--paths", "300",
                     "--lam-fractions", fractions]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {montecarlo.VERIFY_TILT_MAX + 1} tilt fractions, above "
            f"the cap of {montecarlo.VERIFY_TILT_MAX}\n")

    def test_json_report_has_replay_coordinates(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(montecarlo, "verify_A2",
                            lambda model: (0.0, True))
        out = tmp_path / "verify.json"
        rc = main(["verify", "--model", "variance-switch", "--n", "64",
                   "--delta", "0.5", "--paths", "20000", "--seed", "13",
                   "--lam-fractions", "0.9", "--levels", "", "--format",
                   "json", "--out", str(out)])
        assert rc == 4
        blob = json.loads(out.read_text(encoding="utf-8"))
        assert blob["passed"] is False
        assert blob["manifest"]["seed"] == 13
        assert blob["violations"]
        assert all(v["check"] for v in blob["violations"])
        assert all(v["chunk"] is not None and v["row"] is not None
                   for v in blob["violations"])
        assert blob["z_stats"][0]["se"] > 0.0


class TestCalibrateCommand:
    def test_matches_direct_call_and_repeats_c_hat(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["calibrate", "--model", "rademacher", "--n", "16",
                       "--envelope", "thm21", "--paths", "5000",
                       "--seed", "3", "--x-from", "0", "--x-to", "2",
                       "--x-step", "1"])
        assert rc == 0
        config = SimulationConfig(ScaledRademacher.equal_weights(16),
                                  paths=5000, seed=3)
        want = calibrate_constant(config, "thm21", (0.0, 1.0, 2.0))
        hats = {cell(r, header, "c_hat") for r in rows}
        assert hats == {"%.17g" % want.c_hat}
        for row, e, u in zip(rows, want.empirical, want.units):
            assert float(cell(row, header, "empirical")) == e
            assert float(cell(row, header, "unit")) == u

    def test_unknown_envelope_is_usage_error(self, capsys):
        assert main(["calibrate", "--model", "rademacher", "--n", "16",
                     "--envelope", "thm99"]) == 2


class TestRegressCommand:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("phi,x\n1.0,2.1\n2.0,3.9\n1.5,3.1\n1.0,1.9\n"
                        "2.0,4.1\n", encoding="utf-8")
        return path

    def test_report_ci_coverage_bundle(self, tmp_path, data_file):
        out = tmp_path / "reg.json"
        rc = main(["regress", "--data", str(data_file), "--coverage", "200",
                   "--n", "50", "--theta", "2.0", "--seed", "11",
                   "--level", "0.95", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text(encoding="utf-8"))
        assert set(blob) == {"manifest", "report", "ci", "coverage"}
        data = RegressionData.from_csv(str(data_file))
        assert blob["report"]["theta_hat"] == least_squares(data)
        assert blob["ci"]["lo"] < blob["report"]["theta_hat"] < \
            blob["ci"]["hi"]
        cov = blob["coverage"]
        assert cov["replications"] == 200
        assert cov["rate"] >= 0.9

    def test_csv_long_format_has_summary_rows(self, tmp_path, data_file):
        rc, header, rows = run_csv(
            tmp_path, ["regress", "--data", str(data_file)])
        assert rc == 0
        assert header == ["kind", "x", "value"]
        kinds = [r[0] for r in rows]
        for want in ("envelope", "theta_hat", "eps", "ci_lo", "ci_hi",
                     "x_star"):
            assert want in kinds

    def test_needs_data_or_coverage(self, capsys):
        assert main(["regress"]) == 2

    def test_coverage_needs_model_size(self, capsys):
        assert main(["regress", "--coverage", "10"]) == 2

    def test_eps_override_changes_interval(self, tmp_path, data_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["regress", "--data", str(data_file), "--out", str(out1)])
        main(["regress", "--data", str(data_file), "--eps", "0.01",
              "--out", str(out2)])
        w1 = json.loads(out1.read_text())["ci"]
        w2 = json.loads(out2.read_text())["ci"]
        assert (w2["hi"] - w2["lo"]) < (w1["hi"] - w1["lo"])


class TestSelfnormCommand:
    def test_inline_sample_statistic(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["selfnorm", "--sample", "1,-1,1,1,-1,1,1"])
        assert rc == 0
        stat = [r for r in rows if r[0] == "statistic"]
        assert float(cell(stat[0], header, "value")) == \
            pytest.approx(3.0 / math.sqrt(7.0), rel=1e-15)
        eps = [r for r in rows if r[0] == "eps"]
        assert float(cell(eps[0], header, "value")) == \
            pytest.approx(1.0 / math.sqrt(7.0), rel=1e-15)

    def test_data_file_with_header(self, tmp_path):
        path = tmp_path / "xi.csv"
        path.write_text("xi\n1.0\n-2.0\n3.0\n", encoding="utf-8")
        out = tmp_path / "sn.json"
        rc = main(["selfnorm", "--data", str(path), "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text(encoding="utf-8"))
        want = 2.0 / math.sqrt(14.0)
        assert blob["report"]["statistic"] == pytest.approx(want, rel=1e-15)

    def test_wrong_header_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "xi.csv"
        path.write_text("values\n1.0\n", encoding="utf-8")
        assert main(["selfnorm", "--data", str(path)]) == 2

    def test_sample_and_data_are_mutually_exclusive(self, tmp_path, capsys):
        path = tmp_path / "xi.csv"
        path.write_text("xi\n1.0\n", encoding="utf-8")
        assert main(["selfnorm", "--sample", "1,2", "--data",
                     str(path)]) == 2
        assert main(["selfnorm"]) == 2

    def test_band_rows_bracket_one(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["selfnorm", "--sample", ",".join(["1"] * 400),
                       "--x-from", "1", "--x-to", "1"])
        assert rc == 0
        lo = [r for r in rows if r[0] == "band_lo"]
        hi = [r for r in rows if r[0] == "band_hi"]
        assert float(cell(lo[0], header, "value")) < 1.0
        assert float(cell(hi[0], header, "value")) > 1.0


class TestOutputHygiene:
    def test_csv_uses_lf_and_utf8_with_header(self, tmp_path):
        out = tmp_path / "h.csv"
        main(["bound", "--envelope", "dlp", "--out", str(out),
              "--format", "csv"])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "x,xhat,lambda_bar,value,log_value"

    def test_float_cells_reparse_exactly(self, tmp_path):
        rc, header, rows = run_csv(
            tmp_path, ["bound", "--envelope", "thm22", "--epsilon", "0.03",
                       "--delta", "0.05", "--x-from", "0", "--x-to", "4",
                       "--x-step", "0.25"])
        assert rc == 0
        from martkit.bounds import strengthened_tail_envelope
        params = BernsteinParams(0.03, 0.05)
        for row in rows:
            x = float(cell(row, header, "x"))
            env = strengthened_tail_envelope(x, params)
            assert float(cell(row, header, "value")) == env.value

    def test_manifest_sidecar_lists_outputs(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["simulate", "--model", "rademacher", "--n", "4",
              "--exhaustive", "--seed", "5", "--out", str(out),
              "--format", "csv"])
        man = json.loads((tmp_path / "m.csv.manifest.json")
                         .read_text(encoding="utf-8"))
        assert man["command"] == "simulate"
        assert man["seed"] == 5
        assert str(out) in man["outputs"]
        assert str(out) + ".manifest.json" in man["outputs"]
        assert man["started_at"] <= man["finished_at"]

    def test_json_runs_differ_only_in_timestamps(self, tmp_path):
        argv = ["simulate", "--model", "rademacher", "--n", "10",
                "--paths", "2000", "--seed", "8", "--format", "json"]
        blobs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            blob = json.loads(out.read_text(encoding="utf-8"))
            for key in ("started_at", "finished_at"):
                blob["manifest"].pop(key)
            blob["manifest"]["outputs"] = ["normalized"]
            blob["manifest"]["parameters"]["out"] = "normalized"
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_env_seed_default_and_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARTKIT_SEED", "314")
        _, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "rademacher", "--n", "6",
                       "--paths", "1000", "--no-exhaustive"], "env.csv")
        assert all(cell(r, header, "seed") == "314" for r in rows)
        _, header, rows = run_csv(
            tmp_path, ["simulate", "--model", "rademacher", "--n", "6",
                       "--paths", "1000", "--no-exhaustive", "--seed", "9"],
            "flag.csv")
        assert all(cell(r, header, "seed") == "9" for r in rows)

    def test_bound_records_seed_zero_and_ignores_env_seed(self, tmp_path,
                                                          monkeypatch):
        # bound draws nothing, so MARTKIT_SEED is never read, even if bad
        for env in ("314", "not-a-number"):
            monkeypatch.setenv("MARTKIT_SEED", env)
            out = tmp_path / "bound.json"
            assert main(["bound", "--envelope", "dlp", "--format", "json",
                         "--out", str(out)]) == 0
            blob = json.loads(out.read_text(encoding="utf-8"))
            assert blob["manifest"]["seed"] == 0

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for w, name in (("1", "w1.csv"), ("8", "w8.csv")):
            out = tmp_path / name
            rc = main(["simulate", "--model", "variance-switch", "--n", "48",
                       "--delta", "0.4", "--paths", "20000", "--seed", "5",
                       "--workers", w, "--chunk-size", "2048",
                       "--format", "csv", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_output_when_out_is_dash(self, capsys):
        rc = main(["bound", "--envelope", "dlp", "--x-from", "1",
                   "--x-to", "1"])
        assert rc == 0
        got = capsys.readouterr().out
        assert got.startswith("x,xhat,lambda_bar,value,log_value\n")

    def test_json_is_strict_with_non_finite_floats_as_cell_text(
            self, tmp_path):
        # log 0 is -inf, and the unread --l3n flag records inf in the
        # manifest; strict JSON has no number for either, so both are
        # written as their CSV cell text, in the JSON output and in the
        # CSV sidecar manifest alike
        def strict(text):
            def refuse(name):
                raise ValueError(f"non-standard JSON constant {name}")
            return json.loads(text, parse_constant=refuse)

        argv = ["bound", "--envelope", "classical", "--x-from", "0",
                "--x-to", "0", "--l3n", "inf"]
        out = tmp_path / "c.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        blob = strict(out.read_text(encoding="utf-8"))
        assert [row["log_value"] for row in blob["rows"]] == ["-inf"] * 3
        assert [row["value"] for row in blob["rows"]] == [0.0] * 3
        assert blob["manifest"]["parameters"]["l3n"] == "inf"
        rc, header, rows = run_csv(tmp_path, argv, "c.csv")
        assert rc == 0
        assert [cell(r, header, "log_value") for r in rows] == ["-inf"] * 3
        man = strict((tmp_path / "c.csv.manifest.json")
                     .read_text(encoding="utf-8"))
        assert man["parameters"]["l3n"] == "inf"
        assert cli._strict([math.nan, (1.5, -math.inf)]) == \
            ["nan", [1.5, "-inf"]]

    def test_wang_jing_far_tail_is_strict_json(self, tmp_path):
        # the bound carries the Gaussian factor exp(-x^2/2), so it
        # underflows to 0 past x = 38.6: its log is written as "-inf", and
        # the finite rows keep the library's doubles
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        out = tmp_path / "w.json"
        assert main(["bound", "--envelope", "wang-jing", "--l3n", "0.02",
                     "--tail-sum", "0.001", "--x-from", "38", "--x-to", "40",
                     "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"),
                          parse_constant=refuse)["rows"]
        c = BoundConstant(1.0)
        values = [wang_jing_bound(r["x"], 0.02, 0.001, c) for r in rows]
        assert [r["value"] for r in rows] == values
        assert values[0] > 0.0 and values[-1] == 0.0
        assert [r["log_value"] for r in rows] == \
            [math.log(v) if v > 0.0 else "-inf" for v in values]

    def test_finite_floats_keep_their_json_text(self):
        # strict output replaces only non-finite floats, so every finite
        # number, subnormal and signed zero included, prints as before
        payload = {"a": [0.1, 5e-324, 1.7976931348623157e308, -0.0, 3],
                   "b": (2.5, "x", None, True), "c": {"d": 1e-300}}
        assert json.dumps(cli._strict(payload), indent=2, allow_nan=False) \
            == json.dumps(payload, indent=2)


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        # Run the same martkit the suite imported, installed or from a
        # source checkout: a relative PYTHONPATH would not resolve from
        # tmp_path.
        pkg_root = str(Path(martkit.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(
            p for p in [pkg_root, os.environ.get("PYTHONPATH")] if p)
        proc = subprocess.run(
            [sys.executable, "-m", "martkit.cli", "bound", "--envelope",
             "dlp", "--x-from", "0", "--x-to", "0"],
            capture_output=True, text=True,
            cwd=str(tmp_path), env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1].startswith("0,")


class TestReadmeCommands:
    def test_command_line_examples_exit_zero(self, tmp_path, monkeypatch,
                                             capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "\n## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        assert len(lines) == 6
        monkeypatch.chdir(tmp_path)
        (tmp_path / "design.csv").write_text(
            "phi,x\n1.0,2.1\n2.0,3.9\n1.5,3.1\n1.0,1.9\n2.0,4.1\n",
            encoding="utf-8")
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "martkit"
            assert main(argv[1:]) == 0, (line, capsys.readouterr().err)
