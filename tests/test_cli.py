import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gfgm.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=30):
    """The CLI in a child process, so an input that hangs fails the test instead of the run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "gfgm.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def assert_one_line_usage_error(code, out, err):
    assert code == 3
    assert out == ""
    assert err.startswith("gfgm: error: ") and len(err.strip().splitlines()) == 1


class TestExtremal:
    def test_d5_half_csv_rows(self, capsys):
        code, out, _ = run(capsys, "extremal", "--d", "5", "--p", "1/2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0] == ["label", "k1", "k2", "w1", "w2"]
        assert len(rows) == 10
        assert rows[1] == ["rD1", "0", "3", "1/6", "5/6"]

    def test_d2_half_two_rows(self, capsys):
        code, out, _ = run(capsys, "extremal", "--d", "2", "--p", "1/2", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_vector_p_dispatches_to_vertices(self, capsys, tmp_path):
        out_file = tmp_path / "v.json"
        code, _, _ = run(capsys, "extremal", "--p", "1/2,1/3,2/3", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) == 12

    def test_missing_d_is_usage_error(self, capsys):
        code, _, err = run(capsys, "extremal", "--p", "1/2")
        assert code == 3
        assert "error" in err


class TestVertices:
    def test_writes_pmf_json(self, capsys, tmp_path):
        out_file = tmp_path / "vertices.json"
        code, _, err = run(capsys, "vertices", "--p", "1/2,1/2", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) == 2
        assert all(obj["order"] == "revlex" for obj in payload)
        assert "2 vertices" in err

    def test_cap_violation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "vertices", "--p", ",".join(["1/2"] * 6))
        assert code == 3
        assert out == ""
        assert err.startswith("gfgm: error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("p", ["1/2,,1/3", "1/2,1/3,", ",1/2,1/3"])
    def test_empty_p_entry_is_usage_error(self, capsys, p):
        code, out, err = run(capsys, "vertices", "--p", p)
        assert_one_line_usage_error(code, out, err)
        assert "empty entry" in err

    @pytest.mark.parametrize("command", ["vertices", "extremal"])
    def test_cap_is_not_an_option(self, capsys, command):
        code, out, err = run(capsys, command, "--p", "1/2,1/3", "--cap", "6")
        assert code == 3
        assert out == ""
        assert "--cap" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("command", ["vertices", "extremal"])
    def test_csv_format_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--p", "1/2,1/3", "--format", "csv")
        assert code == 3
        assert out == ""
        assert "--format" in err.strip().splitlines()[-1]


class TestBounds:
    def test_fast_exponential_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bounds", "--margin", "exp:0.1", "--d", "100", "--p", "1/2",
            "--measures", "es:0.95,entropic:0.001", "--fast", "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["schema"] == "gfgm-risk-report/1"
        assert report["min"]["es:0.95"]["value"] == pytest.approx(1187.9935, abs=1e-3)

    def test_fast_refuses_var(self, capsys):
        code, _, _ = run(
            capsys, "bounds", "--margin", "exp:0.1", "--d", "10", "--p", "1/2",
            "--measures", "var:0.95", "--fast",
        )
        assert code == 3

    def test_grid_over_budget_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--margin", "uniform", "--d", "100", "--p", "1/2",
            "--grid", "1e-6", "--alpha", "0.95",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("gfgm: error: grid of") and "budget" in err
        assert len(err.strip().splitlines()) == 1

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--margin", "exp:0.1", "--d", "4", "--p", "1/0",
                             "--alpha", "0.9")
        assert code == 3
        assert out == ""
        assert err.startswith("gfgm: error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_exponential_rate_is_usage_error(self, rate):
        # these used to hang in the mixed-Erlang quantile, hence the child process
        code, out, err = run_process("bounds", "--margin", f"exp:{rate}", "--d", "4", "--p", "1/2",
                                     "--measures", "std,es:0.9")
        assert_one_line_usage_error(code, out, err)
        assert "rate" in err

    @pytest.mark.parametrize("rate", ["-inf", "0", "-1", "1e-200", "1e-160", "1e160"])
    def test_out_of_range_exponential_rate_is_usage_error(self, capsys, rate):
        # 1e-200 used to end in a ZeroDivisionError traceback from the variance
        code, out, err = run(capsys, "bounds", "--margin", f"exp:{rate}", "--d", "4", "--p", "1/2",
                             "--measures", "std,es:0.9")
        assert_one_line_usage_error(code, out, err)
        assert "rate" in err

    @pytest.mark.parametrize("rate", ["1e154", "8.7e-155"])
    def test_overflow_after_parsing_is_usage_error(self, capsys, rate):
        # the rate is accepted, but the mixture rate rate / (1 - p) has a square of 4e308 or,
        # at 8.7e-155, the squared mean of the sum overflowed in the variance (OverflowError)
        code, out, err = run(capsys, "bounds", "--margin", f"exp:{rate}", "--d", "3", "--p", "1/2",
                             "--measures", "std")
        assert_one_line_usage_error(code, out, err)
        assert "out of range" in err

    @pytest.mark.parametrize("rate", ["1e10", "1e-150"])
    def test_exponential_p_near_one_is_refused_at_the_stage_budget(self, rate):
        # these built 4.4e7-stage rows and ran past a 60-s timeout, hence the child process
        code, out, err = run_process("bounds", "--margin", f"exp:{rate}", "--d", "4",
                                     "--p", "999999/1000000",
                                     "--measures", "std,es:0.9,entropic:0.01,var:0.9")
        assert_one_line_usage_error(code, out, err)
        assert "d=4, p=0.999999 need 4.418e+07 Erlang stages" in err

    def test_exponential_var_above_the_kept_mass_is_refused(self):
        # the truncated stage weights keep 1 - 5.7e-13 here; the quantile search never ended
        code, out, err = run_process("bounds", "--margin", "exp:0.1", "--d", "4", "--p", "1/3",
                                     "--measures", "var:0.9999999999999", timeout=5)
        assert_one_line_usage_error(code, out, err)
        assert "at or above the mass" in err

    def test_far_tail_level_near_the_dropped_mass_is_refused(self):
        # the points' laws drop 5.7e-13 to 9.2e-13 of tail mass here, so their ES at
        # 1 - 1e-12 cannot be compared; this ended in a ConvexBoundViolation traceback
        code, out, err = run_process("bounds", "--margin", "exp:0.1", "--d", "4", "--p", "1/3",
                                     "--measures", "es:0.999999999999", timeout=10)
        assert_one_line_usage_error(code, out, err)
        assert "es:0.999999999999" in err and "tail mass 9.16e-13" in err

    def test_format_is_not_a_bounds_option(self, capsys):
        code, out, err = run(capsys, "bounds", "--margin", "exp:0.1", "--d", "4", "--p", "1/2",
                             "--alpha", "0.9", "--fast", "--format", "csv")
        assert code == 3
        assert out == ""
        assert "--format" in err.strip().splitlines()[-1]

    def test_vector_p_uses_vertex_path(self, capsys, tmp_path):
        margin_file = tmp_path / "margin.json"
        margin_file.write_text(json.dumps({"type": "discrete", "pmf": [0.5, 0.3, 0.2]}))
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bounds", "--margin", f"discrete:{margin_file}", "--p", "1/2,1/3",
            "--measures", "es:0.9", "--out", str(out_file),
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["metadata"]["path"] == "vertex-enumeration"

    @pytest.mark.parametrize("margin, mean", [("uniform", 1.5), ("discrete", 2.25)])
    def test_entropic_at_tiny_gamma_is_the_mean(self, capsys, tmp_path, margin, mean):
        # the split pmfs' log-mgf was the log of a weight sum that round-off keeps off 1,
        # so gamma = 1e-200 gave 0.0 (uniform) and -8.3e183 (this discrete margin)
        if margin == "discrete":
            margin_file = tmp_path / "margin.json"
            margin_file.write_text(json.dumps({"type": "discrete", "pmf": [0.5, 0.25, 0.25]}))
            margin = f"discrete:{margin_file}"
        code, out, _ = run(capsys, "bounds", "--margin", margin, "--d", "3", "--p", "1/2",
                           "--measures", "entropic:1e-200")
        assert code == 0
        values = json.loads(out)["values"]["entropic:1e-200"]
        np.testing.assert_allclose(values, mean, rtol=1e-15)


    @pytest.mark.parametrize("grid", ["nan", "inf", "0", "1e10", "1e-311"])
    def test_grid_step_outside_the_support_or_the_budget_is_usage_error(self, capsys, grid):
        # 1e10 used to fail the row mean check and 1e-311 to overflow d / h, with tracebacks
        assert_one_line_usage_error(*run(capsys, "bounds", "--margin", "uniform", "--d", "1",
                                         "--p", "1/2", "--grid", grid, "--measures", "std"))

    @pytest.mark.parametrize("doc", [
        {"type": "exp", "rate": {}},
        {"type": "discrete", "pmf": [float("nan"), 1.0]},
        {"type": "discrete", "pmf": [{}, 1.0]},
        {"type": "discrete", "power": {"a": 0.3, "c": 2.0, "n": [20]}},
        ["exp"],
        {"type": 1},
    ])
    def test_malformed_margin_file_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "margin.json"
        path.write_text(json.dumps(doc))
        assert_one_line_usage_error(*run(capsys, "bounds", "--margin", f"discrete:{path}",
                                         "--d", "3", "--p", "1/2", "--measures", "std"))


    def test_missing_margin_field_is_named(self, capsys, tmp_path):
        path = tmp_path / "margin.json"
        path.write_text(json.dumps({"pmf": [0.5, 0.5]}))
        code, out, err = run(capsys, "bounds", "--margin", f"discrete:{path}", "--d", "3",
                             "--p", "1/2", "--measures", "std")
        assert_one_line_usage_error(code, out, err)
        assert "missing" in err and "'type'" in err

    def test_close_levels_are_reported_apart(self, capsys):
        code, out, _ = run(capsys, "bounds", "--margin", "exp:0.1", "--d", "4", "--p", "1/3",
                           "--measures", "var:0.9999991,var:0.9999992")
        assert code == 0
        report = json.loads(out)
        assert report["measures"] == ["var:0.9999991", "var:0.9999992"]
        assert sorted(report["values"]) == report["measures"]

    def test_duplicate_measures_are_usage_error(self, capsys):
        assert_one_line_usage_error(*run(capsys, "bounds", "--margin", "exp:0.1", "--d", "4",
                                         "--p", "1/3", "--measures", "es:0.9,es:0.90"))


class TestAllocate:
    def test_csv_output(self, capsys, tmp_path):
        portfolio = {
            "margins": [
                {"type": "discrete", "power": {"a": 0.2, "c": 3, "n": 100}},
                {"type": "discrete", "power": {"a": 0.1, "c": 4, "n": 100}},
            ],
            "driver": {
                "type": "dense", "d": 2, "order": "revlex",
                "values": ["1/2", "0/1", "0/1", "1/2"],
            },
        }
        pfile = tmp_path / "portfolio.json"
        pfile.write_text(json.dumps(portfolio))
        out_file = tmp_path / "alloc.csv"
        code, _, err = run(capsys, "allocate", "--portfolio", str(pfile), "--alpha", "0.9",
                           "--out", str(out_file))
        assert code == 0
        rows = list(csv.reader(out_file.read_text().strip().splitlines()))
        assert rows[0] == ["risk", "var_contribution", "ces", "cstd"]
        assert len(rows) == 3
        assert "ES_0.9" in err

    def test_scalar_p_portfolio_d24(self, capsys, tmp_path):
        margins = [{"type": "discrete", "power": {"a": 0.2 + 0.01 * j, "c": 3, "n": 20}}
                   for j in range(24)]
        pfile = tmp_path / "portfolio.json"
        pfile.write_text(json.dumps({"margins": margins, "p": "1/3"}))
        code, out, err = run(capsys, "allocate", "--portfolio", str(pfile), "--alpha", "0.95")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert len(rows) == 25
        es_s = float(err.split("ES_0.95(S) = ")[1].split()[0])
        assert sum(float(r[2]) for r in rows[1:]) == pytest.approx(es_s, rel=1e-8)


    def test_degenerate_portfolio_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps({"margins": [{"type": "discrete", "pmf": [0.0, 1.0]}] * 3,
                                    "p": "1/3"}))
        code, out, err = run(capsys, "allocate", "--portfolio", str(path))
        assert_one_line_usage_error(code, out, err)
        assert "Std(S) = 0" in err

    @pytest.mark.parametrize("doc", [
        {"margins": [{"type": "discrete", "pmf": [0.5, 0.5]}] * 3, "p": 0.5},
        {"margins": None, "p": "1/3"},
        {"margins": [{"type": "discrete", "pmf": [0.5, 0.5]}] * 3, "driver": [1]},
    ])
    def test_malformed_portfolio_file_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(doc))
        assert_one_line_usage_error(*run(capsys, "allocate", "--portfolio", str(path)))


    @pytest.mark.parametrize("alpha", ["1.5", "1", "0", "nan"])
    def test_level_outside_the_unit_interval_is_usage_error(self, capsys, tmp_path, alpha):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps({"margins": [{"type": "discrete", "pmf": [0.5, 0.25, 0.25]}] * 3,
                                    "p": "1/3"}))
        code, out, err = run(capsys, "allocate", "--portfolio", str(path), "--alpha", alpha)
        assert_one_line_usage_error(code, out, err)
        assert "level must be inside (0,1)" in err


class TestSeeds:
    """Seeds key a Philox stream: integers in [0, 2^64) only."""

    @staticmethod
    def argv(command, tmp_path, seed):
        if command == "bounds":  # continuous margins at a vector p: Monte Carlo
            return ["bounds", "--margin", "exp:1", "--p", "1/2,1/3", "--n", "1000",
                    "--measures", "std", "--seed", seed]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"p": ["1/2"] * 3, "driver": {
            "type": "exchangeable", "sum": {"d": 3, "values": ["1/8", "3/8", "3/8", "1/8"]}}}))
        return [command, "--spec", str(path), "--n", "1000", "--seed", seed]

    @pytest.mark.parametrize("command", ["sample", "validate", "bounds"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(10**30)])
    def test_seed_outside_the_key_range_is_usage_error(self, capsys, tmp_path, command, seed):
        code, out, err = run(capsys, *self.argv(command, tmp_path, seed))
        assert_one_line_usage_error(code, out, err)
        assert "seed must be an integer in [0, 2^64)" in err

    @pytest.mark.parametrize("command", ["sample", "validate", "bounds"])
    def test_largest_seed_runs(self, capsys, tmp_path, command):
        assert run(capsys, *self.argv(command, tmp_path, str(2**64 - 1)))[0] == 0


class TestReproduce:
    def test_bernoulli_table_passes(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, err = run(capsys, "reproduce", "bernoulli-d5", "--out", str(out_file))
        assert code == 0
        assert "27/27 cells ok" in err
        rows = list(csv.reader(out_file.read_text().strip().splitlines()))
        assert rows[0] == ["cell", "expected", "computed", "tolerance", "status"]
        assert len(rows) == 28

    def test_example_sums_table_passes(self, capsys):
        code, out, err = run(capsys, "reproduce", "example-sums-d3")
        assert code == 0
        assert "26/26 cells ok" in err

    def test_unknown_table_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "reproduce", "no-such-table")
        assert code == 3

    def test_summary_gives_the_table_runtime(self, capsys, monkeypatch):
        import types

        import gfgm.cli

        clock = iter([10.0, 10.84])
        monkeypatch.setattr(gfgm.cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        code, out, err = run(capsys, "reproduce", "example-sums-d3")
        assert code == 0
        assert err.splitlines() == ["example-sums-d3: 26/26 cells ok in 0.84 s"]
        assert out.startswith("cell,expected,computed,tolerance,status")


class TestSampleAndValidate:
    def spec_file(self, tmp_path, with_margins, d=5):
        from fractions import Fraction
        from gfgm import min_convex

        spec = {
            "p": ["1/2"] * d,
            "driver": {"type": "exchangeable", "sum": min_convex(d, Fraction(1, 2)).to_json()},
        }
        if with_margins:
            spec["margins"] = [{"type": "exp", "rate": 0.1}] * d
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_sample_deterministic_csv(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=False)
        code, out1, _ = run(capsys, "sample", "--spec", str(path), "--n", "50", "--seed", "9")
        code2, out2, _ = run(capsys, "sample", "--spec", str(path), "--n", "50", "--seed", "9")
        assert code == code2 == 0
        assert out1 == out2
        rows = out1.strip().splitlines()
        assert rows[0] == "x1,x2,x3,x4,x5"
        assert len(rows) == 51
        values = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert values.min() >= 0 and values.max() <= 1

    def test_validate_exponential_min_convex_d10(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=True, d=10)
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "100000", "--seed", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True
        assert all(c["z"] <= 2.576 for c in payload["checks"])
        assert payload["ks_distance"] <= payload["ks_band_99"]

    def test_validate_discrete_portfolio(self, capsys, tmp_path):
        spec = {
            "p": ["1/2", "1/3", "2/3"],
            "driver": {
                "type": "dense", "d": 3, "order": "revlex",
                "values": ["0/1", "0/1", "0/1", "1/3", "1/2", "1/6", "0/1", "0/1"],
            },
            "margins": [
                {"type": "discrete", "power": {"a": 0.2, "c": 3, "n": 1000}},
                {"type": "discrete", "power": {"a": 0.1, "c": 4, "n": 1000}},
                {"type": "discrete", "power": {"a": 0.3, "c": 2, "n": 1000}},
            ],
        }
        path = tmp_path / "portfolio-spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "30000", "--seed", "11")
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True

    @staticmethod
    def lattice_spec_file(tmp_path, p, d=4):
        from fractions import Fraction
        from gfgm import min_convex

        spec = {
            "p": [p] * d,
            "driver": {"type": "exchangeable", "sum": min_convex(d, Fraction(p)).to_json()},
            "margins": [{"type": "discrete", "power": {"a": 0.2, "c": 3, "n": 50}}] * d,
        }
        path = tmp_path / "lattice-spec.json"
        path.write_text(json.dumps(spec))
        return path

    @pytest.mark.parametrize("p, seeds", [("2/3", (3, 4, 5)), ("1/3", (3,))])
    def test_validate_scores_var_on_a_lattice_by_the_atom(self, capsys, tmp_path, p, seeds):
        # alpha inside the jump of F at the empirical quantile is no error
        path = self.lattice_spec_file(tmp_path, p)
        for seed in seeds:
            code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "200000",
                               "--seed", str(seed))
            payload = json.loads(out)
            var_check = payload["checks"][1]
            assert var_check["name"] == "var:0.95"
            assert var_check["analytic"] == var_check["empirical"]
            assert var_check["z"] <= 2.576
            assert code == 0 and payload["pass"] is True

    def test_validate_uniform_margins_default(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=False)
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "20000", "--seed", "5")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("command", ["validate", "sample"])
    def test_spec_file_must_be_an_object(self, capsys, tmp_path, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"p": ["1/2"]}]))
        code, out, err = run(capsys, command, "--spec", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("gfgm: error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("doc", [
        {"p": "1/2", "driver": {"type": "dense", "d": 1, "values": ["1/2", "1/2"]}},
        {"p": ["1/2"], "driver": []},
        {"p": ["1/2"], "driver": {"type": "dense", "d": {}, "values": ["1/2", "1/2"]}},
        {"p": ["1/2"], "driver": {"type": "dense", "d": 1, "values": [0.5, 0.5]}},
        {"p": ["1/2"], "driver": {"type": "exchangeable", "sum": {"d": 1, "values": "01"}}},
        {"p": ["1/2"], "driver": {"type": "atoms", "d": 1, "atoms": [{"x": "1", "w": None}]}},
    ])
    def test_malformed_spec_file_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert_one_line_usage_error(*run(capsys, "sample", "--spec", str(path), "--n", "5"))

    @pytest.mark.parametrize("rates", [(0.5, 2, 2), (2, 0.5, 0.5)])
    def test_validate_refuses_margins_of_one_family_with_different_parameters(
            self, capsys, tmp_path, rates):
        # the common-p path aggregates d copies of the first margin: here it would check the
        # sample against the wrong law
        path = self.rate_spec_file(tmp_path, rates)
        code, out, err = run(capsys, "validate", "--spec", str(path), "--n", "20000", "--seed", "3")
        assert_one_line_usage_error(code, out, err)
        assert "no analytic aggregation path" in err

    def test_validate_equal_exponential_margins_pass(self, capsys, tmp_path):
        path = self.rate_spec_file(tmp_path, (0.5, 0.5, 0.5))
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "20000", "--seed", "3")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        assert payload["checks"][0]["analytic"] == pytest.approx(6.0)

    def test_validate_scores_var_below_one_over_n_by_its_order_statistic(self, capsys, tmp_path):
        # at n alpha < 1 the empirical VaR is the sample minimum, whose F is Beta(1, n):
        # far from alpha, but not by many of its own standard deviations
        from fractions import Fraction
        from gfgm import min_convex

        spec = {"p": ["1/2"] * 3,
                "driver": {"type": "exchangeable", "sum": min_convex(3, Fraction(1, 2)).to_json()},
                "margins": [{"type": "exp", "rate": 0.5}] * 3}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "1000",
                           "--alpha", "1e-10", "--seed", "3")
        payload = json.loads(out)
        assert payload["checks"][1]["name"] == "var:1e-10"
        assert payload["checks"][1]["z"] < 0.01
        assert code == 0 and payload["pass"] is True

    @staticmethod
    def rate_spec_file(tmp_path, rates):
        spec = {"p": ["1/2"] * 3,
                "driver": {"type": "exchangeable",
                           "sum": {"d": 3, "values": ["1/8", "3/8", "3/8", "1/8"]}},
                "margins": [{"type": "exp", "rate": rate} for rate in rates]}
        path = tmp_path / "rate-spec.json"
        path.write_text(json.dumps(spec))
        return path

    @pytest.mark.parametrize("alpha", ["1.5", "inf", "1", "0", "-0.5", "nan"])
    def test_validate_level_outside_the_unit_interval_is_refused_before_sampling(
            self, capsys, tmp_path, monkeypatch, alpha):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the level was checked")

        monkeypatch.setattr("gfgm.cli.sample_x", refuse)
        path = self.spec_file(tmp_path, with_margins=True)
        code, out, err = run(capsys, "validate", "--spec", str(path), "--n", "1000",
                             "--alpha", alpha)
        assert_one_line_usage_error(code, out, err)
        assert "level must be inside (0,1)" in err

    def test_validate_small_n_rejected(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=True)
        code, _, _ = run(capsys, "validate", "--spec", str(path), "--n", "100")
        assert code == 3
