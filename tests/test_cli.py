import csv
import json

import numpy as np
import pytest

from gfgm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, _ = run(capsys, "vertices", "--p", ",".join(["1/2"] * 6))
        assert code == 3


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

    def test_validate_uniform_margins_default(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=False)
        code, out, _ = run(capsys, "validate", "--spec", str(path), "--n", "20000", "--seed", "5")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_validate_small_n_rejected(self, capsys, tmp_path):
        path = self.spec_file(tmp_path, with_margins=True)
        code, _, _ = run(capsys, "validate", "--spec", str(path), "--n", "100")
        assert code == 3
