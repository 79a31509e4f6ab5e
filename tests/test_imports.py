"""What ``import gfgm`` and the main calls load, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gfgm import QuantileMargin

SRC = Path(__file__).resolve().parents[1] / "src"

CALLS = """
import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction as F
import gfgm
from gfgm.cli import main

measures = ["var:0.9", "es:0.9", "entropic:0.01", "std"]
discrete = gfgm.DiscreteMargin.from_power_cdf(0.3, 2.0, 20)
for margin in (gfgm.ExponentialMargin(0.5), gfgm.UniformMargin(), discrete, "bernoulli"):
    gfgm.bounds_common_p(margin, 4, F(1, 3), measures)
gfgm.bounds_common_p(gfgm.ExponentialMargin(0.1), 16, F(2, 3), measures)
gfgm.convex_bounds_fast(gfgm.ExponentialMargin(0.5), 20, F(2, 3), measures[1:])
gfgm.convex_bounds_fast(gfgm.ExponentialMargin(0.1), 100, F(1, 3), ["es:0.999"] + measures[2:])
p_vector = ["1/2", "1/3", "2/3"]
gfgm.bounds_general_p([discrete] * 3, p_vector, measures)
gfgm.bounds_general_p([gfgm.ExponentialMargin(1.0)] * 3, p_vector, measures, mc_n=1000)
gfgm.aggregate(gfgm.UniformMargin(), 4, gfgm.SumPmf(4, [F(1, 3), F(1, 3), 0, F(1, 3), 0]), F(1, 3))
gfgm.EmpiricalDistribution([0.5, 1.5, 2.0]).log_mgf(0.01)
gfgm.bounds_general_p([gfgm.DiscreteMargin([0.5, 0.25, 0.25])] * 2, p_vector[:2],
                      ["entropic:1e-200", "entropic:1e-12"])
p4 = [F(1, 2), F(1, 3), F(2, 3), F(1, 2)]
gfgm.decompose(gfgm.independence_pmf(p4), gfgm.enumerate_vertices(p4))
gfgm.allocation_report(gfgm.ExchangeableDriver(gfgm.min_convex(4, F(1, 2))), [discrete] * 4, 0.9)
spec = {"p": ["1/2"] * 5, "driver": {"type": "exchangeable",
                                     "sum": gfgm.min_convex(5, F(1, 2)).to_json()},
        "margins": [{"type": "exp", "rate": 0.1}] * 5}
with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
    json.dump(spec, fh)
    fh.flush()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["validate", "--spec", fh.name, "--n", "2000", "--seed", "3"])
assert code in (0, 2) and json.loads(out.getvalue())["ks_distance"] >= 0, out.getvalue()
print(" ".join(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_main_calls_load_no_heavy_scipy_submodule():  # nor any scipy module at all
    # scipy.special alone was about 0.33 s of a 0.55-s import and 25 MB of resident memory;
    # QuantileMargin loads scipy.integrate on first use, the only call that needs scipy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CALLS], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_quadrature_without_scipy_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy now raises ImportError
    with pytest.raises(ImportError, match=r"^QuantileMargin moments need scipy: "
                                          r"pip install gfgm\[quadrature\]$"):
        QuantileMargin(lambda u: u).mean
    assert QuantileMargin(lambda u: u, mean=0.5).mean == 0.5


def test_quadrature_variance_is_read_once(monkeypatch):
    import gfgm.margins as margins

    margin = QuantileMargin(lambda u: -np.log1p(-u) / 2.0)  # Exp(2): variance 1/4
    assert margin.var == pytest.approx(0.25, abs=1e-8)
    calls = []
    monkeypatch.setattr(margins, "_quad", lambda f: calls.append(f))
    assert margin.var == pytest.approx(0.25, abs=1e-8)
    assert margin.mean == pytest.approx(0.5, abs=1e-8)
    assert calls == []
