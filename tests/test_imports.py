"""What ``import gfgm`` and the main calls load, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.fft")

CALLS = """
import sys
from fractions import Fraction as F
import gfgm

measures = ["var:0.9", "es:0.9", "entropic:0.01", "std"]
discrete = gfgm.DiscreteMargin.from_power_cdf(0.3, 2.0, 20)
for margin in (gfgm.ExponentialMargin(0.5), gfgm.UniformMargin(), discrete, "bernoulli"):
    gfgm.bounds_common_p(margin, 4, F(1, 3), measures)
gfgm.convex_bounds_fast(gfgm.ExponentialMargin(0.5), 20, F(2, 3), measures[1:])
p_vector = ["1/2", "1/3", "2/3"]
gfgm.bounds_general_p([discrete] * 3, p_vector, measures)
gfgm.bounds_general_p([gfgm.ExponentialMargin(1.0)] * 3, p_vector, measures, mc_n=1000)
gfgm.allocation_report(gfgm.ExchangeableDriver(gfgm.min_convex(4, F(1, 2))), [discrete] * 4, 0.9)
print(" ".join(name for name in %r if name in sys.modules))
""" % (HEAVY,)


def test_main_calls_load_no_heavy_scipy_submodule():
    # scipy.stats alone, with the optimize, sparse and linalg it pulls in, was about
    # 1 s of a 1.5-s import; QuantileMargin loads scipy.integrate on first use
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CALLS], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
