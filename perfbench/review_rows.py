"""One-off timing of the reference rows: d=100 VaR bounds and d=4 vertex enumeration.

    python3 perfbench/review_rows.py

Runs each row once, outside the benchmark's workloads, and prints one JSON
line per row with its wall time and result.  The rows are the VaR bounds at
alpha=0.95 over the common-p class for the exp:0.1 and the paper's discrete
margin at p in {1/3, 1/2, 2/3}, and vertex enumeration at d=4.  The d=5
enumeration (minutes) is left out.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import load_library, pin_environment, provenance
from workloads import PAPER_DISCRETE, PAPER_EXP_RATE


def main() -> int:
    pin_environment()
    gfgm = load_library()
    print(json.dumps({"provenance": provenance(seed=0)}))
    margins = {
        "exp": gfgm.ExponentialMargin(PAPER_EXP_RATE),
        "discrete": gfgm.DiscreteMargin.from_power_cdf(*PAPER_DISCRETE),
    }
    for family, margin in margins.items():
        for p in ("1/3", "1/2", "2/3"):
            t0 = time.perf_counter()
            lo, hi, _ = gfgm.var_bounds_common_p(margin, 100, p, 0.95)
            print(json.dumps({"row": f"var-bounds/{family}/d=100/p={p}", "seconds": time.perf_counter() - t0,
                              "min": lo, "max": hi, "threads": os.environ.get("GFGM_THREADS")}),
                  flush=True)
    for pv in (("1/2", "1/3", "2/3", "1/4"), ("1/3", "1/3", "1/2", "2/3")):
        t0 = time.perf_counter()
        vertices = gfgm.enumerate_vertices(list(pv))
        print(json.dumps({"row": f"vertices/d=4/p={','.join(pv)}", "seconds": time.perf_counter() - t0,
                          "vertices": len(vertices)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
