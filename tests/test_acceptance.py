"""Acceptance gate: each test prints one pass/fail line for its criterion.

Four cells of the embedded reference tables cannot be reproduced by any
implementation consistent with the remaining ~150 cells; independent oracles
pin the correct values (companion tests at the bottom of this module):

* d=100 exponential, p=1/2: the reference min ES 1189.2721 and min entropic
  1003.8215 disagree with the distribution attaining the minimum, the same
  one whose reference quantile 1147.0118 we reproduce exactly; its ES is
  1187.9935 and its entropic value 1003.7710, confirmed by quadrature of the
  exact convolution and a closed-form log-mgf.
* d=100 discrete, p=2/3: the reference min ES 2019.207 is a digit
  transposition of the computed 2079.207 (all eleven sibling cells match to
  1e-3).
* The dependence-free lower quantile bound for the discrete margin is listed
  as 1045.963; the documented closed form d*LTVaR (which reproduces the
  exponential cell 842.3299 exactly) gives 1083.81, confirmed by quadrature.

The affected criteria (5, 6, 7) assert the reference values as stated and so
fail honestly on exactly those cells.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from gfgm import (
    ExchangeableDriver,
    ExponentialMargin,
    GfgmSpec,
    UniformMargin,
    aggregate,
    aggregate_discrete_general,
    bounds_common_p,
    bounds_general_p,
    enumerate_vertices,
    evaluate,
    min_convex,
    pearson_x,
    sigma_cx_smallest_blocks,
)
from gfgm import reference
from gfgm.reference import (
    D5_EXTREMAL_PMFS,
    EXAMPLE_FINAL_VERTICES,
    counterexample_driver,
    counterexample_margins,
    example_final_margins,
)
from gfgm.sums import extremal_points


def report(criterion: str, failures: list[str], runtime: float | None = None):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({runtime:.2f}s)" if runtime is not None else ""
    print(f"[{status}] {criterion}{extra}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"{criterion}: {len(failures)} check(s) failed"


def collect_diff(table_id: str) -> tuple[list[str], float]:
    t0 = time.perf_counter()
    diff = reference.diff_table(table_id)
    runtime = time.perf_counter() - t0
    failures = [
        f"{c.key}: expected {c.expected}, computed {c.computed:.6f}, tol {c.tol}"
        for c in diff.failures()
    ]
    return failures, runtime


def test_criterion_1_extremal_set_exactness():
    t0 = time.perf_counter()
    points = extremal_points(5, F(1, 2))
    runtime = time.perf_counter() - t0
    failures = []
    if len(points) != 9:
        failures.append(f"expected 9 extremal points, got {len(points)}")
    for pt, expected in zip(points, D5_EXTREMAL_PMFS):
        if pt.pmf.values != tuple(F(v) for v in expected):
            failures.append(f"{pt.label} != reference column {expected}")
    if runtime >= 1.0:
        failures.append(f"runtime {runtime:.3f}s >= 1s")
    report("criterion 1: extremal-set exactness (d=5, p=1/2)", failures, runtime)


def test_criterion_2_vertex_exactness():
    t0 = time.perf_counter()
    vertices = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])
    runtime = time.perf_counter() - t0
    failures = []
    expected = {tuple(F(v) for v in row) for row in EXAMPLE_FINAL_VERTICES.values()}
    got = {v.values for v in vertices}
    if len(vertices) != 12:
        failures.append(f"expected 12 vertices, got {len(vertices)}")
    if got != expected:
        failures.append("vertex set differs from the reference table")
    if runtime >= 10.0:
        failures.append(f"runtime {runtime:.3f}s >= 10s")
    report("criterion 2: vertex exactness (p=(1/2,1/3,2/3))", failures, runtime)


def test_criterion_3_bernoulli_risk_table():
    failures, runtime = collect_diff("bernoulli-d5")
    if runtime >= 1.0:
        failures.append(f"runtime {runtime:.3f}s >= 1s")
    report("criterion 3: Bernoulli risk table (27 cells)", failures, runtime)


def test_criterion_4_fgm_uniform_table_with_grid_convergence():
    t0 = time.perf_counter()
    failures, _ = collect_diff("fgm-d5")
    measures = ["var:0.8", "es:0.8", "entropic:0.1"]
    coarse = bounds_common_p(UniformMargin(), 5, F(1, 2), measures, grid_h=reference.FGM_GRID_H)
    fine = bounds_common_p(UniformMargin(), 5, F(1, 2), measures, grid_h=reference.FGM_GRID_H / 2)
    for m in measures:
        drift = np.max(np.abs(np.asarray(coarse.values[m]) - np.asarray(fine.values[m])))
        if drift > 2e-3:
            failures.append(f"{m}: halving the grid moved values by {drift:.5f} (> 2e-3)")
    runtime = time.perf_counter() - t0
    if runtime >= 30.0:
        failures.append(f"runtime {runtime:.3f}s >= 30s")
    report("criterion 4: FGM uniform-sum table with grid convergence", failures, runtime)


def test_criterion_5_d100_convex_bounds_exponential():
    failures, runtime = collect_diff("cx-bounds-d100")
    failures = [f for f in failures if f.startswith("exp")]
    if runtime >= 60.0:
        failures.append(f"runtime {runtime:.3f}s >= 60s")
    report("criterion 5: d=100 convex bounds, exponential margins", failures, runtime)


def test_criterion_6_d100_convex_bounds_discrete():
    failures, runtime = collect_diff("cx-bounds-d100")
    failures = [f for f in failures if f.startswith("discrete")]
    if runtime >= 60.0:
        failures.append(f"runtime {runtime:.3f}s >= 60s")
    report("criterion 6: d=100 convex bounds, discrete margin", failures, runtime)


def test_criterion_7_d100_var_bounds_full_enumeration():
    failures, runtime = collect_diff("var-bounds-d100")
    if runtime >= 300.0:
        failures.append(f"full enumeration runtime {runtime:.1f}s >= 300s")
    report("criterion 7: d=100 quantile bounds (full enumeration)", failures, runtime)


def test_criterion_8_heterogeneous_counterexample():
    t0 = time.perf_counter()
    failures, _ = collect_diff("example-sums-d3")
    # equal indicator sums, different aggregate laws
    margins = counterexample_margins()
    dist_f = aggregate_discrete_general(margins, counterexample_driver("f"))
    dist_f2 = aggregate_discrete_general(margins, counterexample_driver("f''"))
    from gfgm import sum_pmf

    if sum_pmf(counterexample_driver("f").pmf) != sum_pmf(counterexample_driver("f''").pmf):
        failures.append("drivers f and f'' should share the same indicator-sum law")
    if np.max(np.abs(dist_f.probs - dist_f2.probs)) < 1e-4:
        failures.append("aggregate laws of f and f'' should differ")
    runtime = time.perf_counter() - t0
    report("criterion 8: heterogeneous-margin counterexample", failures, runtime)


def test_criterion_9_example_final_bounds():
    t0 = time.perf_counter()
    failures, _ = collect_diff("example-final-d3")
    expected_rows = {
        "var:0.95": (1219.0, 1643.0),
        "es:0.95": (1590.08, 1906.84),
        "entropic:0.001": (555.98, 629.61),
        "std": (473.23, 566.39),
    }
    report_obj = bounds_general_p(
        example_final_margins(), ["1/2", "1/3", "2/3"], list(expected_rows)
    )
    vertices = enumerate_vertices(["1/2", "1/3", "2/3"])
    values_of = {f"v{i + 1}": v.values for i, v in enumerate(vertices)}
    r1 = tuple(F(v) for v in EXAMPLE_FINAL_VERTICES["r1"])
    r11 = tuple(F(v) for v in EXAMPLE_FINAL_VERTICES["r11"])
    for measure, (lo, hi) in expected_rows.items():
        got_lo, lo_at = report_obj.minima[measure]
        got_hi, hi_at = report_obj.maxima[measure]
        if abs(got_lo - lo) > 5e-2:
            failures.append(f"min {measure}: expected {lo}, computed {got_lo:.4f}")
        if abs(got_hi - hi) > 5e-2:
            failures.append(f"max {measure}: expected {hi}, computed {got_hi:.4f}")
        if values_of[lo_at] != r1:
            failures.append(f"min {measure} attained at {lo_at}, not at the r1 vertex")
        if values_of[hi_at] != r11:
            failures.append(f"max {measure} attained at {hi_at}, not at the r11 vertex")
    runtime = time.perf_counter() - t0
    if runtime >= 60.0:
        failures.append(f"runtime {runtime:.3f}s >= 60s")
    report("criterion 9: heterogeneous example bounds (12 vertices)", failures, runtime)


def test_criterion_10_equicorrelation():
    t0 = time.perf_counter()
    failures = []
    margins = [ExponentialMargin(0.1)] * 100
    spec_e = GfgmSpec.common(F(1, 3), ExchangeableDriver(min_convex(100, F(1, 3))))
    rho_e = pearson_x(spec_e, margins, 1, 2)
    if abs(rho_e - (-0.0022)) > 1e-4:
        failures.append(f"equicorrelation {rho_e:.6f} not within 1e-4 of -0.0022")
    spec_b = GfgmSpec.common(F(1, 3), sigma_cx_smallest_blocks(100, F(1, 3)))
    total = 0.0
    count = 0
    for j1 in range(1, 100):
        for j2 in range(j1 + 1, 101):
            total += pearson_x(spec_b, margins, j1, j2)
            count += 1
    rho_m = total / count
    if abs(rho_m - rho_e) > 1e-12:
        failures.append(f"block mean correlation {rho_m!r} != equicorrelation {rho_e!r} at 1e-12")
    runtime = time.perf_counter() - t0
    report("criterion 10: equicorrelation of the convex-order minimum", failures, runtime)


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    failures = []
    import test_properties as props

    # polytope membership and lift round trips
    props.TestPolytopeMembership().test_random_convex_combinations_stay_members()
    props.TestPolytopeMembership().test_exchangeable_lift_round_trips()
    # split-component mixture identity at 1e-12
    props.TestMixtureIdentity().test_zpair_identity_within_1e12()
    # convex-order transfer on 100 random ordered pairs per margin family
    transfer = props.TestConvexOrderTransfer()
    transfer.test_discrete_family()
    transfer.test_exponential_family()
    transfer.test_uniform_family()
    # allocation additivity at 1e-8
    props.TestAllocationAdditivity().test_identities_on_reference_portfolio()
    # sampler determinism and goodness of fit at n=1e5
    props.TestSamplerProperties().test_determinism()
    props.TestSamplerProperties().test_gof_at_1e5()
    runtime = time.perf_counter() - t0
    report("criterion 11: always-on property suites", failures, runtime)


class TestOracleCompanions:
    """Independent verification of the three cells the printed tables miss."""

    def test_exponential_p_half_minimum_by_quadrature(self):
        from scipy import integrate, special

        a1, b1, a2, b2 = 100, 0.2, 50, 0.1

        def gamma_stoploss(a, b, t):
            t = max(t, 0.0)  # the u > VaR region is 13 sigma out, mass ~1e-40
            return (a / b) * (1 - special.gammainc(a + 1, b * t)) - t * (
                1 - special.gammainc(a, b * t)
            )

        def cdf_s(x):
            f = lambda u: stats.gamma.pdf(u, a1, scale=1 / b1) * special.gammainc(
                a2, b2 * (x - u)
            )
            return integrate.quad(f, 0, x, limit=400, epsabs=1e-12, epsrel=1e-12)[0]

        lo, hi = 800.0, 1600.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if cdf_s(mid) >= 0.95:
                hi = mid
            else:
                lo = mid
        stop = integrate.quad(
            lambda u: stats.gamma.pdf(u, a1, scale=1 / b1) * gamma_stoploss(a2, b2, hi - u),
            0,
            np.inf,
            limit=400,
            epsabs=1e-10,
        )[0]
        es_oracle = hi + stop / 0.05
        dist = aggregate(ExponentialMargin(0.1), 100, min_convex(100, F(1, 2)), F(1, 2))
        assert hi == pytest.approx(1147.0118, abs=1e-3)  # the printed quantile minimum
        assert es_oracle == pytest.approx(1187.9935, abs=1e-3)
        assert evaluate(dist, "es:0.95") == pytest.approx(es_oracle, abs=1e-5)

    def test_exponential_p_half_entropic_closed_form(self):
        gamma = 0.001
        closed = (100 * math.log(0.2 / (0.2 - gamma)) + 50 * math.log(0.1 / (0.1 - gamma))) / gamma
        dist = aggregate(ExponentialMargin(0.1), 100, min_convex(100, F(1, 2)), F(1, 2))
        assert closed == pytest.approx(1003.7710, abs=1e-4)
        assert evaluate(dist, "entropic:0.001") == pytest.approx(closed, abs=1e-6)

    def test_discrete_p_two_thirds_min_es_by_direct_convolution(self):
        # FFT-free oracle: dense convolution of the split pmfs
        margin = reference.d100_discrete_margin()
        p = F(2, 3)
        z = margin.z_pmfs(p)
        g = min_convex(100, p)
        total = np.zeros(1)
        acc = {}
        for k, w in [(kk, float(v)) for kk, v in enumerate(g.values) if v != 0]:
            pmf = np.array([1.0])
            for _ in range(100 - k):
                pmf = np.convolve(pmf, z.z0)
            for _ in range(k):
                pmf = np.convolve(pmf, z.z1)
            acc[k] = (w, pmf)
        size = max(v.size for _, v in acc.values())
        mix = np.zeros(size)
        for w, pmf in acc.values():
            mix[: pmf.size] += w * pmf
        from gfgm import LatticeDistribution

        oracle = evaluate(LatticeDistribution(mix), "es:0.95")
        assert oracle == pytest.approx(2079.207, abs=1e-2)

    def test_discrete_ltvar_by_quantile_quadrature(self):
        from scipy import integrate

        margin = reference.d100_discrete_margin()
        val = integrate.quad(
            lambda u: float(margin.ppf(u)),
            0,
            0.95,
            limit=2000,
            points=np.linspace(0.8, 0.95, 16),
        )[0]
        assert 100 * val / 0.95 == pytest.approx(1083.81, abs=5e-2)
        assert 100 * margin.ltvar(0.95) == pytest.approx(1083.81, abs=1e-2)
