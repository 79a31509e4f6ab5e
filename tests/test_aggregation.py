import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import special

from gfgm import (
    DiscreteMargin,
    ExchangeableDriver,
    GfgmSpec,
    aggregate_discrete_common,
    aggregate_discrete_general,
    aggregate_exponential,
    aggregate_uniform,
    entropic,
    es,
    independence_pmf,
    max_convex,
    min_convex,
    sample_u,
    std,
    var,
)
from gfgm.drivers import DenseDriver
from gfgm.reference import (
    counterexample_driver,
    counterexample_margins,
    d100_discrete_margin,
    example_final_driver,
    example_final_margins,
)
from gfgm.sums import SumPmf, extremal_points


def binomial_sum_pmf(d, p):
    return SumPmf(d, tuple(F(math.comb(d, k)) * p**k * (1 - p) ** (d - k) for k in range(d + 1)))


class TestZPmfs:
    def test_point_mass_margin(self):
        z = DiscreteMargin.point_mass(0).z_pmfs(F(1, 2))
        assert z.z0.tolist() == [1.0] and z.z1.tolist() == [1.0]

    def test_bernoulli_margin_half(self):
        z = DiscreteMargin.bernoulli(0.5).z_pmfs(F(1, 2))
        assert z.z0[0] == pytest.approx(0.25)  # F(0)^2
        assert z.z1[0] == pytest.approx(0.75)  # 2 F(0) - F(0)^2

    def test_mixture_identity_counterexample_margins(self):
        for margin in counterexample_margins():
            assert margin.z_pmfs(F(2, 5)).mixture_gap() <= 1e-12

    def test_mixture_identity_example_final_margins(self):
        for margin, p in zip(example_final_margins(), (F(1, 2), F(1, 3), F(2, 3))):
            assert margin.z_pmfs(p).mixture_gap() <= 1e-12

    def test_z_means_match_pmf_means(self):
        margin = d100_discrete_margin()
        z = margin.z_pmfs(F(1, 3))
        k = np.arange(margin.n + 1)
        e0, e1 = margin.z_means(F(1, 3))
        assert np.dot(k, z.z0) == pytest.approx(e0, abs=1e-10)
        assert np.dot(k, z.z1) == pytest.approx(e1, abs=1e-10)


class TestDiscreteCommon:
    def test_point_mass_margin_degenerates_at_d(self):
        margin = DiscreteMargin.point_mass(1)
        for pt in extremal_points(4, F(1, 2)):
            dist = aggregate_discrete_common(margin, 4, pt, F(1, 2))
            assert dist.probs[4] == pytest.approx(1.0)

    def test_independence_matches_convolution_oracle(self):
        # under the product driver, coordinates are iid copies of the margin
        d, p = 5, F(1, 3)
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 10)
        dist = aggregate_discrete_common(margin, d, binomial_sum_pmf(d, p), p)
        oracle = np.array([1.0])
        for _ in range(d):
            oracle = np.convolve(oracle, margin.pmf)
        assert np.max(np.abs(dist.probs - oracle)) < 1e-12

    def test_d100_min_convex_quantile(self):
        # the convex-order minimum at p=2/3 does not attain the class minimum
        margin = d100_discrete_margin()
        dist = aggregate_discrete_common(margin, 100, min_convex(100, F(2, 3)), F(2, 3))
        assert var(dist, 0.95) == 1961.0

    def test_general_matches_common_for_exchangeable_driver(self):
        g = SumPmf(4, tuple(F(x) for x in ["1/8", "1/4", "1/4", "1/4", "1/8"]))
        margin = DiscreteMargin.from_power_cdf(0.3, 2, 6)
        p = g.mean / 4
        da = aggregate_discrete_common(margin, 4, g, p)
        db = aggregate_discrete_general([margin] * 4, ExchangeableDriver(g))
        assert np.max(np.abs(da.probs - db.probs)) < 1e-10


class TestDiscreteGeneral:
    def test_counterexample_sum_pmfs(self):
        margins = counterexample_margins()
        expected = {
            "f": [0.0080, 0.0338, 0.0640, 0.1328, 0.2467, 0.2592, 0.2312, 0.0242],
            "f'": [0.0032, 0.0249, 0.0602, 0.1556, 0.2636, 0.2569, 0.2004, 0.0352],
            "f''": [0.0029, 0.0214, 0.0549, 0.1588, 0.2798, 0.2521, 0.1976, 0.0324],
        }
        for label, row in expected.items():
            dist = aggregate_discrete_general(margins, counterexample_driver(label))
            for k, target in enumerate(row):
                assert dist.probs[k] == pytest.approx(target, abs=1e-4)

    def test_counterexample_variances(self):
        margins = counterexample_margins()
        var_f = aggregate_discrete_general(margins, counterexample_driver("f")).variance()
        var_fp = aggregate_discrete_general(margins, counterexample_driver("f'")).variance()
        assert var_f == pytest.approx(2.0633, abs=1e-3)
        assert var_fp == pytest.approx(1.8865, abs=1e-3)
        assert var_f >= var_fp  # equal Bernoulli sums do not transfer here

    def test_point_mass_margins_degenerate_sum(self):
        margins = [DiscreteMargin.point_mass(k) for k in (2, 0, 5)]
        driver = DenseDriver(independence_pmf([F(1, 2), F(1, 3), F(2, 3)]))
        dist = aggregate_discrete_general(margins, driver)
        assert dist.probs[7] == pytest.approx(1.0)

    def test_sum_mean_additivity(self):
        margins = example_final_margins()
        dist = aggregate_discrete_general(margins, example_final_driver("r5"))
        assert dist.mean() == pytest.approx(sum(m.mean for m in margins), rel=1e-9)

    @pytest.mark.parametrize("extreme", [min_convex, max_convex])
    def test_exchangeable_d24_matches_conditional_laws(self, extreme):
        d, p = 24, F(1, 3)
        margin = DiscreteMargin.from_power_cdf(0.3, 2, 20)
        g = extreme(d, p)
        common = aggregate_discrete_common(margin, d, g, p)
        general = aggregate_discrete_general([margin] * d, ExchangeableDriver(g))
        for measure in (lambda x: var(x, 0.95), lambda x: es(x, 0.95),
                        lambda x: entropic(x, 0.01), std):
            assert measure(general) == pytest.approx(measure(common), rel=1e-9)


class TestExponential:
    def test_degenerate_at_zero_is_erlang(self):
        d, rate, p = 7, 0.5, F(1, 3)
        dist = aggregate_exponential(rate, d, SumPmf.degenerate(d, 0), p)
        assert dist.mean() == pytest.approx(d * (1 - 1 / 3) / rate, rel=1e-12)
        x = np.linspace(0.5, 30, 7)
        erlang = special.gammainc(d, (rate / (1 - 1 / 3)) * x)
        assert np.max(np.abs(dist.cdf(x) - erlang)) < 1e-12

    def test_d1_reproduces_exponential(self):
        rate, p = 0.7, F(2, 5)
        g = SumPmf(1, (1 - p, p))
        dist = aggregate_exponential(rate, 1, g, p)
        for q in np.linspace(0.05, 0.99, 20):
            assert dist.cdf(-math.log1p(-q) / rate) == pytest.approx(q, abs=1e-10)

    def test_min_convex_p_half_oracle_values(self):
        # independent quadrature oracle for Gamma(100,0.2) + Gamma(50,0.1):
        # VaR_0.95 = 1147.0118 (also the class minimum), ES_0.95 = 1187.9935
        dist = aggregate_exponential(0.1, 100, min_convex(100, F(1, 2)), F(1, 2))
        assert var(dist, 0.95) == pytest.approx(1147.0118, abs=1e-3)
        assert es(dist, 0.95) == pytest.approx(1187.9934646847, abs=1e-5)

    def test_min_convex_p_third_printed_values(self):
        dist = aggregate_exponential(0.1, 100, min_convex(100, F(1, 3)), F(1, 3))
        assert es(dist, 0.95) == pytest.approx(1191.2742, abs=1e-2)

    def test_truncation_tail_recorded(self):
        dist = aggregate_exponential(0.1, 100, min_convex(100, F(1, 3)), F(1, 3))
        assert 0 <= dist.tail_mass < 1e-12

    def test_log_mgf_closed_form_degenerate_sum(self):
        dist = aggregate_exponential(0.1, 100, SumPmf.degenerate(100, 50), F(1, 2))
        gamma = 0.001
        closed = 100 * math.log(0.2 / (0.2 - gamma)) + 50 * math.log(0.1 / (0.1 - gamma))
        # the 1e-12 weight truncation shows up at the same order here
        assert dist.log_mgf(gamma) == pytest.approx(closed, rel=1e-9)

    def test_mgf_domain_error(self):
        dist = aggregate_exponential(0.1, 5, SumPmf.degenerate(5, 0), F(1, 2))
        with pytest.raises(ValueError):
            dist.log_mgf(0.25)


class TestUniform:
    def test_mean_is_half_d(self):
        for d, p in ((5, F(1, 2)), (8, F(1, 3))):
            for pt in (min_convex(d, p), SumPmf.two_point(d, 0, d, 1 - p)):
                dist = aggregate_uniform(p, d, pt, grid_h=d / 2.0**13)
                assert dist.mean() == pytest.approx(d / 2, abs=1e-6)

    def test_degenerate_driver_mean_matches_closed_form(self):
        # all indicators on: S is a d-fold sum of V0*V1 draws
        d, p = 4, F(1, 2)
        dist = aggregate_uniform(p, d, SumPmf.degenerate(d, d), grid_h=d / 2.0**13)
        assert dist.mean() == pytest.approx(d / (2 * (2 - 0.5)), abs=1e-6)

    def test_degenerate_driver_against_sampler(self):
        d, p = 4, F(1, 2)
        dist = aggregate_uniform(p, d, SumPmf.degenerate(d, d), grid_h=d / 2.0**13)
        rng = np.random.default_rng(31)
        u0 = rng.random((10**6, d))
        u1 = rng.random((10**6, d))
        s = (u0 ** (1 - 0.5) * u1).sum(axis=1)
        q = np.quantile(s, 0.8)
        assert dist.quantile(0.8) == pytest.approx(q, abs=5e-3)

    def test_fgm_extremal_printed_values(self):
        points = extremal_points(5, F(1, 2))
        d7 = aggregate_uniform(F(1, 2), 5, points[6], grid_h=5 / 2.0**15)
        d3 = aggregate_uniform(F(1, 2), 5, points[2], grid_h=5 / 2.0**15)
        assert es(d7, 0.8) == pytest.approx(3.2753, abs=1e-2)
        assert var(d3, 0.8) == pytest.approx(3.4928, abs=1e-2)

    def test_sampler_cross_check_extremal(self):
        # Monte Carlo oracle through the copula sampler
        g = min_convex(5, F(1, 2))
        spec = GfgmSpec.common(F(1, 2), ExchangeableDriver(SumPmf(5, g.values)))
        u = sample_u(spec, 2 * 10**5, seed=17)
        s = u.sum(axis=1)
        dist = aggregate_uniform(F(1, 2), 5, g, grid_h=5 / 2.0**15)
        for level in (0.5, 0.8, 0.95):
            assert dist.quantile(level) == pytest.approx(np.quantile(s, level), abs=2e-2)

    def test_mass_within_tolerance(self):
        dist = aggregate_uniform(F(1, 3), 6, min_convex(6, F(1, 3)), grid_h=6 / 2.0**14)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestConvexOrderTransfer:
    def test_stop_loss_ordering_transfers_to_aggregates(self):
        d, p = 6, F(1, 3)
        lo = min_convex(d, p)
        hi = SumPmf.two_point(d, 0, d, 1 - p)
        margin = DiscreteMargin.from_power_cdf(0.5, 2, 8)
        agg_lo = aggregate_discrete_common(margin, d, lo, p)
        agg_hi = aggregate_discrete_common(margin, d, hi, p)
        grid = np.linspace(0, d * 8, 60)
        sl_lo = np.array([agg_lo.stop_loss(t) for t in grid])
        sl_hi = np.array([agg_hi.stop_loss(t) for t in grid])
        assert np.all(sl_lo <= sl_hi + 1e-10)

    def test_exponential_transfer(self):
        d, p = 6, F(1, 3)
        lo = aggregate_exponential(0.2, d, min_convex(d, p), p)
        hi = aggregate_exponential(0.2, d, SumPmf.two_point(d, 0, d, 1 - p), p)
        grid = np.linspace(0, 120, 40)
        assert all(lo.stop_loss(t) <= hi.stop_loss(t) + 1e-10 for t in grid)
