from fractions import Fraction as F

import numpy as np
import pytest

from gfgm import (
    DenseDriver,
    DiscreteMargin,
    ExchangeableDriver,
    ExponentialMargin,
    allocation_report,
    ces_alpha,
    cstd,
    es,
    expected_allocation,
    expected_allocation_all,
    expected_contribution,
    independence_pmf,
    min_convex,
    std,
)
from gfgm.bernoulli import BernoulliPmf
from gfgm.reference import example_final_driver, example_final_margins


def single_risk_driver(p):
    return DenseDriver(BernoulliPmf(1, (1 - F(p), F(p))))


def small_portfolio():
    margins = [
        DiscreteMargin.from_power_cdf(0.5, 2, 6),
        DiscreteMargin.from_power_cdf(0.3, 1, 4),
        DiscreteMargin(np.array([0.2, 0.5, 0.3])),
    ]
    driver = DenseDriver(independence_pmf([F(1, 2), F(1, 3), F(2, 3)]))
    return margins, driver


class TestExpectedAllocation:
    def test_single_risk_is_size_biased_pmf(self):
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 5)
        alloc = expected_allocation(1, single_risk_driver("1/3"), [margin])
        y = np.arange(margin.n + 1)
        assert np.allclose(alloc, y * margin.pmf, atol=1e-12)

    def test_rows_sum_to_margin_means(self):
        margins, driver = small_portfolio()
        alloc, _ = expected_allocation_all(driver, margins)
        for j, margin in enumerate(margins):
            assert alloc[j].sum() == pytest.approx(margin.mean, abs=1e-10)

    def test_example_final_margin_mean(self):
        margins = example_final_margins()
        alloc = expected_allocation(1, example_final_driver("r1"), margins)
        assert alloc.sum() == pytest.approx(150.09995, abs=1e-6)

    def test_pointwise_identity_sums_to_y_times_prob(self):
        margins = example_final_margins()
        alloc, agg = expected_allocation_all(example_final_driver("r1"), margins)
        y = np.arange(alloc.shape[1])
        assert np.max(np.abs(alloc.sum(axis=0) - y * agg.probs)) < 1e-8

    def test_continuous_margins_refused(self):
        with pytest.raises(ValueError):
            expected_allocation(1, single_risk_driver("1/2"), [ExponentialMargin(1.0)])


class TestExpectedContribution:
    def test_zero_outcome_gives_zero(self):
        margins, driver = small_portfolio()
        for j in (1, 2, 3):
            assert expected_contribution(j, driver, margins, 0) == pytest.approx(0.0)

    def test_additivity_at_var_level(self):
        margins = example_final_margins()
        driver = example_final_driver("r1")
        _, agg = expected_allocation_all(driver, margins)
        y = int(agg.quantile(0.95))
        total = sum(expected_contribution(j, driver, margins, y) for j in (1, 2, 3))
        assert total == pytest.approx(y, abs=1e-8)

    def test_single_risk_returns_y(self):
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 5)
        assert expected_contribution(1, single_risk_driver("1/3"), [margin], 3) == pytest.approx(3.0)

    def test_zero_probability_outcome_rejected(self):
        margins = [DiscreteMargin.point_mass(2)]
        with pytest.raises(ValueError):
            expected_contribution(1, single_risk_driver("1/2"), margins, 1)

    def test_round_off_probability_rejected(self):
        # The FFT leaves P(S=y) at round-off level, not exactly 0, for y below
        # n1 + n2 (for instance n1 = 1, n2 = 5, y = 0).
        driver = DenseDriver(independence_pmf([F(1, 2), F(1, 3)]))
        for n1 in range(1, 9):
            for n2 in range(1, 9):
                margins = [DiscreteMargin.point_mass(n1), DiscreteMargin.point_mass(n2)]
                for y in range(n1 + n2):
                    with pytest.raises(ValueError):
                        expected_contribution(1, driver, margins, y)


class TestCes:
    def test_single_risk_equals_es(self):
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 8)
        driver = single_risk_driver("1/3")
        from gfgm import LatticeDistribution

        dist = LatticeDistribution(margin.pmf)
        assert ces_alpha(1, driver, [margin], 0.9) == pytest.approx(es(dist, 0.9), abs=1e-10)

    def test_example_final_additivity(self):
        margins = example_final_margins()
        driver = example_final_driver("r1")
        total = sum(ces_alpha(j, driver, margins, 0.95) for j in (1, 2, 3))
        assert total == pytest.approx(1590.08, abs=5e-2)

    def test_independence_additivity_and_range(self):
        margins, driver = small_portfolio()
        _, agg = expected_allocation_all(driver, margins)
        es_total = es(agg, 0.9)
        parts = [ces_alpha(j, driver, margins, 0.9) for j in (1, 2, 3)]
        assert sum(parts) == pytest.approx(es_total, abs=1e-8)
        assert all(0 <= c <= es_total for c in parts)


class TestCstd:
    def test_single_risk_equals_std(self):
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 8)
        assert cstd(1, single_risk_driver("1/3"), [margin]) == pytest.approx(
            np.sqrt(margin.var), abs=1e-12
        )

    def test_example_final_additivity(self):
        margins = example_final_margins()
        driver = example_final_driver("r1")
        total = sum(cstd(j, driver, margins) for j in (1, 2, 3))
        assert total == pytest.approx(473.23, abs=5e-2)

    def test_matches_aggregate_std(self):
        margins = example_final_margins()
        driver = example_final_driver("r7")
        _, agg = expected_allocation_all(driver, margins)
        total = sum(cstd(j, driver, margins) for j in (1, 2, 3))
        assert total == pytest.approx(std(agg), abs=1e-8)

    def test_independent_identical_margins_share_equally(self):
        margin = DiscreteMargin.from_power_cdf(0.4, 2, 6)
        driver = DenseDriver(independence_pmf([F(1, 3)] * 3))
        margins = [margin] * 3
        parts = [cstd(j, driver, margins) for j in (1, 2, 3)]
        assert parts[0] == pytest.approx(parts[1]) == pytest.approx(parts[2])
        _, agg = expected_allocation_all(driver, margins)
        assert parts[0] == pytest.approx(std(agg) / 3, abs=1e-8)


class TestAllocationReport:
    def test_full_report_identities(self):
        margins = example_final_margins()
        driver = example_final_driver("r11")
        report = allocation_report(driver, margins, 0.95)
        _, agg = expected_allocation_all(driver, margins)
        assert sum(report.ces) == pytest.approx(es(agg, 0.95), abs=1e-8)
        assert sum(report.cstd) == pytest.approx(std(agg), abs=1e-8)
        assert sum(report.var_contributions) == pytest.approx(report.var_s, abs=1e-6)
        assert 0 <= report.beta_s < 1

    def test_exchangeable_d24_identities(self):
        d = 24
        driver = ExchangeableDriver(min_convex(d, F(1, 3)))
        margins = [DiscreteMargin.from_power_cdf(0.2 + 0.01 * j, 2 + j % 3, 20) for j in range(d)]
        alloc, agg = expected_allocation_all(driver, margins)
        y = np.arange(alloc.shape[1])
        assert np.max(np.abs(alloc.sum(axis=0) - y * agg.probs)) < 1e-8
        report = allocation_report(driver, margins, 0.95)
        assert sum(report.ces) == pytest.approx(es(agg, 0.95), abs=1e-8)
        assert sum(report.cstd) == pytest.approx(std(agg), abs=1e-8)

    def test_rows_shape(self):
        margins, driver = small_portfolio()
        report = allocation_report(driver, margins, 0.8)
        rows = report.to_rows()
        assert [r["risk"] for r in rows] == [1, 2, 3]
