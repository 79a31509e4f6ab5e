import random
from fractions import Fraction as F

import numpy as np
import pytest

from gfgm import (
    AtomDriver,
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
from gfgm.aggregation import SplitTable
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

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, -0.5, float("nan"), float("inf")])
    def test_level_outside_the_unit_interval_is_refused(self, alpha):
        # at 1 the tail has no mass to divide by; past it the VaR index leaves the lattice
        margins, driver = small_portfolio()
        with pytest.raises(ValueError, match=r"level must be inside \(0,1\)"):
            ces_alpha(1, driver, margins, alpha)
        with pytest.raises(ValueError, match=r"level must be inside \(0,1\)"):
            allocation_report(driver, margins, alpha)


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

    @pytest.mark.parametrize("d", [3, 24])
    def test_array_forms_equal_the_per_risk_loops(self, d):
        # the report's per-risk values, bit for bit as loops over the risks compute them
        if d == 3:
            margins, driver = example_final_margins(), example_final_driver("r11")
        else:
            driver = ExchangeableDriver(min_convex(d, F(1, 3)))
            margins = [DiscreteMargin.from_power_cdf(0.2 + 0.01 * j, 2 + j % 3, 20)
                       for j in range(d)]
        alloc, agg = expected_allocation_all(driver, margins)
        cov = SplitTable(margins, driver.margins()).covariance(driver)
        for alpha in (0.8, 0.95):
            report = allocation_report(driver, margins, alpha)
            v = int(report.var_s)
            assert report.var_contributions == [float(alloc[j][v] / agg.probs[v]) for j in range(d)]
            assert report.ces == [(margins[j].mean - float(alloc[j][: v + 1].sum())
                                   + report.beta_s * float(alloc[j][v])) / (1.0 - alpha)
                                  for j in range(d)]
            assert report.cstd == [float(cov[j].sum()) / report.std_s for j in range(d)]
        assert [cstd(j, driver, margins) for j in range(1, d + 1)] == report.cstd

    def test_rows_shape(self):
        margins, driver = small_portfolio()
        report = allocation_report(driver, margins, 0.8)
        rows = report.to_rows()
        assert [r["risk"] for r in rows] == [1, 2, 3]


class TestSingleRisk:
    """A per-risk call mixes the law of S and its own row only, and equals that row."""

    @pytest.mark.parametrize("exchangeable", [True, False])
    def test_two_mixtures_and_the_full_rows(self, monkeypatch, exchangeable):
        d = 6
        driver = ExchangeableDriver(min_convex(d, F(1, 3)))
        if not exchangeable:
            driver = DenseDriver(independence_pmf([F(1, 3)] * d))
        margins = [DiscreteMargin.from_power_cdf(0.2 + 0.05 * j, 2 + j % 3, 12) for j in range(d)]
        alloc, agg = expected_allocation_all(driver, margins)
        report = allocation_report(driver, margins, 0.9)
        y = int(report.var_s)
        calls = []
        mix = type(driver).mix
        monkeypatch.setattr(type(driver), "mix", lambda self, a, b: calls.append(1) or mix(self, a, b))
        for j in range(1, d + 1):
            calls.clear()
            np.testing.assert_array_equal(expected_allocation(j, driver, margins), alloc[j - 1])
            assert len(calls) == 2
            assert ces_alpha(j, driver, margins, 0.9) == report.ces[j - 1]
            assert expected_contribution(j, driver, margins, y) == report.var_contributions[j - 1]
            assert len(calls) == 6


def covariance_oracle(driver, margins):
    """Exact-Fraction Cov(X_a, X_b): Var X_a on the diagonal, and off it
    (P(I_a = I_b = 1) - p_a p_b)(E Z1_a - E Z0_a)(E Z1_b - E Z0_b)."""
    d, p = driver.d, driver.margins()
    gaps = []
    for jj in range(d):
        e0, e1 = margins[jj].z_means(p[jj])
        gaps.append(e1 - e0)
    cov = np.zeros((d, d))
    for a in range(d):
        cov[a, a] = margins[a].var
        for b in range(a + 1, d):
            cov_i = float(driver.pair_joint11(a + 1, b + 1) - p[a] * p[b])
            cov[a, b] = cov[b, a] = cov_i * gaps[a] * gaps[b]
    return cov


def seeded_atom_driver(d, atoms, seed):
    rng = random.Random(seed)
    weights = [rng.randint(1, 20) for _ in range(atoms)]
    masks = rng.sample(range(1 << d), atoms)
    return AtomDriver(d, tuple((m, F(w, sum(weights))) for m, w in zip(masks, weights)))


class TestCovariance:
    """SplitTable.covariance against the exact-Fraction formula, for each kind of driver."""

    @staticmethod
    def check(driver, margins):
        table = SplitTable(margins, driver.margins())
        cov, oracle = table.covariance(driver), covariance_oracle(driver, margins)
        np.testing.assert_allclose(cov, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())
        assert cov.sum() == pytest.approx(table.law(driver).variance(), rel=1e-12)

    @pytest.mark.parametrize("label", [f"r{i}" for i in range(1, 13)])
    def test_dense_example_final(self, label):
        self.check(example_final_driver(label), example_final_margins())

    def test_atoms_d10(self):
        d = 10
        margins = [DiscreteMargin.from_power_cdf(0.2 + 0.05 * j, 2 + j % 3, 15) for j in range(d)]
        self.check(seeded_atom_driver(d, 16, seed=5), margins)

    def test_exchangeable_d24(self):
        d = 24
        margins = [DiscreteMargin.from_power_cdf(0.2 + 0.01 * j, 2 + j % 3, 20) for j in range(d)]
        self.check(ExchangeableDriver(min_convex(d, F(1, 3))), margins)

    def test_one_split_table_per_report(self, monkeypatch):
        import gfgm.aggregation as aggregation

        margins, driver = small_portfolio()
        expected = allocation_report(driver, margins, 0.9)
        built, init = [], aggregation.SplitTable.__init__

        def counting_init(table, *args):
            built.append(args)
            init(table, *args)

        monkeypatch.setattr(aggregation.SplitTable, "__init__", counting_init)
        assert allocation_report(driver, margins, 0.9) == expected
        assert len(built) == 1
