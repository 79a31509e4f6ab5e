import math
from fractions import Fraction as F

import numpy as np
import pytest

from gfgm import (
    DiscreteMargin,
    EmpiricalDistribution,
    ExponentialMargin,
    LatticeDistribution,
    UniformMargin,
    convex_order_leq,
    entropic,
    es,
    frechet_var_bounds,
    min_convex,
    parse_measure,
    std,
    var,
)
from gfgm.distributions import GridDistribution, MixedErlangDistribution
from gfgm.measures import Measure
from gfgm.reference import d100_discrete_margin
from gfgm.sums import SumPmf, extremal_points


def lattice(values):
    return LatticeDistribution(np.asarray(values, dtype=float))


def exponential(rate):
    """Exp(rate) as a one-component mixed-Erlang law, with its exact log-mgf and variance."""
    return MixedErlangDistribution(rate, 1, np.array([1.0]),
                                   log_mgf=lambda g: -math.log1p(-g / rate), variance=rate**-2)


def rd(index):
    return extremal_points(5, F(1, 2))[index - 1].pmf


class TestVar:
    def test_rd9_level_08(self):
        assert var(LatticeDistribution.from_sum_pmf(rd(9)), 0.8) == 2.0

    def test_degenerate(self):
        point = lattice([0, 0, 0, 1])
        for alpha in (0.01, 0.5, 0.99):
            assert var(point, alpha) == 3.0

    def test_exponential_closed_form(self):
        dist = exponential(0.1)
        assert var(dist, 0.95) == pytest.approx(10 * math.log(20), abs=1e-8)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            var(lattice([1.0]), 1.0)


class TestEs:
    def test_rd9_level_08(self):
        assert es(LatticeDistribution.from_sum_pmf(rd(9)), 0.8) == pytest.approx(4.5)

    def test_degenerate(self):
        assert es(lattice([0, 1]), 0.3) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        dist = exponential(0.1)
        assert es(dist, 0.95) == pytest.approx(10 * (1 + math.log(20)), abs=1e-6)

    def test_integral_representation_agreement(self):
        # (1/(1-a)) * integral of the quantile over (a, 1), averaged exactly
        # over cdf jump intervals, must match the stop-loss form.
        g = SumPmf(5, tuple(F(x) for x in ["1/10", "1/5", "1/5", "1/10", "1/5", "1/5"]))
        dist = LatticeDistribution.from_sum_pmf(g)
        alpha = 0.77
        cdf = np.concatenate([[0.0], np.cumsum(dist.probs)])
        integral = 0.0
        for k in range(6):
            lo, hi = max(cdf[k], alpha), max(cdf[k + 1], alpha)
            integral += k * (hi - lo)
        oracle = integral / (1 - alpha)
        assert es(dist, alpha) == pytest.approx(oracle, abs=1e-12)

    def test_es_at_least_var_and_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = rng.random(8)
            dist = lattice(probs / probs.sum())
            for alpha in (0.1, 0.5, 0.9):
                assert es(dist, alpha) >= var(dist, alpha) - 1e-12
                assert es(dist, alpha) >= dist.mean() - 1e-12

    def test_monotone_in_level(self):
        dist = LatticeDistribution.from_sum_pmf(rd(5))
        values = [es(dist, a) for a in np.linspace(0.05, 0.95, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestEntropic:
    def test_rd1_gamma_01(self):
        dist = LatticeDistribution.from_sum_pmf(rd(1))
        expected = 10 * math.log(1 / 6 + (5 / 6) * math.exp(0.3))
        assert entropic(dist, 0.1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.5584, abs=5e-5)

    def test_degenerate(self):
        assert entropic(lattice([0, 0, 1]), 0.7) == pytest.approx(2.0)

    def test_small_gamma_limit_is_mean(self):
        dist = LatticeDistribution.from_sum_pmf(rd(4))
        assert entropic(dist, 1e-8) == pytest.approx(dist.mean(), abs=1e-6)

    def test_monotone_in_gamma(self):
        dist = LatticeDistribution.from_sum_pmf(rd(2))
        values = [entropic(dist, g) for g in (0.01, 0.1, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] >= dist.mean() - 1e-9  # Jensen


class TestStd:
    def test_degenerate_zero(self):
        assert std(lattice([0, 1])) == 0.0

    def test_binomial_closed_form(self):
        from math import comb

        probs = [comb(5, k) * 0.5**5 for k in range(6)]
        assert std(lattice(probs)) == pytest.approx(math.sqrt(5 / 4), abs=1e-12)

    def test_empirical(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10, 2, 200000)
        assert std(EmpiricalDistribution(samples)) == pytest.approx(2.0, abs=0.02)


class TestArgumentsPastTheIntegerRange:
    """cdf and stop-loss at +-inf and past 2^63 lattice steps, the same for every kind of law;
    on a fine grid x / h overflows before x does."""

    @pytest.mark.parametrize("law", [
        lattice([0.2, 0.3, 0.5]),
        GridDistribution(0.25, [0.2, 0.3, 0.5]),
        GridDistribution(1e-300, [0.2, 0.3, 0.5]),
        MixedErlangDistribution(1.0, 1, np.array([0.5, 0.5]), log_mgf=None, variance=1.5),
        EmpiricalDistribution(np.array([1.0, 2.0, 3.0])),
    ], ids=["lattice", "grid", "fine-grid", "mixed-erlang", "empirical"])
    def test_far_arguments(self, law):
        assert law.cdf(np.inf) == law.cdf(1e300) == 1.0
        assert law.cdf(-np.inf) == law.cdf(-1e300) == 0.0
        assert list(law.cdf(np.array([-np.inf, 1e300, np.inf]))) == [0.0, 1.0, 1.0]
        assert law.stop_loss(np.inf) == law.stop_loss(1e300) == 0.0
        assert law.stop_loss(-np.inf) == math.inf
        assert law.stop_loss(-1e300) >= 1e300


class TestCashInvarianceAndScaling:
    def test_translation_on_shifted_lattice(self):
        base = LatticeDistribution.from_sum_pmf(rd(6))
        shifted = lattice(np.concatenate([np.zeros(3), base.probs]))
        for alpha in (0.3, 0.8):
            assert var(shifted, alpha) == pytest.approx(var(base, alpha) + 3)
            assert es(shifted, alpha) == pytest.approx(es(base, alpha) + 3, abs=1e-10)
        assert entropic(shifted, 0.2) == pytest.approx(entropic(base, 0.2) + 3, abs=1e-10)

    def test_positive_homogeneity_via_grid_scaling(self):
        base = LatticeDistribution.from_sum_pmf(rd(6))
        scaled = GridDistribution(2.5, base.probs)
        for alpha in (0.3, 0.8):
            assert var(scaled, alpha) == pytest.approx(2.5 * var(base, alpha))
            assert es(scaled, alpha) == pytest.approx(2.5 * es(base, alpha), abs=1e-10)
        assert std(scaled) == pytest.approx(2.5 * std(base), abs=1e-10)


class TestConvexOrderMonotonicity:
    def test_es_and_entropic_respect_convex_order(self):
        d, p = 6, F(1, 3)
        points = extremal_points(d, p)
        lo = min_convex(d, p)
        lo_dist = LatticeDistribution.from_sum_pmf(lo)
        for pt in points:
            assert convex_order_leq(lo, pt.pmf)
            dist = LatticeDistribution.from_sum_pmf(pt.pmf)
            for alpha in (0.2, 0.6, 0.9):
                assert es(lo_dist, alpha) <= es(dist, alpha) + 1e-10
            for gamma in (0.05, 0.3, 1.0):
                assert entropic(lo_dist, gamma) <= entropic(dist, gamma) + 1e-10


class TestFrechetVarBounds:
    def test_exponential_closed_forms(self):
        lower, upper = frechet_var_bounds(ExponentialMargin(0.1), 100, 0.95)
        assert lower == pytest.approx(842.3299, abs=1e-2)
        assert upper == pytest.approx(3995.7323, abs=1e-2)

    def test_discrete_margin_exact_sums(self):
        # Exact partial sums; the lower tail quantity is cross-checked by
        # quadrature of the quantile function in the aggregation tests.
        margin = d100_discrete_margin()
        lower, upper = frechet_var_bounds(margin, 100, 0.95)
        assert upper == pytest.approx(9606.61, abs=1e-2)
        assert lower == pytest.approx(1083.81, abs=1e-2)

    def test_degenerate_margin(self):
        margin = DiscreteMargin.point_mass(7)
        assert frechet_var_bounds(margin, 10, 0.5) == (70, 70)

    def test_uniform_margin(self):
        lower, upper = frechet_var_bounds(UniformMargin(), 4, 0.8)
        assert lower == pytest.approx(4 * 0.4)
        assert upper == pytest.approx(4 * 0.9)

    def test_identity_mean_decomposition(self):
        # alpha * LTVaR + (1 - alpha) * ES = mean, for every margin family
        for margin in (ExponentialMargin(0.25), d100_discrete_margin(), UniformMargin()):
            for alpha in (0.5, 0.9, 0.99):
                combo = alpha * margin.ltvar(alpha) + (1 - alpha) * margin.es(alpha)
                assert combo == pytest.approx(margin.mean, rel=1e-10)


class TestMeasureParsing:
    def test_round_trip_labels(self):
        for text in ("var:0.95", "es:0.8", "entropic:0.001", "std"):
            assert parse_measure(text).label == text

    @pytest.mark.parametrize("text", ["var:0.934", "es:0.95", "entropic:0.002453", "es:1e-05",
                                      "entropic:12.5"])
    def test_short_labels_stay_as_written(self, text):
        assert parse_measure(text).label == text

    def test_levels_that_agree_to_six_digits_keep_their_own_labels(self):
        labels = [parse_measure(t).label for t in ("var:0.9999991", "var:0.9999992",
                                                     "es:0.99999999999")]
        assert labels == ["var:0.9999991", "var:0.9999992", "es:0.99999999999"]
        for label in labels:
            assert float(label.partition(":")[2]) == parse_measure(label).param

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            parse_measure("cvar:0.9")

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            Measure("var", 1.2)
        with pytest.raises(ValueError):
            Measure("entropic", -0.1)
        with pytest.raises(ValueError):
            Measure("std", 0.5)

    def test_convexity_flags(self):
        assert not parse_measure("var:0.9").is_convex
        assert all(parse_measure(t).is_convex for t in ("es:0.9", "entropic:1", "std"))
