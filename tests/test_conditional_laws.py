"""The table of conditional laws against independent oracles.

Lattice and grid laws are checked against dense ``np.convolve`` powers of
the split pmfs, mixed per extremal point and measured on the plain pmf;
exponential laws against quadrature of the two-gamma sum that the driver sum
fixes.  Every measure must agree within 1e-9 relative, with the same
attaining labels.
"""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from gfgm import (
    DiscreteMargin,
    ExponentialMargin,
    GridDistribution,
    LatticeDistribution,
    MixedErlangDistribution,
    UniformMargin,
    bounds_common_p,
    bounds_general_p,
    convex_bounds_fast,
    evaluate,
    parse_measure,
)
from gfgm import aggregation
from gfgm.aggregation import ConditionalLaws, _discretize_unit_density
from gfgm.margins import v0_stop_loss, v0v1_stop_loss
from gfgm.reference import d100_discrete_margin
from gfgm.sums import extremal_points, max_convex_point, min_convex_point

MEASURES = ["var:0.9", "es:0.9", "entropic:0.05", "std"]
CONVEX_MEASURES = MEASURES[1:]
RTOL = 1e-9
P_VALUES = (F(1, 3), F(1, 2), F(2, 3))


def dense_rows(a, b, d):
    """Row k: the (d-k)-fold convolution of a with the k-fold convolution of b."""
    rows = []
    for k in range(d + 1):
        pmf = np.array([1.0])
        for z in [a] * (d - k) + [b] * k:
            pmf = np.convolve(pmf, z)
        rows.append(pmf)
    return rows


def assert_matches(report, oracle_values):
    for m in report.measures:
        np.testing.assert_allclose(report.values[m], oracle_values[m], rtol=RTOL, atol=0)
        labels = report.point_labels
        assert report.minima[m][1] == labels[int(np.argmin(oracle_values[m]))]
        assert report.maxima[m][1] == labels[int(np.argmax(oracle_values[m]))]


def lattice_oracle(rows, points, wrap, measures=MEASURES):
    values = {m: [] for m in measures}
    for pt in points:
        pairs = [(pt.k1, F(1))] if pt.is_degenerate else [(pt.k1, pt.w1), (pt.k2, pt.w2)]
        mix = sum(float(w) * rows[k] for k, w in pairs)
        dist = wrap(mix / mix.sum())
        for m in measures:
            values[m].append(evaluate(dist, m))
    return values


@pytest.mark.parametrize("p", P_VALUES)
def test_discrete_rows_match_dense_convolution(p):
    # d=6 gives an integral dp (a degenerate point) at p = 1/3, 1/2 and 2/3
    d, margin = 6, DiscreteMargin.from_power_cdf(0.4, 2.0, 8)
    z = margin.z_pmfs(p)
    rows = dense_rows(z.z0 / z.z0.sum(), z.z1 / z.z1.sum(), d)
    points = extremal_points(d, p)
    assert points[-1].is_degenerate
    report = bounds_common_p(margin, d, p, MEASURES)
    assert_matches(report, lattice_oracle(rows, points, LatticeDistribution))


@pytest.mark.parametrize("p", P_VALUES)
def test_uniform_rows_match_dense_convolution(p):
    d, h = 5, 1.0 / 64
    f0 = _discretize_unit_density(v0_stop_loss, p, h)
    f1 = _discretize_unit_density(v0v1_stop_loss, p, h)
    rows = dense_rows(f0 / f0.sum(), f1 / f1.sum(), d)
    report = bounds_common_p(UniformMargin(), d, p, MEASURES, grid_h=h)
    oracle = lattice_oracle(rows, extremal_points(d, p), lambda pmf: GridDistribution(h, pmf))
    assert_matches(report, oracle)


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("family", ["discrete", "uniform"])
def test_fast_path_points_match_dense_convolution(family, p):
    # the two points' laws come from their mixed spectra, not from rows
    if family == "discrete":
        d, margin, h = 6, DiscreteMargin.from_power_cdf(0.4, 2.0, 8), None
        z = margin.z_pmfs(p)
        a, b, wrap = z.z0, z.z1, LatticeDistribution
    else:
        d, margin, h = 5, UniformMargin(), 1.0 / 64
        a = _discretize_unit_density(v0_stop_loss, p, h)
        b = _discretize_unit_density(v0v1_stop_loss, p, h)
        wrap = lambda pmf: GridDistribution(h, pmf)  # noqa: E731
    rows = dense_rows(a / a.sum(), b / b.sum(), d)
    report = convex_bounds_fast(margin, d, p, CONVEX_MEASURES, grid_h=h)
    points = [min_convex_point(d, p), max_convex_point(d, p)]
    assert_matches(report, lattice_oracle(rows, points, wrap, CONVEX_MEASURES))


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("d", [20, 47])
@pytest.mark.parametrize("family", ["discrete", "uniform", "exp"])
def test_fast_path_matches_full_enumeration_at_its_labels(family, d, p):
    margin = {"discrete": d100_discrete_margin(), "uniform": UniformMargin(),
              "exp": ExponentialMargin(0.1)}[family]
    fast = convex_bounds_fast(margin, d, p, CONVEX_MEASURES)
    full = bounds_common_p(margin, d, p, CONVEX_MEASURES)
    for m in fast.measures:
        for value, label in (fast.minima[m], fast.maxima[m]):
            want = full.values[m][full.point_labels.index(label)]
            assert value == pytest.approx(want, rel=1e-12, abs=0)
        assert (fast.minima[m][1], fast.maxima[m][1]) == (full.minima[m][1], full.maxima[m][1])


@pytest.mark.parametrize("family", ["discrete", "uniform"])
def test_fast_path_makes_two_transforms_each_way_and_no_rows(family, monkeypatch):
    import gfgm.bounds

    calls, tables = {"rfft": 0, "irfft": 0}, []
    for name in calls:
        def counted(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fft(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    class Recorded(ConditionalLaws):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(gfgm.bounds, "ConditionalLaws", Recorded)
    margin = d100_discrete_margin() if family == "discrete" else UniformMargin()
    convex_bounds_fast(margin, 100, F(1, 3), CONVEX_MEASURES)
    assert calls["rfft"] <= 2 and calls["irfft"] <= 2
    assert len(tables) == 1 and tables[0]._rows == {}


def test_fast_path_points_get_a_mean_check():
    laws = ConditionalLaws(d100_discrete_margin(), 40, F(1, 3))
    m0, m1 = laws._z_means
    laws._z_means = (m0, m1 * (1.0 + 1e-6))
    with pytest.raises(ArithmeticError, match="mean"):
        laws.mix([min_convex_point(40, F(1, 3)), max_convex_point(40, F(1, 3))])
    assert laws._rows == {}


def test_inverse_fft_round_off_past_the_checks_is_a_program_fault():
    negative, heavy = np.array([[0.5, 0.5 + 2e-9, -2e-9]]), np.array([[0.5, 0.5 + 1e-9, 0.0]])
    for pmfs in (negative, heavy):
        with pytest.raises(ArithmeticError):
            LatticeDistribution.stack(pmfs, [None], [None])
        with pytest.raises(ValueError):  # the same pmf from a caller is a usage error
            LatticeDistribution(pmfs[0])


def test_fast_lengths_match_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    # every n up to 300,000, and around the grid row and table budgets (2^22, 2^24 nodes)
    ends = [(1 << b) + e for b in (20, 22, 24) for e in (-1, 0, 1)] + [4199040, 4199041]
    for n in list(range(1, 300_001)) + ends:
        assert aggregation._next_fast_len(n) == next_fast_len(n, real=True), n


def two_gamma_measures(pairs, d, rate, p, alpha, gamma):
    """Measures of the mixture over k of Gamma(d, beta) + Gamma(k, rate), by quadrature."""
    beta = rate / (1.0 - p)
    base = stats.gamma(d, scale=1.0 / beta)

    def integral(f, upper=np.inf, breaks=None):
        return integrate.quad(f, 0.0, upper, points=breaks, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    def cdf(x):
        return sum(
            w * (base.cdf(x) if k == 0 else integral(
                lambda u: base.pdf(u) * stats.gamma.cdf(x - u, k, scale=1.0 / rate), x))
            for k, w in pairs
        )

    def stop_loss(t):
        """E[(S - t)+], integrating the extra gamma's stop-loss against the base density."""
        def extra(k, c):  # E[(c + Gamma(k, rate))+]
            if c >= 0 or k == 0:
                return max(c, 0.0) + k / rate
            return (k / rate) * stats.gamma.sf(-c, k + 1, scale=1.0 / rate) + c * stats.gamma.sf(
                -c, k, scale=1.0 / rate)

        return sum(
            w * (integral(lambda u: base.pdf(u) * extra(k, u - t), 40.0 * t, [t]))
            for k, w in pairs
        )

    q = optimize.brentq(lambda x: cdf(x) - alpha, 1e-9, 500.0 / rate, xtol=1e-13, rtol=1e-15)
    mean_k = lambda k: d / beta + k / rate
    var_k = lambda k: d / beta**2 + k / rate**2
    mean = sum(w * mean_k(k) for k, w in pairs)
    second = sum(w * (var_k(k) + mean_k(k) ** 2) for k, w in pairs)
    log_mgf = math.log(sum(
        w * (beta / (beta - gamma)) ** d * (rate / (rate - gamma)) ** k for k, w in pairs
    ))
    return {
        f"var:{alpha:g}": q,
        f"es:{alpha:g}": q + stop_loss(q) / (1.0 - alpha),
        f"entropic:{gamma:g}": log_mgf / gamma,
        "std": math.sqrt(second - mean**2),
    }


@pytest.mark.parametrize("p", P_VALUES)
def test_exponential_point_matches_gamma_quadrature(p):
    d, rate = 3, 0.5
    pt = extremal_points(d, p)[0]  # pair (0, k2): a two-gamma mixture with an Erlang part
    pairs = [(pt.k1, float(pt.w1)), (pt.k2, float(pt.w2))]
    oracle = two_gamma_measures(pairs, d, rate, float(p), 0.9, 0.05)
    dist = ConditionalLaws(ExponentialMargin(rate), d, p).mix(pt)
    for m, want in oracle.items():
        assert evaluate(dist, m) == pytest.approx(want, rel=RTOL)


def test_mixed_erlang_quantile_matches_bisection():
    laws = ConditionalLaws(ExponentialMargin(0.1), 40, F(2, 3))
    for pt in extremal_points(40, F(2, 3))[::37]:
        dist = laws.mix(pt)
        for level in (1e-6, 0.5, 0.95, 1 - 1e-9):
            lo, hi = 0.0, 1e4
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if dist.cdf(mid) >= level else (mid, hi)
            assert abs(dist.quantile(level) - hi) <= 1e-10


def test_mixed_erlang_quantile_ends_at_float_resolution():
    # at rate 1e-6 the quantile is near 1e8, where adjacent floats are 1.5e-8
    # apart, so a 1e-10 bracket cannot be reached; the answer scales with 1/rate
    g = min_convex_point(100, F(1, 2))
    slow = ConditionalLaws(ExponentialMargin(1e-6), 100, F(1, 2)).mix(g)
    fast = ConditionalLaws(ExponentialMargin(0.1), 100, F(1, 2)).mix(g)
    assert slow.quantile(0.95) == pytest.approx(1e5 * fast.quantile(0.95), rel=1e-12)


def count_quantile_steps(monkeypatch, cdf_pdf):
    """Steps of the quantile search go through ``cdf_pdf``; a search that does not end fails."""
    steps = []

    def counting(self, x):
        steps.append(x)
        assert len(steps) < 10_000, "the quantile search does not end"
        return cdf_pdf(self, x)

    monkeypatch.setattr(MixedErlangDistribution, "_cdf_pdf", counting)


@pytest.mark.parametrize("level", [1 - 1e-13, 1 - 1e-12, 0.9999999999999999])
def test_mixed_erlang_quantile_near_one_ends(level, monkeypatch):
    # the truncated stage weights keep about 1 - 1e-12; a level above that doubled the
    # bracket's lower end to inf and stepped forever
    count_quantile_steps(monkeypatch, MixedErlangDistribution._cdf_pdf)
    laws = ConditionalLaws(ExponentialMargin(0.1), 4, F(1, 3))
    for pt in extremal_points(4, F(1, 3)):
        dist = laws.mix(pt)
        kept = float(dist.eta.sum())
        if level >= kept:
            with pytest.raises(ValueError, match="at or above the mass"):
                dist.quantile(level)
        else:
            q = dist.quantile(level)
            assert math.isfinite(q) and dist.cdf(q) >= level


def test_mixed_erlang_quantile_bracket_stays_finite(monkeypatch):
    # a cdf that never reaches the level doubles the bracket's lower end until it overflows
    dist = ConditionalLaws(ExponentialMargin(0.1), 4, F(1, 3)).mix(min_convex_point(4, F(1, 3)))
    count_quantile_steps(monkeypatch, lambda self, x: (0.5, 0.0, 0.0))
    with pytest.raises(ArithmeticError, match="left the floats"):
        dist.quantile(0.9)


def test_two_point_call_touches_at_most_four_rows():
    laws = ConditionalLaws(d100_discrete_margin(), 100, F(1, 3))
    laws.mix(min_convex_point(100, F(1, 3)))
    laws.mix(max_convex_point(100, F(1, 3)))
    assert sorted(laws._rows) == [0, 33, 34, 100]


def test_uniform_table_budget_counts_rows(monkeypatch):
    laws = ConditionalLaws(UniformMargin(), 6, F(1, 3), grid_h=1.0 / 32)
    monkeypatch.setattr(aggregation, "_GRID_TABLE_NODES", 3 * laws.size)
    laws.mix(min_convex_point(6, F(1, 3)))  # degenerate point: one row
    laws.mix(max_convex_point(6, F(1, 3)))  # two more rows: three in all
    with pytest.raises(MemoryError, match="budget"):
        laws.mix(extremal_points(6, F(1, 3))[0])  # pair (0, 3) needs a fourth


def test_full_enumeration_counts_the_table_rows_against_the_grid_budget(monkeypatch):
    # d=6, p=1/3 touches all seven rows; the table refuses before its first inverse FFT
    size = ConditionalLaws(UniformMargin(), 6, F(1, 3), grid_h=1.0 / 32).size
    monkeypatch.setattr(aggregation, "_GRID_TABLE_NODES", 3 * size)
    inverses = []
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: inverses.append(args))
    with pytest.raises(MemoryError, match="7 grid pmfs exceed the budget"):
        bounds_common_p(UniformMargin(), 6, F(1, 3), ["var:0.9"], grid_h=1.0 / 32)
    assert inverses == []


TABLE_MEASURES = [parse_measure(f"{kind}:{alpha}") for alpha in (0.9, 0.95, 0.995)
                  for kind in ("var", "es")] + [parse_measure("entropic:0.01"), parse_measure("std")]


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("d", [20, 60, 100])
@pytest.mark.parametrize("family", ["discrete", "uniform"])
def test_table_matches_per_point_laws(family, d, p):
    # the oracle is a law per point, mixed from rows (ConditionalLaws.mix) and evaluated;
    # small margins and a coarse grid keep its thousands of laws quick
    margin, h = ((DiscreteMargin.from_power_cdf(0.2, 3.0, 20), None) if family == "discrete"
                 else (UniformMargin(), 1.0 / 16))
    points = extremal_points(d, p)
    got = np.array(ConditionalLaws(margin, d, p, h).evaluate_points(points, TABLE_MEASURES))
    laws = ConditionalLaws(margin, d, p, h)
    want = np.array([[evaluate(laws.mix(pt), m) for m in TABLE_MEASURES] for pt in points])
    for m, column, oracle in zip(TABLE_MEASURES, got.T, want.T):
        if m.kind == "var":
            np.testing.assert_array_equal(column, oracle)
        else:
            np.testing.assert_allclose(column, oracle, rtol=1e-11, atol=0)
        assert (np.argmin(column), np.argmax(column)) == (np.argmin(oracle), np.argmax(oracle))


def test_discrete_entropic_in_closed_form_at_moderate_gamma():
    # At d=60, p=1/3, gamma=0.01 the FFT pmf's far-tail round-off, weighted by
    # e^{gamma x}, gave 2420.7 at the convex-order smallest point (1213.5 in
    # closed form) and 2320.5 elsewhere, which tripped the convex check; the
    # check stays on here.
    margin, d, p, gamma = d100_discrete_margin(), 60, F(1, 3), 0.01
    label = f"entropic:{gamma:g}"
    report = bounds_common_p(margin, d, p, [label])
    z = margin.z_pmfs(p)
    j = np.arange(margin.n + 1)
    m0, m1 = (float(np.dot(zz / zz.sum(), np.exp(gamma * j))) for zz in (z.z0, z.z1))

    def closed(pt):
        return math.log(float(pt.w1) * m0 ** (d - pt.k1) * m1**pt.k1
                        + float(pt.w2) * m0 ** (d - pt.k2) * m1**pt.k2) / gamma

    lo, hi = min_convex_point(d, p), max_convex_point(d, p)
    assert report.minima[label] == (pytest.approx(closed(lo), rel=1e-12), lo.label)
    assert report.maxima[label] == (pytest.approx(closed(hi), rel=1e-12), hi.label)
    assert closed(lo) == pytest.approx(1213.54, abs=0.01)
    fast = convex_bounds_fast(margin, d, p, [label])
    assert fast.minima[label][0] == pytest.approx(closed(lo), rel=1e-12)
    assert fast.maxima[label][0] == pytest.approx(closed(hi), rel=1e-12)


def gamma_log_mgf(shape: int, rate: float, gamma: float) -> float:
    """log E e^{gamma G}, G ~ Gamma(shape, rate), by quadrature of the density in log space."""
    if shape == 0:
        return 0.0
    mode = (shape - 1) / (rate - gamma)  # peak of e^{gamma x} times the density

    def log_f(x):
        return gamma * x + stats.gamma.logpdf(x, shape, scale=1.0 / rate)

    top = log_f(mode) if shape > 1 else math.log(rate)
    body = sum(integrate.quad(lambda x: math.exp(log_f(x) - top), a, b, epsabs=0.0,
                              epsrel=1e-13, limit=500)[0] for a, b in ((0.0, mode), (mode, np.inf)))
    return top + math.log(body)


@pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("p", P_VALUES)
def test_exponential_entropic_and_std_in_closed_form(p, ratio):
    # Given driver sum k the sum is Gamma(d, beta) + Gamma(k, rate): its entropic and
    # std come in closed form, not from the truncated stage weights.
    d, rate = 3, 0.5
    beta, gamma = rate / (1 - float(p)), ratio * rate
    laws = ConditionalLaws(ExponentialMargin(rate), d, p)
    for pt in extremal_points(d, p):
        pairs = [(pt.k1, float(pt.w1))] if pt.is_degenerate else [
            (pt.k1, float(pt.w1)), (pt.k2, float(pt.w2))]
        logs = [math.log(w) + gamma_log_mgf(d, beta, gamma) + gamma_log_mgf(k, rate, gamma)
                for k, w in pairs]
        top = max(logs)
        want = (top + math.log(sum(math.exp(x - top) for x in logs))) / gamma
        mean = sum(w * (d / beta + k / rate) for k, w in pairs)
        var = sum(w * (d / beta**2 + k / rate**2 + (d / beta + k / rate - mean) ** 2)
                  for k, w in pairs)
        dist = laws.mix(pt)
        assert evaluate(dist, f"entropic:{gamma!r}") == pytest.approx(want, rel=1e-12, abs=0)
        assert evaluate(dist, "std") == pytest.approx(math.sqrt(var), rel=1e-12, abs=0)


def test_exponential_entropic_at_tiny_gamma_is_the_mean():
    # The truncated stage weights sum to 1 - tail_mass; dividing log(1 - tail_mass) by a
    # tiny gamma gave -3e202.  The closed form gives E S.
    report = bounds_common_p(ExponentialMargin(1.0), 3, F(1, 2), ["entropic:2.9e-215"])
    for value in report.values["entropic:2.9e-215"]:
        assert value == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("call", ["common", "fast", "general-mc"])
def test_exponential_entropic_refused_at_or_above_the_rate(call):
    measures = ["std", "entropic:0.5"]
    margins = [ExponentialMargin(1.0), ExponentialMargin(0.5), ExponentialMargin(2.0)]
    with pytest.raises(ValueError, match="rate 0.5"):
        if call == "common":
            bounds_common_p(margins[1], 3, F(1, 2), measures)
        elif call == "fast":
            convex_bounds_fast(margins[1], 3, F(1, 2), measures)
        else:
            bounds_general_p(margins, [F(1, 2), F(1, 3), F(2, 3)], measures, mc_n=100)


class StatsRows(ConditionalLaws):
    """Exponential rows from ``scipy.stats.nbinom``, cut at its 1 - 1e-15 quantile plus ten."""

    def _row(self, k):
        if k not in self._rows:
            row = np.ones(1)
            if k:
                m_max = int(stats.nbinom.ppf(1.0 - 1e-15, k, 1.0 - self.p)) + 10
                row = np.zeros(k + m_max + 1)
                row[k:] = stats.nbinom.pmf(np.arange(m_max + 1), k, 1.0 - self.p)
            self._rows[k] = row
        return self._rows[k]


@pytest.mark.parametrize("p, rtol", [(p, 1e-11) for p in (0.2, 1 / 3, 0.5, 2 / 3, 0.8)]
                         + [(p, 1e-9) for p in (0.9, 0.99, 0.999)])
@pytest.mark.parametrize("k", [1, 2, 7, 50, 200])
def test_stage_weights_match_negative_binomial_pmf(k, p, rtol):
    row = ConditionalLaws(ExponentialMargin(1.0), k, p)._row(k)
    assert not row[:k].any()
    weights = row[k:]
    pmf = stats.nbinom.pmf(np.arange(weights.size), k, 1.0 - p)
    seen = pmf > 1e-300
    np.testing.assert_allclose(weights[seen], pmf[seen], rtol=rtol, atol=0)
    assert stats.nbinom.sf(weights.size - 1, k, 1.0 - p) <= 1e-15  # the dropped tail
    assert abs(weights.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("p", [F(1, 3), F(1, 2), F(2, 3), F(999, 1000)])
@pytest.mark.parametrize("d", [3, 20, 100, 200])
def test_exponential_var_es_match_stats_rows(d, p):
    # rows near p = 1 hold up to 3e5 stages, so fewer points and levels there
    near_one = p == F(999, 1000)
    measures = ["var:0.9", "es:0.9"] + ([] if near_one else ["var:0.995", "es:0.995"])
    points = extremal_points(d, p)
    points = [points[i] for i in np.unique(np.linspace(0, len(points) - 1, 3 if near_one else 12)
                                           .astype(int))]
    margin = ExponentialMargin(0.1)
    got, want = ({m: [] for m in measures} for _ in range(2))
    for laws, values in ((ConditionalLaws(margin, d, p), got), (StatsRows(margin, d, p), want)):
        for pt in points:
            dist = laws.mix(pt)
            for m in measures:
                values[m].append(evaluate(dist, m))
    for m in measures:
        np.testing.assert_allclose(got[m], want[m], rtol=1e-10, atol=0)
        assert (np.argmin(got[m]), np.argmax(got[m])) == (np.argmin(want[m]), np.argmax(want[m]))


def test_stage_rows_past_the_budget_are_refused_before_they_are_built():
    near = ConditionalLaws(ExponentialMargin(1.0), 4, F(9999, 10000))
    assert near._row(4).size == 441805  # 1 - p = 1e-4 stays inside 2^20 stages
    nearer = ConditionalLaws(ExponentialMargin(1.0), 4, F(99999, 100000))
    with pytest.raises(ValueError, match=r"d=4, p=0.99999 need 4.418e\+06 Erlang stages"):
        nearer.mix(max_convex_point(4, F(99999, 100000)))
    assert 4 not in nearer._rows


def test_row_lengths_match_nbdtrik():
    # the rows used to be cut at ceil(nbdtrik(1 - 1e-15, k, 1 - p)) + 10 stages past the k-th
    from scipy.special import nbdtrik

    for q in np.geomspace(0.8, 1e-6, 15):
        p = 1.0 - q
        for k in list(range(1, 61)) + [100, 150, 200, 300]:
            size = k + math.ceil(nbdtrik(1.0 - 1e-15, k, q)) + 11
            laws = ConditionalLaws(ExponentialMargin(1.0), k, p)
            if size <= aggregation._STAGE_ROW_NODES:
                assert laws._row(k).size == size, (k, q)
            else:
                with pytest.raises(ValueError, match=re.escape(f"need {size:.4g} Erlang stages")):
                    laws._row(k)


def test_poisson_weights_match_the_pmf():
    # scipy.stats.poisson.pmf is itself off by 3e-12 at lam = 1e3 and 2e-9 at 4.4e5
    mpmath = pytest.importorskip("mpmath")
    from gfgm.distributions import poisson_weights

    mpmath.mp.dps = 30
    for lam in (1e-300, 1e-8, 0.3, 1.0, 7.5, 64.0, 1e3, 4.4e5):
        lo = max(0, int(lam) - 150)
        hi = int(lam) + 250
        want = np.array([float(mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1)))
                         for j in range(lo, hi + 1)])
        seen = want > 1e-290
        np.testing.assert_allclose(poisson_weights(lam, lo, hi)[seen], want[seen], rtol=1e-13)


def erlang_oracle(dist):
    """cdf, survival and stop-loss transform of a mixed-Erlang law from scipy's regularized
    incomplete gammas; E[(X - t)+] = int_t^inf P(X > u) du = sum_{m=1..n} Q(m, beta t) / beta
    for X ~ Erlang(n, beta), a sum of positive terms."""
    from scipy.special import gammainc, gammaincc

    shapes, eta, beta = dist.shapes, dist.eta, dist.beta
    m = np.arange(1.0, shapes[-1] + 1.0)

    def cdf(x):
        return float(gammainc(shapes, beta * x) @ eta)

    def survival(x):
        return float(gammaincc(shapes, beta * x) @ eta)

    def stop_loss(t):
        return float(np.cumsum(gammaincc(m, beta * t))[shapes.astype(int) - 1] @ eta) / beta

    return cdf, survival, stop_loss


@pytest.mark.parametrize("d", [4, 100])
def test_exponential_far_tails_keep_their_relative_accuracy(d):
    # exp:0.1 at p = 1/3, the convex minimum; 1 - gammainc lost ES to 1e-6 at 1 - 1e-12
    # and returned a stop-loss of 0.0 past 1.5 VaR
    p = F(1, 3)
    dist = ConditionalLaws(ExponentialMargin(0.1), d, p).mix(min_convex_point(d, p))
    cdf, survival, stop_loss = erlang_oracle(dist)
    for alpha in (0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
        q = dist.quantile(alpha)
        assert evaluate(dist, f"es:{alpha!r}") == pytest.approx(
            q + stop_loss(q) / (1.0 - alpha), rel=1e-12, abs=0)
        assert dist._cdf_survival(q)[1] == pytest.approx(survival(q), rel=1e-12, abs=0)
    far = dist.quantile(1 - 1e-12)
    for t in (0.5 * far, far, 1.5 * far, 2.0 * far, 3.0 * far):
        assert dist.stop_loss(t) == pytest.approx(stop_loss(t), rel=1e-12, abs=0)
        assert dist._cdf_survival(t)[1] == pytest.approx(survival(t), rel=1e-12, abs=0)
    assert 0.0 < dist.stop_loss(3.0 * far) < 1e-40
    # the left tail: the cdf is summed from its own end too, down to 1e-300
    xs = [x for x in np.geomspace(1e-80, dist.mean(), 200) if cdf(x) > 1e-300]
    assert min(cdf(x) for x in xs) < 1e-250
    for x in xs:
        assert dist.cdf(x) == pytest.approx(cdf(x), rel=1e-12, abs=0)
    q = dist.quantile(1e-12)
    assert cdf(q) >= 1e-12 * (1 - 1e-12) and cdf(q - 1.1e-10) < 1e-12


def test_mixed_erlang_vector_cdf_is_the_scalar_kernel():
    # gfgm validate reads the vector cdf for its Kolmogorov distance
    from scipy.special import gammainc

    p = F(2, 3)
    dist = ConditionalLaws(ExponentialMargin(0.1), 20, p).mix(extremal_points(20, p)[7])
    mean = dist.mean()
    xs = np.array([-5.0, -1e-300, 0.0, 1e-300, 1e-100, 1e-30, 1e-5, 0.1 * mean, mean, 3 * mean,
                   30 * mean, 1e4 * mean, 1e300, np.inf])
    got = dist.cdf(xs)
    assert got.shape == xs.shape and dist.cdf(xs.reshape(2, -1)).shape == (2, xs.size // 2)
    assert not got[xs <= 0].any()
    scalar = [dist._cdf_pdf(x)[0] for x in xs[xs > 0]]
    assert got[xs > 0].tolist() == scalar == [dist.cdf(x) for x in xs[xs > 0]]
    want = gammainc(dist.shapes[None, :], dist.beta * xs[:, None]) @ dist.eta
    seen = want > 1e-300
    np.testing.assert_allclose(got[seen], want[seen], rtol=1e-12, atol=0)
    assert got[-1] == got[-2] == pytest.approx(dist.eta.sum(), rel=1e-15)
