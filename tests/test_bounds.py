import json
import math
from fractions import Fraction as F

import pytest

from gfgm import (
    DiscreteMargin,
    ExponentialMargin,
    UniformMargin,
    bounds_common_p,
    bounds_general_p,
    convex_bounds_fast,
    frechet_var_bounds,
    var_bounds_common_p,
)
import gfgm.bounds
from gfgm.aggregation import ConditionalLaws
from gfgm.bounds import ConvexBoundViolation
from gfgm.distributions import EmpiricalDistribution
from gfgm.reference import EXAMPLE_FINAL_VERTICES, example_final_margins
from gfgm.sums import extremal_points, max_convex_point, min_convex_point

FGM_H = 5 / 2.0**15


class TestCommonP:
    def test_bernoulli_min_var_attained_at_rd9(self):
        lo, hi, (lo_at, hi_at) = var_bounds_common_p("bernoulli", 5, F(1, 2), 0.8)
        assert (lo, lo_at) == (2.0, "rD9")
        assert hi == 5.0 and hi_at in ("rD3", "rD6")

    def test_uniform_min_var_attained_at_rd7(self):
        # the attaining point moves once the copula transform is applied
        lo, hi, (lo_at, hi_at) = var_bounds_common_p(
            UniformMargin(), 5, F(1, 2), 0.8, grid_h=FGM_H
        )
        assert lo_at == "rD7" and hi_at == "rD3"
        assert lo == pytest.approx(2.9729, abs=1e-2)
        assert hi == pytest.approx(3.4928, abs=1e-2)

    def test_convex_extrema_at_distinguished_points(self):
        report = bounds_common_p(
            UniformMargin(), 5, F(1, 2), ["es:0.8", "entropic:0.1", "std"], grid_h=FGM_H
        )
        assert report.minima["es:0.8"][1] == "rD7"
        assert report.maxima["es:0.8"][1] == "rD3"
        assert report.minima["entropic:0.1"][1] == "rD7"

    def test_report_extrema_consistency(self):
        report = bounds_common_p(ExponentialMargin(0.5), 8, F(1, 3), ["var:0.9", "es:0.9"])
        for label in report.measures:
            values = report.values[label]
            lo, lo_at = report.minima[label]
            hi, hi_at = report.maxima[label]
            assert lo == min(values) and hi == max(values)
            assert values[report.point_labels.index(lo_at)] == lo
            assert values[report.point_labels.index(hi_at)] == hi

    @pytest.mark.parametrize("measures", [["var:0.95", "var:0.95"], ["es:0.9", "std", "es:0.90"]])
    def test_duplicate_labels_are_refused(self, measures):
        with pytest.raises(ValueError, match="duplicate"):
            bounds_common_p("bernoulli", 4, F(1, 2), measures)

    def test_close_levels_get_a_column_each(self):
        report = bounds_common_p(ExponentialMargin(0.1), 4, F(1, 3),
                                 ["var:0.9999991", "var:0.9999992"])
        assert report.measures == ["var:0.9999991", "var:0.9999992"]
        assert len(report.values) == 2
        assert report.values["var:0.9999991"] != report.values["var:0.9999992"]

    def test_grid_step_is_the_one_used(self):
        # the default uniform step is d/2^15; other margins have no grid, whatever grid_h says
        for bounds in (bounds_common_p, convex_bounds_fast):
            assert bounds(UniformMargin(), 4, F(1, 2), ["es:0.9"]).metadata["grid_h"] == 4 / 2**15
            report = bounds(UniformMargin(), 5, F(1, 2), ["es:0.9"], grid_h=FGM_H)
            assert report.metadata["grid_h"] == FGM_H
            for margin in (ExponentialMargin(0.1), DiscreteMargin.point_mass(3), "bernoulli"):
                report = bounds(margin, 4, F(1, 2), ["es:0.9"], grid_h=0.25)
                assert report.metadata["grid_h"] is None

    def test_to_json_schema(self):
        report = bounds_common_p("bernoulli", 4, F(1, 2), ["es:0.9"])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["schema"] == "gfgm-risk-report/1"
        assert payload["min"]["es:0.9"]["at"].startswith("rD")


class TestConvexFast:
    def test_matches_full_enumeration_exponential(self):
        measures = ["es:0.95", "entropic:0.001", "std"]
        fast = convex_bounds_fast(ExponentialMargin(0.1), 100, F(1, 2), measures)
        full = bounds_common_p(ExponentialMargin(0.1), 100, F(1, 2), measures)
        for m in measures:
            assert fast.minima[m][0] == pytest.approx(full.minima[m][0], abs=1e-9)
            assert fast.maxima[m][0] == pytest.approx(full.maxima[m][0], abs=1e-9)

    def test_bernoulli_entropic_printed_values(self):
        report = convex_bounds_fast("bernoulli", 5, F(1, 2), ["entropic:0.1"])
        assert report.minima["entropic:0.1"][0] == pytest.approx(2.5125, abs=5e-4)
        assert report.maxima["entropic:0.1"][0] == pytest.approx(2.8093, abs=5e-4)
        assert report.minima["entropic:0.1"][1] == "rD7"
        assert report.maxima["entropic:0.1"][1] == "rD3"

    def test_degenerate_margin_collapses(self):
        report = convex_bounds_fast(DiscreteMargin.point_mass(3), 6, F(1, 2), ["es:0.9"])
        assert report.minima["es:0.9"][0] == pytest.approx(report.maxima["es:0.9"][0])

    def test_var_refused(self):
        with pytest.raises(ValueError):
            convex_bounds_fast(ExponentialMargin(1.0), 5, F(1, 2), ["var:0.9"])


class TestConvexGuard:
    """Full enumeration checks each convex measure's extrema against the convex-order
    smallest point and the upper Fréchet point; a value off at any other point raises."""

    D, P = 6, F(1, 3)

    def target(self) -> int:
        """Position of the first point that is neither convex-order extreme."""
        designated = {min_convex_point(self.D, self.P).index - 1,
                      max_convex_point(self.D, self.P).index - 1}
        return min(set(range(len(extremal_points(self.D, self.P)))) - designated)

    def bounds_with_one_point_scaled(self, monkeypatch, measure, factor):
        target = self.target()
        evaluate, calls = gfgm.bounds.evaluate, []

        def scaled(dist, m):  # one measure, so the calls run over the points in order
            calls.append(m)
            return evaluate(dist, m) * (factor if len(calls) - 1 == target else 1.0)

        monkeypatch.setattr(gfgm.bounds, "evaluate", scaled)
        report = bounds_common_p(ExponentialMargin(0.5), self.D, self.P, [measure])
        return report, report.point_labels[target]

    def test_a_minimum_below_the_convex_order_point_raises(self, monkeypatch):
        with pytest.raises(ConvexBoundViolation, match="es:0.9: minimum .* undercuts"):
            self.bounds_with_one_point_scaled(monkeypatch, "es:0.9", 0.5)

    def test_a_maximum_above_the_upper_frechet_point_raises(self, monkeypatch):
        with pytest.raises(ConvexBoundViolation, match="entropic:0.1: maximum .* exceeds"):
            self.bounds_with_one_point_scaled(monkeypatch, "entropic:0.1", 2.0)

    def test_var_is_never_checked(self, monkeypatch):
        report, label = self.bounds_with_one_point_scaled(monkeypatch, "var:0.9", 0.5)
        assert report.minima["var:0.9"][1] == label
        report, label = self.bounds_with_one_point_scaled(monkeypatch, "var:0.9", 2.0)
        assert report.maxima["var:0.9"][1] == label

    @pytest.mark.parametrize("measure, factor, match", [
        ("es:0.9", 0.5, "es:0.9: minimum .* undercuts"),
        ("std", 2.0, "std: maximum .* exceeds"),
    ])
    def test_a_discrete_point_off_the_convex_bounds_raises(self, monkeypatch, measure, factor,
                                                           match):
        # lattice points are measured from the table's row survivals, not by evaluate
        target, table = self.target(), ConditionalLaws.evaluate_points

        def scaled(laws, points, measures):
            rows = table(laws, points, measures)
            rows[target] = [value * factor for value in rows[target]]
            return rows

        monkeypatch.setattr(ConditionalLaws, "evaluate_points", scaled)
        margin = DiscreteMargin.from_power_cdf(0.4, 2.0, 8)
        report = bounds_common_p(margin, self.D, self.P, ["var:0.9"])  # VaR is never checked
        extreme = report.minima if factor < 1 else report.maxima
        assert extreme["var:0.9"][1] == report.point_labels[target]
        with pytest.raises(ConvexBoundViolation, match=match):
            bounds_common_p(margin, self.D, self.P, [measure])


class TestGeneralP:
    def test_example_final_bounds(self):
        report = bounds_general_p(
            example_final_margins(),
            ["1/2", "1/3", "2/3"],
            ["var:0.95", "es:0.95", "entropic:0.001", "std"],
        )
        expected = {
            "var:0.95": (1219.0, 1643.0),
            "es:0.95": (1590.08, 1906.84),
            "entropic:0.001": (555.98, 629.61),
            "std": (473.23, 566.39),
        }
        r1 = tuple(F(v) for v in EXAMPLE_FINAL_VERTICES["r1"])
        r11 = tuple(F(v) for v in EXAMPLE_FINAL_VERTICES["r11"])
        from gfgm import enumerate_vertices

        vertices = enumerate_vertices(["1/2", "1/3", "2/3"])
        label_of = {f"v{i + 1}": v.values for i, v in enumerate(vertices)}
        for measure, (lo, hi) in expected.items():
            got_lo, lo_at = report.minima[measure]
            got_hi, hi_at = report.maxima[measure]
            assert got_lo == pytest.approx(lo, abs=5e-2)
            assert got_hi == pytest.approx(hi, abs=5e-2)
            assert label_of[lo_at] == r1
            assert label_of[hi_at] == r11

    def test_independence_interior(self):
        from gfgm import DenseDriver, aggregate_discrete_general, evaluate, independence_pmf

        margins = example_final_margins()
        p = [F(1, 2), F(1, 3), F(2, 3)]
        report = bounds_general_p(margins, p, ["es:0.95"])
        dist = aggregate_discrete_general(margins, DenseDriver(independence_pmf(p)))
        value = evaluate(dist, "es:0.95")
        assert report.minima["es:0.95"][0] <= value <= report.maxima["es:0.95"][0]

    def test_one_split_table_per_call(self, monkeypatch):
        import gfgm.aggregation as aggregation
        from gfgm import DenseDriver, aggregate_discrete_general, enumerate_vertices, evaluate

        margins = example_final_margins()
        p = [F(1, 2), F(1, 3), F(2, 3)]
        measures = ["var:0.95", "es:0.95", "entropic:0.001", "std"]
        separate = [[evaluate(aggregate_discrete_general(margins, DenseDriver(v)), m)
                     for m in measures] for v in enumerate_vertices(p)]
        built, init = [], aggregation.SplitTable.__init__

        def counting_init(table, *args):
            built.append(args)
            init(table, *args)

        monkeypatch.setattr(aggregation.SplitTable, "__init__", counting_init)
        report = bounds_general_p(margins, p, measures)
        assert len(built) == 1
        assert [report.values[m] for m in measures] == [list(col) for col in zip(*separate)]

    def test_one_stacked_aggregation_at_d4(self, monkeypatch):
        import gfgm.bounds as bounds
        from gfgm import DenseDriver, aggregate_discrete_general, enumerate_vertices, evaluate

        margins = [DiscreteMargin.from_power_cdf(0.1 + 0.05 * j, 2.0 + 0.5 * j, 60)
                   for j in range(4)]
        p = [F(1, 2), F(1, 3), F(2, 3), F(1, 2)]
        measures = ["var:0.95", "es:0.95", "entropic:0.01", "std"]
        vertices = enumerate_vertices(p)
        assert len(vertices) == 146
        separate = [[evaluate(aggregate_discrete_general(margins, DenseDriver(v)), m)
                     for m in measures] for v in vertices]
        calls, aggregate = [], bounds.aggregate_discrete_general

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return aggregate(*args, **kwargs)

        monkeypatch.setattr(bounds, "aggregate_discrete_general", counting)
        report = bounds_general_p(margins, p, measures)
        assert calls == [146]
        assert [report.values[m] for m in measures] == [list(col) for col in zip(*separate)]

    def test_vertex_blocks_do_not_change_values(self, monkeypatch):
        import gfgm.bounds as bounds
        from gfgm.aggregation import SplitTable

        margins = example_final_margins()
        p = [F(1, 2), F(1, 3), F(2, 3)]
        measures = ["var:0.9", "es:0.9", "entropic:0.001", "std"]
        whole = bounds_general_p(margins, p, measures)
        blocks, aggregate = [], bounds.aggregate_discrete_general

        def counting(*args, **kwargs):
            blocks.append(len(args[1]))
            return aggregate(*args, **kwargs)

        monkeypatch.setattr(bounds, "aggregate_discrete_general", counting)
        monkeypatch.setattr(bounds, "_STACK_NODES", 5 * SplitTable(margins, p).length + 1)
        assert bounds_general_p(margins, p, measures).values == whole.values
        assert blocks == [5, 5, 2]  # 12 vertices

    def test_large_support_blocks_stay_within_the_node_budget(self, monkeypatch):
        # the 146 vertices of a d=4 lattice of 16,001 nodes take 2.3e6 nodes in all
        import gfgm.bounds as bounds

        margins = [DiscreteMargin.from_power_cdf(0.1 + 0.05 * j, 2.0, 4000) for j in range(4)]
        blocks, aggregate = [], bounds.aggregate_discrete_general

        def counting(margins, drivers, table):
            blocks.append(len(drivers) * table.length)
            return aggregate(margins, drivers, table=table)

        monkeypatch.setattr(bounds, "aggregate_discrete_general", counting)
        report = bounds_general_p(margins, [F(1, 2), F(1, 3), F(2, 3), F(1, 2)], ["std"])
        assert len(report.values["std"]) == 146
        assert len(blocks) > 1 and max(blocks) <= bounds._STACK_NODES

    def test_stacked_drivers_need_the_table(self):
        from gfgm import DenseDriver, aggregate_discrete_general, enumerate_vertices

        drivers = [DenseDriver(v) for v in enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])]
        with pytest.raises(ValueError, match="table"):
            aggregate_discrete_general(example_final_margins(), drivers)

    def test_per_vertex_seed_stream_pinned(self):
        # The values the Monte Carlo path gave when vertex i drew its own sample_x stream
        # from seed + i; they keep that stream pinned.
        from gfgm import DenseDriver, GfgmSpec, enumerate_vertices, evaluate, sample_x

        margins, p = [ExponentialMargin(1.0), ExponentialMargin(2.0)], ["1/2", "1/3"]
        measures = ["var:0.9", "es:0.9", "entropic:0.01", "std"]
        dists = [EmpiricalDistribution(sample_x(GfgmSpec(p, DenseDriver(v)), margins, 20000,
                                                seed=4 + i).sum(axis=1))
                 for i, v in enumerate(enumerate_vertices(p))]
        assert {m: [evaluate(dist, m) for dist in dists] for m in measures} == {
            "var:0.9": [2.895611832563529, 3.0682641349136666],
            "es:0.9": [3.851709386586193, 4.097916969582624],
            "entropic:0.01": [1.5098460070959163, 1.5143264976506643],
            "std": [1.056471473087202, 1.1736868674408645],
        }
        assert [dist.variance() ** 0.5 / 20000**0.5 for dist in dists] == [
            0.007470381427501016, 0.008299219429570317]

    def test_monte_carlo_values_pinned(self):
        # Exact values of the seeded MC path, every vertex on the call's one draw;
        # any change to sampling or estimators shows here.
        report = bounds_general_p([ExponentialMargin(1.0), ExponentialMargin(2.0)], ["1/2", "1/3"],
                                  ["var:0.9", "es:0.9", "entropic:0.01", "std"], mc_n=20000, seed=4)
        assert report.values == {
            "var:0.9": [2.895611832563529, 3.098935146798116],
            "es:0.9": [3.851709386586193, 4.134668800540565],
            "entropic:0.01": [1.5098460070959163, 1.5130907177962172],
            "std": [1.056471473087202, 1.181003757139145],
        }
        assert report.metadata["mean_standard_errors"] == [0.007470381427501016,
                                                           0.008350957652798799]

    @pytest.mark.parametrize("mc_n", [1001, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_shared_draw_equals_per_vertex_sample_x(self, d, mc_n):
        # Every vertex on the call's one draw gives, bit for bit, what sample_x gives for
        # that vertex alone with the call's seed.
        from gfgm import (DenseDriver, GfgmSpec, QuantileMargin, enumerate_vertices, evaluate,
                          sample_x)

        families = [lambda j: ExponentialMargin(0.5 + j), lambda j: UniformMargin(),
                    lambda j: DiscreteMargin.from_power_cdf(0.3, 2.0, 10 + j),
                    lambda j: QuantileMargin(lambda u: u**2 + u)]
        margins = [families[(j + d) % 4](j) for j in range(d)]
        p = [F(1, 2), F(1, 3), F(2, 3), F(1, 4)][:d]
        measures = ["var:0.9", "es:0.95", "entropic:0.05", "std"]
        report = bounds_general_p(margins, p, measures, mc_n=mc_n, seed=23)
        assert report.metadata["exact"] is False
        dists = [EmpiricalDistribution(
            sample_x(GfgmSpec(p, DenseDriver(v)), margins, mc_n, 23).sum(axis=1))
            for v in enumerate_vertices(p)]
        assert report.values == {m: [evaluate(dist, m) for dist in dists] for m in measures}
        assert report.metadata["mean_standard_errors"] == [
            math.sqrt(dist.variance()) / math.sqrt(mc_n) for dist in dists]

    def test_shared_draw_discrete_laws_match_split_table(self):
        # Each vertex's sample from the one draw follows the vertex's exact law of S.
        from gfgm import DenseDriver, enumerate_vertices
        from gfgm.aggregation import SplitTable
        from gfgm.copula import SharedDraw

        margins = example_final_margins()
        p = [F(1, 2), F(1, 3), F(2, 3)]
        n = 2 * 10**5
        draw, table = SharedDraw(p, margins, n, seed=31), SplitTable(margins, p)
        for vertex in enumerate_vertices(p):
            driver = DenseDriver(vertex)
            sums, law = draw.sums(driver), table.law(driver)
            sd = math.sqrt(law.variance())
            assert abs(sums.mean() - law.mean()) < 4.5 * sd / math.sqrt(n)
            for x in (law.quantile(0.5), law.quantile(0.9)):
                q = float(law.cdf(x))
                assert abs((sums <= x).mean() - q) < 4.5 * math.sqrt(q * (1 - q) / n)

    def test_shared_draw_input_checks(self):
        from gfgm import DenseDriver, comonotone_pmf
        from gfgm.copula import SharedDraw

        p = [F(1, 2), F(1, 3)]
        with pytest.raises(ValueError, match="margins"):
            SharedDraw(p, [UniformMargin()], 100)
        with pytest.raises(ValueError, match="quantile function"):
            SharedDraw(p, [UniformMargin(), object()], 100)
        with pytest.raises(ValueError, match="n >= 2"):
            bounds_general_p([UniformMargin()] * 2, p, ["std"], mc_n=1)
        draw = SharedDraw(p, [UniformMargin()] * 2, 100)
        with pytest.raises(ValueError, match="do not match"):
            draw.sums(DenseDriver(comonotone_pmf([F(1, 2), F(1, 2)])))

    def test_continuous_margins_fall_back_to_mc(self):
        margins = [ExponentialMargin(1.0), ExponentialMargin(2.0)]
        report = bounds_general_p(margins, ["1/2", "1/2"], ["es:0.9"], mc_n=20000, seed=4)
        assert report.metadata["exact"] is False
        assert report.metadata["mc_n"] == 20000
        lo = report.minima["es:0.9"][0]
        hi = report.maxima["es:0.9"][0]
        assert 0 < lo <= hi

    def test_cap_redirects_to_common_path(self):
        from gfgm import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            bounds_general_p([ExponentialMargin(1.0)] * 6, [F(1, 2)] * 6, ["es:0.9"])


class TestEnclosure:
    def test_frechet_bounds_enclose_class_bounds(self):
        margin = ExponentialMargin(0.2)
        d, p, alpha = 12, F(1, 3), 0.9
        lower, upper = frechet_var_bounds(margin, d, alpha)
        lo, hi, _ = var_bounds_common_p(margin, d, p, alpha)
        assert lower <= lo <= hi <= upper

    def test_min_es_at_least_d_times_mean(self):
        margin = ExponentialMargin(0.5)
        report = convex_bounds_fast(margin, 10, F(1, 2), ["es:0.8"])
        assert report.minima["es:0.8"][0] >= 10 * margin.mean - 1e-9


class TestBenchmarkPatchPoints:
    """The benchmark's tracer rebinds these module names to time each layer;
    a name that disappears would silently empty its per-layer rows."""

    def test_names_the_tracer_rebinds_exist(self):
        import gfgm.bounds
        import gfgm.measures

        for name in ("extremal_points", "aggregate", "aggregate_discrete_general", "evaluate",
                     "enumerate_vertices"):
            assert callable(getattr(gfgm.bounds, name, None)), f"gfgm.bounds.{name}"
        for name in ("var", "es", "entropic", "std"):
            assert callable(getattr(gfgm.measures, name, None)), f"gfgm.measures.{name}"
