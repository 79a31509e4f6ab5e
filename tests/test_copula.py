import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import stats

from gfgm import (
    AtomDriver,
    DenseDriver,
    DiscreteMargin,
    ExchangeableDriver,
    ExponentialMargin,
    GfgmSpec,
    UniformMargin,
    comonotone_pmf,
    conditional_cdfs,
    copula_cdf,
    independence_pmf,
    min_convex,
    nu_coefficient,
    nu_coefficients,
    pearson_x,
    sample_u,
    sample_x,
    sigma_cx_smallest_blocks,
    spearman_bounds,
    spearman_rho,
)
from gfgm.bernoulli import BernoulliPmf
from gfgm.copula import _cdf_nu
from gfgm.reference import EXAMPLE_FINAL_VERTICES, example_final_margins
from gfgm.sums import SumPmf


def spec_d2_comonotone():
    return GfgmSpec(("1/2", "1/2"), DenseDriver(comonotone_pmf(["1/2", "1/2"])))


def spec_independent(p):
    return GfgmSpec(tuple(p), DenseDriver(independence_pmf(p)))


def r1_spec():
    pmf = BernoulliPmf(3, tuple(F(v) for v in EXAMPLE_FINAL_VERTICES["r1"]))
    return GfgmSpec(("1/2", "1/3", "2/3"), DenseDriver(pmf))


class TestSpecValidation:
    def test_margin_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GfgmSpec(("1/3", "1/3"), DenseDriver(comonotone_pmf(["1/2", "1/2"])))

    def test_b_parameters(self):
        spec = r1_spec()
        assert spec.b(1) == 1 and spec.b(2) == F(1, 2) and spec.b(3) == 2

    def test_json_round_trip(self):
        spec = r1_spec()
        again = GfgmSpec.from_json(spec.to_json())
        assert again.p == spec.p
        assert again.driver.atoms() == spec.driver.atoms()

    def test_atom_driver_json_round_trip(self):
        driver = sigma_cx_smallest_blocks(7, F(1, 7))
        from gfgm import driver_from_json

        again = driver_from_json(driver.to_json())
        assert again.atoms() == driver.atoms()

    def test_exchangeable_driver_json_round_trip(self):
        from gfgm import driver_from_json

        driver = ExchangeableDriver(min_convex(12, F(1, 3)))
        again = driver_from_json(driver.to_json())
        assert again.sum_pmf() == driver.sum_pmf()


class TestSpecNu:
    """The spec's ν map is the driver's, entry by entry, whatever the driver stores."""

    @staticmethod
    def drivers():
        yield sigma_cx_smallest_blocks(6, F(1, 3))
        yield AtomDriver(4, ((0b0011, F(1, 4)), (0b1100, F(1, 4)), (0b0101, F(1, 4)),
                             (0b1010, F(1, 8)), (0b1010, F(1, 8))))
        yield ExchangeableDriver(min_convex(5, F(1, 2)))
        yield ExchangeableDriver(SumPmf(4, (F(1, 8), F(1, 4), F(1, 4), F(1, 4), F(1, 8))))

    def test_nu_of_atom_and_exchangeable_drivers(self):
        for driver in self.drivers():
            spec = GfgmSpec(driver.margins(), driver)
            values = [F(0)] * (1 << driver.d)
            for m, w in driver.atoms():
                values[m] += w
            dense = BernoulliPmf(driver.d, tuple(values))
            assert spec._nu == nu_coefficients(dense, spec.p)
            for subset, value in spec._nu.items():
                assert nu_coefficient(dense, spec.p, subset) == value


class TestCopulaCdf:
    def test_independence_is_product(self):
        spec = spec_independent([F(1, 3), F(1, 2), F(2, 3)])
        rng = np.random.default_rng(1)
        pts = rng.random((20, 3))
        assert np.allclose(copula_cdf(spec, pts), pts.prod(axis=1), atol=1e-13)

    def test_comonotone_d2_at_half(self):
        # nu_12 = 1: u1 u2 (1 + (1-u1)(1-u2)) = 5/16 at (1/2, 1/2)
        assert copula_cdf(spec_d2_comonotone(), [0.5, 0.5]) == pytest.approx(5 / 16, abs=1e-14)

    def test_uniform_margins(self):
        spec = r1_spec()
        for j in range(3):
            for u in (0.0, 0.2, 0.7, 1.0):
                point = np.ones(3)
                point[j] = u
                assert copula_cdf(spec, point) == pytest.approx(u, abs=1e-13)

    def test_nu_refuses_d21_before_expanding_atoms(self, monkeypatch):
        d = 21
        spec = GfgmSpec.common(F(1, 2), AtomDriver(d, ((0, F(1, 2)), ((1 << d) - 1, F(1, 2)))))

        def expand(self):
            pytest.fail("the driver was expanded into 2^d entries before the dimension check")

        monkeypatch.setattr(AtomDriver, "atoms", expand)
        with pytest.raises(ValueError, match="d=21"):
            _cdf_nu(spec, np.full((1, d), 0.5))

    def test_nu_and_mixture_paths_agree(self):
        rng = np.random.default_rng(5)
        specs = [
            r1_spec(),
            spec_d2_comonotone(),
            spec_independent([F(1, 4), F(2, 5)]),
            GfgmSpec.common(
                "1/2",
                ExchangeableDriver(SumPmf(6, tuple(F(x) for x in ["1/6", "0", "1/3", "0", "1/3", "0", "1/6"]))),
            ),
        ]
        for spec in specs:
            pts = rng.random((40, spec.d))
            a = copula_cdf(spec, pts)
            b = _cdf_nu(spec, pts)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_mixture_route_is_the_driver_mix_of_the_split_cdfs(self):
        # the split cdfs as the mixture route computed them in place, all columns in one
        # power call: a per-column power with a scalar exponent of 2 rounds differently
        def conditional_values(spec, pts):
            p = np.array([float(q) for q in spec.p])
            f0 = np.power(pts, 1.0 / (1.0 - p))
            return f0, pts / p - ((1.0 - p) / p) * f0

        rng = np.random.default_rng(11)
        specs = [r1_spec(), spec_d2_comonotone(), spec_independent([F(1, 4), F(2, 5), F(1, 2)]),
                 GfgmSpec.common("1/2", ExchangeableDriver(min_convex(9, F(1, 2)))),
                 GfgmSpec.common("1/3", sigma_cx_smallest_blocks(7, F(1, 3)))]
        for spec in specs:
            pts = rng.random((300, spec.d))
            pts[0], pts[1], pts[2] = 0.0, 1.0, 0.5
            f0, f1 = conditional_values(spec, pts)
            want = spec.driver.mix(f0.T, f1.T)
            assert copula_cdf(spec, pts).tobytes() == want.tobytes()
            assert copula_cdf(spec, pts[7]) == want[7]

    def test_exchangeable_route_matches_dense_expansion(self):
        g = SumPmf(5, tuple(F(x) for x in ["1/6", "0", "0", "5/6", "0", "0"]))
        drv = ExchangeableDriver(g)
        spec = GfgmSpec.common("1/2", drv)
        dense_vals = [F(0)] * 32
        for m, w in drv.atoms():
            dense_vals[m] += w
        spec_dense = GfgmSpec.common("1/2", DenseDriver(BernoulliPmf(5, tuple(dense_vals))))
        pts = np.random.default_rng(2).random((30, 5))
        assert np.allclose(copula_cdf(spec, pts), copula_cdf(spec_dense, pts), atol=1e-13)

    def test_frechet_hull(self):
        rng = np.random.default_rng(9)
        for spec in (r1_spec(), spec_d2_comonotone()):
            pts = rng.random((50, spec.d))
            c = copula_cdf(spec, pts)
            lower = np.clip(pts.sum(axis=1) - (spec.d - 1), 0.0, None)
            upper = pts.min(axis=1)
            assert np.all(c >= lower - 1e-12)
            assert np.all(c <= upper + 1e-12)

    def test_rejects_points_outside_cube(self):
        with pytest.raises(ValueError):
            copula_cdf(spec_d2_comonotone(), [0.5, 1.5])


class TestConditionalCdfs:
    def test_half_closed_forms(self):
        f0, f1 = conditional_cdfs(0.5)
        u = np.linspace(0, 1, 11)
        assert np.allclose(f0(u), u**2, atol=1e-15)
        assert np.allclose(f1(u), 2 * u - u**2, atol=1e-15)

    def test_boundary_values(self):
        for p in (0.2, 1 / 3, 0.75):
            f0, f1 = conditional_cdfs(p)
            assert f0(0.0) == 0.0 and f1(0.0) == pytest.approx(0.0)
            assert f0(1.0) == pytest.approx(1.0) and f1(1.0) == pytest.approx(1.0)

    def test_mixture_identity(self):
        p = 1 / 3
        f0, f1 = conditional_cdfs(p)
        u = np.linspace(0.0, 1.0, 101)
        assert np.allclose(p * f1(u) + (1 - p) * f0(u), u, atol=1e-14)
        assert p * f1(0.3) + (1 - p) * f0(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_monotone(self):
        for p in (0.1, 0.5, 0.9):
            f0, f1 = conditional_cdfs(p)
            u = np.linspace(0, 1, 200)
            assert np.all(np.diff(f0(u)) >= 0)
            assert np.all(np.diff(f1(u)) >= 0)


class TestSampling:
    def test_deterministic_given_seed(self):
        spec = r1_spec()
        a = sample_u(spec, 1000, seed=123)
        b = sample_u(spec, 1000, seed=123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_u(spec, 1000, seed=124))

    # The first rows and the total of sample_u(spec, 1000, seed=29), recorded when atoms
    # were picked by Generator.choice: the explicit atom cdf must keep the stream.
    STREAM_PINS = {
        "dense": ([[0.6937150219754028, 0.9587041314785842, 0.7132448061224171],
                   [0.48918170129649147, 0.7634328195871237, 0.40059320005802174],
                   [0.939842867361337, 0.11517687140544251, 0.09937940296521236]],
                  1520.7388378540738),
        "atoms": ([[0.6937150219754028, 0.9688654055627901, 0.19921770600469238,
                    0.38863771538263625],
                   [0.5871720051935586, 0.5028740346589919, 0.179531494201202,
                    0.19770787036831963],
                   [0.14576370158176435, 0.3322299139585072, 0.710449390147175,
                    0.44292916632380136]],
                  2023.0595487669043),
        "exchangeable": ([[0.4875154081184272, 0.35750184015514297, 0.40108814005800886,
                           0.012850157910504768],
                          [0.8025242194209903, 0.32585614672415336, 0.3316832934285932,
                           0.9048210899577616],
                          [0.5530988342274459, 0.10472323969225192, 0.8536035514213637,
                           0.914619235240276]],
                         1984.4659170592727),
    }

    @staticmethod
    def stream_specs():
        return {
            "dense": r1_spec(),
            "atoms": GfgmSpec(("1/2",) * 4, AtomDriver(4, ((0b0011, F(1, 4)), (0b1100, F(1, 4)),
                                                           (0b0101, F(1, 4)), (0b1010, F(1, 4))))),
            "exchangeable": GfgmSpec.common(F(1, 3), ExchangeableDriver(min_convex(4, F(1, 3)))),
        }

    @pytest.mark.parametrize("kind", ["dense", "atoms", "exchangeable"])
    def test_stream_pinned(self, kind):
        u = sample_u(self.stream_specs()[kind], 1000, seed=29)
        rows, total = self.STREAM_PINS[kind]
        assert u[:3].tolist() == rows
        assert float(u.sum()) == total

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.7, 1.0, "1"])
    def test_seed_outside_the_philox_key_range_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            sample_u(r1_spec(), 10, seed=seed)

    def test_largest_seed_keys_the_stream(self):
        top = sample_u(r1_spec(), 10, seed=2**64 - 1)
        assert np.array_equal(sample_u(r1_spec(), 10, seed=np.uint64(2**64 - 1)), top)
        assert not np.array_equal(sample_u(r1_spec(), 10, seed=0), top)

    def test_row_blocks_do_not_change_draws(self, monkeypatch):
        import gfgm.copula as copula
        from gfgm import enumerate_vertices

        spec, p = r1_spec(), [F(1, 2), F(1, 3), F(2, 3)]
        margins = [ExponentialMargin(0.5), UniformMargin(), DiscreteMargin.from_power_cdf(0.3, 2, 9)]
        drivers = [DenseDriver(v) for v in enumerate_vertices(p)]
        whole = sample_u(spec, 1000, seed=5)
        sums = [copula.SharedDraw(p, margins, 1000, seed=5).sums(x) for x in drivers]
        monkeypatch.setattr(copula, "_ROW_BLOCK", 7)
        assert np.array_equal(sample_u(spec, 1000, seed=5), whole)
        draw = copula.SharedDraw(p, margins, 1000, seed=5)
        assert all(np.array_equal(draw.sums(x), s) for x, s in zip(drivers, sums))

    def test_uniform_margins_gof(self):
        spec = r1_spec()
        u = sample_u(spec, 10**5, seed=5)
        for j in range(3):
            ks = stats.kstest(u[:, j], "uniform").statistic
            assert ks < 1.628 / math.sqrt(10**5)

    def test_empirical_copula_close_to_analytic(self):
        spec = spec_d2_comonotone()
        n = 10**5
        u = sample_u(spec, n, seed=11)
        grid = np.linspace(0.1, 0.9, 10)
        pts = np.array([[a, b] for a in grid for b in grid])
        emp = np.array([np.mean((u[:, 0] <= a) & (u[:, 1] <= b)) for a, b in pts])
        assert np.max(np.abs(emp - copula_cdf(spec, pts))) < 1.628 / math.sqrt(n)

    def test_independent_spec_spearman_near_zero(self):
        spec = spec_independent([F(1, 2), F(1, 3)])
        n = 10**5
        u = sample_u(spec, n, seed=21)
        rho = stats.spearmanr(u[:, 0], u[:, 1]).statistic
        assert abs(rho) < 3 / math.sqrt(n)

    def test_exchangeable_driver_sampling(self):
        g = min_convex(10, F(1, 3))
        spec = GfgmSpec.common(F(1, 3), ExchangeableDriver(g))
        u = sample_u(spec, 20000, seed=3)
        assert u.shape == (20000, 10)
        ks = stats.kstest(u[:, 4], "uniform").statistic
        assert ks < 1.628 / math.sqrt(20000)

    def test_sample_x_exponential_means(self):
        spec = r1_spec()
        margins = [ExponentialMargin(0.5), ExponentialMargin(1.0), ExponentialMargin(2.0)]
        n = 10**5
        x = sample_x(spec, margins, n, seed=8)
        for j, margin in enumerate(margins):
            se = math.sqrt(margin.var / n)
            assert abs(x[:, j].mean() - margin.mean) < 3 * se

    def test_sample_x_exponential_pearson_matches_indicator_covariance(self):
        # At p = 1/2 the additive exponential split and the quantile coupling
        # induce the same pair law, so the correlation equals Cov(I1, I2).
        spec = spec_d2_comonotone()
        margins = [ExponentialMargin(0.1)] * 2
        x = sample_x(spec, margins, 2 * 10**5, seed=13)
        emp = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert emp == pytest.approx(float(spec.cov_indicators(1, 2)), abs=0.012)

    def test_sample_x_quantile_coupling_correlation_off_half(self):
        # For p != 1/2 the quantile coupling's correlation carries the
        # quadrature gap factors, not the additive-split value Cov(I1, I2).
        from gfgm import QuantileMargin

        spec = r1_spec()
        rate = 0.1
        margins = [ExponentialMargin(rate)] * 3
        quantile_margins = [
            QuantileMargin(lambda u, r=rate: -np.log1p(-u) / r, mean=1 / rate, var=1 / rate**2)
            for _ in range(3)
        ]
        gaps = [
            quantile_margins[j].z_means(spec.p[j])[1] - quantile_margins[j].z_means(spec.p[j])[0]
            for j in range(3)
        ]
        predicted = float(spec.cov_indicators(1, 2)) * gaps[0] * gaps[1] * rate**2
        x = sample_x(spec, margins, 2 * 10**5, seed=13)
        emp = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert emp == pytest.approx(predicted, abs=0.012)
        assert predicted != pytest.approx(float(spec.cov_indicators(1, 2)), abs=0.01)

    def test_sample_x_point_mass_margin_constant(self):
        spec = spec_independent([F(1, 2), F(1, 2)])
        margins = [DiscreteMargin.point_mass(4), ExponentialMargin(1.0)]
        x = sample_x(spec, margins, 500, seed=1)
        assert np.all(x[:, 0] == 4.0)

    def test_sample_x_requires_quantile_function(self):
        with pytest.raises(ValueError):
            sample_x(spec_d2_comonotone(), [object(), object()], 10, seed=0)


class TestDependenceSummaries:
    def test_spearman_independence(self):
        spec = spec_independent([F(1, 2), F(1, 2)])
        assert spearman_rho(spec, 1, 2) == 0

    def test_spearman_classic_fgm_maximum(self):
        assert spearman_rho(spec_d2_comonotone(), 1, 2) == pytest.approx(1 / 3)

    def test_spearman_bounds_symmetric_half(self):
        lo, hi = spearman_bounds(F(1, 2), F(1, 2))
        assert (lo, hi) == pytest.approx((-1 / 3, 1 / 3))

    def test_spearman_within_bounds(self):
        spec = r1_spec()
        for j1, j2 in itertools.combinations(range(1, 4), 2):
            lo, hi = spearman_bounds(spec.p[j1 - 1], spec.p[j2 - 1])
            assert lo - 1e-15 <= spearman_rho(spec, j1, j2) <= hi + 1e-15

    def test_pearson_exponential_equals_indicator_covariance(self):
        spec = r1_spec()
        margins = [ExponentialMargin(0.1)] * 3
        for j1, j2 in itertools.combinations(range(1, 4), 2):
            assert pearson_x(spec, margins, j1, j2) == pytest.approx(
                float(spec.cov_indicators(j1, j2)), abs=1e-14
            )

    def test_pearson_independence_zero(self):
        spec = spec_independent([F(1, 2), F(1, 3), F(2, 3)])
        margins = example_final_margins()
        assert pearson_x(spec, margins, 1, 3) == pytest.approx(0.0, abs=1e-14)

    def test_pearson_example_final_r1_row(self):
        spec = r1_spec()
        margins = example_final_margins()
        assert pearson_x(spec, margins, 1, 2) == pytest.approx(0.0605, abs=5e-5)
        assert pearson_x(spec, margins, 1, 3) == pytest.approx(-0.1610, abs=5e-5)
        assert pearson_x(spec, margins, 2, 3) == pytest.approx(-0.1229, abs=5e-5)

    def test_equicorrelation_exchangeable_min(self):
        spec = GfgmSpec.common(F(1, 3), ExchangeableDriver(min_convex(100, F(1, 3))))
        margins = [ExponentialMargin(0.1)] * 100
        assert pearson_x(spec, margins, 1, 2) == pytest.approx(-1 / 450, abs=1e-15)

    def test_block_mean_correlation_matches_equicorrelation(self):
        spec = GfgmSpec.common(F(1, 3), sigma_cx_smallest_blocks(100, F(1, 3)))
        margins = [ExponentialMargin(0.1)] * 100
        rhos = [
            pearson_x(spec, margins, j1, j2)
            for j1, j2 in itertools.combinations(range(1, 101), 2)
        ]
        assert np.mean(rhos) == pytest.approx(-1 / 450, abs=1e-12)

    def test_uniform_margin_gap_enters_spearman(self):
        # Spearman formula equals the pearson formula with uniform margins
        spec = r1_spec()
        margins = [UniformMargin()] * 3
        for j1, j2 in itertools.combinations(range(1, 4), 2):
            assert pearson_x(spec, margins, j1, j2) == pytest.approx(
                spearman_rho(spec, j1, j2), abs=1e-14
            )
