import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from gfgm import (
    BernoulliPmf,
    DenseDriver,
    comonotone_pmf,
    countermonotone_pmf,
    covariance_bounds,
    enumerate_vertices,
    exchangeable_lift,
    independence_pmf,
    margin_vector,
    nu_coefficient,
    nu_coefficients,
    pair_covariance,
    sum_pmf,
    validate_membership,
)
from gfgm.bernoulli import as_fraction
from gfgm.reference import EXAMPLE_FINAL_VERTICES
from gfgm.sums import SumPmf, atom_margins, extremal_points


def vertex(label):
    return BernoulliPmf(3, tuple(F(v) for v in EXAMPLE_FINAL_VERTICES[label]))


class TestValidateMembership:
    def test_independence_d2(self):
        f = BernoulliPmf(2, (F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        assert validate_membership(f, [F(1, 2), F(1, 2)])

    def test_counterexample_table_row(self):
        f = BernoulliPmf(3, (F(0), F(1, 5), F(1, 5), F(1, 5), F(2, 5), F(0), F(0), F(0)))
        assert validate_membership(f, [F(2, 5)] * 3)

    def test_wrong_second_margin(self):
        f = BernoulliPmf(2, (F(1, 2), F(0), F(0), F(1, 2)))
        assert not validate_membership(f, [F(1, 2), F(1, 3)])

    def test_dimension_mismatch_raises(self):
        f = BernoulliPmf(2, (F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
        with pytest.raises(ValueError):
            validate_membership(f, [F(1, 2)])

    def test_raw_sequence_accepted(self):
        assert validate_membership([F(1, 4)] * 4, [F(1, 2), F(1, 2)])
        assert not validate_membership([F(1, 2)] * 4, [F(1, 2), F(1, 2)])


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BernoulliPmf(2, (F(-1, 4), F(1, 2), F(1, 4), F(1, 2)))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BernoulliPmf(2, (F(1, 4), F(1, 4), F(1, 4), F(1, 2)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            BernoulliPmf(2, (0.25, 0.25, 0.25, 0.25))

    def test_integer_check_rejects_a_negative_entry_that_keeps_the_sum(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BernoulliPmf(2, (F(-1, 10**30), F(1, 2), F(1, 4), F(1, 4) + F(1, 10**30)))

    @pytest.mark.parametrize("off", [F(1, 10**30), -F(1, 10**30)])
    def test_integer_check_rejects_a_sum_off_by_1e_minus_30(self, off):
        values = (F(1, 3), F(1, 6), F(1, 7), F(5, 14) + off)
        assert sum(values) == 1 + off
        with pytest.raises(ValueError, match="sum to exactly 1"):
            BernoulliPmf(2, values)
        assert BernoulliPmf(2, values[:3] + (F(5, 14),)).values[3] == F(5, 14)

    def test_exponent_strings_are_refused(self):
        # Fraction("1e999999999") would build a billion-digit integer first
        for text in ("1e5", "3E-2", "1/2e1"):
            with pytest.raises(ValueError, match="exponent"):
                as_fraction(text)
        assert as_fraction(" 7/10 ") == F(7, 10) and as_fraction("0.25") == F(1, 4)

    def test_json_round_trip(self):
        f = vertex("r6")
        assert BernoulliPmf.from_json(f.to_json()) == f


class TestSumPmf:
    def test_independence_d2(self):
        g = sum_pmf(independence_pmf([F(1, 2), F(1, 2)]))
        assert g.values == (F(1, 4), F(1, 2), F(1, 4))

    def test_r1_of_example_final(self):
        # independent oracle: group the printed entries by Hamming weight
        f = vertex("r1")
        by_weight = [F(0)] * 4
        for mask, w in enumerate(f.values):
            by_weight[bin(mask).count("1")] += w
        assert tuple(by_weight) == (F(0), F(1, 2), F(1, 2), F(0))
        assert sum_pmf(f).values == tuple(by_weight)

    def test_equal_sums_of_f_and_f_doubleprime(self):
        f = BernoulliPmf(3, (F(0), F(1, 5), F(1, 5), F(1, 5), F(2, 5), F(0), F(0), F(0)))
        f2 = BernoulliPmf(3, (F(0), F(2, 5), F(1, 5), F(0), F(1, 5), F(0), F(1, 5), F(0)))
        assert sum_pmf(f) == sum_pmf(f2)

    def test_mean_is_sum_of_margins(self):
        f = vertex("r11")
        assert sum_pmf(f).mean == F(1, 2) + F(1, 3) + F(2, 3)


class TestExchangeableLift:
    def test_upper_frechet_d2(self):
        g = SumPmf(2, (F(1, 2), F(0), F(1, 2)))
        assert exchangeable_lift(g).values == (F(1, 2), F(0), F(0), F(1, 2))

    def test_two_point_d5(self):
        g = SumPmf(5, (F(0), F(0), F(5, 6), F(0), F(0), F(1, 6)))
        e = exchangeable_lift(g)
        for mask in range(32):
            k = bin(mask).count("1")
            expected = {2: F(5, 6) / 10, 5: F(1, 6)}.get(k, F(0))
            assert e.values[mask] == expected

    def test_round_trip_over_extremal_set(self):
        for pt in extremal_points(4, F(1, 2)):
            g = pt.pmf
            assert sum_pmf(exchangeable_lift(g)) == g

    def test_lift_of_sum_is_identity_on_exchangeable(self):
        e = independence_pmf([F(1, 3)] * 3)
        assert exchangeable_lift(sum_pmf(e)) == e


class TestNuCoefficients:
    def test_independence_vanishes(self):
        f = independence_pmf([F(1, 2), F(1, 2)])
        assert nu_coefficients(f, [F(1, 2), F(1, 2)]) == {(1, 2): F(0)}

    def test_comonotone_symmetric_pair(self):
        # direct two-atom expectation: E[(2 I1 - 1)(2 I2 - 1)] = 1
        f = BernoulliPmf(2, (F(1, 2), F(0), F(0), F(1, 2)))
        oracle = sum(
            w * (2 * ((m >> 0) & 1) - 1) * (2 * ((m >> 1) & 1) - 1) for m, w in f.atoms()
        )
        assert oracle == 1
        assert nu_coefficient(f, [F(1, 2), F(1, 2)], (1, 2)) == 1

    def test_r1_pair_consistent_with_covariance(self):
        f = vertex("r1")
        p = [F(1, 2), F(1, 3), F(2, 3)]
        cov, _ = pair_covariance(f, p, 1, 2)
        assert cov == F(1, 3) - F(1, 6)
        assert nu_coefficient(f, p, (1, 2)) == cov / (p[0] * p[1])

    def test_exchangeable_constant_on_equal_sizes(self):
        e = exchangeable_lift(SumPmf(4, (F(1, 8), F(1, 4), F(1, 4), F(1, 4), F(1, 8))))
        nus = nu_coefficients(e, [F(1, 2)] * 4)
        for size in (2, 3, 4):
            values = {v for s, v in nus.items() if len(s) == size}
            assert len(values) == 1


class TestCovariance:
    def test_symmetric_bounds(self):
        lo, hi = covariance_bounds([F(1, 2), F(1, 2)], 1, 2)
        assert (lo, hi) == (F(-1, 4), F(1, 4))

    def test_bounds_are_order_insensitive(self):
        assert covariance_bounds([F(1, 3), F(2, 3)], 1, 2) == covariance_bounds(
            [F(2, 3), F(1, 3)], 1, 2
        )

    def test_bernoulli_pair_correlations_of_r1(self):
        f = vertex("r1")
        p = [F(1, 2), F(1, 3), F(2, 3)]
        cov12, corr12 = pair_covariance(f, p, 1, 2)
        assert cov12 == F(1, 6)
        assert corr12 == pytest.approx(F(1, 6) / math.sqrt(1 / 4 * 2 / 9))
        cov13, _ = pair_covariance(f, p, 1, 3)
        assert cov13 == F(1, 6) - F(1, 3)

    def test_covariance_within_bounds_across_vertices(self):
        p = [F(1, 2), F(1, 3), F(2, 3)]
        for label in EXAMPLE_FINAL_VERTICES:
            f = vertex(label)
            for j1, j2 in ((1, 2), (1, 3), (2, 3)):
                cov, _ = pair_covariance(f, p, j1, j2)
                lo, hi = covariance_bounds(p, j1, j2)
                assert lo <= cov <= hi

    def test_extremes_attained_by_frechet_pmfs(self):
        p = [F(1, 3), F(2, 3)]
        lo, hi = covariance_bounds(p, 1, 2)
        assert pair_covariance(comonotone_pmf(p), p, 1, 2)[0] == hi
        assert pair_covariance(countermonotone_pmf(*p), p, 1, 2)[0] == lo


class TestAtomMargins:
    def test_integer_sums_equal_fraction_sums(self):
        rng = random.Random(11)
        for d in (1, 3, 7):
            atoms = [(rng.randrange(1 << d), F(rng.randint(0, 9), rng.randint(1, 40)))
                     for _ in range(rng.randint(1, 12))]
            expected = tuple(sum((w for m, w in atoms if (m >> j) & 1), F(0)) for j in range(d))
            got = atom_margins(d, atoms)
            assert got == expected
            assert all(type(x) is F for x in got)

    def test_no_atoms_give_zero_margins(self):
        assert atom_margins(3, []) == (F(0),) * 3


class TestMarginVector:
    @pytest.mark.parametrize("p", [F(1, 2), "1/2", 0, 1, "1/0", "1e-1",
                                   [0], [1], [F(1, 2), F(3, 2)], [F(-1, 3)],
                                   ["1/2", "1/0"], ["1e-1"], ["1/3", "2E-1"]])
    def test_refused(self, p):
        with pytest.raises(ValueError):
            margin_vector(p)

    def test_entries_are_exact_fractions(self):
        assert tuple(margin_vector(["1/2", F(1, 3), "0.25"])) == (F(1, 2), F(1, 3), F(1, 4))


def seeded_vertices(seed=7, per_p=6):
    """A seeded handful of exact vertices at d = 3 and 4, with their margin vectors."""
    rng = random.Random(seed)
    for p in ([F(1, 2), F(1, 3), F(2, 3)], [F(1, 2), F(1, 3), F(2, 3), F(1, 4)]):
        vertices = enumerate_vertices(p)
        for f in rng.sample(vertices, min(per_p, len(vertices))):
            yield f, p


class TestFoldedAnswers:
    """Each answer agrees with its other route: single against full ν map, pair
    covariance against the driver's pair joint."""

    def test_single_nu_is_the_entry_of_the_full_map(self):
        for f, p in seeded_vertices():
            for subset, value in nu_coefficients(f, p).items():
                assert nu_coefficient(f, p, subset) == value

    @pytest.mark.parametrize("subset", [(0, 1), (1, 4), (2, 3, 4)])
    def test_subset_outside_the_coordinates_is_refused(self, subset):
        f, p = vertex("r1"), [F(1, 2), F(1, 3), F(2, 3)]
        with pytest.raises(IndexError):
            nu_coefficient(f, p, subset)

    def test_pair_covariance_is_the_pair_joint_less_the_product(self):
        for f, p in seeded_vertices():
            for j1, j2 in combinations(range(1, f.d + 1), 2):
                expected = DenseDriver(f).pair_joint11(j1, j2) - p[j1 - 1] * p[j2 - 1]
                assert pair_covariance(f, p, j1, j2)[0] == expected
