import random
from fractions import Fraction as F

import pytest

from gfgm import (
    BlockConstructionError,
    SumPmf,
    convex_order_leq,
    count_extremal,
    extremal_points,
    max_convex,
    min_convex,
    sigma_cx_smallest_blocks,
)
from gfgm.reference import D5_EXTREMAL_PMFS
from gfgm.sums import max_convex_point, min_convex_point


class TestExtremalPoints:
    def test_d5_half_matches_reference_table(self):
        points = extremal_points(5, F(1, 2))
        assert len(points) == 9
        for pt, expected in zip(points, D5_EXTREMAL_PMFS):
            assert pt.pmf.values == tuple(F(v) for v in expected)

    def test_integer_mean_d2(self):
        points = extremal_points(2, F(1, 2))
        assert len(points) == 2
        assert points[0].pmf.values == (F(1, 2), F(0), F(1, 2))
        assert points[1].is_degenerate and points[1].k1 == 1

    def test_d100_half_count(self):
        assert count_extremal(100, F(1, 2)) == 2501
        assert len(extremal_points(100, F(1, 2))) == 2501

    def test_d100_third_count(self):
        # (33+1) * (100-34+1), cross-checked by enumeration
        assert count_extremal(100, F(1, 3)) == 2278
        assert len(extremal_points(100, F(1, 3))) == 2278

    def test_count_matches_enumeration_on_grid(self):
        for d in (1, 2, 3, 7, 20, 41, 200):
            for den in (2, 3, 7, 19, 20):
                for num in (1, den - 1, max(1, den // 2)):
                    if num >= den:
                        continue
                    p = F(num, den)
                    assert count_extremal(d, p) == len(extremal_points(d, p))

    def test_all_points_have_mean_dp_and_two_support_points(self):
        for d, p in ((7, F(1, 3)), (12, F(2, 5)), (9, F(1, 2))):
            for pt in extremal_points(d, p):
                assert pt.pmf.mean == d * p
                assert len(pt.pmf.support()) <= 2

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            extremal_points(5, F(0))
        with pytest.raises(ValueError):
            extremal_points(5, F(3, 2))


class TestMinMaxConvex:
    def test_min_d100_third_supported_on_bracket(self):
        g = min_convex(100, F(1, 3))
        assert g.support() == [33, 34]
        assert g.mean == F(100, 3)

    def test_min_d100_half_degenerate(self):
        assert min_convex(100, F(1, 2)).support() == [50]

    def test_max_d2_half(self):
        assert max_convex(2, F(1, 2)).values == (F(1, 2), F(0), F(1, 2))

    def test_distinguished_points_sit_in_enumeration(self):
        for d, p in ((5, F(1, 2)), (10, F(1, 3)), (6, F(1, 2))):
            points = extremal_points(d, p)
            lo = min_convex_point(d, p)
            hi = max_convex_point(d, p)
            assert points[lo.index - 1].pmf == lo.pmf == min_convex(d, p)
            assert points[hi.index - 1].pmf == hi.pmf == max_convex(d, p)


def random_member(d, p, rng):
    """Random convex combination of extremal points (lies in the class)."""
    points = extremal_points(d, p)
    weights = [F(rng.randrange(0, 10)) for _ in points]
    if sum(weights) == 0:
        weights[0] = F(1)
    total = sum(weights)
    values = [F(0)] * (d + 1)
    for w, pt in zip(weights, points):
        for k, v in enumerate(pt.pmf.values):
            values[k] += w * v / total
    return SumPmf(d, tuple(values))


class TestConvexOrder:
    def test_min_below_and_max_above_every_extremal(self):
        for d, p in ((5, F(1, 2)), (8, F(1, 3))):
            lo, hi = min_convex(d, p), max_convex(d, p)
            for pt in extremal_points(d, p):
                assert convex_order_leq(lo, pt.pmf)
                assert convex_order_leq(pt.pmf, hi)

    def test_counterexample_pair_ordering(self):
        # sums of the first two drivers from the heterogeneous example
        g = SumPmf(3, (F(0), F(4, 5), F(1, 5), F(0)))
        h = SumPmf(3, (F(1, 5), F(2, 5), F(2, 5), F(0)))
        assert convex_order_leq(g, h)
        assert not convex_order_leq(h, g)

    def test_unequal_means_incomparable(self):
        g = SumPmf(2, (F(1, 2), F(0), F(1, 2)))
        h = SumPmf(2, (F(0), F(1, 2), F(1, 2)))
        assert not convex_order_leq(g, h)

    def test_partial_order_properties_on_random_members(self):
        rng = random.Random(7)
        d, p = 6, F(1, 3)
        members = [random_member(d, p, rng) for _ in range(12)]
        for g in members:
            assert convex_order_leq(g, g)  # reflexive
        for g in members:
            for h in members:
                if convex_order_leq(g, h) and convex_order_leq(h, g):
                    assert g == h  # antisymmetric
                for k in members:
                    if convex_order_leq(g, h) and convex_order_leq(h, k):
                        assert convex_order_leq(g, k)  # transitive

    def test_random_members_bracketed(self):
        rng = random.Random(11)
        for d, p in ((7, F(2, 5)), (10, F(1, 2))):
            lo, hi = min_convex(d, p), max_convex(d, p)
            for _ in range(25):
                g = random_member(d, p, rng)
                assert convex_order_leq(lo, g)
                assert convex_order_leq(g, hi)


class TestBlocks:
    def test_d100_third_run_lengths(self):
        blocks = sigma_cx_smallest_blocks(100, F(1, 3))
        lengths = [bin(m).count("1") for m, _ in blocks.atoms()]
        assert lengths == [33, 34, 33]
        assert [w for _, w in blocks.atoms()] == [F(1, 3)] * 3

    def test_d4_half(self):
        blocks = sigma_cx_smallest_blocks(4, F(1, 2))
        assert {m for m, _ in blocks.atoms()} == {0b0011, 0b1100}
        # brute force: the component sum is degenerate at 2
        assert blocks.sum_pmf().values == (F(0), F(0), F(1), F(0), F(0))

    def test_d2_half_countermonotone(self):
        blocks = sigma_cx_smallest_blocks(2, F(1, 2))
        assert {m for m, _ in blocks.atoms()} == {0b01, 0b10}

    def test_runs_partition_coordinates(self):
        for d, q in ((100, 3), (17, 4), (9, 2)):
            blocks = sigma_cx_smallest_blocks(d, F(1, q))
            combined = 0
            total = 0
            for m, _ in blocks.atoms():
                assert combined & m == 0
                combined |= m
                total += bin(m).count("1")
            assert combined == (1 << d) - 1 and total == d

    def test_margins_and_sum_match_min_convex(self):
        for d, q in ((100, 3), (11, 5), (12, 4)):
            p = F(1, q)
            blocks = sigma_cx_smallest_blocks(d, p)
            assert blocks.margins() == (p,) * d
            assert blocks.sum_pmf() == min_convex(d, p)

    def test_no_construction_for_non_integer_reciprocal(self):
        with pytest.raises(BlockConstructionError):
            sigma_cx_smallest_blocks(10, F(2, 5))


class TestSumPmfType:
    def test_stop_loss_values(self):
        g = SumPmf(3, (F(0), F(1, 2), F(1, 2), F(0)))
        assert g.stop_loss(0) == g.mean == F(3, 2)
        assert g.stop_loss(1) == F(1, 2)
        assert g.stop_loss(2) == F(0)

    def test_json_round_trip(self):
        g = min_convex(100, F(1, 3))
        assert SumPmf.from_json(g.to_json()) == g

    def test_rejects_negative_and_bad_sum(self):
        with pytest.raises(ValueError):
            SumPmf(2, (F(-1, 2), F(1), F(1, 2)))
        with pytest.raises(ValueError):
            SumPmf(2, (F(1, 2), F(1, 2), F(1, 2)))
