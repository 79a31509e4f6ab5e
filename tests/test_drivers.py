from fractions import Fraction as F

import numpy as np
import pytest

from gfgm import (AtomDriver, BernoulliPmf, DenseDriver, ExchangeableDriver, as_driver,
                  driver_from_json, enumerate_vertices, exchangeable_lift, max_convex, min_convex)
from gfgm.drivers import DriverStack
from gfgm.sums import SumPmf, extremal_points


def random_sum_pmf(rng, d, p):
    """A random rational mixture of up to three extremal points of the mean-dp class."""
    points = extremal_points(d, p)
    picks = rng.choice(len(points), size=min(3, len(points)), replace=False)
    weights = [F(int(w)) for w in rng.integers(1, 10, size=picks.size)]
    values = [F(0)] * (d + 1)
    for i, w in zip(picks, weights):
        for k, v in enumerate(points[i].pmf.values):
            values[k] += w / sum(weights) * v
    return SumPmf(d, tuple(values))


def unit_disk(rng, shape):
    return rng.uniform(0, 1, shape) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))


class TestMix:
    @pytest.mark.parametrize("p", [F(1, 3), F(2, 3)])
    @pytest.mark.parametrize("d", range(1, 11))
    def test_exchangeable_recursion_matches_atom_loop(self, d, p):
        rng = np.random.default_rng(100 * d + p.numerator)
        driver = ExchangeableDriver(random_sum_pmf(rng, d, p))
        a, b = unit_disk(rng, (d, 5, 3)), unit_disk(rng, (d, 5, 3))
        expected = AtomDriver(d, tuple(driver.atoms())).mix(a, b)
        assert np.max(np.abs(driver.mix(a, b) - expected)) < 1e-13

    @pytest.mark.parametrize("g", [min_convex(40, F(1, 3)), max_convex(40, F(1, 3))])
    def test_exchangeable_constant_rows_give_sum_pmf_polynomial(self, g):
        # Beyond the atom-expansion cap: constant rows x, y mix to sum_k g(k) x^(d-k) y^k.
        x, y = 0.9 - 0.2j, 0.5 + 0.4j
        driver = ExchangeableDriver(g)
        got = driver.mix(np.full((40, 2), x), np.full((40, 2), y))
        want = sum(float(v) * x ** (40 - k) * y**k for k, v in enumerate(g.values))
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def random_atom_driver(rng, d, count):
    masks = rng.choice(1 << min(d, 62), size=count, replace=False).tolist()
    masks = [m << (d - min(d, 62)) for m in masks]  # past bit 63 at d > 62
    weights = [F(int(w)) for w in rng.integers(1, 9, size=count)]
    return AtomDriver(d, tuple((m, w / sum(weights)) for m, w in zip(masks, weights)))


def bitwise_equal(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestDriverStack:
    """A stack mixes the s-th atom of every driver at once; each row must be driver.mix bit for bit."""

    @pytest.mark.parametrize("shape", [(), (7,), (5, 3)], ids=["real-vector", "complex-2d", "complex-3d"])
    def test_dense_vertices_match_mix(self, shape):
        rng = np.random.default_rng(len(shape))
        drivers = [DenseDriver(v) for v in enumerate_vertices([F(1, 2), F(1, 3), F(2, 3), F(1, 2)])]
        if shape:
            a, b = unit_disk(rng, (4,) + shape), unit_disk(rng, (4,) + shape)
        else:
            a, b = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
        stacked = DriverStack(drivers).mix(a, b)
        assert bitwise_equal(stacked, np.stack([driver.mix(a, b) for driver in drivers]))

    @pytest.mark.parametrize("d", [3, 9, 70])
    def test_atom_drivers_with_different_atom_counts_match_mix(self, d):
        rng = np.random.default_rng(d)
        drivers = [random_atom_driver(rng, d, count) for count in (1, 6, 2, 6, 4)]
        for a, b in [(unit_disk(rng, (d, 11)), unit_disk(rng, (d, 11))),
                     (rng.uniform(0, 1, d), rng.uniform(0, 1, d)),
                     (rng.uniform(0, 1, (d, 11)), unit_disk(rng, (d, 11)))]:
            stacked = DriverStack(drivers).mix(a, b)
            assert bitwise_equal(stacked, np.stack([driver.mix(a, b) for driver in drivers]))

    def test_lone_drivers_use_their_own_mix(self):
        rng = np.random.default_rng(5)
        exchangeable = ExchangeableDriver(min_convex(6, F(1, 3)))
        atoms = random_atom_driver(rng, 6, 4)
        a, b = unit_disk(rng, (6, 9)), unit_disk(rng, (6, 9))
        for driver in (exchangeable, atoms):
            assert bitwise_equal(DriverStack([driver]).mix(a, b), driver.mix(a, b)[None])

    def test_exchangeable_driver_in_a_stack_refused(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="exchangeable"):
            DriverStack([ExchangeableDriver(min_convex(6, F(1, 3))), random_atom_driver(rng, 6, 4)])

    def test_mixed_dimensions_refused(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="dimensions"):
            DriverStack([random_atom_driver(rng, 3, 2), random_atom_driver(rng, 4, 2)])


def random_bernoulli_pmf(rng, d):
    """A random rational pmf on {0,1}^d, about half of its entries zero."""
    counts = rng.integers(0, 9, size=1 << d) * (rng.random(1 << d) < 0.5)
    counts[rng.integers(0, 1 << d)] += 1
    return BernoulliPmf(d, tuple(F(int(c), int(counts.sum())) for c in counts))


def dense_and_sparse_pairs():
    pmfs = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3), F(1, 2)])
    assert len(pmfs) == 146
    rng = np.random.default_rng(314)
    pmfs += [random_bernoulli_pmf(rng, d) for d in range(3, 7) for _ in range(5)]
    return [(DenseDriver(pmf), AtomDriver(pmf.d, tuple(pmf.atoms()))) for pmf in pmfs]


class TestDenseAndSparseAgree:
    """Dense and sparse drivers of one pmf answer alike, from the atoms they share."""

    def test_margins_sum_pmf_and_pair_joints(self):
        for dense, sparse in dense_and_sparse_pairs():
            assert dense.margins() == sparse.margins() == dense.pmf.margins()
            assert dense.sum_pmf() == sparse.sum_pmf()
            for j1 in range(1, dense.d + 1):
                for j2 in range(j1 + 1, dense.d + 1):
                    joint = sum((v for m, v in enumerate(dense.pmf.values)
                                 if (m >> (j1 - 1)) & 1 and (m >> (j2 - 1)) & 1), F(0))
                    assert dense.pair_joint11(j1, j2) == sparse.pair_joint11(j1, j2) == joint

    @pytest.mark.parametrize("shape", [(7,), (5, 3)], ids=["complex-2d", "complex-3d"])
    def test_mix_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        for dense, sparse in dense_and_sparse_pairs():
            a, b = unit_disk(rng, (dense.d,) + shape), unit_disk(rng, (dense.d,) + shape)
            assert bitwise_equal(dense.mix(a, b), sparse.mix(a, b))

    def test_sample_streams_and_json(self):
        for dense, sparse in dense_and_sparse_pairs():
            rows = dense.sample_indicators(np.random.default_rng(9), 50)
            assert rows.shape == (50, dense.d)
            assert np.array_equal(rows, sparse.sample_indicators(np.random.default_rng(9), 50))
            assert dense.to_json()["type"] == "dense" and sparse.to_json()["type"] == "atoms"
            assert driver_from_json(dense.to_json()) == dense
            assert driver_from_json(sparse.to_json()) == sparse

    def test_as_driver_wraps_pmfs(self):
        pmf = enumerate_vertices([F(1, 2), F(1, 3), F(2, 3)])[5]
        assert as_driver(pmf) == DenseDriver(pmf)
        g = min_convex(7, F(2, 7))
        assert as_driver(g) == ExchangeableDriver(g)
        driver = AtomDriver(3, ((0, F(1, 2)), (7, F(1, 2))))
        assert as_driver(driver) is driver
        with pytest.raises(TypeError, match="list"):
            as_driver([F(1, 2), F(1, 2)])


class TestExchangeableAtoms:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_atoms_are_the_lift(self, d):
        rng = np.random.default_rng(d)
        for p in (F(1, 3), F(1, 2), F(2, 3)):
            g = random_sum_pmf(rng, d, p)
            assert ExchangeableDriver(g).atoms() == exchangeable_lift(g).atoms()

    def test_expansion_past_d20_refused(self):
        with pytest.raises(ValueError, match="cap is d=20"):
            ExchangeableDriver(min_convex(21, F(1, 3))).atoms()
