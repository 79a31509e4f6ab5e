from fractions import Fraction as F

import numpy as np
import pytest

from gfgm import AtomDriver, ExchangeableDriver, max_convex, min_convex
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
