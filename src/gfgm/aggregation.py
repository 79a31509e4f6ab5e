"""Distribution of the aggregate sum under GFGM dependence.

For a common margin, given driver sum k the aggregate is the sum of d-k
copies of the split component Z0 and k copies of Z1, with law L_k; under a
driver-sum pmf g the sum's law is the mixture sum_k g(k) L_k.
``ConditionalLaws`` builds each row L_k once per call and mixes rows:

* discrete margins: L_k is a lattice pmf, the inverse FFT of
  Z0hat^(d-k) Z1hat^k, with powers by repeated squaring,
* uniform margins: the two split densities are lumped mean-preservingly on a
  step grid, and L_k is built the same way,
* exponential margins: L_k is a mixed Erlang law; each exponential factor
  below the base rate expands as a geometric compound, giving
  negative-binomial stage weights (numerically stable at high dimension,
  unlike partial fractions with alternating signs).

Lattice and grid mixtures carry their log-mgf and variance in closed form
from the split pmfs, so FFT round-off in the far tail, which e^{gamma x}
would amplify, never reaches the entropic measure.  Heterogeneous discrete
margins need the whole driver, not just its sum: their law is the inverse FFT
of ``Driver.mix`` over the per-coordinate split spectra (``split_spectra``).
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np
from scipy import stats
from scipy.fft import next_fast_len

from .distributions import GridDistribution, LatticeDistribution, MixedErlangDistribution
from .distributions import log_sum_exp
from .drivers import as_driver
from .margins import (
    DiscreteMargin,
    ExponentialMargin,
    UniformMargin,
    _p_float,
    v0_stop_loss,
    v0v1_stop_loss,
)
from .sums import ExtremalSumPoint, SumPmf

_ETA_EPS = 1e-12
_GRID_ROW_NODES = 1 << 22
_GRID_TABLE_NODES = 1 << 24


def _clean_pmf(pmf: np.ndarray) -> np.ndarray:
    low = pmf.min()
    if low < -1e-9:
        raise ArithmeticError(f"FFT round-off produced mass {low}, beyond tolerance")
    pmf = np.clip(pmf, 0.0, None)
    return pmf / pmf.sum()


def _ifft_pmf(spectrum: np.ndarray, length: int, size: int) -> np.ndarray:
    return _clean_pmf(np.fft.irfft(spectrum, n=length)[:size])


def _mixing_weights(sum_pmf, d: int) -> list[tuple[int, float]]:
    """Support of a sum pmf or extremal point as (k, float weight) pairs."""
    if isinstance(sum_pmf, ExtremalSumPoint):
        pt = sum_pmf
        pairs = [(pt.k1, 1.0)] if pt.is_degenerate else [
            (pt.k1, float(pt.w1)), (pt.k2, float(pt.w2))]
    elif isinstance(sum_pmf, SumPmf):
        pairs = [(k, float(v)) for k, v in enumerate(sum_pmf.values) if v != 0]
    else:
        raise TypeError(f"expected a sum pmf, got {type(sum_pmf).__name__}")
    if sum_pmf.d != d:
        raise ValueError(f"sum pmf has d={sum_pmf.d}, the margins d={d}")
    return pairs


def _discretize_unit_density(stop_loss_fn, p, h: float) -> np.ndarray:
    """Mean-preserving lumping of a density on [0,1] onto the step-h lattice.

    Mass at node k is the second difference of the stop-loss transform,
    (L((k-1)h) - 2 L(kh) + L((k+1)h))/h, with the boundary node absorbing
    1 - (L(0) - L(h))/h; total mass and mean are preserved exactly.
    """
    nodes = int(np.ceil(1.0 / h)) + 1
    t = np.arange(nodes + 1) * h
    ell = np.where(t < 1.0, stop_loss_fn(np.clip(t, 0.0, 1.0), p), 0.0)
    pmf = np.empty(nodes)
    pmf[0] = 1.0 - (ell[0] - ell[1]) / h
    pmf[1:] = (ell[:-2] - 2.0 * ell[1:-1] + ell[2:]) / h
    return np.clip(pmf, 0.0, None)


class ConditionalLaws:
    """Laws L_k, k = 0..d, of the sum of d common margins given driver sum k.

    Rows are built on first use, each k once, and each row's mean is checked
    against (d-k) E[Z0] + k E[Z1]: within 1e-8 relative for discrete and
    exponential margins, 1e-6 absolute on the uniform grid (default step
    d/2^15, at most 2^22 nodes a row and 2^24 in all).  ``mix`` returns the
    law for a SumPmf or extremal point.  Nothing is kept across calls.
    """

    def __init__(self, margin, d: int, p, grid_h: float | None = None):
        if d < 1:
            raise ValueError("need d >= 1")
        self.margin, self.d, self.p = margin, d, _p_float(p)
        if not 0 < self.p < 1:
            raise ValueError(f"p={self.p} outside (0,1)")
        self.h, self._tol = None, (1e-8, 1e-8)  # lattice step, (rtol, atol) of the mean check
        if isinstance(margin, ExponentialMargin):
            self.beta = margin.rate / (1.0 - self.p)
        elif isinstance(margin, DiscreteMargin):
            self.h, self.size = 1.0, d * margin.n + 1
        elif isinstance(margin, UniformMargin):
            self.h = d / 2.0**15 if grid_h is None else float(grid_h)
            self._tol = (0.0, 1e-6)
            if self.h <= 0:
                raise ValueError("grid step must be positive")
            self.size = int(np.ceil(d / self.h)) + d + 1
            if self.size > _GRID_ROW_NODES:
                raise MemoryError(f"grid of {self.size} nodes exceeds the budget; raise grid_h")
        else:
            raise ValueError(f"unsupported margin type {type(margin).__name__}")
        if self.h is not None:
            self._length = next_fast_len(self.size, real=True)
        self._z_means = margin.z_means(self.p)
        self._rows: dict[int, np.ndarray] = {}
        self._split_log_mgfs: dict[float, tuple[float, float]] = {}

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized split pmfs on the lattice: Z0 and Z1, or their grid lumps."""
        if isinstance(self.margin, DiscreteMargin):
            z = self.margin.z_pmfs(self.p)
            a, b = z.z0, z.z1
        else:
            a = _discretize_unit_density(v0_stop_loss, self.p, self.h)
            b = _discretize_unit_density(v0v1_stop_loss, self.p, self.h)
        return a / a.sum(), b / b.sum()

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.fft.rfft(z, n=self._length) for z in self._split)

    def _power(self, which: int, j: int) -> np.ndarray | None:
        """Spectrum of the j-fold convolution of split ``which``, None for j=0."""
        square, out = self._spectra[which], None
        while j:
            if j & 1:
                out = square if out is None else out * square
            j >>= 1
            square = square * square if j else square
        return out

    def _row(self, k: int) -> np.ndarray:
        if k in self._rows:
            return self._rows[k]
        if self.h is None:  # stage weights beyond d: k + NB(k, 1-p) stages
            row = np.ones(1)
            if k:
                m_max = int(stats.nbinom.ppf(1.0 - _ETA_EPS * 1e-3, k, 1.0 - self.p)) + 10
                row = np.zeros(k + m_max + 1)
                row[k:] = stats.nbinom.pmf(np.arange(m_max + 1), k, 1.0 - self.p)
            mean = (self.d + np.dot(np.arange(row.size), row) / row.sum()) / self.beta
        else:
            n_rows = len(self._rows) + 1
            if isinstance(self.margin, UniformMargin) and n_rows * self.size > _GRID_TABLE_NODES:
                raise MemoryError(f"{n_rows} grid rows exceed the budget; raise grid_h")
            a, b = self._power(0, self.d - k), self._power(1, k)
            spectrum = b if a is None else a if b is None else a * b
            row = np.fft.irfft(spectrum, n=self._length)[: self.size].copy()
            mean = self.h * np.dot(np.arange(self.size), row) / row.sum()
        expected = (self.d - k) * self._z_means[0] + k * self._z_means[1]
        if abs(mean - expected) > max(self._tol[1], self._tol[0] * abs(expected)):
            raise ArithmeticError(f"law at driver sum {k}: mean {mean} deviates from {expected}")
        self._rows[k] = row
        return row

    @cached_property
    def _split_moments(self) -> list[tuple[float, float]]:
        """(mean, variance) of each split pmf, in lattice steps."""
        j = [np.arange(z.size) for z in self._split]
        return [(jj @ z, (jj - jj @ z) ** 2 @ z) for jj, z in zip(j, self._split)]

    def _log_mgf(self, pairs, t: float) -> float:
        """log E[e^{tS}], S in lattice steps; row k contributes (d-k) log M0(t) + k log M1(t)."""
        if t not in self._split_log_mgfs:
            self._split_log_mgfs[t] = tuple(
                log_sum_exp(np.log(z[z > 0]) + t * np.nonzero(z > 0)[0]) for z in self._split
            )
        l0, l1 = self._split_log_mgfs[t]
        return log_sum_exp([math.log(w) + (self.d - k) * l0 + k * l1 for k, w in pairs])

    def _variance(self, pairs) -> float:
        """Variance in lattice steps, from the rows' means and variances."""
        (m0, v0), (m1, v1) = self._split_moments
        k, w = np.array(pairs).T
        means = (self.d - k) * m0 + k * m1
        return float(w @ ((self.d - k) * v0 + k * v1 + (means - w @ means) ** 2))

    def mix(self, sum_pmf):
        """Mixed-Erlang, lattice or grid law of the sum under a sum pmf or extremal point."""
        pairs = _mixing_weights(sum_pmf, self.d)
        rows = [self._row(k) for k, _ in pairs]
        mixed = np.zeros(max(row.size for row in rows))
        for (_, w), row in zip(pairs, rows):
            mixed[: row.size] += w * row
        if self.h is None:
            eta = mixed[: int(np.searchsorted(np.cumsum(mixed), 1.0 - _ETA_EPS)) + 1]
            return MixedErlangDistribution(self.beta, self.d, eta, max(0.0, 1.0 - eta.sum()))
        exact = {"log_mgf": partial(self._log_mgf, pairs), "variance": self._variance(pairs)}
        if isinstance(self.margin, UniformMargin):
            return GridDistribution(self.h, _clean_pmf(mixed), **exact)
        return LatticeDistribution(_clean_pmf(mixed), **exact)


def aggregate_discrete_common(margin: DiscreteMargin, d: int, sum_pmf, p) -> LatticeDistribution:
    """Sum of d identically distributed discrete margins under the given driver sum."""
    return ConditionalLaws(margin, d, p).mix(sum_pmf)


def split_spectra(margins, p, length: int, weight=None) -> tuple[np.ndarray, np.ndarray]:
    """rfft of every margin's split pmfs Z0_j and Z1_j at p_j, as two (d, length//2+1) arrays.

    ``weight``, indexed by lattice point, multiplies each pmf first:
    ``np.arange(length)`` gives the transforms of k P(Z=k).
    """
    rows = np.zeros((2, len(margins), length))
    for j, (margin, pj) in enumerate(zip(margins, p)):
        z = margin.z_pmfs(pj)
        for which, pmf in enumerate((z.z0, z.z1)):
            rows[which, j, : pmf.size] = pmf if weight is None else weight[: pmf.size] * pmf
    z0, z1 = np.fft.rfft(rows, axis=2)
    return z0, z1


def _portfolio_lattice(margins, driver) -> tuple[int, int]:
    """(size, FFT length) of the lattice of a heterogeneous discrete sum."""
    if len(margins) != driver.d:
        raise ValueError(f"need {driver.d} margins, got {len(margins)}")
    size = sum(m.n for m in margins) + 1
    return size, next_fast_len(size, real=True)


def aggregate_discrete_general(margins: list[DiscreteMargin], driver) -> LatticeDistribution:
    """Sum with heterogeneous discrete margins, p_j from the driver margins.

    Given the driver the coordinates are independent, so the sum's spectrum
    is the driver's mixture of products of the split spectra.
    """
    driver = as_driver(driver)
    size, length = _portfolio_lattice(margins, driver)
    z0, z1 = split_spectra(margins, driver.margins(), length)
    return LatticeDistribution(_ifft_pmf(driver.mix(z0, z1), length, size))


def aggregate_exponential(rate: float, d: int, sum_pmf, p) -> MixedErlangDistribution:
    """Erlang(d, beta) plus extra stages, beta = rate/(1-p), weights cut at mass 1 - 1e-12."""
    return ConditionalLaws(ExponentialMargin(rate), d, p).mix(sum_pmf)


def aggregate_uniform(p, d: int, sum_pmf, grid_h: float | None = None) -> GridDistribution:
    """Sum of d uniform margins (the copula's own sum) on a step grid, default d/2^15."""
    return ConditionalLaws(UniformMargin(), d, p, grid_h).mix(sum_pmf)


def aggregate(margin, d: int, sum_pmf, p, grid_h: float | None = None, laws=None):
    """Law of the sum for one margin family, from the call's ``laws`` table if given;
    "bernoulli" measures the driver sum itself."""
    if margin == "bernoulli":
        k, w = np.array(_mixing_weights(sum_pmf, d)).T
        return LatticeDistribution(np.bincount(k.astype(int), weights=w, minlength=d + 1))
    return (laws or ConditionalLaws(margin, d, p, grid_h)).mix(sum_pmf)
