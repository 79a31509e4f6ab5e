"""Representations of the aggregate-sum distribution and their primitives.

Three forms, each exposing the same primitives (mean, variance, cdf,
quantile, stop-loss transform, log-mgf) that the risk-measure layer builds
on:

* LatticeDistribution: pmf on a step-h lattice {0, h, 2h, ...}, optionally
  with a closed-form log-mgf and variance in place of pmf sums.  It answers
  for discrete margins and their split components (h = 1), for discrete sums,
  and, as the GridDistribution subclass, for uniform sums lumped on a grid,
* MixedErlangDistribution: countable Erlang(beta) mixture (exponential
  margins), evaluated analytically from its component weights: at x its
  cdf, survival, density and stop-loss transform are Poisson(beta x)
  weights dotted with sums of the component weights (``poisson_weights``),
  so numpy alone serves it,
* EmpiricalDistribution: a sorted Monte Carlo sample.

Quantiles follow the generalized-inverse convention inf{y : F(y) >= level};
a 1e-12 slack absorbs float round-off when a cdf value sits exactly on the
level.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from statistics import NormalDist

import numpy as np

_CDF_SLACK = 1e-12
_QUANTILE_TOL = 1e-10  # mixed-Erlang quantiles: the bracket width at which the search stops
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log j! - log(sqrt(2 pi j) (j/e)^j) at j = 1..15; from 16 on the Stirling series holds to 1e-16
_STIRLING_ERRORS = [math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j - _HALF_LOG_2PI
                    for j in range(1, 16)]


def log_sum_exp(values) -> float:
    """log(sum(exp(values))), shifted by the maximum so that it cannot overflow."""
    values = np.asarray(values, dtype=float)
    top = values.max()
    return float(top + np.log(np.exp(values - top).sum()))


def log_mean_exp(weights, values) -> float:
    """log(sum_k w_k e^{v_k} / sum_k w_k) as c + log1p(sum_k w_k expm1(v_k - c) / sum_k w_k),
    c the largest value, so values near 0 keep their size rather than the round-off of the
    weights' sum; log-sum-exp where the values lie far apart and the sum nears -1."""
    weights, values = np.asarray(weights, dtype=float), np.asarray(values, dtype=float)
    top, total = values.max(), weights.sum()
    mixed = float(np.dot(weights, np.expm1(values - top))) / total
    if mixed > -0.5:
        return float(top) + math.log1p(mixed)
    keep = weights > 0
    return log_sum_exp(np.log(weights[keep]) + values[keep]) - math.log(total)


def poisson_weight(lam: float, j: int) -> float:
    """P(N = j), N ~ Poisson(lam), as exp(j log(lam/j) - (lam - j) - log sqrt(2 pi j) - e(j)),
    e(j) the error of Stirling's formula for j!; log1p takes log(lam/j) near j = lam, so
    the two large terms cancel to within 1e-16 |lam - j| rather than 1e-16 j log j."""
    if j == 0:
        return math.exp(-lam)
    if j < 16:
        stirling = _STIRLING_ERRORS[j - 1]
    else:
        x = 1.0 / (j * j)
        stirling = (1 / 12 - x * (1 / 360 - x * (1 / 1260 - x * (1 / 1680 - x / 1188)))) / j
    log_ratio = math.log1p((lam - j) / j) if j < 2.0 * lam else math.log(lam / j)
    return math.exp(j * log_ratio - (lam - j) - _HALF_LOG_2PI - 0.5 * math.log(j) - stirling)


def poisson_weights(lam: float, lo: int, hi: int) -> np.ndarray:
    """P(N = j) for j = lo..hi, N ~ Poisson(lam): ``poisson_weight`` at the j nearest the
    mode, then cumulative products of the ratios lam/j and j/lam outward from it, which
    are at most 1, so they cannot overflow and lose about 1e-16 relative a step."""
    mode = min(max(math.floor(lam), lo), hi)
    out = np.empty(hi - lo + 1)
    out[mode - lo] = poisson_weight(lam, mode)
    out[mode - lo + 1:] = lam / np.arange(mode + 1.0, hi + 1.0)
    out[: mode - lo] = np.arange(lo + 1.0, mode + 1.0) / lam
    np.cumprod(out[mode - lo:], out=out[mode - lo:])
    head = out[mode - lo::-1]
    np.cumprod(head, out=head)
    return out


def _normalized(probs, fault=ValueError) -> tuple[np.ndarray, np.ndarray]:
    """A pmf, or each row of a stack of pmfs, checked (``fault`` for an entry below -1e-9
    or a mass off 1 by 1e-10), clipped and normalized along the last axis, with its cdf."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < -1e-9:
        raise fault(f"pmf entry {probs.min()} too negative for round-off")
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=-1, keepdims=True)
    worst = totals.flat[np.abs(totals - 1.0).argmax()]
    if abs(worst - 1.0) > 1e-10:
        raise fault(f"pmf mass {worst} deviates from 1 beyond 1e-10")
    probs /= totals
    return probs, np.cumsum(probs, axis=-1)


class LatticeDistribution:
    """pmf on the lattice {0, h, 2h, ...}, step h = 1 here (the integers).

    Every primitive scales by h.  An exact ``log_mgf(t)`` and ``variance``,
    if given, are in lattice steps (t = gamma * h) and win over pmf sums.
    """

    kind = "lattice"
    h = 1.0
    _node_slack = 0.0  # the cdf counts a node this many steps above x

    def __init__(self, probs, log_mgf=None, variance=None):
        self._set(*_normalized(probs), log_mgf, variance)

    def _set(self, probs, cdf, log_mgf, variance) -> None:
        self.probs, self._cdf = probs, cdf
        self._exact_log_mgf = log_mgf
        self._exact_variance = variance
        self._quantiles: dict[float, float] = {}

    @staticmethod
    def stack(probs, log_mgfs, variances, grid_h=None) -> list["LatticeDistribution"]:
        """One law per row of a 2-d array of inverse-FFT pmfs, each equal to
        ``LatticeDistribution(row, log_mgf, variance)`` or, given a grid step,
        ``GridDistribution(grid_h, ...)``; round-off past the checks raises ArithmeticError."""
        cls = LatticeDistribution if grid_h is None else GridDistribution
        out = []
        for row, cdf, log_mgf, variance in zip(*_normalized(probs, ArithmeticError), log_mgfs,
                                               variances):
            dist = cls.__new__(cls)
            dist._set(row, cdf, log_mgf, variance)
            if grid_h is not None:
                dist.h = float(grid_h)
            out.append(dist)
        return out

    @cached_property
    def support(self) -> np.ndarray:
        """Lattice points 0, 1, 2, ... in lattice steps, built on first use."""
        return np.arange(self.probs.size, dtype=float)

    @classmethod
    def from_sum_pmf(cls, g) -> "LatticeDistribution":
        return cls(np.asarray(g.as_floats()))

    def mean(self) -> float:
        return self.h * float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        if self._exact_variance is not None:
            return self.h**2 * self._exact_variance
        m = float(np.dot(self.support, self.probs))
        return self.h**2 * float(np.dot((self.support - m) ** 2, self.probs))

    def cdf(self, x) -> np.ndarray | float:
        steps = np.asarray(x, dtype=float) / self.h + self._node_slack
        idx = np.clip(np.floor(steps).astype(int), -1, self.probs.size - 1)
        padded = np.concatenate([[0.0], self._cdf])
        return padded[idx + 1]

    def quantile(self, level: float) -> float:  # kept per level, so ES reuses the VaR
        if level not in self._quantiles:
            self._quantiles[level] = self.h * float(
                np.searchsorted(self._cdf, level - _CDF_SLACK, side="left"))
        return self._quantiles[level]

    def stop_loss(self, t: float) -> float:  # a sum over the nodes above t only
        first = min(max(math.floor(t / self.h) + 1, 0), self.probs.size)
        return self.h * float(np.dot(self.support[first:] - t / self.h, self.probs[first:]))

    def log_mgf(self, gamma: float) -> float:
        t = gamma * self.h
        if self._exact_log_mgf is not None:
            return self._exact_log_mgf(t)
        return log_mean_exp(self.probs, t * self.support)


class GridDistribution(LatticeDistribution):
    """pmf lumped on the lattice {0, h, 2h, ...} of a grid step h > 0."""

    kind = "grid"
    _node_slack = 1e-9

    def __init__(self, h: float, probs, log_mgf=None, variance=None):
        if h <= 0:
            raise ValueError("grid step must be positive")
        super().__init__(probs, log_mgf=log_mgf, variance=variance)
        self.h = float(h)


class MixedErlangDistribution:
    """Mixture over k of Erlang(shape_offset + k, beta), weights eta_k.

    The recorded ``tail_mass`` is the weight dropped at truncation; quantiles
    computed from the truncated weights bracket the true ones accordingly.  The
    exact ``log_mgf(gamma)`` and ``variance`` are given by the caller, since the
    truncated weights lose both a tiny gamma and the dropped tail; quantiles
    start from the weights' own moments.

    With N ~ Poisson(beta x), Erlang(n, beta) has cdf P(N >= n), survival
    P(N <= n-1), density beta P(N = n-1) and stop-loss transform
    sum_{i <= n} (n-i) P(N = i) / beta at x.  Summed over the weights, the
    cdf, survival and stop-loss transform are each one dot product of the
    Poisson weights with a sum of the eta_k taken from its own end, so every
    term is nonnegative and both tails keep their relative accuracy.
    """

    kind = "mixed-erlang"

    def __init__(self, beta: float, shape_offset: int, eta, tail_mass: float = 0.0, *,
                 log_mgf, variance: float):
        if beta <= 0:
            raise ValueError("rate must be positive")
        if shape_offset < 1:
            raise ValueError("Erlang shapes start at 1")
        eta = np.asarray(eta, dtype=float)
        if eta.min() < -1e-15:
            raise ValueError("mixture weights must be nonnegative")
        total = eta.sum() + tail_mass
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mixture mass {total} deviates from 1 beyond 1e-10")
        kept = np.flatnonzero(eta > 0)
        self.beta = float(beta)
        self.eta = np.clip(eta[kept[0]: kept[-1] + 1], 0.0, None)
        self.shapes = np.arange(shape_offset + kept[0], shape_offset + kept[-1] + 1.0)
        self.tail_mass = float(tail_mass)
        self._quantiles: dict[float, float] = {}
        self._exact_log_mgf, self._exact_variance = log_mgf, variance

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """At j = 0..n_max: the weight of shapes n <= j, of shapes n > j, and
        sum_{n > j} eta_n (n - j); then the total weight."""
        eta = np.zeros(int(self.shapes[-1]) + 1)
        eta[int(self.shapes[0]):] = self.eta
        above = np.cumsum(eta[:0:-1])[::-1]
        excess = np.cumsum(above[::-1])[::-1]
        return (np.cumsum(eta), np.append(above, 0.0), np.append(excess, 0.0),
                float(self.eta.sum()))

    @cached_property
    def _eta_shape_less_one(self) -> np.ndarray:
        return self.eta * (self.shapes - 1.0)

    def mean(self) -> float:
        return float(np.dot(self.eta, self.shapes)) / self.beta

    def _weights_variance(self) -> float:
        second = float(np.dot(self.eta, self.shapes * (self.shapes + 1.0))) / self.beta**2
        return second - self.mean() ** 2

    def variance(self) -> float:
        return self._exact_variance

    def _poisson(self, x: float) -> tuple[np.ndarray, int, bool]:
        """Poisson(beta x) weights at j = lo..hi, and lo.  Below lo they are negligible
        against every sum; past n_max they reach where they are negligible too (True), unless
        beta x > n_max, where the cdf is the weight minus the survival instead (False)."""
        lam, top = self.beta * x, int(self.shapes[-1])
        if not lam < math.inf:  # x = inf leaves no mass above x; a nan rate gives nan
            return np.full(top + 1, 0.0 if lam == math.inf else math.nan), 0, False
        reach = 10.0 * math.sqrt(lam) + 40.0
        lo = max(0, math.floor(min(self.shapes[0] - 1.0, lam) - reach))
        covered = lam <= top
        return poisson_weights(lam, lo, top + math.ceil(reach) if covered else top), lo, covered

    def _cdf_survival(self, x: float) -> tuple[float, float, np.ndarray, int]:
        """cdf and survival at x > 0, each a sum of nonnegative terms, with the Poisson
        weights and their first j."""
        weights, lo, covered = self._poisson(x)
        below, above, _, total = self._sums
        head = weights[: above.size - lo]
        survival = float(np.dot(head, above[lo:]))
        if covered:
            cdf = float(np.dot(head, below[lo:])) + total * float(weights[head.size:].sum())
        else:
            cdf = total - survival
        return cdf, survival, weights, lo

    def cdf(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        out = np.array([self._cdf_survival(v)[0] if v > 0 else 0.0 for v in x.ravel()])
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def _cdf_pdf(self, x: float) -> tuple[float, float, float]:
        """cdf, density and density slope at x > 0: Erlang(n) has density beta P(N = n-1),
        of slope beta P(N = n-1) ((n-1)/x - beta)."""
        cdf, _, weights, lo = self._cdf_survival(x)
        first = int(self.shapes[0]) - 1 - lo
        below = weights[first: first + self.eta.size]
        dens, moment = float(below @ self.eta), float(below @ self._eta_shape_less_one)
        return cdf, self.beta * dens, self.beta * (moment / x - self.beta * dens)

    def quantile(self, level: float) -> float:
        """inf{x : F(x) >= level} within tol = ``_QUANTILE_TOL``, by bracketed Newton steps.

        Steps carry Halley's curvature correction and shrink a bracket
        lo < q <= hi; a step out of it, and every step after the 30th, is a
        bisection (a doubling while hi is unknown).  Steps shorter than tol/2
        are stretched to tol/2, so the next evaluation closes the bracket;
        the answer is its upper end, which is within tol or one float of the
        quantile.  Answers are kept per level.  F stays below the kept weight
        sum(eta) at every finite x, so a level at or above it has no finite
        quantile and is refused with a ValueError.  A cdf that is not finite
        (a non-finite rate), or a bracket that leaves the finite floats,
        raises ArithmeticError instead of stepping forever.
        """
        if not 0 < level < 1:
            raise ValueError("level must be inside (0,1)")
        if level in self._quantiles:
            return self._quantiles[level]
        kept = self._sums[3]
        if level >= kept:
            raise ValueError(f"level {level!r} is at or above the mass {kept!r} that the truncated "
                             "mixed-Erlang weights keep: its quantile is not finite")
        tol = _QUANTILE_TOL
        mean, sd = self.mean(), math.sqrt(max(self._weights_variance(), 0.0))
        lo, hi, x = 0.0, math.inf, max(mean + sd * NormalDist().inv_cdf(level), 0.5 * mean)
        for steps in itertools.count(1):
            cdf, pdf, slope = self._cdf_pdf(x)
            if not math.isfinite(cdf):
                raise ArithmeticError(f"mixed-Erlang cdf is {cdf} at x={x}")
            lo, hi = (lo, x) if cdf >= level else (x, hi)
            if hi - lo <= max(tol, math.ulp(lo)):  # adjacent floats cannot be split further
                break
            g = cdf - level
            step = math.inf if pdf <= 0.0 else g / pdf
            if 2.0 * pdf * pdf > g * slope:
                step = 2.0 * g * pdf / (2.0 * pdf * pdf - g * slope)
            x -= math.copysign(max(abs(step), 0.5 * tol), step)
            if steps >= 30 or not lo < x < hi:
                x = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + mean
            if not math.isfinite(x):
                raise ArithmeticError(f"mixed-Erlang quantile at level {level!r} left the floats")
        self._quantiles[level] = hi
        return hi

    def stop_loss(self, t: float) -> float:
        """E[(S - t)+] = sum_j P(N = j) sum_{n > j} eta_n (n - j) / beta, N ~ Poisson(beta t)."""
        if t <= 0:
            return self.mean() - t
        weights, lo, _ = self._poisson(t)
        excess = self._sums[2]
        return float(np.dot(weights[: excess.size - lo], excess[lo:])) / self.beta

    def log_mgf(self, gamma: float) -> float:
        return self._exact_log_mgf(gamma)


class EmpiricalDistribution:
    """Sorted Monte Carlo sample with plug-in estimators."""

    kind = "empirical"

    def __init__(self, samples):
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size < 2:
            raise ValueError("need at least two samples")
        self.samples = samples
        self.n = samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def variance(self) -> float:
        return float(self.samples.var(ddof=1))

    def cdf(self, x) -> np.ndarray | float:
        return np.searchsorted(self.samples, np.asarray(x, dtype=float), side="right") / self.n

    def quantile(self, level: float) -> float:
        idx = int(np.ceil(level * self.n)) - 1
        return float(self.samples[max(idx, 0)])

    def stop_loss(self, t: float) -> float:
        return float(np.clip(self.samples - t, 0.0, None).mean())

    def log_mgf(self, gamma: float) -> float:
        return log_sum_exp(gamma * self.samples) - float(np.log(self.n))


AggregateDistribution = LatticeDistribution | MixedErlangDistribution | EmpiricalDistribution
