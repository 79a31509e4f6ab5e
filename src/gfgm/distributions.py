"""Representations of the aggregate-sum distribution and their primitives.

Three forms, each exposing the same primitives (mean, variance, cdf,
quantile, stop-loss transform, log-mgf) that the risk-measure layer builds
on:

* LatticeDistribution: pmf on a step-h lattice {0, h, 2h, ...}, optionally
  with a closed-form log-mgf and variance in place of pmf sums.  It answers
  for discrete margins and their split components (h = 1), for discrete sums,
  and, as the GridDistribution subclass, for uniform sums lumped on a grid,
* MixedErlangDistribution: countable Erlang(beta) mixture (exponential
  margins), evaluated analytically from its component weights,
* EmpiricalDistribution: a sorted Monte Carlo sample.

Quantiles follow the generalized-inverse convention inf{y : F(y) >= level};
a 1e-12 slack absorbs float round-off when a cdf value sits exactly on the
level.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np
from scipy import special

_CDF_SLACK = 1e-12


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
    """

    kind = "mixed-erlang"

    def __init__(self, beta: float, shape_offset: int, eta, tail_mass: float = 0.0, *,
                 log_mgf, variance: float):
        if beta <= 0:
            raise ValueError("rate must be positive")
        eta = np.asarray(eta, dtype=float)
        if eta.min() < -1e-15:
            raise ValueError("mixture weights must be nonnegative")
        total = eta.sum() + tail_mass
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mixture mass {total} deviates from 1 beyond 1e-10")
        keep = eta > 0
        self.beta = float(beta)
        self.shapes = (shape_offset + np.nonzero(keep)[0]).astype(float)
        self.eta = eta[keep]
        self.tail_mass = float(tail_mass)
        self._log_gamma = special.gammaln(self.shapes)
        self._quantiles: dict[tuple[float, float], float] = {}
        self._exact_log_mgf, self._exact_variance = log_mgf, variance

    def mean(self) -> float:
        return float(np.dot(self.eta, self.shapes)) / self.beta

    def _weights_variance(self) -> float:
        second = float(np.dot(self.eta, self.shapes * (self.shapes + 1.0))) / self.beta**2
        return second - self.mean() ** 2

    def variance(self) -> float:
        return self._exact_variance

    def cdf(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        pos = x > 0
        if pos.any():
            out[pos] = special.gammainc(self.shapes[None, :], self.beta * x[pos, None]) @ self.eta
        return float(out[0]) if scalar else out

    def _cdf_pdf(self, x: float) -> tuple[float, float, float]:
        """cdf, density and density slope at x > 0; Erlang densities via gammaln."""
        bx = self.beta * x
        cdf = float(special.gammainc(self.shapes, bx) @ self.eta)
        dens = np.exp((self.shapes - 1.0) * math.log(bx) - bx - self._log_gamma) * self.eta
        slope = float(dens @ ((self.shapes - 1.0) / x - self.beta))
        return cdf, self.beta * float(dens.sum()), self.beta * slope

    def quantile(self, level: float, tol: float = 1e-10) -> float:
        """inf{x : F(x) >= level} within ``tol``, by bracketed Newton steps.

        Steps carry Halley's curvature correction and shrink a bracket
        lo < q <= hi; a step out of it, and every step after the 30th, is a
        bisection (a doubling while hi is unknown).  Steps shorter than tol/2
        are stretched to tol/2, so the next evaluation closes the bracket;
        the answer is its upper end, which is within tol or one float of the
        quantile.  Answers are kept per level; a cdf that is not finite (a
        non-finite rate) raises ArithmeticError instead of stepping forever.
        """
        if not 0 < level < 1:
            raise ValueError("level must be inside (0,1)")
        key = (level, tol)
        if key in self._quantiles:
            return self._quantiles[key]
        mean, sd = self.mean(), math.sqrt(max(self._weights_variance(), 0.0))
        lo, hi, x = 0.0, math.inf, max(mean + sd * float(special.ndtri(level)), 0.5 * mean)
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
        self._quantiles[key] = hi
        return hi

    def stop_loss(self, t: float) -> float:
        """E[(S - t)+] from the analytic Erlang tail integrals."""
        if t <= 0:
            return self.mean() - t
        surv_next = 1.0 - special.gammainc(self.shapes + 1.0, self.beta * t)
        surv = 1.0 - special.gammainc(self.shapes, self.beta * t)
        return float(np.dot(self.eta, (self.shapes / self.beta) * surv_next - t * surv))

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
