"""Marginal distributions and their conditional-mixture components.

Each coordinate of a GFGM-coupled vector splits, conditionally on its
Bernoulli indicator, into one of two transformed variables: the quantile
transform of V0 ~ Beta(1/(1-p), 1) when the indicator is 0 and of V0*V1
(V1 uniform, independent) when it is 1.  The two conditional cdfs are

    F_{V0}(u)    = u^(1/(1-p)),
    F_{V0 V1}(u) = u/p - ((1-p)/p) * u^(1/(1-p)),

and they mix back to the uniform cdf: p*F_{V0 V1} + (1-p)*F_{V0} = id.

This module provides the margin families used across the package
(exponential, discrete on {0..n}, standard uniform), their split components
(pmfs for discrete margins, expectations for all), and the closed-form
lower/upper tail quantities needed for dependence-free bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import measures
from .bernoulli import json_field, json_int, json_value
from .distributions import LatticeDistribution


def _p_float(p) -> float | np.ndarray:
    """p as a float; an array of parameters, one per column of u, as a float array."""
    if isinstance(p, np.ndarray):
        return p.astype(float)
    if isinstance(p, Fraction):
        return float(p)
    return float(Fraction(p)) if isinstance(p, str) else float(p)


def v0_cdf(u, p) -> np.ndarray | float:
    """cdf of V0 ~ Beta(1/(1-p), 1) on [0,1]."""
    pf = _p_float(p)
    return np.power(u, 1.0 / (1.0 - pf))


def v0v1_cdf(u, p) -> np.ndarray | float:
    """cdf of the product V0*V1 on [0,1]."""
    pf = _p_float(p)
    u = np.asarray(u, dtype=float)
    return u / pf - ((1.0 - pf) / pf) * np.power(u, 1.0 / (1.0 - pf))


def v0_pdf(u, p) -> np.ndarray | float:
    pf = _p_float(p)
    r = 1.0 / (1.0 - pf)
    return r * np.power(u, r - 1.0)


def v0v1_pdf(u, p) -> np.ndarray | float:
    pf = _p_float(p)
    r = 1.0 / (1.0 - pf)
    return (1.0 - np.power(u, r - 1.0)) / pf


def v0_stop_loss(t, p) -> np.ndarray | float:
    """E[(V0 - t)+] for t in [0,1], closed form."""
    pf = _p_float(p)
    s = (2.0 - pf) / (1.0 - pf)  # exponent of the integrated cdf
    t = np.asarray(t, dtype=float)
    return (1.0 - t) - ((1.0 - pf) / (2.0 - pf)) * (1.0 - np.power(t, s))


def v0v1_stop_loss(t, p) -> np.ndarray | float:
    """E[(V0*V1 - t)+] for t in [0,1], closed form."""
    pf = _p_float(p)
    s = (2.0 - pf) / (1.0 - pf)
    t = np.asarray(t, dtype=float)
    integral_cdf = (1.0 - t * t) / (2.0 * pf) - ((1.0 - pf) ** 2 / (pf * (2.0 - pf))) * (
        1.0 - np.power(t, s)
    )
    return (1.0 - t) - integral_cdf


@dataclass(frozen=True)
class ZPair:
    """Split pmfs of a discrete margin, conditional on the indicator value."""

    z0: np.ndarray
    z1: np.ndarray
    p: float
    margin_pmf: np.ndarray

    def mixture_gap(self) -> float:
        """Max deviation of p*z1 + (1-p)*z0 from the margin pmf (identity check)."""
        mix = self.p * self.z1 + (1.0 - self.p) * self.z0
        return float(np.max(np.abs(mix - self.margin_pmf)))


class ExponentialMargin:
    """Exponential margin with the given rate."""

    kind = "exp"

    def __init__(self, rate: float):
        rate = float(rate)
        if not 0.0 < rate < math.inf:  # also refuses nan
            raise ValueError(f"rate must be positive and finite, got {rate}")
        square = rate * rate
        if not 0.0 < square < math.inf or 1.0 / square == math.inf:
            raise ValueError(f"rate {rate} out of range: rate^2 and 1/rate^2 must be finite "
                             "and positive")
        self.rate = rate

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def var(self) -> float:
        return 1.0 / self.rate**2

    def check_mgf(self, gamma: float) -> None:
        """Refuse gamma >= rate: E e^{gamma X} is infinite, and so is E e^{gamma S} for
        every sum S >= X."""
        if gamma >= self.rate:
            raise ValueError(f"entropic gamma={gamma:g} is at or above the exponential rate "
                             f"{self.rate:g}: E[exp(gamma S)] is infinite")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, 1.0 - np.exp(-self.rate * x))

    def ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def es(self, alpha: float) -> float:
        return (1.0 - np.log1p(-alpha)) / self.rate

    def ltvar(self, alpha: float) -> float:
        """Lower tail value-at-risk (1/a) * int_0^a VaR_u du, closed form."""
        a = float(alpha)
        return (1.0 - (1.0 - a) * (1.0 - np.log1p(-a))) / (self.rate * a)

    def z_means(self, p) -> tuple[float, float]:
        """Split-component means under the additive exponential representation.

        Exponential margins split additively, X = W1 + I*W2 with W1 of mean
        (1-p)/rate and W2 of mean 1/rate, which is the convention behind the
        mixed-Erlang aggregation path and the identity "pair correlation =
        indicator covariance".  It matches the quantile-transform split
        exactly at p = 1/2 (up to relabeling the indicator); for other p the
        quantile split is available through QuantileMargin.
        """
        pf = _p_float(p)
        return (1.0 - pf) / self.rate, (2.0 - pf) / self.rate

    def describe(self) -> str:
        return f"exp:{self.rate:g}"


class UniformMargin:
    """Standard uniform margin on [0,1]."""

    kind = "uniform"

    mean = 0.5
    var = 1.0 / 12.0

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def ppf(self, u):
        return np.asarray(u, dtype=float)

    def es(self, alpha: float) -> float:
        return (1.0 + alpha) / 2.0

    def ltvar(self, alpha: float) -> float:
        return alpha / 2.0

    def z_means(self, p) -> tuple[float, float]:
        pf = _p_float(p)
        return 1.0 / (2.0 - pf), 1.0 / (2.0 * (2.0 - pf))

    def describe(self) -> str:
        return "uniform"


class DiscreteMargin:
    """Margin supported on {0, 1, ..., n} with nonnegative pmf summing to one."""

    kind = "discrete"

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size < 1:
            raise ValueError("pmf must be a nonempty vector")
        if not np.isfinite(pmf).all():
            raise ValueError("pmf entries must be finite")
        if pmf.min() < -1e-12:
            raise ValueError(f"pmf entries must be nonnegative, min={pmf.min()}")
        total = pmf.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf must sum to 1 within 1e-12, got {total}")
        self._law = LatticeDistribution(pmf)
        self._law._cdf[-1] = 1.0  # the split cdfs below need F(n) = 1 exactly
        self.pmf = self._law.probs
        self.n = pmf.size - 1

    @classmethod
    def from_power_cdf(cls, a: float, c: float, n: int) -> "DiscreteMargin":
        """Margin with F(k) = 1 - a + a*(k/n)^c: an atom at zero and a power tail."""
        k = np.arange(n + 1, dtype=float)
        cdf = 1.0 - a + a * (k / n) ** c
        pmf = np.diff(cdf, prepend=0.0)
        return cls(pmf)

    @classmethod
    def point_mass(cls, k: int) -> "DiscreteMargin":
        pmf = np.zeros(k + 1)
        pmf[k] = 1.0
        return cls(pmf)

    @classmethod
    def bernoulli(cls, q: float) -> "DiscreteMargin":
        return cls(np.array([1.0 - q, q]))

    @property
    def _cdf(self) -> np.ndarray:
        """The cdf at 0..n, shared with the lattice law."""
        return self._law._cdf

    @property
    def mean(self) -> float:
        return self._law.mean()

    @property
    def var(self) -> float:
        return self._law.variance()

    def cdf(self, x):
        return self._law.cdf(x)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return np.searchsorted(self._cdf, u - 1e-12, side="left").astype(float)

    def quantile(self, alpha: float) -> float:
        return self._law.quantile(alpha)

    def es(self, alpha: float) -> float:
        return measures.es(self._law, alpha)

    def ltvar(self, alpha: float) -> float:
        """(1/a) * int_0^a VaR_u du by exact partial sums over the cdf jumps."""
        upper = np.minimum(self._cdf, alpha)
        lower = np.minimum(np.concatenate([[0.0], self._cdf[:-1]]), alpha)
        k = np.arange(self.n + 1)
        return float(np.dot(k, upper - lower)) / alpha

    def z_pmfs(self, p) -> ZPair:
        """Conditional pmfs of the split components, from the two mixed cdfs."""
        pf = _p_float(p)
        cdf = np.concatenate([[0.0], self._cdf])
        cdf0 = v0_cdf(cdf, pf)
        cdf1 = v0v1_cdf(cdf, pf)
        z0 = np.diff(cdf0)
        z1 = np.diff(cdf1)
        return ZPair(np.clip(z0, 0.0, None), np.clip(z1, 0.0, None), pf, self.pmf.copy())

    def z_means(self, p) -> tuple[float, float]:
        """E[Z0] = n - sum F_{V0}(F(k)), and likewise for Z1, closed sums."""
        pf = _p_float(p)
        body = self._cdf[:-1]
        e0 = self.n - float(np.sum(v0_cdf(body, pf)))
        e1 = self.n - float(np.sum(v0v1_cdf(body, pf)))
        return e0, e1

    def describe(self) -> str:
        return f"discrete:n={self.n}"


def _quad(f) -> float:
    """Integral of f over [0, 1] by adaptive quadrature; scipy.integrate, the one use of
    scipy (the ``quadrature`` extra), loads on the first call."""
    try:
        from scipy import integrate
    except ImportError as exc:
        raise ImportError("QuantileMargin moments need scipy: "
                          "pip install gfgm[quadrature]") from exc

    return integrate.quad(f, 0.0, 1.0, epsabs=1e-10)[0]


class QuantileMargin:
    """Generic margin defined by a quantile function; moments by quadrature."""

    kind = "quantile"

    def __init__(self, ppf, mean: float | None = None, var: float | None = None):
        self._ppf = ppf
        self._mean = mean
        self._var = var

    def ppf(self, u):
        return np.asarray(self._ppf(np.asarray(u, dtype=float)), dtype=float)

    @property
    def mean(self) -> float:
        if self._mean is None:
            object.__setattr__(self, "_mean", _quad(lambda u: float(self._ppf(u))))
        return self._mean

    @property
    def var(self) -> float:
        if self._var is None:
            m = self.mean
            object.__setattr__(self, "_var", _quad(lambda u: (float(self._ppf(u)) - m) ** 2))
        return self._var

    def z_means(self, p) -> tuple[float, float]:
        """Expectations of the split components by adaptive quadrature."""
        pf = _p_float(p)
        return (_quad(lambda u: float(self._ppf(u)) * float(v0_pdf(u, pf))),
                _quad(lambda u: float(self._ppf(u)) * float(v0v1_pdf(u, pf))))

    def describe(self) -> str:
        return "quantile"


Margin = ExponentialMargin | UniformMargin | DiscreteMargin | QuantileMargin


_NUMBER = (int, float, str), "a number"


def margin_from_json(obj: dict) -> Margin:
    def number(holder, key):
        return float(json_field(holder, key, *_NUMBER))

    kind = json_field(obj, "type", str, "a string")
    if kind == "exp":
        return ExponentialMargin(number(obj, "rate"))
    if kind == "uniform":
        return UniformMargin()
    if kind == "discrete":
        if "pmf" in obj:
            return DiscreteMargin([float(json_value(q, *_NUMBER, "each entry of 'pmf'"))
                                   for q in json_field(obj, "pmf", list, "a list")])
        power = json_field(obj, "power", dict, "an object")
        return DiscreteMargin.from_power_cdf(number(power, "a"), number(power, "c"),
                                             json_int(power, "n"))
    raise ValueError(f"unknown margin type {kind!r}")
