"""Generalized FGM copulas: evaluation, dependence summaries and sampling.

A spec is a margin-parameter vector p together with a driving Bernoulli
distribution whose margins are exactly p.  The copula is the joint cdf of

    U_j = U0_j^(1 - p_j) * U1_j^(I_j),

with U0, U1 independent uniform vectors independent of I.  Two evaluation
routes are provided and cross-checked in the tests: the explicit expansion in
the dependence coefficients nu, and the conditional mixture over the driver
(``Driver.mix``).  Sampling uses the stochastic representation directly
(inverse transforms only, Philox counter-based streams), so output is
reproducible given the seed and sample counts are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import math

import numpy as np

from .bernoulli import nu_coefficients
from .drivers import DenseDriver, Driver, ExchangeableDriver, as_driver
from .margins import Margin, v0_cdf, v0v1_cdf


def conditional_cdfs(p_j):
    """The two conditional cdfs of U_j given I_j = 0 and I_j = 1.

    F0(u) = u^(1/(1-p)) and F1(u) = u/p - ((1-p)/p) u^(1/(1-p)); they satisfy
    p*F1 + (1-p)*F0 = identity on [0,1].
    """
    return (lambda u: v0_cdf(u, p_j)), (lambda u: v0v1_cdf(u, p_j))


@dataclass(frozen=True)
class GfgmSpec:
    """Dimension, margin parameters and driving Bernoulli distribution."""

    p: tuple[Fraction, ...]
    driver: Driver

    def __post_init__(self):
        from .bernoulli import margin_vector

        pv = margin_vector(self.p)
        driver = as_driver(self.driver)
        if driver.d != pv.d:
            raise ValueError(f"driver dimension {driver.d} != margin vector length {pv.d}")
        if driver.margins() != pv.probs:
            raise ValueError("driver margins do not match the parameter vector p")
        object.__setattr__(self, "p", pv.probs)
        object.__setattr__(self, "driver", driver)

    @property
    def d(self) -> int:
        return len(self.p)

    @classmethod
    def common(cls, p, driver) -> "GfgmSpec":
        driver = as_driver(driver)
        from .bernoulli import as_fraction

        return cls((as_fraction(p),) * driver.d, driver)

    def b(self, j: int) -> Fraction:
        """Shape parameter b_j = p_j / (1 - p_j)."""
        pj = self.p[j - 1]
        return pj / (1 - pj)

    @cached_property
    def _nu(self) -> dict[tuple[int, ...], Fraction]:
        if isinstance(self.driver, ExchangeableDriver) and self.d > 20:
            raise ValueError("nu expansion unavailable: driver atoms would not fit")
        from .bernoulli import BernoulliPmf

        if isinstance(self.driver, DenseDriver):
            return nu_coefficients(self.driver.pmf, self.p)
        # Sparse and exchangeable drivers share the atom route.
        atoms = self.driver.atoms()
        values = [Fraction(0)] * (1 << self.d)
        for m, w in atoms:
            values[m] += w
        return nu_coefficients(BernoulliPmf(self.d, tuple(values)), self.p)

    def cov_indicators(self, j1: int, j2: int) -> Fraction:
        """Cov(I_j1, I_j2), exact."""
        if not 1 <= j1 < j2 <= self.d:
            raise IndexError(f"need 1 <= j1 < j2 <= {self.d}")
        return self.driver.pair_joint11(j1, j2) - self.p[j1 - 1] * self.p[j2 - 1]

    def to_json(self) -> dict:
        from .bernoulli import format_fraction

        return {"p": [format_fraction(q) for q in self.p], "driver": self.driver.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "GfgmSpec":
        from .bernoulli import as_fraction
        from .drivers import driver_from_json

        return cls(tuple(as_fraction(q) for q in obj["p"]), driver_from_json(obj["driver"]))


def _check_cube(u: np.ndarray, d: int):
    if u.shape[-1] != d:
        raise ValueError(f"points must have {d} coordinates, got shape {u.shape}")
    if (u < 0).any() or (u > 1).any():
        raise ValueError("points must lie inside the unit cube")


def copula_cdf(spec: GfgmSpec, u, method: str = "auto") -> np.ndarray | float:
    """Copula cdf at one point (shape (d,)) or a batch (shape (m, d)).

    ``method`` selects the evaluation route: "mixture" conditions on the
    driver, mixing products of the conditional cdfs with ``Driver.mix``
    (cost proportional to the atom count, or O(d^2) for an exchangeable
    driver), "nu" uses the coefficient expansion (small d), "auto" prefers
    the mixture.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 1
    pts = np.atleast_2d(u)
    _check_cube(pts, spec.d)
    if method not in ("auto", "mixture", "nu"):
        raise ValueError(f"unknown method {method!r}")

    if method == "nu":
        out = _cdf_nu(spec, pts)
    else:
        f0, f1 = _conditional_values(spec, pts)
        out = spec.driver.mix(f0.T, f1.T)
    return float(out[0]) if scalar else out


def _conditional_values(spec: GfgmSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.array([float(q) for q in spec.p])
    f0 = np.power(pts, 1.0 / (1.0 - p))
    f1 = pts / p - ((1.0 - p) / p) * f0
    return f0, f1


def _cdf_nu(spec: GfgmSpec, pts: np.ndarray) -> np.ndarray:
    b = np.array([float(spec.b(j)) for j in range(1, spec.d + 1)])
    base = np.prod(pts, axis=1)
    one_minus = 1.0 - np.power(pts, b)
    series = np.ones(pts.shape[0])
    for subset, nu in spec._nu.items():
        if nu == 0:
            continue
        term = float(nu) * np.ones(pts.shape[0])
        for j in subset:
            term = term * one_minus[:, j - 1]
        series += term
    return base * series


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_u(spec: GfgmSpec, n: int, seed: int = 0) -> np.ndarray:
    """n iid draws of the uniform vector U = U0^(1-p) * U1^I.

    Deterministic given the seed: indicators are drawn first, then U0,
    then U1, from a Philox stream keyed by the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = _rng(seed)
    ind = spec.driver.sample_indicators(rng, n)
    u0 = rng.random((n, spec.d))
    u1 = rng.random((n, spec.d))
    p = np.array([float(q) for q in spec.p])
    return np.power(u0, 1.0 - p) * np.where(ind == 1, u1, 1.0)


def sample_x(spec: GfgmSpec, margins: list[Margin], n: int, seed: int = 0) -> np.ndarray:
    """Sample the coupled vector with the given margins (quantile transform)."""
    if len(margins) != spec.d:
        raise ValueError(f"need {spec.d} margins, got {len(margins)}")
    for margin in margins:
        if not hasattr(margin, "ppf"):
            raise ValueError(f"margin {margin!r} does not expose a quantile function")
    u = sample_u(spec, n, seed)
    cols = [np.asarray(margins[j].ppf(u[:, j]), dtype=float) for j in range(spec.d)]
    return np.column_stack(cols)


def spearman_rho(spec: GfgmSpec, j1: int, j2: int) -> float:
    """Spearman correlation of a continuous-margin pair: 3 Cov(I,I')/((2-p)(2-p'))."""
    cov = spec.cov_indicators(j1, j2)
    denom = (2 - spec.p[j1 - 1]) * (2 - spec.p[j2 - 1])
    return float(3 * cov / denom)


def spearman_bounds(p1, p2) -> tuple[float, float]:
    """Sharp Spearman range for the pair, from the covariance bounds."""
    from .bernoulli import as_fraction, covariance_bounds

    a, b = as_fraction(p1), as_fraction(p2)
    lo, hi = covariance_bounds([a, b], 1, 2)
    denom = (2 - a) * (2 - b)
    return float(3 * lo / denom), float(3 * hi / denom)


def margin_gap_product(margins: list[Margin], p, j1: int, j2: int) -> float:
    """(E[Z1]-E[Z0]) factor product entering the covariance of a coupled pair."""
    e0a, e1a = margins[j1 - 1].z_means(p[j1 - 1])
    e0b, e1b = margins[j2 - 1].z_means(p[j2 - 1])
    return (e1a - e0a) * (e1b - e0b)


def pearson_x(spec: GfgmSpec, margins: list[Margin], j1: int, j2: int) -> float:
    """Pearson correlation of the coupled pair (X_j1, X_j2).

    Cov(X_j1, X_j2) = Cov(I_j1, I_j2) * (E[Z1]-E[Z0])(E[Z1']-E[Z0']), then
    standardized by the margin standard deviations.
    """
    var1, var2 = margins[j1 - 1].var, margins[j2 - 1].var
    if not (np.isfinite(var1) and np.isfinite(var2)) or var1 <= 0 or var2 <= 0:
        raise ValueError("pearson correlation needs finite positive margin variances")
    gamma = margin_gap_product(margins, spec.p, j1, j2)
    return float(spec.cov_indicators(j1, j2)) * gamma / math.sqrt(var1 * var2)
