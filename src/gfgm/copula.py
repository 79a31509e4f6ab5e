"""Generalized FGM copulas: evaluation, dependence summaries and sampling.

A spec is a margin-parameter vector p together with a driving Bernoulli
distribution whose margins are exactly p.  The copula is the joint cdf of

    U_j = U0_j^(1 - p_j) * U1_j^(I_j),

with U0, U1 independent uniform vectors independent of I.  Two evaluation
routes are provided and cross-checked in the tests: the explicit expansion in
the dependence coefficients nu, and the conditional mixture over the driver,
``Driver.mix`` of the split cdfs ``margins.v0_cdf`` (given I_j = 0) and
``margins.v0v1_cdf`` (given I_j = 1).  Sampling uses the stochastic
representation directly (inverse transforms only, Philox counter-based
streams), so output is reproducible given the seed and sample counts are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import math

import numpy as np

from .bernoulli import (BernoulliPmf, _check_nu_dim, as_fraction, covariance_bounds,
                        format_fraction, json_field, json_rationals, margin_vector,
                        nu_coefficients)
from .drivers import (Driver, ExchangeableDriver, as_driver, atom_cuts, atom_uniforms,
                      driver_from_json)
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
        return cls((as_fraction(p),) * driver.d, driver)

    def b(self, j: int) -> Fraction:
        """Shape parameter b_j = p_j / (1 - p_j)."""
        pj = self.p[j - 1]
        return pj / (1 - pj)

    @cached_property
    def _nu(self) -> dict[tuple[int, ...], Fraction]:
        _check_nu_dim(self.d)  # before the 2^d dense expansion below
        values = [Fraction(0)] * (1 << self.d)
        for m, w in self.driver.atoms():
            values[m] += w
        return nu_coefficients(BernoulliPmf(self.d, tuple(values)), self.p)

    def cov_indicators(self, j1: int, j2: int) -> Fraction:
        """Cov(I_j1, I_j2), exact."""
        if not 1 <= j1 < j2 <= self.d:
            raise IndexError(f"need 1 <= j1 < j2 <= {self.d}")
        return self.driver.pair_joint11(j1, j2) - self.p[j1 - 1] * self.p[j2 - 1]

    def to_json(self) -> dict:
        return {"p": [format_fraction(q) for q in self.p], "driver": self.driver.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "GfgmSpec":
        return cls(json_rationals(obj, "p"), driver_from_json(json_field(obj, "driver", dict,
                                                                        "an object")))


def _check_cube(u: np.ndarray, d: int):
    if u.shape[-1] != d:
        raise ValueError(f"points must have {d} coordinates, got shape {u.shape}")
    if (u < 0).any() or (u > 1).any():
        raise ValueError("points must lie inside the unit cube")


def copula_cdf(spec: GfgmSpec, u, method: str = "mixture") -> np.ndarray | float:
    """Copula cdf at one point (shape (d,)) or a batch (shape (m, d)).

    ``method`` selects the evaluation route: "mixture" conditions on the
    driver, mixing products of the conditional cdfs with ``Driver.mix``
    (cost proportional to the atom count, or O(d^2) for an exchangeable
    driver), "nu" uses the coefficient expansion (small d).
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 1
    pts = np.atleast_2d(u)
    _check_cube(pts, spec.d)
    if method not in ("mixture", "nu"):
        raise ValueError(f"unknown method {method!r}")

    if method == "nu":
        out = _cdf_nu(spec, pts)
    else:
        p = np.array([float(q) for q in spec.p])  # one parameter per column of pts
        out = spec.driver.mix(v0_cdf(pts, p).T, v0v1_cdf(pts, p).T)
    return float(out[0]) if scalar else out


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


_ROW_BLOCK = 1 << 16  # rows per block of U1 and of the quantile transforms


def _row_blocks(n: int):
    for start in range(0, n, _ROW_BLOCK):
        yield slice(start, min(start + _ROW_BLOCK, n))


def _uniforms(rng: np.random.Generator, n: int, p):
    """What follows the indicators in a sampler's stream: U0 as (n, d), returned raised
    to 1 - p, and a generator that draws U1 as (n, d) in row blocks, the same numbers as
    one draw, yielding each block with its rows."""
    u0 = rng.random((n, len(p)))
    u0 **= 1.0 - np.array([float(q) for q in p])
    return u0, ((rows, rng.random((rows.stop - rows.start, len(p)))) for rows in _row_blocks(n))


def sample_u(spec: GfgmSpec, n: int, seed: int = 0) -> np.ndarray:
    """n iid draws of the uniform vector U = U0^(1-p) * U1^I.

    Deterministic given the seed: indicators are drawn first, then U0,
    then U1, from a Philox stream keyed by the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = _rng(seed)
    ind = spec.driver.sample_indicators(rng, n)
    u, u1_blocks = _uniforms(rng, n, spec.p)
    for rows, u1 in u1_blocks:
        np.copyto(u1, 1.0, where=ind[rows] != 1)  # U1^I, in place
        u[rows] *= u1
    return u


def _check_quantile_margins(margins: list[Margin], d: int) -> None:
    if len(margins) != d:
        raise ValueError(f"need {d} margins, got {len(margins)}")
    for margin in margins:
        if not hasattr(margin, "ppf"):
            raise ValueError(f"margin {margin!r} does not expose a quantile function")


def sample_x(spec: GfgmSpec, margins: list[Margin], n: int, seed: int = 0) -> np.ndarray:
    """Sample the coupled vector with the given margins (quantile transform)."""
    _check_quantile_margins(margins, spec.d)
    u = sample_u(spec, n, seed)
    cols = [np.asarray(margins[j].ppf(u[:, j]), dtype=float) for j in range(spec.d)]
    return np.column_stack(cols)


class SharedDraw:
    """One draw of the coupled vector for every dense or sparse driver with margins p.

    U0 and U1 do not depend on the driver, and the uniforms V that pick a driver's atom
    come first in the stream, whatever the atoms.  So one draw holds V, sorted, and the
    columns ``x0_j = F_j^-1(U0_j^(1-p_j))`` and ``x1_j = F_j^-1(U0_j^(1-p_j) U1_j)`` with
    their rows in V order, and each atom of a driver owns one contiguous slice of rows.
    ``sums(driver)`` is then ``sample_x(GfgmSpec(p, driver), margins, n, seed).sum(axis=1)``
    up to the order of its rows, bit for bit: common random numbers across drivers.
    The draw holds 2 d + 1 floats a row; U0 and U1 are freed once the columns exist.
    """

    def __init__(self, p, margins: list[Margin], n: int, seed: int = 0):
        self.p = margin_vector(p).probs
        d = len(self.p)
        _check_quantile_margins(margins, d)
        if n < 2:
            raise ValueError("need n >= 2 draws")
        self.n = n
        rng = _rng(seed)
        v = atom_uniforms(rng, n)
        order = np.argsort(v)
        self._v = v[order]
        del v
        u, u1_blocks = _uniforms(rng, n, self.p)
        self._x = np.empty((2, d, n))  # _x[bit, j] is column j given I_j = bit
        self._quantiles(0, u, order, margins)
        for rows, u1 in u1_blocks:
            u[rows] *= u1
        self._quantiles(1, u, order, margins)

    def _quantiles(self, bit: int, u: np.ndarray, order: np.ndarray, margins) -> None:
        for rows in _row_blocks(self.n):
            block = u[order[rows]]  # strided columns, as ``sample_x`` passes them
            for j, margin in enumerate(margins):
                self._x[bit, j, rows] = margin.ppf(block[:, j])

    def sums(self, driver) -> np.ndarray:
        """Row sums of the draw under the driver: its atoms' slices, summed column by
        column in the order of ``sum(axis=1)`` (left to right below 8 columns)."""
        if isinstance(driver, ExchangeableDriver):  # its stream draws positions after V
            raise ValueError("a shared draw serves dense and sparse drivers only")
        if driver.margins() != self.p:
            raise ValueError("driver margins do not match the parameter vector p")
        atoms = driver.atoms()
        cuts = atom_cuts([float(w) for _, w in atoms], self._v)
        out = np.empty(self.n)
        for (mask, _), start, stop in zip(atoms, np.concatenate([[0], cuts[:-1]]), cuts):
            rows = slice(start, stop)
            out[rows] = self._x[mask & 1, 0, rows]
            for j in range(1, self._x.shape[1]):
                out[rows] += self._x[(mask >> j) & 1, j, rows]
        return out


def spearman_rho(spec: GfgmSpec, j1: int, j2: int) -> float:
    """Spearman correlation of a continuous-margin pair: 3 Cov(I,I')/((2-p)(2-p'))."""
    cov = spec.cov_indicators(j1, j2)
    denom = (2 - spec.p[j1 - 1]) * (2 - spec.p[j2 - 1])
    return float(3 * cov / denom)


def spearman_bounds(p1, p2) -> tuple[float, float]:
    """Sharp Spearman range for the pair, from the covariance bounds."""
    a, b = as_fraction(p1), as_fraction(p2)
    lo, hi = covariance_bounds([a, b], 1, 2)
    denom = (2 - a) * (2 - b)
    return float(3 * lo / denom), float(3 * hi / denom)


def pearson_x(spec: GfgmSpec, margins: list[Margin], j1: int, j2: int) -> float:
    """Pearson correlation of the coupled pair (X_j1, X_j2).

    Cov(X_j1, X_j2) = Cov(I_j1, I_j2) * (E[Z1]-E[Z0])(E[Z1']-E[Z0']), then
    standardized by the margin standard deviations.
    """
    var1, var2 = margins[j1 - 1].var, margins[j2 - 1].var
    if not (np.isfinite(var1) and np.isfinite(var2)) or var1 <= 0 or var2 <= 0:
        raise ValueError("pearson correlation needs finite positive margin variances")
    e0a, e1a = margins[j1 - 1].z_means(spec.p[j1 - 1])
    e0b, e1b = margins[j2 - 1].z_means(spec.p[j2 - 1])
    gamma = (e1a - e0a) * (e1b - e0b)
    return float(spec.cov_indicators(j1, j2)) * gamma / math.sqrt(var1 * var2)
