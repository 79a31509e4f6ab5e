"""Capital decomposition for discrete portfolios under GFGM dependence.

Everything is driven by the expected-allocation vectors E[X_j 1{S=y}]:
conditioning on the driver makes the coordinates independent, so the
vector's spectrum is the driver's mixture (``Driver.mix``) of the same
products as the law of S, with coordinate j's split spectra replaced by
their size-biased versions (transforms of k P(Z=k)).  That is d + 1 mixtures
over spectra computed once.

The three full-allocation identities,

    sum_j E[X_j 1{S=y}] = y P(S=y),
    sum_j CES_a(X_j, S) = ES_a(S),
    sum_j CStd(X_j, S)  = Std(S),

hold by construction and are verified in the tests at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import _ifft_pmf, _portfolio_lattice, split_spectra
from .distributions import LatticeDistribution
from .drivers import as_driver
from .margins import DiscreteMargin
from .measures import es as es_measure

# The transforms of S are exact to about 1e-15 absolute, so a mass below this
# floor cannot be told apart from FFT round-off and is treated as zero.
_ROUNDOFF_FLOOR = 1e-12


def expected_allocation_all(driver, margins) -> tuple[np.ndarray, LatticeDistribution]:
    """All allocation vectors E[X_j 1{S=y}] plus the aggregate law of S.

    Returns a (d, m+1) array over the lattice of S and the matching
    LatticeDistribution.
    """
    if not all(isinstance(m, DiscreteMargin) for m in margins):
        raise ValueError(
            "allocation is exact for discrete margins only; discretize or sample "
            "continuous margins explicitly"
        )
    driver = as_driver(driver)
    size, length = _portfolio_lattice(margins, driver)
    p = driver.margins()
    z0, z1 = split_spectra(margins, p, length)
    agg = LatticeDistribution(_ifft_pmf(driver.mix(z0, z1), length, size))
    s0, s1 = split_spectra(margins, p, length, weight=np.arange(length))
    a, b = z0.copy(), z1.copy()
    alloc_hat = []
    for j in range(driver.d):
        a[j], b[j] = s0[j], s1[j]
        alloc_hat.append(driver.mix(a, b))
        a[j], b[j] = z0[j], z1[j]
    alloc = np.fft.irfft(np.array(alloc_hat), n=length)[:, :size]
    return np.clip(alloc, 0.0, None), agg


def expected_allocation(j: int, driver, margins) -> np.ndarray:
    """E[X_j 1{S=y}] over the lattice of S, for 1-based risk j."""
    alloc, _ = expected_allocation_all(driver, margins)
    return alloc[j - 1]


def expected_contribution(j: int, driver, margins, y: int) -> float:
    """E[X_j | S=y]; contributions across j sum to y."""
    alloc, agg = expected_allocation_all(driver, margins)
    prob = agg.probs[y] if 0 <= y < agg.probs.size else 0.0
    if prob < _ROUNDOFF_FLOOR:
        raise ValueError(f"P(S={y}) = 0 up to FFT round-off: conditional contribution undefined")
    return float(alloc[j - 1][y] / prob)


def _ces_from_alloc(alloc: np.ndarray, agg: LatticeDistribution, means, alpha: float):
    v = int(agg.quantile(alpha))
    cdf_v = float(agg.cdf(v))
    atom = float(agg.probs[v])
    beta_s = (cdf_v - alpha) / atom if atom > 0 else 0.0
    ces = []
    for j in range(alloc.shape[0]):
        below = float(alloc[j][: v + 1].sum())
        at = float(alloc[j][v])
        ces.append((means[j] - below + beta_s * at) / (1.0 - alpha))
    return ces, beta_s, v


def ces_alpha(j: int, driver, margins, alpha: float) -> float:
    """Euler expected-shortfall contribution of risk j (1-based)."""
    alloc, agg = expected_allocation_all(driver, margins)
    means = [m.mean for m in margins]
    ces, _, _ = _ces_from_alloc(alloc, agg, means, alpha)
    return ces[j - 1]


def _cov_matrix(driver, margins):
    driver = as_driver(driver)
    d = driver.d
    p = driver.margins()
    gaps = []
    for jj in range(d):
        e0, e1 = margins[jj].z_means(p[jj])
        gaps.append(e1 - e0)
    cov = np.zeros((d, d))
    for a in range(d):
        cov[a, a] = margins[a].var
        for b in range(a + 1, d):
            cov_i = float(driver.pair_joint11(a + 1, b + 1) - p[a] * p[b])
            cov[a, b] = cov[b, a] = cov_i * gaps[a] * gaps[b]
    return cov


def cstd(j: int, driver, margins) -> float:
    """Euler standard-deviation contribution Cov(X_j, S)/Std(S) of risk j."""
    cov = _cov_matrix(driver, margins)
    var_s = float(cov.sum())
    if var_s <= 0:
        raise ValueError("degenerate portfolio: Std(S) = 0")
    return float(cov[j - 1].sum()) / np.sqrt(var_s)


@dataclass
class AllocationReport:
    """Per-risk contributions with the diagnostics needed to audit additivity."""

    alpha: float
    var_s: float
    es_s: float
    std_s: float
    beta_s: float
    var_contributions: list[float]  # E[X_j | S = VaR_a(S)]
    ces: list[float]
    cstd: list[float]

    def to_rows(self) -> list[dict]:
        return [
            {
                "risk": j + 1,
                "var_contribution": self.var_contributions[j],
                "ces": self.ces[j],
                "cstd": self.cstd[j],
            }
            for j in range(len(self.ces))
        ]


def allocation_report(driver, margins, alpha: float) -> AllocationReport:
    """Full decomposition at one level: VaR conditioning, Euler ES, Euler Std."""
    driver = as_driver(driver)
    alloc, agg = expected_allocation_all(driver, margins)
    means = [m.mean for m in margins]
    ces, beta_s, v = _ces_from_alloc(alloc, agg, means, alpha)
    atom = float(agg.probs[v])
    var_contrib = [float(alloc[j][v] / atom) if atom > 0 else float("nan") for j in range(driver.d)]
    cov = _cov_matrix(driver, margins)
    std_s = float(np.sqrt(cov.sum()))
    cstd_values = [float(cov[j].sum()) / std_s for j in range(driver.d)]
    return AllocationReport(
        alpha=alpha,
        var_s=float(v),
        es_s=es_measure(agg, alpha),
        std_s=std_s,
        beta_s=beta_s,
        var_contributions=var_contrib,
        ces=ces,
        cstd=cstd_values,
    )
