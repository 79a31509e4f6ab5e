"""Output checks that do not reuse the code path they check.

Every closed form here is computed from the margin's definition and the
conditional split of a GFGM coordinate (V0 ~ Beta(r, 1) with r = 1/(1-p)
when the indicator is 0, V0*V1 when it is 1), never from the library's own
split, aggregation or measure code:

* common p: mean, variance and log-mgf of the sum at each extremal point
  follow from the split moments and the point's two-point driver-sum pmf;
  VaR must lie inside the dependence-free bounds [d LTVaR, d ES] of the
  margin;
* heterogeneous p: the mgf and the second moment of the sum are linear in
  the driver pmf, so their extremes over the Bernoulli polytope are linear
  programs, solved here with HiGHS instead of vertex enumeration;
* allocation: the three full-allocation identities, the closed-form
  variance, and the expected shortfall of an independently assembled sum;
* the paper's cx-bounds-d100 cells at their published tolerances.

A failed check is "known" when it is one of the documented defects the
benchmark keeps on purpose (see KNOWN_REFERENCE_FAILURES and the FFT
entropic defect); any other failure makes the run incorrect.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import optimize, special

from workloads import CX_D100_MEASURES, PAPER_DISCRETE, PAPER_EXP_RATE

# cx-bounds-d100: (min ES, max ES, min entropic, max entropic) at alpha=0.95,
# gamma=0.001, d=100, as printed in the paper, with the paper's tolerances.
CX_D100 = {
    ("exp", "1/3"): (1191.2742, 1858.1846, 1003.9212, 1124.6343),
    ("exp", "1/2"): (1189.2721, 1702.8444, 1003.8215, 1125.0510),
    ("exp", "2/3"): (1192.3324, 1540.6192, 1003.9237, 1101.5259),
    ("discrete", "1/3"): (2152.595, 2858.955, 1555.710, 1888.303),
    ("discrete", "1/2"): (2122.718, 3448.241, 1551.957, 2216.540),
    ("discrete", "2/3"): (2019.207, 4440.057, 1546.627, 2843.312),
}
CX_D100_TOL = {"exp": 1e-2, "discrete": 5e-2}
# Printed cells that independent oracles show to be wrong in the paper.
KNOWN_REFERENCE_FAILURES = frozenset(
    {"exp/p=1/2/min es:0.95", "exp/p=1/2/min entropic:0.001", "discrete/p=2/3/min es:0.95"}
)
FFT_ENTROPIC = "fft-entropic"

_RTOL_STD = {"exp": 1e-7, "discrete": 1e-7, "uniform": 1e-4}
_RTOL_ENTROPIC = {"exp": 1e-7, "discrete": 1e-7, "uniform": 1e-5}
_SLACK = 1e-9


class Outcome:
    """Failed checks of one request."""

    def __init__(self):
        self.failures: list[tuple[str, str, str | None]] = []

    def expect(self, ok: bool, name: str, detail: str = "", known: str | None = None):
        if not ok:
            self.failures.append((name, detail, known))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


# ---------------------------------------------------------------- margins


def power_cdf(a: float, c: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    cdf = 1.0 - a + a * (k / n) ** c
    cdf[-1] = 1.0
    return cdf


class Lattice:
    """A pmf on {0..n}, with the tail quantities the checks need."""

    def __init__(self, pmf: np.ndarray):
        self.pmf = pmf
        self.k = np.arange(pmf.size, dtype=float)
        self.cdf = np.cumsum(pmf)

    @property
    def mean(self) -> float:
        return float(self.k @ self.pmf)

    @property
    def second(self) -> float:
        return float((self.k * self.k) @ self.pmf)

    def log_mgf(self, gamma: float) -> float:
        keep = self.pmf > 0
        return float(special.logsumexp(np.log(self.pmf[keep]) + gamma * self.k[keep]))

    def quantile(self, alpha: float) -> float:
        return float(np.searchsorted(self.cdf, alpha - 1e-12, side="left"))

    def es(self, alpha: float) -> float:
        v = self.quantile(alpha)
        return v + float(np.clip(self.k - v, 0.0, None) @ self.pmf) / (1.0 - alpha)

    def ltvar(self, alpha: float) -> float:
        upper = np.minimum(self.cdf, alpha)
        lower = np.minimum(np.concatenate([[0.0], self.cdf[:-1]]), alpha)
        return float(self.k @ (upper - lower)) / alpha


def discrete_split(cdf: np.ndarray, p: float) -> tuple[Lattice, Lattice]:
    """pmfs of F^-1(V0) and F^-1(V0 V1) from the cdfs of V0 and V0 V1."""
    r = 1.0 / (1.0 - p)
    ext = np.concatenate([[0.0], cdf])
    z0 = np.clip(np.diff(ext**r), 0.0, None)
    z1 = np.clip(np.diff(ext / p - ((1.0 - p) / p) * ext**r), 0.0, None)
    return Lattice(z0 / z0.sum()), Lattice(z1 / z1.sum())


class Split:
    """Mean, second moment and log-mgf of the two split components."""

    def __init__(self, m0, s0, lm0, m1, s1, lm1):
        self.m = (m0, m1)
        self.second = (s0, s1)
        self.log_mgf = (lm0, lm1)

    @classmethod
    def of_lattice(cls, cdf: np.ndarray, p: float, gamma: float) -> "Split":
        z0, z1 = discrete_split(cdf, p)
        return cls(z0.mean, z0.second, z0.log_mgf(gamma), z1.mean, z1.second, z1.log_mgf(gamma))

    def var(self, bit: int) -> float:
        return self.second[bit] - self.m[bit] ** 2


class Family:
    """Closed forms of one margin family under a common p."""

    def __init__(self, name: str):
        self.name = name
        self.rate = PAPER_EXP_RATE
        if name == "discrete":
            self.cdf = power_cdf(*PAPER_DISCRETE)
            self.lattice = Lattice(np.diff(self.cdf, prepend=0.0))

    def split(self, p: float, gamma: float) -> Split:
        if self.name == "discrete":
            return Split.of_lattice(self.cdf, p, gamma)
        if self.name == "exp":
            # Additive split X = W0 + I W1: W0 ~ Exp(rate/(1-p)), W1 ~ Exp(rate).
            beta, rate = self.rate / (1.0 - p), self.rate
            m0, v0 = 1.0 / beta, 1.0 / beta**2
            m1, v1 = m0 + 1.0 / rate, v0 + 1.0 / rate**2
            lm0 = math.log(beta / (beta - gamma))
            lm1 = lm0 + math.log(rate / (rate - gamma))
            return Split(m0, v0 + m0 * m0, lm0, m1, v1 + m1 * m1, lm1)
        # Uniform: E[V0^k] = r/(r+k) and E[V1^k] = 1/(k+1).
        r = 1.0 / (1.0 - p)
        terms = range(40)
        mgf0 = sum(gamma**k / math.factorial(k) * r / (r + k) for k in terms)
        mgf1 = sum(gamma**k / math.factorial(k) * r / (r + k) / (k + 1) for k in terms)
        return Split(r / (r + 1), r / (r + 2), math.log(mgf0), r / (2 * (r + 1)),
                     r / (3 * (r + 2)), math.log(mgf1))

    def mean(self) -> float:
        if self.name == "exp":
            return 1.0 / self.rate
        if self.name == "uniform":
            return 0.5
        return self.lattice.mean

    def ltvar(self, a: float) -> float:
        if self.name == "exp":
            return (a + (1.0 - a) * math.log1p(-a)) / (self.rate * a)
        if self.name == "uniform":
            return a / 2.0
        return self.lattice.ltvar(a)

    def es(self, a: float) -> float:
        if self.name == "exp":
            return (1.0 - math.log1p(-a)) / self.rate
        if self.name == "uniform":
            return (1.0 + a) / 2.0
        return self.lattice.es(a)


# ---------------------------------------------------------------- common p


class PointGrid:
    """Canonical order of the extremal points of the mean-dp class on {0..d}:
    pairs (k1 < dp < k2), k1 then k2 ascending, then the point at dp when
    dp is an integer.  Indices are 1-based, as in the labels rD<index>."""

    def __init__(self, d: int, p: Fraction):
        self.d, self.dp = d, d * p
        self.integral = self.dp.denominator == 1
        self.k1_top = math.ceil(self.dp) - 1
        self.k2_bot = math.floor(self.dp) + 1
        self.width = d - self.k2_bot + 1
        self.count = (self.k1_top + 1) * self.width + self.integral

    def support(self, index: int) -> tuple[tuple[int, float], ...]:
        k1, k2 = divmod(index - 1, self.width)
        if k1 > self.k1_top:
            return ((int(self.dp), 1.0),)
        k2 += self.k2_bot
        w1 = (k2 - self.dp) / (k2 - k1)
        return ((k1, float(w1)), (k2, float(1 - w1)))

    def convex_extremes(self) -> tuple[int, int]:
        """Indices of the convex-order minimum (mass next to dp) and maximum (mass on 0 and d)."""
        lo = self.count if self.integral else self.k1_top * self.width + 1
        return lo, self.width


def _moments_at(support, d: int, split: Split):
    mean = sum(w * ((d - k) * split.m[0] + k * split.m[1]) for k, w in support)
    second = 0.0
    for k, w in support:
        mu = (d - k) * split.m[0] + k * split.m[1]
        second += w * ((d - k) * split.var(0) + k * split.var(1) + mu * mu)
    log_mgf = special.logsumexp(
        [math.log(w) + (d - k) * split.log_mgf[0] + k * split.log_mgf[1] for k, w in support]
    )
    return mean, math.sqrt(max(second - mean * mean, 0.0)), float(log_mgf)


def _parse(label: str) -> tuple[str, float | None]:
    kind, _, param = label.partition(":")
    return kind, float(param) if param else None


def check_common(call: tuple, report, out: Outcome, fast: bool):
    family_name, d, p_text, measures = call
    p = Fraction(p_text)
    family = Family(family_name)
    grid = PointGrid(d, p)
    labels = report.point_labels
    if fast:
        want = [f"rD{i}" for i in grid.convex_extremes()]
        out.expect(labels == want, "convex-points", f"{labels} vs {want}")
    else:
        out.expect(len(labels) == grid.count, "point-count", f"{len(labels)} points")
    mean = d * family.mean()
    for label in measures:
        kind, param = _parse(label)
        values = report.values[label]
        split = family.split(float(p), param if kind == "entropic" else 0.0)
        fft_defect = None
        for lab, value in zip(labels, values):
            s_mean, s_std, log_mgf = _moments_at(grid.support(int(lab[2:])), d, split)
            where = f"{label}@{lab}"
            if kind == "std":
                out.expect(_close(value, s_std, _RTOL_STD[family_name]), "std-closed-form",
                           f"{where}: {value} vs {s_std}")
            elif kind == "entropic":
                want = log_mgf / param
                ok = _close(value, want, _RTOL_ENTROPIC[family_name])
                known = FFT_ENTROPIC if family_name == "discrete" and value > want else None
                fft_defect = fft_defect or (None if ok else known)
                out.expect(ok, "entropic-closed-form", f"{where}: {value} vs {want}", known)
                out.expect(value >= s_mean - 1e-6 * mean, "entropic-above-mean", where)
            elif kind == "es":
                out.expect(value >= s_mean - 1e-6 * mean, "es-above-mean", where)
                out.expect(value <= d * family.es(param) * (1 + _SLACK), "es-below-comonotone", where)
            else:
                lo, hi = d * family.ltvar(param), d * family.es(param)
                out.expect(lo * (1 - _SLACK) <= value <= hi * (1 + _SLACK), "var-in-frechet-bounds",
                           f"{where}: {value} outside [{lo}, {hi}]")
        # With the FFT defect the wrong values also break the ordering of the extrema.
        _check_extrema(report, label, out, fft_defect)
    if {_parse(m)[0] for m in measures} >= {"var", "es"}:
        a = [m for m in measures if m.startswith("var:")][0][4:]
        for v, e in zip(report.values[f"var:{a}"], report.values[f"es:{a}"]):
            out.expect(v <= e * (1 + _SLACK), "var-below-es", f"{v} > {e}")
    if fast and d == 100 and tuple(measures) == CX_D100_MEASURES:
        _check_reference(family_name, p_text, report, out)


def _check_extrema(report, label: str, out: Outcome, known: str | None = None):
    values = report.values[label]
    lo, hi = report.minima[label][0], report.maxima[label][0]
    out.expect(lo <= hi, "min-below-max", f"{label}: {lo} > {hi}", known)
    out.expect(lo == min(values) and hi == max(values), "extrema-of-values", label, known)


def _check_reference(family: str, p: str, report, out: Outcome):
    min_es, max_es, min_ent, max_ent = CX_D100[(family, p)]
    tol = CX_D100_TOL[family]
    cells = (
        ("min es:0.95", report.minima["es:0.95"][0], min_es),
        ("max es:0.95", report.maxima["es:0.95"][0], max_es),
        ("min entropic:0.001", report.minima["entropic:0.001"][0], min_ent),
        ("max entropic:0.001", report.maxima["entropic:0.001"][0], max_ent),
    )
    for cell, got, want in cells:
        key = f"{family}/p={p}/{cell}"
        known = "cx-bounds-d100" if key in KNOWN_REFERENCE_FAILURES else None
        out.expect(abs(got - want) <= tol, f"cx-bounds-d100:{key}", f"{got} vs {want}", known)


# ---------------------------------------------------------------- heterogeneous p


def _polytope_range(p: list[Fraction], objective: np.ndarray) -> tuple[float, float]:
    """min and max of sum_mask f(mask) c(mask) over the Bernoulli Fréchet class."""
    d = len(p)
    masks = np.arange(1 << d)
    bits = (masks[None, :] >> np.arange(d)[:, None]) & 1
    a_eq = np.vstack([bits, np.ones(1 << d)]).astype(float)
    b_eq = np.array([float(q) for q in p] + [1.0])
    out = []
    for sign in (1.0, -1.0):
        res = optimize.linprog(sign * objective, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                               method="highs")
        if res.status != 0:
            raise ArithmeticError(f"linear program failed: {res.message}")
        out.append(sign * res.fun)
    return out[0], out[1]


def _mask_moments(splits: list[Split], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per mask: conditional second moment and log-mgf of the sum."""
    n = 1 << d
    second, log_mgf = np.zeros(n), np.zeros(n)
    for mask in range(n):
        bits = [(mask >> j) & 1 for j in range(d)]
        mu = sum(s.m[b] for s, b in zip(splits, bits))
        second[mask] = sum(s.var(b) for s, b in zip(splits, bits)) + mu * mu
        log_mgf[mask] = sum(s.log_mgf[b] for s, b in zip(splits, bits))
    return second, log_mgf


def check_general(req: tuple, report, out: Outcome):
    _, pv, params, measures = req
    p = [Fraction(q) for q in pv]
    d = len(p)
    lattices = [Lattice(np.diff(power_cdf(*x), prepend=0.0)) for x in params]
    mean = sum(x.mean for x in lattices)
    for label in measures:
        kind, param = _parse(label)
        values = report.values[label]
        _check_extrema(report, label, out)
        lo, hi = report.minima[label][0], report.maxima[label][0]
        if kind in ("std", "entropic"):
            gamma = param if kind == "entropic" else 0.0
            splits = [Split.of_lattice(power_cdf(*x), float(q), gamma) for x, q in zip(params, p)]
            s_mask, l_mask = _mask_moments(splits, d)
            if kind == "std":
                s_lo, s_hi = _polytope_range(p, s_mask)
                want = (math.sqrt(s_lo - mean * mean), math.sqrt(s_hi - mean * mean))
            else:
                shift = l_mask.max()
                m_lo, m_hi = _polytope_range(p, np.exp(l_mask - shift))
                want = ((shift + math.log(m_lo)) / gamma, (shift + math.log(m_hi)) / gamma)
            known = FFT_ENTROPIC if kind == "entropic" and max(lo, hi) > max(want) else None
            out.expect(_close(lo, want[0], 1e-7) and _close(hi, want[1], 1e-7),
                       f"{kind}-polytope-range", f"{label}: [{lo}, {hi}] vs {want}", known)
        elif kind == "var":
            v_lo = sum(x.ltvar(param) for x in lattices)
            v_hi = sum(x.es(param) for x in lattices)
            out.expect(all(v_lo - 1e-6 <= v <= v_hi + 1e-6 for v in values), "var-in-frechet-bounds",
                       f"{label}: [{lo}, {hi}] vs [{v_lo}, {v_hi}]")
        else:
            cap = sum(x.es(param) for x in lattices)
            out.expect(all(mean - 1e-6 <= v <= cap + 1e-6 for v in values), "es-in-bounds",
                       f"{label}: [{lo}, {hi}] vs [{mean}, {cap}]")


def check_general_mc(req: tuple, report, out: Outcome):
    """Sampling error allows only sanity bounds; 5% covers it at the sample size used."""
    _, pv, rates, measures, _ = req
    mean = sum(1.0 / r for r in rates)
    sd_cap = mean  # Std(S) <= sum of the margins' Std, and an exp margin's Std is its mean
    for label in measures:
        kind, param = _parse(label)
        _check_extrema(report, label, out)
        values = report.values[label]
        if kind == "std":
            out.expect(all(0 < v <= 1.05 * sd_cap for v in values), "std-in-bounds", label)
        elif kind in ("es", "entropic"):
            out.expect(all(v >= 0.95 * mean for v in values), f"{kind}-above-mean", label)
        if kind == "es":
            cap = sum((1.0 - math.log1p(-param)) / r for r in rates)
            out.expect(all(v <= 1.05 * cap for v in values), "es-below-comonotone", label)
    a = [m for m in measures if m.startswith("var:")][0][4:]
    for v, e in zip(report.values[f"var:{a}"], report.values[f"es:{a}"]):
        out.expect(v <= e * (1 + _SLACK), "var-below-es", f"{v} > {e}")


# ---------------------------------------------------------------- allocation


def _driver_atoms(req: tuple) -> list[tuple[int, float]]:
    _, kind, d, spec = req[:4]
    if kind == "atoms":
        total = sum(w for _, w in spec)
        return [(m, w / total) for m, w in spec]
    grid = PointGrid(d, Fraction(spec))  # the exchangeable driver of the convex-order minimum
    weights = dict(grid.support(grid.convex_extremes()[0]))
    return [
        (m, weights[m.bit_count()] / math.comb(d, m.bit_count()))
        for m in range(1 << d)
        if m.bit_count() in weights
    ]


def atom_count(req: tuple) -> int:
    return len(_driver_atoms(req))


def check_allocation(req: tuple, rep, out: Outcome):
    _, _, d, _, params, alpha = req
    atoms = _driver_atoms(req)
    p = [sum(w for m, w in atoms if (m >> j) & 1) for j in range(d)]
    cdfs = [power_cdf(*x) for x in params]
    margins = [Lattice(np.diff(c, prepend=0.0)) for c in cdfs]
    splits = [discrete_split(c, q) for c, q in zip(cdfs, p)]

    # Closed-form variance from pairwise indicator covariances.
    gaps = [z1.mean - z0.mean for z0, z1 in splits]
    var = sum(x.second - x.mean**2 for x in margins)
    for a in range(d):
        for b in range(a + 1, d):
            joint = sum(w for m, w in atoms if (m >> a) & 1 and (m >> b) & 1)
            var += 2.0 * (joint - p[a] * p[b]) * gaps[a] * gaps[b]
    out.expect(_close(rep.std_s, math.sqrt(var), 1e-7), "std-closed-form",
               f"{rep.std_s} vs {math.sqrt(var)}")

    # Sum law assembled atom by atom with a plain FFT mixture.
    size = sum(x.pmf.size - 1 for x in margins) + 1
    length = 1 << (size - 1).bit_length()
    hats = [(np.fft.rfft(z0.pmf, length), np.fft.rfft(z1.pmf, length)) for z0, z1 in splits]
    spectrum = np.zeros(length // 2 + 1, dtype=complex)
    for mask, w in atoms:
        term = np.full(length // 2 + 1, w, dtype=complex)
        for j in range(d):
            term *= hats[j][(mask >> j) & 1]
        spectrum += term
    pmf = np.clip(np.fft.irfft(spectrum, length)[:size], 0.0, None)
    law = Lattice(pmf / pmf.sum())
    out.expect(_close(rep.es_s, law.es(alpha), 1e-7), "es-independent-sum",
               f"{rep.es_s} vs {law.es(alpha)}")
    out.expect(rep.var_s == law.quantile(alpha), "var-independent-sum",
               f"{rep.var_s} vs {law.quantile(alpha)}")

    out.expect(_close(sum(rep.ces), rep.es_s, 1e-8), "ces-additivity", f"{sum(rep.ces)} vs {rep.es_s}")
    out.expect(_close(sum(rep.cstd), rep.std_s, 1e-8), "cstd-additivity",
               f"{sum(rep.cstd)} vs {rep.std_s}")
    out.expect(_close(sum(rep.var_contributions), rep.var_s, 1e-6), "var-contribution-additivity",
               f"{sum(rep.var_contributions)} vs {rep.var_s}")


def known_exception(req: tuple, exc: Exception) -> str | None:
    """The engine's own convex check trips on values the FFT entropic defect corrupted."""
    if (req[0] == "common" and req[1] == "discrete" and type(exc).__name__ == "ConvexBoundViolation"
            and str(exc).startswith("entropic:")):
        return FFT_ENTROPIC
    return None


def check(req: tuple, results: list) -> Outcome:
    """Checks of one request's replies, one reply per library call."""
    out = Outcome()
    kind = req[0]
    if kind == "convex":
        for call, report in zip(req[1], results, strict=True):
            check_common(call, report, out, fast=True)
    elif kind == "common":
        check_common(req[1:], results[0], out, fast=False)
    elif kind == "general":
        check_general(req, results[0], out)
    elif kind == "general-mc":
        check_general_mc(req, results[0], out)
    else:
        check_allocation(req, results[0], out)
    return out
