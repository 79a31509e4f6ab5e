"""Distribution of the aggregate sum under GFGM dependence.

For a common margin, given driver sum k the aggregate is the sum of d-k
copies of the split component Z0 and k copies of Z1, with law L_k; under a
driver-sum pmf g the sum's law is the mixture sum_k g(k) L_k.
``ConditionalLaws`` builds each row L_k once per call and measures or mixes
rows, or mixes the spectra of a few points (the convex fast path) instead:

* discrete margins: L_k is a lattice pmf, the inverse FFT of
  Z0hat^(d-k) Z1hat^k, with powers by repeated squaring,
* uniform margins: the two split densities are lumped mean-preservingly on a
  step grid, and L_k is built the same way,
* exponential margins: L_k is a mixed Erlang law; each exponential factor
  below the base rate expands as a geometric compound, giving
  negative-binomial stage weights (numerically stable at high dimension,
  unlike partial fractions with alternating signs).  ``_stage_weights``
  builds them by a ratio recurrence, cut where the negative-binomial tail
  falls to 1e-15 (``_stage_tail_root``); a row over 2^20 stages (p near 1)
  is refused before it is built.

The split components Z0 and Z1 (or their grid lumps) are held as
``LatticeDistribution`` objects in lattice steps, and the mixed law of S is
one too (``GridDistribution`` on the uniform grid).  Its log-mgf and
variance come in closed form from the split laws' own log-mgfs and moments,
so FFT round-off in the far tail, which e^{gamma x} would amplify, never
reaches the entropic measure.  Exponential margins split additively into
Z0 ~ Exp(beta) and Z1 = Z0 + Exp(rate), beta = rate/(1-p), whose log-mgfs
and moments are closed forms, so their entropic measure and variance never
see the truncated stage weights either; gamma >= rate is refused, since
E e^{gamma S} is then infinite.  Heterogeneous discrete margins need the whole
driver, not just its sum: ``SplitTable`` holds their per-coordinate split
laws, and the law of S is the inverse FFT of ``Driver.mix`` over the split
spectra, with the log-mgf and variance again in closed form.  The same table
gives the covariance matrix and mixes the Euler allocation vectors itself.
"""

from __future__ import annotations

import bisect
import math
import mmap
from functools import cache, cached_property, partial

import numpy as np

from .distributions import (_CDF_SLACK, LatticeDistribution, MixedErlangDistribution,
                            _normalized, log_mean_exp)
from .drivers import DriverStack, as_driver
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
_STAGE_ROW_NODES = 1 << 20
_BLOCK_NODES = 1 << 16  # survival nodes of a block of streamed rows: 0.5 MB


@cache
def _smooth_numbers(bits: int) -> list[int]:
    """The numbers 2^a 3^b 5^c up to 2^bits, sorted."""
    odd = [m for m in (3**b * 5**c for b in range(bits + 1) for c in range(bits + 1))
           if m <= 1 << bits]
    return sorted(m << a for m in odd for a in range(((1 << bits) // m).bit_length()))


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, as ``scipy.fft.next_fast_len(n, real=True)`` gives it."""
    numbers = _smooth_numbers((n - 1).bit_length())
    return numbers[bisect.bisect_left(numbers, n)]


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


def _stage_weights(k: int, p: float, m_max: int) -> np.ndarray:
    """Weights P(M = m), m = 0..m_max, of M ~ NB(k, 1-p), normalized over that range:
    cumulative products of the ratios p (k+m)/(m+1) out of the mode, which cannot
    overflow and lose about 2e-13 relative at 3e5 stages (betaln loses 2e-9)."""
    mode = int((k - 1) * p / (1.0 - p))
    m = np.arange(m_max + 1.0)
    w = np.empty(m_max + 1)
    w[mode] = 1.0
    w[mode + 1:] = np.cumprod(p * (k + m[mode:-1]) / (m[mode:-1] + 1.0))
    w[:mode] = np.cumprod(((m[:mode] + 1.0) / (p * (k + m[:mode])))[::-1])[::-1]
    return w / w.sum()


def _stage_tail_root(k: int, p: float) -> float:
    """Root m of P(M > m) = 1 - (1 - 1e-15), M ~ NB(k, 1-p) failures, continued in m as
    P(M > m) = I_p(m+1, k) = p^(m+1) sum_{j<k} C(m+j, j) (1-p)^j.

    This is the equation ``scipy.special.nbdtrik(1 - 1e-15, k, 1 - p)`` solves.  Its log
    is concave and decreasing in m, so Newton steps close in on the root from the right
    after the first.  They start from the root of an approximation: the last term, its
    log-gamma ratio by Stirling's formula, over 1 - rho, rho the ratio of the term before
    it to it (at most 1/2).
    """
    q = 1.0 - p
    log_p = math.log1p(-q)
    goal = math.log(1.0 - (1.0 - _ETA_EPS * 1e-3))
    m, last = (k + 40.0) / q, goal + math.lgamma(k) - (k - 1) * math.log(q)
    for _ in range(3):
        rho = min((k - 1) / ((m + k - 1) * q), 0.5)
        m -= ((m + 1.0) * log_p + (m + 0.5) * math.log1p((k - 1) / (m + 1.0))
              + (k - 1) * (math.log(m + k) - 1.0) - math.log1p(-rho) - last) / (
                  log_p + math.log1p((k - 1) / (m + 0.5)))
    for _ in range(100):
        term = total = 1.0  # sum_j C(m+j, j) q^j and its slope in m, rescaled to stay finite
        harmonic = slope = log_scale = 0.0
        for j in range(1, k):
            term *= (m + j) * q / j
            harmonic += 1.0 / (m + j)
            total += term
            slope += term * harmonic
            if total > 1e250:
                term, slope, log_scale, total = (term / total, slope / total,
                                                 log_scale + math.log(total), 1.0)
        step = ((m + 1.0) * log_p + log_scale + math.log(total) - goal) / (log_p + slope / total)
        m -= step
        if not abs(step) > 1e-5 * max(1.0, m):  # the next step would move m by ~1e-10 of it
            break
    return m


class ConditionalLaws:
    """Laws L_k, k = 0..d, of the sum of d common margins given driver sum k.

    ``mix`` returns the law for a SumPmf or extremal point from rows, each built
    once on first use, or the laws of a list of them from their spectra, and
    ``evaluate_points`` measures lattice or grid points from row survivals.  Every
    row, and every pmf an inverse FFT gives, has its mean checked against
    sum_k w_k ((d-k) E[Z0] + k E[Z1]): within 1e-8 relative for discrete and
    exponential margins, 1e-6 absolute on the uniform grid (default step d/2^15,
    at most 2^22 nodes a pmf and 2^24 in all).  Nothing is kept across calls.
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
            # floats must hold the mixture rate squared and E[S^2] <= d^2 E[X^2] = 2 d^2 / rate^2
            if not self.beta * self.beta < math.inf or not 2.0 * d * d / margin.rate**2 < math.inf:
                raise ValueError(f"rate {margin.rate} out of range at p={self.p}, d={d}: the "
                                 "squared mixture rate rate/(1-p) or the sum's second moment "
                                 "is not finite")
        elif isinstance(margin, DiscreteMargin):
            self.h, self.size = 1.0, d * margin.n + 1
        elif isinstance(margin, UniformMargin):
            if grid_h is not None and not 0 < grid_h <= 1:  # also refuses nan
                raise ValueError(f"grid step {grid_h} outside (0, 1], the margin's support")
            self.h = d / 2.0**15 if grid_h is None else float(grid_h)
            self._tol = (0.0, 1e-6)
            if not d / self.h + d + 1 <= _GRID_ROW_NODES:  # also a d / h that overflows
                raise MemoryError(f"grid of {d / self.h + d + 1:.4g} nodes exceeds the budget; "
                                  "raise grid_h")
            self.size = int(np.ceil(d / self.h)) + d + 1
        else:
            raise ValueError(f"unsupported margin type {type(margin).__name__}")
        if self.h is not None:
            self._length = _next_fast_len(self.size)
        self._z_means = margin.z_means(self.p)
        self._rows: dict[int, np.ndarray] = {}
        self._split_log_mgfs: dict[float, tuple[float, float]] = {}

    @cached_property
    def _split(self) -> tuple[LatticeDistribution, LatticeDistribution]:
        """Laws of Z0 and Z1 (or of their grid lumps) in lattice steps."""
        if isinstance(self.margin, DiscreteMargin):
            z = self.margin.z_pmfs(self.p)
            a, b = z.z0, z.z1
        else:
            a = _discretize_unit_density(v0_stop_loss, self.p, self.h)
            b = _discretize_unit_density(v0v1_stop_loss, self.p, self.h)
        return LatticeDistribution(a), LatticeDistribution(b)

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Split transforms, cut after the last frequency where max(|Z0|, |Z1|)^d reaches
        1e-20: a law's spectrum mixes products of d of them, so no pmf entry moves by 1e-20,
        and the powers are spared slow subnormals.  The inverse FFT pads with zeros."""
        spectra = [np.fft.rfft(z.probs, n=self._length) for z in self._split]
        kept = np.flatnonzero(np.maximum(*map(np.abs, spectra)) >= 1e-20 ** (1.0 / self.d))
        return tuple(spectrum[: kept[-1] + 1] for spectrum in spectra)

    def _powers(self, which: int, exponents) -> dict:
        """Spectra of split ``which`` to each power in ``exponents``, from one squaring pass."""
        out = dict.fromkeys(exponents, 1)
        square, bit, top = self._spectra[which], 1, max(out)
        while bit <= top:
            for j in out:
                if j & bit:
                    out[j] = out[j] * square
            bit <<= 1
            square = square * square if bit <= top else square
        return out

    def _inverse(self, spectrum: np.ndarray, pairs, n: int = 1) -> np.ndarray:
        """pmf of a row or point law from its spectrum, cut to the lattice and checked; the
        grid budget counts the rows built and the n pmfs asked for."""
        n += len(self._rows)
        if isinstance(self.margin, UniformMargin) and n * self.size > _GRID_TABLE_NODES:
            raise MemoryError(f"{n} grid pmfs exceed the budget; raise grid_h")
        pmf = np.fft.irfft(spectrum, n=self._length)[: self.size]
        self._check_mean(pairs, pmf)
        return pmf

    def _check_mean(self, pairs, pmf: np.ndarray) -> None:  # exp rows weigh stages beyond d
        mean = np.dot(np.arange(pmf.size), pmf) / pmf.sum()
        mean = (self.d + mean) / self.beta if self.h is None else self.h * mean
        m0, m1 = self._z_means
        expected = sum(w * ((self.d - k) * m0 + k * m1) for k, w in pairs)
        if abs(mean - expected) > max(self._tol[1], self._tol[0] * abs(expected)):
            raise ArithmeticError(f"law at driver sums {[k for k, _ in pairs]}: mean {mean} "
                                  f"deviates from {expected}")

    def _row(self, k: int) -> np.ndarray:
        if k in self._rows:
            return self._rows[k]
        if self.h is None:  # stage weights beyond d: k + NB(k, 1-p) stages
            row = np.ones(1)
            if k:  # ten stages past the root cover its float error
                m_max = np.ceil(_stage_tail_root(k, self.p)) + 10.0
                if not k + m_max + 1 <= _STAGE_ROW_NODES:  # also a nan
                    raise ValueError(f"exponential margins at d={self.d}, p={self.p} need "
                                     f"{k + m_max + 1:.4g} Erlang stages at driver sum {k}, "
                                     f"over the budget of {_STAGE_ROW_NODES}; p is too near 1")
                row = np.zeros(k + int(m_max) + 1)
                row[k:] = _stage_weights(k, self.p, int(m_max))
            self._check_mean([(k, 1.0)], row)
        else:
            row = self._lattice_row(k).copy()
        self._rows[k] = row
        return row

    def _lattice_row(self, k: int, n: int = 1) -> np.ndarray:  # the budget counts n pmfs more
        return self._inverse(self._powers(0, [self.d - k])[self.d - k] * self._powers(1, [k])[k],
                             [(k, 1.0)], n)

    @cached_property
    def _split_moments(self) -> list[tuple[float, float]]:
        """(mean, variance) of each split law, in lattice steps; for exponential margins
        of Z0 ~ Exp(beta) and Z1 = Z0 + Exp(rate), in the margin's units."""
        if self.h is None:
            inv_beta, inv_rate = 1.0 / self.beta, 1.0 / self.margin.rate
            return [(inv_beta, inv_beta**2), (inv_beta + inv_rate, inv_beta**2 + inv_rate**2)]
        return [(z.mean(), z.variance()) for z in self._split]

    def _split_log_mgf(self, t: float) -> tuple[float, float]:
        """log M0(t) and log M1(t), closed-form for exponential margins."""
        if t not in self._split_log_mgfs:
            if self.h is None:
                self.margin.check_mgf(t)
                l0 = -math.log1p(-t / self.beta)
                self._split_log_mgfs[t] = l0, l0 - math.log1p(-t / self.margin.rate)
            else:
                self._split_log_mgfs[t] = tuple(z.log_mgf(t) for z in self._split)
        return self._split_log_mgfs[t]

    def _log_mgf(self, pairs, t: float) -> float:
        """log E[e^{tS}], S in lattice steps; row k contributes (d-k) log M0(t) + k log M1(t)."""
        l0, l1 = self._split_log_mgf(t)
        return log_mean_exp([w for _, w in pairs], [(self.d - k) * l0 + k * l1 for k, _ in pairs])

    def _variance(self, pairs) -> float:
        """Variance in lattice steps, from the rows' means and variances."""
        (m0, v0), (m1, v1) = self._split_moments
        means = [(self.d - k) * m0 + k * m1 for k, _ in pairs]
        mean = sum(w * m for (_, w), m in zip(pairs, means))
        return sum(w * ((self.d - k) * v0 + k * v1 + (m - mean) ** 2)
                   for (k, w), m in zip(pairs, means))

    def _laws(self, pmfs: np.ndarray, all_pairs) -> list[LatticeDistribution]:
        """Lattice or grid laws of a stack of pmfs, with their exact log-mgfs and variances."""
        return LatticeDistribution.stack(
            pmfs, [partial(self._log_mgf, pairs) for pairs in all_pairs],
            [self._variance(pairs) for pairs in all_pairs],
            self.h if isinstance(self.margin, UniformMargin) else None)

    def mix(self, sum_pmf):
        """Mixed-Erlang, lattice or grid law of the sum under a sum pmf or extremal point,
        or the list of laws under a list of them.

        A law is linear in its rows, so it mixes on either side of the inverse FFT: one
        law mixes the pmfs of its rows, a list of lattice or grid laws their spectra
        sum_k w_k Z0^(d-k) Z1^k, from one squaring pass per split over the exponents of
        the whole list, with one inverse FFT a law and no row.
        """
        if isinstance(sum_pmf, list):
            return [self.mix(g) for g in sum_pmf] if self.h is None else self._mix_spectra(sum_pmf)
        pairs = _mixing_weights(sum_pmf, self.d)
        rows = [self._row(k) for k, _ in pairs]
        mixed = np.zeros(max(row.size for row in rows))
        for (_, w), row in zip(pairs, rows):
            mixed[: row.size] += w * row
        if self.h is not None:
            return self._laws(mixed[None], [pairs])[0]
        eta = mixed[: int(np.searchsorted(np.cumsum(mixed), 1.0 - _ETA_EPS)) + 1]
        return MixedErlangDistribution(self.beta, self.d, eta, variance=self._variance(pairs),
                                       log_mgf=partial(self._log_mgf, pairs))

    def _mix_spectra(self, sum_pmfs) -> list[LatticeDistribution]:
        all_pairs = [_mixing_weights(g, self.d) for g in sum_pmfs]
        z0 = self._powers(0, {self.d - k for pairs in all_pairs for k, _ in pairs})
        z1 = self._powers(1, {k for pairs in all_pairs for k, _ in pairs})
        pmfs = np.empty((len(all_pairs), self.size))
        for pmf, pairs in zip(pmfs, all_pairs):
            pmf[:] = self._inverse(sum(w * z0[self.d - k] * z1[k] for k, w in pairs), pairs,
                                   len(pmfs))
        return self._laws(pmfs, all_pairs)

    def evaluate_points(self, points, measures) -> list[list[float]]:
        """Values of ``measures`` at extremal points of a lattice or grid margin, a list a
        point, those of ``evaluate(self.mix(point), m)`` to round-off.  A point's law mixes
        its rows' survivals S_k[j] = P(L_k >= j), sums of nonnegative terms: VaR is the
        smallest j with 1 - (w1 S_k1 + w2 S_k2)[j+1] >= level - 1e-12, as in
        ``LatticeDistribution.quantile``, by one bisection for a block of points, and ES adds
        h (w1 R_k1 + w2 R_k2)[j+1] / (1 - level), R_k[j] = sum_{i>=j} S_k[i].  The smaller
        side of dp is held; the other side's rows stream through in blocks of
        ``_BLOCK_NODES``, and the held S become R in place at the end.  The grid budget
        counts every row."""
        def survival(k):  # of row k normalized as a law is, for j = 0..size
            probs = _normalized(self._lattice_row(k, n_rows), ArithmeticError)[0]
            return np.append(np.cumsum(probs[::-1])[::-1], 0.0)
        all_pairs = [_mixing_weights(pt, self.d) for pt in points]
        keys = np.array([(pt.k1, pt.k2) for pt in points])
        weights = np.array([(pairs + [(0, 0.0)])[:2] for pairs in all_pairs])[:, :, 1]
        side = int(len(set(keys[:, 0])) > len(set(keys[:, 1])))  # 1: hold the k2 side
        held_ks, ha = np.unique(keys[:, side], return_inverse=True)
        streamed, wa, wb = keys[:, 1 - side], weights[:, side], weights[:, 1 - side]
        streamed_ks, n_rows, width = np.unique(streamed), len(set(keys.flat)), self.size + 1
        # mmap, not malloc: freeing it would raise glibc's trim threshold for every later call
        held = np.frombuffer(mmap.mmap(-1, held_ks.size * width * 8)).reshape(-1, width)
        for k, row in zip(held_ks.tolist(), held):
            row[:] = survival(k)
        index = {m.param: np.empty(len(points), int) for m in measures if m.kind in ("var", "es")}
        tails = {m.param: np.empty(len(points)) for m in measures if m.kind == "es"}
        step = max(1, _BLOCK_NODES // width)
        for start in range(0, streamed_ks.size, step):
            block_ks = streamed_ks[start:start + step]
            block = np.empty((block_ks.size, width))
            for k, row in zip(block_ks.tolist(), block):  # the degenerate point's row dp is held
                row[:] = held[held_ks == k][0] if k in held_ks else survival(k)
            at = np.flatnonzero((streamed >= block_ks[0]) & (streamed <= block_ks[-1]))
            ia, ib, w_a, w_b = ha[at], np.searchsorted(block_ks, streamed[at]), wa[at], wb[at]
            for a, found in index.items():
                below, above = np.full(at.size, -1), np.full(at.size, self.size - 1)
                while np.any(open_ := above - below > 1):
                    mid = np.where(open_, (below + above) // 2, above)
                    cdf = 1.0 - (w_a * held[ia, mid + 1] + w_b * block[ib, mid + 1])
                    ok = cdf >= a - _CDF_SLACK
                    above, below = np.where(ok, mid, above), np.where(ok, below, mid)
                found[at] = above
            np.cumsum(block[:, ::-1], axis=1, out=block[:, ::-1])
            for a, tail in tails.items():
                tail[at] = w_b * block[ib, index[a][at] + 1]
        np.cumsum(held[:, ::-1], axis=1, out=held[:, ::-1])
        for a, tail in tails.items():
            tail[:] = self.h * index[a] + self.h * (tail + wa * held[ha, index[a] + 1]) / (1 - a)
        columns = []
        for m in measures:
            if m.kind in ("var", "es"):
                columns.append(self.h * index[m.param] if m.kind == "var" else tails[m.param])
            elif m.kind == "entropic":
                columns.append([self._log_mgf(q, m.param * self.h) / m.param for q in all_pairs])
            else:
                columns.append([math.sqrt(self.h**2 * self._variance(q)) for q in all_pairs])
        return np.array(columns, dtype=float).T.tolist()


class SplitTable:
    """Split laws Z0_j, Z1_j of heterogeneous discrete margins at their p_j.

    Nothing here depends on the driver, so a call that aggregates or allocates
    under one or many drivers with the same margins and p builds one table.
    Given the driver the coordinates are independent, so each answer is one
    ``Driver.mix`` over per-coordinate columns:

    * ``law(driver)``: the pmf of S is the inverse FFT of the mixed split
      spectra, the log-mgf the log of the mixed split mgfs, and the variance
      the sum of the covariance matrix, so FFT round-off in the far tail,
      which e^{gamma x} would amplify, never reaches the entropic measure;
      ``laws(drivers)`` gives the same laws for many drivers from one
      ``DriverStack`` mixture and one batched inverse FFT;
    * ``covariance(driver)``: Cov(X_k, X_l) from the split means and
      variances and the pair probabilities P(I_k = I_l = 1);
    * ``allocation(driver, risks)``: the Euler allocation vectors
      E[X_j 1{S=y}], each the inverse FFT of one mixture in which row j's
      split spectra give way to the transforms of k P(Z=k).
    """

    def __init__(self, margins, p):
        self.d = len(p)
        if len(margins) != self.d:
            raise ValueError(f"need {self.d} margins, got {len(margins)}")
        self.size = sum(m.n for m in margins) + 1
        self.length = _next_fast_len(self.size)
        self._pmfs = [(z.z0, z.z1) for z in (m.z_pmfs(q) for m, q in zip(margins, p))]
        # Mixing 0 where coordinate j is k or l, else 1, gives P(I_k = I_l = 1):
        # these d^2 columns ride along with the spectra in law's one mixture.
        hit = np.eye(self.d, dtype=bool)
        hit = (hit[:, :, None] | hit[:, None, :]).reshape(self.d, -1)
        self._pair_columns = np.where(hit, 0.0, 1.0), np.ones(hit.shape)
        self._columns = tuple(np.hstack(pair) for pair in zip(self._transforms(), self._pair_columns))
        self._split = [tuple(LatticeDistribution(z) for z in pair) for pair in self._pmfs]
        (m0, m1), (v0, v1) = np.array(
            [[[z.mean() for z in pair] for pair in self._split],
             [[z.variance() for z in pair] for pair in self._split]]).transpose(0, 2, 1)
        gap = m1 - m0
        self._gaps = gap[:, None] * gap  # gap_k gap_l
        self._v0, self._dv = v0, v1 - v0
        self._scaled_mgfs: dict[float, tuple] = {}

    def _transforms(self, size_biased: bool = False) -> np.ndarray:
        """rfft of every split pmf (times k if ``size_biased``), shape (2, d, length//2+1)."""
        rows = np.zeros((2, self.d, self.length))
        for j, pair in enumerate(self._pmfs):
            for which, pmf in enumerate(pair):
                rows[which, j, : pmf.size] = np.arange(pmf.size) * pmf if size_biased else pmf
        return np.fft.rfft(rows, axis=2)

    def _check(self, driver) -> None:
        if driver.d != self.d:
            raise ValueError(f"driver of dimension {driver.d} for a table of {self.d} margins")

    def _log_mgf(self, stack: DriverStack, mixed_at: dict, i: int, t: float) -> float:
        """log E[e^{tS}] for driver i of the stack.  Scaled by its larger mgf, coordinate j
        mixes x_j <= 1, and mix(prod_j x_j) - 1 = sum_j mix((x_j - 1) prod_{i<j} x_i) sums
        terms of one sign: column j of one mixture holds x_i for i < j, x_j - 1 by expm1
        and 1 for i > j, so a mixture that rounds to 1 keeps its size through log1p.
        Column d holds the plain product, whose log is taken where the excess nears -1,
        as ``log_mean_exp`` does.  ``mixed_at`` keeps the stack's excesses and mixtures
        per t."""
        if t not in self._scaled_mgfs:
            l0, l1 = np.array([[z.log_mgf(t) for z in pair] for pair in self._split]).T
            top = np.maximum(l0, l1)
            later = np.tri(self.d, self.d + 1, k=-1, dtype=bool)  # later[i, j]: i > j
            columns = [np.where(later, 1.0, np.exp(l - top)[:, None]) for l in (l0, l1)]
            for column, l in zip(columns, (l0, l1)):
                np.fill_diagonal(column, np.expm1(l - top))
            self._scaled_mgfs[t] = float(top.sum()), *columns
        log_scale, a, b = self._scaled_mgfs[t]
        if t not in mixed_at:
            mixed = stack.mix(a, b)
            mixed_at[t] = mixed[:, :-1].sum(axis=-1), mixed[:, -1]
        excess, mixed = (float(column[i]) for column in mixed_at[t])
        if excess > -0.5:
            return log_scale + math.log1p(excess)
        if not mixed > 0.0:
            raise ArithmeticError(f"mixture of split mgfs at t={t} underflows")
        return log_scale + math.log(mixed)

    def _covariance(self, joint: np.ndarray) -> np.ndarray:
        """Cov(X_k, X_l) = gap_k gap_l Cov(I_k, I_l), plus E Var(Z_{I_k}) on the diagonal,
        from the pair probabilities joint[..., k, l] = P(I_k = I_l = 1)."""
        p = joint.diagonal(axis1=-2, axis2=-1)
        cov = (joint - p[..., :, None] * p[..., None, :]) * self._gaps
        diagonal = np.arange(self.d)
        cov[..., diagonal, diagonal] += self._v0 + p * self._dv
        return cov

    def covariance(self, driver) -> np.ndarray:
        """d x d matrix of Cov(X_k, X_l) under the driver; its sum is Var(S)."""
        self._check(driver)
        return self._covariance(driver.mix(*self._pair_columns).reshape(self.d, self.d))

    def allocation(self, driver, risks) -> np.ndarray:
        """E[X_j 1{S=y}] over the lattice of S for the 0-based ``risks``, one row each: one
        mixture a risk of the split spectra, row j swapped for the transforms of k P(Z=k)."""
        self._check(driver)
        n = self.length // 2 + 1
        z0, z1 = self._columns[0][:, :n], self._columns[1][:, :n]
        s0, s1 = self._transforms(size_biased=True)
        a, b = z0.copy(), z1.copy()
        alloc_hat = []
        for j in risks:
            a[j], b[j] = s0[j], s1[j]
            alloc_hat.append(driver.mix(a, b))
            a[j], b[j] = z0[j], z1[j]
        alloc = np.fft.irfft(np.array(alloc_hat), n=self.length)[:, : self.size]
        return np.clip(alloc, 0.0, None)

    def law(self, driver) -> LatticeDistribution:
        return self.laws([driver])[0]

    def laws(self, drivers) -> list[LatticeDistribution]:
        stack = DriverStack(drivers)
        for driver in stack.drivers:
            self._check(driver)
        mixed = stack.mix(*self._columns)
        cut = mixed.shape[1] - self.d**2
        joint = mixed[:, cut:].real.reshape(-1, self.d, self.d)
        pmfs = np.fft.irfft(mixed[:, :cut], n=self.length)[:, : self.size]
        variances = self._covariance(joint).reshape(len(pmfs), -1).sum(axis=1)
        mixed_at: dict[float, np.ndarray] = {}  # the stack's mixed split mgfs, per t
        return LatticeDistribution.stack(
            pmfs, [partial(self._log_mgf, stack, mixed_at, i) for i in range(len(pmfs))],
            variances.tolist())


def aggregate_discrete_general(margins: list[DiscreteMargin], driver,
                               table: SplitTable | None = None):
    """Sum with heterogeneous discrete margins, p_j from the driver margins.

    Given the driver the coordinates are independent, so the sum's law is the
    driver's mixture over the split laws (``SplitTable.law``), from the
    call's ``table`` if given.  For a list of drivers, which needs the
    ``table`` of their common margins, the answer is the list of their laws
    from one stacked mixture (``SplitTable.laws``).
    """
    if isinstance(driver, list):
        if table is None:
            raise ValueError("a list of drivers needs the table of their margins")
        return table.laws([as_driver(x) for x in driver])
    driver = as_driver(driver)
    return (table or SplitTable(margins, driver.margins())).law(driver)


def aggregate(margin, d: int, sum_pmf, p, grid_h: float | None = None, laws=None):
    """Law of the sum for one margin family, or the list of laws for a list of sum pmfs
    (``ConditionalLaws.mix``), from the call's ``laws`` table if given; "bernoulli"
    measures the driver sum itself."""
    if margin == "bernoulli":
        k, w = np.array(_mixing_weights(sum_pmf, d)).T
        return LatticeDistribution(np.bincount(k.astype(int), weights=w, minlength=d + 1))
    return (laws or ConditionalLaws(margin, d, p, grid_h)).mix(sum_pmf)
