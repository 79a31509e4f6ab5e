"""Distributions on {0,...,d} with fixed mean dp: extremal points and convex order.

This class of pmfs is a convex polytope whose extremal points carry at most
two support points: a pair (k1, k2) with k1 below dp and k2 above, weighted
so the mean is exactly dp, plus the degenerate point at dp when dp is an
integer.  Enumeration is analytic, so it scales to any dimension; this is the
backbone that lets the bounds engine avoid vertex enumeration for common
margins.

The convex order between equal-mean lattice distributions is decided by
pointwise comparison of stop-loss transforms t -> E[(S - t)+] on the integer
lattice, in exact rational arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SumPmf:
    """pmf on {0,...,d} with exact rational entries."""

    d: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        if self.d < 1 or len(values) != self.d + 1:
            raise ValueError(f"expected {self.d + 1} entries for d={self.d}, got {len(values)}")
        if any(v < 0 for v in values):
            raise ValueError("pmf entries must be nonnegative")
        if sum(values) != 1:
            raise ValueError("pmf entries must sum to exactly 1")
        object.__setattr__(self, "values", values)

    @property
    def mean(self) -> Fraction:
        return sum((Fraction(k) * v for k, v in enumerate(self.values)), Fraction(0))

    def stop_loss(self, t: Fraction | int) -> Fraction:
        """E[(S - t)+], exact."""
        t = Fraction(t)
        return sum(((k - t) * v for k, v in enumerate(self.values) if k > t), Fraction(0))

    def mask_weights(self) -> tuple[Fraction, ...]:
        """g(k)/C(d, k), k = 0..d: the weight of each mask with k ones in the unique
        exchangeable Bernoulli pmf whose component sum has this law g."""
        return tuple(v / math.comb(self.d, k) for k, v in enumerate(self.values))

    def support(self) -> list[int]:
        return [k for k, v in enumerate(self.values) if v != 0]

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]

    def to_json(self) -> dict:
        from .bernoulli import format_fraction

        return {"d": self.d, "values": [format_fraction(v) for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "SumPmf":
        from .bernoulli import json_int, json_rationals

        return cls(json_int(obj, "d"), json_rationals(obj, "values"))

    @classmethod
    def two_point(cls, d: int, k1: int, k2: int, w1: Fraction) -> "SumPmf":
        values = [Fraction(0)] * (d + 1)
        values[k1] += w1
        values[k2] += 1 - w1
        return cls(d, tuple(values))

    @classmethod
    def degenerate(cls, d: int, k: int) -> "SumPmf":
        values = [Fraction(0)] * (d + 1)
        values[k] = Fraction(1)
        return cls(d, tuple(values))


def atom_margins(d: int, atoms) -> tuple[Fraction, ...]:
    """P(I_j = 1), j = 1..d, of the Bernoulli pmf given as (mask, weight) atoms.

    Sums run in integers on the weights' common denominator."""
    atoms = [(mask, w.as_integer_ratio()) for mask, w in atoms]
    common = math.lcm(*{den for _, (_, den) in atoms})
    out = [0] * d
    for mask, (num, den) in atoms:
        num *= common // den
        for j in range(d):
            if (mask >> j) & 1:
                out[j] += num
    return tuple(Fraction(x, common) for x in out)


def atom_pair_joint11(atoms, j1: int, j2: int) -> Fraction:
    """P(I_j1 = I_j2 = 1), 1-based coordinates, of the pmf given as (mask, weight) atoms."""
    both = (1 << (j1 - 1)) | (1 << (j2 - 1))
    return sum((w for mask, w in atoms if mask & both == both), Fraction(0))


def atom_sum_pmf(d: int, atoms) -> SumPmf:
    """Law of the component sum of the Bernoulli pmf given as (mask, weight) atoms."""
    values = [Fraction(0)] * (d + 1)
    for mask, w in atoms:
        values[mask.bit_count()] += w
    return SumPmf(d, tuple(values))


@dataclass(frozen=True)
class ExtremalSumPoint:
    """Extremal pmf of the fixed-mean class: two-point or degenerate.

    ``index`` is the 1-based position in the canonical enumeration (k1
    ascending, then k2 ascending, degenerate point last).
    """

    d: int
    k1: int
    k2: int
    w1: Fraction
    w2: Fraction
    index: int

    @property
    def is_degenerate(self) -> bool:
        return self.k1 == self.k2

    @property
    def label(self) -> str:
        return sys.intern(f"rD{self.index}")  # one string per label while reports hold it

    @property
    def pmf(self) -> SumPmf:
        if self.is_degenerate:
            return SumPmf.degenerate(self.d, self.k1)
        return SumPmf.two_point(self.d, self.k1, self.k2, self.w1)


def _mean_brackets(d: int, p: Fraction) -> tuple[int, int, bool]:
    """(largest integer < dp, smallest integer > dp, dp is integer)."""
    dp = d * p
    integral = dp.denominator == 1
    if integral:
        return int(dp) - 1, int(dp) + 1, True
    return math.floor(dp), math.ceil(dp), False


def _check_dp(d: int, p) -> Fraction:
    from .bernoulli import as_fraction

    p = as_fraction(p)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not (0 < p < 1):
        raise ValueError(f"p={p} outside (0,1)")
    return p


def extremal_points(d: int, p) -> list[ExtremalSumPoint]:
    """All extremal pmfs of the mean-dp class, in canonical order.

    Pairs (k1, k2) run over k1 in {0,...,largest integer below dp} and k2 in
    {smallest integer above dp,...,d}; weights (k2-dp)/(k2-k1) and
    (dp-k1)/(k2-k1) fix the mean at dp.  When dp is an integer the degenerate
    pmf at dp is appended last.
    """
    p = _check_dp(d, p)
    dp = d * p
    k1_top, k2_bot, integral = _mean_brackets(d, p)
    points = []
    index = 1
    for k1 in range(0, k1_top + 1):
        for k2 in range(k2_bot, d + 1):
            w1 = (k2 - dp) / (k2 - k1)
            points.append(ExtremalSumPoint(d, k1, k2, w1, 1 - w1, index))
            index += 1
    if integral:
        points.append(ExtremalSumPoint(d, int(dp), int(dp), Fraction(1), Fraction(0), index))
    return points


def count_extremal(d: int, p) -> int:
    """Number of extremal points, without enumerating them."""
    p = _check_dp(d, p)
    k1_top, k2_bot, integral = _mean_brackets(d, p)
    return (k1_top + 1) * (d - k2_bot + 1) + (1 if integral else 0)


def min_convex(d: int, p) -> SumPmf:
    """Convex-order smallest element: mass on the integers bracketing dp."""
    return min_convex_point(d, p).pmf


def max_convex(d: int, p) -> SumPmf:
    """Convex-order largest element: mass (1-p, p) on {0, d} (upper Fréchet sum)."""
    return max_convex_point(d, p).pmf


def min_convex_point(d: int, p) -> ExtremalSumPoint:
    """The extremal point whose pmf is the convex-order minimum."""
    p = _check_dp(d, p)
    k1_top, k2_bot, integral = _mean_brackets(d, p)
    n_pairs = (k1_top + 1) * (d - k2_bot + 1)
    if integral:
        dp = int(d * p)
        return ExtremalSumPoint(d, dp, dp, Fraction(1), Fraction(0), n_pairs + 1)
    dp = d * p
    index = k1_top * (d - k2_bot + 1) + 1
    w1 = (k2_bot - dp) / (k2_bot - k1_top)
    return ExtremalSumPoint(d, k1_top, k2_bot, w1, 1 - w1, index)


def max_convex_point(d: int, p) -> ExtremalSumPoint:
    """The extremal point whose pmf is the convex-order maximum."""
    p = _check_dp(d, p)
    k1_top, k2_bot, _ = _mean_brackets(d, p)
    index = d - k2_bot + 1
    return ExtremalSumPoint(d, 0, d, 1 - p, p, index)


def convex_order_leq(g: SumPmf, h: SumPmf) -> bool:
    """True iff g precedes h in the convex order (equal means required).

    Uses the stop-loss characterization on the integer lattice, exactly.
    """
    if g.d != h.d:
        raise ValueError(f"dimension mismatch: {g.d} vs {h.d}")
    if g.mean != h.mean:
        return False
    return all(g.stop_loss(t) <= h.stop_loss(t) for t in range(g.d + 1))
