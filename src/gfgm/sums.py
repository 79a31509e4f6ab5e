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


class BlockConstructionError(ValueError):
    """Raised when no consecutive-run block construction exists for (d, p)."""


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

    def support(self) -> list[int]:
        return [k for k, v in enumerate(self.values) if v != 0]

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]

    def to_json(self) -> dict:
        from .bernoulli import format_fraction

        return {"d": self.d, "values": [format_fraction(v) for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "SumPmf":
        return cls(int(obj["d"]), tuple(Fraction(v) for v in obj["values"]))

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

    def describe(self) -> str:
        if self.is_degenerate:
            return f"point({self.k1})"
        return f"pair({self.k1},{self.k2})"


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


@dataclass(frozen=True)
class BlockPmf:
    """Sparse Bernoulli pmf supported on runs of consecutive ones.

    Atom masks use the same bit convention as the dense representation
    (bit j-1 is coordinate j) but are plain integers, so any dimension works.
    """

    d: int
    masks: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.masks) != len(self.weights):
            raise ValueError("masks and weights must align")
        if any(w < 0 for w in self.weights) or sum(self.weights, Fraction(0)) != 1:
            raise ValueError("weights must be a probability vector")

    def atoms(self) -> list[tuple[int, Fraction]]:
        return list(zip(self.masks, self.weights))

    def margin(self, j: int) -> Fraction:
        idx0 = j - 1
        return sum((w for m, w in self.atoms() if (m >> idx0) & 1), Fraction(0))

    def sum_pmf(self) -> SumPmf:
        values = [Fraction(0)] * (self.d + 1)
        for m, w in self.atoms():
            values[m.bit_count()] += w
        return SumPmf(self.d, tuple(values))


def sigma_cx_smallest_blocks(d: int, p) -> BlockPmf:
    """Non-exchangeable convex-order-smallest pmf built from consecutive runs.

    The construction partitions {1,...,d} into q = 1/p runs whose lengths sit
    in {floor(dp), ceil(dp)}, each run carrying weight 1/q; its component sum
    is exactly the convex-order minimum.  Run boundaries are placed at
    round(i*d/q), which spreads the longer runs evenly (d=100, p=1/3 gives
    lengths 33, 34, 33).

    Raises BlockConstructionError when 1/p is not an integer; callers fall
    back to the exchangeable lift of the convex minimum.
    """
    p = _check_dp(d, p)
    inv = 1 / p
    if inv.denominator != 1:
        raise BlockConstructionError(
            f"no block construction: 1/p = {inv} is not an integer (margins of a "
            f"uniform mixture of runs partitioning the coordinates are all 1/q)"
        )
    q = int(inv)
    if q > d:
        raise BlockConstructionError(f"no block construction: need at least q={q} coordinates")
    # Boundary i sits at round(i*d/q): floor((2*i*d + q) / (2*q)) in exact arithmetic.
    bounds = [(2 * i * d + q) // (2 * q) for i in range(q + 1)]
    masks = []
    for i in range(q):
        lo, hi = bounds[i], bounds[i + 1]
        masks.append(((1 << (hi - lo)) - 1) << lo)
    weights = (Fraction(1, q),) * q
    return BlockPmf(d, tuple(masks), weights)
