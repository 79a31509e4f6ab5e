"""Exact arithmetic on multivariate Bernoulli pmfs with fixed margins.

A d-variate Bernoulli pmf is stored as a vector of 2^d rationals indexed by
the binary points in reverse-lexicographic order: index ``i`` encodes the
point whose coordinate j (1-based) equals bit j-1 of ``i``.  For d = 3 the
order is 000, 100, 010, 110, 001, 101, 011, 111.

The set of such pmfs with margins Bernoulli(p_j) is a convex polytope, so
membership and extremal identities are decided in exact rational arithmetic.
Floats never enter this module; they appear only when values are exported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from .sums import SumPmf, atom_margins, atom_pair_joint11, atom_sum_pmf

RationalLike = Union[Fraction, int, str]

# Dense 2^d storage is capped; larger dimensions go through the
# exchangeable / sparse-atom representations.
MAX_DENSE_DIM = 25
# The full dependence-coefficient map has 2^d - d - 1 entries.
MAX_NU_DIM = 20


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats to keep the module exact.

    Strings are 'num/den' or decimals; exponents are refused, because
    Fraction("1e999999999") would build a billion-digit integer.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"cannot read {x!r} as a rational: write num/den, not an exponent")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"expected an exact rational (Fraction, int or 'num/den' string), got {x!r}")


def json_value(value, kind, what: str, name: str):
    """A value of a parsed JSON document, refused with a ValueError unless it is an
    instance of ``kind`` (a boolean is never a number)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def json_field(obj, key: str, kind, what: str):
    """``obj[key]``, checked by ``json_value``; ``obj`` must be a JSON object that has the key."""
    holder = json_value(obj, dict, "a JSON object", f"the holder of {key!r}")
    if key not in holder:
        raise ValueError(f"missing field {key!r}")
    return json_value(holder[key], kind, what, repr(key))


def json_int(obj, key: str) -> int:
    return int(json_field(obj, key, (int, str), "an integer"))


_RATIONAL = (int, str), "an integer or a 'num/den' string"


def json_rational(obj, key: str) -> Fraction:
    return as_fraction(json_field(obj, key, *_RATIONAL))


def json_rationals(obj, key: str) -> tuple[Fraction, ...]:
    return tuple(as_fraction(json_value(v, *_RATIONAL, f"each entry of {key!r}"))
                 for v in json_field(obj, key, list, "a list"))


def format_fraction(x: RationalLike) -> str:
    """Canonical 'num/den' form (gcd-reduced, positive denominator)."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def margin_vector(p: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Margin probabilities p_1..p_d as exact rationals, each strictly inside (0,1)."""
    if isinstance(p, (Fraction, int, str)):
        raise ValueError(f"a margin vector is a sequence, got the scalar {p!r}")
    probs = tuple(as_fraction(q) for q in p)
    for q in probs:
        if not 0 < q < 1:
            raise ValueError(f"margin probability {q} outside (0,1)")
    return probs


@dataclass(frozen=True)
class BernoulliPmf:
    """Dense pmf over {0,1}^d in reverse-lexicographic order, exact rationals.

    Invariants enforced at construction: 2^d entries, all >= 0, summing to
    exactly 1.
    """

    d: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not 1 <= self.d <= MAX_DENSE_DIM:
            raise ValueError(f"dimension {self.d} outside 1..{MAX_DENSE_DIM}")
        values = tuple(map(as_fraction, self.values))
        if len(values) != 1 << self.d:
            raise ValueError(f"expected {1 << self.d} entries for d={self.d}, got {len(values)}")
        ratios = [v.as_integer_ratio() for v in values]
        if any(num < 0 for num, _ in ratios):
            raise ValueError("pmf entries must be nonnegative")
        # In integers on the common denominator: a Fraction sum reduces by a gcd at every step.
        common = math.lcm(*{den for _, den in ratios})
        if sum(num * (common // den) for num, den in ratios if num) != common:
            raise ValueError("pmf entries must sum to exactly 1")
        object.__setattr__(self, "values", values)

    def atoms(self) -> list[tuple[int, Fraction]]:
        """Nonzero entries as (mask, weight) pairs."""
        return [(m, v) for m, v in enumerate(self.values) if v]

    def margins(self) -> tuple[Fraction, ...]:
        return atom_margins(self.d, self.atoms())

    def to_json(self) -> dict:
        return {"d": self.d, "order": "revlex", "values": [format_fraction(v) for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "BernoulliPmf":
        if obj.get("order", "revlex") != "revlex":
            raise ValueError(f"unsupported index order {obj.get('order')!r}")
        return cls(json_int(obj, "d"), json_rationals(obj, "values"))


def _as_values(f: Union[BernoulliPmf, Sequence[RationalLike]]) -> tuple[int, tuple[Fraction, ...]]:
    if isinstance(f, BernoulliPmf):
        return f.d, f.values
    values = tuple(as_fraction(v) for v in f)
    d = len(values).bit_length() - 1
    if 1 << d != len(values):
        raise ValueError(f"pmf length {len(values)} is not a power of two")
    return d, values


def validate_membership(f: Union[BernoulliPmf, Sequence[RationalLike]], p) -> bool:
    """Exact test of membership in the Fréchet class with margins Bernoulli(p_j).

    Equivalent to the linear-constraint characterization (margin rows plus
    normalization): nonnegative entries summing to one whose univariate
    margins equal p_j exactly.  Raises on a dimension mismatch, returns
    False on any other violation.
    """
    d, values = _as_values(f)
    pv = margin_vector(p)
    if len(pv) != d:
        raise ValueError(f"margin vector has length {len(pv)}, pmf has dimension {d}")
    if any(v < 0 for v in values) or sum(values) != 1:
        return False
    return atom_margins(d, [(m, v) for m, v in enumerate(values) if v]) == pv


def sum_pmf(f: BernoulliPmf) -> SumPmf:
    """Distribution of the component sum, grouped by Hamming weight."""
    return atom_sum_pmf(f.d, f.atoms())


def exchangeable_lift(g: SumPmf) -> BernoulliPmf:
    """The unique exchangeable pmf whose component sum has distribution g."""
    d = g.d
    if d > MAX_DENSE_DIM:
        raise ValueError(f"dense lift not available for d={d} > {MAX_DENSE_DIM}")
    weights = g.mask_weights()
    return BernoulliPmf(d, tuple(weights[m.bit_count()] for m in range(1 << d)))


def _nu_values(f, p, subsets: list[tuple[int, ...]]) -> list[Fraction]:
    """E[prod_{j in s} (I_j - p_j)/p_j] for each subset s of 1-based coordinates, exact.

    ``f`` is a pmf or a driver: its ``d`` and its (mask, weight) ``atoms()``.  The
    centered indicator of a coordinate is divided once per atom.
    """
    pv = margin_vector(p)
    if f.d != len(pv):
        raise ValueError("dimension mismatch between pmf and margins")
    atoms = f.atoms()
    columns = {j: [(Fraction((m >> (j - 1)) & 1) - pv[j - 1]) / pv[j - 1] for m, _ in atoms]
               for j in set().union(*subsets)}
    out = []
    for subset in subsets:
        total = Fraction(0)
        for a, (_, w) in enumerate(atoms):
            term = w
            for j in subset:
                term *= columns[j][a]
            total += term
        out.append(total)
    return out


def nu_coefficient(f, p, subset: Sequence[int]) -> Fraction:
    """Dependence coefficient E[prod_{j in subset} (I_j - p_j)/p_j], exact.

    ``subset`` holds 1-based coordinates, strictly increasing, size >= 2.
    """
    subset = tuple(subset)
    if len(subset) < 2 or list(subset) != sorted(set(subset)):
        raise ValueError(f"subset must be >=2 strictly increasing coordinates, got {subset}")
    if subset[0] < 1 or subset[-1] > f.d:  # written out: coordinate 0 would read p_d
        raise IndexError(f"subset {subset} outside the coordinates 1..{f.d}")
    return _nu_values(f, p, [subset])[0]


def _check_nu_dim(d: int):
    if d > MAX_NU_DIM:
        raise ValueError(f"full coefficient map not offered for d={d} > {MAX_NU_DIM}")


def nu_coefficients(f, p) -> dict[tuple[int, ...], Fraction]:
    """All dependence coefficients of a pmf or driver, keyed by the coordinate subset.

    Cost grows with 2^d times the support size, so the full map is only
    offered up to d = MAX_NU_DIM; use :func:`nu_coefficient` for single subsets.
    """
    _check_nu_dim(f.d)
    subsets = [s for k in range(2, f.d + 1) for s in combinations(range(1, f.d + 1), k)]
    return dict(zip(subsets, _nu_values(f, p, subsets)))


def pair_covariance(f: BernoulliPmf, p, j1: int, j2: int) -> tuple[Fraction, float]:
    """Covariance (exact) and Pearson correlation (float) of (I_j1, I_j2)."""
    pv = margin_vector(p)
    if not 1 <= j1 < j2 <= f.d:
        raise IndexError(f"need 1 <= j1 < j2 <= {f.d}, got ({j1}, {j2})")
    a, b = pv[j1 - 1], pv[j2 - 1]
    cov = atom_pair_joint11(f.atoms(), j1, j2) - a * b
    return cov, float(cov) / math.sqrt(float(a * (1 - a) * b * (1 - b)))


def covariance_bounds(p, j1: int, j2: int) -> tuple[Fraction, Fraction]:
    """Sharp covariance range for a Bernoulli pair with margins p_j1, p_j2.

    The upper bound min(p_j1, p_j2) - p_j1 p_j2 symmetrizes the formula
    p_j1 (1 - p_j2), which assumes p_j1 <= p_j2.
    """
    pv = margin_vector(p)
    if not 1 <= j1 < j2 <= len(pv):
        raise IndexError(f"need 1 <= j1 < j2 <= {len(pv)}, got ({j1}, {j2})")
    a, b = pv[j1 - 1], pv[j2 - 1]
    lower = max(a + b - 1, Fraction(0)) - a * b
    upper = min(a, b) - a * b
    return lower, upper


def independence_pmf(p) -> BernoulliPmf:
    """Product pmf with independent Bernoulli(p_j) coordinates."""
    pv = margin_vector(p)
    values = []
    for m in range(1 << len(pv)):
        w = Fraction(1)
        for j, q in enumerate(pv):
            w *= q if (m >> j) & 1 else 1 - q
        values.append(w)
    return BernoulliPmf(len(pv), tuple(values))


def comonotone_pmf(p) -> BernoulliPmf:
    """Upper Fréchet bound: I_j = 1{U <= p_j} for a common uniform U."""
    pv = margin_vector(p)
    order = sorted(range(len(pv)), key=lambda j: pv[j], reverse=True)
    values = [Fraction(0)] * (1 << len(pv))
    prev = Fraction(1)
    mask = 0
    for j in order:
        values[mask] += prev - pv[j]
        prev = pv[j]
        mask |= 1 << j
    values[mask] += prev
    return BernoulliPmf(len(pv), tuple(values))


def countermonotone_pmf(p1: RationalLike, p2: RationalLike) -> BernoulliPmf:
    """Lower Fréchet bound for a Bernoulli pair."""
    a, b = as_fraction(p1), as_fraction(p2)
    f11 = max(a + b - 1, Fraction(0))
    return BernoulliPmf(2, (1 - a - b + f11, a - f11, b - f11, f11))
