"""Driving Bernoulli distributions behind a GFGM specification.

A copula in this family is determined by one multivariate Bernoulli
distribution.  Three interchangeable representations are supported:

* dense: full 2^d vector (small d),
* atoms: sparse list of (mask, weight) pairs (structured pmfs at any d, such
  as the consecutive-run blocks of ``sigma_cx_smallest_blocks``),
* exchangeable: a sum distribution standing for the unique exchangeable pmf
  with that component sum (any d).

Masks use bit j-1 for coordinate j, matching the dense reverse-lexicographic
index.  All weights stay exact rationals; floats appear only in sampling and
in ``mix``.

Given the driver, the coordinates are independent, so the copula cdf, the
law of a heterogeneous sum and the Euler allocation vectors are all one
driver-weighted mixture of coordinatewise products.  Each representation
computes it with ``mix(a, b)``.  Dense and sparse drivers differ only in how
they store their atoms: both take margins, sum law, pair joints, ``mix`` and
sampling from one implementation over ``atoms()``, which loops over the
atoms.  The exchangeable driver uses an elementary-symmetric recursion
instead, with each mask of k ones weighing ``SumPmf.mask_weights()[k]``.
``DriverStack`` mixes many drivers at once, one atom rank at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import (BernoulliPmf, as_fraction, format_fraction, json_field, json_int,
                        json_rational)
from .sums import SumPmf, _check_dp, atom_margins, atom_pair_joint11, atom_sum_pmf

_ATOM_EXPANSION_CAP = 20


class BlockConstructionError(ValueError):
    """Raised when no consecutive-run block construction exists for (d, p)."""


class _AtomAnswers:
    """What a driver answers from its (mask, weight) atoms, ``self.atoms()``."""

    def margins(self) -> tuple[Fraction, ...]:
        return atom_margins(self.d, self.atoms())

    def sum_pmf(self) -> SumPmf:
        return atom_sum_pmf(self.d, self.atoms())

    def pair_joint11(self, j1: int, j2: int) -> Fraction:
        return atom_pair_joint11(self.atoms(), j1, j2)

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum over atoms (mask, w) of w * prod_j (b[j] if bit j of mask else a[j])."""
        dtype = np.result_type(a, b, float)
        a, b = np.asarray(a, dtype), np.asarray(b, dtype)
        out = np.zeros(a.shape[1:], dtype)
        for mask, w in self.atoms():
            # a new array, or a numpy scalar when a and b are vectors (0-d arrays are slow)
            term = float(w) * (b[0] if mask & 1 else a[0])
            for j in range(1, a.shape[0]):
                term *= b[j] if (mask >> j) & 1 else a[j]
            out += term
        return out

    def sample_indicators(self, rng: np.random.Generator, n: int) -> np.ndarray:
        atoms = self.atoms()
        picks = pick_atoms([float(w) for _, w in atoms], rng.random(n))
        return _mask_bits([m for m, _ in atoms], self.d)[picks]


@dataclass(frozen=True)
class DenseDriver(_AtomAnswers):
    pmf: BernoulliPmf

    @property
    def d(self) -> int:
        return self.pmf.d

    def atoms(self) -> list[tuple[int, Fraction]]:
        return self.pmf.atoms()

    def to_json(self) -> dict:
        return {"type": "dense", **self.pmf.to_json()}


@dataclass(frozen=True)
class AtomDriver(_AtomAnswers):
    d: int
    atom_list: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((int(m), as_fraction(w)) for m, w in self.atom_list)
        if any(not 0 <= m < (1 << self.d) for m, _ in atoms):
            raise ValueError("atom mask outside {0,1}^d")
        if any(w < 0 for _, w in atoms) or sum((w for _, w in atoms), Fraction(0)) != 1:
            raise ValueError("atom weights must be a probability vector")
        object.__setattr__(self, "atom_list", atoms)

    def atoms(self) -> list[tuple[int, Fraction]]:
        return list(self.atom_list)

    def to_json(self) -> dict:
        return {
            "type": "atoms",
            "d": self.d,
            "atoms": [
                {"x": format(m, f"0{self.d}b")[::-1], "w": format_fraction(w)}
                for m, w in self.atom_list
            ],
        }


@dataclass(frozen=True)
class ExchangeableDriver:
    """Stands for the unique exchangeable pmf with the given component sum."""

    sum_dist: SumPmf

    def __post_init__(self):
        p = self.sum_dist.mean / self.sum_dist.d
        if not (0 < p < 1):
            raise ValueError("exchangeable driver needs mean strictly inside (0, d)")

    @property
    def d(self) -> int:
        return self.sum_dist.d

    def margins(self) -> tuple[Fraction, ...]:
        p = self.sum_dist.mean / self.d
        return (p,) * self.d

    def sum_pmf(self) -> SumPmf:
        return self.sum_dist

    def atoms(self) -> list[tuple[int, Fraction]]:
        if self.d > _ATOM_EXPANSION_CAP:
            raise ValueError(
                f"exchangeable atom expansion needs up to 2^{self.d} atoms; "
                f"cap is d={_ATOM_EXPANSION_CAP}"
            )
        weights = self.sum_dist.mask_weights()
        return [(m, weights[m.bit_count()]) for m in range(1 << self.d) if weights[m.bit_count()]]

    def pair_joint11(self, j1: int, j2: int) -> Fraction:
        d = self.d
        return sum(
            (v * Fraction(k * (k - 1), d * (d - 1)) for k, v in enumerate(self.sum_dist.values)),
            Fraction(0),
        )

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The mixture in O(d^2) products, without expanding the atoms.

        Summed over the C(d, k) masks with k ones, the products are the k-th
        coefficient of prod_j (a_j + t b_j), and each such mask weighs
        g(k)/C(d, k).  Coefficients above the top of g's support are never
        needed, so the recursion stops there.
        """
        values = self.sum_dist.values
        top = max(k for k, g in enumerate(values) if g)
        coeffs = np.zeros((top + 1,) + a.shape[1:], dtype=np.result_type(a, b, float))
        coeffs[0] = 1.0
        for j in range(self.d):
            upper = coeffs[: min(j + 1, top)] * b[j]
            coeffs[: j + 1] *= a[j]
            coeffs[1 : upper.shape[0] + 1] += upper
        weights = [float(w) for w in self.sum_dist.mask_weights()[: top + 1]]
        return np.tensordot(weights, coeffs, axes=1)

    def sample_indicators(self, rng: np.random.Generator, n: int) -> np.ndarray:
        ks = pick_atoms(self.sum_dist.as_floats(), rng.random(n))
        # Uniformly random positions for the ones: rank the rows of a uniform draw.
        order = np.argsort(rng.random((n, self.d)), axis=1)
        flags = np.arange(self.d)[None, :] < ks[:, None]
        out = np.zeros((n, self.d), dtype=np.uint8)
        np.put_along_axis(out, order, flags.astype(np.uint8), axis=1)
        return out

    def to_json(self) -> dict:
        return {"type": "exchangeable", "sum": self.sum_dist.to_json()}


Driver = DenseDriver | AtomDriver | ExchangeableDriver


def sigma_cx_smallest_blocks(d: int, p) -> AtomDriver:
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
    runs = (((1 << (hi - lo)) - 1) << lo for lo, hi in zip(bounds, bounds[1:]))
    return AtomDriver(d, tuple((mask, Fraction(1, q)) for mask in runs))


def _mask_bits(masks, d: int) -> np.ndarray:
    """(len(masks), d) uint8 array whose row i holds bits 0..d-1 of masks[i], at any d."""
    width = (d + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(-1, width), axis=1, count=d, bitorder="little")


class DriverStack:
    """Drivers of one dimension mixed together: ``mix(a, b)`` is
    ``np.stack([driver.mix(a, b) for driver in drivers])``, bit for bit.

    Dense and sparse drivers are sorted by atom count, and step s mixes the
    s-th atom of every driver that has one, with the products and sums of
    their shared ``mix`` in the same order.  A lone driver, of any kind, goes
    through its own ``mix``.
    """

    def __init__(self, drivers):
        self.drivers = list(drivers)
        if len({driver.d for driver in self.drivers}) > 1:
            raise ValueError("drivers of different dimensions cannot be stacked")
        self._steps = None
        if len(self.drivers) < 2:
            return
        if any(isinstance(x, ExchangeableDriver) for x in self.drivers):
            raise ValueError("exchangeable drivers are mixed one at a time, not stacked")
        atom_lists = [driver.atoms() for driver in self.drivers]
        order = sorted(range(len(atom_lists)), key=lambda i: -len(atom_lists[i]))
        self._inverse = np.argsort(order)
        self._steps = []  # per step: weights and mask bits of the drivers that have an s-th atom
        for s in range(len(atom_lists[order[0]])):
            atoms = [atom_lists[i][s] for i in order if len(atom_lists[i]) > s]
            self._steps.append((np.array([float(w) for _, w in atoms]),
                                _mask_bits([m for m, _ in atoms], self.drivers[0].d)))

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._steps is None:
            return np.stack([driver.mix(a, b) for driver in self.drivers])
        dtype = np.result_type(a, b, float)
        pair = np.stack([np.asarray(a, dtype), np.asarray(b, dtype)])  # pair[bit, j]
        out = np.zeros((len(self.drivers),) + pair.shape[2:], dtype)
        for weights, bits in self._steps:
            term = weights.reshape((-1,) + (1,) * (pair.ndim - 2)) * pair[bits[:, 0], 0]
            for j in range(1, bits.shape[1]):
                term *= pair[bits[:, j], j]
            out[: weights.size] += term
        return out[self._inverse]


def _atom_cdf(weights) -> np.ndarray:
    """``w / w.sum()``, its cumulative sum, divided by the last entry, as
    ``Generator.choice`` builds it."""
    weights = np.asarray(weights, dtype=float)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def pick_atoms(weights, v: np.ndarray) -> np.ndarray:
    """The atom each uniform picks: atom k when ``cdf[k-1] <= V < cdf[k]``."""
    return _atom_cdf(weights).searchsorted(v, side="right")


def atom_cuts(weights, sorted_v: np.ndarray) -> np.ndarray:
    """Where each atom's rows end in sorted uniforms: ``pick_atoms`` gives atom k to the
    rows ``cuts[k-1]:cuts[k]``, since ``cdf[k-1] <= V < cdf[k]`` is a contiguous run."""
    return sorted_v.searchsorted(_atom_cdf(weights), side="left")


def as_driver(obj) -> Driver:
    """Coerce a pmf-like object into a driver."""
    if isinstance(obj, (DenseDriver, AtomDriver, ExchangeableDriver)):
        return obj
    if isinstance(obj, BernoulliPmf):
        return DenseDriver(obj)
    if isinstance(obj, SumPmf):
        return ExchangeableDriver(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a driving distribution")


def driver_from_json(obj: dict) -> Driver:
    kind = json_field(obj, "type", str, "a string")
    if kind == "dense":
        return DenseDriver(BernoulliPmf.from_json(obj))
    if kind == "atoms":
        d = json_int(obj, "d")
        atoms = []
        for item in json_field(obj, "atoms", list, "a list"):
            bits = json_field(item, "x", str, "a bit string")
            if len(bits) != d or set(bits) - {"0", "1"}:
                raise ValueError(f"bad atom bit string {bits!r}")
            mask = sum(1 << j for j, ch in enumerate(bits) if ch == "1")
            atoms.append((mask, json_rational(item, "w")))
        return AtomDriver(d, tuple(atoms))
    if kind == "exchangeable":
        return ExchangeableDriver(SumPmf.from_json(json_field(obj, "sum", dict, "an object")))
    raise ValueError(f"unknown driver type {kind!r}")
