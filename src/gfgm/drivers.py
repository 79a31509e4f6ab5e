"""Driving Bernoulli distributions behind a GFGM specification.

A copula in this family is determined by one multivariate Bernoulli
distribution.  Three interchangeable representations are supported:

* dense: full 2^d vector (small d),
* atoms: sparse list of (mask, weight) pairs (structured pmfs at any d),
* exchangeable: a sum distribution standing for the unique exchangeable pmf
  with that component sum (any d).

Masks use bit j-1 for coordinate j, matching the dense reverse-lexicographic
index.  All weights stay exact rationals; floats appear only in sampling and
in ``mix``.

Given the driver, the coordinates are independent, so the copula cdf, the
law of a heterogeneous sum and the Euler allocation vectors are all one
driver-weighted mixture of coordinatewise products.  Each representation
computes it with ``mix(a, b)``: dense and sparse drivers loop over their
atoms, the exchangeable driver uses an elementary-symmetric recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli import BernoulliPmf, as_fraction, format_fraction
from .sums import BlockPmf, SumPmf

_ATOM_EXPANSION_CAP = 20


@dataclass(frozen=True)
class DenseDriver:
    pmf: BernoulliPmf

    @property
    def d(self) -> int:
        return self.pmf.d

    def margins(self) -> tuple[Fraction, ...]:
        return self.pmf.margins()

    def sum_pmf(self) -> SumPmf:
        from .bernoulli import sum_pmf

        return sum_pmf(self.pmf)

    def atoms(self) -> list[tuple[int, Fraction]]:
        return self.pmf.atoms()

    def pair_joint11(self, j1: int, j2: int) -> Fraction:
        return _pair_from_atoms(self.atoms(), j1, j2)

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mix_atoms(self.atoms(), a, b)

    def sample_indicators(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _sample_from_atoms(self.atoms(), self.d, rng, n)

    def to_json(self) -> dict:
        return {"type": "dense", **self.pmf.to_json()}


@dataclass(frozen=True)
class AtomDriver:
    d: int
    atom_list: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((int(m), as_fraction(w)) for m, w in self.atom_list)
        if any(not 0 <= m < (1 << self.d) for m, _ in atoms):
            raise ValueError("atom mask outside {0,1}^d")
        if any(w < 0 for _, w in atoms) or sum((w for _, w in atoms), Fraction(0)) != 1:
            raise ValueError("atom weights must be a probability vector")
        object.__setattr__(self, "atom_list", atoms)

    @classmethod
    def from_blocks(cls, blocks: BlockPmf) -> "AtomDriver":
        return cls(blocks.d, tuple(blocks.atoms()))

    def margins(self) -> tuple[Fraction, ...]:
        out = []
        for j in range(self.d):
            out.append(sum((w for m, w in self.atom_list if (m >> j) & 1), Fraction(0)))
        return tuple(out)

    def sum_pmf(self) -> SumPmf:
        values = [Fraction(0)] * (self.d + 1)
        for m, w in self.atom_list:
            values[m.bit_count()] += w
        return SumPmf(self.d, tuple(values))

    def atoms(self) -> list[tuple[int, Fraction]]:
        return list(self.atom_list)

    def pair_joint11(self, j1: int, j2: int) -> Fraction:
        return _pair_from_atoms(self.atom_list, j1, j2)

    def mix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _mix_atoms(self.atom_list, a, b)

    def sample_indicators(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _sample_from_atoms(self.atom_list, self.d, rng, n)

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
        out = []
        for m in range(1 << self.d):
            k = m.bit_count()
            w = self.sum_dist.values[k]
            if w:
                out.append((m, w / math.comb(self.d, k)))
        return out

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
        weights = [float(values[k] / math.comb(self.d, k)) for k in range(top + 1)]
        return np.tensordot(weights, coeffs, axes=1)

    def sample_indicators(self, rng: np.random.Generator, n: int) -> np.ndarray:
        g = np.asarray(self.sum_dist.as_floats())
        g = g / g.sum()
        ks = rng.choice(self.d + 1, size=n, p=g)
        # Uniformly random positions for the ones: rank the rows of a uniform draw.
        order = np.argsort(rng.random((n, self.d)), axis=1)
        flags = np.arange(self.d)[None, :] < ks[:, None]
        out = np.zeros((n, self.d), dtype=np.uint8)
        np.put_along_axis(out, order, flags.astype(np.uint8), axis=1)
        return out

    def to_json(self) -> dict:
        return {"type": "exchangeable", "sum": self.sum_dist.to_json()}


Driver = DenseDriver | AtomDriver | ExchangeableDriver


def _pair_from_atoms(atoms, j1: int, j2: int) -> Fraction:
    b1, b2 = j1 - 1, j2 - 1
    return sum(
        (w for m, w in atoms if (m >> b1) & 1 and (m >> b2) & 1),
        Fraction(0),
    )


def _mix_atoms(atoms, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over atoms (mask, w) of w * prod_j (b[j] if bit j of mask else a[j])."""
    out = np.zeros(a.shape[1:], dtype=np.result_type(a, b, float))
    for mask, w in atoms:
        term = np.full(a.shape[1:], float(w), dtype=out.dtype)
        for j in range(a.shape[0]):
            term *= b[j] if (mask >> j) & 1 else a[j]
        out += term
    return out


def _sample_from_atoms(atoms, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    masks = [m for m, _ in atoms]
    weights = np.asarray([float(w) for _, w in atoms])
    weights = weights / weights.sum()
    bits = np.array([[(m >> j) & 1 for j in range(d)] for m in masks], dtype=np.uint8)
    idx = rng.choice(len(masks), size=n, p=weights)
    return bits[idx]


def as_driver(obj) -> Driver:
    """Coerce a pmf-like object into a driver."""
    if isinstance(obj, (DenseDriver, AtomDriver, ExchangeableDriver)):
        return obj
    if isinstance(obj, BernoulliPmf):
        return DenseDriver(obj)
    if isinstance(obj, BlockPmf):
        return AtomDriver.from_blocks(obj)
    if isinstance(obj, SumPmf):
        return ExchangeableDriver(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a driving distribution")


def driver_from_json(obj: dict) -> Driver:
    kind = obj.get("type")
    if kind == "dense":
        return DenseDriver(BernoulliPmf.from_json(obj))
    if kind == "atoms":
        d = int(obj["d"])
        atoms = []
        for item in obj["atoms"]:
            bits = item["x"]
            if len(bits) != d or set(bits) - {"0", "1"}:
                raise ValueError(f"bad atom bit string {bits!r}")
            mask = sum(1 << j for j, ch in enumerate(bits) if ch == "1")
            atoms.append((mask, as_fraction(item["w"])))
        return AtomDriver(d, tuple(atoms))
    if kind == "exchangeable":
        return ExchangeableDriver(SumPmf.from_json(obj["sum"]))
    raise ValueError(f"unknown driver type {kind!r}")
