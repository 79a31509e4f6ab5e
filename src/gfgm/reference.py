"""Reference configurations and expected values for the reproduce command.

Each table bundles a portfolio configuration with the benchmark values the
implementation is expected to reproduce and a per-table tolerance.  The
reproduce command recomputes every cell, reports a diff and fails when any
cell lands outside its tolerance, which makes these tables the regression
anchor for the whole aggregation stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .aggregation import aggregate_discrete_general
from .bernoulli import BernoulliPmf
from .bounds import bounds_common_p, convex_bounds_fast, var_bounds_common_p
from .drivers import DenseDriver
from .margins import DiscreteMargin, ExponentialMargin, UniformMargin
from .measures import evaluate, frechet_var_bounds, std as std_measure

FGM_GRID_H = 5.0 / 2.0**15

# Extremal pmfs of the mean-5/2 sum class on {0..5}, in canonical order.
D5_EXTREMAL_PMFS = [
    ("1/6", "0", "0", "5/6", "0", "0"),
    ("3/8", "0", "0", "0", "5/8", "0"),
    ("1/2", "0", "0", "0", "0", "1/2"),
    ("0", "1/4", "0", "3/4", "0", "0"),
    ("0", "1/2", "0", "0", "1/2", "0"),
    ("0", "5/8", "0", "0", "0", "3/8"),
    ("0", "0", "1/2", "1/2", "0", "0"),
    ("0", "0", "3/4", "0", "1/4", "0"),
    ("0", "0", "5/6", "0", "0", "1/6"),
]

# The 12 vertices of the d=3 class with margins (1/2, 1/3, 2/3), in the
# labeling used by the final worked example (reverse-lexicographic entries).
EXAMPLE_FINAL_VERTICES = {
    "r1": ("0", "0", "0", "1/3", "1/2", "1/6", "0", "0"),
    "r2": ("0", "0", "1/3", "0", "1/6", "1/2", "0", "0"),
    "r3": ("0", "1/6", "0", "1/6", "1/2", "0", "0", "1/6"),
    "r4": ("0", "1/3", "0", "0", "1/6", "1/6", "1/3", "0"),
    "r5": ("0", "1/3", "0", "0", "1/3", "0", "1/6", "1/6"),
    "r6": ("0", "1/4", "1/12", "0", "5/12", "0", "0", "1/4"),
    "r7": ("1/6", "0", "1/6", "0", "0", "1/2", "1/6", "0"),
    "r8": ("1/6", "1/6", "0", "0", "0", "1/3", "1/3", "0"),
    "r9": ("1/6", "1/6", "0", "0", "1/3", "0", "0", "1/3"),
    "r10": ("1/3", "0", "0", "0", "0", "1/3", "1/6", "1/6"),
    "r11": ("1/3", "0", "0", "0", "1/6", "1/6", "0", "1/3"),
    "r12": ("1/4", "0", "0", "1/12", "0", "5/12", "1/4", "0"),
}
EXAMPLE_FINAL_P = ("1/2", "1/3", "2/3")

# Heterogeneous-margin counterexample: three drivers with margins 2/5 each,
# two of them sharing the same component-sum distribution.
COUNTEREXAMPLE_DRIVERS = {
    "f": ("0", "1/5", "1/5", "1/5", "2/5", "0", "0", "0"),
    "f'": ("1/5", "0", "2/5", "0", "0", "2/5", "0", "0"),
    "f''": ("0", "2/5", "1/5", "0", "1/5", "0", "1/5", "0"),
}
COUNTEREXAMPLE_CDFS = {
    "F1": (0.1, 0.2, 0.3, 1.0),
    "F2": (0.1, 0.4, 0.7, 1.0),
    "F3": (0.8, 1.0, 1.0, 1.0),
}


def example_final_margins() -> list[DiscreteMargin]:
    return [
        DiscreteMargin.from_power_cdf(0.2, 3, 1000),
        DiscreteMargin.from_power_cdf(0.1, 4, 1000),
        DiscreteMargin.from_power_cdf(0.3, 2, 1000),
    ]


def counterexample_margins() -> list[DiscreteMargin]:
    out = []
    for key in ("F1", "F2", "F3"):
        cdf = np.asarray(COUNTEREXAMPLE_CDFS[key])
        out.append(DiscreteMargin(np.diff(cdf, prepend=0.0)))
    return out


def example_final_driver(label: str) -> DenseDriver:
    return DenseDriver(BernoulliPmf(3, tuple(Fraction(v) for v in EXAMPLE_FINAL_VERTICES[label])))


def counterexample_driver(label: str) -> DenseDriver:
    return DenseDriver(BernoulliPmf(3, tuple(Fraction(v) for v in COUNTEREXAMPLE_DRIVERS[label])))


def d100_discrete_margin() -> DiscreteMargin:
    return DiscreteMargin.from_power_cdf(0.2, 3, 100)


_POINTS_D5 = [f"rD{k}" for k in range(1, 10)]

_BERNOULLI_D5_EXPECTED = {
    "var:0.8": [3, 4, 5, 3, 4, 5, 3, 4, 2],
    "es:0.8": [3, 4, 5, 3, 4, 5, 3, 4, 4.5],
    "entropic:0.1": [2.5584, 2.6803, 2.8093, 2.5362, 2.6121, 2.6927, 2.5125, 2.5387, 2.5667],
}
_BERNOULLI_D5_TOL = {"var:0.8": 1e-9, "es:0.8": 1e-9, "entropic:0.1": 5e-4}

_FGM_D5_EXPECTED = {
    "var:0.8": [3.0308, 3.3281, 3.4928, 3.0158, 3.1710, 3.2636, 2.9729, 3.0180, 3.0476],
    "es:0.8": [3.4627, 3.7345, 3.8401, 3.3641, 3.5161, 3.5846, 3.2753, 3.3228, 3.3477],
    "entropic:0.1": [2.5210, 2.5350, 2.5486, 2.5181, 2.5264, 2.5345, 2.5153, 2.5180, 2.5207],
}

_PS_D100 = ("1/3", "1/2", "2/3")

# (min ES, max ES, min entropic, max entropic) at alpha=0.95, gamma=0.001.
_CX_D100_EXPECTED = {
    "exp": {
        "1/3": (1191.2742, 1858.1846, 1003.9212, 1124.6343),
        "1/2": (1189.2721, 1702.8444, 1003.8215, 1125.0510),
        "2/3": (1192.3324, 1540.6192, 1003.9237, 1101.5259),
    },
    "discrete": {
        "1/3": (2152.595, 2858.955, 1555.710, 1888.303),
        "1/2": (2122.718, 3448.241, 1551.957, 2216.540),
        "2/3": (2019.207, 4440.057, 1546.627, 2843.312),
    },
}
_CX_D100_TOL = {"exp": 1e-2, "discrete": 5e-2}

# Rows: dependence-free lower bound, class min, class max, dependence-free upper.
_VAR_D100_EXPECTED = {
    "exp": {
        "lower": 842.3299,
        "min": {"1/3": 1149.7294, "1/2": 1147.0118, "2/3": 1150.2229},
        "max": {"1/3": 1791.3283, "1/2": 1645.0538, "2/3": 1488.2312},
        "upper": 3995.7323,
    },
    "discrete": {
        "lower": 1045.963,
        "min": {"1/3": 2016.0, "1/2": 1994.0, "2/3": 1960.0},
        "max": {"1/3": 2688.0, "1/2": 3258.0, "2/3": 4225.0},
        "upper": 9606.61,
    },
}
_VAR_D100_TOL = {
    "exp": {"lower": 1e-2, "min": 1e-2, "max": 1e-2, "upper": 1e-2},
    "discrete": {"lower": 0.5, "min": 1e-9, "max": 1e-9, "upper": 0.5},
}

_SUMS_D3_EXPECTED = {
    "f": [0.0080, 0.0338, 0.0640, 0.1328, 0.2467, 0.2592, 0.2312, 0.0242],
    "f'": [0.0032, 0.0249, 0.0602, 0.1556, 0.2636, 0.2569, 0.2004, 0.0352],
    "f''": [0.0029, 0.0214, 0.0549, 0.1588, 0.2798, 0.2521, 0.1976, 0.0324],
}
_SUMS_D3_VARIANCES = {"f": 2.0633, "f'": 1.8865}

_FINAL_D3_EXPECTED = {
    "var:0.95": [1219, 1532, 1360, 1342, 1403, 1479, 1561, 1493, 1567, 1618, 1643, 1535],
    "es:0.95": [
        1590.08, 1733.70, 1665.46, 1641.07, 1683.14, 1724.32,
        1802.17, 1771.05, 1824.07, 1888.55, 1906.84, 1818.89,
    ],
    "entropic:0.001": [
        555.98, 587.74, 566.80, 563.46, 570.51, 580.07,
        602.12, 590.22, 603.90, 622.97, 629.61, 601.55,
    ],
    "std": [
        473.23, 521.70, 488.85, 485.22, 494.70, 508.47,
        535.91, 518.49, 536.10, 558.13, 566.39, 531.66,
    ],
}


@dataclass(frozen=True)
class DiffCell:
    key: str
    expected: float
    computed: float
    tol: float

    @property
    def ok(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol


@dataclass(frozen=True)
class TableDiff:
    table_id: str
    cells: list[DiffCell]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    def failures(self) -> list[DiffCell]:
        return [c for c in self.cells if not c.ok]


def _point_cells(expected, labels, values, tol, by_point=False) -> list[DiffCell]:
    """A cell ``measure/label`` per measure of ``expected`` and point label, measures
    outer unless ``by_point``; ``expected``, ``values`` and ``tol`` are keyed by measure."""
    points = range(len(labels))
    keys = ([(m, i) for i in points for m in expected] if by_point
            else [(m, i) for m in expected for i in points])
    return [DiffCell(f"{m}/{labels[i]}", float(expected[m][i]), values[m][i], tol[m])
            for m, i in keys]


def _compute_bernoulli_d5() -> list[DiffCell]:
    report = bounds_common_p("bernoulli", 5, "1/2", list(_BERNOULLI_D5_EXPECTED))
    return _point_cells(_BERNOULLI_D5_EXPECTED, _POINTS_D5, report.values, _BERNOULLI_D5_TOL)


def _compute_fgm_d5() -> list[DiffCell]:
    report = bounds_common_p(UniformMargin(), 5, "1/2", list(_FGM_D5_EXPECTED), grid_h=FGM_GRID_H)
    return _point_cells(_FGM_D5_EXPECTED, _POINTS_D5, report.values,
                        dict.fromkeys(_FGM_D5_EXPECTED, 1e-2))


def _compute_cx_bounds_d100() -> list[DiffCell]:
    measures = ["es:0.95", "entropic:0.001"]
    cells = []
    for family in ("exp", "discrete"):
        margin = ExponentialMargin(0.1) if family == "exp" else d100_discrete_margin()
        for p in _PS_D100:
            report = convex_bounds_fast(margin, 100, p, measures)
            extrema = [(side, m, ends[m][0]) for m in measures
                       for side, ends in (("min", report.minima), ("max", report.maxima))]
            cells.extend(DiffCell(f"{family}/p={p}/{side} {m}", want, got, _CX_D100_TOL[family])
                         for (side, m, got), want in zip(extrema, _CX_D100_EXPECTED[family][p]))
    return cells


def _compute_var_bounds_d100() -> list[DiffCell]:
    cells = []
    for family in ("exp", "discrete"):
        margin = ExponentialMargin(0.1) if family == "exp" else d100_discrete_margin()
        expected = _VAR_D100_EXPECTED[family]
        tol = _VAR_D100_TOL[family]
        lower, upper = frechet_var_bounds(margin, 100, 0.95)
        cells.append(DiffCell(f"{family}/frechet-lower", expected["lower"], lower, tol["lower"]))
        cells.append(DiffCell(f"{family}/frechet-upper", expected["upper"], upper, tol["upper"]))
        for p in _PS_D100:
            lo, hi, _ = var_bounds_common_p(margin, 100, p, 0.95)
            cells.append(DiffCell(f"{family}/p={p}/min", expected["min"][p], lo, tol["min"]))
            cells.append(DiffCell(f"{family}/p={p}/max", expected["max"][p], hi, tol["max"]))
    return cells


def _compute_example_sums_d3() -> list[DiffCell]:
    margins = counterexample_margins()
    cells = []
    for label in ("f", "f'", "f''"):
        dist = aggregate_discrete_general(margins, counterexample_driver(label))
        expected = _SUMS_D3_EXPECTED[label]
        for k, target in enumerate(expected):
            got = float(dist.probs[k]) if k < dist.probs.size else 0.0
            cells.append(DiffCell(f"pmf[{label}]({k})", target, got, 1e-4))
        if label in _SUMS_D3_VARIANCES:
            cells.append(
                DiffCell(f"var[{label}]", _SUMS_D3_VARIANCES[label], std_measure(dist) ** 2, 1e-3)
            )
    return cells


def _compute_example_final_d3() -> list[DiffCell]:
    margins = example_final_margins()
    labels = list(EXAMPLE_FINAL_VERTICES)
    dists = [aggregate_discrete_general(margins, example_final_driver(label)) for label in labels]
    values = {m: [evaluate(dist, m) for dist in dists] for m in _FINAL_D3_EXPECTED}
    return _point_cells(_FINAL_D3_EXPECTED, labels, values, dict.fromkeys(values, 5e-2),
                        by_point=True)


_TABLES = {
    "bernoulli-d5": _compute_bernoulli_d5,
    "fgm-d5": _compute_fgm_d5,
    "cx-bounds-d100": _compute_cx_bounds_d100,
    "var-bounds-d100": _compute_var_bounds_d100,
    "example-sums-d3": _compute_example_sums_d3,
    "example-final-d3": _compute_example_final_d3,
}


def table_ids() -> list[str]:
    return list(_TABLES)


def diff_table(table_id: str) -> TableDiff:
    if table_id not in _TABLES:
        raise KeyError(f"unknown table {table_id!r}; known: {', '.join(_TABLES)}")
    return TableDiff(table_id, _TABLES[table_id]())
