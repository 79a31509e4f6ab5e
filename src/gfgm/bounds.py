"""Sharp risk-measure bounds by enumeration over extremal dependence structures.

Two enumeration routes:

* common parameter p, identical margins: the sum's law only depends on the
  driver through its component-sum pmf, so the analytic extremal points of
  the fixed-mean sum class are enumerated (works at any dimension) and read
  from row survival tables (discrete, uniform) or one law each (exp, Bernoulli),
* heterogeneous p (dimension <= 5): the vertices of the Bernoulli Fréchet
  class are enumerated exactly and aggregated together, one stacked driver
  mixture per block of vertices.

For convex measures (expected shortfall, entropic, standard deviation) the
extremes over the common-p class are attained at the convex-order minimum
and at the upper Fréchet sum; the engine verifies this against the full
enumeration and flags a violation as an internal error, which doubles as a
guard on the aggregation paths.  Value-at-risk is not convex and always goes
through full enumeration.

For heterogeneous margins the convex shortcut is never applied: equal driver
sums no longer force equal aggregate laws, so the convex-order transfer
breaks down (the engine exposes that counterexample in the tests).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .aggregation import ConditionalLaws, SplitTable, aggregate, aggregate_discrete_general
from .bernoulli import as_fraction, format_fraction, margin_vector
from .copula import SharedDraw
from .distributions import EmpiricalDistribution
from .drivers import DenseDriver
from .margins import DiscreteMargin, ExponentialMargin, Margin, UniformMargin
from .measures import Measure, evaluate, parse_measure
from .sums import extremal_points, max_convex_point, min_convex_point
from .vertices import enumerate_vertices

_CONVEX_CHECK_RTOL = 1e-9
# Each point's mixed-Erlang law drops its own tail mass, at most 1e-12.  A VaR or ES level
# whose 1 - alpha lies within this factor of the largest is refused: there a law may miss
# over 1/1000 of the tail the measure reads, a different share at each point, so the points
# cannot be compared.  With every mass at or below 1e-12, only 1 - alpha < 1e-9 is refused.
_TAIL_MASS_FACTOR = 1e3
# vertices x lattice length per stacked aggregation: 8 MB a float array, about 50 MB at peak
_STACK_NODES = 1 << 20


class ConvexBoundViolation(AssertionError):
    """Full enumeration disagreed with the convex-order shortcut: internal error."""


@dataclass
class RiskReport:
    """Per-extremal-point measure values with the identified extrema."""

    margin: str
    d: int
    p: str | list[str]
    measures: list[str]
    point_labels: list[str]
    values: dict[str, list[float]]
    minima: dict[str, tuple[float, str]]
    maxima: dict[str, tuple[float, str]]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "gfgm-risk-report/1",
            "margin": self.margin,
            "d": self.d,
            "p": self.p,
            "measures": self.measures,
            "points": self.point_labels,
            "values": self.values,
            "min": {m: {"value": v, "at": lab} for m, (v, lab) in self.minima.items()},
            "max": {m: {"value": v, "at": lab} for m, (v, lab) in self.maxima.items()},
            "metadata": self.metadata,
        }


def _normalize_measures(measures) -> list[Measure]:
    out = [parse_measure(m) if isinstance(m, str) else m for m in measures]
    if not out:
        raise ValueError("no measures requested")
    labels = [m.label for m in out]
    if len(set(labels)) < len(labels):
        raise ValueError(f"duplicate measures in {labels}: each label names one column")
    return out


def _margin_desc(margin) -> str:
    return margin if isinstance(margin, str) else margin.describe()


def _evaluate_points(margin, d: int, p, points, measures, grid_h):
    """Measure values per point, from one table of conditional laws for the call, and the
    grid step used (None off the uniform grid).  Fewer points than rows they touch (the fast
    path's two) mix spectra, one inverse FFT a point; more read the rows' survivals on
    lattice and grid margins (``ConditionalLaws.evaluate_points``) and mix rows otherwise."""
    laws = None if margin == "bernoulli" else ConditionalLaws(margin, d, p, grid_h)
    step = laws.h if isinstance(margin, UniformMargin) else None
    if laws is not None and len(points) < len({k for pt in points for k in (pt.k1, pt.k2)}):
        dists = aggregate(margin, d, points, p, grid_h=grid_h, laws=laws)
    elif laws is not None and laws.h is not None:
        return laws.evaluate_points(points, measures), step
    else:
        dists = (aggregate(margin, d, pt, p, grid_h=grid_h, laws=laws) for pt in points)
    rows, dropped = [], 0.0
    for dist in dists:
        rows.append([evaluate(dist, m) for m in measures])
        dropped = max(dropped, getattr(dist, "tail_mass", 0.0))
    for m in measures:
        if m.kind in ("var", "es") and 1.0 - m.param < _TAIL_MASS_FACTOR * dropped:
            raise ValueError(f"{m.label}: 1 - level = {1.0 - m.param:.3g} is within a factor "
                             f"{_TAIL_MASS_FACTOR:g} of the tail mass {dropped:.3g} that the "
                             "exponential laws drop, too far out to compare the points")
    return rows, step


def _report(margin, d, p, measures, labels, rows, metadata, fixed=False) -> RiskReport:
    """Report with extrema by value, or at the first and last point when ``fixed``."""
    values = {m.label: [row[i] for row in rows] for i, m in enumerate(measures)}
    minima, maxima = {}, {}
    for label, vals in values.items():
        imin, imax = (0, len(vals) - 1) if fixed else (int(np.argmin(vals)), int(np.argmax(vals)))
        minima[label], maxima[label] = (vals[imin], labels[imin]), (vals[imax], labels[imax])
    return RiskReport(margin, d, p, [m.label for m in measures], labels, values, minima, maxima,
                      metadata)


def bounds_common_p(margin, d: int, p, measures, grid_h: float | None = None) -> RiskReport:
    """Full enumeration over the analytic extremal points of the sum class.

    ``margin`` is a margin object or the string "bernoulli" (measure the
    indicator sums themselves).  For convex measures the minimum must land on
    the convex-order smallest point and the maximum on the upper Fréchet
    point; a mismatch raises ConvexBoundViolation.
    """
    p = as_fraction(p)
    measures = _normalize_measures(measures)
    points = extremal_points(d, p)
    labels = [pt.label for pt in points]
    t0 = time.perf_counter()
    rows, grid_h = _evaluate_points(margin, d, p, points, measures, grid_h)
    metadata = {"extremal_points": len(points), "runtime_s": round(time.perf_counter() - t0, 6),
                "grid_h": grid_h, "path": "common-p"}
    report = _report(_margin_desc(margin), d, format_fraction(p), measures, labels, rows, metadata)

    lo_idx = min_convex_point(d, p).index - 1
    hi_idx = max_convex_point(d, p).index - 1
    for m in (m for m in measures if m.is_convex):
        lo, hi, vals = report.minima[m.label], report.maxima[m.label], report.values[m.label]
        slack = _CONVEX_CHECK_RTOL * max(1.0, abs(lo[0]), abs(hi[0]))
        if lo[0] < vals[lo_idx] - slack:
            raise ConvexBoundViolation(
                f"{m.label}: minimum {lo} undercuts the convex-order "
                f"smallest point {labels[lo_idx]} ({vals[lo_idx]})"
            )
        if hi[0] > vals[hi_idx] + slack:
            raise ConvexBoundViolation(
                f"{m.label}: maximum {hi} exceeds the upper Fréchet "
                f"point {labels[hi_idx]} ({vals[hi_idx]})"
            )
    return report


def var_bounds_common_p(margin, d: int, p, alpha: float, grid_h: float | None = None):
    """(min, max, attaining labels) of the alpha-quantile over the class."""
    measure = Measure("var", alpha)
    report = bounds_common_p(margin, d, p, [measure], grid_h=grid_h)
    lo, lo_at = report.minima[measure.label]
    hi, hi_at = report.maxima[measure.label]
    return lo, hi, (lo_at, hi_at)


def convex_bounds_fast(margin, d: int, p, measures, grid_h: float | None = None) -> RiskReport:
    """Bounds for convex measures from the two distinguished extremal points only."""
    p = as_fraction(p)
    measures = _normalize_measures(measures)
    bad = [m.label for m in measures if not m.is_convex]
    if bad:
        raise ValueError(f"fast path is restricted to convex measures; refused: {bad}")
    t0 = time.perf_counter()
    points = [min_convex_point(d, p), max_convex_point(d, p)]
    labels = [pt.label for pt in points]
    rows, grid_h = _evaluate_points(margin, d, p, points, measures, grid_h)
    metadata = {"extremal_points": 2, "runtime_s": round(time.perf_counter() - t0, 6),
                "grid_h": grid_h, "path": "convex-fast"}
    return _report(_margin_desc(margin), d, format_fraction(p), measures, labels, rows, metadata,
                   fixed=True)


def bounds_general_p(
    margins: list[Margin], p_vector, measures, mc_n: int = 10**6, seed: int = 0
) -> RiskReport:
    """Bounds by exact vertex enumeration for heterogeneous margin parameters.

    Discrete margins aggregate exactly, all vertices of a block in one
    ``aggregate_discrete_general`` call.  Continuous margins fall back to
    seeded Monte Carlo with ``mc_n`` draws per vertex, all from one
    ``SharedDraw`` of the call's seed: the vertices share U0 and U1 and
    differ only in their atoms (common random numbers), and each vertex's
    values equal those of ``sample_x`` for that vertex with the call's seed.
    Standard errors of the mean go to the metadata.  An entropic gamma at or
    above an exponential margin's rate is refused.  Dimensions above the
    vertex cap are refused: use the common-p path instead.
    """
    pv = margin_vector(p_vector)
    d = len(pv)
    if len(margins) != d:
        raise ValueError(f"need {d} margins, got {len(margins)}")
    measures = _normalize_measures(measures)
    for margin in margins:
        if isinstance(margin, ExponentialMargin):  # S >= X_j, so its mgf diverges with X_j's
            for m in measures:
                if m.kind == "entropic":
                    margin.check_mgf(m.param)
    vertices = enumerate_vertices(pv)
    labels = [sys.intern(f"v{i + 1}") for i in range(len(vertices))]  # shared across reports
    all_discrete = all(isinstance(m, DiscreteMargin) for m in margins)
    t0 = time.perf_counter()
    rows = []
    mc_se = []
    if all_discrete:  # one split table, one stacked mixture per block of vertices
        table = SplitTable(margins, pv)
        block = max(1, _STACK_NODES // table.length)
        for start in range(0, len(vertices), block):
            drivers = [DenseDriver(v) for v in vertices[start:start + block]]
            for dist in aggregate_discrete_general(margins, drivers, table=table):
                rows.append([evaluate(dist, m) for m in measures])
    else:
        draw = SharedDraw(pv, margins, mc_n, seed)
        for vertex in vertices:
            dist = EmpiricalDistribution(draw.sums(DenseDriver(vertex)))
            mc_se.append(math.sqrt(dist.variance()) / math.sqrt(mc_n))
            rows.append([evaluate(dist, m) for m in measures])
    metadata = {
        "vertices": len(vertices),
        "runtime_s": round(time.perf_counter() - t0, 6),
        "path": "vertex-enumeration",
        "exact": all_discrete,
    }
    if not all_discrete:
        metadata["mc_n"] = mc_n
        metadata["seed"] = seed
        metadata["mean_standard_errors"] = mc_se
    return _report(",".join(_margin_desc(m) for m in margins), d,
                   [format_fraction(q) for q in pv], measures, labels, rows, metadata)
