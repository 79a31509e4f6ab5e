"""Risk measures on aggregate distributions, plus dependence-free quantile bounds.

Value-at-risk uses the generalized inverse inf{y : F(y) >= alpha}.  Expected
shortfall is computed through the stop-loss representation

    ES_a(Y) = VaR_a(Y) + E[(Y - VaR_a(Y))+] / (1 - a),

which coincides with the tail-quantile integral for every distribution,
including those with an atom at the quantile.  The entropic measure is
log E[exp(gamma Y)] / gamma, evaluated in log space so high-dimensional
mixtures do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from .distributions import AggregateDistribution

CONVEX_KINDS = frozenset({"es", "entropic", "std"})
KNOWN_KINDS = frozenset({"var", "es", "entropic", "std"})


@dataclass(frozen=True)
class Measure:
    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind in ("var", "es"):
            if self.param is None or not 0 < self.param < 1:
                raise ValueError(f"{self.kind} needs a level inside (0,1), got {self.param}")
        elif self.kind == "entropic":
            if self.param is None or not 0 < self.param < math.inf:
                raise ValueError(f"entropic needs a finite gamma > 0, got {self.param}")
        elif self.param is not None:
            raise ValueError("std takes no parameter")

    @property
    def label(self) -> str:
        """``kind:param``, the parameter as ``:g`` when that reads back as it, else its repr."""
        if self.param is None:
            return self.kind
        short = f"{self.param:g}"
        return f"{self.kind}:{short if float(short) == self.param else repr(self.param)}"

    @property
    def is_convex(self) -> bool:
        return self.kind in CONVEX_KINDS


def parse_measure(text: str) -> Measure:
    """Parse CLI-style measure strings: 'var:0.95', 'es:0.8', 'entropic:0.001', 'std'."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    if len(parts) == 1:
        return Measure(kind)
    if len(parts) == 2:
        return Measure(kind, float(parts[1]))
    raise ValueError(f"cannot parse measure {text!r}")


def var(dist: AggregateDistribution, alpha: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError(f"level must be inside (0,1), got {alpha}")
    return dist.quantile(alpha)


def es(dist: AggregateDistribution, alpha: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError(f"level must be inside (0,1), got {alpha}")
    v = dist.quantile(alpha)
    return v + dist.stop_loss(v) / (1.0 - alpha)


def entropic(dist: AggregateDistribution, gamma: float) -> float:
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return dist.log_mgf(gamma) / gamma


def std(dist: AggregateDistribution) -> float:
    return math.sqrt(dist.variance())


def evaluate(dist: AggregateDistribution, measure: Measure | str) -> float:
    if isinstance(measure, str):
        measure = parse_measure(measure)
    if measure.kind == "var":
        return var(dist, measure.param)
    if measure.kind == "es":
        return es(dist, measure.param)
    if measure.kind == "entropic":
        return entropic(dist, measure.param)
    return std(dist)


def frechet_var_bounds(margin, d: int, alpha: float) -> tuple[float, float]:
    """Dependence-free quantile bounds for a sum of d identical margins.

    Lower bound d * LTVaR_a(X) with LTVaR_a = (1/a) int_0^a VaR_u du, upper
    bound d * ES_a(X); both closed-form for the margin families here.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"level must be inside (0,1), got {alpha}")
    if not hasattr(margin, "ltvar") or not hasattr(margin, "es"):
        raise ValueError(f"margin {margin!r} does not expose tail quantities")
    return d * margin.ltvar(alpha), d * margin.es(alpha)
