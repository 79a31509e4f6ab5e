"""Seeded request lists for the three benchmark workloads.

A request is a plain, hashable description (a tuple of strings and numbers),
so the same seed gives an identical list and the list can be compared
without importing the library.  ``materialize`` turns a description into the
library call it stands for; that is the only place that builds library
objects.

Requests come in blocks.  Each block of a workload has the same make-up
(families, sizes, request kinds), and a run executes whole blocks, which
keeps that make-up intact whatever the run length.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("common-p-full", "convex-fast", "hetero-portfolio")

# p values with small denominators.
P_SET = ("1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5")

# The d=100 discrete margin of the paper: F(k) = 1 - a + a (k/n)^c.
PAPER_DISCRETE = (0.2, 3.0, 100)
PAPER_EXP_RATE = 0.1

# The six paper inputs of the cx-bounds-d100 reference table.
CX_D100_MEASURES = ("es:0.95", "entropic:0.001")
CX_D100_CALLS = tuple(
    (family, 100, p, CX_D100_MEASURES) for family in ("exp", "discrete") for p in ("1/3", "1/2", "2/3")
)

# Request costs depend on d and p unevenly (FFT lengths step at powers of
# two, and deep powers of small spectra run into subnormal arithmetic), so
# the common-p and convex workloads fix their (family, d, p) grids and the
# seed draws the levels alpha and gamma and the order.  Two seeds then put
# the same load on the program while asking it different questions.

# common-p-full: three (d, p) strata per family, one stratum per block, in
# turn.  The per-point work of exp and uniform margins is four to six times
# that of the discrete one, so the discrete strata sit higher.  Every request
# has at least 64 extremal points, so the engine's worker pool is always in
# play.  Larger d would leave a 25-second run too few requests for a tail
# percentile.
COMMON_STRATA = {
    "exp": ((16, "2/3"), (18, "1/2"), (20, "2/5")),
    "uniform": ((16, "2/3"), (18, "1/2"), (20, "2/5")),
    "discrete": ((28, "2/3"), (34, "1/2"), (40, "2/5")),
}

# convex-fast: a request is a sweep of convex_bounds_fast over d for one
# family and p.  Single calls take milliseconds, so the tail of a run of them
# would be set by scheduler noise rather than by the program.
CONVEX_DS = tuple(range(20, 201, 10))
CONVEX_PS = ("1/3", "1/2", "2/3")

HETERO_MC_N = 20_000

# On discrete (lattice) margins the FFT aggregation loses the entropic
# measure once gamma * d passes about 0.22 at d = 30..200 (the fft-entropic
# defect, see checks.py), so the seed draws gamma * d for them from this
# range and every request of the stream has a correct answer.  The defect is
# still run and checked once in every run, by the probes below.
DISCRETE_GAMMA_D = (0.02, 0.15)

# Fixed requests with documented wrong answers, run and checked once per run
# after the timed phase and reported apart from the stream: the six paper
# inputs of the cx-bounds-d100 table (three printed cells are wrong), and the
# fft-entropic defect at d=60, p=1/3, gamma=0.01 on both engines.
FFT_ENTROPIC_MEASURES = ("var:0.95", "es:0.95", "entropic:0.01", "std")
PROBES = {
    "common-p-full": (("common", "discrete", 60, "1/3", FFT_ENTROPIC_MEASURES),),
    "convex-fast": (
        ("convex", CX_D100_CALLS),
        ("convex", (("discrete", 60, "1/3", FFT_ENTROPIC_MEASURES[1:]),)),
    ),
    "hetero-portfolio": (),
}


def _alpha(rng: random.Random) -> float:
    return round(rng.uniform(0.9, 0.99), 3)


def _gamma(rng: random.Random) -> float:
    return round(rng.uniform(0.001, 0.01), 4)


def _gamma_d(rng: random.Random) -> float:
    return round(rng.uniform(*DISCRETE_GAMMA_D), 4)


def _levels(rng: random.Random, kinds: tuple[str, ...], a: float | None = None,
            g: float | None = None) -> tuple[str, ...]:
    a = _alpha(rng) if a is None else a
    g = _gamma(rng) if g is None else g
    return tuple({"var": f"var:{a:g}", "es": f"es:{a:g}", "entropic": f"entropic:{g:.4g}",
                  "std": "std"}[k] for k in kinds)


def _common_block(rng: random.Random, block: int) -> list[tuple]:
    out = []
    for family, strata in COMMON_STRATA.items():
        d, p = strata[block % len(strata)]
        g = _gamma_d(rng) / d if family == "discrete" else None
        out.append(("common", family, d, p, _levels(rng, ("var", "es", "entropic", "std"), g=g)))
    rng.shuffle(out)
    return out


def _convex_block(rng: random.Random) -> list[tuple]:
    kinds = ("es", "entropic", "std")
    out = []
    for family in ("exp", "uniform", "discrete"):
        for p in CONVEX_PS:
            if family == "discrete":
                a, gd = _alpha(rng), _gamma_d(rng)
                calls = tuple((family, d, p, _levels(rng, kinds, a, gd / d)) for d in CONVEX_DS)
            else:
                levels = _levels(rng, kinds)
                calls = tuple((family, d, p, levels) for d in CONVEX_DS)
            out.append(("convex", calls))
    rng.shuffle(out)
    return out


def _p_vector(rng: random.Random, d: int) -> tuple[str, ...]:
    return tuple(rng.choice(P_SET) for _ in range(d))


def _discrete_params(rng: random.Random, d: int, n: int) -> tuple[tuple[float, float, int], ...]:
    return tuple(
        (round(rng.uniform(0.1, 0.3), 3), round(rng.uniform(2.0, 4.0), 2), n) for _ in range(d)
    )


def _random_atoms(rng: random.Random, d: int, count: int) -> tuple[tuple[int, int], ...]:
    """``count`` distinct masks with integer weights; every coordinate is on
    in some atom and off in another, so every margin lies strictly inside (0,1)."""
    full = (1 << d) - 1
    while True:
        masks = rng.sample(range(1, full), count)
        on = off = 0
        for m in masks:
            on |= m
            off |= full & ~m
        if on == full and off == full:
            return tuple((m, rng.randint(1, 4)) for m in masks)


def _hetero_block(rng: random.Random) -> list[tuple]:
    kinds = ("var", "es", "entropic", "std")
    out = []
    for _ in range(3):
        out.append(("general", _p_vector(rng, 3), _discrete_params(rng, 3, 100), _levels(rng, kinds)))
    out.append(("general", _p_vector(rng, 4), _discrete_params(rng, 4, 100), _levels(rng, kinds)))
    for _ in range(2):
        rates = tuple(round(rng.uniform(0.05, 0.2), 3) for _ in range(3))
        out.append(("general-mc", _p_vector(rng, 3), rates, _levels(rng, kinds), rng.randrange(1 << 30)))
    d = rng.randint(8, 12)
    out.append(
        ("allocation", "exchangeable", d, rng.choice(P_SET), _discrete_params(rng, 1, 50) * d,
         _alpha(rng))
    )
    d = rng.randint(10, 14)
    out.append(
        ("allocation", "atoms", d, _random_atoms(rng, d, rng.randint(16, 32)),
         _discrete_params(rng, d, 50), _alpha(rng))
    )
    rng.shuffle(out)
    return out


class RequestStream:
    """Endless, seeded sequence of request blocks for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self._block = 0

    def next_block(self) -> list[tuple]:
        b = self._block
        self._block += 1
        if self.workload == "common-p-full":
            return _common_block(self._rng, b)
        if self.workload == "convex-fast":
            return _convex_block(self._rng)
        return _hetero_block(self._rng)


def request_list(workload: str, seed: int, blocks: int) -> list[tuple]:
    stream = RequestStream(workload, seed)
    return [req for _ in range(blocks) for req in stream.next_block()]


class Materializer:
    """Builds library inputs for request descriptions; margins are shared."""

    def __init__(self, gfgm):
        self.gfgm = gfgm
        self.exp = gfgm.ExponentialMargin(PAPER_EXP_RATE)
        self.uniform = gfgm.UniformMargin()
        self.discrete = gfgm.DiscreteMargin.from_power_cdf(*PAPER_DISCRETE)
        self._discrete_cache: dict[tuple, object] = {PAPER_DISCRETE: self.discrete}

    def family(self, name: str):
        return {"exp": self.exp, "uniform": self.uniform, "discrete": self.discrete}[name]

    def discrete_margin(self, params: tuple[float, float, int]):
        if params not in self._discrete_cache:
            self._discrete_cache[params] = self.gfgm.DiscreteMargin.from_power_cdf(*params)
        return self._discrete_cache[params]

    def driver(self, req: tuple):
        g = self.gfgm
        _, kind, d, spec = req[:4]
        if kind == "exchangeable":
            return g.ExchangeableDriver(g.min_convex(d, Fraction(spec)))
        total = sum(w for _, w in spec)
        return g.AtomDriver(d, tuple((m, Fraction(w, total)) for m, w in spec))

    def build(self, req: tuple) -> list[tuple]:
        """The library calls of one request, as (function name, args, kwargs)."""
        kind = req[0]
        if kind == "common":
            _, family, d, p, measures = req
            return [("bounds_common_p", (self.family(family), d, Fraction(p), list(measures)), {})]
        if kind == "convex":
            return [("convex_bounds_fast", (self.family(family), d, Fraction(p), list(measures)), {})
                    for family, d, p, measures in req[1]]
        if kind == "general":
            _, pv, params, measures = req
            margins = [self.discrete_margin(x) for x in params]
            return [("bounds_general_p", (margins, list(pv), list(measures)), {})]
        if kind == "general-mc":
            _, pv, rates, measures, seed = req
            margins = [self.gfgm.ExponentialMargin(r) for r in rates]
            kwargs = {"mc_n": HETERO_MC_N, "seed": seed}
            return [("bounds_general_p", (margins, list(pv), list(measures)), kwargs)]
        if kind == "allocation":
            margins = [self.discrete_margin(x) for x in req[4]]
            return [("allocation_report", (self.driver(req), margins, req[5]), {})]
        raise ValueError(f"unknown request kind {kind!r}")
