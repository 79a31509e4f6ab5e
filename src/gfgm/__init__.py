"""Sharp risk-measure bounds for sums of risks with generalized FGM dependence.

The copula family is driven by a multivariate Bernoulli distribution; the
class of such copulas (and of joint laws built from them) is a convex
polytope, so bounds over the class reduce to enumeration of extremal points.
This package provides the exact polytope layer (Bernoulli pmfs, sum-class
extremal points, vertex enumeration), the copula itself with samplers, FFT
and mixed-Erlang aggregation of the portfolio sum, risk measures with sharp
bounds, and Euler capital allocation.
"""

from .aggregation import aggregate, aggregate_discrete_general
from .allocation import (
    allocation_report,
    ces_alpha,
    cstd,
    expected_allocation,
    expected_allocation_all,
    expected_contribution,
)
from .bernoulli import (
    BernoulliPmf,
    as_fraction,
    comonotone_pmf,
    countermonotone_pmf,
    covariance_bounds,
    exchangeable_lift,
    format_fraction,
    independence_pmf,
    margin_vector,
    nu_coefficient,
    nu_coefficients,
    pair_covariance,
    sum_pmf,
    validate_membership,
)
from .bounds import (
    ConvexBoundViolation,
    RiskReport,
    bounds_common_p,
    bounds_general_p,
    convex_bounds_fast,
    var_bounds_common_p,
)
from .copula import (
    GfgmSpec,
    conditional_cdfs,
    copula_cdf,
    pearson_x,
    sample_u,
    sample_x,
    spearman_bounds,
    spearman_rho,
)
from .distributions import (
    EmpiricalDistribution,
    GridDistribution,
    LatticeDistribution,
    MixedErlangDistribution,
)
from .drivers import (
    AtomDriver,
    BlockConstructionError,
    DenseDriver,
    ExchangeableDriver,
    as_driver,
    driver_from_json,
    sigma_cx_smallest_blocks,
)
from .margins import (
    DiscreteMargin,
    ExponentialMargin,
    QuantileMargin,
    UniformMargin,
    ZPair,
    margin_from_json,
)
from .measures import entropic, es, evaluate, frechet_var_bounds, parse_measure, std, var
from .sums import (
    ExtremalSumPoint,
    SumPmf,
    convex_order_leq,
    count_extremal,
    extremal_points,
    max_convex,
    min_convex,
)
from .vertices import EnumerationCapError, NotInPolytopeError, decompose, enumerate_vertices

__version__ = "0.1.0"
