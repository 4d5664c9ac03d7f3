"""Weighted Renyi entropy measures, generalized Gaussian densities and
numerical verification of the associated moment-entropy, Fisher
information and Cramer-Rao bounds."""

from .densities import (
    Density,
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tabulated,
    make_tent,
    make_weighted_density,
    parse_density,
    scale_density,
)
from .errors import (
    DomainError,
    EvaluationError,
    InputError,
    UnboundedError,
    WrenyiError,
)
from .measures import (
    MeasureValue,
    expectation,
    fisher_information,
    generalized_deviation,
    generalized_moment,
    relative_renyi_entropy,
    relative_renyi_power,
    relative_weighted_entropy,
    weighted_entropy,
    weighted_fisher_information,
    weighted_renyi_entropy,
    weighted_renyi_power,
)
from .weights import (
    WeightFunction,
    antiderivatives,
    compose_with_map,
    derive_phi_star,
    derive_rho12,
    derive_rho_s,
    make_abs_polynomial,
    make_constant,
    make_density_polynomial,
    make_density_power,
    make_exp_linear,
    make_power,
    parse_weight,
)

__version__ = "0.1.0"
