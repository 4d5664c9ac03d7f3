"""Shared fixtures: the catalog snapshot and the fixed integrand suite."""

import math

import mpmath as mp
import numpy as np
import pytest

from wrenyi.densities import (
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tent,
)
from wrenyi.weights import make_constant, make_exp_linear, make_power


@pytest.fixture(scope="session")
def catalog():
    return {
        "exp1": make_exponential(1.0),
        "exp2": make_exponential(2.0),
        "laplace": make_laplace(1.0),
        "tent": make_tent(),
        "g22": make_generalized_gaussian(2.0, 2.0),
        "g21": make_generalized_gaussian(2.0, 1.0),
        "g12": make_generalized_gaussian(1.0, 2.0),
        "g2_08": make_generalized_gaussian(2.0, 0.8),
        "g0_2": make_generalized_gaussian(0.0, 2.0),
        "uniform": make_generalized_gaussian(math.inf, 2.0),
    }


@pytest.fixture(scope="session")
def weights_catalog():
    return {
        "one": make_constant(1.0),
        "e01": make_exp_linear(0.1),
        "em05": make_exp_linear(-0.5),
        "absx": make_power(1.0),
        "x2": make_power(2.0),
    }


@pytest.fixture(scope="session")
def bumpy_table():
    """Nodes and values of an n-node table shaped like the benchmark's:
    a positive bump, zero at both ends, with 0 among the nodes for odd n."""

    def make(n: int = 25):
        xs = np.linspace(-2.0, 2.0, n)
        return xs, (1.0 - (xs / 2.0) ** 2) * (1.0 + 0.2 * np.cos(1.7 * xs))

    return make


@pytest.fixture
def table_csv(tmp_path, bumpy_table):
    """Path of the 25-node ``bumpy_table`` written as a two-column CSV."""
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack(bumpy_table()), delimiter=",")
    return str(path)


# Fixed 20-integrand suite shared by the quadrature tests and the
# oracle-equivalence acceptance criterion.  Entries: (name, fn, domain,
# singularity hints, exact value or None).
INTEGRAND_SUITE = [
    ("const", lambda x: np.ones_like(x), (0.0, 1.0), (), 1.0),
    ("linear", lambda x: x, (0.0, 1.0), (), 0.5),
    ("poly5", lambda x: 6 * x**5 - x**2, (0.0, 2.0), (), 64.0 - 8.0 / 3.0),
    ("cosine", lambda x: np.cos(x), (0.0, math.pi / 2), (), 1.0),
    ("runge", lambda x: 1.0 / (1.0 + 25 * x * x), (-1.0, 1.0), (), 2 * math.atan(5.0) / 5.0),
    ("abskink", lambda x: np.abs(x), (-1.0, 2.0), (0.0,), 2.5),
    ("tentpdf", lambda x: np.maximum(1 - np.abs(x), 0.0), (-1.0, 1.0), (0.0,), 1.0),
    ("quadpdf", lambda x: 0.75 * np.maximum(1 - x * x, 0.0), (-1.0, 1.0), (), 1.0),
    ("sqrt", lambda x: np.sqrt(x), (0.0, 1.0), (), 2.0 / 3.0),
    ("logmild", lambda x: np.log(np.maximum(x, 1e-300)), (0.0, 1.0), (0.0,), -1.0),
    ("gauss", lambda x: np.exp(-x * x) / math.sqrt(math.pi), (-math.inf, math.inf), (), 1.0),
    ("gauss_x2", lambda x: x * x * np.exp(-x * x), (-math.inf, math.inf), (), math.sqrt(math.pi) / 2),
    ("expdecay", lambda x: np.exp(-x), (0.0, math.inf), (), 1.0),
    ("gamma3", lambda x: 0.5 * x * x * np.exp(-x), (0.0, math.inf), (), 1.0),
    ("laplacepdf", lambda x: 0.5 * np.exp(-np.abs(x)), (-math.inf, math.inf), (0.0,), 1.0),
    ("heavytail", lambda x: (1 + 0.2 * np.abs(x) ** 2) ** (1 / (0.8 - 1.0)), (-math.inf, math.inf), (), None),
    ("expcos", lambda x: np.exp(-x) * np.cos(x), (0.0, math.inf), (), 0.5),
    ("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -600, 600))) * np.exp(-np.abs(x)), (-math.inf, math.inf), (0.0,), 1.0),
    ("bump", lambda x: np.where(np.abs(x) < 1, np.exp(-1.0 / np.maximum(1 - x * x, 1e-300)), 0.0), (-1.0, 1.0), (), None),
    ("gg_15", lambda x: np.maximum(1 - 0.5 * np.abs(x) ** 1.5, 0.0) ** 2.0, (-2.0 ** (2.0 / 3.0), 2.0 ** (2.0 / 3.0)), (0.0,), None),
]


@pytest.fixture(scope="session")
def integrand_suite():
    return INTEGRAND_SUITE


# 30-digit closed forms of F for two weighted sources without an
# analytic CDF in the package (both kinked at 0).
def _expw_laplace_cdf(x):
    # pdf proportional to exp(-|x| + 0.2 x) / 2
    g = mp.mpf("0.2")
    z = (1 / (1 - g) + 1 / (1 + g)) / 2
    if x <= 0:
        return mp.exp((1 + g) * x) / (2 * (1 + g)) / z
    return (1 / (2 * (1 + g)) - mp.expm1(-(1 - g) * x) / (2 * (1 - g))) / z


def _abspoly_laplace_cdf(x):
    # pdf proportional to (1 + 0.5 |x|) exp(-|x| / 0.9) / 1.8
    b, c = mp.mpf("0.9"), mp.mpf("0.5")
    if x > 0:
        return 1 - _abspoly_laplace_cdf(-x)
    return mp.exp(x / b) * (1 + c * (b - x)) / (2 * (1 + c * b))


def _abspoly_laplace_pdf(x):
    b, c = mp.mpf("0.9"), mp.mpf("0.5")
    return (1 + c * abs(x)) * mp.exp(-abs(x) / b) / (2 * b * (1 + c * b))


def _expw_laplace_pdf(x):
    g = mp.mpf("0.2")
    z = (1 / (1 - g) + 1 / (1 + g)) / 2
    return mp.exp(-abs(x) + g * x) / (2 * z)


class WeightedOracle:
    """F and F^{-1} of one weighted source at 30 digits."""

    def __init__(self, cdf, pdf):
        self._cdf, self._pdf = cdf, pdf

    def cdf(self, x):
        with mp.workdps(30):
            return float(self._cdf(mp.mpf(float(x))))

    def quantile(self, q, start):
        """The root of F(x) = q by Newton's method from ``start``."""
        with mp.workdps(30):
            q, x = mp.mpf(float(q)), mp.mpf(float(start))
            for _ in range(60):
                step = (self._cdf(x) - q) / self._pdf(x)
                x -= step
                if abs(step) <= mp.mpf(10) ** -25 * max(1, abs(x)):
                    break
            assert abs(self._cdf(x) - q) <= mp.mpf(10) ** -25 * q
            return float(x)


WEIGHTED_ORACLES = {
    "weighted:laplace:1;expw:0.2": WeightedOracle(_expw_laplace_cdf, _expw_laplace_pdf),
    "weighted:laplace:0.9;abspoly:1,0.5": WeightedOracle(
        _abspoly_laplace_cdf, _abspoly_laplace_pdf
    ),
}


@pytest.fixture(scope="session")
def weighted_oracles():
    return WEIGHTED_ORACLES
