"""Brute-force oracles: Riemann sums and seeded Monte Carlo."""

import numpy as np
import pytest

from wrenyi.densities import make_exponential, make_generalized_gaussian
from wrenyi.errors import InputError
from wrenyi.gaussian_forms import beta_law, gamma_law

from oracle import OracleConfig, clip_domain, cross_validate, mc_expectation, riemann


class TestRiemann:
    def test_linear(self):
        assert riemann(lambda x: x, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-6)

    def test_exponential_tail(self):
        cfg = OracleConfig()
        f = make_exponential(1.0)
        dom = clip_domain(f, cfg)
        assert riemann(lambda x: np.exp(-x), dom, cfg) == pytest.approx(1.0, abs=1e-5)

    def test_tilted_renyi_integral(self):
        # int e^{-x/2} e^{-2x} = 1/2.5 = 0.4.
        f = make_exponential(1.0)
        dom = clip_domain(f)
        val = riemann(lambda x: np.exp(-0.5 * x) * np.exp(-2.0 * x), dom)
        assert val == pytest.approx(0.4, abs=1e-6)

    def test_grid_doubling_improves(self, integrand_suite):
        coarse = OracleConfig(grid_points=200_000)
        fine = OracleConfig(grid_points=400_000)
        better, total = 0, 0
        for name, fn, dom, hints, exact in integrand_suite:
            if exact is None:
                continue
            e1 = abs(riemann(fn, dom, coarse) - exact)
            e2 = abs(riemann(fn, dom, fine) - exact)
            total += 1
            if e2 <= e1 + 1e-14:
                better += 1
        assert better >= total - 2  # allow noise on already-converged entries

    def test_config_floor(self):
        with pytest.raises(InputError):
            OracleConfig(grid_points=10)


class TestMonteCarlo:
    def test_constant(self):
        mean, se = mc_expectation(lambda z: np.ones_like(z), beta_law(2.0, 3.0))
        assert mean == 1.0 and se == 0.0

    def test_beta_mean(self):
        mean, se = mc_expectation(lambda z: z, beta_law(2.0, 3.0))
        assert abs(mean - 0.4) <= 3 * se

    def test_gamma_mean(self):
        mean, se = mc_expectation(lambda z: z, gamma_law(1.5))
        assert abs(mean - 1.5) <= 3 * se

    def test_deterministic_given_seed(self):
        cfg = OracleConfig(mc_draws=50_000, seed=123)
        a = mc_expectation(lambda z: z * z, gamma_law(2.0), cfg)
        b = mc_expectation(lambda z: z * z, gamma_law(2.0), cfg)
        assert a == b


class TestCrossValidate:
    def test_pass_report(self):
        rep = cross_validate("normalization", 1.0, 1.0 + 1e-7)
        assert rep.passed and rep.rel_diff <= 1e-5

    def test_fail_report(self):
        rep = cross_validate("broken", 1.0, 1.1)
        assert not rep.passed

    def test_mc_band(self):
        rep = cross_validate("mc", 1.0, 1.002, se=1e-3)
        assert rep.passed

    def test_gaussian_power_dual_path(self):
        from wrenyi.measures import weighted_renyi_power
        from wrenyi.weights import make_constant

        g = make_generalized_gaussian(2.0, 2.0)
        main = weighted_renyi_power(g, make_constant(1.0), 2.0).value
        dom = clip_domain(g)
        ref = 1.0 / riemann(lambda x: np.asarray(g.pdf(x)) ** 2, dom)
        assert cross_validate("N(G)", main, ref).passed
