"""Semi-closed generalized-Gaussian measures vs direct quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest

from wrenyi.densities import make_generalized_gaussian
from wrenyi.errors import DomainError, InputError
from wrenyi.gaussian_forms import (
    beta_law,
    case_laws,
    gamma_law,
    gaussian_measures,
    lambda_bar,
    lambda_tilde,
    select_case,
    theta,
    upsilon,
    verify_identity,
)
from wrenyi.measures import (
    generalized_deviation,
    weighted_fisher_information,
    weighted_renyi_power,
)
from wrenyi.numerics import Value
from wrenyi.weights import make_constant, make_exp_linear, make_power

from oracle import OracleConfig, mc_expectation

ONE = make_constant(1.0)
E01 = make_exp_linear(0.1)
E01_QUAD = replace(E01, terms=None)
ABSX = make_power(1.0)
X2 = make_power(2.0)

MC = OracleConfig(mc_draws=1_000_000, seed=42)


class TestCaseSelection:
    def test_regimes(self):
        assert select_case(2.0, 2.0) == "p>1"
        assert select_case(2.0, 0.8) == "p<1"
        assert select_case(3.0, 1.0) == "p=1"
        assert select_case(0.0, 2.0) == "alpha=0"
        assert select_case(math.inf, 0.5) == "alpha=inf"

    def test_out_of_regime_rejected(self):
        with pytest.raises(InputError):
            select_case(2.0, 0.2)  # p <= 1/(1+alpha)
        with pytest.raises(InputError):
            select_case(0.0, 1.0)

    def test_law_shapes(self):
        laws = case_laws(2.0, 2.0)
        assert laws["Z"].shape1 == pytest.approx(3.0)
        assert laws["Z"].shape2 == pytest.approx(0.5)
        assert laws["Y"].shape1 == pytest.approx(2.0)
        assert laws["Y"].shape2 == pytest.approx(1.5)
        laws = case_laws(2.0, 0.8)
        assert laws["Z"].shape1 == pytest.approx((0.8 * 3 - 1) / (2 * 0.2))
        laws = case_laws(2.0, 1.0)
        assert laws["W"].shape1 == pytest.approx(1.5)
        assert laws["Wbar"].shape1 == pytest.approx(0.5)
        laws = case_laws(0.0, 2.0)
        assert laws["X"].shape1 == pytest.approx(3.0)
        assert laws["Xtilde"].shape1 == pytest.approx(2.0)


class TestAuxiliaryExpectations:
    def test_constant_weight_gives_two(self):
        assert lambda_tilde(ONE, 2.0, 2.0, beta_law(3.0, 0.5)).value == pytest.approx(
            2.0, abs=1e-10
        )
        assert theta(ONE, 2.0, gamma_law(1.5)).value == pytest.approx(2.0, abs=1e-10)
        assert upsilon(ONE, gamma_law(3.0)).value == pytest.approx(2.0, abs=1e-10)

    def test_lambda_tilde_even_symmetry(self):
        # For even phi both summands coincide.
        law = beta_law(3.0, 0.5)
        lt = lambda_tilde(X2, 2.0, 2.0, law)
        half = law.expectation(lambda z: (1.0 - z) / (2.0 - 1.0))
        assert lt.value == pytest.approx(2 * half.value, rel=1e-10)

    def test_theta_quadratic_weight_gamma_mean(self):
        # Theta with phi = x^2 and alpha = 2 is 2 E[W] for W ~ Gamma(3/2).
        val = theta(X2, 2.0, gamma_law(1.5))
        assert val.value == pytest.approx(3.0, rel=1e-10)

    def test_beta_mean_against_closed_form(self):
        law = beta_law(2.0, 3.0)
        assert law.expectation(lambda z: z).value == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize(
        "maker,args",
        [
            (lambda_tilde, (ABSX, 2.0, 2.0)),
            (lambda_tilde, (E01, 1.5, 2.0)),
        ],
    )
    def test_lambda_tilde_monte_carlo(self, maker, args):
        w, p, alpha = args
        law = case_laws(alpha, p)["Z"]
        quad = maker(w, p, alpha, law).value

        def sample_fn(z):
            u = ((1.0 - z) / (p - 1.0)) ** (1.0 / alpha)
            return np.asarray(w(-u), dtype=float) + np.asarray(w(u), dtype=float)

        mean, se = mc_expectation(sample_fn, law, MC)
        assert abs(quad - mean) <= 3 * se

    def test_upsilon_monte_carlo(self):
        w = make_exp_linear(1.0)
        law = gamma_law(3.0)
        quad = upsilon(w, law).value

        def sample_fn(z):
            u = np.exp(-z)
            return np.asarray(w(-u), dtype=float) + np.asarray(w(u), dtype=float)

        mean, se = mc_expectation(sample_fn, law, MC)
        assert abs(quad - mean) <= 3 * se

    def test_theta_monte_carlo(self):
        law = gamma_law(1.5)
        quad = theta(ABSX, 2.0, law).value
        mean, se = mc_expectation(
            lambda z: 2.0 * np.sqrt(z), law, MC
        )
        assert abs(quad - mean) <= 3 * se

    def test_lambda_bar_monte_carlo(self):
        p, alpha = 0.8, 2.0
        law = case_laws(alpha, p)["Y"]
        quad = lambda_bar(X2, p, alpha, law).value

        def sample_fn(z):
            u = ((1.0 - z) / (z * (1.0 - p))) ** (1.0 / alpha)
            return 2.0 * u * u

        mean, se = mc_expectation(sample_fn, law, MC)
        assert abs(quad - mean) <= 3 * se


class TestErrorsCarried:
    """Each semi-closed form by quadrature is a Value carrying the errors of its integrals."""

    @pytest.mark.parametrize(
        "form, calls",
        [
            # A weight without its terms has no closed form: e^{0.1 x} has one
            # on every law but LambdaB's, where it is infinite (u has a power
            # tail), so the p < 1 form takes x^2 without its terms.
            (lambda: lambda_tilde(E01_QUAD, 2.0, 2.0, case_laws(2.0, 2.0)["Y"]), 2),
            (lambda: lambda_bar(replace(X2, terms=None), 0.8, 2.0, case_laws(2.0, 0.8)["Y"]), 2),
            (lambda: theta(E01_QUAD, 2.0, gamma_law(1.5)), 1),
            (lambda: upsilon(E01_QUAD, gamma_law(3.0)), 1),
        ],
        ids=["lambda_tilde", "lambda_bar", "theta", "upsilon"],
    )
    def test_error_is_that_of_the_integrals(self, monkeypatch, form, calls):
        import wrenyi.gaussian_forms as gaussian_forms

        original, errors = gaussian_forms.integrate, []

        def recorded(*args, **kwargs):
            res = original(*args, **kwargs)
            errors.append(res.error)
            return res

        monkeypatch.setattr(gaussian_forms, "integrate", recorded)
        v = form()
        assert isinstance(v, Value)
        assert len(errors) == calls and v.error == math.fsum(errors) > 0


CROSS_CASES = [
    (2.0, 2.0, [ONE, E01, ABSX, X2]),
    (3.0, 2.0, [ONE, E01, X2]),
    (2.0, 1.5, [ONE, E01, X2]),
    (2.0, 0.8, [ONE, X2]),
    (3.0, 0.9, [ONE, X2]),
    (2.0, 1.0, [ONE, E01, X2]),
    (3.0, 1.0, [ONE, E01, X2]),
    (0.0, 2.0, [ONE, E01, X2]),
    (math.inf, 2.0, [ONE, E01, X2]),
]


class TestCrossValidation:
    @pytest.mark.parametrize("alpha,p,ws", CROSS_CASES)
    def test_measures_match_direct_quadrature(self, alpha, p, ws):
        g = make_generalized_gaussian(alpha, p)
        for w in ws:
            ms = gaussian_measures(w, alpha, p)
            n_direct = weighted_renyi_power(g, w, p).value
            s_direct = generalized_deviation(g, w, alpha).value
            assert float(ms.n_power) == pytest.approx(n_direct, rel=1e-5), w.family
            assert float(ms.deviation) == pytest.approx(s_direct, rel=1e-5), w.family
            if ms.fisher is not None and 1.0 <= alpha < math.inf:
                j_direct = weighted_fisher_information(g, w, alpha, p).value
                assert float(ms.fisher) == pytest.approx(j_direct, rel=1e-5), w.family

    @pytest.mark.parametrize("p, w", [(2.0, X2), (3.0, X2), (1.5, make_power(1.0)), (0.8, ONE)])
    def test_alpha_one_fisher_reads_the_support_of_g(self, p, w):
        # a^(p-1) sup phi over the support of G, whose edges are
        # +-(p-1)^(-1/alpha) at p > 1 and infinite below.
        g = make_generalized_gaussian(1.0, p)
        j_direct = weighted_fisher_information(g, w, 1.0, p).value
        assert float(gaussian_measures(w, 1.0, p).fisher) == pytest.approx(j_direct, rel=1e-9)

    def test_variation_branch_constant_weight(self):
        # At alpha = inf the antiderivative display agrees with the
        # total-variation definition for constant weights.
        for p in (0.5, 2.0, 3.0):
            g = make_generalized_gaussian(math.inf, p)
            ms = gaussian_measures(ONE, math.inf, p)
            j_direct = weighted_fisher_information(g, ONE, math.inf, p).value
            assert float(ms.fisher) == pytest.approx(j_direct, rel=1e-8)


class TestIdentities:
    @pytest.mark.parametrize(
        "case,alpha,p,ws",
        [
            ("p>1", 2.0, 2.0, [ONE, E01, X2]),
            ("p>1", 3.0, 2.0, [ONE, E01, X2]),
            ("p>1", 2.0, 1.5, [ONE, E01, X2]),
            ("p>1", 1.0, 2.0, [ONE]),
            ("p<1", 2.0, 0.8, [ONE, X2]),
            ("p<1", 3.0, 0.9, [ONE, X2]),
            ("p=1", 2.0, 1.0, [ONE, E01, X2]),
            ("p=1", 3.0, 1.0, [ONE, E01, X2]),
            ("p=1", 1.0, 1.0, [ONE]),
            ("alpha=inf", math.inf, 2.0, [ONE, E01, X2]),
            ("alpha=inf", math.inf, 0.5, [ONE, E01, X2]),
        ],
    )
    def test_residuals(self, case, alpha, p, ws):
        for w in ws:
            assert verify_identity(case, w, alpha, p) <= 1e-5, w.family

    def test_case_mismatch_rejected(self):
        with pytest.raises(InputError):
            verify_identity("p>1", ONE, 2.0, 0.8)

    def test_sigma_at_alpha_one_from_tent_display(self):
        # sigma_{1,1}(tent) through the Y-expectation equals int |x| tent = 1/3.
        ms = gaussian_measures(ONE, 1.0, 2.0)
        assert ms.deviation.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_alpha_inf_uniform_power(self):
        ms = gaussian_measures(ONE, math.inf, 2.0)
        assert ms.n_power == pytest.approx(2.0, rel=1e-12)
        assert ms.aux["psi_diff"] == pytest.approx(2.0, abs=1e-14)

    def test_p1_theta_normalization(self):
        # 2 sigma J^{1/beta} = Theta(W) = 2 at constant weight.
        for alpha in (1.5, 2.0, 3.0):
            ms = gaussian_measures(ONE, alpha, 1.0)
            beta = alpha / (alpha - 1.0)
            assert (2 * ms.deviation * ms.fisher ** (1 / beta)).value == pytest.approx(
                2.0, rel=1e-9
            )


class TestWeightedSupremumAtAlphaOne:
    """J of G at alpha = 1 is a^(p-1) times the sup of phi over G's support."""

    @pytest.mark.parametrize(
        "w, p",
        [
            (make_power(1.0), 1.0),  # |x| on the whole line
            (make_exp_linear(-0.24), 1.0),  # e^{-0.24 x} as x -> -inf
            (make_power(-0.5), 2.0),  # |x|^-0.5 at the interior 0 of [-1, 1]
        ],
    )
    def test_unbounded_weight_is_not_finite(self, w, p):
        with pytest.raises(DomainError, match="weighted essential supremum is not finite"):
            gaussian_measures(w, 1.0, p)

    def test_growing_weight_on_a_bounded_support_is_finite(self):
        # At p = 2 G is the tent on [-1, 1] (a = 1), where |x| is at most 1.
        ms = gaussian_measures(make_power(1.0), 1.0, 2.0)
        assert ms.fisher == pytest.approx(1.0, rel=1e-9)
