"""Information measures: example values, reductions and identities.

Expected values are frozen from independent closed forms:

  h(Exp(l)) = 1 - log l;  h(Laplace) = 1 + log 2;
  KL(Exp(l1)||Exp(l2)) = log(l1/l2) + l2/l1 - 1;
  int e^{gx} (l e^{-lx})^p dx = l^p / (pl - g) for pl > g;
  abs-polynomial moments of Exp(l): sum_i a_i Gamma(a+i+1)/l^{a+i}.
"""

import functools
import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from wrenyi.densities import (
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tent,
    make_weighted_density,
    scale_density,
)
from wrenyi.densities import parse_density
from wrenyi.errors import DomainError, InputError
from wrenyi.measures import (
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
from wrenyi.weights import (
    holder_conjugate,
    parse_weight,
    make_abs_polynomial,
    make_constant,
    make_density_polynomial,
    make_density_power,
    make_exp_linear,
    make_power,
)

ONE = make_constant(1.0)


class TestWeightedEntropy:
    def test_exponential(self):
        assert weighted_entropy(make_exponential(1.0), ONE).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_laplace(self):
        assert weighted_entropy(make_laplace(1.0), ONE).value == pytest.approx(
            1.0 + math.log(2.0), abs=1e-10
        )

    def test_exponential_tilted(self):
        lam, g = 2.0, -0.7
        m0 = lam / (lam - g)
        m1 = lam / (lam - g) ** 2
        expected = -math.log(lam) * m0 + lam * m1
        got = weighted_entropy(make_exponential(lam), make_exp_linear(g))
        assert got.value == pytest.approx(expected, rel=1e-12)
        quad = weighted_entropy(
            scale_density(make_exponential(lam), 1.0), make_exp_linear(g)
        )
        assert quad.value == pytest.approx(expected, abs=1e-8)


class TestRelativeWeightedEntropy:
    def test_self_divergence_zero(self):
        f = make_exponential(1.3)
        g = make_exponential(1.3)
        assert relative_weighted_entropy(f, g, ONE).value == pytest.approx(
            0.0, abs=1e-10
        )

    def test_exponential_pair(self):
        val = relative_weighted_entropy(
            make_exponential(2.0), make_exponential(1.0), ONE
        )
        assert val.value == pytest.approx(math.log(2.0) - 0.5, abs=1e-10)

    def test_divergent_supports(self):
        out = relative_weighted_entropy(
            make_laplace(1.0), make_tent(), ONE
        )
        assert math.isinf(out.value)
        assert out.branch == "divergent"


class TestRenyiEntropyAndPower:
    def test_density_warnings_reach_the_measure(self):
        f = replace(make_tent(), warnings=("tent: a warning of f itself",))
        assert weighted_renyi_entropy(f, ONE, 2.0).warnings == f.warnings

    def test_exponential_order_two(self):
        got = weighted_renyi_entropy(make_exponential(1.0), ONE, 2.0)
        assert got.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_exponential_tilted_order_two(self):
        got = weighted_renyi_entropy(
            make_exponential(1.0), make_exp_linear(-0.5), 2.0
        )
        assert got.value == pytest.approx(math.log(2.5), abs=1e-12)
        assert weighted_renyi_power(
            make_exponential(1.0), make_exp_linear(-0.5), 2.0
        ).value == pytest.approx(2.5, abs=1e-12)

    def test_uniform_all_orders_agree(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        for p in (0.5, 2.0, 3.0):
            got = weighted_renyi_entropy(u, ONE, p)
            assert got.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_laplace_entropy_power(self):
        got = weighted_renyi_power(make_laplace(1.0), ONE, 1.0)
        assert got.value == pytest.approx(2.0 * math.e, rel=1e-10)

    def test_p_one_entropy_rejected(self):
        with pytest.raises(InputError):
            weighted_renyi_entropy(make_exponential(1.0), ONE, 1.0)

    def test_validity_gate(self):
        with pytest.raises(DomainError):
            weighted_renyi_entropy(make_exponential(1.0), make_exp_linear(3.0), 2.0)

    def test_normalized_power_continuous_at_one(self):
        # N~(p) = N(p) E_f[phi]^{1/(p-1)} extends continuously through
        # p = 1 (the unnormalized power diverges unless E_f[phi] = 1);
        # assembled in log space because both factors overflow alone.
        f = make_exponential(1.0)
        w = make_exp_linear(-0.5)
        n1 = weighted_renyi_power(f, w, 1.0).value
        e = expectation(f, w).value
        for p in (1.0 - 1e-4, 1.0 + 1e-4):
            log_n = weighted_renyi_entropy(f, w, p).value + math.log(e) / (p - 1.0)
            assert abs(math.exp(log_n) - n1) < 1e-3


class TestRelativeRenyi:
    def test_equal_densities_vanish(self):
        f = make_exponential(1.7)
        g = make_exponential(1.7)
        for p in (0.5, 1.0, 2.0):
            got = relative_renyi_entropy(f, g, make_exp_linear(-0.3), p)
            assert abs(got.value) <= 1e-10

    def test_regime_point_negative(self):
        got = relative_renyi_entropy(
            make_exponential(0.1), make_exponential(1.0), make_exp_linear(-2.0), 1.0
        )
        assert got.value == pytest.approx(math.log(0.1) + 0.9 / 2.1, abs=1e-12)
        assert got.flags["E_f[phi]-E_g[phi]"] < 0

    def test_regime_point_positive(self):
        got = relative_renyi_entropy(
            make_exponential(3.5), make_exponential(1.5), make_exp_linear(-1.0), 1.0
        )
        assert got.value == pytest.approx(math.log(7.0 / 3.0) - 2.0 / 4.5, abs=1e-12)
        assert got.flags["E_f[phi]-E_g[phi]"] > 0

    def test_closed_form_matches_quadrature(self):
        f = make_exponential(1.0)
        g = make_exponential(2.0)
        w = make_exp_linear(-1.0)
        for p in (0.5, 1.0, 2.0):
            closed = relative_renyi_entropy(f, g, w, p)
            quad = relative_renyi_entropy(
                scale_density(f, 1.0), scale_density(g, 1.0), w, p
            )
            assert closed.value == pytest.approx(quad.value, abs=1e-8)

    def test_power_is_exponential_of_entropy(self):
        f = make_exponential(1.0)
        g = make_exponential(2.0)
        d = relative_renyi_entropy(f, g, ONE, 2.0)
        n = relative_renyi_power(f, g, ONE, 2.0)
        assert n.value == pytest.approx(math.exp(d.value), rel=1e-12)

    @pytest.mark.parametrize(
        "f, g, p",
        [("laplace:1", "tent", 0.5), ("gg:2,1", "gg:2,2", 0.7), ("tent", "gg:2,3", 0.3)],
    )
    def test_non_nested_supports_diverge_below_one(self, f, g, p):
        # int phi g^(p-1) f is infinite where g = 0 < f.
        f, g = parse_density(f), parse_density(g)
        for measure in (relative_renyi_entropy, relative_renyi_power):
            got = measure(f, g, ONE, p)
            assert got.value == got.error == math.inf
            assert got.branch == "divergent" and got.warnings == ("supports not nested",)

    def test_non_nested_supports_above_one_stay_finite(self):
        # g^(p-1) = 0 where g = 0, so only f's mass inside g's support counts.
        got = relative_renyi_entropy(make_laplace(1.0), make_tent(), ONE, 2.0)
        assert math.isfinite(got.value) and got.branch == "quadrature"

    def test_validity_flags_reported(self):
        got = relative_renyi_entropy(
            make_exponential(1.0), make_exponential(2.0), make_exp_linear(-0.5), 2.0
        )
        assert got.flags["lam2*(p-1)+lam1-gamma"] == pytest.approx(3.5)
        assert got.flags["lam1*p-gamma"] == pytest.approx(2.5)
        assert got.flags["lam2*p-gamma"] == pytest.approx(4.5)


class TestNonnegativityProperty:
    def test_randomized_exponential_pairs(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            l1, l2 = rng.uniform(0.5, 4.0, size=2)
            gam = rng.uniform(-3.0, 0.3)
            p = rng.choice([0.5, 2.0])
            if min(l2 * (p - 1) + l1 - gam, l1 * p - gam, l2 * p - gam) <= 0:
                continue
            d = relative_renyi_entropy(
                make_exponential(l1), make_exponential(l2), make_exp_linear(gam), p
            )
            assert d.value >= -1e-9
            checked += 1

    def test_margin_implies_nonnegativity_at_p_one(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            l1, l2 = rng.uniform(0.3, 4.0, size=2)
            gam = rng.uniform(-4.0, 0.0)
            if l1 - gam <= 0:
                continue
            d = relative_renyi_entropy(
                make_exponential(l1), make_exponential(l2), make_exp_linear(gam), 1.0
            )
            if d.flags["E_f[phi]-E_g[phi]"] >= 0:
                assert d.value >= -1e-9
                checked += 1


class TestReweightingIdentity:
    @pytest.mark.parametrize("lam,g,p", [(1.0, -0.5, 2.0), (2.0, -1.0, 0.5), (1.5, 0.3, 3.0)])
    def test_weighted_entropy_of_power_weight(self, lam, g, p):
        # h_{phi^p, p}(f) = h_p(f_phi) + p/(1-p) log chi for phi = e^{gx}.
        f = make_exponential(lam)
        w = make_exp_linear(g)
        if p * lam - p * g <= 0:
            pytest.skip("weighted density tail not integrable")
        from wrenyi.weights import power_of

        lhs = weighted_renyi_entropy(scale_density(f, 1.0), power_of(w, p), p)
        f_w = make_weighted_density(f, w)
        chi = f_w.params["chi"]
        rhs = weighted_renyi_entropy(f_w, ONE, p).value + (p / (1 - p)) * math.log(chi)
        assert lhs.value == pytest.approx(rhs, abs=1e-7)


class TestMoments:
    def test_exponential_first_moment(self):
        got = generalized_moment(make_exponential(1.0), ONE, 1.0)
        assert got.value == pytest.approx(1.0, abs=1e-12)

    def test_abs_polynomial_moment(self):
        lam, alpha = 1.3, 0.7
        coeffs = [0.5, 1.0, 0.25]
        f = make_exponential(lam)
        expected = sum(
            c * math.gamma(alpha + i + 1.0) / lam ** (alpha + i)
            for i, c in enumerate(coeffs)
        )
        got = generalized_moment(f, make_abs_polynomial(coeffs), alpha)
        assert got.value == pytest.approx(expected, rel=1e-12)
        quad = generalized_moment(
            scale_density(f, 1.0), make_abs_polynomial(coeffs), alpha
        )
        assert quad.value == pytest.approx(expected, abs=1e-8)

    def test_uniform_second_moment(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        assert generalized_moment(u, ONE, 2.0).value == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )


class TestDeviations:
    def test_signed_polynomial_example(self):
        got = generalized_deviation(
            make_exponential(1.0), make_abs_polynomial([1, -2, -1, 2]), 1.0
        )
        # 1*1! - 2*2! - 1*3! + 2*4! = 1 - 4 - 6 + 48 = 39.
        assert got.value == pytest.approx(39.0, abs=1e-9)
        assert any("negative" in w for w in got.warnings)

    def test_uniform_sup_branch(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        got = generalized_deviation(u, ONE, math.inf)
        assert got.value == pytest.approx(1.0, abs=1e-9)
        assert got.branch == "alpha=inf-esssup"

    def test_quadratic_gaussian_second_deviation(self):
        g = make_generalized_gaussian(2.0, 2.0)
        got = generalized_deviation(g, ONE, 2.0)
        assert got.value == pytest.approx(math.sqrt(0.2), rel=1e-10)

    def test_log_branch(self):
        g = make_generalized_gaussian(0.0, 2.0)
        got = generalized_deviation(g, ONE, 0.0)
        assert got.value == pytest.approx(math.exp(-2.0), rel=1e-8)
        assert got.branch == "alpha=0-log"

    def test_overflowing_sup_is_a_domain_error(self):
        # phi(x)|x| = e^x |x| overflows on the scan grid; under the suite's
        # error::RuntimeWarning setting an overflow warning would surface
        # here instead of the DomainError.
        with pytest.raises(DomainError, match=r"esssup of phi\(x\)\|x\| is not finite"):
            generalized_deviation(make_laplace(1.0), make_exp_linear(1.0), math.inf)

    def test_continuity_in_alpha(self):
        for d, w in [
            (make_exponential(1.0), ONE),
            (make_generalized_gaussian(2.0, 2.0), ONE),
            (make_exponential(2.0), make_exp_linear(-0.5)),
        ]:
            lo = generalized_deviation(d, w, 1.0 - 1e-3).value
            hi = generalized_deviation(d, w, 1.0 + 1e-3).value
            assert abs(hi - lo) < 1e-2

    def test_monotonicity_counterexample(self):
        w = make_abs_polynomial([1, -2, -1, 2])
        for lam in (0.5, 0.8, 1.19):
            f = make_exponential(lam)
            vals = [
                generalized_deviation(f, w, a).value
                for a in np.arange(1.0, 2.0001, 0.1)
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFisherInformation:
    def test_tent(self):
        got = fisher_information(make_tent(), 2.0, 2.0)
        assert got.flags["raw"] == pytest.approx(1.0, abs=1e-10)
        assert got.value == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_gaussian(self):
        got = fisher_information(make_generalized_gaussian(2.0, 2.0), 2.0, 2.0)
        assert got.flags["raw"] == pytest.approx(0.45, rel=1e-10)
        assert got.value == pytest.approx(0.45**0.25, rel=1e-10)

    def test_uniform_vanishes(self):
        got = fisher_information(make_generalized_gaussian(math.inf, 2.0), 2.0, 2.0)
        assert got.value == 0.0

    def test_alpha_domain(self):
        with pytest.raises(InputError):
            fisher_information(make_tent(), 1.0, 2.0)


class TestWeightedFisherInformation:
    def test_uniform_variation_branch(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        for p in (0.5, 1.0, 2.0, 3.0):
            got = weighted_fisher_information(u, ONE, math.inf, p)
            assert got.value == pytest.approx(2.0 ** (1 - p) / p, rel=1e-14)

    def test_constant_weight_reduces_to_raw_integral(self, catalog):
        for name in ("g22", "g21", "tent", "exp1", "laplace"):
            f = catalog[name]
            raw = fisher_information(f, 2.0, 2.0).flags["raw"]
            got = weighted_fisher_information(f, ONE, 2.0, 2.0)
            assert got.value == pytest.approx(raw, rel=1e-8, abs=1e-12), name

    def test_esssup_branch(self):
        g = make_generalized_gaussian(2.0, 2.0)
        got = weighted_fisher_information(g, ONE, 1.0, 2.0)
        # |G'| = (3/2)|x| peaks at the support edge.
        assert got.value == pytest.approx(1.5, rel=1e-9)
        assert got.branch == "alpha=1-esssup"

    def test_density_polynomial_decomposition(self):
        # J with weight sum b_i f^i equals sum b_i (J_{alpha,p_i})^{beta p_i},
        # p_i = p + i/beta.
        f = make_generalized_gaussian(2.0, 2.0)
        coeffs = [0.5, 1.0, 0.25]
        alpha, p = 2.0, 2.0
        beta = holder_conjugate(alpha)
        w = make_density_polynomial(coeffs, f)
        got = weighted_fisher_information(f, w, alpha, p)
        expected = sum(
            b * fisher_information(f, alpha, p + i / beta).flags["raw"]
            for i, b in enumerate(coeffs)
        )
        assert got.value == pytest.approx(expected, rel=1e-8)

    def test_density_power_reindexing(self):
        # J with weight f^k |f'|^m equals (J_{alpha',p'})^{beta' p'} with
        # beta' = m + beta, p' = (k + p beta + 2m)/(m + beta).
        f = make_generalized_gaussian(2.0, 2.0)
        k, m, alpha, p = 1.0, 1.5, 2.0, 2.0
        beta = holder_conjugate(alpha)
        beta_p = m + beta
        p_p = (k + p * beta + 2 * m) / beta_p
        alpha_p = beta_p / (beta_p - 1.0)
        got = weighted_fisher_information(f, make_density_power(k, m, f), alpha, p)
        expected = fisher_information(f, alpha_p, p_p).flags["raw"]
        assert got.value == pytest.approx(expected, rel=1e-7)

    def test_score_weight_power_identity(self):
        # With phi = |f'|^beta / f:  N_{phi,p}(f) = J_{alpha,r}^{beta r/(1-p)}
        # where r = (p + 2 beta - 2)/beta.
        f = make_generalized_gaussian(2.0, 2.0)
        alpha = 2.0
        beta = holder_conjugate(alpha)
        for p in (2.0, 3.0):
            w = make_density_power(-1.0, beta, f)
            n = weighted_renyi_power(f, w, p)
            r = (p + 2 * beta - 2.0) / beta
            j = fisher_information(f, alpha, r)
            expected = j.value ** (beta * r / (1.0 - p))
            assert n.value == pytest.approx(expected, rel=1e-5)


def _gg2_peak_variation(q, c, p):
    """4 max h, h = |x|^c G(x)^p / p with G the order-(2, q) Gaussian, in mpmath.

    h rises from 0 at x = 0 to one peak on each side, at x^2 = c/(2p +
    c(q - 1)), and falls to 0 at the support edge or at infinity.
    """
    q, c, p = mp.mpf(q), mp.mpf(c), mp.mpf(p)
    base = lambda x: max(0, 1 + (1 - q) * x * x) ** (1 / (q - 1))  # noqa: E731
    edge = 1 / mp.sqrt(q - 1) if q > 1 else mp.inf
    a = 1 / mp.quad(base, [-edge, 0, edge])
    x = mp.sqrt(c / (2 * p + c * (q - 1)))
    return float(4 * x**c * (a * base(x)) ** p / p)


class TestFisherVariationClosedForms:
    """The alpha = inf branch V(phi f^p/p) - int phi' f^p/p against closed
    forms; each correction vanishes (phi' = 0 or odd against an even f^p)."""

    @pytest.mark.parametrize(
        "f, w, p, expected",
        [
            # f^2/2 jumps to 1/2 at 0 and decays to 0.
            ("exp:1", "const:1", 2.0, 1.0),
            # phi f^p/p peaks at the cusp x = 0, at 0.625^1.7/1.7.
            ("laplace:0.8", "abspoly:1,0.5", 1.7, 2.0 * 0.625**1.7 / 1.7),
            ("gg:2,0.8", "pow:1", 2.0, _gg2_peak_variation(0.8, 1.0, 2.0)),
            # |x|^1.5 e^{-2|x|}/8 peaks at x = c/p = 0.75.
            ("laplace:1", "pow:1.5", 2.0, 4.0 * 0.75**1.5 * math.exp(-1.5) / 8.0),
        ],
    )
    def test_closed_form(self, f, w, p, expected):
        f = parse_density(f)
        got = weighted_fisher_information(f, parse_weight(w, base=f), math.inf, p)
        assert got.value == pytest.approx(expected, rel=1e-12)

    def test_cusp_at_zero(self):
        # |x|^0.6 has an infinite slope at 0, where the scans meet; each
        # starts one float from 0, where the weight has fallen to ~1e-194.
        got = weighted_fisher_information(
            parse_density("gg:2,2.2"), make_power(0.6), math.inf, 1.85
        )
        assert got.value == pytest.approx(_gg2_peak_variation(2.2, 0.6, 1.85), rel=1e-12)


class TestReductionToUnweighted:
    def test_constant_weight_across_catalog(self, catalog):
        for name, f in catalog.items():
            h = weighted_entropy(f, ONE).value
            fq = scale_density(f, 1.0)  # same law, no closed form
            h2 = weighted_entropy(fq, make_constant(1.0)).value
            assert h == pytest.approx(h2, abs=1e-8), name
            for p in (0.5, 2.0):
                a = weighted_renyi_entropy(f, ONE, p).value
                b = weighted_renyi_entropy(fq, ONE, p).value
                assert a == pytest.approx(b, abs=1e-8), name
            m = generalized_moment(f, ONE, 1.5)
            m2 = generalized_moment(fq, ONE, 1.5)
            assert m.value == pytest.approx(m2.value, abs=1e-8), name


class TestExponentialClosedFormLimits:
    # Rates whose closed forms divide by an underflowed power, overflow a
    # power or take the log of an underflowed ratio.
    @pytest.mark.parametrize(
        "measure, lam, message",
        [
            (lambda f: weighted_entropy(f, ONE), 1e-200, "1e-200 / 0.0 divides by zero"),
            (lambda f: generalized_moment(f, ONE, 2.0), 1e-200, "2e-200 / 0.0 divides by zero"),
            (
                lambda f: generalized_moment(f, make_exp_linear(0.5), 2.0),
                1e200,
                "1e+200 ** 3.0 overflows",
            ),
            (lambda f: weighted_renyi_entropy(f, ONE, 2.0), 1e200, "1e+200 ** 2.0 overflows"),
            (
                lambda f: relative_weighted_entropy(f, make_exponential(1e200), ONE),
                1e-160,
                "log(0.0) is undefined",
            ),
            (
                lambda f: relative_renyi_power(f, make_exponential(1.0), ONE, 2.0),
                1e200,
                "1e+200 ** 2.0 overflows",
            ),
        ],
        ids=["we", "mom", "mom-expw", "wre", "rwe", "rrp"],
    )
    def test_is_a_domain_error(self, measure, lam, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            measure(make_exponential(lam))



# The elementary weights of the Gamma-integral closed forms, evaluated
# independently in mpmath on x > 0 (each parameter as the double it parses to).
ORACLE_WEIGHTS = {
    "const:1.3": lambda x: mp.mpf(1.3),
    "expw:-0.4": lambda x: mp.exp(mp.mpf(-0.4) * x),
    "pow:0.5": lambda x: x ** mp.mpf(0.5),
    "pow:-0.5": lambda x: x ** mp.mpf(-0.5),
    "abspoly:1,0.5,0.25": lambda x: 1 + mp.mpf(0.5) * x + mp.mpf(0.25) * x**2,
}
ORACLE_G = 1.5  # the rate of g


@functools.lru_cache(maxsize=None)
def _oracle_integral(wd, lam, kind, o=None):
    """30-digit int_0^inf phi(x) core(x) dx for f = Exp(lam), g = Exp(ORACLE_G)."""
    phi = ORACLE_WEIGHTS[wd]
    l1, l2 = mp.mpf(lam), mp.mpf(ORACLE_G)
    f = lambda x: l1 * mp.exp(-l1 * x)  # noqa: E731
    g = lambda x: l2 * mp.exp(-l2 * x)  # noqa: E731
    core = {
        "f": f,
        "-f log f": lambda x: -f(x) * mp.log(f(x)),
        "f log(f/g)": lambda x: f(x) * mp.log(f(x) / g(x)),
        "f^p": lambda x: f(x) ** o,
        "g^p": lambda x: g(x) ** o,
        "g^(p-1) f": lambda x: g(x) ** (o - 1) * f(x),
        "x^alpha f": lambda x: x**o * f(x),
    }[kind]
    with mp.workdps(30):
        return mp.quad(lambda x: phi(x) * core(x), [0, 1, mp.inf])


def _relative(J, p):
    """(D_{phi,p}(f||g), the largest term it sums: the scale of its rounding)."""
    if p == 1:
        d = J("f log(f/g)") / J("f")
        return d, abs(d)
    terms = (
        mp.log(J("g^(p-1) f", p)) / (1 - p),
        mp.log(J("g^p", p)) / p,
        -mp.log(J("f^p", p)) / (p * (1 - p)),
    )
    return mp.fsum(terms), max(map(abs, terms))


# (id, order, the measure, its mpmath value from the integrals J, its branch)
ORACLE_CASES = [
    ("E_f[phi]", None, lambda f, g, w, o: expectation(f, w), lambda J, o: J("f"), "closed-form"),
    ("we", None, lambda f, g, w, o: weighted_entropy(f, w), lambda J, o: J("-f log f"), "closed-form"),
    ("rwe", None, lambda f, g, w, o: relative_weighted_entropy(f, g, w),
     lambda J, o: J("f log(f/g)"), "closed-form"),
    *[
        case
        for p in (0.8, 1.5)
        for case in [
            ("wre", p, lambda f, g, w, o: weighted_renyi_entropy(f, w, o),
             lambda J, o: mp.log(J("f^p", o)) / (1 - o), "closed-form"),
            ("wrp", p, lambda f, g, w, o: weighted_renyi_power(f, w, o),
             lambda J, o: mp.exp(mp.log(J("f^p", o)) / (1 - o)), "closed-form"),
        ]
    ],
    ("wrp", 1.0, lambda f, g, w, o: weighted_renyi_power(f, w, o),
     lambda J, o: mp.exp(J("-f log f") / J("f")), "p=1-entropy-power"),
    *[
        case
        for p in (0.8, 1.0, 1.5)
        for case in [
            ("rre", p, lambda f, g, w, o: relative_renyi_entropy(f, g, w, o),
             _relative, "p=1-closed-form" if p == 1.0 else "closed-form"),
            ("rrp", p, lambda f, g, w, o: relative_renyi_power(f, g, w, o),
             lambda J, o: mp.exp(_relative(J, o)[0]), "p=1-closed-form" if p == 1.0 else "closed-form"),
        ]
    ],
    ("mom", 1.5, lambda f, g, w, o: generalized_moment(f, w, o),
     lambda J, o: J("x^alpha f", o), "closed-form"),
    ("dev", 1.5, lambda f, g, w, o: generalized_deviation(f, w, o),
     lambda J, o: J("x^alpha f", o) ** (1 / o), "alpha-moment"),
]


class TestGammaIntegralOracle:
    """Every exponential-source closed form against 30-digit mpmath quadrature.

    Each value is within 1e-14 of the reference relative to its size, or,
    for the relative Renyi entropy, to the largest of the three logs it
    sums (the difference of O(1) logs is no more accurate than they are).
    """

    @pytest.mark.parametrize("lam", [0.7, 2.0])
    @pytest.mark.parametrize("wd", list(ORACLE_WEIGHTS))
    @pytest.mark.parametrize(
        "mid, order, call, ref, branch", ORACLE_CASES, ids=[f"{c[0]}-{c[1]}" for c in ORACLE_CASES]
    )
    def test_matches_mpmath(self, mid, order, call, ref, branch, wd, lam):
        got = call(make_exponential(lam), make_exponential(ORACLE_G), parse_weight(wd), order)
        assert (got.error, got.branch) == (0.0, branch)
        with mp.workdps(30):
            o = None if order is None else mp.mpf(order)
            expected = ref(lambda kind, o=None: _oracle_integral(wd, lam, kind, o), o)
            expected, scale = expected if isinstance(expected, tuple) else (expected, abs(expected))
            assert abs(got.value - expected) <= 1e-14 * scale
