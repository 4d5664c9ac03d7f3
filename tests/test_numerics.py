"""Quadrature, special functions, differentiation, roots, sup and TV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrenyi.errors import DomainError, InputError
from wrenyi.numerics import (
    IntegralResult,
    QuadratureConfig,
    _masked,
    beta_fn,
    differentiate,
    essential_supremum,
    find_root,
    gamma_fn,
    integrate,
    total_variation,
)
from wrenyi.oracle import riemann


class TestIntegrate:
    def test_constant_on_unit_interval(self):
        res = integrate(lambda x: np.ones_like(x), (0.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_normalization(self):
        res = integrate(lambda x: np.exp(-x), (0.0, math.inf))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_density_normalization(self):
        res = integrate(lambda x: 0.75 * (1 - x * x), (-1.0, 1.0))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_suite_against_exact_values(self, integrand_suite):
        for name, fn, dom, hints, exact in integrand_suite:
            if exact is None:
                continue
            res = integrate(fn, dom, QuadratureConfig(singularities=hints))
            assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-9), name

    def test_suite_against_riemann(self, integrand_suite):
        for name, fn, dom, hints, _ in integrand_suite:
            res = integrate(fn, dom, QuadratureConfig(singularities=hints))
            ref = riemann(fn, dom)
            scale = max(1.0, abs(ref))
            assert abs(res.value - ref) <= 1e-5 * scale, name

    def test_inverted_domain_rejected(self):
        with pytest.raises(InputError):
            integrate(lambda x: x, (1.0, 0.0))

    def test_divergent_integral_flagged(self):
        res = integrate(
            lambda x: 1.0 / np.maximum(x, 1e-300),
            (0.0, 1.0),
            QuadratureConfig(singularities=(0.0,)),
        )
        assert res.status in ("divergent", "tolerance-not-met")

    def test_endpoint_singularity(self):
        res = integrate(
            lambda x: x**-0.5, (0.0, 1.0), QuadratureConfig(singularities=(0.0,))
        )
        assert res.value == pytest.approx(2.0, rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        c=st.floats(-2, 2),
        s=st.floats(-3, 3),
        t=st.floats(-3, 3),
    )
    def test_linearity_on_random_polynomials(self, a, b, c, s, t):
        f = lambda x: a * x * x + b
        g = lambda x: c * x + a
        lhs = integrate(lambda x: s * f(x) + t * g(x), (-1.0, 2.0))
        rf = integrate(f, (-1.0, 2.0))
        rg = integrate(g, (-1.0, 2.0))
        assert lhs.value == pytest.approx(
            s * rf.value + t * rg.value,
            abs=1e-9 + lhs.error + abs(s) * rf.error + abs(t) * rg.error,
        )


class TestSpecialFunctions:
    def test_gamma_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_beta_value(self):
        assert beta_fn(0.5, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(InputError):
            gamma_fn(0.0)
        with pytest.raises(InputError):
            beta_fn(1.0, -1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(0.05, 20.0, allow_nan=False),
        b=st.floats(0.05, 20.0, allow_nan=False),
    )
    def test_beta_symmetry(self, a, b):
        assert beta_fn(a, b) == beta_fn(b, a)


class TestDifferentiate:
    def test_square(self):
        assert differentiate(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-7)

    def test_exponential(self):
        assert differentiate(math.exp, 0.0) == pytest.approx(1.0, abs=1e-7)
        assert differentiate(lambda x: math.exp(-x), 0.0) == pytest.approx(
            -1.0, abs=1e-7
        )

    def test_tent_slope(self):
        tent = lambda x: max(1 - abs(x), 0.0)
        assert differentiate(tent, 0.5) == pytest.approx(-1.0, abs=1e-9)


class TestFindRoot:
    def test_affine(self):
        assert find_root(lambda x: x - 0.5, (0.0, 1.0)) == pytest.approx(0.5)

    def test_exponential_median(self):
        root = find_root(lambda x: 1 - math.exp(-x) - 0.5, (0.0, 10.0))
        assert root == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cubic_flat_root(self):
        root = find_root(lambda x: x**3, (-1.0, 2.0))
        assert abs(root**3) <= 1e-12

    def test_no_sign_change_rejected(self):
        with pytest.raises(InputError):
            find_root(lambda x: x * x + 1.0, (-1.0, 1.0))


class TestEssentialSupremum:
    def test_absolute_value(self):
        assert essential_supremum(np.abs, (-1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_decaying_exponential(self):
        val = essential_supremum(lambda x: np.exp(-x), (0.0, math.inf))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_parabola_vertex(self):
        val = essential_supremum(lambda x: x * (1 - x), (0.0, 1.0))
        assert val == pytest.approx(0.25, abs=1e-10)


class TestTotalVariation:
    def test_tent(self):
        tent = lambda x: np.maximum(1 - np.abs(np.asarray(x, dtype=float)), 0.0)
        assert total_variation(tent, (-math.inf, math.inf)) == pytest.approx(
            2.0, abs=1e-8
        )

    def test_half_indicator(self):
        fn = lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)
        assert total_variation(fn, (-1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_constant_on_line(self):
        fn = lambda x: np.full_like(np.asarray(x, dtype=float), 0.7)
        assert total_variation(fn, (-math.inf, math.inf)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_monotone_matches_endpoint_difference(self):
        # For monotone fn on [a,b]: V = |fn(b)-fn(a)| plus the two edge
        # jumps down to 0 outside the support.
        fn = lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
        lo, hi = fn(np.array([-2.0]))[0], fn(np.array([3.0]))[0]
        v = total_variation(fn, (-2.0, 3.0))
        assert v == pytest.approx(abs(hi - lo) + lo + hi, abs=1e-8)


class TestQuadratureConfig:
    def test_invalid_tolerances_rejected(self):
        with pytest.raises(InputError):
            QuadratureConfig(abs_tol=0.0)


class TestChecked:
    def test_converged(self):
        assert IntegralResult(1.5, 2e-12, "converged").checked("x") == (1.5, 2e-12, ())

    def test_tolerance_not_met_warns(self):
        value, error, warns = IntegralResult(3.9e17, 3.3e17, "tolerance-not-met").checked(
            "E[Z^-1.5]"
        )
        assert (value, error) == (3.9e17, 3.3e17)
        assert warns == ("E[Z^-1.5]: quadrature tolerance not met (err=3.30e+17)",)

    def test_divergent_raises(self):
        with pytest.raises(DomainError) as exc:
            IntegralResult(math.inf, math.inf, "divergent").checked("int phi f^p")
        assert str(exc.value) == "int phi f^p diverges"

    def test_real_results(self):
        ok = integrate(lambda x: np.exp(-x), (0.0, math.inf)).checked("e")
        assert ok[0] == pytest.approx(1.0, abs=1e-10) and ok[2] == ()
        with pytest.raises(DomainError, match="^tail diverges$"):
            integrate(lambda x: np.full_like(x, 1e120), (0.0, 1.0)).checked("tail")


class _Law:
    """A pdf that vanishes outside (0, 1)."""

    @staticmethod
    def pdf(x):
        return np.where((x > 0) & (x < 1), 2.0 * x, 0.0)


class TestMasked:
    def test_fill_outside_support(self):
        fn = _masked(_Law, lambda x, fx: fx + 1.0)
        assert fn(np.array([-1.0, 0.5, 2.0])).tolist() == [0.0, 2.0, 0.0]
        fn = _masked(_Law, lambda x, fx: fx + 1.0, fill=-np.inf)
        assert fn(np.array([-1.0, 0.5, 2.0])).tolist() == [-np.inf, 2.0, -np.inf]

    def test_core_never_sees_zero_density(self):
        seen = []

        def core(x, fx):
            seen.append((x.copy(), fx.copy()))
            return np.log(fx) * x  # -inf * 0 = nan if f = 0 got through

        out = _masked(_Law, core)(np.linspace(-1.0, 2.0, 31))
        assert np.all(np.isfinite(out))
        xs = np.concatenate([x for x, _ in seen])
        assert np.all((xs > 0) & (xs < 1))
        assert np.all(np.concatenate([fx for _, fx in seen]) > 0)

    def test_all_zero_skips_core(self):
        def core(x, fx):
            raise AssertionError("core called with no point where f > 0")

        assert _masked(_Law, core, fill=7.0)(np.array([-2.0, 3.0])).tolist() == [7.0, 7.0]


class TestEveryResultChecked:
    """Every integral the package takes is turned into a value by checked()."""

    def test_integrate_and_checked_calls_match(self, monkeypatch):
        import sys

        from wrenyi import numerics
        from wrenyi.densities import cdf, make_generalized_gaussian, make_tent, parse_density
        from wrenyi.gaussian_forms import beta_law, gamma_law
        from wrenyi.inequalities import (
            check_cor4,
            check_fii,
            check_scaling_identity,
            lemma4_residual,
        )
        from wrenyi.measures import weighted_entropy
        from wrenyi.weights import (
            antiderivatives,
            make_exp_linear,
            make_power,
            parse_weight,
            power_of,
        )

        original, original_checked = numerics.integrate, IntegralResult.checked
        results, checked, sites = [], [], set()

        def counted_integrate(*args, **kwargs):
            caller = sys._getframe(1)
            sites.add((caller.f_code.co_filename, caller.f_lineno))
            res = original(*args, **kwargs)
            results.append(res)
            return res

        def counted_checked(self, what):
            checked.append(self)
            return original_checked(self, what)

        for name, mod in list(sys.modules.items()):
            if name.startswith("wrenyi") and getattr(mod, "integrate", None) is original:
                monkeypatch.setattr(mod, "integrate", counted_integrate)
        monkeypatch.setattr(IntegralResult, "checked", counted_checked)

        g22 = make_generalized_gaussian(2.0, 2.0)
        weighted = parse_density("weighted:gg:2,2;expw:0.3")
        cdf(weighted, 0.1)
        beta_law(2.5, 1.5).expectation(lambda z: z)
        gamma_law(1.5).expectation(lambda z: z)
        antiderivatives(power_of(make_exp_linear(0.5), 2.0)).psi(0.7)
        weighted_entropy(make_tent(), make_power(1.0))
        check_fii(g22, parse_weight("expw:0.1"), 2.0, 2.0)
        check_cor4(make_tent(), 0.2)
        check_scaling_identity(make_exp_linear(0.3), g22, 1.7, 2.0)
        lemma4_residual(g22, lambda x: x**3, None, dg=lambda x: 3 * x * x)

        assert len(sites) == 13
        assert len(checked) == len(results)
        assert {id(r) for r in checked} == {id(r) for r in results}
