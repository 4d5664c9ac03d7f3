"""Weight algebra: families, derived weights, antiderivatives, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrenyi.densities import make_exponential, make_generalized_gaussian, make_tent
from wrenyi.errors import DomainError, InputError
from wrenyi.numerics import QuadratureConfig, integrate
from wrenyi.weights import (
    antiderivatives,
    compose_with_map,
    derive_phi_star,
    derive_rho12,
    derive_rho_s,
    holder_conjugate,
    make_abs_polynomial,
    make_constant,
    make_density_polynomial,
    make_density_power,
    make_exp_linear,
    make_power,
    nonnegativity_violation,
    parse_weight,
    power_of,
)


class _LogMap:
    """s(x) = log(1 + x) on (0, inf)."""

    def __call__(self, x):
        return np.log1p(np.asarray(x, dtype=float))

    def derivative(self, x):
        return 1.0 / (1.0 + np.asarray(x, dtype=float))

    def value_and_derivative(self, x):
        return self(x), self.derivative(x)


class _DoubleMap:
    def __call__(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), 2.0)

    def value_and_derivative(self, x):
        return self(x), self.derivative(x)


class _IdentityMap:
    def __call__(self, x):
        return np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def value_and_derivative(self, x):
        return self(x), self.derivative(x)


class TestFamilies:
    def test_exp_linear(self):
        w = make_exp_linear(0.5)
        assert w(1.0) == pytest.approx(math.exp(0.5), rel=1e-14)
        assert w.derivative(1.0) == pytest.approx(0.5 * math.exp(0.5), rel=1e-14)

    def test_abs_polynomial_values(self):
        w = make_abs_polynomial([1, -2, -1, 2])
        assert w(0.7) == pytest.approx(1 - 1.4 - 0.49 + 2 * 0.343, rel=1e-12)
        assert w(-0.7) == w(0.7)

    def test_elementary_makers_carry_terms(self):
        assert make_constant(1.3).terms == ((1.3, 0.0, 0.0),)
        assert make_exp_linear(-0.4).terms == ((1.0, 0.0, -0.4),)
        assert make_power(-0.5).terms == ((1.0, -0.5, 0.0),)
        assert make_abs_polynomial([1, 0.5]).terms == ((1.0, 0.0, 0.0), (0.5, 1.0, 0.0))
        f = make_exponential(1.0)
        assert make_density_polynomial([0.0, 1.0], f).terms is None
        assert make_density_power(1.0, 0.0, f).terms is None
        w = make_power(2.0)
        assert power_of(w, 0.5).terms is None
        assert derive_phi_star(w, 1.0, 2.0).terms is None
        assert compose_with_map(w, _IdentityMap()).terms is None

    def test_density_polynomial_reduces_to_density(self):
        tent = make_tent()
        w = make_density_polynomial([0.0, 1.0], tent)
        assert w(0.25) == pytest.approx(0.75, abs=1e-14)

    def test_density_power(self):
        tent = make_tent()
        w = make_density_power(1.0, 2.0, tent)  # f |f'|^2 = f on the tent
        assert w(0.25) == pytest.approx(0.75, abs=1e-12)

    def test_density_power_derivative(self):
        g22 = make_generalized_gaussian(2.0, 2.0)  # 0.75 (1 - x^2)_+
        xs = np.array([-0.5, 0.0, 0.3, 1.5])
        itself = make_density_power(1.0, 0.0, g22)  # f, derivative -1.5 x
        assert itself.derivative(xs) == pytest.approx([0.75, 0.0, -0.45, 0.0], abs=1e-15)
        slope = make_density_power(0.0, 1.0, g22)  # |f'| = 1.5 |x|
        assert slope.derivative(xs) == pytest.approx([-1.5, 0.0, 1.5, 0.0], rel=1e-6)
        assert [slope.derivative(float(x)) for x in xs] == slope.derivative(xs).tolist()

    def test_derivative_consistency(self):
        for w in (
            make_exp_linear(0.3),
            make_power(2.0),
            make_abs_polynomial([1.0, 0.5, 0.25]),
        ):
            for x in (0.5, -1.2, 2.0):
                h = 1e-6
                fd = (w(x + h) - w(x - h)) / (2 * h)
                assert w.derivative(x) == pytest.approx(
                    fd, rel=1e-5, abs=1e-5
                )


class TestAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(-3, 3), x=st.floats(-2, 2))
    def test_power_of_pointwise(self, r, x):
        # Equal up to the one-ulp difference between the vectorized and
        # scalar pow implementations.
        w = make_exp_linear(0.4)
        assert power_of(w, r)(x) == pytest.approx(w(x) ** r, rel=5e-16)

    def test_compose_with_map(self):
        w = compose_with_map(make_exp_linear(2.0), _LogMap())
        # e^{2 log(1+x)} = (1+x)^2
        assert w(1.0) == pytest.approx(4.0, rel=1e-13)
        assert w.derivative(1.0) == pytest.approx(4.0, rel=1e-12)

    def test_compose_identity(self):
        w = make_power(1.0)
        assert compose_with_map(w, _IdentityMap())(0.7) == pytest.approx(0.7)


class TestDerivedWeights:
    def test_phi_star_unit_ratio(self):
        w = make_exp_linear(0.3)
        assert derive_phi_star(w, 2.0, 2.0) is w

    def test_phi_star_power_scaling(self):
        w = make_power(3.0)
        ws = derive_phi_star(w, 2.0, 1.0)  # ratio 2: |2x|^3 = 8 |x|^3
        assert ws(0.5) == pytest.approx(8 * 0.125, rel=1e-13)

    def test_phi_star_exponential(self):
        w = make_exp_linear(0.7)
        ws = derive_phi_star(w, 2.0, 1.0)
        assert ws(1.0) == pytest.approx(math.exp(1.4), rel=1e-13)

    def test_phi_star_rejects_bad_deviations(self):
        with pytest.raises(InputError):
            derive_phi_star(make_power(1.0), -1.0, 1.0)

    def test_rho12_constant(self):
        r1, r2 = derive_rho12(make_constant(1.0), 2.0, 2.0)
        assert r1(0.3) == 1.0 and r2(0.3) == 1.0

    def test_rho12_exponent_arithmetic(self):
        r1, r2 = derive_rho12(make_exp_linear(0.1), 2.0, 2.0)
        # alpha/(1-p) = -2 and p*beta/(p-1) = 4.
        assert r1(1.0) == pytest.approx(math.exp(-0.2), rel=1e-13)
        assert r2(1.0) == pytest.approx(math.exp(0.4), rel=1e-13)

    def test_rho12_degenerate_conjugate_rejected(self):
        with pytest.raises(InputError):
            derive_rho12(make_power(1.0), 1.0, 2.0)
        with pytest.raises(InputError):
            derive_rho12(make_power(1.0), 2.0, 1.0)

    def test_rho_s_constant(self):
        rs = derive_rho_s(make_constant(1.0), _IdentityMap(), 2.0)
        assert rs(0.4) == 1.0 and rs.derivative(0.4) == 0.0

    def test_rho_s_identity_map(self):
        w = make_exp_linear(0.6)
        rs = derive_rho_s(w, _IdentityMap(), 2.0)
        # (phi/phi^2)^{-1} = phi
        assert rs(0.9) == pytest.approx(w(0.9), rel=1e-12)
        assert rs.derivative(0.9) == pytest.approx(w.derivative(0.9), rel=1e-10)

    def test_rho_s_doubling_map(self):
        w = make_exp_linear(1.0)
        rs = derive_rho_s(w, _DoubleMap(), 2.0)
        # (e^{2x}/e^{2x})^{-1} = 1
        assert rs(0.8) == pytest.approx(1.0, rel=1e-12)
        assert rs.derivative(0.8) == pytest.approx(0.0, abs=1e-10)

    def test_rho_s_p1_rejected(self):
        with pytest.raises(InputError):
            derive_rho_s(make_exp_linear(1.0), _IdentityMap(), 1.0)


class TestAntiderivatives:
    """antiderivatives(w) = (int_{-1}^1 phi, int_{-1}^1 phi')."""

    def test_constant(self):
        assert antiderivatives(make_constant(1.5)) == (3.0, 0.0)

    def test_exp_linear(self):
        g = 0.7
        psi_diff, psib_diff = antiderivatives(make_exp_linear(g))
        assert psi_diff == pytest.approx(2 * math.sinh(g) / g, rel=1e-13)
        assert psib_diff == pytest.approx(2 * math.sinh(g), rel=1e-13)

    def test_power_and_abs_polynomial(self):
        assert antiderivatives(make_power(1.0)) == (1.0, 0.0)
        assert antiderivatives(make_power(0.5)) == (2.0 / 1.5, 0.0)
        assert antiderivatives(make_abs_polynomial([1.0, 0.5])) == (2.5, 0.0)

    @pytest.mark.parametrize(
        "w, expected",
        [
            (make_constant(1.3), (2.0 * 1.3, 0.0)),
            (make_exp_linear(0.7), ((math.exp(0.7) - 1.0) / 0.7 - (math.exp(-0.7) - 1.0) / 0.7,
                                    (math.exp(0.7) - 1.0) - (math.exp(-0.7) - 1.0))),
            (make_power(0.3), (2.0 / 1.3, 0.0)),
            (make_abs_polynomial([0.1, 0.7, 0.3]), (2.0 * (0.1 / 1 + 0.7 / 2 + 0.3 / 3), 0.0)),
        ],
    )
    def test_terms_sum_to_the_family_formulas_bit_for_bit(self, w, expected):
        assert antiderivatives(w) == expected

    def test_nonintegrable_rejected(self):
        with pytest.raises(DomainError, match="is not integrable near 0"):
            antiderivatives(make_power(-1.5))
        with pytest.raises(DomainError, match="derivative of"):
            antiderivatives(make_power(-0.5))

    @pytest.mark.parametrize(
        "w",
        [
            make_constant(2.0),
            make_exp_linear(0.4),
            make_power(1.0),
            make_power(2.0),
            make_abs_polynomial([1.0, -0.5, 0.25]),
        ],
    )
    def test_pair_matches_quadrature(self, w):
        cfg = QuadratureConfig(singularities=w.kinks)
        for got, fn in zip(antiderivatives(w), (w, w.derivative)):
            ref = integrate(lambda t: np.asarray(fn(t), dtype=float), (-1.0, 1.0), cfg)
            assert got == pytest.approx(ref.value, abs=1e-8)

    def test_quadrature_branch_carries_the_integral_errors(self, monkeypatch):
        import wrenyi.weights as weights

        errors = []

        def recorded(*args, **kwargs):
            res = integrate(*args, **kwargs)
            errors.append(res.error)
            return res

        monkeypatch.setattr(weights, "integrate", recorded)
        psi_diff, psib_diff = antiderivatives(power_of(make_exp_linear(0.5), 2.0))  # e^x
        assert psi_diff.value == pytest.approx(2 * math.sinh(1.0), rel=1e-12)
        assert psib_diff.value == pytest.approx(2 * math.sinh(1.0), rel=1e-12)
        assert len(errors) == 4
        assert psi_diff.error == math.fsum(errors[:2]) > 0
        assert psib_diff.error == math.fsum(errors[2:]) > 0


class TestGuards:
    def test_nonnegativity_flags_signed_polynomial(self):
        w = make_abs_polynomial([1, -2, -1, 2])
        v = nonnegativity_violation(w, (0.0, 10.0))
        assert v is not None and v < 0

    def test_nonnegative_family_passes(self):
        assert nonnegativity_violation(make_exp_linear(-2.0), (0.0, math.inf)) is None

    def test_pointwise_nonnegativity_sampled(self, catalog, weights_catalog):
        for w in weights_catalog.values():
            for d in catalog.values():
                v = nonnegativity_violation(w, d.support)
                assert v is None


class TestConjugate:
    def test_holder_conventions(self):
        assert holder_conjugate(1.0) == math.inf
        assert holder_conjugate(math.inf) == 1.0
        assert holder_conjugate(2.0) == 2.0
        assert holder_conjugate(3.0) == pytest.approx(1.5)
        with pytest.raises(InputError):
            holder_conjugate(0.5)


class TestDescriptors:
    def test_known_forms(self):
        assert parse_weight("const:2").params["v"] == 2.0
        assert parse_weight("expw:-0.5").params["gamma"] == -0.5
        assert parse_weight("pow:2").params["c"] == 2.0
        assert parse_weight("abspoly:1,-2,-1,2").params["coeffs"] == (1, -2, -1, 2)
        f = make_exponential(1.0)
        assert parse_weight("fpoly:0,1", base=f).family == "density-polynomial"
        assert parse_weight("fpow:1,2", base=f).family == "density-power"

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            parse_weight("gauss:1")
        with pytest.raises(InputError):
            parse_weight("fpoly:0,1")  # no base density

    @pytest.mark.parametrize(
        "text, message",
        [
            ("const:nan", "constant weight must be finite, got nan"),
            ("const:inf", "constant weight must be finite, got inf"),
            ("expw:nan", "exp-linear rate must be finite, got nan"),
            ("pow:nan", "power exponent must be finite, got nan"),
            ("pow:oo", "power exponent must be finite, got inf"),
            ("abspoly:1,nan", "abs-polynomial coefficient must be finite, got nan"),
            ("fpoly:nan", "density-polynomial coefficient must be finite, got nan"),
            ("fpow:nan,0", "density-power k must be finite, got nan"),
            ("fpow:1,-inf", "density-power m must be finite, got -inf"),
        ],
    )
    def test_non_finite_parameter_is_an_input_error(self, text, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            parse_weight(text, base=make_exponential(1.0))

    def test_arguments_use_the_density_number_grammar(self):
        with pytest.raises(InputError, match="^cannot parse number 'abc'$"):
            parse_weight("pow:abc")
