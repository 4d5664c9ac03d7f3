"""Transport maps, bound checks and their verdict gates."""

import math

import numpy as np
import pytest

from wrenyi.densities import (
    cdf,
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tabulated,
    make_tent,
    parse_density,
    quantile,
    scale_density,
)
from wrenyi.errors import DomainError, InputError
from wrenyi.inequalities import (
    build_transport,
    check_cor1,
    check_cor2,
    check_cor3,
    check_cor4,
    check_cri,
    check_fii,
    check_mei,
    check_scaling_identity,
    check_thm11,
    fii_terms,
    lemma4_residual,
)
from wrenyi.numerics import integrate
from wrenyi.repro import perturbed_quadratic_gaussian, perturbed_tent
from wrenyi.weights import make_constant, make_exp_linear, make_power

ONE = make_constant(1.0)
E01 = make_exp_linear(0.1)


class TestTransport:
    def test_identity_on_same_density(self):
        g = make_generalized_gaussian(2.0, 2.0)
        s = build_transport(g, g)
        xs = np.linspace(-0.95, 0.95, 21)
        assert np.max(np.abs(s(xs) - xs)) <= 1e-10
        assert np.max(np.abs(s.derivative(xs) - 1.0)) <= 1e-8

    def test_scaling_halves(self):
        g = make_generalized_gaussian(2.0, 2.0)
        s = build_transport(scale_density(g, 2.0), g)
        xs = np.linspace(-1.8, 1.8, 13)
        assert np.max(np.abs(s(xs) - xs / 2.0)) <= 1e-10

    def test_exponential_onto_laplace(self):
        s = build_transport(make_exponential(1.0), make_laplace(1.0))
        for x in (0.5, 1.0, 2.0):
            u = 1 - math.exp(-x)
            expected = math.log(2 * u) if u < 0.5 else -math.log(2 * (1 - u))
            assert s(x) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "f_name,target",
        [
            ("exp1", (1.0, 1.0)),
            ("laplace", (1.0, 1.0)),
            ("tent", (2.0, 2.0)),
            ("g22", (2.0, 2.0)),
            ("uniform", (math.inf, 2.0)),
            ("g21", (2.0, 1.0)),
        ],
    )
    def test_cdf_roundtrip(self, catalog, f_name, target):
        f = catalog[f_name]
        g = make_generalized_gaussian(*target)
        s = build_transport(f, g)
        for q in np.linspace(0.02, 0.98, 21):
            x = quantile(f, float(q))
            assert abs(cdf(f, x) - cdf(g, float(s(x)))) <= 1e-8

    def test_clamps_outside_support(self):
        tent = make_tent()
        g = make_generalized_gaussian(2.0, 2.0)
        s = build_transport(tent, g)
        assert s(-5.0) == -1.0 and s(5.0) == 1.0

    @pytest.mark.parametrize("target", ["gg22", "laplace"])
    @pytest.mark.parametrize(
        "f_name",
        ["exp1", "exp2", "laplace", "tent", "g22", "g21", "g12", "g2_08", "g0_2", "uniform", "weighted"],
    )
    def test_array_matches_pointwise_loop(self, catalog, f_name, target):
        f = (
            parse_density("weighted:laplace:1;expw:0.2")
            if f_name == "weighted"
            else catalog[f_name]
        )
        g = make_generalized_gaussian(2.0, 2.0) if target == "gg22" else make_laplace(1.0)
        s = build_transport(f, g)
        xs = np.array(
            [-750.0, -40.0, -5.0, -1.0, -0.999, -0.5, 0.0, 1e-12, 0.3, 0.9999, 1.0, 3.0, 40.0, 750.0]
        )
        got = s(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert got.tolist() == [_pointwise_transport(s, x) for x in xs]
        assert got.tolist() == [s(x) for x in xs]
        assert got.tolist() == [s(xs[i : i + 1])[0] for i in range(xs.size)]

    def test_deep_tail_takes_the_second_chance(self):
        g = make_generalized_gaussian(2.0, 1.0)
        s = build_transport(make_laplace(1.0), g)
        # F_f(-750) underflows to 0; Q_G at the clamped level 5e-324 is
        # -inf, so the level is clamped again to 1e-15.
        assert not math.isfinite(g.quantile_fn(5e-324))
        xs = np.array([-750.0, -0.2, 750.0])
        got = s(xs)
        assert np.all(np.isfinite(got))
        assert got[0] == g.quantile_fn(1e-15)
        assert got.tolist() == [_pointwise_transport(s, x) for x in xs]

    def test_zero_dim_input_gives_float(self):
        s = build_transport(make_laplace(1.0), make_generalized_gaussian(2.0, 2.0))
        for x in (0.3, np.float64(0.3), np.array(0.3), -9.0):
            assert type(s(x)) is float

    def test_target_without_quantile_rejected(self):
        table = make_tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert table.quantile_fn is None
        with pytest.raises(InputError):
            build_transport(make_laplace(1.0), table)


def _scalar_cdf(f, x):
    """Reference F_f(x) for one point, without going through ``cdf``."""
    lo, hi = f.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    if f.cdf_fn is not None:
        return float(min(max(f.cdf_fn(x), 0.0), 1.0))
    return float(min(max(integrate(f.pdf, (lo, x), f.quad_config()).value, 0.0), 1.0))


def _pointwise_transport(s, x):
    """Reference: s(x) one point at a time with scalar CDF and quantile calls."""
    x = float(x)
    a, b = s.source.support
    if x <= a:
        return -s.k
    if x >= b:
        return s.k
    u = min(max(_scalar_cdf(s.source, x), 5e-324), float(np.nextafter(1.0, 0.0)))
    y = float(s.target.quantile_fn(u))
    if not math.isfinite(y):
        y = float(s.target.quantile_fn(min(max(u, 1e-15), 1.0 - 1e-15)))
    return y


class TestThm11Verdicts:
    def test_holds_regime(self):
        v = check_thm11(
            make_exponential(3.5), make_exponential(1.5), make_exp_linear(-1.0), 1.0
        )
        assert v.verdict == "holds"
        assert v.margins["E_f[phi]-E_g[phi]"] > 0
        assert v.slack == pytest.approx(math.log(7 / 3) - 2 / 4.5, abs=1e-12)

    def test_violated_regime(self):
        v = check_thm11(
            make_exponential(0.1), make_exponential(1.0), make_exp_linear(-2.0), 1.0
        )
        assert v.verdict == "violated"
        assert v.slack < 0 and v.margins["E_f[phi]-E_g[phi]"] < 0

    def test_holds_without_margin(self):
        v = check_thm11(
            make_exponential(0.1), make_exponential(0.2), make_exp_linear(-0.02), 1.0
        )
        assert v.slack > 0 and v.margins["E_f[phi]-E_g[phi]"] < 0
        assert v.verdict == "assumptions-unmet"

    def test_equality_at_same_density(self):
        v = check_thm11(
            make_exponential(1.0), make_exponential(1.0), make_exp_linear(-0.5), 2.0
        )
        assert abs(v.slack) <= 1e-7
        assert v.equality


class TestMei:
    @pytest.mark.parametrize(
        "alpha,p", [(1.0, 2.0), (2.0, 2.0), (2.0, 1.5), (math.inf, 2.0)]
    )
    @pytest.mark.parametrize("wname", ["one", "e01"])
    def test_equality_at_gaussian(self, alpha, p, wname, weights_catalog):
        w = weights_catalog[wname]
        f = make_generalized_gaussian(alpha, p)
        v = check_mei(f, w, alpha, p)
        assert abs(v.slack) <= 1e-5
        assert v.equality
        assert all(m >= -1e-9 for m in v.margins.values())

    def test_perturbed_density_strict(self):
        f = perturbed_quadratic_gaussian(0.2, wave=1.0)
        v = check_mei(f, ONE, 2.0, 2.0)
        assert v.verdict == "holds" and v.slack > 0

    def test_margin_gate(self):
        # Shrunk support loses weighted mass at e^{3x} tilt: E_f < E_G.
        f = scale_density(make_generalized_gaussian(2.0, 2.0), 0.5)
        w = make_exp_linear(3.0)
        v = check_mei(f, w, 2.0, 2.0)
        assert v.margins["E_f[phi]-E_G[phi]"] < 0
        assert v.verdict in ("assumptions-unmet", "violated")

    def test_order_precondition(self):
        with pytest.raises(InputError):
            check_mei(make_tent(), ONE, 1.0, 0.3)

    def test_p_one_branch_margins(self):
        f = make_generalized_gaussian(2.0, 1.0)
        v = check_mei(f, E01, 2.0, 1.0)
        assert "E_f[phi]-E_G[phi*]" in v.margins
        assert abs(v.slack) <= 1e-5


class TestScalingIdentity:
    def test_unit_scale_residual_zero(self):
        g = make_generalized_gaussian(2.0, 2.0)
        assert check_scaling_identity(E01, g, 1.0, 2.0) <= 1e-12

    def test_quadratic_gaussian(self):
        g = make_generalized_gaussian(2.0, 2.0)
        assert check_scaling_identity(make_exp_linear(0.3), g, 1.7, 2.0) <= 1e-7

    def test_uniform_halforder(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        assert check_scaling_identity(make_power(1.0), u, 3.0, 0.5) <= 1e-7


class TestCor1:
    def test_laplace_equality(self):
        v = check_cor1(make_laplace(1.0), 0.0)
        assert v.lhs == pytest.approx(1.0, abs=1e-7)
        assert v.rhs == pytest.approx(1.0, abs=1e-7)
        assert v.equality

    def test_exponential_hypothesis_region(self):
        v = check_cor1(make_exponential(5.0), -0.5)
        assert all(m > 0 for m in v.margins.values())
        assert v.verdict == "holds"

    def test_boundary_margin_processed(self):
        v = check_cor1(make_exponential(5.0), 0.0)
        assert v.margins["E|X|^c - c!"] == pytest.approx(0.0, abs=1e-12)
        assert v.verdict == "holds"

    def test_general_orders_reduce_to_mei(self):
        f = make_generalized_gaussian(2.0, 2.0)
        v = check_cor1(f, 1.0, alpha=2.0, p=2.0)
        assert abs(v.slack) <= 1e-6
        assert v.equality


class TestCor2:
    def test_tent_equality(self):
        v = check_cor2(make_tent(), 0.0)
        assert v.lhs == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert v.rhs == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert v.equality

    def test_uniform_strict(self):
        v = check_cor2(make_generalized_gaussian(math.inf, 2.0), 0.0)
        assert v.lhs == pytest.approx(4.0 / 9.0, rel=1e-9)
        assert v.rhs == pytest.approx(0.5, rel=1e-9)
        assert v.verdict == "holds"

    def test_margin_gate(self):
        # Spread far beyond the tent: E|X|^c below threshold for c ~ 2.
        f = scale_density(make_tent(), 0.05)
        v = check_cor2(f, 2.0)
        assert v.margins["E|X|^c - 2/((c+2)(c+1))"] < 0
        assert v.verdict in ("assumptions-unmet", "violated")

    def test_strict_for_perturbations(self):
        for i, eps in enumerate(np.linspace(0.03, 0.3, 10)):
            f = perturbed_tent(float(eps), wave=1.0 + 0.25 * i)
            v = check_cor2(f, 0.0)
            assert v.slack > 0, eps

    def test_domain_gate(self):
        with pytest.raises(InputError):
            check_cor2(make_tent(), -2.5)


class TestCor3:
    def test_equality_at_quadratic_gaussian(self):
        v = check_cor3(make_generalized_gaussian(2.0, 2.0))
        assert abs(v.slack) <= 1e-5
        assert v.equality
        assert v.margins["sigma_2(f)-(2/3)J_{2,2}(G)^2"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_perturbed_holds(self):
        v = check_cor3(perturbed_quadratic_gaussian(0.1, mode="quad"))
        assert v.verdict == "holds" and v.slack > 0

    def test_margin_gate(self):
        f = scale_density(make_generalized_gaussian(2.0, 2.0), 0.5)
        v = check_cor3(f)
        assert v.margins["sigma_2(f)-(2/3)J_{2,2}(G)^2"] < 0
        assert v.verdict in ("assumptions-unmet", "violated")


class TestFiiCri:
    def test_reduction_constants_vanish(self):
        g = make_generalized_gaussian(2.0, 2.0)
        terms = fii_terms(g, ONE, 2.0, 2.0)
        assert terms.eta == 0.0
        assert terms.kappa == 0.0

    def test_reduction_alpha_inf(self):
        g = make_generalized_gaussian(math.inf, 2.0)
        terms = fii_terms(g, ONE, math.inf, 2.0)
        assert terms.eta == 0.0
        assert terms.delta == 0.0
        assert terms.psib_diff == 0.0

    def test_equality_point(self):
        g = make_generalized_gaussian(2.0, 2.0)
        vf = check_fii(g, ONE, 2.0, 2.0)
        vc = check_cri(g, ONE, 2.0, 2.0)
        assert abs(vf.slack) <= 1e-5
        assert abs(vc.slack) <= 1e-5

    def test_weighted_at_gaussian_holds(self):
        g = make_generalized_gaussian(2.0, 2.0)
        vf = check_fii(g, E01, 2.0, 2.0)
        assert vf.verdict == "holds"
        assert vf.terms["kappa"] == pytest.approx(
            vf.terms["eta"] * vf.terms["N_rho1_G"] ** (2.0 - 1.0), rel=1e-10
        )
        vc = check_cri(g, E01, 2.0, 2.0)
        assert vc.verdict == "holds"

    def test_p_below_one_branch(self):
        g = make_generalized_gaussian(2.0, 0.8)
        v = check_fii(g, ONE, 2.0, 0.8)
        assert abs(v.slack) <= 1e-5

    def test_p_one_branch(self):
        g = make_generalized_gaussian(2.0, 1.0)
        v = check_fii(g, make_power(2.0), 2.0, 1.0)
        assert v.verdict in ("holds", "inconclusive")
        assert v.terms["base_lhs"] == pytest.approx(0.5, abs=1e-6)
        assert v.terms["base_rhs"] == pytest.approx(0.5, abs=1e-6)
        vc = check_cri(g, make_power(2.0), 2.0, 1.0)
        assert abs(vc.slack) <= 1e-5

    def test_alpha_inf_branch(self):
        g = make_generalized_gaussian(math.inf, 2.0)
        v = check_fii(g, E01, math.inf, 2.0)
        assert v.verdict == "holds"
        assert v.terms["Delta"] < 0
        vc = check_cri(g, E01, math.inf, 2.0)
        assert vc.verdict == "holds"

    def test_transport_term_sign_recorded(self):
        v = check_fii(make_exponential(1.0), make_power(2.0), 2.0, 1.0)
        assert "E_f[S phi~']" in v.terms

    def test_case_mismatch(self):
        with pytest.raises(InputError):
            check_fii(make_tent(), ONE, math.inf, 1.0)


class TestCor4:
    def test_laplace_equality(self):
        v1, v2 = check_cor4(make_laplace(1.0), 0.0)
        assert v1.lhs == pytest.approx(1.0, abs=1e-6)
        assert v1.rhs == pytest.approx(1.0, abs=1e-6)
        assert v2.lhs == pytest.approx(1.0, abs=1e-6)
        assert v2.rhs == pytest.approx(1.0, abs=1e-6)

    def test_exponential_recorded(self):
        v1, v2 = check_cor4(make_exponential(1.0), 0.0)
        assert v2.lhs == pytest.approx(2.0, rel=1e-6)
        assert v2.rhs == pytest.approx(1.0, rel=1e-6)
        assert v2.verdict == "violated"

    def test_order_gate(self):
        with pytest.raises(InputError):
            check_cor4(make_laplace(1.0), 0.6)


class TestLemma4:
    def test_tent_pair(self):
        res = lemma4_residual(make_tent(), lambda x: x, (-1, 1), dg=lambda x: 1.0)
        assert res <= 1e-8

    def test_gaussian_arctangent(self):
        res = lemma4_residual(
            lambda x: math.exp(-x * x),
            math.atan,
            (-math.inf, math.inf),
            df=lambda x: -2 * x * math.exp(-x * x),
            dg=lambda x: 1 / (1 + x * x),
        )
        assert res <= 1e-7

    def test_quadratic_gaussian_cubic(self):
        res = lemma4_residual(
            make_generalized_gaussian(2.0, 2.0),
            lambda x: x**3,
            None,
            dg=lambda x: 3 * x * x,
        )
        assert res <= 1e-7

    def test_boundary_gate(self):
        with pytest.raises(DomainError):
            lemma4_residual(
                lambda x: 1.0, lambda x: x, (0.0, 1.0), df=lambda x: 0.0, dg=lambda x: 1.0
            )


class TestVerdictStability:
    def test_near_equality_is_first_class(self):
        # At an equality point the slack sits inside the numeric error
        # budget: the verdict may be "holds" or "inconclusive" but must
        # never report a violation.
        f = make_generalized_gaussian(2.0, 2.0)
        v = check_mei(f, E01, 2.0, 2.0)
        assert v.verdict in ("holds", "inconclusive")
        assert abs(v.slack) <= v.error + v.tolerance

    def test_tolerance_halving_keeps_verdicts(self):
        cases = [
            check_cor2(make_generalized_gaussian(math.inf, 2.0), 0.0, tol=1e-8),
            check_cor2(make_generalized_gaussian(math.inf, 2.0), 0.0, tol=5e-9),
            check_cor1(make_exponential(5.0), -0.5, tol=1e-8),
            check_cor1(make_exponential(5.0), -0.5, tol=5e-9),
        ]
        assert cases[0].verdict == cases[1].verdict == "holds"
        assert cases[2].verdict == cases[3].verdict == "holds"
