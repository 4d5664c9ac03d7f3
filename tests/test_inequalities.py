"""Transport maps, bound checks and their verdict gates."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import wrenyi.inequalities as inequalities
from wrenyi.densities import (
    Density,
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
from wrenyi.errors import DomainError, EvaluationError, InputError, WrenyiError
from wrenyi.gaussian_forms import case_laws, lambda_tilde
from wrenyi.inequalities import (
    TransportMap,
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
    lemma4_residual,
)
from wrenyi.numerics import QuadratureConfig, integrate
from wrenyi.repro import perturbed_quadratic_gaussian, perturbed_tent
from wrenyi.weights import (
    WeightFunction,
    derive_rho12,
    make_constant,
    make_exp_linear,
    make_power,
)

ONE = make_constant(1.0)
E01 = make_exp_linear(0.1)


class TestTransport:
    def test_identity_on_same_density(self):
        g = make_generalized_gaussian(2.0, 2.0)
        s = build_transport(g, g)
        xs = np.linspace(-0.95, 0.95, 21)
        assert np.max(np.abs(s(xs) - xs)) <= 1e-10
        assert np.max(np.abs(s.value_and_derivative(xs)[1] - 1.0)) <= 1e-8

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
    def test_array_matches_pointwise_loop(self, catalog, weighted_oracles, f_name, target):
        desc = "weighted:laplace:1;expw:0.2"
        f = parse_density(desc) if f_name == "weighted" else catalog[f_name]
        g = make_generalized_gaussian(2.0, 2.0) if target == "gg22" else make_laplace(1.0)
        s = build_transport(f, g)
        xs = np.array(
            [-750.0, -40.0, -5.0, -1.0, -0.999, -0.5, 0.0, 1e-12, 0.3, 0.9999, 1.0, 3.0, 40.0, 750.0]
        )
        got = s(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        refs = (
            [_pointwise_transport(s, x) for x in xs],
            [s(x) for x in xs],
            [s(xs[i : i + 1])[0] for i in range(xs.size)],
        )
        # F_f is a function of its point alone, so every call agrees to the
        # last bit, x = 40 and 750 included.
        for ref in refs:
            assert got.tolist() == ref
        if f_name != "weighted":
            return
        # Below the upper tail s also agrees with Q_G at the exact level.
        # At x = 40 and 750, 1 - F_f is 1e-14 and 1e-260: there F_f holds
        # only its absolute digits, and a last-digit move in it is a large
        # move in s, so those two are not compared with the oracle.
        oracle = np.array([weighted_oracles[desc].cdf(x) for x in xs])
        upper = xs > 5.0
        assert xs[upper].tolist() == [40.0, 750.0]
        exact = g.quantile_fn(np.clip(oracle, 5e-324, np.nextafter(1.0, 0.0)))
        assert np.max(np.abs(got - exact)[~upper]) <= 1e-12
        # Every level G-CDF(s(x)) agrees with the exact F_f.
        assert np.max(np.abs(cdf(g, got) - oracle)) <= 1e-12

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

    def test_weighted_target_has_a_quantile(self):
        # Every density has a quantile now: a weighted target passes the
        # round trip F_G(Q_G(q)) = q that build_transport checks.
        weighted = parse_density("weighted:laplace:1;expw:0.2")
        s = build_transport(make_laplace(1.0), weighted)
        x = np.array([-3.0, -0.5, 0.0, 0.7, 4.0])
        assert np.max(np.abs(cdf(weighted, s(x)) - cdf(make_laplace(1.0), x))) <= 1e-12

    def test_target_whose_quantile_misses_its_cdf_rejected(self):
        # s stays increasing, so only the round trip F_G(Q_G(q)) = q fails.
        lap = make_laplace(1.0)
        shifted = replace(lap, quantile_fn=lambda q: lap.quantile_fn(q) + 0.1)
        with pytest.raises(DomainError, match="transport CDF match failed at q=0.020"):
            build_transport(make_laplace(1.0), shifted)

    def test_table_target(self):
        # A table has a closed-form quantile, so it can be a target; the
        # build checks the CDF match at 21 probes.
        table = make_tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        s = build_transport(make_laplace(1.0), table)
        assert s(0.0) == pytest.approx(0.0, abs=1e-15)


def _scalar_cdf(f, x):
    """Reference F_f(x) for one point, without going through ``cdf``.

    It is the family's ``cdf_fn`` at one scalar, clipped to [0, 1].
    """
    lo, hi = f.support
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    return float(min(max(f.cdf_fn(x), 0.0), 1.0))


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
        # The bound fails here, but so does its hypothesis: no claim is made.
        assert v.verdict == "assumptions-unmet"
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
        assert v.verdict == "assumptions-unmet"

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

    def test_failed_hypothesis_makes_no_claim(self):
        # The tent at c = 0.5 misses E|X|^c >= c!; its negative slack is no violation.
        v = check_cor1(make_tent(), 0.5)
        assert v.margins["E|X|^c - c!"] < 0 and v.slack < 0
        assert v.verdict == "assumptions-unmet"


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
        assert v.verdict == "assumptions-unmet"

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

    def test_builds_the_quadratic_gaussian_once(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return make_generalized_gaussian(*args)

        monkeypatch.setattr(inequalities, "make_generalized_gaussian", counted)
        check_cor3(make_tent())
        assert built == [(2.0, 2.0)]

    def test_perturbed_holds(self):
        v = check_cor3(perturbed_quadratic_gaussian(0.1, mode="quad"))
        assert v.verdict == "holds" and v.slack > 0

    def test_margin_gate(self):
        f = scale_density(make_generalized_gaussian(2.0, 2.0), 0.5)
        v = check_cor3(f)
        assert v.margins["sigma_2(f)-(2/3)J_{2,2}(G)^2"] < 0
        assert v.verdict == "assumptions-unmet"


class TestFiiCri:
    def test_gg_p_below_one_target_raises_no_runtime_warning(self):
        # The target G = gg(2, 0.8) evaluates the p < 1 quantile at the
        # levels 0 and 1: a verdict or a WrenyiError, never a RuntimeWarning.
        f = make_generalized_gaussian(2.0, 0.8)
        try:
            v = check_fii(f, make_power(0.3), 2.0, 0.8)
        except WrenyiError:
            return
        assert v.verdict in ("holds", "violated", "assumptions-unmet", "inconclusive")

    def test_reduction_constants_vanish(self):
        g = make_generalized_gaussian(2.0, 2.0)
        terms = check_fii(g, ONE, 2.0, 2.0).terms
        assert terms["eta"] == 0.0
        assert terms["kappa"] == 0.0

    def test_reduction_alpha_inf(self):
        g = make_generalized_gaussian(math.inf, 2.0)
        terms = check_fii(g, ONE, math.inf, 2.0).terms
        assert terms["eta"] == 0.0
        assert terms["Delta"] == 0.0
        assert terms["psib_diff"] == 0.0

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

    def test_alpha_inf_fisher_informations_are_exact(self):
        # At f = G (uniform on [-1, 1]) s is the identity and rho_s = phi:
        # V(e^{0.1x}/8) - int 0.1 e^{0.1x}/8 = e^{0.1}/4 - sinh(0.1)/4.
        g = make_generalized_gaussian(math.inf, 2.0)
        terms = check_fii(g, E01, math.inf, 2.0).terms
        for key in ("J^{rho_s}(f)", "J^{phi}(G)"):
            assert terms[key] == pytest.approx(math.cosh(0.1) / 4.0, rel=1e-12)

    def test_error_includes_the_lambda_ratio(self):
        # rhs = (J ratio)^(1/beta) Lambda(Y)/Lambda(Z) - kappa: the errors of
        # both Lambdas reach the slack's.  e^{0.1 x} outside its family and
        # without its terms keeps rho_1 = phi^-2 on quadrature.
        g = make_generalized_gaussian(2.0, 2.0)
        w = replace(E01, family="generic", terms=None)
        v = check_fii(g, w, 2.0, 2.0)
        rho1, _ = derive_rho12(w, 2.0, 2.0)
        laws = case_laws(2.0, 2.0)
        ratio = lambda_tilde(rho1, 2.0, 2.0, laws["Y"]) / lambda_tilde(rho1, 2.0, 2.0, laws["Z"])
        assert ratio.value == v.terms["lambda_ratio"] and ratio.error > 1e-11
        j_root = (v.terms["J^{rho2}(f)"] / v.terms["J^{rho1}(G)"]) ** 0.5
        assert v.error >= j_root * ratio.error * (1 - 1e-12)
        assert v.error == pytest.approx(5.6239e-11, rel=1e-4)

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.5, 2.0])
    def test_eta_at_g_under_a_power_weight(self, c):
        # At f = G (here 3/4 (1 - x^2)_+) s is the identity and rho_s = phi =
        # |x|^c, so eta = int x phi' G^2 = c int |x|^c G^2
        # = (9/8) c (1/(c+1) - 2/(c+3) + 1/(c+5)).  phi and phi o s vanish at
        # the centre node 0, where rho_s' reads 0 * (0/0) and s rho_s' is 0.
        g = make_generalized_gaussian(2.0, 2.0)
        eta = inequalities._Problem(g, make_power(c), 2.0, 2.0).eta
        exact = 9.0 / 8.0 * c * (1.0 / (c + 1.0) - 2.0 / (c + 3.0) + 1.0 / (c + 5.0))
        assert abs(eta.value - exact) <= eta.error + 4e-15 * exact

    def test_fii_and_cri_at_g_under_a_vanishing_weight(self):
        g = make_generalized_gaussian(2.0, 2.0)
        for check in (check_fii, check_cri):
            v = check(g, make_power(0.3), 2.0, 2.0)
            assert v.verdict == "holds" and v.slack == pytest.approx(0.0132155, rel=1e-5)
        # rho_1 = phi^(alpha/(1-p)) = |x|^-3: the true cause, not a nan.
        with pytest.raises(DomainError, match=r"int phi f\^p diverges: x\^-3 "):
            check_fii(g, make_power(1.5), 2.0, 2.0)

    def test_transport_term_sign_recorded(self):
        v = check_fii(make_exponential(1.0), make_power(2.0), 2.0, 1.0)
        assert "E_f[S phi~']" in v.terms

    def test_case_mismatch(self):
        with pytest.raises(InputError):
            check_fii(make_tent(), ONE, math.inf, 1.0)

    @pytest.mark.parametrize(
        "f, w, alpha, p",
        [
            (make_laplace(1.0), E01, 2.0, 2.0),
            (make_laplace(1.0), make_constant(2.0), 2.0, 0.8),
            (make_laplace(1.0), E01, 2.0, 1.0),
            (make_tent(), E01, math.inf, 2.0),
        ],
        ids=["p>1", "p<1", "p=1", "alpha=inf"],
    )
    @pytest.mark.parametrize("check", [check_fii, check_cri], ids=["fii", "cri"])
    def test_each_term_computed_once(self, monkeypatch, check, f, w, alpha, p):
        # The measures a check calls directly, keyed by what they compute:
        # a repeated key is a term computed twice.
        calls = []
        for name in (
            "weighted_renyi_power",
            "generalized_deviation",
            "expectation",
            "weighted_fisher_information",
        ):
            measure = getattr(inequalities, name)

            def counted(*args, _name=name, _measure=measure):
                calls.append((_name, _term_key(args)))
                return _measure(*args)

            monkeypatch.setattr(inequalities, name, counted)
        check(f, w, alpha, p)
        assert calls
        assert len(set(calls)) == len(calls)


def _term_key(obj):
    """Densities, weights and transports compared by family and parameters."""
    if isinstance(obj, (Density, WeightFunction)):
        return (obj.family, _term_key(obj.params))
    if isinstance(obj, TransportMap):
        return (_term_key(obj.source), _term_key(obj.target))
    if isinstance(obj, (dict, tuple)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return tuple((k, _term_key(v)) for k, v in items)
    return obj


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

    def test_c_zero_computes_no_transport_moment(self):
        # A_s and B_s enter only times c; at exp:1 both diverge.
        v1, v2 = check_cor4(make_exponential(1.0), 0.0)
        assert v1.terms["A_s"] is None and v2.terms["B_s"] is None
        assert v1.warnings == v2.warnings == ()
        assert (v1.lhs, v1.rhs, v2.lhs, v2.rhs) == (2.0, 1.0, 2.0, 1.0)

    def test_order_gate(self):
        with pytest.raises(InputError):
            check_cor4(make_laplace(1.0), 0.6)

    @pytest.mark.parametrize("spec", ["gg:2,1", "gg:0,2"])
    def test_tail_overflow_is_a_numeric_error(self, spec):
        # |s|^c s' f overflows in a deep tail; the non-finite integrand is
        # the quadrature's EvaluationError, never a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EvaluationError, match="^integrand not finite"):
                check_cor4(parse_density(spec), 0.2)


class TestLemma4:
    def test_tent_pair(self):
        res = lemma4_residual(make_tent(), np.positive, np.ones_like)
        assert res <= 1e-8

    def test_gaussian_arctangent(self):
        res = lemma4_residual(
            make_generalized_gaussian(2.0, 1.0), np.arctan, lambda x: 1 / (1 + x * x)
        )
        assert res <= 1e-7

    def test_quadratic_gaussian_cubic(self):
        res = lemma4_residual(
            make_generalized_gaussian(2.0, 2.0), lambda x: x**3, lambda x: 3 * x * x
        )
        assert res <= 1e-7

    @pytest.mark.parametrize("spec", ["tent", "laplace:1", "gg:2,2", "gg:0,2"])
    @pytest.mark.parametrize(
        "g, dg, g_point, dg_point",
        [
            (np.positive, np.ones_like, lambda x: x, lambda x: 1.0),
            (np.arctan, lambda x: 1 / (1 + x * x), math.atan, lambda x: 1 / (1 + x * x)),
            (lambda x: x**3, lambda x: 3 * x * x, lambda x: x**3, lambda x: 3 * x * x),
        ],
        ids=["x", "atan", "cube"],
    )
    def test_matches_the_per_point_loop(self, spec, g, dg, g_point, dg_point):
        # The reference evaluates every integrand point by point on floats
        # (math.atan for np.arctan, so the bound allows a last-bit move).
        f = parse_density(spec)

        def loop(*fns):
            return lambda x: np.prod([[float(fn(v)) for v in x] for fn in fns], axis=0)

        cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, singularities=f.singularities)
        i1 = integrate(loop(f.pdf, dg_point), f.support, cfg).value
        i2 = integrate(loop(f.dpdf, g_point), f.support, cfg).value
        ref = abs(i1 + i2) / (1.0 + abs(i1))
        assert lemma4_residual(f, g, dg) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_boundary_gate(self):
        # The uniform gg:inf,2 is 1/2 at both ends of its support.
        with pytest.raises(DomainError, match="does not vanish at the boundary"):
            lemma4_residual(make_generalized_gaussian(math.inf, 2.0), np.positive, np.ones_like)


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
