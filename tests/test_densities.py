"""Density catalog: normalization, branches, CDFs, descriptors."""

import json
import math
import warnings

import numpy as np
import pytest

from dataclasses import replace

import oracle
from wrenyi import cli, densities
from wrenyi.densities import (
    cdf,
    gg_norm_const,
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tabulated,
    make_tent,
    make_weighted_density,
    parse_density,
    parse_float,
    quantile,
    scale_density,
    supremum,
)
from wrenyi.errors import DomainError, InputError
from wrenyi.numerics import _MAX_PANELS, integrate
from wrenyi.weights import make_constant, make_exp_linear, make_power, parse_weight

VALID_GRID = [
    (a, p)
    for a in (0.5, 1.0, 2.0, 3.0, math.inf)
    for p in (0.8, 1.0, 1.5, 2.0, 3.0)
    if p > 1.0 - a or math.isinf(a)
] + [(0.0, 1.5), (0.0, 2.0), (0.0, 3.0)]


class TestNormalizationConstants:
    def test_quadratic_gaussian(self):
        assert gg_norm_const(2.0, 2.0) == pytest.approx(0.75, abs=0)

    def test_tent_constant(self):
        assert gg_norm_const(1.0, 2.0) == pytest.approx(1.0, abs=0)

    def test_uniform_constant(self):
        assert gg_norm_const(math.inf, 2.0) == 0.5
        assert gg_norm_const(math.inf, 0.8) == 0.5

    def test_gaussian_constant(self):
        assert gg_norm_const(2.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )


class TestGeneralizedGaussian:
    @pytest.mark.parametrize("alpha,p", VALID_GRID)
    def test_normalizes_to_one(self, alpha, p):
        d = make_generalized_gaussian(alpha, p)
        res = integrate(d.pdf, d.support, d.quad_config())
        assert abs(res.value - 1.0) <= 1e-8

    def test_known_pdfs(self):
        g22 = make_generalized_gaussian(2.0, 2.0)
        assert g22.pdf(0.5) == pytest.approx(0.75 * (1 - 0.25), abs=1e-15)
        g12 = make_generalized_gaussian(1.0, 2.0)
        assert g12.pdf(0.3) == pytest.approx(0.7, abs=1e-15)
        g21 = make_generalized_gaussian(2.0, 1.0)
        assert g21.pdf(1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), rel=1e-14
        )

    def test_truncation_outside_support(self):
        for alpha, p in [(1.0, 2.0), (2.0, 2.0), (0.5, 3.0), (2.0, 1.5)]:
            d = make_generalized_gaussian(alpha, p)
            lo, hi = d.support
            xs = np.array([lo - 1e-9, lo - 2.0, hi + 1e-9, hi + 2.0])
            assert np.all(d.pdf(xs) == 0.0)

    def test_parameter_validity(self):
        with pytest.raises(InputError):
            make_generalized_gaussian(0.5, 0.4)  # p <= 1 - alpha
        with pytest.raises(InputError):
            make_generalized_gaussian(0.0, 1.0)  # alpha = 0 needs p > 1
        with pytest.raises(InputError):
            make_generalized_gaussian(math.inf, 0.0)
        with pytest.raises(InputError):
            make_generalized_gaussian(2.0, 2.0, t=-1.0)

    @pytest.mark.parametrize("alpha,p", [(2.0, 2.0), (2.0, 1.0), (2.0, 0.8), (0.0, 2.0), (math.inf, 2.0), (1.0, 2.0)])
    def test_cdf_nondecreasing_and_normalized(self, alpha, p):
        d = make_generalized_gaussian(alpha, p)
        lo, hi = d.support
        lo = lo if math.isfinite(lo) else -8.0
        hi = hi if math.isfinite(hi) else 8.0
        vals = [cdf(d, x) for x in np.linspace(lo, hi, 101)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # Heavy-tailed branches keep visible mass beyond any fixed window,
        # so only bracket the endpoint levels.
        assert vals[0] <= 1e-4
        assert vals[-1] >= 1.0 - 1e-4

    def test_derivative_consistency(self):
        for alpha, p in [(2.0, 2.0), (2.0, 1.0), (3.0, 1.5), (2.0, 0.8)]:
            d = make_generalized_gaussian(alpha, p)
            for x in (0.25, -0.4, 0.6):
                h = 1e-6
                fd = (d.pdf(x + h) - d.pdf(x - h)) / (2 * h)
                assert d.dpdf(x) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a closed form ran a quadrature")


class TestNormalizationCheck:
    # Tails |x|^-1.03, |x|^-1.2 and |x|^-1.25, whose mass a quadrature
    # cannot resolve (it read 0.8127 for gg:0.3,0.71): the mass is the
    # closed form 2a M(0, 1), so they parse, and 2a times a 30-digit mpmath
    # quadrature of the kernel in v = log u (no Beta function) is 1.
    @pytest.mark.parametrize("spec", ["gg:0.3,0.71", "gg:0.3,0.75", "gg:0.5,0.6"])
    def test_heavy_tails_parse_with_mass_one(self, spec):
        import mpmath as mp

        g = parse_density(spec)
        alpha, p, a = (mp.mpf(g.params[k]) for k in ("alpha", "p", "a"))
        with mp.workdps(30):
            kernel = lambda v: (1 + (1 - p) * mp.exp(alpha * v)) ** (1 / (p - 1)) * mp.exp(v)  # noqa: E731
            cuts = [-mp.inf, -10, 0, 10, 30, 100, 300, 1000, 3000, 10000, mp.inf]
            mass = 2 * a * mp.quad(kernel, cuts)
        assert g.warnings == ()
        assert abs(mass - 1) <= 1e-14

    def test_builds_without_quadrature(self, monkeypatch):
        monkeypatch.setattr(densities, "integrate", _no_quadrature)
        for alpha, p in VALID_GRID:
            assert make_generalized_gaussian(alpha, p, 1.7).params["a"] > 0

    def test_an_overflowing_mass_is_a_domain_error(self):
        # a = 0 from (p-1)^(1/alpha) = 0.5^100000; 3^1000 raises OverflowError.
        for spec in ("gg:1e-5,1.5", "gg:0.001,4"):
            with pytest.raises(DomainError, match="constant a = .* is not a positive"):
                parse_density(spec)

    # The density of log|X| peaks at e^-100 times the support's edge, at
    # 1e230, 1e26 and 0.7e30: a quadrature of the mass reads 5.9e-87,
    # 7.1e-148, 0.356 and 1.6e-5, and of the first two's wre and weighted
    # entropy 393.31 (closed form -135.06) and 2.8e-145, with no warning.
    @pytest.mark.parametrize("spec", ["gg:0,1.01", "gg:0.01,0.995", "gg:0.05,1", "gg:2,1,1e30"])
    def test_a_bulk_out_of_quadrature_reach_is_a_domain_error(self, spec):
        with pytest.raises(DomainError, match="G's mass sits near"):
            parse_density(spec)


class TestCdfValues:
    def test_exponential_median(self):
        assert cdf(make_exponential(1.0), math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_tent_symmetry(self):
        assert cdf(make_tent(), 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_gaussian_at_half(self):
        # int_{-1}^{1/2} (3/4)(1-x^2) = (3/4)(x - x^3/3) + 1/2 evaluated.
        assert cdf(make_generalized_gaussian(2.0, 2.0), 0.5) == pytest.approx(
            0.84375, abs=1e-12
        )

    def test_quantile_roundtrip(self, catalog):
        for name, d in catalog.items():
            for q in (0.05, 0.3, 0.5, 0.9):
                assert cdf(d, quantile(d, q)) == pytest.approx(q, abs=1e-8), name

    def test_array_matches_pointwise(self, catalog, weighted_oracles):
        desc = "weighted:laplace:1;expw:0.2"
        densities = dict(catalog, weighted=parse_density(desc))
        xs = np.array([-750.0, -3.0, -1.0, -0.4, 0.0, 0.3, 1.0, 2.5, 750.0])
        for name, d in densities.items():
            got = cdf(d, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape, name
            pointwise = [cdf(d, float(x)) for x in xs]
            one_point_arrays = [cdf(d, xs[i : i + 1])[0] for i in range(xs.size)]
            if name == "weighted":
                # One sweep per batch: values may move in the last digits
                # with the batch, and all of them match the oracle.
                oracle = [weighted_oracles[desc].cdf(x) for x in xs]
                for ref in (pointwise, one_point_arrays, oracle):
                    assert np.max(np.abs(got - ref)) <= 1e-12, name
            else:
                assert got.tolist() == pointwise, name
                assert got.tolist() == one_point_arrays, name
            assert type(cdf(d, np.float64(0.3))) is float, name

    def test_laplace_far_tails_do_not_overflow(self):
        cdf_fn = make_laplace(1.0).cdf_fn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cdf_fn(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("name", ["pdf", "dpdf", "cdf_fn"])
    def test_exponential_far_left_does_not_overflow(self, name):
        fn = getattr(make_exponential(1.0), name)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fn(-800.0) == 0.0
            assert fn(np.array([-800.0, -1.0])).tolist() == [0.0, 0.0]

    def test_exponential_right_side_matches_formula(self):
        lam = 1.7
        xs = np.linspace(1e-3, 400.0, 401)
        d = make_exponential(lam)
        assert d.pdf(xs).tolist() == (lam * np.exp(-lam * xs)).tolist()
        assert d.dpdf(xs).tolist() == (-lam * lam * np.exp(-lam * xs)).tolist()
        assert d.cdf_fn(xs).tolist() == (-np.expm1(-lam * xs)).tolist()

    def test_laplace_matches_two_sided_formula(self):
        # Reference: the two-exponential form, evaluated where neither
        # side overflows; one exp(-|x|/b) must give the same bits.
        b = 0.92
        xs = np.linspace(-30.0, 30.0, 601)
        with np.errstate(over="ignore"):
            ref = np.where(xs < 0, 0.5 * np.exp(xs / b), 1.0 - 0.5 * np.exp(-xs / b))
        assert make_laplace(b).cdf_fn(xs).tolist() == ref.tolist()


class TestQuantileTails:
    def test_gg_p_below_one_quantile_ends(self):
        # At the levels 0 and 1 betaincinv returns 0; np.where must not
        # warn about the 1/0 it discards there.
        q = make_generalized_gaussian(2.0, 0.8).quantile_fn(np.array([0.0, 0.5, 1.0]))
        assert q.tolist() == [-math.inf, 0.0, math.inf]


class TestScaleDensity:
    def test_identity_scale(self):
        tent = make_tent()
        s = scale_density(tent, 1.0)
        xs = np.linspace(-1, 1, 101)
        assert np.allclose(s.pdf(xs), tent.pdf(xs), atol=1e-15)

    def test_uniform_scaling(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        s = scale_density(u, 2.0)
        assert s.pdf(1.5) == pytest.approx(0.25, abs=1e-15)
        assert s.support == (-2.0, 2.0)

    def test_quadratic_gaussian_scaling(self):
        g = make_generalized_gaussian(2.0, 2.0)
        s = scale_density(g, 2.0)
        assert s.pdf(1.0) == pytest.approx((3.0 / 8.0) * (1 - 0.25), abs=1e-15)
        res = integrate(s.pdf, s.support, s.quad_config())
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_composition_matches_product_scale(self):
        g = make_generalized_gaussian(2.0, 2.0)
        s1 = scale_density(scale_density(g, 1.5), 2.0)
        s2 = scale_density(g, 3.0)
        xs = np.linspace(-2.9, 2.9, 101)
        assert np.max(np.abs(s1.pdf(xs) - s2.pdf(xs))) <= 1e-12


class TestWeightedDensity:
    def test_constant_weight_is_identity(self):
        f = make_exponential(1.0)
        fw = make_weighted_density(f, make_constant(1.0))
        assert fw.params["chi"] == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(0.01, 5, 50)
        assert np.allclose(fw.pdf(xs), f.pdf(xs), rtol=1e-10)

    def test_exponential_tilt(self):
        f = make_exponential(1.0)
        fw = make_weighted_density(f, make_exp_linear(-1.0))
        assert fw.params["chi"] == pytest.approx(0.5, abs=1e-10)
        # phi f / chi = 2 e^{-2x} = Exp(2).
        assert fw.pdf(0.7) == pytest.approx(2 * math.exp(-1.4), rel=1e-9)

    def test_absolute_value_tilt_of_uniform(self):
        u = make_generalized_gaussian(math.inf, 2.0)
        fw = make_weighted_density(u, make_power(1.0))
        assert fw.params["chi"] == pytest.approx(0.5, abs=1e-10)
        assert fw.pdf(0.25) == pytest.approx(0.25, rel=1e-9)

    def test_zero_normalizer_rejected(self):
        f = make_exponential(1.0)
        with pytest.raises(DomainError):
            make_weighted_density(f, make_constant(0.0))

    # Closed-form normalizers against the quadrature of the same weight with
    # its terms stripped, within the error that quadrature claims.
    @pytest.mark.parametrize(
        "base, weight",
        [
            ("laplace:0.8", "pow:1.5"),
            ("laplace:0.8", "abspoly:1,0.5,0.25"),
            ("gg:2,1.5", "abspoly:1,0.5"),
            ("exp:1.3", "expw:0.4"),
            ("exp:0.7", "abspoly:0,2,0.5"),
        ],
    )
    def test_closed_form_normalizer_matches_quadrature(self, base, weight, monkeypatch):
        f, w = parse_density(base), parse_weight(weight)
        quad = densities.integral(f, lambda x, fx: w(x) * fx, "E_f[phi]", replace(w, terms=None))
        monkeypatch.setattr(densities, "integral", _no_quadrature)
        chi = make_weighted_density(f, w).params["chi"]
        assert abs(chi - quad.value) <= quad.error + 4e-16 * chi

    def test_carries_the_warnings_of_its_normalizer(self):
        f = replace(make_exponential(1.0), warnings=("exponential: a warning of f itself",))
        fw = make_weighted_density(f, make_exp_linear(-1.0))
        assert fw.warnings == f.warnings


class TestTabulated:
    def test_renormalizes(self):
        xs = np.linspace(-1, 1, 2001)
        ys = np.maximum(1 - xs * xs, 0.0) * (1 + 0.2 * np.sin(xs))
        d = make_tabulated(xs, ys)
        res = integrate(d.pdf, d.support, d.quad_config())
        assert res.value == pytest.approx(1.0, abs=2e-7)
        assert cdf(d, 1.0) == pytest.approx(1.0, abs=1e-12)

    # Zero-density end cells, rising, flat and falling cells, and an
    # interior cell with no mass ([1, 2]).
    TABLE = ([-3, -2, -1, 0, 1, 2, 3, 4, 5], [0, 0, 1, 1, 0, 0, 1, 0, 0])

    def test_quantile_inverts_cdf(self):
        t = make_tabulated(*self.TABLE)
        assert t.quantile_fn is not None
        nodes = cdf(t, np.asarray(self.TABLE[0], dtype=float)).tolist()
        boundaries = [q for q in nodes if 0.0 < q < 1.0]  # 1/6, 1/2, 2/3, 2/3, 5/6
        inside = [1e-300, 1e-17, 0.05, 0.3, 0.6, 0.75, 0.9, 1.0 - 1e-16]
        assert len(boundaries) == 5
        for q in boundaries + inside:
            assert abs(cdf(t, quantile(t, q)) - q) <= 1e-14, q
        assert quantile(t, 0.3) == pytest.approx(-0.6, abs=1e-15)  # flat cell
        assert 1.0 <= quantile(t, boundaries[2]) <= 2.0  # F on the cell with no mass

    def test_quantile_scalar_and_array_agree(self):
        t = make_tabulated(*self.TABLE)
        qs = np.array([1e-300, 1.0 / 6.0, 0.3, 0.5, 2.0 / 3.0, 0.9, 1.0 - 1e-16])
        assert quantile(t, qs).tolist() == [quantile(t, float(q)) for q in qs]

    def test_bad_grid_rejected(self):
        with pytest.raises(InputError):
            make_tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(InputError):
            make_tabulated([0.0, 1.0], [1.0, -1.0])


class TestTableKinks:
    """A table's nodes with y > 0 are kinks, split at without bisection."""

    def test_nodes_are_kinks_or_singularities(self):
        t = make_tabulated(*TestTabulated.TABLE)
        assert t.kinks == (-1.0, 0.0, 3.0)
        assert t.singularities == (-3.0, -2.0, 1.0, 2.0, 4.0, 5.0)
        assert t.quad_config().kinks == t.kinks

    def test_fisher_integral_matches_per_cell_mpmath_in_three_calls(self, bumpy_table):
        xs, ys = bumpy_table()
        f = make_tabulated(xs, ys)
        sizes = []

        def pdf(x):
            sizes.append(np.size(x))
            return f.pdf(x)

        beta, p = 2.4 / 1.4, 1.7  # alpha = 2.4
        q = beta * (p - 2.0) + 1.0  # |f'|^beta f^q with q = 0.49
        core = lambda x, fx: np.abs(f.dpdf(x)) ** beta * fx**q
        v = densities.integral(replace(f, pdf=pdf), core, "Fisher integral")
        # Both zero-end cells by tanh-sinh (the ends are singularities: a
        # q < 0 is unbounded there), the 22 cells between in one GK15 call.
        assert len(sizes) <= 3 and v.warnings == ()

        import mpmath as mp

        nodes = [mp.mpf(float(y)) for y in f.pdf(xs)]

        def cell(x):
            i = min(int(np.searchsorted(xs, float(x), side="right")) - 1, xs.size - 2)
            s = (nodes[i + 1] - nodes[i]) / (mp.mpf(float(xs[i + 1])) - mp.mpf(float(xs[i])))
            return abs(s) ** beta * (nodes[i] + s * (x - mp.mpf(float(xs[i])))) ** q

        ref = oracle.per_cell(cell, xs)
        assert abs(v.value - ref) <= v.error + 4e-16 * ref

    def test_more_nodes_than_panels_still_converge(self, bumpy_table):
        xs, ys = bumpy_table(10_001)
        f = make_tabulated(xs, ys)
        assert len(f.kinks) > _MAX_PANELS
        v = densities.integral(f, lambda x, fx: fx * fx, "int f^2")
        y = f.pdf(xs)
        exact = math.fsum(np.diff(xs) * (y[:-1] ** 2 + y[:-1] * y[1:] + y[1:] ** 2) / 3.0)
        assert v.warnings == ()
        assert abs(v.value - exact) <= v.error + 4e-16 * exact

    def test_weighted_and_scaled_tables_carry_the_kinks(self, table_csv, monkeypatch, capsys):
        t = parse_density(f"table:{table_csv}")
        fw = parse_density(f"weighted:table:{table_csv};abspoly:1,1")
        assert fw.kinks == t.kinks and 0.0 in t.kinks
        assert fw.singularities == (-2.0, 0.0, 2.0)  # the zero ends and |x|'s kink
        assert scale_density(t, 0.7).kinks == tuple(k * 0.7 for k in t.kinks)
        seen = []

        def spy(fn, domain, config):
            seen.append(config.kinks)
            return integrate(fn, domain, config)

        monkeypatch.setattr(densities, "integrate", spy)
        argv = ["verify", "scaling", "--f", f"table:{table_csv}", "--t", "0.7"]
        assert cli.main(argv + ["--p", "1.5", "--w", "abspoly:1,1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert seen == [tuple(k * 0.7 for k in t.kinks), t.kinks]


class TestDescriptors:
    def test_named_families(self):
        assert parse_density("exp:1.5").params["lam"] == 1.5
        assert parse_density("laplace:2").params["b"] == 2.0
        assert parse_density("tent").family == "tent"
        d = parse_density("gg:2,2")
        assert d.params["alpha"] == 2.0 and d.params["p"] == 2.0
        d = parse_density("gg:inf,2,3")
        assert d.support == (-3.0, 3.0)

    def test_weighted_descriptor(self):
        d = parse_density("weighted:exp:1;expw:-1")
        assert d.family == "weighted"
        assert d.params["chi"] == pytest.approx(0.5, abs=1e-10)

    def test_table_descriptor(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = np.linspace(-1, 1, 101)
        ys = np.maximum(1 - np.abs(xs), 0)
        np.savetxt(path, np.column_stack([xs, ys]), delimiter=",")
        d = parse_density(f"table:{path}")
        assert d.family == "tabulated"
        assert cdf(d, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(InputError):
            parse_density("cauchy:1")
        with pytest.raises(InputError):
            parse_density("gg:2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("exp:inf", "exponential rate must be finite, got inf"),
            ("exp:nan", "exponential rate must be finite, got nan"),
            ("laplace:oo", "laplace scale must be finite, got inf"),
            ("gg:2,inf", "generalized-gaussian order p must be finite, got inf"),
            ("gg:2,2,inf", "scale must be finite, got inf"),
            ("gg:2,nan,1", "generalized-gaussian order p must be finite, got nan"),
        ],
    )
    def test_non_finite_parameter_is_an_input_error(self, text, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            parse_density(text)

    def test_non_finite_scale_is_an_input_error(self):
        with pytest.raises(InputError, match="^scale must be finite, got inf$"):
            scale_density(make_laplace(1.0), math.inf)

    def test_numbers_read_inf_infinity_and_oo(self):
        assert [parse_float(t) for t in ("inf", " Infinity", "OO", "-inf", "2")] == [
            math.inf, math.inf, math.inf, -math.inf, 2.0
        ]
        with pytest.raises(InputError, match="cannot parse number 'abc'"):
            parse_float("abc")


class TestIntegralHelpers:
    """One breakpoint rule and one finiteness rule for every integral and
    supremum against a density."""

    @pytest.fixture
    def configs(self, monkeypatch):
        """The configs ``densities.integrate`` receives; the test clears the
        list once its inputs are built (building a density integrates it)."""
        seen = []

        def recording(fn, domain, config=None):
            seen.append(config)
            return integrate(fn, domain, config)

        monkeypatch.setattr(densities, "integrate", recording)
        return seen

    @staticmethod
    def cuts(*point_sets):
        return tuple(sorted({float(x) for pts in point_sets for x in pts}))

    def test_weighted_entropy_splits_at_f_and_w(self, configs):
        from wrenyi.measures import weighted_entropy

        f, w = make_tent(), make_power(1.0)
        configs.clear()
        weighted_entropy(f, w)
        assert [c.singularities for c in configs] == [self.cuts(f.singularities, w.kinks)]

    def test_relative_entropy_adds_g_singularities(self, configs):
        from wrenyi.measures import relative_weighted_entropy

        f = make_laplace(1.0)
        g = replace(parse_density("gg:2,1"), singularities=(-0.5, 2.0))
        w = replace(make_exp_linear(0.1), kinks=(0.25,))
        configs.clear()
        relative_weighted_entropy(f, g, w)
        assert [c.singularities for c in configs] == [
            self.cuts(f.singularities, w.kinks, g.singularities)
        ]
        assert configs[0].singularities == (-0.5, 0.0, 0.25, 2.0)

    def test_generalized_moment_adds_zero(self, configs):
        from wrenyi.measures import generalized_moment

        f = scale_density(make_generalized_gaussian(2.0, 2.0), 2.0)
        w = replace(make_exp_linear(0.1), kinks=(0.5,))
        configs.clear()
        generalized_moment(f, w, 1.5)
        assert [c.singularities for c in configs] == [(0.0, 0.5)]

    def test_scaling_identity_sides(self, configs):
        from wrenyi.inequalities import check_scaling_identity

        g, t = make_generalized_gaussian(2.0, 2.0), 1.7
        w = replace(make_power(1.5), kinks=(0.0, 0.6))
        configs.clear()
        check_scaling_identity(w, g, t, 2.0)
        lhs, rhs = (c.singularities for c in configs)
        assert lhs == self.cuts(scale_density(g, t).singularities, w.kinks)
        assert rhs == self.cuts(g.singularities, [k / t for k in w.kinks])
        assert rhs == (0.0, 0.6 / t)

    def test_cor4_moments_use_median_and_moment_tolerance(self, configs):
        from wrenyi.inequalities import check_cor4

        f = make_exponential(1.0)
        configs.clear()
        check_cor4(f, 0.2)
        moments = [c for c in configs if (c.abs_tol, c.rel_tol) == (1e-9, 1e-7)]
        assert [c.singularities for c in moments] == [(quantile(f, 0.5),)] * 2

    def test_unbounded_supremum_names_what(self, monkeypatch):
        monkeypatch.setattr(densities, "essential_supremum", lambda fn, support: math.inf)
        with pytest.raises(DomainError, match=r"^sup of the test core is not finite$"):
            supremum(make_tent(), lambda x, fx: fx, "sup of the test core")

    def test_supremum_masks_to_positive_density(self):
        def core(x, fx):
            assert np.all(fx > 0)
            return np.abs(x)

        assert supremum(make_tent(), core, "sup |x|").value == pytest.approx(1.0, abs=1e-6)


class TestTableErrors:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nonexistent.csv"
        with pytest.raises(InputError, match="nonexistent.csv"):
            parse_density(f"table:{path}")

    def test_header_row(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x,pdf\n-1,0\n0,1\n1,0\n")
        with pytest.raises(InputError, match="header.csv"):
            parse_density(f"table:{path}")
