"""Density catalog: normalization, branches, CDFs, descriptors."""

import math
import warnings

import numpy as np
import pytest

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
    quantile,
    scale_density,
)
from wrenyi.errors import DomainError, InputError
from wrenyi.numerics import integrate
from wrenyi.weights import make_constant, make_exp_linear, make_power

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

    def test_array_matches_pointwise(self, catalog):
        densities = dict(catalog, weighted=parse_density("weighted:laplace:1;expw:0.2"))
        xs = np.array([-750.0, -3.0, -1.0, -0.4, 0.0, 0.3, 1.0, 2.5, 750.0])
        for name, d in densities.items():
            got = cdf(d, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape, name
            assert got.tolist() == [cdf(d, float(x)) for x in xs], name
            assert got.tolist() == [cdf(d, xs[i : i + 1])[0] for i in range(xs.size)], name
            assert type(cdf(d, np.float64(0.3))) is float, name

    def test_laplace_far_tails_do_not_overflow(self):
        cdf_fn = make_laplace(1.0).cdf_fn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cdf_fn(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]

    def test_laplace_matches_two_sided_formula(self):
        # Reference: the two-exponential form, evaluated where neither
        # side overflows; one exp(-|x|/b) must give the same bits.
        b = 0.92
        xs = np.linspace(-30.0, 30.0, 601)
        with np.errstate(over="ignore"):
            ref = np.where(xs < 0, 0.5 * np.exp(xs / b), 1.0 - 0.5 * np.exp(-xs / b))
        assert make_laplace(b).cdf_fn(xs).tolist() == ref.tolist()


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


class TestTabulated:
    def test_renormalizes(self):
        xs = np.linspace(-1, 1, 2001)
        ys = np.maximum(1 - xs * xs, 0.0) * (1 + 0.2 * np.sin(xs))
        d = make_tabulated(xs, ys)
        res = integrate(d.pdf, d.support, d.quad_config())
        assert res.value == pytest.approx(1.0, abs=2e-7)
        assert cdf(d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_bad_grid_rejected(self):
        with pytest.raises(InputError):
            make_tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(InputError):
            make_tabulated([0.0, 1.0], [1.0, -1.0])


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
