"""CDF and quantile of sources without an analytic CDF (weighted densities).

Such a density builds F once, on first use, from one resolved partition
of its support (``densities._ResolvedCdf``): ``cdf`` reads every point
of a batch through one pdf call and ``quantile`` solves each level by a
safeguarded Newton iteration on that F.  Both are checked against
30-digit closed forms (``conftest.WEIGHTED_ORACLES``, and ``EXACT``
below for far points and for singular or bounded support ends).  The
work is pinned too: F is built at most once per density, a batch's pdf
calls do not grow with its size, and ``build_transport`` reads such a
source through ``cdf`` alone, with no quantile.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from wrenyi import densities, inequalities
from wrenyi.densities import (
    cdf,
    make_generalized_gaussian,
    make_laplace,
    make_weighted_density,
    parse_density,
    quantile,
)
from wrenyi.errors import DomainError, InputError
from wrenyi.inequalities import build_transport, check_fii
from wrenyi.weights import make_exp_linear, parse_weight

SOURCES = ["weighted:laplace:1;expw:0.2", "weighted:laplace:0.9;abspoly:1,0.5"]

# Deep tails on both sides and points on both sides of the kink at 0.
POINTS = np.array(
    [-200.0, -40.0, -22.5, -5.0, -0.5, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.5, 5.0, 22.5, 40.0, 200.0]
)


@pytest.fixture(scope="module", params=SOURCES)
def source(request, weighted_oracles):
    return parse_density(request.param), weighted_oracles[request.param]


class TestWeightedOracle:
    def test_cdf_batch_matches_oracle(self, source):
        f, oracle = source
        got = cdf(f, POINTS)
        ref = np.array([oracle.cdf(x) for x in POINTS])
        assert np.max(np.abs(got - ref)) <= 1e-10
        # Below the kink the level is small; it is held to relative accuracy.
        low = POINTS < 0
        assert np.max(np.abs(got[low] - ref[low]) / ref[low]) <= 1e-10

    def test_cdf_single_points_match_oracle(self, source):
        f, oracle = source
        for x in POINTS:
            ref = oracle.cdf(x)
            got = cdf(f, float(x))
            assert type(got) is float
            assert abs(got - ref) <= 1e-10 * (ref if x < 0 else 1.0), x

    @pytest.mark.parametrize(
        "batch", [[0.5, 8000.0], [-1e4, 0.5, 2e4], [-8000.0, -0.5], [-1e4, -5.0, 0.0, 1e4]]
    )
    def test_sparse_batch_matches_oracle(self, source, batch):
        # Gaps far wider than the density's scale: the Kronrod nodes of
        # [0.5, 8000] start at 34.7, where the pdf is 4e-13, so both rules
        # of a lone panel would miss the mass near 0.5.
        f, oracle = source
        xs = np.array(batch)
        ref = np.array([oracle.cdf(x) for x in xs])
        assert np.max(np.abs(cdf(f, xs) - ref)) <= 1e-10

    def test_random_sparse_batches_match_oracle(self, source):
        # Up to five points spread over 14 decades on either side of 0.
        f, oracle = source
        rng = np.random.default_rng(83)
        for _ in range(40):
            n = rng.integers(1, 6)
            xs = np.sign(rng.standard_normal(n)) * 10.0 ** rng.uniform(-10.0, 4.5, n)
            ref = np.array([oracle.cdf(x) for x in xs])
            # Below 0 the level is held to relative accuracy.
            scale = np.where(xs < 0, ref, 1.0)
            assert np.all(np.abs(cdf(f, xs) - ref) <= 1e-10 * scale), xs.tolist()

    def test_quantile_matches_oracle(self, source):
        f, oracle = source
        kink = oracle.cdf(0.0)
        levels = np.array(
            [1e-12, 1e-9, 1e-6, 0.02, kink - 1e-9, kink + 1e-9, 0.3, 0.7, 0.98, 1 - 1e-6, 1 - 1e-9]
        )
        got = quantile(f, levels)
        assert got.shape == levels.shape
        for q, x in zip(levels.tolist(), got.tolist()):
            # The level of the returned point, against the exact F.
            assert abs(oracle.cdf(x) - q) <= 1e-12, q
            if q <= 0.98:
                # Near the top F_f holds only absolute digits, so the root
                # itself is compared below there only.
                root = oracle.quantile(q, start=x)
                assert abs(x - root) <= 1e-10 * max(1.0, abs(root)), q

    def test_scalar_quantile_matches_batch(self, source):
        f, _ = source
        levels = np.array([0.02, 0.5, 0.98])
        batch = quantile(f, levels)
        for q, x in zip(levels.tolist(), batch.tolist()):
            one = quantile(f, q)
            assert type(one) is float
            assert abs(cdf(f, one) - cdf(f, x)) <= 1e-12


# Exact F at 30 digits of sources whose pdf does not fall from a node.
EXACT = {
    # pdf proportional to exp(-(x - 0.15)^2) on the whole line, no singularity
    "weighted:gg:2,1;expw:0.3": lambda x: mp.erfc(mp.mpf("0.15") - x) / 2,
    # Exp(0.7) on (0, inf), no singularity
    "weighted:exp:1;expw:0.3": lambda x: -mp.expm1(-mp.mpf("0.7") * x),
    # x^2 exp(-|x|) / 4: the pdf rises from 0 at the kink
    "weighted:laplace:1;pow:2": lambda x: (
        mp.exp(x) * (1 - x + x * x / 2) / 2
        if x <= 0
        else 1 - mp.exp(-x) * (1 + x + x * x / 2) / 2
    ),
    # sqrt(x) exp(-x) / Gamma(1.5) on (0, inf): the pdf's derivative is
    # singular at the finite end 0
    "weighted:exp:1;pow:0.5": lambda x: mp.gammainc(mp.mpf("1.5"), 0, x, regularized=True),
    # 3 |x| (1 - |x|) on [-1, 1]: bounded support, a zero at the kink 0
    "weighted:tent;pow:1": lambda x: (
        mp.mpf(1) / 2 + 3 * x * x / 2 - x**3 if x >= 0 else mp.mpf(1) / 2 - 3 * x * x / 2 - x**3
    ),
}


def _exact(desc, xs):
    with mp.workdps(30):
        return np.array([float(EXACT[desc](mp.mpf(float(x)))) for x in xs])


class TestFarPoints:
    """Far points see the mass through the anchors and the end probes."""

    @pytest.mark.parametrize(
        "desc, batch",
        [
            ("weighted:gg:2,1;expw:0.3", [1000.0]),
            ("weighted:gg:2,1;expw:0.3", [-1e4, 2e4]),
            ("weighted:gg:2,1;expw:0.3", [-1e4, 0.1, 2e4]),
            ("weighted:gg:2,1;expw:0.3", [-25.0]),
            ("weighted:gg:2,1;expw:0.3", [-20.0, -3.0, 0.5, 7.0]),
            ("weighted:exp:1;expw:0.3", [1e6]),
            ("weighted:exp:1;expw:0.3", [1e-12, 1e12]),
            ("weighted:exp:1;expw:0.3", [1e-9, 0.5, 3.0, 40.0]),
            ("weighted:laplace:1;pow:2", [0.0, 1e15]),
            ("weighted:laplace:1;pow:2", [1e-300, 1e15]),
            ("weighted:laplace:1;pow:2", [-1e15, -1e-3, 0.0]),
            ("weighted:laplace:1;pow:2", [-40.0, 0.5, 8000.0]),
        ],
    )
    def test_sparse_batch_matches_exact(self, desc, batch):
        # An integral anchored only at a lone point 1000 (or on [0, 1e6]
        # at one GK15 panel) never samples the bulk, and on [0, 1e15] the
        # x^2 rise sits between the ladder's probes: F read 0 or 0.5 there.
        f = parse_density(desc)
        xs = np.array(batch)
        with mp.workdps(30):
            ref = np.array([float(EXACT[desc](mp.mpf(float(x)))) for x in xs])
        # Up to 0.15 (the Gaussian's centre) a level is held to relative accuracy.
        scale = np.where(xs < 0.15, ref, 1.0)
        assert np.all(np.abs(cdf(f, xs) - ref) <= 1e-10 * scale)


class TestSingularEnds:
    """A singular finite end and a bounded support, through their slivers."""

    def test_half_line_with_a_singular_end(self):
        xs = np.array([1e-12, 1e-6, 1e-3, 0.5, 3.0])
        ref = _exact("weighted:exp:1;pow:0.5", xs)
        got = cdf(parse_density("weighted:exp:1;pow:0.5"), xs)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)

    def test_bounded_support_and_its_mirror_image(self):
        f = parse_density("weighted:tent;pow:1")
        # Near -1 a level ~ (1 + x)^2 holds only the absolute digits of x,
        # so the points stop at 1e-4 from the ends.
        xs = np.array([1e-9, 1e-3, 0.25, 0.5, 0.9, 0.999, 0.9999])
        upper, lower = (_exact("weighted:tent;pow:1", side) for side in (xs, -xs))
        assert np.all(np.abs(cdf(f, xs) - upper) <= 1e-10)
        # Below the kink a level is held to relative accuracy.
        assert np.all(np.abs(cdf(f, -xs) - lower) <= 1e-10 * lower)

    @pytest.mark.parametrize("desc", ["weighted:exp:1;pow:0.5", "weighted:tent;pow:1"])
    def test_quantile_round_trip(self, desc):
        f = parse_density(desc)
        levels = np.array([1e-12, 1e-6, 0.02, 0.3, 0.5, 0.7, 0.98, 1 - 1e-6])
        xs = quantile(f, levels)
        assert np.all(np.abs(_exact(desc, xs) - levels) <= 1e-12 * np.maximum(levels, 1e-3))


@pytest.mark.parametrize(
    "desc",
    SOURCES + ["weighted:gg:2,1;abspoly:1,0.5", "weighted:exp:1;pow:0.5", "weighted:tent;pow:1"],
)
def test_cdf_nondecreasing_across_leaves(desc):
    # Near 1 a level holds few bits: the rule on a leaf must not round
    # past the level of the next leaf (on gg:2,1 that made the transport
    # map decrease at x = 6.4).
    xs = np.linspace(-30.0, 30.0, 60001)
    assert np.all(np.diff(cdf(parse_density(desc), xs)) >= 0.0)


class TestFoundReproducers:
    """Far upper points whose tanh-sinh head integral once read 0.5 and 0.4."""

    @pytest.mark.parametrize(
        "desc, x", [("weighted:laplace:1;pow:2", 1e25), ("weighted:laplace:1;expw:0.2", 1e100)]
    )
    def test_far_upper_point_reads_one(self, desc, x):
        assert abs(cdf(parse_density(desc), x) - 1.0) <= 1e-10


class TestQuantileContract:
    def test_array_shape_kept(self):
        f = parse_density(SOURCES[0])
        got = quantile(f, np.array([[0.1, 0.5], [0.9, 0.25]]))
        assert got.shape == (2, 2)
        assert np.all(np.diff(np.sort(got.ravel())) > 0)

    def test_analytic_family_array(self):
        lap = make_laplace(1.0)
        levels = np.array([0.1, 0.5, 0.9])
        assert quantile(lap, levels).tolist() == [quantile(lap, q) for q in levels.tolist()]

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, -0.5])
    def test_level_outside_unit_interval_rejected(self, bad):
        f = parse_density(SOURCES[0])
        with pytest.raises(InputError):
            quantile(f, bad)
        with pytest.raises(InputError):
            quantile(f, np.array([0.5, bad]))


def _counting_source(calls):
    """weighted:laplace:1;expw:0.2 whose base pdf appends each call's size to ``calls``."""
    base = make_laplace(1.0)

    def pdf(x):
        calls.append(np.size(x))
        return base.pdf(x)

    return make_weighted_density(replace(base, pdf=pdf), make_exp_linear(0.2))


@pytest.fixture
def builds(monkeypatch):
    """The list of every ``_ResolvedCdf`` that builds its partition."""
    built = []
    original = densities._ResolvedCdf._build

    def counted(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(densities._ResolvedCdf, "_build", counted)
    return built


class TestBuildWork:
    def test_built_at_most_once_across_a_check(self, builds):
        f = parse_density("weighted:laplace:1;pow:1")
        assert check_fii(f, parse_weight("expw:-0.1"), 2.0, 2.0).verdict == "holds"
        assert len(builds) == 1

    def test_not_built_until_read(self, builds):
        parse_density(SOURCES[0])
        assert builds == []

    def test_pdf_calls_do_not_grow_with_points(self):
        calls = []
        f = _counting_source(calls)

        def calls_for(n):
            calls.clear()
            cdf(f, np.linspace(-8.0, 8.0, n))
            return len(calls)

        first = calls_for(10)  # builds F
        assert calls_for(1000) <= calls_for(10) == 1 < first

    def test_a_fresh_density_pays_the_same_build_for_any_batch(self):
        counts = []
        for n in (10, 1000):
            calls = []
            cdf(_counting_source(calls), np.linspace(-8.0, 8.0, n))
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    @pytest.mark.parametrize("desc", SOURCES)
    def test_build_transport_reads_no_quantile(self, builds, monkeypatch, desc):
        # The 101-point monotonicity grid is all that build_transport
        # evaluates of a weighted source: F, and no quantile.
        levels = []
        for module in (densities, inequalities):
            monkeypatch.setattr(module, "quantile", lambda f, q: levels.append(q))
        monkeypatch.setattr(densities._ResolvedCdf, "quantile", lambda self, q: levels.append(q))
        f, g = parse_density(desc), make_generalized_gaussian(2.0, 2.0)
        build_transport(f, g)
        assert levels == [] and len(builds) == 1

    def test_unresolvable_build_is_a_domain_error_naming_the_density(self, monkeypatch):
        monkeypatch.setattr(densities, "_CDF_REL", 1e-30)
        f = parse_density(SOURCES[0])
        with pytest.raises(DomainError, match="CDF of the exp-linear-weighted laplace density"):
            cdf(f, 0.5)
