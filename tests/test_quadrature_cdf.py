"""CDF and quantile of sources without an analytic CDF (weighted densities).

``cdf`` takes every point of a batch from one sorted sweep and
``quantile`` finds each level as a bracketed root of ``cdf``; both are
checked against 30-digit closed forms (``conftest.WEIGHTED_ORACLES``, and
``EXACT`` below for sparse batches of far points).  The number of
``integrate`` calls is pinned so that a per-point CDF loop cannot come
back, and ``build_transport`` reads such a source through one ``cdf`` of
its monotonicity grid and no ``quantile``.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from wrenyi import densities, inequalities
from wrenyi.densities import cdf, make_generalized_gaussian, make_laplace, parse_density, quantile
from wrenyi.errors import InputError
from wrenyi.inequalities import build_transport

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
}


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


class TestPanels:
    def test_gap_wide_against_the_scale_is_blind(self):
        f = parse_density(SOURCES[0])
        a, b = np.array([0.5, 0.5, -8.0]), np.array([8000.0, 1.0, -7.9])
        k15, err, blind = densities._panels(f, a, b)
        assert blind.tolist() == [True, False, False]
        # The raised error bounds the mass the panel cannot see near 0.5.
        assert k15[0] < 1e-10 and err[0] > 0.4
        assert np.all(err[1:] < 1e-15)


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


@pytest.fixture
def integrate_calls(monkeypatch):
    """The list of domains of every ``integrate`` call made by ``densities``."""
    calls = []
    original = densities.integrate

    def counted(fn, domain, *args, **kwargs):
        calls.append(domain)
        return original(fn, domain, *args, **kwargs)

    monkeypatch.setattr(densities, "integrate", counted)
    return calls


class TestSweepWork:
    @pytest.mark.parametrize("desc", SOURCES)
    def test_cdf_work_does_not_grow_with_points(self, integrate_calls, desc):
        f = parse_density(desc)

        def calls_for(n):
            integrate_calls.clear()
            cdf(f, np.linspace(-8.0, 8.0, n))
            return len(integrate_calls)

        assert calls_for(1000) <= calls_for(10)

    @pytest.mark.parametrize("desc", SOURCES)
    def test_build_transport_reads_the_source_by_one_cdf_of_its_grid(
        self, integrate_calls, monkeypatch, desc
    ):
        # The 101-point monotonicity grid over [-20, 20] is all that
        # build_transport evaluates of a whole-line source: no quantile.
        levels = []
        for module in (densities, inequalities):
            monkeypatch.setattr(module, "quantile", lambda f, q: levels.append(q))
        f, g = parse_density(desc), make_generalized_gaussian(2.0, 2.0)
        integrate_calls.clear()
        build_transport(f, g)
        built = len(integrate_calls)
        integrate_calls.clear()
        cdf(f, np.linspace(-20.0, 20.0, 101))
        assert levels == []
        assert 0 < built == len(integrate_calls)
