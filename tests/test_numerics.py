"""Quadrature, special functions, differentiation, roots, sup and TV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrenyi.errors import DomainError, EvaluationError, InputError
from wrenyi import numerics
from wrenyi.numerics import (
    _MAX_PANELS,
    _WG15,
    _WGK,
    _XGK,
    IntegralResult,
    QuadratureConfig,
    Value,
    _adaptive_gk,
    _masked,
    _zoom_lockstep,
    beta_fn,
    differentiate,
    essential_supremum,
    find_root,
    gamma_fn,
    integrate,
    relative_residual,
    total_variation,
)

from oracle import riemann


class TestIntegrate:
    def test_constant_on_unit_interval(self):
        res = integrate(lambda x: np.ones_like(x), (0.0, 1.0))
        assert res.status == "converged"
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_normalization(self):
        res = integrate(lambda x: np.exp(-x), (0.0, math.inf))
        assert res.status == "converged"
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

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 5 and 22: a tanh-sinh node placed as s + d*delta keeps only "
        "the absolute precision of s, so the deep nodes read a rounded distance"),
        raises=AssertionError)
    def test_singular_end_away_from_0_claims_its_error(self, s):
        # int_s^{s+1/4} |x - s|^-1/2 dx = 1.
        cfg = QuadratureConfig(singularities=(s,))
        res = integrate(lambda x: np.abs(x - s) ** -0.5, (s, s + 0.25), cfg)
        assert res.status == "converged" and abs(res.value - 1.0) <= res.error

    def test_nan_inside_tanh_sinh_piece_raises(self):
        # The hint at 0 sends [0, 1] to tanh-sinh first; its middle node is 0.5.
        fn = lambda x: np.where(np.abs(x - 0.5) < 1e-3, np.nan, 1.0)
        with pytest.raises(EvaluationError, match="integrand not finite inside"):
            integrate(fn, (0.0, 1.0), QuadratureConfig(singularities=(0.0,)))

    def test_inf_on_exp_sinh_tail_raises(self):
        fn = lambda x: np.where(x > 5.0, np.inf, np.exp(-x))
        with pytest.raises(EvaluationError, match="integrand not finite on infinite tail"):
            integrate(fn, (0.0, math.inf))

    def test_overflowing_tail_contribution_raises(self):
        # w * f(x) overflows where f is finite: the contribution is not
        # dropped (it was, and the integral read 1.0 "converged").
        fn = lambda x: np.where(x > 1e20, 1e300, np.exp(-np.minimum(x, 700.0)))
        with pytest.raises(EvaluationError, match="integrand not finite on infinite tail"):
            integrate(fn, (0.0, math.inf))

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


def _counted(fn):
    """fn and the sizes of the arrays it was called on."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return fn(x)

    return counted, sizes


class TestBatchedKernel:
    """One integrand call per refinement round or per batch of DE levels."""

    def test_gk15_weights_sum_to_two(self):
        assert abs(math.fsum(_WGK) - 2.0) <= 4e-16
        assert abs(math.fsum(_WG15) - 2.0) <= 4e-16

    def test_kronrod_rule_exact_to_degree_22(self):
        for k in range(0, 23, 2):
            assert math.fsum(_WGK * _XGK**k) == pytest.approx(2.0 / (k + 1), rel=1e-15, abs=0)

    def test_de_piece_converged_by_level_3_makes_one_call(self):
        fn, sizes = _counted(lambda x: x**-0.5)
        res = integrate(fn, (0.0, 1.0), QuadratureConfig(singularities=(0.0,)))
        assert res.status == "converged" and res.value == pytest.approx(2.0, rel=1e-14)
        # Levels 0-3 of the tanh-sinh rule: 9 + 8 + 18 + 34 nodes.
        assert sizes == [69]

    def test_kinks_are_the_starting_panels_of_one_refinement(self):
        # A sawtooth, linear between its kinks: one GK15 call over its ten
        # cells is exact.
        fn, sizes = _counted(lambda x: np.abs(10.0 * x - 2.0 * np.floor(5.0 * x) - 1.0))
        kinks = tuple(k / 10.0 for k in range(1, 10))
        res = integrate(fn, (0.0, 1.0), QuadratureConfig(kinks=kinks))
        assert res.status == "converged" and res.value == pytest.approx(0.5, abs=1e-15)
        assert sizes == [150]

    def test_a_singular_end_breaks_a_run_of_kinked_pieces(self):
        # |x - 1/2|^-1/2 on (0, 1): the two pieces at the singularity go to
        # tanh-sinh, levels 0-3 of both from one call and level 4 of the
        # one still open from one more; each outer run of two pieces is
        # one GK15 call.  The pieces are summed in domain order.
        fn, sizes = _counted(lambda x: np.abs(x - 0.5) ** -0.5)
        cfg = QuadratureConfig(singularities=(0.5,), kinks=(0.1, 0.25, 0.75, 0.9))
        res = integrate(fn, (0.0, 1.0), cfg)
        assert res.status == "converged"
        assert res.value == pytest.approx(4.0 * math.sqrt(0.5), rel=cfg.rel_tol)
        assert sizes == [138, 68, 30, 30]
        tol = cfg.abs_tol / 6
        (left, _, _), (right, _, _) = (
            numerics._de_result(o)
            for o in numerics._double_exponential(
                fn, [("singular", 0.25, 0.5, tol), ("singular", 0.5, 0.75, tol)], cfg.rel_tol
            )
        )
        outer = [_adaptive_gk(fn, lo, hi, 2 * tol, cfg.rel_tol)[0] for lo, hi in [
            ([0.0, 0.1], [0.1, 0.25]), ([0.75, 0.9], [0.9, 1.0])
        ]]
        assert _hex([res.value]) == _hex([0.0 + outer[0] + left + right + outer[1]])

    def test_de_levels_placed_as_computed_from_u(self):
        # The tabulated rules equal the formulas evaluated on each level,
        # the levels of a round concatenated in order.
        for rnd, spans in enumerate(numerics._DE_SPANS):
            us = [numerics._DE_U[j] for j, _, _ in spans]
            assert spans[-1][2] == sum(u.size for u in us)
            for a, b in [(0.0, 1.0), (-3.5, 1e-3), (2.0, 1e20)]:
                x, w = [], []
                for u in us:
                    e2 = np.exp(-2.0 * np.abs(0.5 * np.pi * np.sinh(u)))
                    d = 0.5 * (b - a)
                    xu = np.where(u >= 0, b - d * (2.0 * e2 / (1.0 + e2)), a + d * (2.0 * e2 / (1.0 + e2)))
                    x.append(np.clip(xu, np.nextafter(a, b), np.nextafter(b, a)))
                    w.append(d * (0.5 * np.pi * np.cosh(u) * (4.0 * e2 / (1.0 + e2) ** 2)))
                got = numerics._de_place("singular", a, b, rnd)
                assert _hex(got[0]) == _hex(np.concatenate(x))
                assert _hex(got[1]) == _hex(np.concatenate(w))
            for lo, hi in [(1.5, math.inf), (-math.inf, -2.0)]:
                r = np.concatenate([np.exp(0.5 * np.pi * np.sinh(u)) for u in us])
                w = np.concatenate([0.5 * np.pi * np.cosh(u) * np.exp(0.5 * np.pi * np.sinh(u)) for u in us])
                end, sign = (lo, 1.0) if math.isinf(hi) else (hi, -1.0)
                got = numerics._de_place("tail", lo, hi, rnd)
                assert _hex(got[0]) == _hex(end + sign * r)
                assert _hex(got[1]) == _hex(w)

    def test_de_value_past_the_accepted_level_is_never_read(self):
        # The first call holds levels 0-3 (9 + 8 + 18 + 34 nodes) of each
        # piece in turn; a NaN among the second piece's level-3 nodes is no
        # error when it accepts level 2, and is an error of that piece
        # alone when it needs level 3.
        def fn_with(core):
            calls = []

            def fn(x):
                y = core(x)
                if not calls:
                    assert x.size == 138
                    y[69 + 35 :] = np.nan
                calls.append(x.size)
                return y

            return fn

        pieces = [("singular", 0.0, 1.0, 1e-3), ("singular", 1.0, 2.0, 1e-3)]
        for v, _, ok in numerics._double_exponential(fn_with(np.ones_like), pieces, 1e-3):
            assert ok and v == pytest.approx(1.0, rel=1e-3)
        pieces = [("singular", 0.0, 1.0, 1e-10), ("singular", 1.0, 2.0, 1e-10)]
        first, second = numerics._double_exponential(fn_with(lambda x: np.cos(40.0 * x)), pieces, 1e-8)
        assert numerics._de_result(first)[2]
        with pytest.raises(EvaluationError, match=r"integrand not finite inside \(1.0, 2.0\)"):
            numerics._de_result(second)

    @staticmethod
    def _de_pieces(dom, hints):
        """The pieces of ``dom`` split at ``hints`` (at 0 on a bare line), each a DE piece."""
        cuts = sorted(h for h in hints if dom[0] < h < dom[1])
        if math.isinf(dom[0]) and math.isinf(dom[1]) and not cuts:
            cuts = [0.0]
        edges = [dom[0], *cuts, dom[1]]
        return [
            ("tail" if math.isinf(lo) or math.isinf(hi) else "singular", lo, hi, 1e-10 / (len(edges) - 1))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def test_lockstep_pieces_match_one_piece_at_a_time(self, integrand_suite):
        # Lockstep changes which call a node is evaluated in, never a bit
        # of a piece's value or error.
        bumpy = lambda x: np.exp(-np.abs(x)) * (1.0 + np.abs(x - 1.0)) ** -0.5 * (2.0 + np.cos(3.0 * x))
        cases = [(fn, dom, hints) for _, fn, dom, hints, _ in integrand_suite] + [
            (bumpy, (-math.inf, math.inf), ()),  # 2 tails
            (bumpy, (-math.inf, math.inf), (1.0,)),  # 2 tails at 1
            (bumpy, (-1.0, math.inf), (0.0, 1.0)),  # 2 finite pieces and a tail
            (bumpy, (-math.inf, math.inf), (-1.0, 1.0)),  # a finite piece between 2 tails
            (bumpy, (-math.inf, math.inf), (-1.0, 0.0, 1.0)),  # 2 finite pieces between 2 tails
        ]
        counts = set()
        for fn, dom, hints in cases:
            pieces = self._de_pieces(dom, hints)
            counts.add(len(pieces))
            together = numerics._double_exponential(fn, pieces, 1e-8)
            alone = [numerics._double_exponential(fn, [p], 1e-8)[0] for p in pieces]
            assert [_hex(o) for o in together] == [_hex(o) for o in alone], (dom, hints)
        assert {1, 2, 3, 4} <= counts

    def test_line_split_at_0_takes_the_rounds_of_its_slower_tail(self):
        # The lower tail needs levels 0-4 (two calls), the upper one 0-3
        # (one call): the line takes two calls, not three.
        f = lambda x: np.where(x < 0, np.exp(-np.abs(x)), 1.0 / (1.0 + x * x) ** 2)
        rounds = {}
        for dom in [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)]:
            fn, sizes = _counted(f)
            assert integrate(fn, dom).status == "converged"
            rounds[dom] = sizes
        assert rounds[(-math.inf, 0.0)] == [69, 68] and rounds[(0.0, math.inf)] == [69]
        assert rounds[(-math.inf, math.inf)] == [138, 68]

    def test_an_earlier_divergent_piece_wins_over_a_later_non_finite_one(self):
        # The lower tail diverges (its value passes 1e100), the upper tail
        # meets a NaN: the pieces resolve in domain order, so the result
        # is divergent; alone, the upper tail raises.
        fn = lambda x: np.where(x < 0, 1e150 * np.exp(-np.abs(x)), np.where(x > 1.0, np.nan, 1.0))
        assert integrate(fn, (-math.inf, math.inf)).status == "divergent"
        with pytest.raises(EvaluationError, match="integrand not finite on infinite tail"):
            integrate(fn, (0.0, math.inf))
        # Mirrored, the NaN comes first and raises.
        with pytest.raises(EvaluationError, match="integrand not finite on infinite tail"):
            integrate(lambda x: fn(-x), (-math.inf, math.inf))

    def test_adaptive_gk_fewer_calls_than_panels(self, integrand_suite):
        name, fn, dom, _, exact = next(c for c in integrand_suite if c[0] == "logmild")
        counted, sizes = _counted(fn)
        v, e, ok = _adaptive_gk(counted, *dom, 1e-10, 1e-8)
        panels = sum(sizes) // 15
        assert ok and abs(v - exact) <= e
        assert panels >= 16 and len(sizes) < panels
        assert all(n % 15 == 0 for n in sizes)

    def test_panel_cap_ends_in_tolerance_not_met(self):
        rng = np.random.default_rng(7)
        noise, sizes = _counted(lambda x: rng.random(np.shape(x)))
        v, e, ok = _adaptive_gk(noise, 0.0, 1.0, 1e-300, 1e-300)
        assert not ok and sum(sizes) // 15 == _MAX_PANELS
        noise = lambda x: rng.random(np.shape(x))
        assert integrate(noise, (0.0, 1.0)).status == "tolerance-not-met"

    def test_non_finite_value_in_a_batched_round_names_its_panel(self):
        seen = []

        def fn(x):
            seen.append(np.array(x))
            y = np.abs(x - 0.3) ** 0.5
            if len(seen) == 3:  # inside the second round of bisections
                y[-1] = np.nan
            return y

        with pytest.raises(EvaluationError, match="integrand not finite inside") as exc:
            integrate(fn, (0.0, 1.0))
        lo, hi = (float(t) for t in str(exc.value).split("(")[1].rstrip(")").split(", "))
        assert seen[2].size > 15
        assert 0.0 <= lo < hi <= 1.0 and lo <= seen[2][-1] <= hi
        assert hi - lo < 0.5

    def test_overflowing_panel_ends_the_refinement(self):
        # A panel sum that overflows leaves a nan error: the rounds stop
        # there, and integrate reports the non-finite value as divergent.
        fn, sizes = _counted(lambda x: np.where(x < 1.3, 1e300, 1.5e308))
        with np.errstate(over="ignore", invalid="ignore"):
            v, e, ok = _adaptive_gk(fn, 0.0, 3.0, 1e-10, 1e-8)
        assert not ok and math.isinf(v) and len(sizes) == 1
        fn = lambda x: np.where(x < 1.3, 1e300, 1e-3)
        assert integrate(fn, (0.0, 3.0)).status == "divergent"


class TestSpecialFunctions:
    def test_gamma_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_gamma_overflow_is_a_domain_error(self):
        assert gamma_fn(171.5) == math.gamma(171.5)
        with pytest.raises(DomainError, match=r"^Gamma\(172\.0\) overflows$"):
            gamma_fn(172.0)

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

    def test_array_matches_scalar_calls(self):
        cubic = lambda x: x * x * x - 2.0 * x
        xs = np.array([-2.0, 0.0, 0.5, 3.0])
        got = differentiate(cubic, xs)
        assert isinstance(got, np.ndarray)
        assert isinstance(differentiate(cubic, 0.5), float)
        assert got.tolist() == [differentiate(cubic, float(x)) for x in xs]
        assert got == pytest.approx(3.0 * xs * xs - 2.0, abs=1e-7)

    def test_non_finite_value_raises(self):
        with pytest.raises(EvaluationError, match="not finite near x=2.0"):
            differentiate(lambda x: np.where(x > 1.5, np.inf, x), np.array([0.0, 2.0]))


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

    def test_repeats_scipy_brentq(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(5)
        cases = [(lambda x: math.cos(x) - x, (0.0, 2.0)), (lambda x: x**5 - 3 * x + 1, (0.0, 1.0))]
        for a, b, c in rng.normal(size=(60, 3)).tolist():
            cases += [
                (lambda x, a=a, b=b, c=c: math.atan(a * x) + b * x**3 + 0.1 * x - c, (-30.0, 30.0)),
                (lambda x, a=a, c=c: math.tanh(20 * a * (x - c)) + 0.5 * c, (-5.0, 5.0)),
            ]
        n = 0
        for fn, (lo, hi) in cases:
            if (fn(lo) < 0) == (fn(hi) < 0):
                continue
            n += 1
            want = brentq(fn, lo, hi, xtol=1e-15, rtol=4 * numerics._EPS, maxiter=200)
            assert find_root(fn, (lo, hi)) == want, (lo, hi)
        assert n >= 60


class TestEssentialSupremum:
    def test_absolute_value(self):
        assert essential_supremum(np.abs, (-1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_decaying_exponential(self):
        val = essential_supremum(lambda x: np.exp(-x), (0.0, math.inf))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_parabola_vertex(self):
        val = essential_supremum(lambda x: x * (1 - x), (0.0, 1.0))
        assert val == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize(
        "argv",
        [
            # gg:2,2 is (3/4)(1 - x^2) on [-1, 1]; both suprema, (1 + |x|/2)|x|
            # and |x| |f'| = (3/2) x^2, are 1.5 at the support edge.
            "compute dev --f gg:2,2 --w abspoly:1,0.5 --alpha inf",
            "compute wfi --f gg:2,2 --w pow:1 --p 2 --alpha 1",
        ],
    )
    def test_bounded_suprema_with_exact_values(self, argv):
        import contextlib
        import io
        import json

        from wrenyi.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv.split()) == 0
        assert json.loads(out.getvalue())["value"] == pytest.approx(1.5, rel=2e-14, abs=0.0)


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

    def test_scans_end_one_float_inside(self):
        # |x|^0.6 falls from 1 to a cusp at the hint 0 and rises to 1, with
        # a jump of 1 at each end: 4.  Scans ending 1e-9 from 0 would miss
        # 2 (1e-9)^0.6 = 8e-6 of it.
        fn = lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.6
        assert total_variation(fn, (-1.0, 1.0), jump_hints=(0.0,)) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("support, hints", [((0.0, 1.0), ()), ((-1.0, 1.0), (0.0,))])
    def test_non_finite_edge_or_jump_side_is_an_error(self, support, hints):
        # 1/x is finite at 1e-9 from 0 but not one float from it.
        with np.errstate(over="ignore"), pytest.raises(EvaluationError):
            total_variation(lambda x: 1.0 / np.asarray(x, dtype=float), support, hints)

    def test_monotone_matches_endpoint_difference(self):
        # For monotone fn on [a,b]: V = |fn(b)-fn(a)| plus the two edge
        # jumps down to 0 outside the support.
        fn = lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
        lo, hi = fn(np.array([-2.0]))[0], fn(np.array([3.0]))[0]
        v = total_variation(fn, (-2.0, 3.0))
        assert v == pytest.approx(abs(hi - lo) + lo + hi, abs=1e-8)


# Scalar zoom search, one bracket at a time in Python floats: the
# reference the lockstep helper must match bit for bit.
def _zoom_max_ref(fn, lo, hi):
    """(largest value visited, steps taken) of the zoom on [lo, hi]."""
    m = numerics._ZOOM
    a, b, best = lo, hi, -math.inf
    for step in range(1, 17):
        x = [a + (b - a) * (j / (m + 1)) for j in range(1, m + 1)]
        values = np.asarray(fn(np.array(x)), dtype=float).tolist()
        y = [-math.inf if math.isnan(v) else v for v in values]
        j = max(range(m), key=y.__getitem__)  # the first of a tie
        best = max(best, y[j])
        ends = [a, *x, b]
        a, b = ends[j], ends[j + 2]
        if b - a < 1e-13 * max(1.0, abs(a), abs(b)):
            break
    return best, step


def _total_variation_ref(fn, support, jump_hints=()):
    """total_variation with one scalar polish per extremum and 1-point probes."""
    a, b = support
    at = lambda t: float(fn(np.array([t]))[0])
    hints = sorted({float(t) for t in jump_hints if a < t < b})
    var = abs(at(np.nextafter(a, b))) if math.isfinite(a) else 0.0
    if math.isfinite(b):
        var += abs(at(np.nextafter(b, a)))
    for t in hints:
        var += abs(at(np.nextafter(t, math.inf)) - at(np.nextafter(t, -math.inf)))
    prev_total, n = None, 8193
    for _ in range(3):
        smooth = 0.0
        edges = [a] + hints + [b]
        for s_lo, s_hi in zip(edges[:-1], edges[1:]):
            x = numerics._sup_grid((s_lo, s_hi), n)
            if math.isfinite(s_lo):
                x[0] = np.nextafter(s_lo, s_hi)
            if math.isfinite(s_hi):
                x[-1] = np.nextafter(s_hi, s_lo)
            y = np.asarray(fn(x), dtype=float)
            d = np.diff(y)
            sgn = np.sign(d)
            extra = 0.0
            for i in (np.nonzero(sgn[1:] * sgn[:-1] < 0)[0] + 1)[:64]:
                blo, bhi = float(x[i - 1]), float(x[i + 1])
                if sgn[i - 1] > 0:
                    peak = _zoom_max_ref(fn, blo, bhi)[0]
                    extra += 2.0 * max(0.0, peak - max(y[i], y[i - 1], y[i + 1]))
                else:
                    trough = -_zoom_max_ref(lambda z: -fn(z), blo, bhi)[0]
                    extra += 2.0 * max(0.0, min(y[i], y[i - 1], y[i + 1]) - trough)
            smooth += float(np.sum(np.abs(d))) + extra
        total = var + smooth
        if prev_total is not None and abs(total - prev_total) <= 1e-9 * max(1.0, abs(total)):
            return total
        prev_total, n = total, 2 * (n - 1) + 1
    return prev_total


def _hex(values):
    return [float(v).hex() for v in values]


class TestLockstepPolish:
    """_zoom_lockstep visits the points of one scalar run per bracket."""

    def check(self, fn, brackets, sign=1.0):
        lo, hi = (np.array(v, dtype=float) for v in zip(*brackets))
        signs = np.broadcast_to(np.asarray(sign, dtype=float), lo.shape)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return fn(x)

        got = _zoom_lockstep(counted, lo, hi, sign)
        runs = [
            _zoom_max_ref(lambda z, s=s: s * np.asarray(fn(z), dtype=float), a, b)
            for a, b, s in zip(lo.tolist(), hi.tolist(), signs.tolist())
        ]
        assert _hex(got) == _hex(best for best, _ in runs)
        # One fn call per step, on the points of every bracket still open.
        steps = [n for _, n in runs]
        assert max(steps) <= 16
        assert calls == [numerics._ZOOM * sum(n > i for n in steps) for i in range(max(steps))]
        return steps

    def test_brackets_stopping_at_different_steps(self):
        fn = lambda x: np.sin(3.0 * x) / (1.0 + 1e-3 * np.asarray(x, dtype=float) ** 2)
        # Widths from 1e-12 to 2e20, one far from 0 and one that runs to
        # the cap: it zooms in on a peak near 0, where 1e-13 is absolute.
        steps = self.check(fn, [(0.0, 1.0), (0.4, 0.4 + 1e-6), (2.0, 2.0 + 1e-12),
                                (1e6, 1e6 + 3.0), (-1e20, 1e20)])
        assert steps == [11, 6, 1, 7, 16]

    def test_empty_bracket(self):
        self.check(lambda x: np.cos(x), [(0.5, 0.5), (0.0, 2.0)])

    def test_ties(self):
        self.check(lambda x: np.full_like(np.asarray(x, dtype=float), 0.25),
                   [(0.0, 1.0), (-3.0, 5.0)])
        self.check(lambda x: -np.asarray(x, dtype=float) ** 2, [(-1.0, 1.0), (-2.0, 2.0)])

    def test_minus_inf_fill_and_nan(self):
        def fn(x):
            x = np.asarray(x, dtype=float)
            y = np.where(x < 0.2, -np.inf, np.sin(5.0 * x))
            return np.where((x > 0.55) & (x < 0.6), np.nan, y)

        self.check(fn, [(0.0, 1.0), (0.1, 0.3), (0.5, 0.65), (0.0, 0.2)])
        self.check(fn, [(0.0, 1.0), (0.5, 0.65)], sign=[-1.0, 1.0])
        nan = lambda x: np.full_like(np.asarray(x, dtype=float), np.nan)
        assert _zoom_lockstep(nan, np.array([0.0]), np.array([1.0])).tolist() == [-np.inf]

    def test_values_one_ulp_apart(self):
        up = np.nextafter(1.0, 2.0)
        fn = lambda x: np.where(np.sin(40.0 * np.asarray(x, dtype=float)) > 0, up, 1.0)
        self.check(fn, [(0.0, 1.0), (0.3, 0.9), (-2.0, 0.1)])
        self.check(fn, [(0.0, 1.0), (0.3, 0.9)], sign=-1.0)

    def test_troughs_as_negated_peaks(self):
        fn = lambda x: np.cos(2.0 * np.asarray(x, dtype=float))
        self.check(fn, [(1.0, 2.0), (-0.5, 0.5), (2.5, 4.0)], sign=[-1.0, 1.0, -1.0])

    def test_one_fn_call_per_step(self):
        fn = lambda x: -np.asarray(x, dtype=float) ** 2
        assert self.check(fn, [(-1.0, 1.0), (-2.0, 3.0), (0.1, 0.2)]) == [12, 12, 10]

    def test_no_bracket_no_call(self):
        def fn(x):
            raise AssertionError("fn called with no bracket")

        assert _zoom_lockstep(fn, np.array([]), np.array([])).size == 0

    def test_total_variation_matches_scalar_polish(self):
        def fn(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-0.5 * x * x) * (1.0 + 0.3 * np.sin(6.0 * x)) + 0.1 * (x > 0.7)

        for support, hints in [((-math.inf, math.inf), (0.7,)), ((-2.0, 3.0), (0.7,)),
                               ((0.0, math.inf), ())]:
            got = total_variation(fn, support, jump_hints=hints)
            assert got.hex() == _total_variation_ref(fn, support, hints).hex()


class TestCallCounts:
    def test_essential_supremum_calls(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.sin(7.0 * np.asarray(x, dtype=float))

        essential_supremum(fn, (0.0, 10.0))
        assert len(calls) <= 2 + 1 + 16

    def test_cor4_transport_calls(self, monkeypatch):
        from wrenyi.densities import make_tent
        from wrenyi.inequalities import TransportMap, check_cor4

        calls = []
        original = TransportMap.__call__

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(TransportMap, "__call__", counted)
        check_cor4(make_tent(), 0.2)
        assert len(calls) <= 60

    def test_measures_deck_sups_and_variations_scan_nothing(self, monkeypatch, tmp_path):
        # Every sup and variation op of the seed-801 measures deck (dev and
        # wfi at alpha = inf, wfi at alpha = 1, the sigma of id2.22) is a G
        # kernel under a one-term or nondecreasing weight: exponent rules.
        import contextlib
        import io
        import pathlib
        import sys

        from wrenyi import cli, densities

        monkeypatch.setattr(sys, "path", [str(pathlib.Path(__file__).parent.parent / "perfbench"), *sys.path])
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
        import ops

        calls = []
        for name in ("essential_supremum", "total_variation"):  # every scan's one binding
            original = getattr(densities, name)
            monkeypatch.setattr(densities, name, lambda *a, _f=original, **k: calls.append(1) or _f(*a, **k))
        argvs = [
            op["argv"] for op in ops.make_deck("measures", 801, str(tmp_path))
            if op["argv"][:2] in (["compute", "dev"], ["compute", "wfi"], ["verify", "id2.22"])
            and op["argv"][op["argv"].index("--alpha") + 1] in ("inf", "1")
        ]
        assert len(argvs) == 9
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        assert calls == []

    def test_no_batch_read_twice_in_a_row(self, monkeypatch):
        # s_moment's integrand takes s and then s' on the same nodes; the
        # map's memo keeps the second from reading the CDF again.
        from wrenyi import densities
        from wrenyi.inequalities import check_fii
        from wrenyi.weights import parse_weight

        batches = []
        original = densities._ResolvedCdf.cdf

        def counted(self, xs):
            batches.append(np.array(xs, dtype=float).tobytes())
            return original(self, xs)

        monkeypatch.setattr(densities._ResolvedCdf, "cdf", counted)
        f = densities.parse_density("weighted:laplace:1;pow:1")
        assert check_fii(f, parse_weight("expw:-0.1"), 2.0, 2.0).verdict == "holds"
        assert len(batches) >= 3
        assert all(a != b for a, b in zip(batches, batches[1:]))


class TestQuadratureConfig:
    def test_invalid_tolerances_rejected(self):
        with pytest.raises(InputError):
            QuadratureConfig(abs_tol=0.0)


class TestChecked:
    def test_converged(self):
        assert IntegralResult(1.5, 2e-12, "converged").checked("x") == Value(1.5, 2e-12, ())

    def test_tolerance_not_met_warns(self):
        v = IntegralResult(3.9e17, 3.3e17, "tolerance-not-met").checked("E[Z^-1.5]")
        assert (v.value, v.error) == (3.9e17, 3.3e17)
        assert v.warnings == ("E[Z^-1.5]: quadrature tolerance not met (err=3.30e+17)",)

    def test_divergent_raises(self):
        with pytest.raises(DomainError) as exc:
            IntegralResult(math.inf, math.inf, "divergent").checked("int phi f^p")
        assert str(exc.value) == "int phi f^p diverges"

    def test_real_results(self):
        ok = integrate(lambda x: np.exp(-x), (0.0, math.inf)).checked("e")
        assert ok.value == pytest.approx(1.0, abs=1e-10) and ok.warnings == ()
        with pytest.raises(DomainError, match="^tail diverges$"):
            integrate(lambda x: np.full_like(x, 1e120), (0.0, 1.0)).checked("tail")


def _fd_error(fn, xs, errs, h=1e-6):
    """sum_i |d fn / d x_i| e_i with central differences of relative step h."""
    total = 0.0
    for i, (x, e) in enumerate(zip(xs, errs)):
        up, down = list(xs), list(xs)
        up[i], down[i] = x * (1 + h), x * (1 - h)
        total += abs((fn(*up) - fn(*down)) / (2 * h * x)) * e
    return total


class TestValue:
    """First-order error propagation, warning merging and exact floats."""

    BINARY = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "pow": lambda a, b: a**b,
    }
    UNARY = {
        "log": lambda a: a.log() if isinstance(a, Value) else math.log(a),
        "exp": lambda a: a.exp("test") if isinstance(a, Value) else math.exp(a),
        "pow-float": lambda a: a**1.7,
        "radd": lambda a: 0.3 + a,
        "rsub": lambda a: 0.3 - a,
        "rmul": lambda a: 0.3 * a,
        "rdiv": lambda a: 0.3 / a,
        "neg": lambda a: -a,
    }

    @pytest.mark.parametrize("op", sorted(BINARY))
    def test_binary_error_is_first_order(self, op):
        fn = self.BINARY[op]
        rng = np.random.default_rng(7)
        for a, b, ea, eb in rng.uniform([0.2, 0.2, 0, 0], [3.0, 3.0, 1e-6, 1e-6], (20, 4)):
            r = fn(Value(a, ea), Value(b, eb))
            assert r.value == fn(a, b)  # the same float operation
            assert r.error == pytest.approx(_fd_error(fn, [a, b], [ea, eb]), rel=1e-6)

    @pytest.mark.parametrize("op", sorted(UNARY))
    def test_unary_error_is_first_order(self, op):
        fn = self.UNARY[op]
        rng = np.random.default_rng(11)
        for a, ea in rng.uniform([0.2, 0], [3.0, 1e-6], (20, 2)):
            r = fn(Value(a, ea))
            assert r.value == fn(a)
            assert r.error == pytest.approx(_fd_error(fn, [a], [ea]), rel=1e-6)

    def test_relative_residual_of_floats_or_values(self):
        lhs, rhs = Value(1.5, 1e-3, ("w",)), Value(1.25, 1e-3)
        assert relative_residual(lhs, rhs) == abs(1.5 - 1.25) / (1.0 + 1.5)
        assert relative_residual(lhs, 1.25) == relative_residual(1.5, rhs) == 0.1

    def test_float_operands_are_exact(self):
        assert (Value(2.0) * 3.0 + 1.0).error == 0.0
        assert (Value(2.0, 0.1) * 3.0).error == pytest.approx(0.3)

    def test_a_term_used_twice_counts_once(self):
        n_g, n_r, n_f, p = Value(1.3, 1e-8), Value(2.1, 1e-8), Value(0.7, 1e-8), 2.5
        lhs = (n_g / n_r) * (n_r / n_f) ** p
        exact = lambda g, r, f: g * r ** (p - 1) / f**p  # noqa: E731
        assert lhs.error == pytest.approx(
            _fd_error(exact, [1.3, 2.1, 0.7], [1e-8] * 3), rel=1e-6
        )
        n = Value(1.9, 1e-6)
        assert (n / n).error == 0.0

    def test_warnings_merge_in_order_without_duplicates(self):
        a = Value(1.0, 0.0, ("a", "b"))
        b = Value(2.0, 0.0, ("c", "a"))
        c = Value(3.0, 0.0, ("b", "d"))
        assert ((a + b) * c).warnings == ("a", "b", "c", "d")
        assert (c / (b - a)).warnings == ("b", "d", "c", "a")
        assert (a**b).log().warnings == ("a", "b", "c")

    def test_exp_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^big overflows"):
            Value(800.0, 1.0).exp("big")

    @pytest.mark.parametrize(
        "fn, message",
        [
            (lambda: Value(2.0) ** 1e5, "2.0 ** 100000.0 overflows"),
            (lambda: Value(2.0, 1e-9) ** Value(1e5), "2.0 ** 100000.0 overflows"),
            (lambda: Value(0.0) ** -1.0, "0.0 ** -1.0 divides by zero"),
            (lambda: Value(1.5, 1e-9) / 0.0, "1.5 / 0.0 divides by zero"),
            (lambda: Value(1.5) / Value(0.0, 1e-9), "1.5 / 0.0 divides by zero"),
            (lambda: 1.5 / Value(0.0), "1.5 / 0.0 divides by zero"),
        ],
    )
    def test_overflow_or_division_by_zero_is_a_domain_error(self, fn, message):
        with pytest.raises(DomainError, match=f"^{message.replace('*', '[*]')}$"):
            fn()

    def test_fisher_root_error_follows_the_root(self):
        from wrenyi.densities import integral, make_laplace
        from wrenyi.measures import _score_term, fisher_information

        f = make_laplace(1.0)
        raw = integral(f, _score_term(f, None, 2.0, 2.0, True), "Fisher integral")
        fi = fisher_information(f, 2.0, 2.0)  # beta p = 4
        assert fi.error == pytest.approx(fi.value * raw.error / (4.0 * raw.value), rel=1e-12)
        assert fi.error != raw.error

    def test_unconverged_fisher_integral_reaches_the_fii_verdict(self):
        from wrenyi.densities import parse_density
        from wrenyi.inequalities import check_fii
        from wrenyi.weights import parse_weight

        v = check_fii(parse_density("gg:1.662,1.894"), parse_weight("expw:-0.208"), 1.92, 1.0)
        assert any(
            w.startswith("weighted Fisher integral: quadrature tolerance not met")
            for w in v.warnings
        )


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

    @pytest.mark.parametrize("core", [lambda x, fx: np.log(fx) * x**3, lambda x, fx: 2])
    def test_all_positive_matches_the_masked_path(self, core):
        # With f > 0 at every node the core sees the whole batch; one node
        # outside the support sends the same points through the mask.
        x = np.linspace(0.01, 0.99, 97)
        inside = _masked(_Law, core)(x)
        masked = _masked(_Law, core)(np.append(x, 2.0))
        assert inside.dtype == float and inside.shape == x.shape
        assert inside.tobytes() == masked[:-1].tobytes()
        inside[0] = -1.0  # a fresh, writable array, as on the masked path


class TestEveryResultChecked:
    """Every integral the package takes is turned into a value by checked()."""

    def test_integrate_and_checked_calls_match(self, monkeypatch):
        import sys
        from dataclasses import replace

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
        # A weighted CDF takes no integral: its partition is resolved by
        # GK15 bisection and fixed DE rules.
        cdf(parse_density("weighted:gg:2,2;expw:0.3"), 0.1)
        cdf(parse_density("weighted:laplace:1;expw:0.2"), np.array([-30.0, -1.0, 0.5, 30.0, 8000.0]))
        beta_law(2.5, 1.5).expectation(lambda z: z)
        gamma_law(1.5).expectation(lambda z: z)
        antiderivatives(replace(make_exp_linear(1.0), terms=None))
        weighted_entropy(make_tent(), make_power(1.0))
        check_fii(g22, parse_weight("expw:0.1"), 2.0, 2.0)
        check_cor4(make_tent(), 0.2)
        check_scaling_identity(make_exp_linear(0.3), g22, 1.7, 2.0)
        lemma4_residual(g22, lambda x: x**3, lambda x: 3 * x * x)

        assert len(sites) == 4
        assert len(checked) == len(results)
        assert {id(r) for r in checked} == {id(r) for r in results}
