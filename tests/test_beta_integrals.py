"""Beta/Gamma closed forms for generalized-Gaussian sources and the Gaussian forms.

Each closed form is checked three ways:

* against 30-digit mpmath quadrature of its defining integral, to 1e-13
  relative, on gg:alpha,p,1.3 for alpha in {0.7, 1.5, 2, 3} and p in
  {0.8, 1, 1.5, 2.5}, on laplace:0.8 and on the tent, under the weights
  |x|^e for e in {0, 0.5, 2, 3.5} (and the Gaussian forms on the laws of
  the same (alpha, p));
* against the quadrature path that the same weight takes without its
  terms, which must lie within its own claimed error;
* through the CLI reproducers that the closed forms mend.
"""

import functools
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace

import mpmath as mp
import pytest

from wrenyi.cli import main
from wrenyi.densities import parse_density
from wrenyi.errors import DomainError
from wrenyi.gaussian_forms import case_laws, lambda_bar, lambda_tilde, theta, upsilon
from wrenyi.measures import (
    expectation,
    fisher_information,
    generalized_moment,
    weighted_entropy,
    weighted_fisher_information,
    weighted_renyi_entropy,
)
from wrenyi.weights import make_abs_polynomial, make_constant, make_power

ALPHAS = (0.7, 1.5, 2.0, 3.0)
PS = (0.8, 1.0, 1.5, 2.5)
EXPONENTS = (0.0, 0.5, 2.0, 3.5)
# (alpha, p, t) of each source: f(x) = (a/t) k(|x|/t) with the unit kernel
# k(u) = (1 + (1-p) u^alpha)_+^(1/(p-1)), e^{-u^alpha} at p = 1.
SOURCES = {
    **{f"gg:{a:g},{p:g},1.3": (a, p, 1.3) for a in ALPHAS for p in PS},
    "laplace:0.8": (1.0, 1.0, 0.8),
    "tent": (1.0, 2.0, 1.0),
}
Q = 1.5  # the order of int phi f^q and of the Fisher informations
MOMENT = 1.5  # the order of the generalized moment
FISHER = 2.0  # the moment order alpha' of the Fisher informations, beta = 2


def _weight(e):
    return make_power(e) if e else make_constant(1.0)


def _from_zero(lead, width, core):
    """int_0^width g(d) dd for g ~ d^lead at 0, taken in y = d^(lead+1), in
    which it is smooth at 0; ``core(log d, log J)`` is g(d) times J, the
    Jacobian of the variable integrated in."""
    r = 1 / (lead + 1)
    log_r = mp.log(r)

    def in_y(y):
        log_y = mp.log(y)
        return core(r * log_y, log_r + (r - 1) * log_y)

    return mp.quad(in_y, [0, mp.mpf(width) ** (lead + 1)])


def _half_line(alpha, p, lead, tail, core):
    """int_0^U g(u) du for the unit kernel of (alpha, p): U is the edge of
    its support (inf for p <= 1), g ~ u^lead at 0 and, at p < 1, g ~ u^tail
    at inf; ``core(log u, log b, log J)`` is g(u) times J, the Jacobian of
    the variable integrated in, with b = 1 + (1-p) u^alpha (None at p = 1).

    Each piece is taken in a variable that makes it smooth at its ends, so
    that tanh-sinh reaches 30 digits: :func:`_from_zero` from u = 0 (to 2
    at p <= 1, to 1/2 at p > 1); beyond u = 2, v = u^alpha - 2^alpha at
    p = 1 and :func:`_from_zero` in w = 2/u at p < 1; at p > 1, z with
    u = U (1 - z^4) on [1/2, U], in which b keeps its digits.
    """

    def at(log_u, log_jac):
        log_b = None if p == 1 else mp.log1p((1 - p) * mp.exp(alpha * log_u))
        return core(log_u, log_b, log_jac)

    if p > 1:
        edge = (p - 1) ** (-1 / alpha)
        log_edge = mp.log(edge)

        def from_edge(z):
            log_v = mp.log1p(-(z**4))  # u = edge (1 - z^4)
            log_b = mp.log(-mp.expm1(alpha * log_v))
            return core(log_edge + log_v, log_b, log_edge + mp.log(4) + 3 * mp.log(z))

        z_half = (1 - mp.mpf(0.5) / edge) ** mp.mpf(0.25)  # u = 1/2
        return _from_zero(lead, 0.5, at) + mp.quad(from_edge, [0, z_half])
    near = _from_zero(lead, 2, at)
    if p == 1:
        # v = u^alpha - 2^alpha; the rest beyond v = 120 is below e^-120 of the mass
        log_alpha = mp.log(alpha)

        def far(v):
            log_u = mp.log(2**alpha + v) / alpha
            return core(log_u, None, (1 - alpha) * log_u - log_alpha)

        return near + mp.quad(far, [0, 120])
    # u = 2/w, du = 2/w^2 dw, and g ~ w^(-tail-2) at w = 0
    log_2 = mp.log(2)
    return near + _from_zero(-tail - 2, 1, lambda lw, lj: at(log_2 - lw, lj + log_2 - 2 * lw))


def _log_kernel(alpha, p, log_u, log_b):
    """log k(u) from the definition of G, log_b = log(1 + (1-p) u^alpha)."""
    return -mp.exp(alpha * log_u) if p == 1 else log_b / (p - 1)


def _tail_power(source, s, kind):
    """The power of u that x^s core(x) falls like at inf, or None where it
    decays faster than any power: at p < 1, f ~ u^-A and |f'| ~ u^(-A-1),
    A = alpha/(1-p)."""
    alpha, p, _ = SOURCES[source]
    if p >= 1:
        return None
    big_a = alpha / (1 - p)
    return s - {
        "f": big_a,
        "f^q": Q * big_a,
        "score": 2 * ((Q - 1) * big_a + 1) + big_a,
        "-f log f": big_a,
    }[kind]


@functools.lru_cache(maxsize=None)
def _log_norm(source):
    """log(a/t) of the source, from 30-digit quadrature of its mass."""
    with mp.workdps(30):
        alpha, p, t = (mp.mpf(v) for v in SOURCES[source])
        tail = None if p == 1 else -alpha / (1 - p)
        kernel = lambda lu, lb, lj: mp.exp(_log_kernel(alpha, p, lu, lb) + lj)  # noqa: E731
        mass = _half_line(alpha, p, 0, tail, kernel)
        return -mp.log(2 * t * mass)


@functools.lru_cache(maxsize=None)
def _reference(source, s, kind):
    """30-digit 2 int_0^inf x^s core(x) dx for the source's f, with core f
    ("f"), f^Q ("f^q"), |f^(Q-2) f'|^2 f ("score") or -f log f ("-f log f")."""
    with mp.workdps(30):
        alpha, p, t = (mp.mpf(v) for v in SOURCES[source])
        s, log_norm, log_t = mp.mpf(s), _log_norm(source), mp.log(t)
        log_alpha = mp.log(alpha)

        def core(log_u, log_b, log_jac):
            log_k = _log_kernel(alpha, p, log_u, log_b)
            log_f = log_norm + log_k  # f = (a/t) k(u) at u = x/t
            if kind == "score":
                # |f'| = (a/t^2) |k'(u)|, |k'| = alpha u^(alpha-1) k (p = 1), b^(1/(p-1)-1) (p != 1)
                log_b_part = log_k if p == 1 else (1 / (p - 1) - 1) * log_b
                log_df = log_norm - log_t + log_alpha + (alpha - 1) * log_u + log_b_part
                log_core = 2 * ((Q - 2) * log_f + log_df) + log_f
            else:
                log_core = Q * log_f if kind == "f^q" else log_f
            # x^s core(x) dx with x = t u
            value = mp.exp(s * (log_t + log_u) + log_core + log_t + log_jac)
            return -value * log_f if kind == "-f log f" else value

        lead = s + (2 * (alpha - 1) if kind == "score" else 0)
        return 2 * _half_line(alpha, p, lead, _tail_power(source, s, kind), core)


# id -> (the measure of (f, phi), its reference at the exponent e)
MEASURES = {
    "E_f[phi]": (lambda f, w: expectation(f, w), lambda src, e: _reference(src, e, "f")),
    "wre": (
        lambda f, w: weighted_renyi_entropy(f, w, Q),
        lambda src, e: mp.log(_reference(src, e, "f^q")) / (1 - Q),
    ),
    "mom": (
        lambda f, w: generalized_moment(f, w, MOMENT),
        lambda src, e: _reference(src, e + MOMENT, "f"),
    ),
    "wfi": (
        lambda f, w: weighted_fisher_information(f, w, FISHER, Q),
        lambda src, e: _reference(src, e, "score"),
    ),
}
# f ~ x^-3.5 in the tail of gg:0.7,0.8, so x^3.5 f and x^(2+1.5) f are not integrable.
DIVERGENT = {
    ("gg:0.7,0.8,1.3", "E_f[phi]", 3.5),
    ("gg:0.7,0.8,1.3", "mom", 2.0),
    ("gg:0.7,0.8,1.3", "mom", 3.5),
}
P_ONE = [src for src, (_, p, _) in SOURCES.items() if p == 1.0]


def _close(got, expected):
    assert abs(got.value - expected) <= 1e-13 * abs(expected)
    assert (got.error, got.branch) == (0.0, "closed-form")


class TestMeasuresOracle:
    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("mid", list(MEASURES))
    @pytest.mark.parametrize("source", list(SOURCES))
    def test_matches_mpmath(self, source, mid, e):
        measure, reference = MEASURES[mid]
        f = parse_density(source)
        if (source, mid, e) in DIVERGENT:
            with pytest.raises(DomainError, match="diverges in the tail"):
                measure(f, _weight(e))
            return
        got = measure(f, _weight(e))
        with mp.workdps(30):
            _close(got, reference(source, e))

    @pytest.mark.parametrize("source", list(SOURCES))
    def test_fisher_information_matches_mpmath(self, source):
        got = fisher_information(parse_density(source), FISHER, Q)
        with mp.workdps(30):
            _close(got, _reference(source, 0.0, "score") ** (1 / (2 * Q)))

    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("source", P_ONE)
    def test_p_one_entropy_matches_mpmath(self, source, e):
        got = weighted_entropy(parse_density(source), _weight(e))
        with mp.workdps(30):
            _close(got, _reference(source, e, "-f log f"))

    def test_sums_its_terms(self):
        f = parse_density("gg:1.5,2.5,1.3")
        terms = ((1.0, 0.0), (-0.5, 1.0), (0.25, 2.0))
        parts = [c * expectation(f, _weight(e)).value for c, e in terms]
        got = expectation(f, make_abs_polynomial([1.0, -0.5, 0.25]))
        assert got.value == pytest.approx(math.fsum(parts), rel=1e-15)

    def test_carries_the_warnings_of_f(self):
        f = replace(parse_density("gg:2,1.5"), warnings=("a warning of f",))
        for measure, _ in MEASURES.values():
            assert measure(f, make_power(0.5)).warnings == f.warnings
        assert fisher_information(f, FISHER, Q).warnings == f.warnings
        f = replace(parse_density("laplace:1"), warnings=("a warning of f",))
        assert weighted_entropy(f, make_power(0.5)).warnings == f.warnings


# The auxiliary laws of each regime, (alpha, p, law name) -> law.
LAWS = {
    (alpha, p, name): law
    for alpha in (0.0, *ALPHAS)
    for p in PS
    if alpha > 0 or p > 1
    for name, law in case_laws(alpha, p).items()
}


def _transform(alpha, p, w, law):
    if alpha == 0:
        return upsilon(w, law)
    if p == 1:
        return theta(w, alpha, law)
    return (lambda_tilde if p > 1 else lambda_bar)(w, p, alpha, law)


@functools.lru_cache(maxsize=None)
def _law_reference(alpha, p, name, e):
    """30-digit E[phi(-u) + phi(u)] = 2 E[u^e] for phi = |x|^e under the law."""
    law = LAWS[(alpha, p, name)]
    with mp.workdps(30):
        alpha, p, e = mp.mpf(alpha), mp.mpf(p), mp.mpf(e)
        s1, s2 = mp.mpf(law.shape1), mp.mpf(law.shape2)
        if law.family == "gamma":
            # Z ~ Gamma(s1): u = Z^(1/alpha) (Theta), e^-Z (Upsilon, alpha = 0)
            def log_core(log_z, log_jac):
                z = mp.exp(log_z)
                log_u_e = -e * z if alpha == 0 else e / alpha * log_z
                return log_u_e + (s1 - 1) * log_z - z + log_jac

            lead = s1 - 1 + (0 if alpha == 0 else e / alpha)
            head = _from_zero(lead, 2, lambda lz, lj: mp.exp(log_core(lz, lj)))
            # beyond z = 122 the law holds less than e^-120 of its mass
            tail = mp.quad(lambda v: mp.exp(log_core(mp.log(2 + v), 0)), [0, 120])
            return 2 * (head + tail) / mp.gamma(s1)
        # Z ~ Beta(s1, s2), V = 1 - Z: u^alpha = V/(p-1) (LambdaT), V/(Z(1-p)) (LambdaB)
        k, log_gap = e / alpha, mp.log(abs(p - 1))

        def log_core(log_z, log_v, log_jac):
            log_u_a = log_v - log_gap - (log_z if p < 1 else 0)
            return k * log_u_a + (s1 - 1) * log_z + (s2 - 1) * log_v + log_jac

        def from_end(lead, swap):
            # d = Z from 0, or d = V from 1, up to 1/2
            def core(log_d, log_jac):
                log_other = mp.log1p(-mp.exp(log_d))
                log_z, log_v = (log_other, log_d) if swap else (log_d, log_other)
                return mp.exp(log_core(log_z, log_v, log_jac))

            return _from_zero(lead, 0.5, core)

        left = from_end(s1 - 1 - (k if p < 1 else 0), False)
        return 2 * (left + from_end(s2 - 1 + k, True)) / mp.beta(s1, s2)


# k = e/alpha >= shape1 = 2.571 on both laws of (0.7, 0.8): E[u^e] is infinite.
LAW_DIVERGENT = {(0.7, 0.8, name, e) for name in ("Z", "Y") for e in (2.0, 3.5)}


class TestGaussianFormsOracle:
    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("alpha, p, name", list(LAWS))
    def test_matches_mpmath(self, alpha, p, name, e):
        law = LAWS[(alpha, p, name)]
        if (alpha, p, name, e) in LAW_DIVERGENT:
            with pytest.raises(DomainError, match="^LambdaB diverges: E"):
                _transform(alpha, p, _weight(e), law)
            return
        got = _transform(alpha, p, _weight(e), law)
        with mp.workdps(30):
            expected = _law_reference(alpha, p, name, e)
        assert abs(got.value - expected) <= 1e-13 * abs(expected)
        assert got.error == 0.0


def _bare(w):
    """``w`` without its terms: the quadrature path of the same weight."""
    return replace(w, terms=None)


def _within_claim(quad, closed):
    """The quadrature is the closed form within its claimed error (and rounding)."""
    return abs(quad.value - closed.value) <= quad.error + 1e-13 * abs(closed.value)


# Where the quadrature misses the closed form by more than it claims: an
# algebraic endpoint singularity (k^(-2/3) at the edge of G on p = 2.5 for the
# Fisher integrand, Beta((2p-1)/(p-1), 1/3) and Gamma(1/3) laws at alpha = 3)
# and a slow algebraic tail (gg:0.7,0.8, f ~ x^-3.5).  ROADMAP item 5 (its
# third problem) is the kernel fault behind them.
QUADRATURE_MISSES = {
    ("gg:0.7,0.8,1.3", "E_f[phi]", 2.0),
    ("gg:0.7,0.8,1.3", "mom", 0.5),
    ("gg:0.7,1,1.3", "wfi", 0.0),
    *((f"gg:{a:g},2.5,1.3", "wfi", e) for a in ALPHAS for e in EXPONENTS),
    (3.0, 0.8, "Z", 0.5),
    (3.0, 1.0, "Wbar", 0.0),
    (3.0, 1.5, "Z", 0.5),
    (3.0, 2.5, "Z", 0.5),
}


MISS_REASON = "the quadrature misses by more than its claimed error"


def _cases(keys):
    return [
        pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason=MISS_REASON))
        if key in QUADRATURE_MISSES
        else key
        for key in keys
    ]


class TestQuadratureAgainstClosedForm:
    """The quadrature path, kept for weights without terms, on the same inputs."""

    @pytest.mark.parametrize(
        "source, mid, e",
        _cases([
            (s, m, e) for s in SOURCES for m in MEASURES for e in EXPONENTS
            if (s, m, e) not in DIVERGENT
        ]),
    )
    def test_measures_within_claimed_error(self, source, mid, e):
        measure, _ = MEASURES[mid]
        f, w = parse_density(source), _weight(e)
        quad = measure(f, _bare(w))
        assert quad.branch != "closed-form"
        assert _within_claim(quad, measure(f, w))

    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("source", P_ONE)
    def test_p_one_entropy_within_claimed_error(self, source, e):
        f, w = parse_density(source), _weight(e)
        assert _within_claim(weighted_entropy(f, _bare(w)), weighted_entropy(f, w))

    @pytest.mark.parametrize(
        "alpha, p, name, e",
        _cases([(*key, e) for key in LAWS for e in EXPONENTS if (*key, e) not in LAW_DIVERGENT]),
    )
    def test_gaussian_forms_within_claimed_error(self, alpha, p, name, e):
        law, w = LAWS[(alpha, p, name)], _weight(e)
        assert _within_claim(_transform(alpha, p, _bare(w), law), _transform(alpha, p, w, law))


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv.split())
    return code, json.loads(buf.getvalue())


class TestReproducers:
    def test_fisher_integral_near_p_one(self):
        # The quadrature read 8.56e-17: its first panel missed the bulk.
        code, out = _run("compute wfi --f gg:2,1.001 --w const:1 --alpha 2 --p 1.001")
        assert code == 0
        assert out["value"] == pytest.approx(1.99472, abs=5e-6)
        assert (out["error"], out["branch"]) == (0, "closed-form")

    def test_fii_near_p_one_is_not_vacuous(self):
        # The rhs read 1.08e8 from the J^{rho1}(G) of 8.56e-17 above.
        code, out = _run("verify fii --f laplace:1 --w const:1 --alpha 2 --p 1.001")
        assert code == 0
        assert out["rhs"] == pytest.approx(0.7068, abs=1e-4)
        assert out["verdict"] == "holds"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # k = 4/2 >= shape1 = 11/6: E[u^4] under the p < 1 laws is infinite.
            ("verify id2.14 --w pow:4 --alpha 2 --p 0.7", "LambdaB diverges: E[u^4] is infinite"),
            # G ~ x^(-20/3) in the tail, so sigma_f's moment x^4 x^2 G is not integrable.
            ("verify mei --f gg:2,0.7 --w pow:4 --alpha 2 --p 0.7",
             "generalized moment diverges in the tail"),
            # -phi f log f ~ x^-3 at 0; the quadrature printed 6.6e49 with a tolerance warning.
            ("compute we --f laplace:1 --w pow:-3",
             "weighted entropy diverges: x^-3 is not integrable at 0"),
        ],
    )
    def test_divergence_is_a_numeric_error(self, argv, message):
        code, out = _run(argv)
        assert code == 3
        assert out == {"error": {"type": "numeric", "message": message}}
