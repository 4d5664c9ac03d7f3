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

Under e^{gamma x} the same measures and forms are the even series (or, at
alpha = p = 1, the exact sum) of those closed forms; each is checked
against 30-digit mpmath within its claimed error plus 8 ulps, and each
divergent regime against its DomainError.
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
    weighted_renyi_power,
)
from wrenyi.weights import make_abs_polynomial, make_constant, make_exp_linear, make_power

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


# ---------------------------------------------------------------------------
# Weights with e^{gamma x}: the even series and the exact Laplace sum
# ---------------------------------------------------------------------------

EPS = 2.0**-52
# Sources whose integrals under e^{gamma x} converge for every gamma (p > 1,
# and p = 1 with alpha > 1) and, at alpha = p = 1, for |gamma| t < m.
EXP_SOURCES = {
    "gg:2,1.5,1.3": (2.0, 1.5, 1.3),
    "gg:3,2.5,1.3": (3.0, 2.5, 1.3),
    "tent": (1.0, 2.0, 1.0),
    "gg:1.5,1,1.3": (1.5, 1.0, 1.3),
    "gg:2,1,1.3": (2.0, 1.0, 1.3),
    "gg:3,1,1.3": (3.0, 1.0, 1.3),
    "laplace:0.8": (1.0, 1.0, 0.8),
    "laplace:1.5": (1.0, 1.0, 1.5),
}
# (measure of (f, phi), the kind of core and the power s of |x| it reads,
# the power m of the kernel in that core)
EXP_MEASURES = {
    "E_f[phi]": (lambda f, w: expectation(f, w), "f", 0.0, 1.0),
    "int phi f^q": (lambda f, w: weighted_renyi_power(f, w, Q), "f^q", 0.0, Q),
    "mom": (lambda f, w: generalized_moment(f, w, MOMENT), "f", MOMENT, 1.0),
    "wfi": (lambda f, w: weighted_fisher_information(f, w, FISHER, Q), "score", 0.0, 2 * (Q - 1) + 1),
}


def _edge_pieces(alpha, p, integrand):
    """int_0^U integrand(u, log b) du for the unit kernel of (alpha, p), U the
    edge of its support (inf at p = 1); at p > 1 the half [U/2, U] is taken in
    z with u = U (1 - z^4), in which b = 1 - (1 - z^4)^alpha keeps its digits."""
    if p == 1:
        return mp.quad(lambda u: integrand(u, None), [0, 1, 2, 4, 8, 16, 32, 64, mp.inf])
    edge = (p - 1) ** (-1 / alpha)

    def near(u):
        return integrand(u, mp.log1p((1 - p) * u**alpha))

    def from_edge(z):
        log_b = mp.log(-mp.expm1(alpha * mp.log1p(-(z**4))))
        return integrand(edge * (1 - z**4), log_b) * 4 * edge * z**3

    return mp.quad(near, [0, edge / 2]) + mp.quad(from_edge, [0, (mp.mpf(1) / 2) ** mp.mpf(0.25)])


@functools.lru_cache(maxsize=None)
def _cosh_reference(source, kind, s, g):
    """30-digit int |x|^s e^{g x} core(x) dx = 2 int_0^inf x^s cosh(g x) core(x) dx
    for the source's f, core f, f^Q or |f^(Q-2) f'|^2 f as in :func:`_reference`."""
    with mp.workdps(30):
        alpha, p, t = (mp.mpf(v) for v in EXP_SOURCES[source])
        s, g = mp.mpf(s), mp.mpf(g)
        log_norm = _log_norm(source) if source in SOURCES else -mp.log(2 * t)
        log_t, log_alpha = mp.log(t), mp.log(alpha)

        def integrand(u, log_b):
            log_u = mp.log(u)
            log_k = _log_kernel(alpha, p, log_u, log_b)
            log_f = log_norm + log_k
            if kind == "score":
                log_b_part = log_k if p == 1 else (1 / (p - 1) - 1) * log_b
                log_df = log_norm - log_t + log_alpha + (alpha - 1) * log_u + log_b_part
                log_core = 2 * ((Q - 2) * log_f + log_df) + log_f
            else:
                log_core = Q * log_f if kind == "f^q" else log_f
            return 2 * t * mp.exp(s * (log_t + log_u) + log_core) * mp.cosh(g * t * u)

        return _edge_pieces(alpha, p, integrand)


def _exp_measure_reference(mid, source, g):
    _, kind, s, _ = EXP_MEASURES[mid]
    ref = _cosh_reference(source, kind, s, g)
    return ref ** (1 / (1 - Q)) if mid == "int phi f^q" else ref  # N = (int phi f^Q)^(1/(1-Q))


def _series_close(got, expected):
    """Within the claimed error plus 8 ulps, a closed form with a nonzero error."""
    expected = float(expected)
    assert abs(got.value - expected) <= got.error + 8 * EPS * abs(expected)
    assert 0.0 < got.error <= 1e-12 * abs(expected)
    assert got.branch == "closed-form"


# |gamma| t / m = 0.91 at alpha = p = 1: the exact sum near its radius.
LAPLACE_EDGE = [
    (src, mid, 0.91 * EXP_MEASURES[mid][3] / EXP_SOURCES[src][2])
    for src in ("laplace:0.8", "laplace:1.5")
    for mid in EXP_MEASURES
]


class TestExponentialWeightSeries:
    @pytest.mark.parametrize("g", (0.3, -0.5, 2.0))
    @pytest.mark.parametrize("mid", list(EXP_MEASURES))
    @pytest.mark.parametrize("source", [s for s in EXP_SOURCES if not s.startswith("laplace")])
    def test_matches_mpmath(self, source, mid, g):
        got = EXP_MEASURES[mid][0](parse_density(source), make_exp_linear(g))
        with mp.workdps(30):
            _series_close(got, _exp_measure_reference(mid, source, g))

    @pytest.mark.parametrize("source, mid, g", [
        *((src, mid, g) for src in ("laplace:0.8", "laplace:1.5") for mid in EXP_MEASURES
          for g in (0.3, -0.5)),
        *LAPLACE_EDGE,
    ])
    def test_laplace_exact_sum_matches_mpmath(self, source, mid, g):
        got = EXP_MEASURES[mid][0](parse_density(source), make_exp_linear(g))
        with mp.workdps(30):
            _series_close(got, _exp_measure_reference(mid, source, g))

    @pytest.mark.parametrize("source, mid, g", LAPLACE_EDGE)
    def test_laplace_at_its_radius_diverges(self, source, mid, g):
        radius = EXP_MEASURES[mid][3] / EXP_SOURCES[source][2]
        with pytest.raises(DomainError, match="diverges in the tail: [|]gamma[|]"):
            EXP_MEASURES[mid][0](parse_density(source), make_exp_linear(-radius))

    @pytest.mark.parametrize("source", ["gg:2,0.8", "gg:0.5,1", "gg:0.7,1,1.3"])
    def test_heavier_tail_diverges_by_rule(self, source):
        # A power tail (p < 1) or a stretched one (p = 1, alpha < 1) loses to
        # e^{gamma x} for any gamma != 0, before any term is summed.
        with pytest.raises(DomainError, match="^E_f\\[phi\\] diverges in the tail$"):
            expectation(parse_density(source), make_exp_linear(1e-3))

    def test_zero_gamma_is_the_power_term(self):
        f = parse_density("gg:2,1.5,1.3")
        got = expectation(f, replace(make_exp_linear(0.5), terms=((1.0, 0.0, 0.0),)))
        assert (got.value, got.error) == (expectation(f, make_constant(1.0)).value, 0.0)

    def test_overflowing_terms_are_summed_in_log_space(self):
        # rho_2 = e^{1.333 x} on Laplace(1.5) at p = 1.6: the Fisher integral's
        # series terms pass Gamma(171), so they are summed from their logs.
        f, w = parse_density("laplace:1.5"), make_exp_linear(0.25 * 1.6 * 2 / 0.6)
        got = weighted_fisher_information(f, w, 2.0, 1.6)
        with mp.workdps(30):
            b, g = mp.mpf(1.5), mp.mpf(0.25) * mp.mpf(1.6) * 2 / mp.mpf(0.6)
            # |f^(q-2) f'|^2 f = f^(2q-1) / b^2, f = e^(-|x|/b) / (2b)
            rate = (2 * mp.mpf(1.6) - 1) / b
            expected = (2 * b) ** (1 - 2 * mp.mpf(1.6)) / b**2 * (1 / (rate - g) + 1 / (rate + g))
        _series_close(got, expected)


# (alpha, p) of the laws read under e^{gamma x}: LambdaT (p > 1), Theta (p = 1,
# alpha >= 1; the exact sum at alpha = 1) and Upsilon (alpha = 0).
EXP_LAWS = [
    (alpha, p, name)
    for alpha, p in ((2.0, 1.5), (3.0, 2.5), (1.0, 1.0), (1.5, 1.0), (3.0, 1.0), (0.0, 1.5), (0.0, 2.5))
    for name in case_laws(alpha, p)
]


@functools.lru_cache(maxsize=None)
def _law_cosh_reference(alpha, p, name, g):
    """30-digit E[phi(-u) + phi(u)] = 2 E[cosh(g u)] for phi = e^{g x} under the law."""
    law = case_laws(alpha, p)[name]
    with mp.workdps(30):
        alpha, p, g = mp.mpf(alpha), mp.mpf(p), mp.mpf(g)
        s1, s2 = mp.mpf(law.shape1), mp.mpf(law.shape2)
        if law.family == "gamma":
            def at(z):
                u = mp.exp(-z) if alpha == 0 else z ** (1 / alpha)
                return 2 * mp.cosh(g * u) * z ** (s1 - 1) * mp.exp(-z)

            # Z^(s1 - 1) is taken from 0 in the variable that makes it smooth there.
            head = _from_zero(s1 - 1, 1, lambda lz, lj: at(mp.exp(lz)) * mp.exp(lj))
            return (head + mp.quad(at, [1, 2, 4, 8, 16, 32, 64, 128, mp.inf])) / mp.gamma(s1)

        def at(log_z, log_v, log_jac):  # Z = e^log_z, 1 - Z = e^log_v
            u = mp.exp((log_v - mp.log(p - 1)) / alpha)
            return 2 * mp.cosh(g * u) * mp.exp((s1 - 1) * log_z + (s2 - 1) * log_v + log_jac)

        # Each half from its end, in the variable that makes it smooth there.
        left = _from_zero(s1 - 1, 0.5, lambda lz, lj: at(lz, mp.log1p(-mp.exp(lz)), lj))
        right = _from_zero(s2 - 1, 0.5, lambda lv, lj: at(mp.log1p(-mp.exp(lv)), lv, lj))
        return (left + right) / mp.beta(s1, s2)


class TestGaussianFormsSeries:
    @pytest.mark.parametrize("g", (0.3, -0.5, 0.91))
    @pytest.mark.parametrize("alpha, p, name", EXP_LAWS)
    def test_matches_mpmath(self, alpha, p, name, g):
        got = _transform(alpha, p, make_exp_linear(g), case_laws(alpha, p)[name])
        with mp.workdps(30):
            expected = float(_law_cosh_reference(alpha, p, name, g))
        assert abs(got.value - expected) <= got.error + 8 * EPS * abs(expected)
        assert 0.0 < got.error <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("name", ["Z", "Y"])
    def test_lambda_bar_diverges_by_rule(self, name):
        law = case_laws(2.0, 0.8)[name]
        with pytest.raises(DomainError, match="^LambdaB diverges in the tail$"):
            lambda_bar(make_exp_linear(0.1), 0.8, 2.0, law)

    def test_theta_below_alpha_one_diverges_by_rule(self):
        with pytest.raises(DomainError, match="^Theta diverges in the tail$"):
            theta(make_exp_linear(0.1), 0.7, case_laws(0.7, 1.0)["W"])

    def test_theta_at_alpha_one_diverges_past_its_radius(self):
        with pytest.raises(DomainError, match="^Theta diverges in the tail: [|]gamma[|] = 1 >= 1$"):
            theta(make_exp_linear(-1.0), 1.0, case_laws(1.0, 1.0)["W"])


class TestExponentialWeightReproducers:
    def test_fisher_integral_near_p_one(self):
        # The quadrature read 1.05e-16 with error 1.05e-16: its first panel
        # missed the bulk.  30-digit mpmath gives 2.00968.
        code, out = _run("compute wfi --f gg:2,1.001 --w expw:0.1 --alpha 2 --p 1.001")
        assert code == 0
        assert out["value"] == pytest.approx(2.00968, abs=5e-6)
        assert out["branch"] == "closed-form" and 0 < out["error"] < 1e-14

    @pytest.mark.parametrize(
        "argv, message",
        [
            # G ~ e^{-sqrt|x|} has no exponential moment.
            ("compute mom --f gg:0.5,1 --w expw:0.1 --alpha 2",
             "generalized moment diverges in the tail"),
            # u has a power tail under both p < 1 laws.
            ("verify id2.14 --w expw:0.1 --alpha 2 --p 0.8", "LambdaB diverges in the tail"),
            ("compute mom --f laplace:1 --w expw:1 --alpha 1.5",
             "generalized moment diverges in the tail: |gamma| = 1 >= 1"),
        ],
    )
    def test_divergence_is_a_numeric_error(self, argv, message):
        code, out = _run(argv)
        assert code == 3
        assert out == {"error": {"type": "numeric", "message": message}}
