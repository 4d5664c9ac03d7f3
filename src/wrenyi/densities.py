"""One-dimensional density catalog.

Exponential, Laplace, tent, the generalized p-Gaussian family in all of
its parameter branches, scaled variants, weighted densities and
tabulated (piecewise linear) densities.  Every descriptor carries a
vectorized pdf, its derivative, an analytic CDF where the family has
one, the support interval, the points where the pdf or its derivative
is singular and the kinks where its derivative jumps (quadrature splits
at both, with tanh-sinh only at a singularity).

Every integral, essential supremum and total variation of a core
against a density goes through :func:`integral`, :func:`supremum` and
:func:`variation`: they mask the core to {f > 0}, run over the support,
split at the one breakpoint set (singularities of f, kinks of the
weight, the caller's hints), apply the one status rule and return a
:class:`~wrenyi.numerics.Value` that carries the density's own warnings.
A sup or variation of phi |x|^j f^M |f'/f|^N on a G kernel is first put
to the exponent rules of :func:`kernel_extremum` (below), which settle it
without a scan or find it infinite, a DomainError "<what> is not finite".

Generalized p-Gaussian, scale t = 1:

    G(x) = a * (1 + (1-p) |x|^alpha)_+^(1/(p-1))      p != 1
    G(x) = a * exp(-|x|^alpha)                        p  = 1
    G(x) = a * (-log|x|)_+^(1/(p-1))                  alpha = 0, p > 1
    G(x) = 1/2 on [-1, 1]                             alpha = inf

with normalization

    a = alpha (1-p)^(1/alpha) / (2 B(1/alpha, 1/(1-p) - 1/alpha))   p < 1
    a = alpha / (2 Gamma(1/alpha))                                  p = 1
    a = alpha (p-1)^(1/alpha) / (2 B(1/alpha, p/(p-1)))             p > 1
    a = 1 / (2 Gamma(p/(p-1)))                                      alpha = 0
    a = 1/2                                                         alpha = inf

valid for p > 1 - alpha (p > 1 when alpha = 0, p > 0 when alpha = inf).
The scaled family is G_t(x) = G(x/t) / t.

Closed forms.  Exp(lam) under an elementary weight (const, expw, pow,
abspoly: phi(x) = sum c |x|^e e^{gamma x}, ``WeightFunction.terms``)
integrates by one Gamma integral, finite for rate > gamma, k + e > -1:

    int_0^inf phi(x) x^k coef e^{-rate x} dx
        = sum c coef Gamma(k+e+1) / (rate-gamma)^(k+e+1).

G_t of order 0 < alpha < inf (Laplace(b) is G_{1,1} at scale b, the
tent G_{1,2}) is (a/t) k(|x|/t), k(u) = (1 + (1-p) u^alpha)_+^(1/(p-1))
(e^{-u^alpha} at p = 1); under phi = sum c |x|^e it integrates by one
Beta/Gamma integral, finite for x = (s+1)/alpha > 0 and a positive
second argument:

    M(s, m) = int_0^inf u^s k(u)^m du
            = (p-1)^-x B(x, m/(p-1) + 1) / alpha          p > 1
            = (1-p)^-x B(x, m/(1-p) - x) / alpha          p < 1
            = Gamma(x) m^-x / alpha                       p = 1.

A divergent one is a DomainError.  An integrand |x|^kappa k(|x|/t)^m is
even, so it reads only the even part of a term c |x|^e e^{gamma x},

    c |x|^e cosh(gamma x) = sum_j c gamma^(2j)/(2j)! |x|^(e+2j),

a sum of powers (:func:`_even_series`).  The series converges for every
gamma where k(u)^m falls faster than any e^{-r u} (p > 1, p = 1 with
alpha > 1); at alpha = p = 1 it sums exactly to
Gamma(s+1) [(m - gamma t)^-(s+1) + (m + gamma t)^-(s+1)] / 2 (times t^(s+1)),
finite for |gamma| t < m; and against a power tail (p < 1) or a
stretched one (p = 1, alpha < 1) any gamma != 0 "diverges in the tail".
A series result carries its truncation and rounding bound as its error;
a sum of powers is exact (error 0).  G's mass 2a M(0, 1) is 1 by its a,
and E_f[phi], the normalizer of a weighted density, is closed form for
these pairs, so no density is built by quadrature where it has one.

Suprema and variations by exponent rules.  On such a kernel (and on the
uniform G, k = 1 on u <= 1) g = phi |x|^j f^M |f'/f|^N with
|f'/f| = (alpha/t) u^(alpha-1) k^(1-p) is C sum c |x|^E e^{gamma x} k^m,
E = e + j + N (alpha-1), m = M + N (1-p).  With gamma = 0 each end of
u in [0, edge) is read from the exponents alone: at 0 the smallest E
(b at E = 0, 0 above, +-inf below); at a bounded edge (p > 1) k -> 0
(0 for m > 0, the value there for m = 0, +-inf for m < 0); in a p < 1
tail k ~ ((1-p) u^alpha)^(-1/(1-p)), so the largest E reads
u^(E - m alpha/(1-p)); at p = 1 k = e^{-u^alpha} decays past any power.
An end of +inf makes a sup infinite, either infinity a variation.  One
term b u^E k^m peaks (or dips) at most once, at
u*^alpha = E / (m alpha + (p-1) E); a sum with m = 0 and every b, E >= 0
is nondecreasing in |x|.  So each is monotone between 0, u* and the far
end, its sup the largest of those values and the variation of the even
g twice the sum of its steps plus the jumps at a finite edge (4 g(u*)
for one term vanishing at both ends).  A gamma != 0 term is settled
only in a sup at m = 0: the dominant term on an infinite side decides
its growth, and with every c, E >= 0 and one sign s of gamma the sup is
g(s edge).  Every other sum, and every other source, is scanned, the
rule at 0 applied first on an exponential source, where f(0+) > 0.
The tests E = 0, m = 0 and m alpha + (p-1) E = 0 hold within 16 eps of
the sizes summed into them: -0.4 + 1.4 - 1 and 2 * 2 - (1 - 0.8) * 20
are 0 in the input's decimals but not in doubles, and an exact test
would read a pole at 0, or a tail of 0 or +inf, from one rounding.
:func:`shape_extremum` takes the shape (alpha, p, log(a/t), t) itself,
for a caller that knows G without building it.

Every branch but alpha = inf is symmetric, so its CDF and quantile come
from one pair of functions of u >= 0: H(u), half the mass of [-u, u]
under G, and its inverse R(r), the u with H(u) = r/2:

    H(u) = I((p-1) u^alpha; 1/alpha, p/(p-1)) / 2                   p > 1
    H(u) = P(1/alpha, u^alpha) / 2                                  p = 1
    H(u) = (1 - I(1 / (1 + (1-p) u^alpha); 1/(1-p) - 1/alpha, 1/alpha)) / 2
                                                                    p < 1
    H(u) = Q(p/(p-1), -log u) / 2                                   alpha = 0

(I the regularized incomplete Beta function, P and Q the regularized
lower and upper incomplete Gamma functions; u is clipped to the support
where it is bounded).  Then

    F_t(x) = 1/2 + sign(x) H(|x|/t),    Q_t(q) = sign(q - 1/2) t R(|2q - 1|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, EvaluationError, InputError
from .numerics import (
    _EPS,
    _EXP_SINH,
    _TANH_SINH,
    _TINY,
    _WG15,
    _WGK,
    _XGK,
    DEFAULT_CONFIG,
    MeasureValue,
    QuadratureConfig,
    Value,
    _de_rule,
    _exp,
    _finite,
    _gk15_leaves,
    _masked,
    _merge,
    _vec,
    beta_fn,
    essential_supremum,
    gamma_fn,
    integrate,
    total_variation,
)

__all__ = [
    "Density",
    "integral",
    "supremum",
    "variation",
    "kernel_extremum",
    "shape_extremum",
    "make_exponential",
    "make_laplace",
    "make_tent",
    "make_generalized_gaussian",
    "scale_density",
    "make_weighted_density",
    "make_tabulated",
    "cdf",
    "quantile",
    "parse_float",
    "parse_density",
]

# Decades from its scale within which G's bulk must lie (make_generalized_gaussian).
_REACH = 15.0
# Relative accuracy credited to a grid-and-polish supremum or total variation.
_SEARCH_REL_ERR = 1e-9
# Terms an e^{gamma x} series may take; one that needs more has its mass
# where no double reaches (|gamma| t >= 1 near alpha = 1 at p = 1).
_SERIES_TERMS = 4096


@dataclass(frozen=True)
class Density:
    """Immutable descriptor of a one-dimensional probability density."""

    family: str
    params: dict
    support: tuple[float, float]
    pdf: callable
    dpdf: callable
    cdf_fn: callable
    quantile_fn: callable
    singularities: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()
    kinks: tuple[float, ...] = ()

    def quad_config(self) -> QuadratureConfig:
        return QuadratureConfig(singularities=self.singularities, kinks=self.kinks)


def integral(f: Density, core, what: str, w=None, hints=(), config=DEFAULT_CONFIG) -> Value:
    """int core(x, f(x)) dx over {f > 0}, with its error and warnings.

    The support is split at the kinks of f and, as singularities, at
    those of f, the kinks of the weight ``w`` when one is given, and
    ``hints``; ``config`` gives the tolerances.  A divergent integral
    raises ``DomainError("<what> diverges")``, an unconverged one comes
    with a warning after those of f.
    """
    cuts = set(f.singularities) | set(hints) | set(() if w is None else w.kinks)
    cfg = replace(config, singularities=tuple(sorted(cuts)), kinks=f.kinks)
    v = integrate(_masked(f, core), f.support, cfg).checked(what)
    return replace(v, warnings=_merge(f.warnings, v.warnings)) if f.warnings else v


def _searched(f: Density, val: float) -> Value:
    """A supremum or variation found by grid search and polish, as a Value."""
    return Value(val, _SEARCH_REL_ERR * max(1.0, abs(val)), f.warnings)


def supremum(f: Density, core, what: str) -> Value:
    """Essential supremum of core(x, f(x)) over {f > 0}; it must be finite.

    A core that overflows on the scan grid reads inf there, and an
    infinite supremum is the DomainError below, not a RuntimeWarning.
    """
    with np.errstate(over="ignore"):
        val = essential_supremum(_masked(f, core, fill=-np.inf), f.support)
    if not math.isfinite(val):
        raise DomainError(f"{what} is not finite")
    return _searched(f, val)


def variation(f: Density, core, hints=()) -> Value:
    """Total variation of core(x, f(x)) (0 off {f > 0}) over the support.

    The jumps looked for are at the singularities of f and ``hints``.
    """
    jumps = tuple(f.singularities) + tuple(hints)
    return _searched(f, total_variation(_masked(f, core), f.support, jump_hints=jumps))


def _closed(value, flags: dict, warns=()) -> MeasureValue:
    """A float or Value (a closed form, with the truncation and rounding
    bound of its e^{gamma x} series) as a closed-form measure."""
    v = value if isinstance(value, Value) else Value(value)
    return MeasureValue(v.value, v.error, _merge(warns, v.warnings), v.parts, "closed-form", flags)


def _exponential_rates(w, *densities: Density) -> list:
    """The rates of ``densities`` if all are exponential and ``w`` has terms, else []."""
    closed = w.terms is not None and all(d.family == "exponential" for d in densities)
    return [d.params["lam"] for d in densities] if closed else []


def _gamma_integral(w, k: float, coef, rate: float, what: str, flag: str, warns=()):
    """int_0^inf phi(x) x^k coef e^{-rate x} dx over the terms (c, e, gamma) of ``w``,
    sum c coef Gamma(k+e+1) / (rate-gamma)^(k+e+1), flagged {flag: min rate - gamma},
    carrying ``warns``; a term with c = 0 adds nothing, so it is neither checked nor summed."""
    total = 0.0
    for c, e, g in w.terms:
        if c == 0.0:
            continue
        if not rate - g > 0:
            raise DomainError(f"{what} diverges: {flag} = {rate - g:.6g} <= 0")
        if not k + e > -1.0:
            raise DomainError(f"{what} diverges: x^{k + e:.6g} is not integrable at 0")
        total += c * coef * gamma_fn(k + e + 1.0) / Value(rate - g) ** (k + e + 1.0)
    return _closed(total, {flag: min(rate - g for _, _, g in w.terms)}, warns)


def _even_series(terms, log_mean, what: str, rate: float = math.inf, shift: float = 0.0):
    """(c, S, error of S) for each term (c, e, gamma) with c != 0 of a weight,
    S = E[|u|^e cosh(gamma u)] for a symmetric u whose power moments are
    E|u|^e = exp(log_mean(e)): the even part of c |u|^e e^{gamma u} is what a
    symmetric u reads.  ``rate`` is that of u's tail e^{-rate |u|}: inf for a
    lighter tail, 0 for a heavier one; a finite one means E|u|^e is
    Gamma(e + shift) rate^-(e + shift) up to a factor.

    S = exp(log_mean(e)) at gamma = 0, with no error; otherwise a
    |gamma| >= rate diverges in the tail, a finite rate gives the exact sum
    E|u|^e [(1 - gamma/rate)^-nu + (1 + gamma/rate)^-nu] / 2, nu = e + shift,
    and an infinite one the series sum_j gamma^(2j)/(2j)! E|u|^(e+2j) (see
    :func:`_cosh_series`).  A divergent moment is log_mean's DomainError.
    """
    out = []
    for c, e, g in terms:
        if c == 0.0:
            continue
        if g == 0.0:
            out.append((c, _exp(log_mean(e), what), 0.0))
        elif not abs(g) < rate:
            raise DomainError(f"{what} diverges in the tail" + (
                f": |gamma| = {abs(g):.6g} >= {rate:.6g}" if rate else ""))
        elif rate < math.inf:
            log_m, nu = log_mean(e), e + shift
            logs = [log_m - nu * math.log1p(sign * g / rate) for sign in (-1.0, 1.0)]
            halves = [0.5 * _exp(x, what) for x in logs]
            s = halves[0] + halves[1]
            rounding = math.fsum(h * (2.0 + abs(log_m) + 2.0 * abs(x - log_m)) for h, x in zip(halves, logs))
            out.append((c, s, _EPS * (s + rounding)))
        else:
            out.append((c, *_cosh_series(log_mean, e, g, what)))
    return out


def _cosh_series(log_mean, e: float, g: float, what: str):
    """(sum_j exp(L_j), error), L_j = log_mean(e + 2j) + 2j log|g| - log (2j)!.

    Each term is exponentiated from its log, so no factor overflows on its
    own.  The sum stops once the terms decrease and the tail bound
    T_j r/(1 - r), r = T_j/T_{j-1}, is below eps of the sum; the error is
    that bound, plus eps of the sum and eps of each term times the
    magnitude of its log (the rounding of L_j)."""
    log_g = math.log(abs(g))
    terms, total, rounding, prev = [], 0.0, 0.0, None
    for j in range(_SERIES_TERMS):
        k = 2.0 * j
        log_m, log_fact = log_mean(e + k), math.lgamma(k + 1.0)
        log_t = log_m + k * log_g - log_fact
        t = _exp(log_t, what)
        terms.append(t)
        total += t
        rounding += t * (2.0 + abs(log_m) + abs(k * log_g) + log_fact)
        if prev is not None and log_t < prev:
            r = math.exp(log_t - prev)
            tail = t * r / (1.0 - r)
            if tail <= _EPS * total:
                total = math.fsum(terms)
                return total, tail + _EPS * (total + rounding)
        prev = log_t
    raise DomainError(f"{what}: the e^(gamma x) series takes more than {_SERIES_TERMS} terms")


def _gg_shape(w, f: Density):
    """(alpha, p, log(a/t), t) of f(x) = (a/t) k(|x|/t) when ``w`` has terms
    c |x|^e e^{gamma x} and f is a generalized Gaussian of order
    0 < alpha < inf, Laplace(b) (G_{1,1} at scale b) or the tent (G_{1,2});
    else None."""
    if w.terms is None:
        return None
    if f.family == "generalized-gaussian" and 0.0 < f.params["alpha"] < math.inf:
        alpha, p, a, t = (f.params[k] for k in ("alpha", "p", "a", "t"))
        return alpha, p, math.log(a / t), t
    if f.family == "laplace":
        return 1.0, 1.0, -math.log(2.0 * f.params["b"]), f.params["b"]
    if f.family == "tent":
        return 1.0, 2.0, 0.0, 1.0
    return None


def _log_kernel_moment(s: float, m: float, alpha: float, p: float, what: str) -> float:
    """log M(s, m) of the module docstring, from log-Gamma values; a
    divergent M is a DomainError naming ``what``."""
    x = (s + 1.0) / alpha
    second = m if p == 1.0 else m / (p - 1.0) + 1.0 if p > 1.0 else m / (1.0 - p) - x
    if not x > 0:
        raise DomainError(f"{what} diverges: x^{s:.6g} is not integrable at 0")
    if not second > 0:
        where = "at the edge of the support" if p > 1.0 else "in the tail"
        raise DomainError(f"{what} diverges {where}")
    if p == 1.0:
        return math.lgamma(x) - x * math.log(m) - math.log(alpha)
    log_beta = math.lgamma(x) + math.lgamma(second) - math.lgamma(x + second)
    return log_beta - x * math.log(abs(p - 1.0)) - math.log(alpha)


def _tail_rate(alpha: float, p: float, m: float = 1.0, t: float = 1.0) -> float:
    """The rate of the tail e^{-rate |x|} of k(|x|/t)^m: 0 for a power tail
    (p < 1) or a stretched one (p = 1, alpha < 1), m/t at alpha = p = 1 and
    inf for a lighter tail or a bounded support (also that of the variable
    u of each Gaussian form, whose law is a power of such a kernel)."""
    if p < 1.0 or (p == 1.0 and alpha < 1.0):
        return 0.0
    return m / t if p == 1.0 and alpha == 1.0 else math.inf


def _beta_integral(w, shape, kappa: float, m: float, what: str, warns, power=1.0, log_extra=0.0):
    """int phi(x) C |x|^kappa k(|x|/t)^m dx, C = (a/t)^power e^log_extra, for
    phi = sum c |x|^e e^{gamma x} and f of ``shape``: the rest of the
    integrand is even, so it is sum 2 c C E_even over :func:`_even_series`
    with the power moments t^(s+1) M(s, m), s = e + kappa; a closed form
    carrying ``warns`` and the series' error."""
    alpha, p, log_norm, t = shape
    log_c = power * log_norm + log_extra

    def log_mean(e):
        log_r = _log_kernel_moment(e + kappa, m, alpha, p, what)
        return log_c + (e + kappa + 1.0) * math.log(t) + log_r

    rate = _tail_rate(alpha, p, m, t)
    parts = [(2.0 * c * s, 2.0 * abs(c) * err)
             for c, s, err in _even_series(w.terms, log_mean, what, rate, kappa + 1.0)]
    total = Value(math.fsum(v for v, _ in parts), math.fsum(err for _, err in parts))
    return _closed(total, {}, warns)


def _powers(terms) -> dict:
    """{E: the sum of the c with exponent E} over ``terms`` (c, E, gamma), no zero sum."""
    out: dict = {}
    for c, e, _ in terms:
        out[e] = out.get(e, 0.0) + c
    return {e: b for e, b in out.items() if b != 0.0}


def _snap(x: float, scale: float) -> float:
    """x, or 0.0 where |x| is within the rounding (16 eps) of a sum of size ``scale``:
    an exponent or an exponent balance that is 0 in the input's decimals."""
    return 0.0 if abs(x) <= 16.0 * _EPS * scale else x


def _not_finite(ends, what: str, variation: bool) -> None:
    """Raise "<what> is not finite" at an end of +inf, or of -inf under a variation."""
    if any(v == math.inf or (variation and v == -math.inf) for v in ends):
        raise DomainError(f"{what} is not finite")


def _monomial(b: float, log_c: float, factors, what: str):
    """(b e^log_c prod x^y, its rounding bound) over the (x, y) ``factors``, x > 0:
    a product of powers, or the exp of its log where a factor overflows or
    underflows on its own."""
    try:
        v = b * math.exp(log_c) * math.prod(x**y for x, y in factors)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v) or v == 0.0:
        v = b * _exp(log_c + sum(y * math.log(x) for x, y in factors), what)
    spread = sum(abs(y) * (4.0 + abs(math.log(x))) for x, y in factors)
    return v, _EPS * abs(v) * (8.0 + abs(log_c) + spread)


def _zero_end(powers: dict, log_c: float, what: str):
    """(value, rounding) of lim_{x -> 0+} C sum b x^E (a kernel factor there is 1):
    the smallest E reads C b at E = 0, 0 above and an infinity of b's sign below
    (0 for no terms)."""
    e, b = min(powers.items(), default=(1.0, 0.0))
    if e == 0.0:
        return _monomial(b, log_c, (), what)
    return (0.0 if e > 0.0 else math.copysign(math.inf, b)), 0.0


def _balance(e: float, shape, m: float, scale: float) -> float:
    """m alpha + (p-1) E, snapped to 0 within the rounding of exponents of size
    ``scale``: u^E k^m decays in a p < 1 tail where it is > 0, grows where < 0."""
    alpha, p = shape[:2]
    return _snap(m * alpha + (p - 1.0) * e, alpha * abs(m) + abs(p - 1.0) * scale)


def _far_end(powers: dict, shape, m: float, edge: float, log_c: float, scale: float, what: str):
    """(value, rounding) of the limit of C sum b x^E k(x/t)^m at the far end of the
    support: nan where the terms cancel against an infinite k^m (undecided)."""
    alpha, p, _, t = shape
    if math.isfinite(edge):
        if m > 0.0 and alpha < math.inf:
            return 0.0, 0.0
        parts = [_monomial(b, log_c, ((edge, e),), what) for e, b in powers.items()]
        s = math.fsum(v for v, _ in parts)
        if m == 0.0 or alpha == math.inf:
            return s, math.fsum(err for _, err in parts)
        return (math.copysign(math.inf, s) if s else math.nan), 0.0
    e, b = max(powers.items())
    decay = _balance(e, shape, m, scale) if p < 1.0 else m if m else -e
    if decay:
        return (0.0 if decay > 0.0 else math.copysign(math.inf, b)), 0.0
    return _monomial(b, log_c, ((t, e), (1.0 - p, -m / (1.0 - p))) if m else (), what)


def _peak(e: float, b: float, shape, m: float, log_c: float, scale: float, what: str):
    """(value, rounding) of C b x^E k(x/t)^m at its interior critical point
    u*^alpha = E / (m alpha + (p-1) E), or None where it has none."""
    alpha, p, _, t = shape
    den = _balance(e, shape, m, scale)
    v = e / den if den != 0.0 else 0.0
    if not (e != 0.0 and m != 0.0 and v > 0.0 and (p <= 1.0 or v * (p - 1.0) < 1.0)):
        return None
    log_k = -v if p == 1.0 else math.log1p((1.0 - p) * v) / (p - 1.0)
    return _monomial(b, log_c + m * log_k, ((t, e), (v, e / alpha)), what)


def _exp_linear_sup(terms, edge: float, log_c: float, what: str, warns) -> Value | None:
    """sup of C sum c |x|^E e^{gamma x} over (-edge, edge) (kernel power 0)."""
    _not_finite([_zero_end(_powers(terms), log_c, what)[0]], what, False)
    if not math.isfinite(edge):
        for side in (-1.0, 1.0):
            key = max((side * g, e) for _, e, g in terms)
            c = math.fsum(c for c, e, g in terms if (side * g, e) == key)
            if c > 0.0 and (key[0] > 0.0 or key[1] > 0.0):
                raise DomainError(f"{what} is not finite")
        return None
    signs = {math.copysign(1.0, g) for _, _, g in terms if g != 0.0}
    if len(signs) != 1 or any(c < 0.0 or e < 0.0 for c, e, _ in terms):
        return None
    (side,) = signs
    parts = [_monomial(c, log_c + g * side * edge, ((edge, e),), what) for c, e, g in terms]
    return Value(math.fsum(v for v, _ in parts), math.fsum(err for _, err in parts), warns)


def _shifted(w, shift: float):
    """The terms (c, e + shift, gamma) of ``w`` with c != 0, an exponent 0 within
    its rounding snapped to 0, and the size of the largest exponent sum."""
    terms = [(c, _snap(e + shift, abs(e) + abs(shift)), g) for c, e, g in w.terms if c != 0.0]
    return terms, max((abs(e) for _, e, _ in w.terms), default=0.0) + abs(shift)


def kernel_extremum(w, f: Density, what: str, power=0.0, score=False, shift=0.0, variation=False):
    """The ess sup, or the total variation, over {f > 0} of
    g = phi |x|^shift f^power, times |f'/f| if ``score``, by the exponent
    rules of the module docstring, as a Value carrying f's warnings; None
    where they do not settle it and a scan must.  An infinite one is a
    DomainError "<what> is not finite".  f's kernel shape is read here and
    the rules are :func:`shape_extremum`'s.
    """
    if w.terms is None:
        return None
    if f.family == "exponential":
        _not_finite([_zero_end(_powers(_shifted(w, shift)[0]), 0.0, what)[0]], what, variation)
        return None
    shape = _gg_shape(w, f)
    if f.family == "generalized-gaussian" and f.params["alpha"] == math.inf:  # k = 1 on u <= 1
        shape = math.inf, f.params["p"], math.log(f.params["a"] / f.params["t"]), f.params["t"]
    if shape is None:
        return None
    return shape_extremum(w, shape, what, f.warnings, power, score, shift, variation)


def shape_extremum(w, shape, what: str, warns=(), power=0.0, score=False, shift=0.0, variation=False):
    """:func:`kernel_extremum` on the density (a/t) k(|x|/t) of ``shape``
    (alpha, p, log(a/t), t), alpha = inf the uniform G on |x| <= t, as a
    Value carrying ``warns``.  The uniform G's |f'| = 0 is left to the scan.
    """
    alpha, p, log_norm, t = shape
    if w.terms is None or (score and alpha == math.inf):
        return None
    terms, scale = _shifted(w, shift)
    log_c = power * log_norm
    if alpha == math.inf:
        m, edge = 0.0, t
    else:
        m = _snap(power + (1.0 - p if score else 0.0), abs(power) + abs(1.0 - p))
        edge = t * (p - 1.0) ** (-1.0 / alpha) if p > 1.0 else math.inf
        if score:
            scale += alpha + 1.0
            terms = [(c, _snap(e + alpha - 1.0, scale), g) for c, e, g in terms]
            log_c += math.log(alpha) - alpha * math.log(t)
    if any(g != 0.0 for _, _, g in terms):
        return None if m != 0.0 or variation else _exp_linear_sup(terms, edge, log_c, what, warns)
    powers = _powers(terms)
    if not powers:
        return Value(0.0, 0.0, warns)
    first = _zero_end(powers, log_c, what)
    last = _far_end(powers, shape, m, edge, log_c, scale, what)
    _not_finite([first[0], last[0]], what, variation)
    only = next(iter(powers.items())) if len(powers) == 1 else None
    peak = only and _peak(*only, shape, m, log_c, scale, what)
    monotone = m == 0.0 and all(b >= 0.0 and e >= 0.0 for e, b in powers.items())
    if math.isnan(last[0]) or not (only or monotone):
        return None
    points = [first, *([peak] if peak else []), last]
    vals = [v for v, _ in points]
    err = math.fsum(e for _, e in points)
    if not variation:
        best = max(points)
        return Value(best[0], best[1], warns)
    steps = math.fsum(abs(b - a) for a, b in zip(vals, vals[1:]))
    jump = abs(vals[-1]) if math.isfinite(edge) else 0.0
    return Value(2.0 * (steps + jump), 4.0 * err, warns)


def _weight_mean(f: Density, w, what: str) -> MeasureValue:
    """E_f[phi] (``what``): the closed form of the module docstring, else a quadrature."""
    if rates := _exponential_rates(w, f):
        return _gamma_integral(w, 0.0, rates[0], rates[0], what, "lam-gamma", f.warnings)
    if shape := _gg_shape(w, f):
        return _beta_integral(w, shape, 0.0, 1.0, what, f.warnings)
    v = integral(f, lambda x, fx: np.asarray(w(x), dtype=float) * fx, what, w)
    return MeasureValue(v.value, v.error, v.warnings, v.parts, "quadrature", {})


# ---------------------------------------------------------------------------
# Elementary families
# ---------------------------------------------------------------------------


def make_exponential(lam: float) -> Density:
    """Exp(lam): pdf lam * exp(-lam x) on (0, inf)."""
    lam = _finite("exponential rate", lam)
    if not lam > 0:
        raise InputError(f"exponential rate must be positive, got {lam}")
    # Both branches of np.where are evaluated: clipping x at 0 keeps
    # exp(-lam x) from overflowing on the far left, where the value is 0.
    pdf = _vec(lambda x: np.where(x > 0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0))
    dpdf = _vec(lambda x: np.where(x > 0, -lam * lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0))
    cdf_fn = _vec(lambda x: np.where(x > 0, -np.expm1(-lam * np.maximum(x, 0.0)), 0.0))
    quant = _vec(lambda q: -np.log1p(-q) / lam)
    return Density(
        family="exponential",
        params={"lam": lam},
        support=(0.0, math.inf),
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=cdf_fn,
        quantile_fn=quant,
        singularities=(),
    )


def make_laplace(b: float = 1.0) -> Density:
    """Laplace(b): pdf exp(-|x|/b) / (2b); kink at 0."""
    b = _finite("laplace scale", b)
    if not b > 0:
        raise InputError(f"laplace scale must be positive, got {b}")
    pdf = _vec(lambda x: np.exp(-np.abs(x) / b) / (2 * b))
    dpdf = _vec(lambda x: -np.sign(x) * np.exp(-np.abs(x) / b) / (2 * b * b))

    def _cdf(x):
        # np.where evaluates both branches, so exp(x/b) and exp(-x/b)
        # would overflow on the side it discards; exp(-|x|/b) never does.
        h = 0.5 * np.exp(-np.abs(x) / b)
        return np.where(x < 0, h, 1.0 - h)

    quant = _vec(
        lambda q: np.where(q < 0.5, b * np.log(2 * q), -b * np.log(2 * (1 - q)))
    )
    return Density(
        family="laplace",
        params={"b": b},
        support=(-math.inf, math.inf),
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=_vec(_cdf),
        quantile_fn=quant,
        singularities=(0.0,),
    )


def make_tent() -> Density:
    """Tent density (1 - |x|)_+ on (-1, 1); kinks at -1, 0, 1."""
    pdf = _vec(lambda x: np.maximum(1.0 - np.abs(x), 0.0))
    dpdf = _vec(lambda x: np.where(np.abs(x) < 1, -np.sign(x), 0.0))

    def _cdf(x):
        x = np.clip(x, -1.0, 1.0)
        return np.where(
            x < 0, 0.5 * (1.0 + x) ** 2, 1.0 - 0.5 * (1.0 - x) ** 2
        )

    def _quant(q):
        return np.where(
            q < 0.5, np.sqrt(2 * q) - 1.0, 1.0 - np.sqrt(2 * (1 - q))
        )

    return Density(
        family="tent",
        params={},
        support=(-1.0, 1.0),
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=_vec(_cdf),
        quantile_fn=_vec(_quant),
        singularities=(0.0,),
    )


# ---------------------------------------------------------------------------
# Generalized p-Gaussian
# ---------------------------------------------------------------------------


def gg_norm_const(alpha: float, p: float) -> float:
    """Normalization constant a of the unit-scale generalized p-Gaussian; an a
    that is not a positive double (0 at gg:1e-5,1.5) is a DomainError."""
    if alpha == 0.0:
        if not p > 1:
            raise InputError("alpha = 0 requires p > 1")
        return 1.0 / (2.0 * gamma_fn(p / (p - 1.0)))
    if alpha == math.inf:
        if not p > 0:
            raise InputError("alpha = inf requires p > 0")
        return 0.5
    if not alpha > 0:
        raise InputError(f"moment order alpha must be >= 0, got {alpha}")
    if not p > 1.0 - alpha:
        raise InputError(f"require p > 1 - alpha, got p={p}, alpha={alpha}")
    try:
        if p == 1:
            a = alpha / (2.0 * gamma_fn(1.0 / alpha))
        else:
            second = p / (p - 1.0) if p > 1 else 1.0 / (1.0 - p) - 1.0 / alpha
            a = alpha * abs(p - 1.0) ** (1.0 / alpha) / (2.0 * beta_fn(1.0 / alpha, second))
    except OverflowError:  # a power or B(., .) past the largest double
        a = math.nan
    if not 0.0 < a < math.inf:
        raise DomainError(f"G's normalization constant a = {a!r} is not a positive double")
    return a


def make_generalized_gaussian(alpha: float, p: float, t: float = 1.0) -> Density:
    """Generalized p-Gaussian of moment order alpha at scale t.

    Every branch but alpha = inf gives its pdf, its derivative and the
    pair of the module docstring: H(u) (``half_mass``), half the mass of
    [-t u, t u], and R(r) (``radius``), the u at which that interval
    holds mass r.  One symmetric wrapper turns them into the CDF
    1/2 +- H(|x/t|) (+ for x >= 0) and the quantile
    sign(q - 1/2) t R(|2q - 1|).  At alpha = inf, G_t is uniform on
    [-t, t] with a linear CDF and quantile.

    H and R import their incomplete Gamma/Beta function when called:
    scipy.special costs more to import than numpy, and only a CDF or
    quantile of G needs it.
    """
    alpha, p, t = float(alpha), _finite("generalized-gaussian order p", p), _finite("scale", t)
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    a = gg_norm_const(alpha, p)
    support = (-math.inf, math.inf)

    if alpha == math.inf:
        support = (-t, t)
        val = 0.5 / t
        pdf = lambda x: np.where(np.abs(x) <= t, val, 0.0)
        dpdf = np.zeros_like
        cdf_fn = lambda x: np.clip((x + t) / (2 * t), 0.0, 1.0)
        quant = lambda q: t * (2 * q - 1.0)

    elif alpha == 0.0:
        # pdf positive on 0 < |x| < t, unbounded at x = 0.
        support = (-t, t)
        e = 1.0 / (p - 1.0)

        def pdf(x):
            u = np.abs(x) / t
            out = np.zeros_like(u)
            inside = (u < 1.0) & (u > 0.0)
            out[inside] = (a / t) * (-np.log(u[inside])) ** e
            return out

        def dpdf(x):
            u = x / t
            au = np.abs(u)
            out = np.zeros_like(au)
            inside = (au < 1.0) & (au > 0.0)
            ui = u[inside]
            out[inside] = -(a / t**2) * e * (-np.log(np.abs(ui))) ** (e - 1.0) / ui
            return out

        shape = p / (p - 1.0)

        def half_mass(u):
            from scipy.special import gammaincc

            u = np.clip(u, 0.0, 1.0)
            half = np.zeros_like(u)
            pos = u > 0
            half[pos] = 0.5 * gammaincc(shape, -np.log(u[pos]))
            return half

        def radius(r):
            from scipy.special import gammainccinv

            return np.where(
                r >= 1.0, 1.0, np.exp(-gammainccinv(shape, np.minimum(r, 1.0)))
            )

    elif p == 1.0:

        def pdf(x):
            return (a / t) * np.exp(-np.abs(x / t) ** alpha)

        def dpdf(x):
            u = x / t
            au = np.abs(u)
            with np.errstate(divide="ignore", invalid="ignore"):
                grad = np.where(
                    au > 0, alpha * au ** (alpha - 1.0) * np.sign(u), 0.0
                )
            return -(a / t**2) * grad * np.exp(-(au**alpha))

        inv_alpha = 1.0 / alpha

        def half_mass(u):
            from scipy.special import gammainc

            return 0.5 * gammainc(inv_alpha, u**alpha)

        def radius(r):
            from scipy.special import gammaincinv

            return gammaincinv(inv_alpha, np.minimum(r, 1.0)) ** (1.0 / alpha)

    else:
        e = 1.0 / (p - 1.0)

        def pdf(x):
            u = np.abs(x / t) ** alpha
            base = 1.0 + (1.0 - p) * u
            out = np.zeros_like(base)
            inside = base > 0
            out[inside] = (a / t) * base[inside] ** e
            return out

        def dpdf(x):
            u = x / t
            au = np.abs(u)
            base = 1.0 + (1.0 - p) * au**alpha
            out = np.zeros_like(base)
            inside = (base > 0) & (au > 0)
            out[inside] = (
                -(a / t**2)
                * alpha
                * au[inside] ** (alpha - 1.0)
                * np.sign(u[inside])
                * base[inside] ** (e - 1.0)
            )
            return out

        if p > 1:
            kappa = t * (p - 1.0) ** (-1.0 / alpha)
            support = (-kappa, kappa)
            sh1, sh2 = 1.0 / alpha, p / (p - 1.0)

            def half_mass(u):
                from scipy.special import betainc

                return 0.5 * betainc(sh1, sh2, np.clip((p - 1.0) * u**alpha, 0.0, 1.0))

            def radius(r):
                from scipy.special import betaincinv

                u = betaincinv(sh1, sh2, np.minimum(r, 1.0))
                return (u / (p - 1.0)) ** (1.0 / alpha)

        else:
            sh1, sh2 = 1.0 / (1.0 - p) - 1.0 / alpha, 1.0 / alpha

            def half_mass(u):
                from scipy.special import betainc

                v = 1.0 / (1.0 + (1.0 - p) * u**alpha)
                return 0.5 * (1.0 - betainc(sh1, sh2, v))

            def radius(r):
                from scipy.special import betaincinv

                v = betaincinv(sh1, sh2, 1.0 - r)
                # v = 0 only where r >= 1, an element np.where sets to inf.
                with np.errstate(divide="ignore"):
                    u = np.where(r >= 1.0, math.inf, (1.0 / v - 1.0) / (1.0 - p))
                return u ** (1.0 / alpha)

    if alpha != math.inf:

        def cdf_fn(x):
            half = half_mass(np.abs(x / t))
            return np.where(x >= 0, 0.5 + half, 0.5 - half)

        def quant(q):
            return np.sign(q - 0.5) * t * radius(np.abs(2 * q - 1.0))

        # The density of log|X| peaks at |x| = t u*, u* = (alpha + p - 1)^(-1/alpha)
        # (e^(-1/(p-1)) at alpha = 0).  A quadrature reads G's mass only if t u* lies
        # within 1e+-15 of 1 on the whole line (exp-sinh's nodes span 1e+-25) and of
        # the support's edge t (p - 1)^(-1/alpha) on a bounded one (tanh-sinh is affine).
        log_u = -1.0 / (p - 1.0) if alpha == 0.0 else -math.log(alpha + p - 1.0) / alpha
        log_ref = -math.log(t) if p <= 1.0 else 0.0 if alpha == 0.0 else -math.log(p - 1.0) / alpha
        at = (log_u - log_ref) / math.log(10.0)
        if not abs(at) <= _REACH:
            edge = "" if p <= 1.0 else " times its support's edge"
            raise DomainError(f"G's mass sits near |x| = 1e{at:+.0f}{edge}, beyond quadrature")

    return Density(
        "generalized-gaussian",
        {"alpha": alpha, "p": p, "a": a, "t": t},
        support,
        _vec(pdf),
        _vec(dpdf),
        _vec(cdf_fn),
        _vec(quant),
        (0.0,) if alpha < 2.0 else (),
    )


# ---------------------------------------------------------------------------
# Derived densities
# ---------------------------------------------------------------------------


def scale_density(f: Density, t: float) -> Density:
    """The density of t*X when X ~ f: pdf f(x/t)/t."""
    t = _finite("scale", t)
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    lo, hi = f.support
    pdf = _vec(lambda x: f.pdf(np.asarray(x) / t) / t)
    dpdf = _vec(lambda x: f.dpdf(np.asarray(x) / t) / t**2)
    cdf_fn = _vec(lambda x: f.cdf_fn(np.asarray(x) / t))
    quant = _vec(lambda q: t * f.quantile_fn(np.asarray(q)))
    return Density(
        family="scaled",
        params={"t": t, "base": f},
        support=(lo * t, hi * t),
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=cdf_fn,
        quantile_fn=quant,
        singularities=tuple(s * t for s in f.singularities),
        kinks=tuple(k * t for k in f.kinks),
    )


def make_weighted_density(f: Density, weight) -> Density:
    """Reweighted density phi*f/chi with chi = E_f[phi] (:func:`_weight_mean`).

    Its mass is 1 by construction, so it is not integrated again; the
    density carries the warnings of chi, which carries those of f.  Its
    CDF and quantile come from one :class:`_ResolvedCdf`, built on their
    first use; the partition's mass must be 1 to 1e-8 plus the relative
    error of chi.
    """
    norm = _weight_mean(f, weight, "weight normalizer E_f[phi]")
    chi = norm.value
    if not chi > 0:
        raise DomainError(f"weight normalizer E_f[phi] = {chi!r} is unusable")

    # Evaluate the weight only where the base density is positive so
    # that weights which overflow on the dead tail stay harmless.
    def core(x, fx):
        return np.asarray(weight(x), dtype=float) * fx / chi

    pdf = _vec(_masked(f, core))
    dpdf = _vec(
        _masked(
            f,
            lambda x, fx: (
                np.asarray(weight.derivative(x), dtype=float) * fx
                + np.asarray(weight(x), dtype=float) * np.asarray(f.dpdf(x), dtype=float)
            )
            / chi,
        )
    )

    def normal_pdf(x):
        # The pdf where the base value is a normal float, else 0: the CDF
        # integrates this, so that no weight lifts a subnormal base value,
        # which holds fewer than 53 bits, into the normal range as noise.
        fx = np.asarray(f.pdf(x), dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.where(fx >= _TINY, core(x, fx), 0.0)

    singularities = tuple(sorted(set(f.singularities) | set(weight.kinks)))
    what = f"the {weight.family}-weighted {f.family} density"
    mass_tol = 1e-8 + norm.error / chi
    resolved = _ResolvedCdf(normal_pdf, f.support, singularities, f.kinks, what, mass_tol)
    return Density(
        family="weighted",
        params={"base": f, "weight": weight, "chi": chi},
        support=f.support,
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=_vec(resolved.cdf),
        quantile_fn=_vec(resolved.quantile),
        singularities=singularities,
        warnings=norm.warnings,
        kinks=f.kinks,
    )


def make_tabulated(xs, ys) -> Density:
    """Piecewise-linear density through (xs, ys >= 0), renormalized.

    Its derivative jumps at every node: the interior nodes with y > 0
    are kinks, where quadrature only splits, and the nodes with y = 0
    are singularities, since a negative power of f is unbounded there.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise InputError("tabulated grid must be strictly increasing, size >= 2")
    if np.any(ys < 0) or not np.all(np.isfinite(ys)):
        raise InputError("tabulated values must be finite and nonnegative")
    mass = float(np.trapezoid(ys, xs))
    if not mass > 0:
        raise DomainError("tabulated density has zero mass")
    ys = ys / mass
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))]
    )
    cum = cum / cum[-1]
    slopes = np.diff(ys) / np.diff(xs)

    def _pdf(x):
        return np.interp(x, xs, ys, left=0.0, right=0.0)

    def _dpdf(x):
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, slopes.size - 1)
        out = slopes[idx]
        return np.where((x <= xs[0]) | (x >= xs[-1]), 0.0, out)

    def _cdf(x):
        x = np.clip(x, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        dx = x - xs[idx]
        return cum[idx] + ys[idx] * dx + 0.5 * slopes[idx] * dx * dx

    def _quant(q):
        # The cell with cum[i] <= q < cum[i + 1] has mass; its quadratic
        # 0.5 s dx^2 + y dx = r has the stable root 2r / (y + sqrt(y^2 + 2sr)).
        i = np.clip(np.searchsorted(cum, q, side="right") - 1, 0, xs.size - 2)
        r = q - cum[i]
        y, sl = ys[i], slopes[i]
        root = np.sqrt(np.maximum(y * y + 2.0 * sl * r, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(r > 0, 2.0 * r / (y + root), 0.0)
        return np.clip(xs[i] + dx, xs[i], xs[i + 1])

    # Renormalization by the trapezoid mass is exact for the piecewise
    # linear interpolant, so no quadrature-based check is needed here.
    return Density(
        family="tabulated",
        params={"n": int(xs.size)},
        support=(float(xs[0]), float(xs[-1])),
        pdf=_vec(_pdf),
        dpdf=_vec(_dpdf),
        cdf_fn=_vec(_cdf),
        quantile_fn=_vec(_quant),
        singularities=tuple(xs[ys == 0].tolist()),
        kinks=tuple(xs[1:-1][ys[1:-1] > 0].tolist()),
    )


# ---------------------------------------------------------------------------
# CDF / quantile front ends
# ---------------------------------------------------------------------------


def on_support(x, support, below, above, interior):
    """Evaluate ``interior`` on the points of ``x`` strictly inside ``support``.

    Points at or below the lower end take the value ``below``, points at
    or above the upper end take ``above``; ``interior`` maps a 1-d array
    of the remaining points to an array of values.  A scalar in gives a
    float out; an array gives an ndarray of its shape.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    lo, hi = support
    low = flat <= lo
    inside = ~(low | (flat >= hi))
    out = np.where(low, below, above)
    if inside.any():
        out[inside] = interior(flat[inside])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def cdf(f: Density, x):
    """F_f(x): the family's ``cdf_fn`` on the points inside the support.

    ``x`` may be a scalar or an array: a scalar gives a float, an array an
    ndarray of its shape.  Points at or below the lower end of the
    support give 0, points at or above the upper end give 1, and every
    other value is clipped to [0, 1].  A value depends on its point only,
    not on the batch it comes in.
    """

    def interior(xs):
        return np.minimum(np.maximum(f.cdf_fn(xs), 0.0), 1.0)

    return on_support(x, f.support, 0.0, 1.0, interior)


def quantile(f: Density, q):
    """F_f^{-1}(q) for levels q in (0, 1), by the family's ``quantile_fn``.

    A scalar gives a float, an array an ndarray of its shape.  A level
    outside (0, 1) is an :class:`InputError`.
    """
    arr = np.asarray(q, dtype=float)
    levels = arr.ravel()
    bad = ~((levels > 0.0) & (levels < 1.0))
    if bad.any():
        shown = q if arr.ndim == 0 else levels[bad][0]
        raise InputError(f"quantile level must be in (0,1), got {shown}")
    out = np.asarray(f.quantile_fn(levels), dtype=float)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# Relative accuracy of a resolved partition (the kernel's default
# rel_tol): |K15 - G7| of a GK15 leaf against F at its upper end, the
# level-4 trapezoid against level 3 on a DE piece.  Both estimates are
# far above the error of the finer rule (|K15 - G7| = 2e-9 of e^-x on
# [0, 6], where K15 is exact to 1e-16).
_CDF_REL = DEFAULT_CONFIG.rel_tol
# Absolute accuracy of F below _CDF_FLOOR / _CDF_REL (about 1e-284), where
# a relative accuracy would ask for digits that a pdf whose weight lifts a
# subnormal base value (cut to 0, :func:`make_weighted_density`) does not hold.
_CDF_FLOOR = _TINY / _EPS
# Width of the tanh-sinh piece at a singular end, as a fraction of its piece.
_SLIVER = 2.0**-10
# The fixed DE rules of a singular sliver and of a tail: levels 0-4.
_CDF_LEVEL = 4
_TS_RULE = _de_rule(_TANH_SINH, _CDF_LEVEL)
_ES_RULE = _de_rule(_EXP_SINH, _CDF_LEVEL)
# Grading of a piece toward a singular end: its sliver times 1, 2, ..., 256.
_GRADE = tuple(2.0**g for g in range(9))
# Offsets of the panel edges grown outward from the last break of an
# infinite side: 1, 3, 7, ..., 2^64 - 1 (1.8e19).
_OUTWARD = 2.0 ** np.arange(1, 65) - 1.0
# Rule of a piece: GK15 or tanh-sinh on [a, x], exp-sinh on (-inf, x] or [x, inf).
_GK, _TS, _LOW, _HIGH = range(4)
# The GK15 nodes of [0, 2], so a + d * _XGK_UNIT are those of [a, a + 2d].
_XGK_UNIT = 1.0 + _XGK


def _rule(kind: int, a, x):
    """Nodes (a row per piece), the scale of each row, and the unit weights
    of rule ``kind`` and of its coarser rule (G7, DE level 3) on the
    pieces: GK15 or tanh-sinh on [a_i, x_i], exp-sinh on (-inf, x_i] or
    [x_i, inf)."""
    a, x = a[:, None], x[:, None]
    if kind == _GK:
        d = 0.5 * (x - a)
        return a + d * _XGK_UNIT, d, _WGK, _WG15
    if kind == _TS:
        (pos, delta), w, coarse = _TS_RULE
        d = 0.5 * (x - a)
        nodes = np.where(pos, x - d * delta, a + d * delta)
        nodes = np.minimum(np.maximum(nodes, np.nextafter(a, x)), np.nextafter(x, a))
        return nodes, d, w, coarse
    (r,), w, coarse = _ES_RULE
    return (x - r if kind == _LOW else x + r), np.ones_like(x), w, coarse


def _rule_values(pdf, a, x, kind, extra=()):
    """The pdf on the nodes of every piece (:func:`_rule`) and at the
    points ``extra``, from one pdf call: ([(rows, values, scale, weights,
    coarser weights)] per rule, pdf(extra)).

    A non-finite value at a node whose weight is below 1e-280 (deep in a
    singular end or a far tail) reads 0, as in ``_double_exponential``;
    any other is an EvaluationError.
    """
    present = np.bincount(kind, minlength=4)
    if present.max() == kind.size:  # one rule for every piece
        groups = [(slice(None), *_rule(int(present.argmax()), a, x))]
    else:
        groups = []
        for k in np.nonzero(present)[0].tolist():
            sel = np.nonzero(kind == k)[0]
            groups.append((sel, *_rule(k, a[sel], x[sel])))
    points = [nodes.ravel() for _, nodes, _, _, _ in groups] + [np.asarray(extra, dtype=float)]
    y = np.asarray(pdf(np.concatenate(points)), dtype=float)
    finite = np.isfinite(y).all()
    out, start = [], 0
    for sel, nodes, d, w, cw in groups:
        yk = y[start : start + nodes.size].reshape(nodes.shape)
        start += nodes.size
        if not finite and not (good := np.isfinite(yk)).all():
            if np.any(np.abs(d * w)[~good] > 1e-280):
                near = float(x[sel][~good.all(axis=1)][0])
                raise EvaluationError(f"pdf not finite in a CDF piece near x = {near}")
            yk = np.where(good, yk, 0.0)
        out.append((sel, yk, d[:, 0], w, cw))
    return out, y[start:]


def _running_sum(x):
    """Prefix sums of ``x``, each compensated for the rounding of every
    step (the error of each step by TwoSum, Knuth, TAOCP vol. 2, 4.2.2),
    so a prefix of positive terms is about as accurate as ``math.fsum``."""
    s = np.cumsum(x)
    prev = np.concatenate([[0.0], s[:-1]])
    back = s - prev
    err = (prev - (s - back)) + (x - back)
    return s + np.cumsum(err)


@dataclass(frozen=True)
class _Partition:
    """The leaves [edges_k, edges_k+1] of a resolved partition, the rule of
    each (``_GK`` or ``_TS``), F at every edge, the tail masses beyond the
    first and last edge and the total mass.

    ``lookup`` holds, per piece j = k + 1 for x in leaf k (j = 0 below the
    first edge, j = n + 1 above the last): the lower end of its rule (-inf
    on a tail), the rule, F below the piece, F at its upper end, the sign
    of its integral and whether it holds nothing to integrate.
    """

    edges: np.ndarray
    kinds: np.ndarray
    levels: np.ndarray
    tails: tuple[float, float]
    total: float

    lookup: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, (low, high) = self.kinds.size, self.tails
        object.__setattr__(self, "lookup", (
            np.concatenate([[-math.inf], self.edges[:-1], [-math.inf]]),
            np.concatenate([[_LOW], self.kinds, [_HIGH]]),
            np.concatenate([[0.0], self.levels[:-1], [self.total]]),
            np.concatenate([self.levels, [self.total]]),
            np.concatenate([[1.0], np.ones(n), [-1.0]]),
            # A lower tail whose mass is 0, or an upper tail whose mass is
            # below a quarter ulp of 1, which F near 1 cannot show.
            np.concatenate([[low == 0.0], np.zeros(n, bool), [high < _EPS / 4.0]]),
        ))


class _ResolvedCdf:
    """F and F^{-1} of a density without a closed-form CDF, from one
    partition of its support built on first use and then kept.

    The partition splits the support at its singularities, kinks and
    finite ends (and at 0 on a whole line with none of them), then grows
    panels outward on an infinite side (:meth:`_edges`), with one
    exp-sinh tail mass beyond the last.  A piece next to a singular point
    or a finite end keeps its outer 2^-10 as a sliver integrated by the
    fixed level-4 tanh-sinh rule.  Every other panel is bisected by GK15
    until each leaf is within ``_CDF_REL`` of F at its upper end
    (:func:`~wrenyi.numerics._gk15_leaves`): relative to the leaf's own
    level in the lower tail, so a deep lower-tail level is as accurate as
    one in the bulk.  The masses are summed from the lower end with a
    compensated running sum, so F at each edge is a sum of positive
    masses accurate to a few ulps.

    F(x) is then F at the lower edge of x's leaf plus int_{a_k}^x pdf by
    the leaf's fixed rule (GK15, or tanh-sinh on a sliver); beyond the
    first edge it is the exp-sinh tail from x, beyond the last edge the
    total less the exp-sinh tail from x (0 and the total where the tail
    mass is 0 or below a quarter ulp of 1).  Every point of a batch goes
    into one pdf call and no value depends on the batch.  F^{-1}(q) is a
    safeguarded Newton iteration on that F, with the pdf as its
    derivative, inside the leaf whose edge levels bracket q.

    A partition that misses its tolerance (an unresolved leaf, a DE piece
    whose levels 3 and 4 disagree, a total mass more than ``mass_tol``
    from 1) is a DomainError naming ``what``.  Two threads that read F
    first at once may both build it; the builds are equal.
    """

    def __init__(self, pdf, support, singular, kinks, what: str, mass_tol: float):
        self.pdf, self.support, self.what, self.mass_tol = pdf, support, what, mass_tol
        self.singular, self.kinks = tuple(singular), tuple(kinks)
        self._partition = None

    def _failed(self, why: str) -> DomainError:
        return DomainError(f"the CDF of {self.what} cannot be built: {why}")

    def _built(self) -> _Partition:
        part = self._partition
        if part is None:
            part = self._partition = self._build()
        return part

    def _build(self) -> _Partition:
        lo, hi = self.support
        sing = {float(s) for s in self.singular if lo <= s <= hi}
        sing |= {e for e in (lo, hi) if math.isfinite(e)}
        if not sing and not any(lo < k < hi for k in self.kinks):
            sing = {0.0}  # a whole line with no break: start from 0
        breaks = sorted(sing | {float(k) for k in self.kinks if lo < k < hi})
        edges, at = self._edges(breaks)
        a, b = edges[:-1], edges[1:]
        cut = _SLIVER * (b - a)
        points = np.array(sorted(sing))
        left, right = (a[:, None] == points).any(axis=1), (b[:, None] == points).any(axis=1)
        s_lo = np.concatenate([a[left], (b - cut)[right]])
        s_hi = np.concatenate([(a + cut)[left], b[right]])
        # A piece with a singular end is graded toward it, from its sliver
        # to a quarter of the piece, in panels doubling in width.  A panel
        # over which the pdf falls by e^W while it holds a share of F (not
        # in an upper tail, where F is near 1 and the tolerance absolute)
        # starts as about W/6 equal panels: one GK15 panel resolves a fall
        # of e^6 to 2e-9 of its own mass.  So the bisection needs few
        # rounds.  The masses here are rough (the larger end value times
        # the width), and the pdf at a singular end may be 0 or infinite.
        fa, fb = np.maximum(at[:-1], _TINY), np.maximum(at[1:], _TINY)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            rough = np.maximum(fa, fb) * (b - a)
            share = rough > np.maximum(_CDF_REL * np.cumsum(rough), _CDF_FLOOR)
            plain = share & ~left & ~right & np.isfinite(fa * fb)
            n = np.where(plain, np.minimum(np.abs(np.log(fa / fb)) / 6.0, 255), 0.0).astype(int) + 1
        starts, ends = [], []
        pieces = (arr.tolist() for arr in (a, b, cut, left, right, n))
        for ak, bk, ck, lk, rk, nk in zip(*pieces):  # a few dozen
            cuts = {ak + ck if lk else ak, bk - ck if rk else bk}
            cuts.update([ak + ck * g for g in _GRADE] if lk else ())
            cuts.update([bk - ck * g for g in _GRADE] if rk else ())
            width = (bk - ak) / nk
            cuts.update([ak + width * i for i in range(1, nk)])
            cuts = sorted(cuts)
            starts += cuts[:-1]
            ends += cuts[1:]
        starts, ends = np.array(starts), np.array(ends)
        # The first GK15 round, the slivers and both tails, in one pdf call.
        m = starts.size
        pa = np.concatenate([starts, s_lo, edges[[0, -1]]])
        px = np.concatenate([ends, s_hi, edges[[0, -1]]])
        kind = np.concatenate([np.full(m, _GK), np.full(s_lo.size, _TS), [_LOW, _HIGH]])
        fine, coarse = np.empty(pa.size), np.empty(pa.size)
        for sel, y, d, w, cw in _rule_values(self.pdf, pa, px, kind)[0]:
            fine[sel], coarse[sel] = d * (y @ w), d * (y @ cw)
        de, de_fine = slice(m, None), fine[m:]
        de_fine[-2:] = coarse[-2:] = [
            de_fine[-2] if math.isinf(lo) else 0.0,
            de_fine[-1] if math.isinf(hi) else 0.0,
        ]
        de_tol = np.maximum(_CDF_REL * np.abs(de_fine), _CDF_FLOOR)
        if np.any(np.abs(de_fine - coarse[de]) > de_tol):
            raise self._failed("a tanh-sinh or exp-sinh piece is not resolved to its tolerance")
        tails = (float(de_fine[-2]), float(de_fine[-1]))
        # A leaf is held to _CDF_REL of F at its upper end, estimated from
        # the leaves below it: relative in the lower tail, absolute near 1.
        leaves = _gk15_leaves(
            self.pdf,
            starts,
            ends,
            lambda v: np.maximum(_CDF_REL * (tails[0] + np.cumsum(v)), _CDF_FLOOR),
            first=(fine[:m], np.abs(fine[:m] - coarse[:m])),
        )
        if leaves is None:
            raise self._failed("a GK15 panel is not resolved to its tolerance")
        lows = np.concatenate([leaves[0], s_lo])
        order = np.argsort(lows, kind="stable")
        masses = np.concatenate([leaves[2], de_fine[:-2]])[order]
        kinds = np.concatenate([np.full(leaves[0].size, _GK), np.full(s_lo.size, _TS)])[order]
        levels = _running_sum(np.concatenate([[tails[0]], masses, [tails[1]]]))
        total = float(levels[-1])
        if not abs(total - 1.0) <= self.mass_tol:
            raise self._failed(f"its pieces hold mass {total!r}, not 1")
        return _Partition(np.append(lows[order], edges[-1]), kinds, levels[:-1], tails, total)

    def _edges(self, breaks):
        """The breaks and the panel edges grown outward from them on each
        infinite side, in order, with the pdf at each edge.

        A side's edges are the last break +- (2^k - 1) up to the first
        where the pdf is 0, or up to 2^64 - 1; on the upper side, where F
        is held to absolute accuracy, also up to the first where the pdf
        times the last panel's width is below 1e-20.  On the lower side,
        where a leaf is held to relative accuracy, a zero is moved in toward
        the first zero beyond the edge before it (a zoom of 255 points a
        step) until the pdf just inside it times the bracket is below
        ``_CDF_FLOOR``: a weight that lifts the pdf where its base
        underflows leaves a jump to 0 there, and a leaf across a larger
        jump could not be resolved to its tolerance.
        """
        lo, hi = self.support
        sides = [-1.0] * math.isinf(lo) + [1.0] * math.isinf(hi)
        grown = [(breaks[0] if sign < 0 else breaks[-1]) + sign * _OUTWARD for sign in sides]
        y = np.asarray(self.pdf(np.concatenate([breaks, *grown])), dtype=float)
        stops = np.cumsum([len(breaks)] + [_OUTWARD.size] * len(sides)).tolist()
        at = [y[: stops[0]]] + [y[i:j] for i, j in zip(stops[:-1], stops[1:])]
        for i, sign in enumerate(sides):
            end = at[i + 1] == 0.0
            if sign > 0:
                end |= at[i + 1] * np.diff(grown[i], prepend=breaks[-1]) <= 1e-20
            if end.any():
                k = int(np.argmax(end))
                grown[i], at[i + 1] = grown[i][: k + 1], at[i + 1][: k + 1]
        if math.isinf(lo) and at[1][-1] == 0.0:
            inner = grown[0][-2] if grown[0].size > 1 else breaks[0]
            outer, t = grown[0][-1], np.arange(1, 256) / 256.0
            while abs(outer - inner) > 4.0 * np.spacing(abs(outer)):
                x = inner + (outer - inner) * t
                fx = np.asarray(self.pdf(x), dtype=float)
                zero = fx == 0.0
                j = int(np.argmax(zero)) if zero.any() else t.size
                inner = float(x[j - 1]) if j else inner
                outer = float(x[j]) if j < t.size else outer
                if not (fx[j - 1] if j else math.inf) * abs(outer - inner) > _CDF_FLOOR:
                    break
            grown[0][-1] = outer
        if math.isinf(lo):
            return (np.concatenate([grown[0][::-1], breaks, *grown[1:]]),
                    np.concatenate([at[1][::-1], at[0], *at[2:]]))
        return np.concatenate([breaks, *grown]), np.concatenate(at)

    def _evaluate(self, part: _Partition, x, k, with_pdf: bool = False):
        """(F(x), pdf(x) if ``with_pdf``) with x in leaf k, or beyond the first
        (k = -1) or last (k = n) edge, from one pdf call."""
        starts, rules, below, caps, signs, empty = part.lookup
        j = k + 1
        a = starts[j]
        # A piece with nothing to integrate: x at its leaf's lower edge or
        # an empty tail (``_Partition.lookup``).
        live = np.nonzero(~(empty[j] | (x <= a)))[0]
        jl = j[live]
        groups, fx = _rule_values(self.pdf, a[live], x[live], rules[jl], x if with_pdf else ())
        sums = np.empty(live.size)
        for sel, y, d, w, _ in groups:
            # Each row on its own (BLAS may change the order of a sum with
            # the number of rows), so a point's F does not depend on its batch.
            sums[sel] = d * (y * w).sum(axis=1)
        out = below[j]
        out[live] += signs[jl] * sums
        # F below x's leaf's upper level: the rule on [a_k, x] may round a
        # last bit past it, and F near 1 holds few bits, so F stays monotone
        # across leaves.
        return np.minimum(out, caps[j]), (fx if with_pdf else None)

    def cdf(self, xs):
        part = self._built()
        k = np.searchsorted(part.edges, xs, side="right") - 1
        return self._evaluate(part, xs, k)[0]

    def quantile(self, qs):
        part = self._built()
        n = part.kinds.size
        k = np.searchsorted(part.levels, qs, side="right") - 1
        # A level past the pieces' mass sits at the outermost edge where the
        # tail beyond it is below a quarter ulp of 1 (a total that rounds
        # below q).
        past = (k >= n) & (qs > part.levels[-1])
        if np.any((k < 0) | (past & (part.tails[1] >= _EPS / 4.0))):
            raise self._failed("a quantile level lies in a tail beyond its panels")
        x = np.where(past, part.edges[-1], 0.0)
        idx = np.nonzero(~past)[0]
        kk = np.minimum(k[idx], n - 1)
        q = qs[idx]
        a, b = part.edges[kk], part.edges[kk + 1]
        fa, fb = part.levels[kk], part.levels[kk + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(np.nan_to_num((q - fa) / (fb - fa)), 0.0, 1.0)
        xi = a + t * (b - a)
        for _ in range(100):
            if idx.size == 0:
                return x
            fx, dens = self._evaluate(part, xi, kk, with_pdf=True)
            below = fx < q
            a, b = np.where(below, xi, a), np.where(below, b, xi)
            # Newton on log F (log(1 - F) above 1/2), exact on an
            # exponential tail; a step out of the bracket is a bisection.
            upper = q > 0.5
            g, h = np.where(upper, 1.0 - fx, fx), np.where(upper, 1.0 - q, q)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                newton = xi + np.where(upper, g, -g) * np.log(g / h) / dens
            # Done once F(x) is within 4 ulps of q (F holds no more), or x
            # within 2 ulps of the Newton step or of the bracket's end.
            done = (
                (np.abs(fx - q) <= 4.0 * _EPS * q)
                | (np.abs(newton - xi) <= 2.0 * _EPS * np.abs(xi))
                | (b - a <= 2.0 * _EPS * np.abs(xi))
            )
            step = np.where((newton > a) & (newton < b), newton, 0.5 * (a + b))
            x[idx[done]] = xi[done]
            keep = ~done
            idx, kk, q, a, b, xi = idx[keep], kk[keep], q[keep], a[keep], b[keep], step[keep]
        raise self._failed("the quantile iteration did not converge")


# ---------------------------------------------------------------------------
# Text descriptors:  exp:l  laplace:b  tent  gg:a,p[,t]  weighted:<f>;<w>
#                    table:<path>
# ---------------------------------------------------------------------------


def parse_float(tok: str) -> float:
    """A number; ``inf``, ``infinity`` and ``oo`` (any case) read as infinity."""
    tok = tok.strip().lower()
    if tok in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(tok)
    except ValueError as exc:
        raise InputError(f"cannot parse number {tok!r}") from exc


def parse_density(text: str) -> Density:
    """Build a density from its text descriptor."""
    text = text.strip()
    if text == "tent":
        return make_tent()
    if text.startswith("weighted:"):
        from .weights import parse_weight

        body = text[len("weighted:") :]
        if ";" not in body:
            raise InputError("weighted descriptor needs '<base>;<weight>'")
        base_txt, w_txt = body.split(";", 1)
        base = parse_density(base_txt)
        return make_weighted_density(base, parse_weight(w_txt, base=base))
    if text.startswith("table:"):
        path = text[len("table:") :]
        try:
            data = np.loadtxt(path, delimiter=",", dtype=float)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read table file {path!r}: {exc}") from None
        if data.ndim != 2 or data.shape[1] != 2:
            raise InputError(f"table file {path!r} must have two columns")
        return make_tabulated(data[:, 0], data[:, 1])
    if ":" not in text:
        raise InputError(f"unknown density descriptor {text!r}")
    name, args = text.split(":", 1)
    vals = [parse_float(v) for v in args.split(",") if v.strip() != ""]
    if name == "exp":
        if len(vals) != 1:
            raise InputError("exp descriptor takes one rate parameter")
        return make_exponential(vals[0])
    if name == "laplace":
        if len(vals) != 1:
            raise InputError("laplace descriptor takes one scale parameter")
        return make_laplace(vals[0])
    if name == "gg":
        if len(vals) not in (2, 3):
            raise InputError("gg descriptor takes alpha,p[,t]")
        return make_generalized_gaussian(*vals)
    raise InputError(f"unknown density family {name!r}")
