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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InputError
from .numerics import (
    _EPS,
    _XGK,
    DEFAULT_CONFIG,
    MeasureValue,
    QuadratureConfig,
    Value,
    _exp,
    _finite,
    _gk15_nodes,
    _gk15_sums,
    _masked,
    _merge,
    _vec,
    beta_fn,
    essential_supremum,
    find_root,
    gamma_fn,
    integrate,
    total_variation,
)

__all__ = [
    "Density",
    "integral",
    "supremum",
    "variation",
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
    cdf_fn: callable | None = None
    quantile_fn: callable | None = None
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
    cdf_fn = None if f.cdf_fn is None else _vec(lambda x: f.cdf_fn(np.asarray(x) / t))
    quant = (
        None
        if f.quantile_fn is None
        else _vec(lambda q: t * f.quantile_fn(np.asarray(q)))
    )
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
    density carries the warnings of chi, which carries those of f.
    """
    norm = _weight_mean(f, weight, "weight normalizer E_f[phi]")
    chi = norm.value
    if not chi > 0:
        raise DomainError(f"weight normalizer E_f[phi] = {chi!r} is unusable")

    # Evaluate the weight only where the base density is positive so
    # that weights which overflow on the dead tail stay harmless.
    pdf = _vec(_masked(f, lambda x, fx: np.asarray(weight(x), dtype=float) * fx / chi))
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
    return Density(
        family="weighted",
        params={"base": f, "weight": weight, "chi": chi},
        support=f.support,
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=None,
        quantile_fn=None,
        singularities=tuple(sorted(set(f.singularities) | set(weight.kinks))),
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
    """F_f(x), analytic when the family provides it, quadrature otherwise.

    ``x`` may be a scalar or an array: a scalar gives a float, an array an
    ndarray of its shape.  Points at or below the lower end of the
    support give 0, points at or above the upper end give 1, and every
    other value is clipped to [0, 1].  Families without ``cdf_fn`` (the
    weighted densities) get all points from one sorted sweep
    (:func:`_swept_cdf`), so a value may differ in its last digits with
    the batch it comes in.
    """

    def interior(xs):
        vals = f.cdf_fn(xs) if f.cdf_fn is not None else _swept_cdf(f, xs)
        return np.minimum(np.maximum(vals, 0.0), 1.0)

    return on_support(x, f.support, 0.0, 1.0, interior)


# Smallest absolute error budget of one gap: below it a relative budget
# would ask adaptive quadrature for digits subnormal floats do not hold.
_MIN_BUDGET = 1e-300

# Probes between each end of a gap and its outermost Kronrod node, at
# 8^-1, 8^-3, 8^-6, ..., 8^-55 (about 1e-50) of the node's distance from
# the end, and one float from the end.  Mass that falls from the end shows
# at the last probe however narrow it is.  Mass that rises from a zero at
# the end shows at a probe inside its rise: the probes are dense just
# inside the node, where the node still sees part of a rise, and sparse
# deep down, where the node sees nothing and any nonzero probe shows it.
_RUNGS = 8.0 ** -(np.arange(1, 11) * np.arange(2, 12) / 2)


def _ladder(end, reach):
    """Distances from ``end`` of its probes, one row per gap, nearest last."""
    floor = np.maximum(np.spacing(np.abs(end)), 1e-300)[:, None]
    return np.maximum(np.concatenate([reach[:, None] * _RUNGS, floor], axis=1), floor)


def _panels(f: Density, a, b):
    """One GK15 panel of ``f.pdf`` on every gap [a_k, b_k], in one pdf call.

    Returns (K15, error, blind).  The error is |K15 - G7|, except at a
    blind end: where the pdf at a probe between the end and the outermost
    Kronrod node exceeds twice its value at that node, both rules can
    miss the mass near the end (a gap wide against the density's scale),
    so the error is raised to a bound on that mass: the probe value
    nearest the end times the distance from the end to the node when
    that value is the largest, else infinity.  A gap with a non-finite
    pdf value is blind, with K15 = 0 and an infinite error.
    """
    kronrod, h = _gk15_nodes(a, b)
    reach = h * (1.0 + _XGK[0])
    nodes = np.concatenate(
        [kronrod, a[:, None] + _ladder(a, reach), b[:, None] - _ladder(b, reach)], axis=1
    )
    y = np.asarray(f.pdf(nodes.ravel()), dtype=float).reshape(nodes.shape)
    yk, n = y[:, : _XGK.size], _RUNGS.size + 1
    with np.errstate(invalid="ignore"):
        k15, err = _gk15_sums(h, yk)
        ends = 0.0
        for probes, outer in ((y[:, -2 * n : -n], yk[:, 0]), (y[:, -n:], yk[:, -1])):
            peak = probes.max(axis=1)
            # A pdf that falls from the end holds at most peak * reach
            # before the node; one with its peak inside the ladder, no bound.
            bound = np.where(peak == probes[:, -1], peak * reach, math.inf)
            ends = ends + np.where(peak > 2.0 * outer, bound, 0.0)
    bad = ~np.all(np.isfinite(y), axis=1)
    blind = bad | (ends > 0.0)
    err = np.where(bad, math.inf, np.maximum(err, ends))
    return np.where(bad, 0.0, k15), err, blind


def _budget(below, k15, n_gaps: int, cfg: QuadratureConfig):
    """Error budget of gaps with F(a_k) = ``below`` and panel masses ``k15``.

    min(abs_tol / n_gaps, rel_tol F(b_k)): the gaps of one batch share
    the absolute tolerance, and a gap in the lower tail is held to the
    relative accuracy of the level above it.
    """
    level = below + k15
    return np.maximum(
        np.minimum(cfg.abs_tol / n_gaps, cfg.rel_tol * np.abs(level)), _MIN_BUDGET
    )


def _masses(f: Density, a, b, panels, budget, cfg: QuadratureConfig):
    """Mass of f on every gap [a_k, b_k] from its :func:`_panels` result.

    A gap keeps its panel when the panel's error is within its
    ``budget``; every other gap goes through :func:`integrate` with its
    budget as the absolute tolerance, and its result through
    ``checked``.  A blind gap is integrated with both ends as
    singularity hints, so tanh-sinh clusters its nodes at the ends.
    """
    k15, err, blind = panels
    out = np.array(k15, dtype=float)
    for k in np.nonzero(~(err <= budget))[0].tolist():
        lo, hi = float(a[k]), float(b[k])
        hints = (lo, hi) if blind[k] else cfg.singularities
        gap_cfg = replace(cfg, abs_tol=float(budget[k]), singularities=hints)
        out[k] = integrate(f.pdf, (lo, hi), gap_cfg).checked("CDF integral").value
    return out


def _swept_cdf(f: Density, xs):
    """F_f on the points ``xs`` (1-d, inside the support) in one sorted sweep.

    The points and the singularities between them become sorted nodes,
    so no gap spans a kink.  The anchors of a whole-support integral,
    where its rules cluster their nodes (the singularities, the finite
    ends of the support and, on the whole line, 0), are nodes and
    singularity hints too, so a lone point far in a tail still sees the
    bulk of the density.  The mass below the first node is one
    integral from the lower end of the support with the density's own
    tolerance, taken again to ``rel_tol`` where that tolerance is looser
    than ``rel_tol`` of the mass (the lower tail).  The gaps between
    consecutive nodes get one GK15 panel each, all in one pdf call; only
    those that miss their :func:`_budget` are integrated.  A cumulative
    sum gives F at the nodes: the batched-interval idea of QUADPACK
    ``qag`` (Piessens et al., 1983), applied to a running integral.
    """
    lo, hi = f.support
    anchors = set(f.singularities) | {e for e in (lo, hi) if math.isfinite(e)}
    if math.isinf(lo) and math.isinf(hi):
        anchors.add(0.0)
    cfg = replace(f.quad_config(), singularities=tuple(sorted(anchors)))
    inside = [s for s in cfg.singularities if xs.min() < s < xs.max()]
    nodes = np.unique(np.concatenate([xs, inside]))
    lower = (lo, float(nodes[0]))
    head = integrate(f.pdf, lower, cfg).checked("CDF integral").value
    if 0.0 < cfg.rel_tol * head < cfg.abs_tol:
        # A lower-tail level: integrate again to its relative accuracy.
        tail_cfg = replace(cfg, abs_tol=max(cfg.rel_tol * head, _MIN_BUDGET))
        head = integrate(f.pdf, lower, tail_cfg).checked("CDF integral").value
    a, b = nodes[:-1], nodes[1:]
    panels = _panels(f, a, b)
    below = head + np.concatenate([[0.0], np.cumsum(panels[0])[:-1]])
    masses = _masses(f, a, b, panels, _budget(below, panels[0], max(a.size, 1), cfg), cfg)
    return np.cumsum(np.concatenate([[head], masses]))[np.searchsorted(nodes, xs)]


def quantile(f: Density, q):
    """F_f^{-1}(q) for levels q in (0, 1).

    A scalar gives a float, an array an ndarray of its shape.  Analytic
    when the family provides ``quantile_fn``.  Otherwise (the weighted
    densities, which have no CDF either) each level is the root of
    cdf(f, x) - q found by :func:`~wrenyi.numerics.find_root` on the
    support; an infinite side of the bracket starts at -1 or 1 and
    doubles until it holds the level.  A level whose root search does
    not converge raises :class:`DomainError`.
    """
    arr = np.asarray(q, dtype=float)
    levels = arr.ravel()
    bad = ~((levels > 0.0) & (levels < 1.0))
    if bad.any():
        shown = q if arr.ndim == 0 else levels[bad][0]
        raise InputError(f"quantile level must be in (0,1), got {shown}")
    if f.quantile_fn is not None:
        out = np.asarray(f.quantile_fn(levels), dtype=float)
    else:
        out = np.array([_root_quantile(f, level) for level in levels.tolist()])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _root_quantile(f: Density, level: float) -> float:
    """The x with F_f(x) = ``level``, by a bracketed root search."""
    lo, hi = f.support
    blo = lo if math.isfinite(lo) else -1.0
    bhi = hi if math.isfinite(hi) else 1.0
    while not math.isfinite(lo) and cdf(f, blo) > level:
        blo *= 2.0
    while not math.isfinite(hi) and cdf(f, bhi) < level:
        bhi *= 2.0
    return find_root(lambda x: cdf(f, x) - level, (blo, bhi))


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
