"""Weighted information measures.

For a density f, weight phi >= 0 and orders p (entropy order) and alpha
(moment order, Holder conjugate beta):

    weighted entropy          h_phi(f)   = -int phi f log f
    relative weighted entropy D_phi(f|g) =  int phi f log(f/g)
    weighted Renyi entropy    h_{phi,p}  = log(int phi f^p) / (1-p),  p != 1
    weighted Renyi power      N_{phi,p}  = exp(h_{phi,p});
                              N_{phi,1}  = exp(h_phi(f) / E_f[phi])
    relative Renyi entropy    D_{phi,p}(f|g) = log(int phi g^{p-1} f)/(1-p)
                              + log(int phi g^p)/p - log(int phi f^p)/(p(1-p))
                              (p = 1: D_phi(f|g)/E_f[phi])
    generalized moment        mu_{phi,alpha} = int phi |x|^alpha f
    generalized deviation     sigma_{phi,alpha}:
                                exp(int phi f log|x| / E_f[phi])   alpha = 0
                                mu_{phi,alpha}^(1/alpha)           0<alpha<inf
                                esssup{phi(x)|x| : f(x) > 0}       alpha = inf
    Fisher information        J_{alpha,p}^(beta p) = int |f^{p-2} f'|^beta f
    weighted Fisher info      J^{w,phi}_{alpha,p}:
                                int phi |f^{p-2} f'|^beta f        1<alpha<inf
                                esssup phi |f^{p-2} f'|            alpha = 1
                                V(phi f^p/p) - int phi' f^p/p      alpha = inf

An exponential, Laplace, tent or generalized-Gaussian (0 < alpha < inf)
f (and an exponential g) under an elementary weight
phi = sum c |x|^e e^{gamma x} (const, expw, pow, abspoly) is closed
form from the Gamma and Beta/Gamma integrals of
:mod:`~wrenyi.densities`.  The first gives E_f[phi], both entropies, the
Renyi integrals and the moments; the second, as
int phi C |x|^kappa k(|x|/t)^m = sum 2 c C t^(e+kappa+1) M(e+kappa, m)
for a sum of powers and, for a term with gamma != 0, the even series
sum_j gamma^(2j)/(2j)! of such terms (exact at alpha = p = 1, and a
DomainError "diverges in the tail" on a power or stretched tail),
gives E_f[phi], int phi f^p, the moments, both Fisher informations at
1 < alpha < inf (|f^{p-2} f'|^beta f is such a product) and, at p = 1,
the weighted entropy (-log f = -log(a/t) + (|x|/t)^alpha).  These carry
the warnings of f, and a series its truncation and rounding bound as
its error.  The alpha = 0 log-moment, the entropies at p != 1 and every
other pair is quadrature.

The suprema and variations (sigma at alpha = inf, J at alpha = 1 and
alpha = inf) on such a kernel, the uniform G included, are the exponent
rules of :func:`~wrenyi.densities.kernel_extremum`: phi|x|,
phi |f^{p-2} f'| = phi f^(p-1) |f'/f| and phi f^p are sums of kernel
monomials c |x|^E k^m, whose ends read their exponents (an infinite one
is the DomainError "<what> is not finite"), and a single monomial, or a
sum of powers nondecreasing in |x|, is monotone between 0, its one
critical point u*^alpha = E / (m alpha + (p-1) E) and the far end.
For even terms on a symmetric f, int phi' f^p / p = 0 exactly.  Every
other sup or variation is a grid search, after the rule at the finite
end 0 of an exponential source.

Every operation returns a MeasureValue: a numerics.Value (the number,
its first-order error and its warnings) with the branch that fired and
the assumption margins.  Each measure combines the Values of its
integrals with plain operators, which propagate their errors.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import Density, _beta_integral, _closed, _exponential_rates, _gamma_integral
from .densities import _gg_shape, _weight_mean, integral, kernel_extremum, supremum, variation
from .errors import DomainError, InputError
from .numerics import MeasureValue, Value, _merge, _num
from .weights import WeightFunction, holder_conjugate, make_constant, nonnegativity_violation

__all__ = [
    "MeasureValue",
    "expectation",
    "weighted_entropy",
    "relative_weighted_entropy",
    "weighted_renyi_entropy",
    "weighted_renyi_power",
    "relative_renyi_entropy",
    "relative_renyi_power",
    "generalized_moment",
    "generalized_deviation",
    "fisher_information",
    "weighted_fisher_information",
]


def _measure(v: Value, branch: str, flags: dict, warns=()) -> MeasureValue:
    """``v`` tagged with its branch and flags, ``warns`` before its warnings."""
    return MeasureValue(v.value, v.error, _merge(warns, v.warnings), v.parts, branch, flags)


def _warn_negativity(w: WeightFunction, f: Density):
    v = nonnegativity_violation(w, f.support)
    if v is not None:
        return (f"weight takes negative values on the support (min {v:.3g})",)
    return ()


def _score_integral(w: WeightFunction, shape, beta: float, q: float, what: str, warns):
    """int phi |f^{q-2} f'|^beta f for f of ``shape``: at u = |x|/t,
    |f^{q-2} f'|^beta f = (a/t)^(beta(q-1)+1) (alpha/t)^beta u^kappa k(u)^m
    with kappa = beta (alpha-1) and m = beta (q-p) + 1."""
    alpha, p, _, t = shape
    kappa = beta * (alpha - 1.0)
    log_extra = beta * math.log(alpha / t) - kappa * math.log(t)
    m = beta * (q - p) + 1.0
    return _beta_integral(w, shape, kappa, m, what, warns, beta * (q - 1.0) + 1.0, log_extra)


def _affine_integral(w: WeightFunction, a0, a1, lam: float, what: str, flag: str, warns):
    """int phi f (a0 + a1 x) for f = Exp(lam), as a0 m0 + a1 m1 with m_k the Gamma
    integral of x^k f; a zero factor's m_k, which may diverge alone, is not taken."""
    m0 = _gamma_integral(w, 0.0, lam, lam, what, flag) if _num(a0) != 0.0 else 0.0
    m1 = _gamma_integral(w, 1.0, lam, lam, what, flag) if a1 != 0.0 else 0.0
    return _closed(a0 * m0 + a1 * m1, {flag: min(lam - g for _, _, g in w.terms)}, warns)


# ---------------------------------------------------------------------------
# Expectations and entropies
# ---------------------------------------------------------------------------


def expectation(f: Density, w: WeightFunction) -> MeasureValue:
    """E_f[phi]."""
    return _weight_mean(f, w, "E_f[phi]")


def weighted_entropy(f: Density, w: WeightFunction) -> MeasureValue:
    """h_phi(f) = -int phi f log f, with the 0 log 0 = 0 convention."""
    warns = _warn_negativity(w, f)
    if rates := _exponential_rates(w, f):
        # -phi f log f = phi f (lam x - log lam)
        (lam,) = rates
        return _affine_integral(w, -math.log(lam), lam, lam, "weighted entropy", "lam-gamma", warns)
    if (shape := _gg_shape(w, f)) and shape[1] == 1.0:
        # -phi f log f = phi f (-log(a/t) + (|x|/t)^alpha); a zero factor's
        # integral, which may diverge alone, is not taken.
        alpha, _, log_norm, t = shape
        what = "weighted entropy"
        e = _beta_integral(w, shape, 0.0, 1.0, what, ()) if log_norm else 0.0
        mu = _beta_integral(w, shape, alpha, 1.0, what, (), log_extra=-alpha * math.log(t))
        return _closed(mu - log_norm * e, {}, _merge(warns, f.warnings))

    v = integral(
        f,
        lambda x, fx: -np.asarray(w(x), dtype=float) * fx * np.log(fx),
        "weighted entropy",
        w,
    )
    return _measure(v, "quadrature", {}, warns)


def _nested(f: Density, g: Density) -> bool:
    """Whether the support of f lies inside that of g."""
    return g.support[0] <= f.support[0] and f.support[1] <= g.support[1]


def _divergent(warns) -> MeasureValue:
    """+inf: f > 0 on a region where g = 0."""
    return _measure(Value(math.inf, math.inf), "divergent", {}, (*warns, "supports not nested"))


def relative_weighted_entropy(
    f: Density, g: Density, w: WeightFunction
) -> MeasureValue:
    """D_phi(f||g) = int phi f log(f/g); +inf when f charges {g = 0}."""
    warns = _warn_negativity(w, f)
    if rates := _exponential_rates(w, f, g):
        # phi f log(f/g) = phi f (log(l1/l2) + (l2 - l1) x)
        l1, l2 = rates
        a0 = (Value(l1) / l2).log()
        return _affine_integral(w, a0, l2 - l1, l1, "relative weighted entropy", "lam1-gamma", warns)

    if not _nested(f, g):
        return _divergent(warns)

    def core(x, fx):
        gx = np.asarray(g.pdf(x), dtype=float)
        wx = np.asarray(w(x), dtype=float)
        # Points where g underflows inside {f > 0} contribute
        # phi f log(f/g) ~ phi f |log g|, which is far below resolvable
        # mass for nested supports; structural support mismatches were
        # already reported as divergent above.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(gx > 0, np.log(fx) - np.log(gx), 0.0)
        return wx * fx * t

    v = integral(f, core, "relative weighted entropy", w, hints=g.singularities)
    return _measure(v, "quadrature", {}, warns)


def _phi_fp_integral(f: Density, w: WeightFunction, p: float) -> MeasureValue:
    """int phi f^p."""
    if rates := _exponential_rates(w, f):
        (lam,) = rates
        return _gamma_integral(w, 0.0, Value(lam) ** p, p * lam, "int phi f^p", "p*lam-gamma")
    if shape := _gg_shape(w, f):
        return _beta_integral(w, shape, 0.0, p, "int phi f^p", f.warnings, power=p)

    v = integral(f, lambda x, fx: np.asarray(w(x), dtype=float) * fx**p, "int phi f^p", w)
    return _measure(v, "quadrature", {})


def weighted_renyi_entropy(f: Density, w: WeightFunction, p: float) -> MeasureValue:
    """h_{phi,p}(f) = log(int phi f^p)/(1-p) for p > 0, p != 1."""
    if not p > 0:
        raise InputError(f"Renyi order p must be positive, got {p}")
    if p == 1.0:
        raise InputError(
            "p = 1 has no Renyi-entropy branch; use weighted_renyi_power"
        )
    warns = _warn_negativity(w, f)
    i = _phi_fp_integral(f, w, p)
    if not i.value > 0:
        raise DomainError(f"int phi f^p = {i.value!r}, log undefined")
    return _measure(i.log() / (1.0 - p), i.branch, i.flags, warns)


def weighted_renyi_power(f: Density, w: WeightFunction, p: float) -> MeasureValue:
    """N_{phi,p}(f) = exp(h_{phi,p}(f)); at p = 1, exp(h_phi(f)/E_f[phi])."""
    if not p > 0:
        raise InputError(f"Renyi order p must be positive, got {p}")
    if p == 1.0:
        h = weighted_entropy(f, w)
        e = expectation(f, w)
        if not e.value > 0:
            raise DomainError(f"E_f[phi] = {e.value!r} must be positive at p = 1")
        n = (h / e).exp("weighted Renyi power")
        return _measure(n, "p=1-entropy-power", {**h.flags, "E_f[phi]": e.value})
    h = weighted_renyi_entropy(f, w, p)
    return _measure(h.exp("weighted Renyi power"), h.branch, h.flags)


def _relative_integrals(f: Density, g: Density, w: WeightFunction, p: float):
    """The three integrals of the relative Renyi power, with flags."""
    if rates := _exponential_rates(w, f, g):
        l1, l2 = rates
        i1 = _gamma_integral(
            w, 0.0, l1 * Value(l2) ** (p - 1.0), l2 * (p - 1.0) + l1,
            "int phi g^(p-1) f", "lam2*(p-1)+lam1-gamma",
        )
        i2 = _gamma_integral(w, 0.0, Value(l2) ** p, l2 * p, "int phi g^p", "lam2*p-gamma")
        i3 = _gamma_integral(w, 0.0, Value(l1) ** p, l1 * p, "int phi f^p", "lam1*p-gamma")
        return (i1, i2, i3), {**i1.flags, **i3.flags, **i2.flags}, "closed-form"

    def core(x, fx):
        gx = np.asarray(g.pdf(x), dtype=float)
        wx = np.asarray(w(x), dtype=float)
        # Where g underflows to 0 inside {f > 0} the true product
        # phi g^{p-1} f is itself far below resolvable mass for the
        # nested-support families handled here, so it is dropped; a
        # genuine divergence already blows up inside the representable
        # band and is caught by the quadrature status.
        with np.errstate(divide="ignore"):
            t = np.where(gx > 0, gx ** (p - 1.0), 0.0)
        return wx * t * fx

    i1 = integral(f, core, "int phi g^(p-1) f", w, hints=g.singularities)
    i2 = _phi_fp_integral(g, w, p)
    i3 = _phi_fp_integral(f, w, p)
    return (i1, i2, i3), {**i2.flags, **i3.flags}, "quadrature"


def relative_renyi_entropy(
    f: Density, g: Density, w: WeightFunction, p: float
) -> MeasureValue:
    """D_{phi,p}(f||g); at p = 1 this is D_phi(f||g) / E_f[phi].

    +inf at p <= 1 when f charges {g = 0}.
    """
    if not p > 0:
        raise InputError(f"order p must be positive, got {p}")
    warns = _warn_negativity(w, f)
    if p == 1.0:
        d = relative_weighted_entropy(f, g, w)
        e = expectation(f, w)
        if not e.value > 0:
            raise DomainError(f"E_f[phi] = {e.value!r} must be positive at p = 1")
        eg = expectation(g, w)
        flags = {**d.flags, "E_f[phi]-E_g[phi]": e.value - eg.value}
        return _measure(d / e, "p=1-" + d.branch, flags, warns)
    if p < 1.0 and not _nested(f, g):
        # int phi g^(p-1) f is infinite where g = 0 < f; at p > 1 g^(p-1) = 0 there.
        return _divergent(warns)
    (i1, i2, i3), flags, branch = _relative_integrals(f, g, w, p)
    if min(i1.value, i2.value, i3.value) <= 0:
        raise DomainError("relative Renyi integrals must be positive")
    d = i1.log() / (1.0 - p) + i2.log() / p - i3.log() / (p * (1.0 - p))
    return _measure(d, branch, flags, warns)


def relative_renyi_power(
    f: Density, g: Density, w: WeightFunction, p: float
) -> MeasureValue:
    """N_{phi,p}(f, g) = exp(D_{phi,p}(f||g))."""
    d = relative_renyi_entropy(f, g, w, p)
    return _measure(d.exp("relative Renyi power"), d.branch, d.flags)


# ---------------------------------------------------------------------------
# Moments and deviations
# ---------------------------------------------------------------------------


def generalized_moment(f: Density, w: WeightFunction, alpha: float) -> MeasureValue:
    """mu_{phi,alpha}(f) = int phi |x|^alpha f for alpha in (0, inf)."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InputError(f"moment order must be in (0, inf), got {alpha}")
    warns = _warn_negativity(w, f)
    if rates := _exponential_rates(w, f):
        (lam,) = rates
        return _gamma_integral(w, alpha, lam, lam, "generalized moment", "lam-gamma", warns)
    if shape := _gg_shape(w, f):
        return _beta_integral(w, shape, alpha, 1.0, "generalized moment", _merge(warns, f.warnings))

    v = integral(
        f,
        lambda x, fx: np.asarray(w(x), dtype=float) * np.abs(x) ** alpha * fx,
        "generalized moment",
        w,
        hints=(0.0,),
    )
    return _measure(v, "quadrature", {}, warns)


def generalized_deviation(f: Density, w: WeightFunction, alpha: float) -> MeasureValue:
    """sigma_{phi,alpha}(f) over all three branches of the moment order."""
    warns = _warn_negativity(w, f)
    if alpha == 0.0:
        e = expectation(f, w)
        if not e.value > 0:
            raise DomainError(f"E_f[phi] = {e.value!r} must be positive at alpha = 0")

        def core(x, fx):
            wx = np.asarray(w(x), dtype=float)
            ax = np.abs(x)
            with np.errstate(divide="ignore"):
                t = np.where(ax > 0, np.log(ax), 0.0)
            return wx * fx * t

        log_moment = integral(f, core, "log-moment", w, hints=(0.0, -1.0, 1.0))
        sigma = (log_moment / e).exp("alpha = 0 deviation")
        return _measure(sigma, "alpha=0-log", {"E_f[phi]": e.value}, warns)
    if alpha == math.inf:
        what = "esssup of phi(x)|x|"
        sup = kernel_extremum(w, f, what, shift=1.0) or supremum(
            f, lambda x, fx: np.asarray(w(x), dtype=float) * np.abs(x), what
        )
        return _measure(sup, "alpha=inf-esssup", {}, warns)
    mu = generalized_moment(f, w, alpha)
    if not mu.value > 0:
        raise DomainError(f"generalized moment {mu.value!r} must be positive")
    return _measure(mu ** (1.0 / alpha), "alpha-moment", mu.flags)


# ---------------------------------------------------------------------------
# Fisher informations
# ---------------------------------------------------------------------------


def _score_term(f: Density, w, p: float, beta: float, times_f: bool, fill=0.0):
    """The core (x, f(x)) -> phi |f^{p-2} f'|^beta, times f if ``times_f``,
    computed in log space on {f > 0}.

    ``fill`` where f' is 0 or not finite; ``w`` None is phi = 1.
    """

    def core(x, fx):
        dfx = np.asarray(f.dpdf(x), dtype=float)
        out = np.full_like(fx, fill)
        m = (dfx != 0) & np.isfinite(dfx)
        if np.any(m):
            log_f = np.log(fx[m])
            log_score = (p - 2.0) * log_f + np.log(np.abs(dfx[m]))
            wx = np.asarray(w(x[m]), dtype=float) if w is not None else 1.0
            log_t = beta * log_score + log_f if times_f else beta * log_score
            out[m] = wx * np.exp(log_t)
        return out

    return core


def fisher_information(f: Density, alpha: float, p: float) -> MeasureValue:
    """J_{alpha,p}(f) = (int |f^{p-2} f'|^beta f)^(1/(beta p)), plus the raw
    integral in the flags."""
    if not (1.0 < alpha < math.inf):
        raise InputError(f"Fisher information needs alpha in (1, inf), got {alpha}")
    beta = holder_conjugate(alpha)
    one = make_constant(1.0)
    if shape := _gg_shape(one, f):
        raw = _score_integral(one, shape, beta, p, "Fisher integral", f.warnings)
    else:
        raw = integral(f, _score_term(f, None, p, beta, True), "Fisher integral")
    if raw.value < 0:
        raise DomainError("Fisher integral must be nonnegative")
    root = raw ** (1.0 / (beta * p))
    flags = {"raw": raw.value, "beta*p": beta * p}
    return _closed(root, flags, raw.warnings) if shape else _measure(root, "root", flags)


def weighted_fisher_information(
    f: Density, w: WeightFunction, alpha: float, p: float
) -> MeasureValue:
    """J^{w,phi}_{alpha,p}(f) in its three moment-order branches.

    alpha in (1, inf): the integral int phi |f^{p-2} f'|^beta f.
    alpha = 1: the essential supremum of phi |f^{p-2} f'| (the beta = inf
    convention; callers wanting (J)^{1/beta} use this value directly).
    alpha = inf: V(phi f^p / p) - int phi' f^p / p.
    """
    warns = _warn_negativity(w, f)
    if alpha == math.inf:
        tv = kernel_extremum(w, f, "total variation of phi f^p/p", power=p, variation=True)
        if tv is not None:  # even terms on a symmetric f: int phi' f^p = 0
            tv, corr = tv / p, Value(0.0)
        else:
            tv = variation(f, lambda x, fx: np.asarray(w(x), dtype=float) * fx**p / p, w.kinks)
            corr = Value(0.0) if w.is_constant else integral(
                f,
                lambda x, fx: np.asarray(w.derivative(x), dtype=float) * fx**p / p,
                "int phi' f^p / p",
                w,
            )
        flags = {"variation": tv.value, "correction": corr.value}
        return _measure(tv - corr, "alpha=inf-variation", flags, warns)
    if alpha == 1.0:
        what = "esssup of phi |f^{p-2} f'|"
        sup = kernel_extremum(w, f, what, power=p - 1.0, score=True) or supremum(
            f, _score_term(f, w, p, 1.0, False, fill=-np.inf), what
        )
        return _measure(sup, "alpha=1-esssup", {}, warns)
    if not alpha > 1.0:
        raise InputError(f"weighted Fisher information needs alpha >= 1, got {alpha}")
    beta = holder_conjugate(alpha)
    if shape := _gg_shape(w, f):
        raw = _score_integral(w, shape, beta, p, "weighted Fisher integral", ())
        return _closed(raw, {"beta": beta}, _merge(warns, f.warnings))
    raw = integral(f, _score_term(f, w, p, beta, True), "weighted Fisher integral", w)
    return _measure(raw, "integral", {"beta": beta}, warns)
