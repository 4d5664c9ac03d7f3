"""Inequality verification engines.

Every check returns an :class:`InequalityVerdict` with the two sides of
the bound, the slack (oriented so that the bound holds iff slack is
nonnegative within tolerance), the margins of every assumption consumed,
and a four-state verdict:

    holds             margins satisfied, slack >= -tol
    violated          slack < -tol beyond the numeric error budget
    assumptions-unmet a required margin is negative while the bound
                      itself is not numerically violated
    inconclusive      |slack| is inside the quadrature error budget

(When a margin is negative and the bound is also numerically violated
the verdict reports "violated": the inequality is false there, which is
strictly more information than "assumptions-unmet".)

Checks implemented, with G the generalized p-Gaussian of the same
(alpha, p) order as the check:

* moment-entropy bound (id "mei"):
      N_{phi,p}(f)/sigma_{phi,alpha}(f)
        <= N_{phi,p}(G)^p N_{phi*,p}(G)^(1-p) / sigma_{phi,alpha}(G),
  phi*(x) = phi(t x), t = sigma_{phi,alpha}(f)/sigma_{phi,alpha}(G),
  under E_f[phi] >= E_G[phi] (and E_f[phi] >= E_G[phi*] when p = 1).

* Fisher information bound (id "fii"), via the increasing transport
  s with F_f(x) = F_G(s(x)) and the derived weights rho_1, rho_2,
  rho_s, phi~ = phi o s:

      [N_{phi,p}(G)/N_{rho1,p}(G)] [N_{rho1,p}(G)/N_{phi,p}(f)]^p
        <= [J^{rho2}_{alpha,p}(f)/J^{rho1}_{alpha,p}(G)]^(1/beta)
           * LambdaRatio - kappa,                      (alpha < inf, p != 1)

  with LambdaRatio = LambdaT_{rho1}(Y)/LambdaT_{rho1}(Z) for p > 1
  (LambdaB with the p < 1 laws otherwise), kappa = eta N_{rho1,p}(G)^{p-1},
  eta = int s rho_s' f^p over the support of f;

      N_{phi,1}(G) E_G[phi] / N_{phi~,1}(f)
        <= 2^-1 (J^{phi~}_{alpha,1}(f)/J^{phi}_{alpha,1}(G))^(1/beta)
           * Theta_alpha(W) - E_f[S phi~'],            (p = 1)

  (both sides are additionally raised to the power E_G[phi] in the
  reported lhs/rhs; the verdict is taken on the base inequality, which
  is equivalent for positive sides);

      [N_{phi,p}(G)/N_{phi,p}(f)]^p
        <= J^{rho_s}_{inf,p}(f)/J^{phi}_{inf,p}(G) - Delta,  (alpha = inf)

  Delta = (J^{phi}_{inf,p}(G))^-1 (eta/p - 2^(-1-p)(psib(1)-psib(-1))).

* Cramer-Rao bound (id "cri"): same right-hand sides with the left side
  replaced by (sigma_G/sigma_f) varpi^{p-1} (p != 1, alpha < inf),
  (sigma_G E_G[phi]/sigma_f)^{E_G[phi]} (p = 1), sigma_G/sigma_f
  (alpha = inf), where
  varpi = N_{phi*,p}(G) N_{rho1,p}(G) / (N_{phi,p}(G) N_{phi,p}(f)).

* the |x|^c corollaries (ids "cor1", "cor2", "cor3", "cor4"), the
  scaling identity and the integration-by-parts residual ("scaling",
  "lemma4"), and nonnegativity of the relative Renyi entropy
  (id "thm1.1").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    Density,
    cdf,
    make_generalized_gaussian,
    make_laplace,
    on_support,
    quantile,
    scale_density,
)
from .errors import DomainError, InputError
from .gaussian_forms import case_laws, lambda_bar, lambda_tilde, select_case, theta
from .measures import (
    OrderParams,
    expectation,
    fisher_information,
    generalized_deviation,
    generalized_moment,
    relative_renyi_entropy,
    weighted_fisher_information,
    weighted_renyi_power,
)
from .numerics import (
    QuadratureConfig,
    differentiate,
    essential_supremum,
    gamma_fn,
    integrate,
)
from .weights import (
    WeightFunction,
    antiderivatives,
    compose_with_map,
    derive_phi_star,
    derive_rho12,
    derive_rho_s,
    holder_conjugate,
    make_constant,
    make_exp_linear,
    make_power,
    nonnegativity_violation,
)

__all__ = [
    "TransportMap",
    "InequalityVerdict",
    "FiiTerms",
    "build_transport",
    "check_thm11",
    "check_mei",
    "check_scaling_identity",
    "check_cor1",
    "check_cor2",
    "check_cor3",
    "fii_terms",
    "check_fii",
    "check_cor4",
    "check_cri",
    "lemma4_residual",
]

DEFAULT_TOL = 1e-8
MARGIN_TOL = 1e-9
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityVerdict:
    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    margins: dict = field(default_factory=dict)
    verdict: str = "holds"
    tolerance: float = DEFAULT_TOL
    error: float = 0.0
    equality: bool = False
    terms: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def _decide(
    inequality_id: str,
    lhs: float,
    rhs: float,
    margins: dict,
    tol: float,
    err: float,
    terms: dict | None = None,
    warnings: tuple[str, ...] = (),
    equality: bool = False,
) -> InequalityVerdict:
    slack = rhs - lhs
    margin_bad = any(v < -MARGIN_TOL for v in margins.values())
    if margin_bad:
        verdict = "violated" if slack < -max(tol, err) else "assumptions-unmet"
    elif abs(slack) <= err and err > tol:
        verdict = "inconclusive"
    elif slack >= -tol:
        verdict = "holds"
    else:
        verdict = "violated"
    return InequalityVerdict(
        inequality_id,
        lhs,
        rhs,
        slack,
        margins,
        verdict,
        tol,
        err,
        equality,
        terms or {},
        warnings,
    )


def _require_nonneg_weight(w: WeightFunction, f: Density, what: str) -> None:
    v = nonnegativity_violation(w, f.support)
    if v is not None:
        raise DomainError(
            f"{what} requires a nonnegative weight; sampled minimum {v:.3g}"
        )


def _densities_close(f: Density, g: Density, tol: float = 1e-6) -> bool:
    lo = max(f.support[0], g.support[0])
    hi = min(f.support[1], g.support[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = max(lo, -20.0), min(hi, 20.0)
    x = np.linspace(lo, hi, 21)
    df = np.asarray(f.pdf(x), dtype=float)
    dg = np.asarray(g.pdf(x), dtype=float)
    return bool(np.max(np.abs(df - dg)) <= tol * max(1.0, float(np.max(dg))))


# ---------------------------------------------------------------------------
# Transport map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportMap:
    """Increasing map s with F_f(x) = F_G(s(x)), clamped to [-k, k].

    Evaluated as s = Q_G(F_f(x)) with the target's ``quantile_fn``, so the
    target must have one (:func:`build_transport` checks this).  A scalar
    in gives a float out; an array gives an ndarray of the same shape.
    """

    source: Density
    target: Density
    k: float

    def __call__(self, x):
        return on_support(x, self.source.support, -self.k, self.k, self._interior)

    def _interior(self, xs):
        # Interior points whose CDF level rounds to 0 or 1 are mapped
        # through the nearest level that still yields a finite image;
        # every integrand using s carries a factor of f, so the
        # saturated deep tail never matters.
        u = np.minimum(np.maximum(cdf(self.source, xs), 5e-324), _BELOW_ONE)
        y = np.array(self.target.quantile_fn(u), dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            y[bad] = self.target.quantile_fn(
                np.minimum(np.maximum(u[bad], 1e-15), 1.0 - 1e-15)
            )
        return y

    def derivative(self, x):
        """s'(x) = f(x) / G(s(x)) wherever G(s(x)) > 0."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        sx = np.atleast_1d(np.asarray(self(flat), dtype=float))
        fx = np.asarray(self.source.pdf(flat), dtype=float)
        gx = np.asarray(self.target.pdf(sx), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(gx > 0, fx / gx, 0.0)
        return float(out[0]) if scalar else out


def build_transport(f: Density, target: Density) -> TransportMap:
    """CDF-matching increasing map from f onto the target density.

    The target must have an analytic quantile (``quantile_fn``).
    """
    if target.quantile_fn is None:
        raise InputError(f"transport target {target.family!r} has no quantile function")
    lo, hi = target.support
    k = max(abs(lo), abs(hi))
    s = TransportMap(f, target, k)
    # Monotonicity on a grid spanning the bulk of f.
    a, b = f.support
    ga = a if math.isfinite(a) else -20.0
    gb = b if math.isfinite(b) else 20.0
    grid = np.linspace(ga, gb, 101)
    vals = np.asarray(s(grid), dtype=float)
    if np.any(np.diff(vals) < -1e-12):
        raise DomainError("transport map is not increasing")
    # CDF match at interior quantile probes.
    for q in np.linspace(0.02, 0.98, 21):
        x = quantile(f, float(q))
        err = abs(cdf(f, x) - cdf(target, float(s(x))))
        if err > 1e-8:
            raise DomainError(
                f"transport CDF match failed at q={q:.3f} (err={err:.2e})"
            )
    return s


# ---------------------------------------------------------------------------
# Relative-entropy nonnegativity (thm1.1)
# ---------------------------------------------------------------------------


def check_thm11(
    f: Density, g: Density, w: WeightFunction, p: float, tol: float = DEFAULT_TOL
) -> InequalityVerdict:
    """D_{phi,p}(f||g) >= 0; at p = 1 under the margin E_f[phi] >= E_g[phi]."""
    d = relative_renyi_entropy(f, g, w, p)
    margins = {}
    if p == 1.0:
        margins["E_f[phi]-E_g[phi]"] = d.flags.get("E_f[phi]-E_g[phi]", 0.0)
    terms = {"divergence": d.value, "branch": d.branch, **d.flags}
    return _decide(
        "thm1.1",
        0.0,
        d.value,
        margins,
        tol,
        d.error,
        terms,
        d.warnings,
        equality=_densities_close(f, g),
    )


# ---------------------------------------------------------------------------
# Moment-entropy bound (mei) and the scaling identity
# ---------------------------------------------------------------------------


def check_mei(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
) -> InequalityVerdict:
    """N/sigma of f against its generalized-Gaussian maximum."""
    if not p > 1.0 / (1.0 + alpha):
        raise InputError(f"mei needs p > 1/(1+alpha), got p={p}, alpha={alpha}")
    _require_nonneg_weight(w, f, "the moment-entropy bound")
    g = make_generalized_gaussian(alpha, p)

    sigma_f = generalized_deviation(f, w, alpha)
    sigma_g = generalized_deviation(g, w, alpha)
    w_star = derive_phi_star(w, sigma_f.value, sigma_g.value)

    n_f = weighted_renyi_power(f, w, p)
    n_g = weighted_renyi_power(g, w, p)
    n_g_star = weighted_renyi_power(g, w_star, p)

    e_f = expectation(f, w)
    e_g = expectation(g, w)
    margins = {"E_f[phi]-E_G[phi]": e_f.value - e_g.value}
    if p == 1.0:
        e_g_star = expectation(g, w_star)
        margins["E_f[phi]-E_G[phi*]"] = e_f.value - e_g_star.value

    lhs = n_f.value / sigma_f.value
    rhs = n_g.value**p * n_g_star.value ** (1.0 - p) / sigma_g.value
    err = (
        n_f.error / sigma_f.value
        + lhs * sigma_f.error / sigma_f.value
        + abs(rhs)
        * (
            p * n_g.error / n_g.value
            + abs(1.0 - p) * n_g_star.error / n_g_star.value
            + sigma_g.error / sigma_g.value
        )
    )
    terms = {
        "t_phi": sigma_f.value / sigma_g.value,
        "N_f": n_f.value,
        "N_G": n_g.value,
        "N_G_star": n_g_star.value,
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
    }
    warns = n_f.warnings + sigma_f.warnings + n_g.warnings + sigma_g.warnings
    equality = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err)
    return _decide("mei", lhs, rhs, margins, tol, err, terms, warns, equality)


def check_scaling_identity(
    w: WeightFunction, g: Density, t: float, p: float
) -> float:
    """Relative residual of int phi G_t^p = t^(1-p) int phi(t x) G^p dx."""
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    gt = scale_density(g, t)
    cfg_l = QuadratureConfig(
        singularities=tuple(gt.singularities) + tuple(w.kinks)
    )

    def lhs_fn(x):
        x = np.asarray(x, dtype=float)
        gx = np.asarray(gt.pdf(x), dtype=float)
        out = np.zeros_like(gx)
        m = gx > 0
        if np.any(m):
            out[m] = np.asarray(w(x[m]), dtype=float) * gx[m] ** p
        return out

    scaled_kinks = tuple(k / t for k in w.kinks)
    cfg_r = QuadratureConfig(
        singularities=tuple(g.singularities) + scaled_kinks
    )

    def rhs_fn(x):
        x = np.asarray(x, dtype=float)
        gx = np.asarray(g.pdf(x), dtype=float)
        out = np.zeros_like(gx)
        m = gx > 0
        if np.any(m):
            out[m] = np.asarray(w(t * x[m]), dtype=float) * gx[m] ** p
        return out

    lhs = integrate(lhs_fn, gt.support, cfg_l)
    rhs = integrate(rhs_fn, g.support, cfg_r)
    if lhs.status == "divergent" or rhs.status == "divergent":
        raise DomainError("scaling-identity integrals diverge")
    rhs_val = t ** (1.0 - p) * rhs.value
    return abs(lhs.value - rhs_val) / (1.0 + abs(lhs.value))


# ---------------------------------------------------------------------------
# |x|^c corollaries of the moment-entropy bound
# ---------------------------------------------------------------------------


def check_cor1(
    f: Density,
    c: float,
    alpha: float = 1.0,
    p: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> InequalityVerdict:
    """phi = |x|^c specialization.

    At (alpha, p) = (1, 1) this is the Laplace-target display

        (c+1)! N_{|x|^c,1}(f) / (2 e^{c+1}) <= E_f[|X|^{c+1}]

    under E_f[|X|^c] >= c! and E_f[|X|^c] >= (E_f[|X|^{c+1}])^c/(c+1)
    (factorials of real arguments read as Gamma(. + 1)); equality at the
    standard Laplace density.  Other (alpha, p) use the deviation-power
    form sigma^{c+1}/N of f versus G.
    """
    if not p > 1.0 / (1.0 + alpha):
        raise InputError(f"cor1 needs p > 1/(1+alpha), got p={p}, alpha={alpha}")
    w = make_power(c)
    if (alpha, p) == (1.0, 1.0):
        e_c = expectation(f, w)
        e_c1 = expectation(f, make_power(c + 1.0))
        fact_c = gamma_fn(c + 1.0)
        margins = {
            "E|X|^c - c!": e_c.value - fact_c,
            "E|X|^c - (E|X|^{c+1})^c/(c+1)": e_c.value
            - e_c1.value**c / (c + 1.0),
        }
        n_f = weighted_renyi_power(f, w, 1.0)
        lhs = gamma_fn(c + 2.0) * n_f.value / (2.0 * math.exp(c + 1.0))
        rhs = e_c1.value
        err = gamma_fn(c + 2.0) * n_f.error / (2.0 * math.exp(c + 1.0)) + e_c1.error
        terms = {"N_f": n_f.value, "E|X|^c": e_c.value, "E|X|^{c+1}": e_c1.value}
        equality = _densities_close(f, make_laplace(1.0)) and abs(
            rhs - lhs
        ) <= max(tol, err, 1e-7)
        return _decide(
            "cor1", lhs, rhs, margins, tol, err, terms, n_f.warnings, equality
        )

    g = make_generalized_gaussian(alpha, p)
    sigma_f = generalized_deviation(f, w, alpha)
    sigma_g = generalized_deviation(g, w, alpha)
    n_f = weighted_renyi_power(f, w, p)
    n_g = weighted_renyi_power(g, w, p)
    e_f = expectation(f, w)
    e_g = expectation(g, w)
    margins = {"E_f[|X|^c]-E_G[|X|^c]": e_f.value - e_g.value}
    if p == 1.0:
        one = make_constant(1.0)
        s_f = generalized_deviation(f, one, c + alpha)
        s_g = generalized_deviation(g, one, c + alpha)
        t_c = (s_f.value / s_g.value) ** (c * (c + alpha) / alpha)
        margins["E_f[|X|^c]-t_c*E_G[|X|^c]"] = e_f.value - t_c * e_g.value
    # Displayed as sigma_f^{c+1}/N_f >= sigma_G^{c+1}/N_G; normalize to <=.
    lhs = sigma_g.value ** (c + 1.0) / n_g.value
    rhs = sigma_f.value ** (c + 1.0) / n_f.value
    err = abs(lhs) * (
        abs(c + 1.0) * sigma_g.error / sigma_g.value + n_g.error / n_g.value
    ) + abs(rhs) * (
        abs(c + 1.0) * sigma_f.error / sigma_f.value + n_f.error / n_f.value
    )
    terms = {
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
        "N_f": n_f.value,
        "N_G": n_g.value,
        "C_alpha": (c + 1.0) * (c + alpha) / alpha,
    }
    equality = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err)
    return _decide("cor1", lhs, rhs, margins, tol, err, terms, (), equality)


def _m_constant(c: float) -> float:
    return 2.0 ** (2.0 - c) / ((c + 3.0) ** (2.0 - c) * (c + 2.0) ** (1.0 - c))


def check_cor2(f: Density, c: float, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """m(c) (int |x|^{c+1} f)^{c-1} <= int |x|^c f^2 for c + 2 > 0,
    under E_f[|X|^c] >= 2/((c+2)(c+1)); equality at the tent density."""
    if not c + 2.0 > 0:
        raise InputError(f"cor2 needs c + 2 > 0, got c={c}")
    w = make_power(c)
    e_c = expectation(f, w)
    margins = {"E|X|^c - 2/((c+2)(c+1))": e_c.value - 2.0 / ((c + 2.0) * (c + 1.0))}
    mom = expectation(f, make_power(c + 1.0))
    n2 = weighted_renyi_power(f, w, 2.0)  # N = (int |x|^c f^2)^{-1}
    rhs = 1.0 / n2.value
    lhs = _m_constant(c) * mom.value ** (c - 1.0)
    err = (
        _m_constant(c) * abs(c - 1.0) * mom.value ** (c - 2.0) * mom.error
        + n2.error / n2.value**2
    )
    terms = {"m(c)": _m_constant(c), "E|X|^{c+1}": mom.value, "int|x|^c f^2": rhs}
    from .densities import make_tent

    equality = _densities_close(f, make_tent()) and abs(rhs - lhs) <= max(
        tol, err, 1e-7
    )
    return _decide("cor2", lhs, rhs, margins, tol, err, terms, n2.warnings, equality)


def cor3_constant() -> dict:
    """The quadratic-Gaussian constants of the fourth-moment bound.

    With G = (3/4)(1-x^2)_+ the bound reads

        (int x^2 f^2)^{-1} <= 2 w(G) (int x^4 f)^{3/2},

    with equality at f = G.  Matching the equality case fixes

        2 w(G) = N_{x^2,2}(G) / sigma_{x^2,2}(G)^3
               = (243/32) (J_{2,5/2}(G))^{-5} (J^{w,x^2}_{2,2}(G))^{-3/2},

    expressed through the two Fisher informations of G.
    """
    g = make_generalized_gaussian(2.0, 2.0)
    j_52 = fisher_information(g, 2.0, 2.5)
    j_w = weighted_fisher_information(g, make_power(2.0), 2.0, 2.0)
    w_const = (243.0 / 64.0) * j_52.value ** (-5.0) * j_w.value ** (-1.5)
    return {"w(G)": w_const, "J_{2,5/2}(G)": j_52.value, "J^{w,x^2}_{2,2}(G)": j_w.value}


def check_cor3(f: Density, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """(int x^2 f^2)^{-1} <= 2 w(G) (int x^4 f)^{3/2} under
    sigma_2(f) >= (2/3) J_{2,2}(G)^2."""
    g = make_generalized_gaussian(2.0, 2.0)
    one = make_constant(1.0)
    consts = cor3_constant()
    j_22 = fisher_information(g, 2.0, 2.0)
    sigma2 = generalized_deviation(f, one, 2.0)
    margins = {"sigma_2(f)-(2/3)J_{2,2}(G)^2": sigma2.value - (2.0 / 3.0) * j_22.value**2}
    n2 = weighted_renyi_power(f, make_power(2.0), 2.0)
    lhs = n2.value  # (int x^2 f^2)^{-1}
    m4 = generalized_moment(f, one, 4.0)
    rhs = 2.0 * consts["w(G)"] * m4.value**1.5
    err = n2.error + 3.0 * consts["w(G)"] * m4.value**0.5 * m4.error
    terms = {**consts, "int x^4 f": m4.value, "sigma_2(f)": sigma2.value}
    equality = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err, 1e-5)
    return _decide("cor3", lhs, rhs, margins, tol, err, terms, (), equality)


# ---------------------------------------------------------------------------
# Fisher information bound (fii) and Cramer-Rao bound (cri)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiiTerms:
    transport: TransportMap
    eta: float
    kappa: float | None
    delta: float | None
    lambda_ratio: float | None
    psib_diff: float | None
    rho1: WeightFunction | None
    rho2: WeightFunction | None
    rho_s: WeightFunction | None
    phi_tilde: WeightFunction
    case: str


def _eta_integral(
    f: Density, rho_s: WeightFunction, s: TransportMap, p: float
) -> float:
    """eta = int s(x) rho_s'(x) f(x)^p dx over the support of f."""
    if rho_s.is_constant:
        return 0.0

    def integrand(x):
        x = np.asarray(x, dtype=float)
        fx = np.asarray(f.pdf(x), dtype=float)
        out = np.zeros_like(fx)
        m = fx > 0
        if np.any(m):
            sx = np.asarray(s(x[m]), dtype=float)
            rx = np.asarray(rho_s.derivative(x[m]), dtype=float)
            out[m] = sx * rx * fx[m] ** p
        return out

    cfg = QuadratureConfig(
        abs_tol=1e-9,
        rel_tol=1e-7,
        singularities=tuple(f.singularities),
    )
    res = integrate(integrand, f.support, cfg)
    if res.status == "divergent" or not math.isfinite(res.value):
        raise DomainError("eta integral diverges")
    return res.value


def fii_terms(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    transport: TransportMap | None = None,
) -> FiiTerms:
    """Derived weights and correction terms for the Fisher bound."""
    case = select_case(alpha, p)
    g = make_generalized_gaussian(alpha, p)
    s = transport if transport is not None else build_transport(f, g)
    phi_tilde = compose_with_map(w, s)

    if case in ("p>1", "p<1") and not math.isinf(alpha):
        rho1, rho2 = derive_rho12(w, alpha, p)
        rho_s = derive_rho_s(w, s, p)
        eta = _eta_integral(f, rho_s, s, p)
        n_rho1 = weighted_renyi_power(g, rho1, p)
        kappa = eta * n_rho1.value ** (p - 1.0)
        laws = case_laws(alpha, p)
        lam = lambda_tilde if case == "p>1" else lambda_bar
        lam_y = lam(rho1, p, alpha, laws["Y"])
        lam_z = lam(rho1, p, alpha, laws["Z"])
        if lam_z <= 0:
            raise DomainError("Lambda(Z) must be positive")
        return FiiTerms(
            s, eta, kappa, None, lam_y / lam_z, None, rho1, rho2, rho_s, phi_tilde, case
        )

    if case == "p=1":
        return FiiTerms(s, 0.0, None, None, None, None, None, None, None, phi_tilde, case)

    if case == "alpha=inf":
        if p == 1.0:
            raise InputError("the alpha = inf Fisher bound needs p != 1")
        rho_s = derive_rho_s(w, s, p)
        eta = _eta_integral(f, rho_s, s, p)
        ad = antiderivatives(w)
        psib_diff = ad.psi_bar(1.0) - ad.psi_bar(-1.0)
        j_g = weighted_fisher_information(g, w, math.inf, p)
        delta = (eta / p - 2.0 ** (-1.0 - p) * psib_diff) / j_g.value
        return FiiTerms(
            s, eta, None, delta, None, psib_diff, None, None, rho_s, phi_tilde, case
        )

    raise InputError(f"no Fisher bound case for (alpha, p) = ({alpha}, {p})")


def check_fii(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
    transport: TransportMap | None = None,
) -> InequalityVerdict:
    """The Fisher information bound in its three parameter regimes."""
    _require_nonneg_weight(w, f, "the Fisher information bound")
    terms = fii_terms(f, w, alpha, p, transport)
    g = make_generalized_gaussian(alpha, p)
    case = terms.case

    if case in ("p>1", "p<1"):
        if alpha < 1.0:
            raise InputError("the Fisher bound needs alpha >= 1")
        beta = OrderParams(p, alpha).beta
        n_g = weighted_renyi_power(g, w, p)
        n_rho1 = weighted_renyi_power(g, terms.rho1, p)
        n_f = weighted_renyi_power(f, w, p)
        j_f = weighted_fisher_information(f, terms.rho2, alpha, p)
        j_g = weighted_fisher_information(g, terms.rho1, alpha, p)
        if alpha == 1.0:
            j_ratio_root = j_f.value / j_g.value
        else:
            j_ratio_root = (j_f.value / j_g.value) ** (1.0 / beta)
        lhs = (n_g.value / n_rho1.value) * (n_rho1.value / n_f.value) ** p
        rhs = j_ratio_root * terms.lambda_ratio - terms.kappa
        err = (
            abs(lhs)
            * (
                n_g.error / n_g.value
                + (1.0 + p) * n_rho1.error / n_rho1.value
                + p * n_f.error / n_f.value
            )
            + abs(j_ratio_root * terms.lambda_ratio)
            * (j_f.error / max(j_f.value, 1e-300) + j_g.error / max(j_g.value, 1e-300))
            / beta
        )
        detail = {
            "eta": terms.eta,
            "kappa": terms.kappa,
            "lambda_ratio": terms.lambda_ratio,
            "J^{rho2}(f)": j_f.value,
            "J^{rho1}(G)": j_g.value,
            "N_G": n_g.value,
            "N_rho1_G": n_rho1.value,
            "N_f": n_f.value,
        }
        warns = n_f.warnings + j_f.warnings
        eq = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err, 1e-5)
        return _decide("fii", lhs, rhs, {}, tol, err, detail, warns, eq)

    if case == "p=1":
        if alpha < 1.0:
            raise InputError("the Fisher bound needs alpha >= 1")
        beta = OrderParams(p, alpha).beta
        e_g = expectation(g, w)
        n_g = weighted_renyi_power(g, w, 1.0)
        n_f = weighted_renyi_power(f, terms.phi_tilde, 1.0)
        j_f = weighted_fisher_information(f, terms.phi_tilde, alpha, 1.0)
        j_g = weighted_fisher_information(g, w, alpha, 1.0)
        if alpha == 1.0:
            j_ratio_root = j_f.value / j_g.value  # esssup objects directly
        else:
            j_ratio_root = (j_f.value / j_g.value) ** (1.0 / beta)
        laws = case_laws(alpha, 1.0)
        theta_w = theta(w, alpha, laws["W"])
        s_phi_term = _expect_s_phi_tilde_prime(f, terms)
        base_lhs = n_g.value * e_g.value / n_f.value
        base_rhs = 0.5 * j_ratio_root * theta_w - s_phi_term
        exp_w = e_g.value
        lhs = base_lhs**exp_w
        rhs = base_rhs**exp_w if base_rhs > 0 else 0.0
        err = (
            abs(base_lhs)
            * (n_g.error / n_g.value + n_f.error / n_f.value + e_g.error)
            + 0.5 * abs(theta_w) * (j_f.error + j_g.error)
        ) * max(1.0, exp_w)
        detail = {
            "E_G[phi]": e_g.value,
            "Theta(W)": theta_w,
            "E_f[S phi~']": s_phi_term,
            "J^{phi~}(f)": j_f.value,
            "J^{phi}(G)": j_g.value,
            "base_lhs": base_lhs,
            "base_rhs": base_rhs,
        }
        eq = _densities_close(f, g) and abs(base_rhs - base_lhs) <= max(tol, err, 1e-5)
        return _decide("fii", lhs, rhs, {}, tol, err, detail, n_f.warnings, eq)

    # alpha = inf
    n_g = weighted_renyi_power(g, w, p)
    n_f = weighted_renyi_power(f, w, p)
    j_f = weighted_fisher_information(f, terms.rho_s, math.inf, p)
    j_g = weighted_fisher_information(g, w, math.inf, p)
    lhs = (n_g.value / n_f.value) ** p
    rhs = j_f.value / j_g.value - terms.delta
    err = abs(lhs) * p * (n_g.error / n_g.value + n_f.error / n_f.value) + (
        j_f.error + j_g.error
    ) / max(j_g.value, 1e-300)
    detail = {
        "eta": terms.eta,
        "Delta": terms.delta,
        "psib_diff": terms.psib_diff,
        "J^{rho_s}(f)": j_f.value,
        "J^{phi}(G)": j_g.value,
    }
    eq = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err, 1e-5)
    return _decide("fii", lhs, rhs, {}, tol, err, detail, n_f.warnings, eq)


def _expect_s_phi_tilde_prime(f: Density, terms: FiiTerms) -> float:
    """E_f[S phi~'] with phi~ = phi o s."""
    if terms.phi_tilde.is_constant:
        return 0.0
    s = terms.transport

    def integrand(x):
        x = np.asarray(x, dtype=float)
        fx = np.asarray(f.pdf(x), dtype=float)
        out = np.zeros_like(fx)
        m = fx > 0
        if np.any(m):
            sx = np.asarray(s(x[m]), dtype=float)
            dphi = np.asarray(terms.phi_tilde.derivative(x[m]), dtype=float)
            out[m] = sx * dphi * fx[m]
        return out

    cfg = QuadratureConfig(
        abs_tol=1e-9, rel_tol=1e-7, singularities=tuple(f.singularities)
    )
    res = integrate(integrand, f.support, cfg)
    if res.status == "divergent":
        raise DomainError("E_f[S phi~'] diverges")
    return res.value


def check_cri(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
    transport: TransportMap | None = None,
) -> InequalityVerdict:
    """Cramer-Rao bound: deviation-ratio left side, Fisher right side."""
    _require_nonneg_weight(w, f, "the Cramer-Rao bound")
    fii = check_fii(f, w, alpha, p, tol, transport)
    g = make_generalized_gaussian(alpha, p)
    sigma_f = generalized_deviation(f, w, alpha)
    sigma_g = generalized_deviation(g, w, alpha)
    margins = {}
    e_f = expectation(f, w)
    e_g = expectation(g, w)
    margins["E_f[phi]-E_G[phi]"] = e_f.value - e_g.value

    if math.isinf(alpha):
        lhs = sigma_g.value / sigma_f.value
        varpi = None
    elif p == 1.0:
        w_star = derive_phi_star(w, sigma_f.value, sigma_g.value)
        e_g_star = expectation(g, w_star)
        margins["E_f[phi]-E_G[phi*]"] = e_f.value - e_g_star.value
        lhs = (sigma_g.value * e_g.value / sigma_f.value) ** e_g.value
        varpi = None
    else:
        w_star = derive_phi_star(w, sigma_f.value, sigma_g.value)
        rho1, _ = derive_rho12(w, alpha, p)
        n_star = weighted_renyi_power(g, w_star, p)
        n_rho1 = weighted_renyi_power(g, rho1, p)
        n_g = weighted_renyi_power(g, w, p)
        n_f = weighted_renyi_power(f, w, p)
        varpi = n_star.value * n_rho1.value / (n_g.value * n_f.value)
        lhs = (sigma_g.value / sigma_f.value) * varpi ** (p - 1.0)
    rhs = fii.rhs
    err = fii.error + abs(lhs) * (
        sigma_f.error / sigma_f.value + sigma_g.error / sigma_g.value
    )
    detail = {
        "varpi": varpi,
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
        "fii_rhs": fii.rhs,
        **{k: v for k, v in fii.terms.items()},
    }
    eq = _densities_close(f, g) and abs(rhs - lhs) <= max(tol, err, 1e-5)
    return _decide("cri", lhs, rhs, margins, tol, err, detail, fii.warnings, eq)


# ---------------------------------------------------------------------------
# Laplace-transport corollary (cor4)
# ---------------------------------------------------------------------------


def check_cor4(
    f: Density, c: float, tol: float = DEFAULT_TOL
) -> tuple[InequalityVerdict, InequalityVerdict]:
    """Both displayed bounds of the Laplace-target transport corollary.

    Requires |c| < 1/2 (which also gives c > -1 for the first bound).
    """
    if not abs(c) < 0.5:
        raise InputError(f"cor4 needs |c| < 1/2, got c={c}")
    lap = make_laplace(1.0)
    s = build_transport(f, lap)

    median = _source_median(f)
    hints = tuple(f.singularities) + ((median,) if math.isfinite(median) else ())

    def moment(core):
        def integrand(x):
            x = np.asarray(x, dtype=float)
            fx = np.asarray(f.pdf(x), dtype=float)
            out = np.zeros_like(fx)
            m = fx > 0
            if np.any(m):
                out[m] = core(x[m]) * fx[m]
            return out

        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7, singularities=hints)
        res = integrate(integrand, f.support, cfg)
        if res.status == "divergent":
            raise DomainError("transport moment diverges")
        return res.value

    def s_and_ds(x):
        return np.asarray(s(x), dtype=float), np.asarray(s.derivative(x), dtype=float)

    def a_core(x):
        sx, dsx = s_and_ds(x)
        return np.abs(sx) ** c * dsx  # s^2 |s|^{c-2} = |s|^c

    def b_core(x):
        sx, dsx = s_and_ds(x)
        return sx * dsx * np.exp(-c * sx)

    a_term = moment(a_core)
    b_term = moment(b_core)

    def log_slope_sup(weight_fn):
        def fn(x):
            x = np.asarray(x, dtype=float)
            fx = np.asarray(f.pdf(x), dtype=float)
            dfx = np.asarray(f.dpdf(x), dtype=float)
            out = np.full_like(fx, -np.inf)
            m = fx > 0
            if np.any(m):
                out[m] = weight_fn(x[m]) * np.abs(dfx[m] / fx[m])
            return out

        val = essential_supremum(fn, f.support)
        if not math.isfinite(val):
            raise DomainError("sup of the weighted log-slope is not finite")
        return val

    # First display: weight |s|^c.
    phi1 = compose_with_map(make_power(c), s)
    n1 = weighted_renyi_power(f, phi1, 1.0)
    fact = gamma_fn(c + 1.0)
    lhs1 = (2.0 * fact * math.exp(2.0**c) / n1.value) ** fact
    sup1 = log_slope_sup(lambda x: np.abs(np.asarray(s(x), dtype=float)) ** c)
    rhs1 = fact * 2.0**c * sup1 - c * a_term
    v1 = _decide(
        "cor4-first",
        lhs1,
        rhs1,
        {},
        tol,
        max(n1.error, 1e-9),
        {"A_s": a_term, "sup|s|^c|(log f)'|": sup1, "N_{|s|^c,1}(f)": n1.value},
        n1.warnings,
        equality=_densities_close(f, lap) and abs(rhs1 - lhs1) <= max(tol, 1e-6),
    )

    # Second display: weight e^{-c s}.
    phi2 = compose_with_map(make_exp_linear(-c), s)
    n2 = weighted_renyi_power(f, phi2, 1.0)
    pref = 1.0 - 4.0 * c * c
    lhs2 = pref * (
        2.0 * math.exp((1.0 - c * c) / pref) / ((1.0 - c * c) * n2.value)
    ) ** (1.0 / (1.0 - c * c))
    sup2 = log_slope_sup(lambda x: np.exp(-c * np.asarray(s(x), dtype=float)))
    rhs2 = sup2 + c * pref * b_term
    v2 = _decide(
        "cor4-second",
        lhs2,
        rhs2,
        {},
        tol,
        max(n2.error, 1e-9),
        {"B_s": b_term, "sup e^{-cs}|(log f)'|": sup2, "N_{e^{-cs},1}(f)": n2.value},
        n2.warnings,
        equality=_densities_close(f, lap) and abs(rhs2 - lhs2) <= max(tol, 1e-6),
    )
    return v1, v2


def _source_median(f: Density) -> float:
    try:
        return quantile(f, 0.5)
    except Exception:
        return math.nan


# ---------------------------------------------------------------------------
# Integration by parts residual (lemma4)
# ---------------------------------------------------------------------------


def lemma4_residual(f, g, domain, hints=(), df=None, dg=None) -> float:
    """|int f g' + int f' g| / (1 + |int f g'|) on the domain.

    ``f`` must vanish at both endpoints (checked numerically) and ``g``
    be increasing.  Densities may be passed for f, in which case their
    pdf/derivative/support are used.
    """
    if isinstance(f, Density):
        if df is None:
            df = f.dpdf
        hints = tuple(hints) + tuple(f.singularities)
        if domain is None:
            domain = f.support
        f = f.pdf
    a, b = domain

    def _fn1(fn):
        def h(x):
            arr = np.atleast_1d(np.asarray(x, dtype=float))
            return np.array([float(fn(v)) for v in arr])

        return h

    f_vec = _fn1(f)
    g_vec = _fn1(g)
    # Boundary vanishing of f.
    for edge in (a, b):
        probe = edge
        if math.isinf(probe):
            probe = math.copysign(15.0, probe)
        if abs(float(f_vec(np.array([probe]))[0])) > 1e-6:
            raise DomainError(f"f does not vanish at the boundary {edge}")

    df_vec = _fn1(df) if df is not None else _fn1(lambda x: differentiate(f, x))
    dg_vec = _fn1(dg) if dg is not None else _fn1(lambda x: differentiate(g, x))

    cfg = QuadratureConfig(
        abs_tol=1e-10, rel_tol=1e-9, singularities=tuple(hints)
    )
    i1 = integrate(lambda x: f_vec(x) * dg_vec(x), (a, b), cfg)
    i2 = integrate(lambda x: df_vec(x) * g_vec(x), (a, b), cfg)
    if i1.status == "divergent" or i2.status == "divergent":
        raise DomainError("integration-by-parts integrals diverge")
    return abs(i1.value + i2.value) / (1.0 + abs(i1.value))
