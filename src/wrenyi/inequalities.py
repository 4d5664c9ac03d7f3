"""Inequality verification engines.

Every check returns an :class:`InequalityVerdict` with the two sides of
the bound, the slack (oriented so that the bound holds iff slack is
nonnegative within tolerance), the margins of every assumption consumed,
and a four-state verdict:

    assumptions-unmet a required margin is below -MARGIN_TOL: the bound
                      makes no claim there, whatever the slack
    inconclusive      |slack| is inside the error budget
    holds             margins satisfied, slack >= -tol
    violated          slack < -tol beyond the error budget

Each side is a numerics.Value built from its terms with plain
operators, so the error budget is the first-order propagation of every
term's quadrature error into the slack, and the warnings are those of
every term of both sides and of the margins.

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

  (both sides are raised to the power E_G[phi] in the reported lhs/rhs
  and the verdict is taken on these powered sides, which order as the
  base sides do while both are positive; a base rhs <= 0 is reported as
  rhs = 0);

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
from functools import cached_property

import numpy as np

from .densities import (
    Density,
    cdf,
    integral,
    make_generalized_gaussian,
    make_laplace,
    make_tent,
    on_support,
    quantile,
    scale_density,
    supremum,
)
from .errors import DomainError, InputError
from .gaussian_forms import case_laws, lambda_bar, lambda_tilde, select_case, theta
from .measures import (
    MeasureValue,
    expectation,
    fisher_information,
    generalized_deviation,
    generalized_moment,
    relative_renyi_entropy,
    weighted_fisher_information,
    weighted_renyi_power,
)
from .numerics import QuadratureConfig, Value, _merge, gamma_fn, relative_residual
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
    "build_transport",
    "check_thm11",
    "check_mei",
    "check_scaling_identity",
    "check_cor1",
    "check_cor2",
    "check_cor3",
    "check_fii",
    "check_cor4",
    "check_cri",
    "lemma4_residual",
]

DEFAULT_TOL = 1e-8
MARGIN_TOL = 1e-9
# Tolerances of the transport moments int s(x) weight'(x) f(x)^q dx.
_MOMENT_CONFIG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7)
# Tolerances of the two integration-by-parts integrals of lemma4.
_LEMMA4_CONFIG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9)
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
    lhs: Value,
    rhs: Value,
    margins: dict[str, Value],
    tol: float,
    terms: dict,
    extremal: tuple[Density, Density],
    floor: float = 0.0,
) -> InequalityVerdict:
    """The verdict on lhs <= rhs.

    The error is that of the slack rhs - lhs, and the warnings are those
    of both sides and of the margins.  ``extremal`` is the pair (f, the
    density of the equality case): the bound is an equality when f is
    close to it and |slack| <= max(tol, error, floor).
    """
    slack = rhs - lhs
    err = slack.error
    if any(m.value < -MARGIN_TOL for m in margins.values()):
        verdict = "assumptions-unmet"
    elif slack.value == math.inf:  # decided by its sign, though its error is infinite too
        verdict = "holds"
    elif abs(slack.value) <= err and err > tol:
        verdict = "inconclusive"
    elif slack.value >= -tol:
        verdict = "holds"
    else:
        verdict = "violated"
    equality = _densities_close(*extremal) and abs(slack.value) <= max(tol, err, floor)
    return InequalityVerdict(
        inequality_id,
        lhs.value,
        rhs.value,
        slack.value,
        {k: m.value for k, m in margins.items()},
        verdict,
        tol,
        err,
        equality,
        terms,
        _merge(slack.warnings, *(m.warnings for m in margins.values())),
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

    Evaluated as s = Q_G(F_f(x)) with the target's ``quantile_fn``.  A
    scalar in gives a float out; an array gives a fresh ndarray of the
    same shape.

    The map keeps its last (points, images) pair: an integrand often
    evaluates s and then s' on the same nodes, and a repeat still costs a
    CDF and a quantile evaluation per point.  On fii and cri of three
    weighted Laplace sources, 24 of 54 map calls repeat the batch before
    them, and the memo takes about 19% off those checks (41.0 -> 33.0 ms
    on a 2-CPU Intel Xeon host) for 40 us of keys.
    """

    source: Density
    target: Density
    k: float
    _last: list = field(default_factory=lambda: [None], init=False, compare=False, repr=False)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        key = (arr.shape, arr.tobytes())
        last = self._last[0]  # one read and one write: safe under concurrent calls
        if last is None or last[0] != key:
            images = on_support(arr, self.source.support, -self.k, self.k, self._interior)
            last = self._last[0] = (key, images)
        return last[1] if arr.ndim == 0 else last[1].copy()

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

    def value_and_derivative(self, x):
        """(s(x), s'(x)) from one evaluation of s, with s' = f / G(s) where G(s) > 0."""
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        sx = np.atleast_1d(np.asarray(self(flat), dtype=float))
        fx = np.asarray(self.source.pdf(flat), dtype=float)
        gx = np.asarray(self.target.pdf(sx), dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dsx = np.where(gx > 0, fx / gx, 0.0)
        if arr.ndim == 0:
            return float(sx[0]), float(dsx[0])
        return sx, dsx


def build_transport(f: Density, target: Density) -> TransportMap:
    """CDF-matching increasing map from f onto the target density.

    Two checks: s is nondecreasing on a 101-point grid over the bulk of f,
    and the target's round trip F_G(Q_G(q)) returns q to 1e-8 at 21
    levels.  Since s = Q_G(F_f), matching F_f(x) = F_G(s(x)) is that
    round trip at u = F_f(x), so f is read only through s on the grid.
    """
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
    # CDF match: the target's round trip at interior levels, in one batch.
    probes = np.linspace(0.02, 0.98, 21)
    errs = np.abs(probes - cdf(target, target.quantile_fn(probes)))
    for q, err in zip(probes.tolist(), errs.tolist()):
        if err > 1e-8:
            raise DomainError(
                f"transport CDF match failed at q={q:.3f} (err={err:.2e})"
            )
    return s


# ---------------------------------------------------------------------------
# The terms of one (f, w, alpha, p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Problem:
    """The terms the mei, cor1, fii and cri checks read from (f, w, alpha, p).

    G is the generalized Gaussian of order (alpha, p) and s the transport
    from f onto G.  Each term is computed on first use and then kept, so a
    check computes none of them twice.  A check takes its terms in a fixed
    order: that order decides which error a bad input reports first.
    """

    f: Density
    w: WeightFunction
    alpha: float
    p: float

    @cached_property
    def g(self) -> Density:
        return make_generalized_gaussian(self.alpha, self.p)

    @cached_property
    def s(self) -> TransportMap:
        return build_transport(self.f, self.g)

    @cached_property
    def rho12(self) -> tuple[WeightFunction, WeightFunction]:
        return derive_rho12(self.w, self.alpha, self.p)

    @cached_property
    def rho_s(self) -> WeightFunction:
        return derive_rho_s(self.w, self.s, self.p)

    @cached_property
    def sigma_f(self) -> MeasureValue:
        return generalized_deviation(self.f, self.w, self.alpha)

    @cached_property
    def sigma_g(self) -> MeasureValue:
        return generalized_deviation(self.g, self.w, self.alpha)

    @cached_property
    def w_star(self) -> WeightFunction:
        return derive_phi_star(self.w, self.sigma_f.value, self.sigma_g.value)

    @cached_property
    def n_f(self) -> MeasureValue:
        return weighted_renyi_power(self.f, self.w, self.p)

    @cached_property
    def n_g(self) -> MeasureValue:
        return weighted_renyi_power(self.g, self.w, self.p)

    @cached_property
    def n_g_star(self) -> MeasureValue:
        if self.w_star is self.w:  # t = 1 or a constant weight: phi* = phi
            return self.n_g
        return weighted_renyi_power(self.g, self.w_star, self.p)

    @cached_property
    def n_rho1(self) -> MeasureValue:
        return weighted_renyi_power(self.g, self.rho12[0], self.p)

    @cached_property
    def e_f(self) -> MeasureValue:
        return expectation(self.f, self.w)

    @cached_property
    def e_g(self) -> MeasureValue:
        return expectation(self.g, self.w)

    @cached_property
    def e_g_star(self) -> MeasureValue:
        if self.w_star is self.w:
            return self.e_g
        return expectation(self.g, self.w_star)

    @cached_property
    def eta(self) -> Value:
        """int s rho_s' f^p over the support of f."""
        return self.s_moment(self.rho_s, self.p, "eta integral")

    def s_moment(self, weight: WeightFunction, q: float, what: str) -> Value:
        """int s(x) weight'(x) f(x)^q dx over the support of f."""
        if weight.is_constant:
            return Value(0.0)
        s = self.s

        def core(x, fx):  # 0 where s = 0, the limit of s weight' (weight' may read nan there)
            sx = np.asarray(s(x), dtype=float)
            dw = np.asarray(weight.derivative(x), dtype=float)
            return np.where(sx == 0, 0.0, sx * dw * fx**q)

        return integral(self.f, core, what, config=_MOMENT_CONFIG)


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
        margins["E_f[phi]-E_g[phi]"] = Value(d.flags.get("E_f[phi]-E_g[phi]", 0.0))
    terms = {"divergence": d.value, "branch": d.branch, **d.flags}
    return _decide("thm1.1", Value(0.0), d, margins, tol, terms, (f, g))


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
    pr = _Problem(f, w, alpha, p)
    # phi* is derived before any N is computed; a bad input reports that error first.
    g, sigma_f, sigma_g, _ = pr.g, pr.sigma_f, pr.sigma_g, pr.w_star
    n_f, n_g, n_g_star = pr.n_f, pr.n_g, pr.n_g_star
    e_f, e_g = pr.e_f, pr.e_g
    margins = {"E_f[phi]-E_G[phi]": e_f - e_g}
    if p == 1.0:
        margins["E_f[phi]-E_G[phi*]"] = e_f - pr.e_g_star

    lhs = n_f / sigma_f
    rhs = n_g**p * n_g_star ** (1.0 - p) / sigma_g
    terms = {
        "t_phi": sigma_f.value / sigma_g.value,
        "N_f": n_f.value,
        "N_G": n_g.value,
        "N_G_star": n_g_star.value,
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
    }
    return _decide("mei", lhs, rhs, margins, tol, terms, (f, g))


def check_scaling_identity(
    w: WeightFunction, g: Density, t: float, p: float
) -> float:
    """Relative residual of int phi G_t^p = t^(1-p) int phi(t x) G^p dx."""
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    lhs = integral(
        scale_density(g, t),
        lambda x, gx: np.asarray(w(x), dtype=float) * gx**p,
        "scaling-identity lhs",
        w,
    )
    rhs = integral(
        g,
        lambda x, gx: np.asarray(w(t * x), dtype=float) * gx**p,
        "scaling-identity rhs",
        hints=tuple(k / t for k in w.kinks),
    )
    return relative_residual(lhs, t ** (1.0 - p) * rhs)


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
            "E|X|^c - c!": e_c - fact_c,
            "E|X|^c - (E|X|^{c+1})^c/(c+1)": e_c - e_c1**c / (c + 1.0),
        }
        n_f = weighted_renyi_power(f, w, 1.0)
        lhs = gamma_fn(c + 2.0) * n_f / (2.0 * math.exp(c + 1.0))
        terms = {"N_f": n_f.value, "E|X|^c": e_c.value, "E|X|^{c+1}": e_c1.value}
        return _decide("cor1", lhs, e_c1, margins, tol, terms, (f, make_laplace(1.0)), floor=1e-7)

    pr = _Problem(f, w, alpha, p)
    g, sigma_f, sigma_g = pr.g, pr.sigma_f, pr.sigma_g
    n_f, n_g, e_f, e_g = pr.n_f, pr.n_g, pr.e_f, pr.e_g
    margins = {"E_f[|X|^c]-E_G[|X|^c]": e_f - e_g}
    if p == 1.0:
        one = make_constant(1.0)
        s_f = generalized_deviation(f, one, c + alpha)
        s_g = generalized_deviation(g, one, c + alpha)
        t_c = (s_f / s_g) ** (c * (c + alpha) / alpha)
        margins["E_f[|X|^c]-t_c*E_G[|X|^c]"] = e_f - t_c * e_g
    # Displayed as sigma_f^{c+1}/N_f >= sigma_G^{c+1}/N_G; normalize to <=.
    lhs = sigma_g ** (c + 1.0) / n_g
    rhs = sigma_f ** (c + 1.0) / n_f
    terms = {
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
        "N_f": n_f.value,
        "N_G": n_g.value,
        "C_alpha": (c + 1.0) * (c + alpha) / alpha,
    }
    return _decide("cor1", lhs, rhs, margins, tol, terms, (f, g))


def _m_constant(c: float) -> float:
    return 2.0 ** (2.0 - c) / ((c + 3.0) ** (2.0 - c) * (c + 2.0) ** (1.0 - c))


def check_cor2(f: Density, c: float, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """m(c) (int |x|^{c+1} f)^{c-1} <= int |x|^c f^2 for c + 2 > 0,
    under E_f[|X|^c] >= 2/((c+2)(c+1)); equality at the tent density."""
    if not c + 2.0 > 0:
        raise InputError(f"cor2 needs c + 2 > 0, got c={c}")
    w = make_power(c)
    e_c = expectation(f, w)
    margins = {"E|X|^c - 2/((c+2)(c+1))": e_c - 2.0 / ((c + 2.0) * (c + 1.0))}
    mom = expectation(f, make_power(c + 1.0))
    n2 = weighted_renyi_power(f, w, 2.0)  # N = (int |x|^c f^2)^{-1}
    rhs = 1.0 / n2
    lhs = _m_constant(c) * mom ** (c - 1.0)
    terms = {"m(c)": _m_constant(c), "E|X|^{c+1}": mom.value, "int|x|^c f^2": rhs.value}
    return _decide("cor2", lhs, rhs, margins, tol, terms, (f, make_tent()), floor=1e-7)


def cor3_constant(g: Density) -> dict[str, Value]:
    """The quadratic-Gaussian constants of the fourth-moment bound.

    With G = (3/4)(1-x^2)_+ (``g``, the generalized Gaussian of order
    (2, 2)) the bound reads

        (int x^2 f^2)^{-1} <= 2 w(G) (int x^4 f)^{3/2},

    with equality at f = G.  Matching the equality case fixes

        2 w(G) = N_{x^2,2}(G) / sigma_{x^2,2}(G)^3
               = (243/32) (J_{2,5/2}(G))^{-5} (J^{w,x^2}_{2,2}(G))^{-3/2},

    expressed through the two Fisher informations of G.
    """
    j_52 = fisher_information(g, 2.0, 2.5)
    j_w = weighted_fisher_information(g, make_power(2.0), 2.0, 2.0)
    w_const = (243.0 / 64.0) * j_52 ** (-5.0) * j_w ** (-1.5)
    return {"w(G)": w_const, "J_{2,5/2}(G)": j_52, "J^{w,x^2}_{2,2}(G)": j_w}


def check_cor3(f: Density, tol: float = DEFAULT_TOL) -> InequalityVerdict:
    """(int x^2 f^2)^{-1} <= 2 w(G) (int x^4 f)^{3/2} under
    sigma_2(f) >= (2/3) J_{2,2}(G)^2."""
    g = make_generalized_gaussian(2.0, 2.0)
    one = make_constant(1.0)
    consts = cor3_constant(g)
    j_22 = fisher_information(g, 2.0, 2.0)
    sigma2 = generalized_deviation(f, one, 2.0)
    margins = {"sigma_2(f)-(2/3)J_{2,2}(G)^2": sigma2 - (2.0 / 3.0) * j_22**2}
    n2 = weighted_renyi_power(f, make_power(2.0), 2.0)  # (int x^2 f^2)^{-1}
    m4 = generalized_moment(f, one, 4.0)
    rhs = 2.0 * consts["w(G)"] * m4**1.5
    terms = {k: v.value for k, v in consts.items()}
    terms.update({"int x^4 f": m4.value, "sigma_2(f)": sigma2.value})
    return _decide("cor3", n2, rhs, margins, tol, terms, (f, g), floor=1e-5)


# ---------------------------------------------------------------------------
# Fisher information bound (fii) and Cramer-Rao bound (cri)
# ---------------------------------------------------------------------------


def check_fii(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
) -> InequalityVerdict:
    """The Fisher information bound in its three parameter regimes."""
    _require_nonneg_weight(w, f, "the Fisher information bound")
    pr = _Problem(f, w, alpha, p)
    lhs, rhs, detail = _fii_sides(pr)
    return _decide("fii", lhs, rhs, {}, tol, detail, (f, pr.g), floor=1e-5)


def _fii_sides(pr: _Problem) -> tuple[Value, Value, dict]:
    """(lhs, rhs, terms) of the Fisher information bound."""
    f, w, alpha, p = pr.f, pr.w, pr.alpha, pr.p
    case = select_case(alpha, p)
    # The transport is built, and checked, before any case-specific term.
    g, _ = pr.g, pr.s

    if case in ("p>1", "p<1"):
        rho1, rho2 = pr.rho12
        kappa = pr.eta * pr.n_rho1 ** (p - 1.0)
        laws = case_laws(alpha, p)
        lam = lambda_tilde if case == "p>1" else lambda_bar
        lam_y = lam(rho1, p, alpha, laws["Y"])
        lam_z = lam(rho1, p, alpha, laws["Z"])
        if lam_z.value <= 0:
            raise DomainError("Lambda(Z) must be positive")
        lambda_ratio = lam_y / lam_z
        beta = holder_conjugate(alpha)
        n_g, n_rho1, n_f = pr.n_g, pr.n_rho1, pr.n_f
        j_f = weighted_fisher_information(f, rho2, alpha, p)
        j_g = weighted_fisher_information(g, rho1, alpha, p)
        j_ratio_root = (j_f / j_g) ** (1.0 / beta)
        lhs = (n_g / n_rho1) * (n_rho1 / n_f) ** p
        rhs = j_ratio_root * lambda_ratio - kappa
        detail = {
            "eta": pr.eta.value,
            "kappa": kappa.value,
            "lambda_ratio": lambda_ratio.value,
            "J^{rho2}(f)": j_f.value,
            "J^{rho1}(G)": j_g.value,
            "N_G": n_g.value,
            "N_rho1_G": n_rho1.value,
            "N_f": n_f.value,
        }
        return lhs, rhs, detail

    if case == "p=1":
        if alpha < 1.0:
            raise InputError("the Fisher bound needs alpha >= 1")
        beta = holder_conjugate(alpha)
        e_g, n_g = pr.e_g, pr.n_g
        phi_tilde = compose_with_map(w, pr.s)
        n_f = weighted_renyi_power(f, phi_tilde, 1.0)
        j_f = weighted_fisher_information(f, phi_tilde, alpha, 1.0)
        j_g = weighted_fisher_information(g, w, alpha, 1.0)
        if alpha == 1.0:
            j_ratio_root = j_f / j_g  # esssup objects directly
        else:
            j_ratio_root = (j_f / j_g) ** (1.0 / beta)
        theta_w = theta(w, alpha, case_laws(alpha, 1.0)["W"])
        s_phi_term = pr.s_moment(phi_tilde, 1.0, "E_f[S phi~']")
        base_lhs = n_g * e_g / n_f
        base_rhs = 0.5 * j_ratio_root * theta_w - s_phi_term
        lhs = base_lhs**e_g
        rhs = base_rhs**e_g if base_rhs.value > 0 else Value(0.0, 0.0, base_rhs.warnings)
        detail = {
            "E_G[phi]": e_g.value,
            "Theta(W)": theta_w.value,
            "E_f[S phi~']": s_phi_term.value,
            "J^{phi~}(f)": j_f.value,
            "J^{phi}(G)": j_g.value,
            "base_lhs": base_lhs.value,
            "base_rhs": base_rhs.value,
        }
        return lhs, rhs, detail

    if case == "alpha=inf":
        if p == 1.0:
            raise InputError("the alpha = inf Fisher bound needs p != 1")
        eta = pr.eta
        _, psib_diff = antiderivatives(w)
        j_g = weighted_fisher_information(g, w, math.inf, p)
        delta = (eta / p - 2.0 ** (-1.0 - p) * psib_diff) / j_g
        n_g, n_f = pr.n_g, pr.n_f
        j_f = weighted_fisher_information(f, pr.rho_s, math.inf, p)
        lhs = (n_g / n_f) ** p
        rhs = j_f / j_g - delta
        detail = {
            "eta": eta.value,
            "Delta": delta.value,
            "psib_diff": float(psib_diff),
            "J^{rho_s}(f)": j_f.value,
            "J^{phi}(G)": j_g.value,
        }
        return lhs, rhs, detail

    raise InputError(f"no Fisher bound case for (alpha, p) = ({alpha}, {p})")


def check_cri(
    f: Density,
    w: WeightFunction,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
) -> InequalityVerdict:
    """Cramer-Rao bound: deviation-ratio left side, Fisher right side."""
    _require_nonneg_weight(w, f, "the Cramer-Rao bound")
    pr = _Problem(f, w, alpha, p)
    _, rhs, fii_terms = _fii_sides(pr)
    g, sigma_f, sigma_g, e_f, e_g = pr.g, pr.sigma_f, pr.sigma_g, pr.e_f, pr.e_g
    margins = {"E_f[phi]-E_G[phi]": e_f - e_g}

    varpi = None
    if alpha == math.inf:
        lhs = sigma_g / sigma_f
    elif p == 1.0:
        margins["E_f[phi]-E_G[phi*]"] = e_f - pr.e_g_star
        lhs = (sigma_g * e_g / sigma_f) ** e_g
    else:
        varpi = pr.n_g_star * pr.n_rho1 / (pr.n_g * pr.n_f)
        lhs = (sigma_g / sigma_f) * varpi ** (p - 1.0)
    detail = {
        "varpi": None if varpi is None else varpi.value,
        "sigma_f": sigma_f.value,
        "sigma_G": sigma_g.value,
        "fii_rhs": rhs.value,
        **fii_terms,
    }
    return _decide("cri", lhs, rhs, margins, tol, detail, (f, g), floor=1e-5)


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

    # An overflow in a deep tail gives a non-finite integrand, which the
    # quadrature reports as a numeric error rather than a RuntimeWarning.
    def a_core(x, fx):
        sx, dsx = s.value_and_derivative(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.abs(sx) ** c * dsx * fx  # s^2 |s|^{c-2} = |s|^c

    def b_core(x, fx):
        sx, dsx = s.value_and_derivative(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return sx * dsx * np.exp(-c * sx) * fx

    # A_s and B_s enter the bounds only times c: at c = 0 neither is computed.
    a_term = b_term = None
    if c:
        hints = (quantile(f, 0.5),)
        a_term = integral(f, a_core, "transport moment", hints=hints, config=_MOMENT_CONFIG)
        b_term = integral(f, b_core, "transport moment", hints=hints, config=_MOMENT_CONFIG)

    def log_slope_sup(weight_fn):
        def core(x, fx):
            return weight_fn(x) * np.abs(np.asarray(f.dpdf(x), dtype=float) / fx)

        return supremum(f, core, "sup of the weighted log-slope")

    # First display: weight |s|^c.
    phi1 = compose_with_map(make_power(c), s)
    n1 = weighted_renyi_power(f, phi1, 1.0)
    fact = gamma_fn(c + 1.0)
    lhs1 = (2.0 * fact * math.exp(2.0**c) / n1) ** fact
    sup1 = log_slope_sup(lambda x: np.abs(np.asarray(s(x), dtype=float)) ** c)
    rhs1 = fact * 2.0**c * sup1 - (c * a_term if c else 0.0)
    terms1 = {
        "A_s": None if a_term is None else a_term.value,
        "sup|s|^c|(log f)'|": sup1.value,
        "N_{|s|^c,1}(f)": n1.value,
    }
    v1 = _decide("cor4-first", lhs1, rhs1, {}, tol, terms1, (f, lap), floor=1e-6)

    # Second display: weight e^{-c s}.
    phi2 = compose_with_map(make_exp_linear(-c), s)
    n2 = weighted_renyi_power(f, phi2, 1.0)
    pref = 1.0 - 4.0 * c * c
    lhs2 = pref * (
        2.0 * math.exp((1.0 - c * c) / pref) / ((1.0 - c * c) * n2)
    ) ** (1.0 / (1.0 - c * c))
    sup2 = log_slope_sup(lambda x: np.exp(-c * np.asarray(s(x), dtype=float)))
    rhs2 = sup2 + (c * pref * b_term if c else 0.0)
    terms2 = {
        "B_s": None if b_term is None else b_term.value,
        "sup e^{-cs}|(log f)'|": sup2.value,
        "N_{e^{-cs},1}(f)": n2.value,
    }
    v2 = _decide("cor4-second", lhs2, rhs2, {}, tol, terms2, (f, lap), floor=1e-6)
    return v1, v2


# ---------------------------------------------------------------------------
# Integration by parts residual (lemma4)
# ---------------------------------------------------------------------------


def lemma4_residual(f: Density, g, dg) -> float:
    """Relative residual of int f g' = -int f' g over the support of f.

    ``f`` must vanish at both ends of its support (checked numerically);
    ``g`` is increasing and ``dg`` its derivative, both vectorized.
    """
    for edge in f.support:
        probe = edge if math.isfinite(edge) else math.copysign(15.0, edge)
        if abs(float(f.pdf(probe))) > 1e-6:
            raise DomainError(f"f does not vanish at the boundary {edge}")
    what = "integration-by-parts int "
    i1 = integral(f, lambda x, fx: fx * dg(x), what + "f g'", config=_LEMMA4_CONFIG)
    i2 = integral(f, lambda x, fx: f.dpdf(x) * g(x), what + "f' g", config=_LEMMA4_CONFIG)
    return relative_residual(i1, -i2)
