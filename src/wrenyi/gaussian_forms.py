"""Semi-closed forms for the measures of the generalized p-Gaussian G.

All three measures of G (Renyi power N, generalized deviation sigma,
weighted Fisher information J) reduce to one-dimensional expectations
against Beta or Gamma laws.  With a = the normalization constant of G
and beta the Holder conjugate of alpha:

  LambdaT(Z) = E[ phi(-((1-Z)/(p-1))^(1/alpha)) + phi(+...) ]
  LambdaB(Z) = E[ phi(-((1-Z)/(Z(1-p)))^(1/alpha)) + phi(+...) ]
  Theta_a(Z) = E[ phi(-Z^(1/alpha)) + phi(Z^(1/alpha)) ]
  Upsilon(Z) = E[ phi(-e^(-Z)) + phi(e^(-Z)) ]

* alpha in (0,inf), p > 1, with Z ~ Beta((2p-1)/(p-1), 1/alpha) and
  Y ~ Beta(p/(p-1), (alpha+1)/alpha):

      N     = a^-1 2^(1/(p-1)) (p a / (p a + p - 1))^(1/(1-p))
              * LambdaT(Z)^(1/(1-p))                      [a := alpha here]
      sigma = ((2 (p alpha + p - 1))^-1 LambdaT(Y))^(1/alpha)
      J     = (2 (alpha p + p - 1))^-1 a^(beta (p-1)) alpha^beta LambdaT(Y)

  (Substituting the direct-quadrature route fixes the Beta shape order
  of Z; the first shape is (2p-1)/(p-1), pairing the (1-Z) argument of
  LambdaT with a Beta(1/alpha, .) variate as in the Y case.)

* alpha in (0,inf), p in (1/(1+alpha), 1): the same three displays with
  LambdaB and ZB, YB ~ Beta((p(alpha+1)-1)/(alpha(1-p)), 1/alpha resp.
  (alpha+1)/alpha).

* alpha in (0,inf), p = 1, W ~ Gamma((alpha+1)/alpha), WB ~ Gamma(1/alpha):

      N     = a^-1 exp(Theta(W) / (alpha Theta(WB)))
      sigma = ((2 alpha)^-1 Theta(W))^(1/alpha)
      J     = 2^-1 alpha^(beta-1) Theta(W)

* alpha = 0, p > 1, X ~ Gamma((2p-1)/(p-1)), XT ~ Gamma(p/(p-1)):

      N     = a^-1 (p/(2(p-1)))^(1/(1-p)) Upsilon(X)^(1/(1-p))
      sigma = exp(-(p/(p-1)) Upsilon(X) / Upsilon(XT))

  (The exponent p/(p-1) and the law X are forced by direct computation:
  int phi G log|x| = -a Gamma((2p-1)/(p-1)) Upsilon(X) while
  E_G[phi] = a Gamma(p/(p-1)) Upsilon(XT).)

* alpha = inf, p > 0, psi(x) = int_0^x phi, psib(x) = int_0^x phi':

      N     = 2^(p/(p-1)) (psi(1) - psi(-1))^(1/(1-p))    (p != 1; N = 2 at p = 1)
      sigma = esssup{ phi(x) |x| : |x| <= 1 }
      J     = (p 2^p)^-1 (psi(1)-psi(-1)) - 2^(-1-p) (psib(1)-psib(-1))

Consistency identities checked by :func:`verify_identity`:

      [N]^(1-p) = p sigma J^(1/beta) LambdaT(Z)/LambdaT(Y)      (p > 1)
      [N]^(1-p) = p sigma J^(1/beta) LambdaB(ZB)/LambdaB(YB)    (p < 1)
      2 sigma J^(1/beta) = Theta(W)                             (p = 1)
      [N]^(1-p) = p J + p 2^(-1-p) (psib(1)-psib(-1))           (alpha = inf)

(the sign of the psib term in the last identity is fixed so that it is
an algebraic identity given the J display above; both sides then equal
2^-p (psi(1)-psi(-1)) exactly).

At alpha = inf the formulas read psi and psib only through the two
differences psi(1)-psi(-1) and psib(1)-psib(-1), which is what
weights.antiderivatives returns.

For a weight phi = sum c |x|^e (const, pow, abspoly) the expectations
are Beta/Gamma moments, with k = e/alpha and Z ~ Beta(s1, s2) or
Gamma(s), each ratio taken in log space (math.lgamma):

  LambdaT = sum 2 c (p-1)^-k B(s1, s2+k) / B(s1, s2)
  LambdaB = sum 2 c (1-p)^-k B(s1-k, s2+k) / B(s1, s2)
  Theta   = sum 2 c Gamma(s+k) / Gamma(s)
  Upsilon = sum 2 c (1+e)^-s

and a moment that does not exist (s2 + k, s1 - k, s + k or 1 + e not
positive) is a DomainError "<name> diverges".  A term c |x|^e e^{gamma x}
(expw, and phi* or a power of it) enters as the even part
phi(-u) + phi(u) = 2 c u^e cosh(gamma u), summed as the series
sum_j gamma^(2j)/(2j)! E[u^(e+2j)] of the moments above
(densities._even_series): it converges for every gamma on LambdaT and
Upsilon (u bounded) and on Theta at alpha > 1; Theta at alpha = 1 (u = Z)
is the exact Gamma(s+e)/Gamma(s) [(1-gamma)^-(s+e) + (1+gamma)^-(s+e)] / 2,
finite for |gamma| < 1; LambdaB (a power tail in u) and Theta at
alpha < 1 "diverge in the tail" for any gamma != 0.  Every other weight
is quadrature against the law.  Every expectation, and each difference
where quadrature gives it, is a numerics.Value, so N, sigma and J carry
the errors of the integrals behind them (none for a sum of powers, the
truncation and rounding bound of a series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import _even_series, _tail_rate, gg_norm_const
from .errors import DomainError, InputError
from .numerics import (
    QuadratureConfig,
    Value,
    _masked,
    beta_fn,
    essential_supremum,
    gamma_fn,
    integrate,
    relative_residual,
)
from .weights import WeightFunction, antiderivatives, holder_conjugate

__all__ = [
    "AuxiliaryLaw",
    "GaussianMeasureSet",
    "beta_law",
    "gamma_law",
    "case_laws",
    "lambda_tilde",
    "lambda_bar",
    "theta",
    "upsilon",
    "gaussian_measures",
    "verify_identity",
    "select_case",
]


@dataclass(frozen=True)
class AuxiliaryLaw:
    """Beta(shape1, shape2) on (0,1) or Gamma(shape, rate 1) on (0,inf)."""

    family: str
    shape1: float
    shape2: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("beta", "gamma"):
            raise InputError(f"unknown auxiliary law {self.family!r}")
        if not self.shape1 > 0 or (self.family == "beta" and not self.shape2 > 0):
            raise InputError(
                f"auxiliary law shapes must be positive, got "
                f"({self.shape1}, {self.shape2})"
            )

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "beta":
                out = (
                    x ** (self.shape1 - 1.0)
                    * (1.0 - x) ** (self.shape2 - 1.0)
                    / beta_fn(self.shape1, self.shape2)
                )
                return np.where((x > 0) & (x < 1), out, 0.0)
            out = x ** (self.shape1 - 1.0) * np.exp(-x) / gamma_fn(self.shape1)
            return np.where(x > 0, out, 0.0)

    def expectation(self, fn) -> Value:
        """E[fn(Z)] by quadrature against the law's pdf, with its error.

        Beta expectations are split at 1/2 and the right half integrated
        in the reflected variable v = 1 - z, so that a (1-z)^(shape2-1)
        endpoint singularity is evaluated from an exactly representable
        offset (tanh-sinh nodes at 1 - v with v < 2^-53 would otherwise
        collapse onto the endpoint).
        """
        what = "auxiliary expectation"
        if self.family == "gamma":
            cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
            integrand = _masked(self, lambda x, px: np.asarray(fn(x), dtype=float) * px)
            return integrate(integrand, (0.0, math.inf), cfg).checked(what)

        s1, s2 = self.shape1, self.shape2
        norm = beta_fn(s1, s2)

        def left(z):
            z = np.asarray(z, dtype=float)
            return (
                np.asarray(fn(z), dtype=float)
                * z ** (s1 - 1.0)
                * (1.0 - z) ** (s2 - 1.0)
                / norm
            )

        def right(v):
            v = np.asarray(v, dtype=float)
            return (
                np.asarray(fn(1.0 - v), dtype=float)
                * (1.0 - v) ** (s1 - 1.0)
                * v ** (s2 - 1.0)
                / norm
            )

        def half(g, shape):
            sing = (0.0,) if shape < 1 else ()
            cfg = QuadratureConfig(abs_tol=5e-12, rel_tol=1e-10, singularities=sing)
            return integrate(g, (0.0, 0.5), cfg).checked(what)

        return half(left, s1) + half(right, s2)


def beta_law(shape1: float, shape2: float) -> AuxiliaryLaw:
    return AuxiliaryLaw("beta", shape1, shape2)


def gamma_law(shape: float) -> AuxiliaryLaw:
    return AuxiliaryLaw("gamma", shape)


def select_case(alpha: float, p: float) -> str:
    """Which parameter regime (alpha, p) falls into."""
    if alpha == math.inf:
        if not p > 0:
            raise InputError("alpha = inf requires p > 0")
        return "alpha=inf"
    if alpha == 0.0:
        if not p > 1:
            raise InputError("alpha = 0 requires p > 1")
        return "alpha=0"
    if not alpha > 0:
        raise InputError(f"alpha must be in [0, inf], got {alpha}")
    if p > 1:
        return "p>1"
    if p == 1.0:
        return "p=1"
    if p > 1.0 / (1.0 + alpha):
        return "p<1"
    raise InputError(f"(alpha, p) = ({alpha}, {p}) lies outside every regime")


def case_laws(alpha: float, p: float) -> dict[str, AuxiliaryLaw]:
    """The auxiliary laws attached to the regime of (alpha, p)."""
    case = select_case(alpha, p)
    if case == "p>1":
        return {
            "Z": beta_law((2.0 * p - 1.0) / (p - 1.0), 1.0 / alpha),
            "Y": beta_law(p / (p - 1.0), (alpha + 1.0) / alpha),
        }
    if case == "p<1":
        s1 = (p * (alpha + 1.0) - 1.0) / (alpha * (1.0 - p))
        return {
            "Z": beta_law(s1, 1.0 / alpha),
            "Y": beta_law(s1, (alpha + 1.0) / alpha),
        }
    if case == "p=1":
        return {
            "W": gamma_law((alpha + 1.0) / alpha),
            "Wbar": gamma_law(1.0 / alpha),
        }
    if case == "alpha=0":
        return {
            "X": gamma_law((2.0 * p - 1.0) / (p - 1.0)),
            "Xtilde": gamma_law(p / (p - 1.0)),
        }
    return {}


# ---------------------------------------------------------------------------
# Auxiliary expectations
# ---------------------------------------------------------------------------


def _expectation(w: WeightFunction, law: AuxiliaryLaw, arg, family: str, name: str, log_mean,
                 rate: float = math.inf, shift: float = 0.0):
    """E[phi(-u) + phi(u)] with u = arg(Z), Z ~ ``law``.

    For a weight with terms c |x|^e e^{gamma x} and a law of ``family`` it is
    sum 2 c E[u^e cosh(gamma u)] from densities._even_series, with
    ``log_mean(e)`` = log E[u^e], or None where that mean is infinite, which
    is a DomainError "<name> diverges", and ``rate``/``shift`` u's tail;
    otherwise quadrature against the law.
    """
    if w.terms is None or law.family != family:

        def fn(z):
            a = np.asarray(arg(np.asarray(z, dtype=float)), dtype=float)
            return np.asarray(w(-a), dtype=float) + np.asarray(w(a), dtype=float)

        return law.expectation(fn)

    def checked_mean(e):
        log_m = log_mean(e)
        if log_m is None:
            raise DomainError(f"{name} diverges: E[u^{e:.6g}] is infinite")
        return log_m

    total = error = 0.0
    for c, s, err in _even_series(w.terms, checked_mean, name, rate, shift):
        total += 2.0 * c * s
        error += 2.0 * abs(c) * err
    return Value(total, error)


def _log_gamma_ratio(x: float, k: float) -> float:
    """log(Gamma(x + k) / Gamma(x)), exactly 0 at k = 0."""
    return math.lgamma(x + k) - math.lgamma(x)


def lambda_tilde(w: WeightFunction, p: float, alpha: float, law: AuxiliaryLaw) -> Value:
    """E[phi(-u) + phi(u)] with u = ((1-Z)/(p-1))^(1/alpha); needs p > 1.

    For phi = sum c |x|^e: sum 2 c (p-1)^-k B(s1, s2+k)/B(s1, s2), k = e/alpha.
    """
    if not p > 1:
        raise InputError(f"LambdaT is the p > 1 transform, got p = {p}")
    s1, s2 = law.shape1, law.shape2

    def log_mean(e):
        k = e / alpha
        if not s2 + k > 0:
            return None
        return -k * math.log(p - 1.0) + _log_gamma_ratio(s2, k) - _log_gamma_ratio(s1 + s2, k)

    def arg(z):
        return ((1.0 - z) / (p - 1.0)) ** (1.0 / alpha)

    return _expectation(w, law, arg, "beta", "LambdaT", log_mean, _tail_rate(alpha, p))


def lambda_bar(w: WeightFunction, p: float, alpha: float, law: AuxiliaryLaw) -> Value:
    """E[phi(-u) + phi(u)] with u = ((1-Z)/(Z(1-p)))^(1/alpha); needs p < 1.

    For phi = sum c |x|^e: sum 2 c (1-p)^-k B(s1-k, s2+k)/B(s1, s2), k = e/alpha.
    """
    if not p < 1:
        raise InputError(f"LambdaB is the p < 1 transform, got p = {p}")
    s1, s2 = law.shape1, law.shape2

    def log_mean(e):
        k = e / alpha
        if not (s1 - k > 0 and s2 + k > 0):
            return None
        return -k * math.log(1.0 - p) + _log_gamma_ratio(s1, -k) + _log_gamma_ratio(s2, k)

    def arg(z):
        with np.errstate(divide="ignore"):
            return ((1.0 - z) / (z * (1.0 - p))) ** (1.0 / alpha)

    return _expectation(w, law, arg, "beta", "LambdaB", log_mean, _tail_rate(alpha, p))


def theta(w: WeightFunction, alpha: float, law: AuxiliaryLaw) -> Value:
    """E[phi(-Z^(1/alpha)) + phi(Z^(1/alpha))].

    For phi = sum c |x|^e and Z ~ Gamma(s): sum 2 c Gamma(s+k)/Gamma(s), k = e/alpha.
    """
    s = law.shape1

    def log_mean(e):
        k = e / alpha
        return _log_gamma_ratio(s, k) if s + k > 0 else None

    # u = Z^(1/alpha) has the p = 1 kernel's tail e^{-u^alpha}; at alpha = 1,
    # E[u^e] = Gamma(s+e)/Gamma(s) is the Gamma form of rate 1 and shift s.
    rate = _tail_rate(alpha, 1.0)
    return _expectation(w, law, lambda z: z ** (1.0 / alpha), "gamma", "Theta", log_mean, rate, s)


def upsilon(w: WeightFunction, law: AuxiliaryLaw) -> Value:
    """E[phi(-e^(-Z)) + phi(e^(-Z))].

    For phi = sum c |x|^e and Z ~ Gamma(s): sum 2 c (1+e)^-s.
    """
    s = law.shape1

    def log_mean(e):
        return -s * math.log1p(e) if e > -1.0 else None

    return _expectation(w, law, lambda z: np.exp(-z), "gamma", "Upsilon", log_mean)


# ---------------------------------------------------------------------------
# Measures of G
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMeasureSet:
    """N, sigma and J of G; a quadrature-backed one is a Value with its error."""

    n_power: Value | float
    deviation: Value | float
    fisher: Value | float | None
    case: str
    aux: dict = field(default_factory=dict)


def _esssup_weighted(w: WeightFunction, fn, support) -> float:
    val = essential_supremum(
        lambda x: np.asarray(w(x), dtype=float) * fn(np.asarray(x, dtype=float)),
        support,
    )
    if not math.isfinite(val):
        raise DomainError("weighted essential supremum is not finite")
    return val


def gaussian_measures(w: WeightFunction, alpha: float, p: float) -> GaussianMeasureSet:
    """N, sigma and J of the unit-scale generalized p-Gaussian."""
    case = select_case(alpha, p)
    laws = case_laws(alpha, p)

    if case in ("p>1", "p<1"):
        a = gg_norm_const(alpha, p)
        lam = lambda_tilde if case == "p>1" else lambda_bar
        lam_z = lam(w, p, alpha, laws["Z"])
        lam_y = lam(w, p, alpha, laws["Y"])
        scale = p * alpha / (p * alpha + p - 1.0)
        n_power = (
            (1.0 / a)
            * Value(2.0) ** (1.0 / (p - 1.0))
            * scale ** (1.0 / (1.0 - p))
            * lam_z ** (1.0 / (1.0 - p))
        )
        sigma = (lam_y / (2.0 * (p * alpha + p - 1.0))) ** (1.0 / alpha)
        fisher = None
        if alpha > 1.0:
            beta = holder_conjugate(alpha)
            fisher = (
                a ** (beta * (p - 1.0))
                * alpha**beta
                * lam_y
                / (2.0 * (alpha * p + p - 1.0))
            )
        elif alpha == 1.0:
            # beta = inf: J^(1/beta) is the esssup of phi |G^{p-2} G'|,
            # which is a^(p-1) * sup phi over the support of G.
            edge = (p - 1.0) ** (-1.0 / alpha) if p > 1.0 else math.inf
            fisher = _esssup_weighted(
                w, lambda x: a ** (p - 1.0) * np.ones_like(x), (-edge, edge)
            )
        return GaussianMeasureSet(
            n_power,
            sigma,
            fisher,
            case,
            {"lambda_z": lam_z, "lambda_y": lam_y, "a": a},
        )

    if case == "p=1":
        a = gg_norm_const(alpha, p)
        th_w = theta(w, alpha, laws["W"])
        th_wb = theta(w, alpha, laws["Wbar"])
        if not th_wb.value > 0:
            raise DomainError("Theta(Wbar) must be positive")
        n_power = (1.0 / a) * (th_w / (alpha * th_wb)).exp("Renyi power of G")
        sigma = (th_w / (2.0 * alpha)) ** (1.0 / alpha)
        fisher = None
        if alpha > 1.0:
            beta = holder_conjugate(alpha)
            fisher = 0.5 * alpha ** (beta - 1.0) * th_w
        elif alpha == 1.0:
            # |G^{-1} G'| = 1, so the esssup object is sup phi over R.
            fisher = _esssup_weighted(
                w, lambda x: np.ones_like(x), (-math.inf, math.inf)
            )
        return GaussianMeasureSet(
            n_power,
            sigma,
            fisher,
            case,
            {"theta_w": th_w, "theta_wbar": th_wb, "a": a},
        )

    if case == "alpha=0":
        a = gg_norm_const(alpha, p)
        up_x = upsilon(w, laws["X"])
        up_xt = upsilon(w, laws["Xtilde"])
        if not up_xt.value > 0:
            raise DomainError("Upsilon(Xtilde) must be positive")
        n_power = (
            (1.0 / a)
            * (p / (2.0 * (p - 1.0))) ** (1.0 / (1.0 - p))
            * up_x ** (1.0 / (1.0 - p))
        )
        sigma = (-(p / (p - 1.0)) * up_x / up_xt).exp("deviation of G")
        return GaussianMeasureSet(
            n_power,
            sigma,
            None,
            case,
            {"upsilon_x": up_x, "upsilon_xtilde": up_xt, "a": a},
        )

    # alpha = inf
    psi_diff, psib_diff = antiderivatives(w)
    if not float(psi_diff) > 0:
        raise DomainError("int_{-1}^{1} phi must be positive")
    if p == 1.0:
        n_power = 2.0  # exp(h/E) with log G constant on the support
    else:
        try:
            n_power = 2.0 ** (p / (p - 1.0)) * psi_diff ** (1.0 / (1.0 - p))
        except (OverflowError, DomainError):
            n_power = math.inf
        if not math.isfinite(float(n_power)):
            raise DomainError("weighted Renyi power of G overflows")
    sigma = _esssup_weighted(w, lambda x: np.abs(x), (-1.0, 1.0))
    fisher = psi_diff / (p * 2.0**p) - 2.0 ** (-1.0 - p) * psib_diff
    return GaussianMeasureSet(
        n_power,
        sigma,
        fisher,
        "alpha=inf",
        {"psi_diff": psi_diff, "psib_diff": psib_diff},
    )


# The regime case of each consistency identity, by its check id.
IDENTITY_CASE = {
    "id2.11": "p>1",
    "id2.14": "p<1",
    "id2.18": "p=1",
    "id2.22": "alpha=inf",
}


def verify_identity(case: str, w: WeightFunction, alpha: float, p: float) -> float:
    """Relative residual |LHS - RHS| / (1 + |LHS|) of the regime identity."""
    actual = select_case(alpha, p)
    if case != actual:
        raise InputError(f"(alpha, p) = ({alpha}, {p}) is in case {actual!r}, not {case!r}")
    ms = gaussian_measures(w, alpha, p)

    if case in ("p>1", "p<1", "p=1"):
        if ms.fisher is None:
            raise InputError("identity needs alpha >= 1 so J is defined")
        # J^(1/beta); at alpha = 1 (beta = inf) J is the esssup object itself.
        beta = holder_conjugate(alpha)
        j_root = ms.fisher if alpha == 1.0 else ms.fisher ** (1.0 / beta)
        if case == "p=1":
            return relative_residual(2.0 * ms.deviation * j_root, ms.aux["theta_w"])
        rhs = p * ms.deviation * j_root * ms.aux["lambda_z"] / ms.aux["lambda_y"]
        return relative_residual(ms.n_power ** (1.0 - p), rhs)

    if case == "alpha=inf":
        if p == 1.0:
            raise InputError("the alpha = inf identity needs p != 1")
        rhs = p * ms.fisher + p * 2.0 ** (-1.0 - p) * ms.aux["psib_diff"]
        return relative_residual(ms.n_power ** (1.0 - p), rhs)

    raise InputError(f"no consistency identity for case {case!r}")
