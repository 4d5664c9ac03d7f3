"""Weight-function algebra.

Catalog families (constant, exp-linear e^{g x}, power |x|^c, polynomials
in |x|, polynomials in a density f, density powers f^k |f'|^m) plus the
derived weights needed by the inequality checks: the deviation-rescaled
weight phi*(x) = phi(r x), the conjugate-exponent powers

    rho_1 = phi^{alpha/(1-p)},     rho_2 = phi^{p beta/(p-1)},

the transport-reduced weight phi~(x) = phi(s(x)) and

    rho_s(x) = (phi~(x) / phi(x)^p)^{1/(1-p)},
    rho_s'(x) = rho_s(x) [ (s'(x) phi'(s(x)) / phi(s(x))) / (1-p)
                           + (p/(p-1)) (phi'(x) / phi(x)) ].

Each weight carries an evaluator, an analytic derivative and its kink
points.  The four elementary makers (const, expw, pow, abspoly) also
record ``terms``, the triples (c, e, gamma) of phi(x) = sum c |x|^e
e^{gamma x}, and so does phi*: phi(r x) has the terms (c r^e, e, gamma r).
:func:`power_of` keeps the constant, power and exp-linear families in
their family; every other derived or density-based weight leaves
``terms`` None.  The closed forms of densities and gaussian_forms read
``terms`` directly, an e^{gamma x} factor through its even series.
:func:`nonnegativity_violation` samples only a weight that may go
negative: one whose terms all have c >= 0, f^k |f'|^m, and phi o s,
phi*, phi^r and rho_s over such a weight are nonnegative by construction.
:func:`antiderivatives` gives the two numbers the alpha = inf formulas
read, int_{-1}^1 phi and int_{-1}^1 phi' (with psi(x) = int_0^x phi
and psi_bar(x) = int_0^x phi', the differences psi(1) - psi(-1) and
psi_bar(1) - psi_bar(-1)): floats summed over the terms, else
quadrature-backed numerics.Values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .densities import parse_float
from .errors import DomainError, InputError
from .numerics import QuadratureConfig, _exp, _finite, _vec, differentiate, integrate

__all__ = [
    "WeightFunction",
    "make_constant",
    "make_exp_linear",
    "make_power",
    "make_abs_polynomial",
    "make_density_polynomial",
    "make_density_power",
    "power_of",
    "compose_with_map",
    "derive_phi_star",
    "derive_rho12",
    "derive_rho_s",
    "antiderivatives",
    "nonnegativity_violation",
    "parse_weight",
]


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight with evaluator, derivative, kink points and terms."""

    family: str
    params: dict
    fn: callable
    dfn: callable
    kinks: tuple[float, ...] = ()
    terms: tuple | None = None  # (c, e, gamma) of phi = sum c |x|^e e^{gamma x}

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, x):
        return self.dfn(x)

    @property
    def is_constant(self) -> bool:
        return self.family == "constant"


# ---------------------------------------------------------------------------
# Elementary families
# ---------------------------------------------------------------------------


def make_constant(v: float = 1.0) -> WeightFunction:
    v = _finite("constant weight", v)
    if v < 0:
        raise InputError(f"constant weight must be nonnegative, got {v}")
    return WeightFunction(
        "constant",
        {"v": v},
        _vec(lambda x: np.full_like(x, v)),
        _vec(lambda x: np.zeros_like(x)),
        terms=((v, 0.0, 0.0),),
    )


def make_exp_linear(gamma: float) -> WeightFunction:
    gamma = _finite("exp-linear rate", gamma)
    if gamma == 0.0:
        return make_constant(1.0)

    def _f(x):
        with np.errstate(over="ignore"):
            return np.exp(gamma * x)

    def _df(x):
        with np.errstate(over="ignore"):
            return gamma * np.exp(gamma * x)

    return WeightFunction(
        "exp-linear", {"gamma": gamma}, _vec(_f), _vec(_df), terms=((1.0, 0.0, gamma),)
    )


def make_power(c: float) -> WeightFunction:
    """|x|^c; for c < 0 the weight is singular at 0."""
    c = _finite("power exponent", c)
    if c == 0.0:
        return make_constant(1.0)

    def _f(x):
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            return ax**c

    def _df(x):
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * ax ** (c - 1.0) * np.sign(x)
        return np.where(ax > 0, out, 0.0 if c > 1 else np.nan)

    return WeightFunction(
        "power", {"c": c}, _vec(_f), _vec(_df), kinks=(0.0,), terms=((1.0, c, 0.0),)
    )


def _polynomial(family: str, coeffs, params: dict, u, du, kinks) -> WeightFunction:
    """sum_i a_i u(x)^i, with derivative (sum_i i a_i u(x)^(i-1)) u'(x)."""
    a = tuple(_finite(f"{family} coefficient", c) for c in coeffs)
    if not a:
        raise InputError(f"{family} needs at least one coefficient")
    powers = np.arange(len(a))
    arr = np.asarray(a)

    def _f(x):
        ux = np.asarray(u(x))[:, None]
        return (arr * ux**powers).sum(axis=1)

    def _df(x):
        ux = np.asarray(u(x))[:, None]
        slopes = arr[1:] * powers[1:] * ux ** (powers[1:] - 1)
        return slopes.sum(axis=1) * np.asarray(du(x))

    return WeightFunction(family, {"coeffs": a, **params}, _vec(_f), _vec(_df), kinks)


def make_abs_polynomial(coeffs) -> WeightFunction:
    """sum_i a_i |x|^i; may take negative values for sign-mixed a_i."""
    w = _polynomial("abs-polynomial", coeffs, {}, np.abs, np.sign, (0.0,))
    return replace(w, terms=tuple((a, float(i), 0.0) for i, a in enumerate(w.params["coeffs"])))


def make_density_polynomial(coeffs, density) -> WeightFunction:
    """sum_i b_i f(x)^i for a fixed density f."""
    return _polynomial(
        "density-polynomial",
        coeffs,
        {"density": density},
        density.pdf,
        density.dpdf,
        tuple(density.singularities),
    )


def make_density_power(k: float, m: float, density) -> WeightFunction:
    """f(x)^k |f'(x)|^m for a fixed density f (evaluated where f > 0)."""
    k, m = _finite("density-power k", k), _finite("density-power m", m)

    def _f(x):
        fx = np.asarray(density.pdf(x), dtype=float)
        dfx = np.abs(np.asarray(density.dpdf(x), dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fx**k * dfx**m
        return np.where((fx > 0) & ((dfx > 0) | (m == 0)), out, 0.0)

    def _df(x):
        # d/dx [f^k |f'|^m] = f^k |f'|^m (k f'/f + m f''/f') with f'' numeric;
        # at m = 0 the second term is absent, also where f' = 0.
        fx = np.asarray(density.pdf(x), dtype=float)
        dfx = np.asarray(density.dpdf(x), dtype=float)
        out = np.zeros_like(fx)
        live = (fx > 0) & ((dfx != 0) | (m == 0))
        if np.any(live):
            fl, dl = fx[live], dfx[live]
            rate = k * dl / fl
            if m != 0:
                rate = rate + m * differentiate(density.dpdf, x[live]) / dl
            out[live] = (fl**k * np.abs(dl) ** m) * rate
        return out

    return WeightFunction(
        "density-power",
        {"k": k, "m": m, "density": density},
        _vec(_f),
        _vec(_df),
        kinks=tuple(density.singularities),
    )


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def power_of(w: WeightFunction, r: float) -> WeightFunction:
    """phi^r with derivative r phi^{r-1} phi'; requires phi > 0 where used.

    The constant, power and exp-linear families stay in their family:
    v^r, |x|^(c r) and e^{(gamma r) x}.
    """
    r = float(r)
    if not math.isfinite(r):
        raise InputError(f"power-of exponent must be finite, got {r}")
    if r == 1.0:
        return w
    if w.is_constant:
        v = w.params["v"]
        if v <= 0 and r < 0:
            raise DomainError("cannot take a negative power of the zero weight")
        return make_constant(v**r)
    if w.family == "power":
        return make_power(w.params["c"] * r)
    if w.family == "exp-linear":
        return make_exp_linear(w.params["gamma"] * r)

    def _f(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(w.fn(x), dtype=float) ** r

    def _df(x):
        base = np.asarray(w.fn(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return r * base ** (r - 1.0) * np.asarray(w.dfn(x), dtype=float)

    return WeightFunction(
        "power-of", {"base": w, "r": r}, _vec(_f), _vec(_df), kinks=w.kinks
    )


def compose_with_map(w: WeightFunction, s) -> WeightFunction:
    """phi~(x) = phi(s(x)) with chain-rule derivative s'(x) phi'(s(x)).

    ``s`` must be callable and expose ``s.value_and_derivative(x)``,
    which returns (s(x), s'(x)) from one evaluation of s.
    """
    if w.is_constant:
        return w

    def _f(x):
        return np.asarray(w.fn(s(x)), dtype=float)

    def _df(x):
        sx, dsx = s.value_and_derivative(x)
        return np.asarray(dsx, dtype=float) * np.asarray(w.dfn(sx), dtype=float)

    return WeightFunction("composed", {"base": w, "map": s}, _vec(_f), _vec(_df))


def derive_phi_star(w: WeightFunction, sigma_f: float, sigma_g: float) -> WeightFunction:
    """phi*(x) = phi((sigma_f / sigma_g) x), with terms when phi has them."""
    if not (sigma_f > 0 and math.isfinite(sigma_f)):
        raise InputError(f"sigma_f must be finite positive, got {sigma_f}")
    if not (sigma_g > 0 and math.isfinite(sigma_g)):
        raise InputError(f"sigma_g must be finite positive, got {sigma_g}")
    r = sigma_f / sigma_g
    if w.is_constant or r == 1.0:
        return w

    def _f(x):
        return np.asarray(w.fn(r * np.asarray(x, dtype=float)), dtype=float)

    def _df(x):
        return r * np.asarray(w.dfn(r * np.asarray(x, dtype=float)), dtype=float)

    kinks = tuple(k / r for k in w.kinks)
    # phi(r x) = sum c |r x|^e e^{gamma r x} = sum (c r^e) |x|^e e^{(gamma r) x}
    terms = None if w.terms is None else tuple((c * r**e, e, g * r) for c, e, g in w.terms)
    return WeightFunction(
        "phi-star", {"base": w, "ratio": r}, _vec(_f), _vec(_df), kinks=kinks, terms=terms
    )


def derive_rho12(w: WeightFunction, alpha: float, p: float):
    """(rho_1, rho_2) = (phi^{alpha/(1-p)}, phi^{p beta/(p-1)})."""
    if p == 1.0:
        raise InputError("rho_1/rho_2 are undefined at p = 1; use the reduced weight")
    beta = holder_conjugate(alpha)
    if alpha == math.inf:
        raise InputError("rho_1 exponent is infinite at alpha = inf")
    if math.isinf(beta):
        raise InputError("rho_2 exponent is infinite at alpha = 1")
    rho1 = power_of(w, alpha / (1.0 - p))
    rho2 = power_of(w, p * beta / (p - 1.0))
    return rho1, rho2


def derive_rho_s(w: WeightFunction, s, p: float) -> WeightFunction:
    """rho_s = (phi(s(x)) / phi(x)^p)^{1/(1-p)} with the product-rule derivative."""
    if p == 1.0:
        raise InputError("rho_s is undefined at p = 1")
    if w.is_constant:
        v = w.params["v"]
        if v <= 0:
            raise DomainError("rho_s undefined for a vanishing weight")
        return make_constant(v)
    e = 1.0 / (1.0 - p)

    def _f(x):
        num = np.asarray(w.fn(s(x)), dtype=float)
        den = np.asarray(w.fn(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (num / den**p) ** e
        if np.any(~np.isfinite(out) & (den > 0) & (num > 0)):
            raise DomainError("rho_s evaluator overflowed")
        return out

    def _df(x):
        x = np.asarray(x, dtype=float)
        sx, dsx = s.value_and_derivative(x)
        phi_s = np.asarray(w.fn(sx), dtype=float)
        dphi_s = np.asarray(w.dfn(sx), dtype=float)
        phi_x = np.asarray(w.fn(x), dtype=float)
        dphi_x = np.asarray(w.dfn(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (phi_s / phi_x**p) ** e
            bracket = e * (dsx * dphi_s / phi_s) + (p / (p - 1.0)) * (
                dphi_x / phi_x
            )
        return rho * bracket

    return WeightFunction(
        "rho-s", {"base": w, "map": s, "p": p}, _vec(_f), _vec(_df)
    )


def holder_conjugate(alpha: float) -> float:
    """beta with 1/alpha + 1/beta = 1; conventions 1 <-> inf."""
    if alpha == 1.0:
        return math.inf
    if alpha == math.inf:
        return 1.0
    if not alpha > 1.0:
        raise InputError(f"Holder conjugate needs alpha in [1, inf], got {alpha}")
    return alpha / (alpha - 1.0)


# ---------------------------------------------------------------------------
# Antiderivatives
# ---------------------------------------------------------------------------


def antiderivatives(w: WeightFunction):
    """(psi(1) - psi(-1), psi_bar(1) - psi_bar(-1)) = (int_{-1}^1 phi, int_{-1}^1 phi').

    Floats summed over the weight's terms, else Values from quadrature.
    """
    if w.terms is not None:
        psi = psi_bar = 0.0
        for c, e, g in w.terms:
            if g != 0.0:  # an exp-linear term, e = 0
                up, down = (_exp(x, "exp-linear antiderivative") - 1.0 for x in (g, -g))
                psi += c * (up / g - down / g)
                psi_bar += c * (up - down)
            elif e <= -1.0:
                raise DomainError(f"|x|^{e} is not integrable near 0")
            elif e < 0.0:
                raise DomainError(f"derivative of |x|^{e} is not integrable near 0")
            else:
                psi += 2.0 * c / (e + 1.0)
        return psi, psi_bar
    # Generic: quadrature of phi and phi' on [0, 1] and [-1, 0].
    cfg = QuadratureConfig(singularities=tuple(w.kinks))
    halves = [
        integrate(fn, half, cfg).checked("antiderivative integral")
        for fn in (w.fn, w.dfn)
        for half in ((0.0, 1.0), (-1.0, 0.0))
    ]
    return halves[0] + halves[1], halves[2] + halves[3]


# ---------------------------------------------------------------------------
# Guards and descriptors
# ---------------------------------------------------------------------------


def _never_negative(w: WeightFunction) -> bool:
    """Whether phi >= 0 follows from how it is built: terms with every
    c >= 0, f^k |f'|^m, or phi o s, phi(r x), phi^r and rho_s of such a phi."""
    if w.terms is not None:
        return all(c >= 0.0 for c, _, _ in w.terms)
    if w.family == "density-power":
        return True
    return w.family in ("composed", "phi-star", "power-of", "rho-s") and _never_negative(w.params["base"])


def nonnegativity_violation(w: WeightFunction, support) -> float | None:
    """Most negative sampled value of the weight, or None if none found.

    A weight that cannot go negative (:func:`_never_negative`) is not sampled.
    """
    if _never_negative(w):
        return None
    lo, hi = support
    lo = lo if math.isfinite(lo) else -20.0
    hi = hi if math.isfinite(hi) else 20.0
    x = np.linspace(lo, hi, 1001)
    vals = np.asarray(w.fn(x), dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size and float(vals.min()) < -1e-12:
        return float(vals.min())
    return None


def parse_weight(text: str, base=None) -> WeightFunction:
    """Build a weight from its text descriptor.

    ``const:v``, ``expw:g``, ``pow:c``, ``abspoly:a0,a1,...``,
    ``fpoly:b0,b1,...`` and ``fpow:k,m`` (the last two need the base
    density they are a function of).
    """
    text = text.strip()
    if ":" not in text:
        raise InputError(f"unknown weight descriptor {text!r}")
    name, args = text.split(":", 1)
    vals = [parse_float(v) for v in args.split(",") if v.strip() != ""]
    if name == "const":
        if len(vals) != 1:
            raise InputError("const descriptor takes one value")
        return make_constant(vals[0])
    if name == "expw":
        if len(vals) != 1:
            raise InputError("expw descriptor takes one rate")
        return make_exp_linear(vals[0])
    if name == "pow":
        if len(vals) != 1:
            raise InputError("pow descriptor takes one exponent")
        return make_power(vals[0])
    if name == "abspoly":
        return make_abs_polynomial(vals)
    if name == "fpoly":
        if base is None:
            raise InputError("fpoly weight needs a base density")
        return make_density_polynomial(vals, base)
    if name == "fpow":
        if len(vals) != 2:
            raise InputError("fpow descriptor takes k,m")
        if base is None:
            raise InputError("fpow weight needs a base density")
        return make_density_power(vals[0], vals[1], base)
    raise InputError(f"unknown weight family {name!r}")
