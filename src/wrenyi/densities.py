"""One-dimensional density catalog.

Exponential, Laplace, tent, the generalized p-Gaussian family in all of
its parameter branches, scaled variants, weighted densities and
tabulated (piecewise linear) densities.  Every descriptor carries a
vectorized pdf, its derivative, an analytic CDF where the family has
one, the support interval and the list of points where the pdf or its
derivative is singular (quadrature is told to split there).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (
    betainc,
    betaincinv,
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
)

from .errors import DomainError, InputError
from .numerics import QuadratureConfig, beta_fn, gamma_fn, integrate

__all__ = [
    "Density",
    "GeneralizedGaussianParams",
    "make_exponential",
    "make_laplace",
    "make_tent",
    "make_uniform",
    "make_generalized_gaussian",
    "scale_density",
    "make_weighted_density",
    "make_tabulated",
    "cdf",
    "quantile",
    "parse_density",
]

_NORM_TOL = 1e-8


def _vec(impl):
    """Wrap an ndarray->ndarray evaluator so scalars work too."""

    def fn(x):
        arr = np.asarray(x, dtype=float)
        out = impl(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    return fn


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

    def quad_config(self, abs_tol=1e-10, rel_tol=1e-8) -> QuadratureConfig:
        return QuadratureConfig(
            abs_tol=abs_tol, rel_tol=rel_tol, singularities=self.singularities
        )


@dataclass(frozen=True)
class GeneralizedGaussianParams:
    """Validated (alpha, p, a, t) record of a generalized p-Gaussian.

    Validity region: p > 1 - alpha, with p > 1 required at alpha = 0 and
    p > 0 at alpha = inf; the normalization constant must match the
    closed form for the branch.
    """

    alpha: float
    p: float
    norm_const: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise InputError(f"scale must be positive, got {self.scale}")
        expected = gg_norm_const(self.alpha, self.p)  # also validates (alpha, p)
        if not math.isclose(self.norm_const, expected, rel_tol=1e-12):
            raise InputError(
                f"normalization constant {self.norm_const!r} does not match "
                f"the closed form {expected!r} for (alpha, p) = "
                f"({self.alpha}, {self.p})"
            )

    @property
    def support_bound(self) -> float:
        """Half-width of the support (inf for the unbounded branches)."""
        if math.isinf(self.alpha):
            return self.scale
        if self.alpha == 0.0:
            return self.scale
        if self.p > 1:
            return self.scale * (self.p - 1.0) ** (-1.0 / self.alpha)
        return math.inf


def _check_normalization(density: Density) -> Density:
    res = integrate(density.pdf, density.support, density.quad_config())
    if res.status == "divergent" or (
        res.converged and abs(res.value - 1.0) > _NORM_TOL
    ):
        raise DomainError(
            f"{density.family} density integrates to {res.value!r}, not 1"
        )
    if not res.converged:
        object.__setattr__(
            density,
            "warnings",
            density.warnings + (f"normalization check tolerance-not-met ({res.value!r})",),
        )
    return density


# ---------------------------------------------------------------------------
# Elementary families
# ---------------------------------------------------------------------------


def make_exponential(lam: float) -> Density:
    """Exp(lam): pdf lam * exp(-lam x) on (0, inf)."""
    if not lam > 0:
        raise InputError(f"exponential rate must be positive, got {lam}")
    lam = float(lam)
    pdf = _vec(lambda x: np.where(x > 0, lam * np.exp(-lam * x), 0.0))
    dpdf = _vec(lambda x: np.where(x > 0, -lam * lam * np.exp(-lam * x), 0.0))
    cdf_fn = _vec(lambda x: np.where(x > 0, -np.expm1(-lam * x), 0.0))
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
    if not b > 0:
        raise InputError(f"laplace scale must be positive, got {b}")
    b = float(b)
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


def make_uniform(half_width: float = 1.0) -> Density:
    """Uniform density on [-t, t] (the alpha = inf generalized Gaussian)."""
    return make_generalized_gaussian(math.inf, 2.0, half_width)


# ---------------------------------------------------------------------------
# Generalized p-Gaussian
# ---------------------------------------------------------------------------


def gg_norm_const(alpha: float, p: float) -> float:
    """Normalization constant of the unit-scale generalized p-Gaussian."""
    if alpha == 0.0:
        if not p > 1:
            raise InputError("alpha = 0 requires p > 1")
        return 1.0 / (2.0 * gamma_fn(p / (p - 1.0)))
    if math.isinf(alpha):
        if not p > 0:
            raise InputError("alpha = inf requires p > 0")
        return 0.5
    if not alpha > 0:
        raise InputError(f"moment order alpha must be >= 0, got {alpha}")
    if not p > 1.0 - alpha:
        raise InputError(f"require p > 1 - alpha, got p={p}, alpha={alpha}")
    if p > 1:
        return (
            alpha
            * (p - 1.0) ** (1.0 / alpha)
            / (2.0 * beta_fn(1.0 / alpha, p / (p - 1.0)))
        )
    if p == 1:
        return alpha / (2.0 * gamma_fn(1.0 / alpha))
    return (
        alpha
        * (1.0 - p) ** (1.0 / alpha)
        / (2.0 * beta_fn(1.0 / alpha, 1.0 / (1.0 - p) - 1.0 / alpha))
    )


def make_generalized_gaussian(alpha: float, p: float, t: float = 1.0) -> Density:
    """Generalized p-Gaussian of moment order alpha at scale t."""
    alpha, p, t = float(alpha), float(p), float(t)
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    a = gg_norm_const(alpha, p)
    record = GeneralizedGaussianParams(alpha, p, a, t)
    params = {"alpha": alpha, "p": p, "a": a, "t": t, "record": record}

    if math.isinf(alpha):
        lo, hi = -t, t
        val = 0.5 / t
        pdf = _vec(
            lambda x: np.where(np.abs(x) <= t, val, 0.0)
        )
        dpdf = _vec(lambda x: np.zeros_like(x))
        cdf_fn = _vec(lambda x: np.clip((x + t) / (2 * t), 0.0, 1.0))
        quant = _vec(lambda q: t * (2 * q - 1.0))
        dens = Density(
            "generalized-gaussian", params, (lo, hi), pdf, dpdf, cdf_fn, quant, ()
        )
        return _check_normalization(dens)

    if alpha == 0.0:
        # pdf positive on 0 < |x| < t, unbounded at x = 0.
        e = 1.0 / (p - 1.0)

        def _pdf0(x):
            u = np.abs(x) / t
            out = np.zeros_like(u)
            inside = (u < 1.0) & (u > 0.0)
            out[inside] = (a / t) * (-np.log(u[inside])) ** e
            return out

        def _dpdf0(x):
            u = x / t
            au = np.abs(u)
            out = np.zeros_like(au)
            inside = (au < 1.0) & (au > 0.0)
            ui = u[inside]
            out[inside] = -(a / t**2) * e * (-np.log(np.abs(ui))) ** (e - 1.0) / ui
            return out

        shape = p / (p - 1.0)

        def _cdf0(x):
            u = np.clip(np.abs(x) / t, 0.0, 1.0)
            half = np.zeros_like(u)
            pos = u > 0
            half[pos] = 0.5 * gammaincc(shape, -np.log(u[pos]))
            return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)

        def _quant0(q):
            q = np.asarray(q, dtype=float)
            r = np.abs(2 * q - 1.0)
            u = np.where(
                r >= 1.0, 1.0, np.exp(-gammainccinv(shape, np.minimum(r, 1.0)))
            )
            return np.sign(q - 0.5) * t * u

        dens = Density(
            "generalized-gaussian",
            params,
            (-t, t),
            _vec(_pdf0),
            _vec(_dpdf0),
            _vec(_cdf0),
            _vec(_quant0),
            (0.0,),
        )
        return _check_normalization(dens)

    if p == 1.0:

        def _pdf1(x):
            return (a / t) * np.exp(-np.abs(x / t) ** alpha)

        def _dpdf1(x):
            u = x / t
            au = np.abs(u)
            with np.errstate(divide="ignore", invalid="ignore"):
                grad = np.where(
                    au > 0, alpha * au ** (alpha - 1.0) * np.sign(u), 0.0
                )
            return -(a / t**2) * grad * np.exp(-(au**alpha))

        inv_alpha = 1.0 / alpha

        def _cdf1(x):
            u = np.abs(np.asarray(x, dtype=float) / t) ** alpha
            half = 0.5 * gammainc(inv_alpha, u)
            return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)

        def _quant1(q):
            q = np.asarray(q, dtype=float)
            r = np.abs(2 * q - 1.0)
            u = gammaincinv(inv_alpha, np.minimum(r, 1.0))
            return np.sign(q - 0.5) * t * u ** (1.0 / alpha)

        dens = Density(
            "generalized-gaussian",
            params,
            (-math.inf, math.inf),
            _vec(_pdf1),
            _vec(_dpdf1),
            _vec(_cdf1),
            _vec(_quant1),
            (0.0,) if alpha < 2.0 else (),
        )
        return _check_normalization(dens)

    # p != 1, alpha in (0, inf)
    e = 1.0 / (p - 1.0)
    if p > 1:
        kappa = record.support_bound
        support = (-kappa, kappa)
        sh1, sh2 = 1.0 / alpha, p / (p - 1.0)

        def _cdfp(x):
            u = np.clip((p - 1.0) * np.abs(np.asarray(x, dtype=float) / t) ** alpha, 0.0, 1.0)
            half = 0.5 * betainc(sh1, sh2, u)
            return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)

        def _quantp(q):
            q = np.asarray(q, dtype=float)
            r = np.abs(2 * q - 1.0)
            u = betaincinv(sh1, sh2, np.minimum(r, 1.0))
            return np.sign(q - 0.5) * t * (u / (p - 1.0)) ** (1.0 / alpha)

        quant = _vec(_quantp)
    else:
        support = (-math.inf, math.inf)
        sh1, sh2 = 1.0 / (1.0 - p) - 1.0 / alpha, 1.0 / alpha

        def _cdfp(x):
            v = 1.0 / (1.0 + (1.0 - p) * np.abs(np.asarray(x, dtype=float) / t) ** alpha)
            half = 0.5 * (1.0 - betainc(sh1, sh2, v))
            return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)

        def _quantp(q):
            q = np.asarray(q, dtype=float)
            r = np.abs(2 * q - 1.0)
            v = betaincinv(sh1, sh2, 1.0 - r)
            u = np.where(r >= 1.0, math.inf, (1.0 / v - 1.0) / (1.0 - p))
            return np.sign(q - 0.5) * t * u ** (1.0 / alpha)

        quant = _vec(_quantp)

    def _pdfp(x):
        u = np.abs(x / t) ** alpha
        base = 1.0 + (1.0 - p) * u
        out = np.zeros_like(base)
        inside = base > 0
        out[inside] = (a / t) * base[inside] ** e
        return out

    def _dpdfp(x):
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

    sing: tuple[float, ...] = (0.0,) if alpha < 2.0 else ()
    dens = Density(
        "generalized-gaussian",
        params,
        support,
        _vec(_pdfp),
        _vec(_dpdfp),
        _vec(_cdfp),
        quant,
        sing,
    )
    return _check_normalization(dens)


# ---------------------------------------------------------------------------
# Derived densities
# ---------------------------------------------------------------------------


def scale_density(f: Density, t: float) -> Density:
    """The density of t*X when X ~ f: pdf f(x/t)/t."""
    if not t > 0:
        raise InputError(f"scale must be positive, got {t}")
    t = float(t)
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
    )


def make_weighted_density(f: Density, weight) -> Density:
    """Reweighted density phi*f/chi with chi = E_f[phi]."""
    cfg = QuadratureConfig(
        singularities=tuple(f.singularities) + tuple(weight.kinks)
    )

    def _chi_integrand(x):
        fx = np.asarray(f.pdf(x), dtype=float)
        out = np.zeros_like(fx)
        m = fx > 0
        if np.any(m):
            out[m] = np.asarray(weight(x[m]), dtype=float) * fx[m]
        return out

    res = integrate(_vec(_chi_integrand), f.support, cfg)
    chi = res.value
    if not (math.isfinite(chi) and chi > 0) or res.status == "divergent":
        raise DomainError(f"weight normalizer E_f[phi] = {chi!r} is unusable")

    # Evaluate the weight only where the base density is positive so
    # that weights which overflow on the dead tail stay harmless.
    def _pdf(x):
        fx = np.asarray(f.pdf(x), dtype=float)
        out = np.zeros_like(fx)
        m = fx > 0
        if np.any(m):
            out[m] = np.asarray(weight(x[m]), dtype=float) * fx[m] / chi
        return out

    def _dpdf(x):
        fx = np.asarray(f.pdf(x), dtype=float)
        out = np.zeros_like(fx)
        m = fx > 0
        if np.any(m):
            xm = x[m]
            out[m] = (
                np.asarray(weight.derivative(xm), dtype=float) * fx[m]
                + np.asarray(weight(xm), dtype=float)
                * np.asarray(f.dpdf(xm), dtype=float)
            ) / chi
        return out

    pdf = _vec(_pdf)
    dpdf = _vec(_dpdf)
    dens = Density(
        family="weighted",
        params={"base": f, "weight": weight, "chi": chi},
        support=f.support,
        pdf=pdf,
        dpdf=dpdf,
        cdf_fn=None,
        quantile_fn=None,
        singularities=tuple(sorted(set(f.singularities) | set(weight.kinks))),
    )
    return _check_normalization(dens)


def make_tabulated(xs, ys) -> Density:
    """Piecewise-linear density through (xs, ys >= 0), renormalized."""
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

    # Renormalization by the trapezoid mass is exact for the piecewise
    # linear interpolant, so no quadrature-based check is needed here.
    return Density(
        family="tabulated",
        params={"n": int(xs.size)},
        support=(float(xs[0]), float(xs[-1])),
        pdf=_vec(_pdf),
        dpdf=_vec(_dpdf),
        cdf_fn=_vec(_cdf),
        quantile_fn=None,
        singularities=(),
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
    weighted densities) integrate the pdf from the lower end once per
    point.
    """

    def interior(xs):
        if f.cdf_fn is not None:
            vals = f.cdf_fn(xs)
        else:
            lo, cfg = f.support[0], f.quad_config()
            vals = [integrate(f.pdf, (lo, float(xi)), cfg).value for xi in xs]
        return np.minimum(np.maximum(vals, 0.0), 1.0)

    return on_support(x, f.support, 0.0, 1.0, interior)


def quantile(f: Density, q: float) -> float:
    """F_f^{-1}(q) for q in (0, 1) by bracketed root finding."""
    if not 0.0 < q < 1.0:
        raise InputError(f"quantile level must be in (0,1), got {q}")
    if f.quantile_fn is not None:
        return float(f.quantile_fn(q))
    lo, hi = f.support
    blo = lo if math.isfinite(lo) else -1.0
    bhi = hi if math.isfinite(hi) else 1.0
    while not math.isfinite(lo) and cdf(f, blo) > q:
        blo *= 2.0
    while not math.isfinite(hi) and cdf(f, bhi) < q:
        bhi *= 2.0
    from .numerics import find_root

    return find_root(lambda x: cdf(f, x) - q, (blo, bhi))


# ---------------------------------------------------------------------------
# Text descriptors:  exp:l  laplace:b  tent  gg:a,p[,t]  weighted:<f>;<w>
#                    table:<path>
# ---------------------------------------------------------------------------


def _parse_float(tok: str) -> float:
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
        data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise InputError(f"table file {path!r} must have two columns")
        return make_tabulated(data[:, 0], data[:, 1])
    if ":" not in text:
        raise InputError(f"unknown density descriptor {text!r}")
    name, args = text.split(":", 1)
    vals = [_parse_float(v) for v in args.split(",") if v.strip() != ""]
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
