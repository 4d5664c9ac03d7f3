"""Deterministic numerical kernels.

Adaptive quadrature over finite, semi-infinite and doubly infinite
intervals (Gauss-Kronrod 15 on finite pieces, double-exponential
transforms for infinite tails and stubborn endpoint singularities),
Gamma/Beta special functions, central-difference differentiation,
bracketed root finding, essential suprema and total variation.

Every routine is a pure function of its inputs; there is no shared
mutable state, so unrestricted concurrent use is safe.

Integrands are expected to be vectorized: called with a float ndarray,
they must return an ndarray of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import EvaluationError, InputError, UnboundedError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate",
    "gamma_fn",
    "beta_fn",
    "differentiate",
    "find_root",
    "essential_supremum",
    "total_variation",
]

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Configuration / result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and hints for :func:`integrate`.

    ``singularities`` lists interior points where the integrand may be
    non-smooth or unbounded; the domain is always split there first.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 60
    singularities: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InputError("quadrature tolerances must be strictly positive")
        if self.max_depth < 1:
            raise InputError("max_depth must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    status: str  # "converged" | "tolerance-not-met" | "divergent"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15/7 pair (QUADPACK dqk15 constants)
# ---------------------------------------------------------------------------

_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Full symmetric node/weight tables, ordered left to right.
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _gk15(fn, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15 panel on [a, b]: (estimate, error estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _XGK
    y = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise EvaluationError(f"integrand not finite inside ({a}, {b})")
    k15 = h * float(_WGK @ y)
    g7 = h * float(_WG15 @ y)
    return k15, abs(k15 - g7)


def _adaptive_gk(fn, a, b, abs_tol, rel_tol, max_depth):
    """Adaptive bisection with GK15 panels on the finite interval [a, b]."""
    v, e = _gk15(fn, a, b)
    leaves = [(e, a, b, v, 0)]  # (error, lo, hi, value, depth)
    frozen: list[tuple[float, float, float, float, int]] = []
    for _ in range(4096):
        total = sum(l[3] for l in leaves) + sum(l[3] for l in frozen)
        err = sum(l[0] for l in leaves) + sum(l[0] for l in frozen)
        if err <= max(abs_tol, rel_tol * abs(total)):
            return total, err, True
        if not leaves:
            break
        leaves.sort(key=lambda l: l[0])
        worst = leaves.pop()
        we, wa, wb, _, wd = worst
        if wd >= max_depth or (wb - wa) <= 4 * _EPS * max(abs(wa), abs(wb), 1.0):
            frozen.append(worst)
            continue
        m = 0.5 * (wa + wb)
        v1, e1 = _gk15(fn, wa, m)
        v2, e2 = _gk15(fn, m, wb)
        leaves.append((e1, wa, m, v1, wd + 1))
        leaves.append((e2, m, wb, v2, wd + 1))
    total = sum(l[3] for l in leaves) + sum(l[3] for l in frozen)
    err = sum(l[0] for l in leaves) + sum(l[0] for l in frozen)
    return total, err, err <= max(abs_tol, rel_tol * abs(total))


# ---------------------------------------------------------------------------
# Double-exponential rules
# ---------------------------------------------------------------------------

_DE_CUT = 4.3  # |u| <= _DE_CUT keeps exp((pi/2) sinh u) inside float range


def _de_levels(max_level: int = 10):
    """Abscissae u for each refinement level of the trapezoid in u.

    Level 0 holds the integer multiples of h=1 inside [-cut, cut]; level
    j holds the odd multiples of h = 2**-j, so the union over levels
    0..j is the full grid of multiples of 2**-j.
    """
    k0 = int(math.floor(_DE_CUT))
    levels = [np.arange(-k0, k0 + 1, 1.0)]
    for j in range(1, max_level + 1):
        h = 2.0**-j
        k_max = int(math.floor(_DE_CUT / h))
        ks = np.arange(1, k_max + 1, 2)
        u = np.concatenate([-ks[::-1], ks]) * h
        levels.append(u)
    return levels


_DE_U = _de_levels()


def _tanh_sinh_nodes(u):
    """Offsets from the interval endpoints and weights on (-1, 1).

    Returns (delta, w) with delta = 1 - |tanh((pi/2) sinh u)| computed
    stably so that endpoint singularities are never evaluated at the
    endpoint itself.
    """
    t = 0.5 * np.pi * np.sinh(u)
    at = np.abs(t)
    e2 = np.exp(-2.0 * at)
    delta = 2.0 * e2 / (1.0 + e2)
    w = 0.5 * np.pi * np.cosh(u) * (4.0 * e2 / (1.0 + e2) ** 2)
    return delta, w


def _tanh_sinh(fn, a, b, abs_tol, rel_tol, max_level=10):
    """Double-exponential rule on the finite interval [a, b]."""
    c = 0.5 * (a + b)
    d = 0.5 * (b - a)
    total = 0.0
    prev = None
    err = math.inf
    h = 1.0
    for level, u in enumerate(_DE_U[: max_level + 1]):
        if level > 0:
            h *= 0.5
        delta, w = _tanh_sinh_nodes(u)
        x = np.where(u >= 0, b - d * delta, a + d * delta)
        x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
        y = np.asarray(fn(x), dtype=float)
        contrib = d * w * y
        bad = ~np.isfinite(contrib)
        if np.any(bad):
            if np.any(np.abs(d * w[bad]) > 1e-280):
                raise EvaluationError(f"integrand not finite inside ({a}, {b})")
            contrib = np.where(bad, 0.0, contrib)
        total += float(np.sum(contrib))
        est = h * total
        if prev is not None:
            err = abs(est - prev)
            if err <= max(abs_tol, rel_tol * abs(est)) and level >= 2:
                return est, err, True
        prev = est
    est = prev if prev is not None else 0.0
    return est, err, False


def _exp_sinh(fn, a, sign, abs_tol, rel_tol, max_level=10):
    """Double-exponential rule on (a, +inf) (sign=+1) or (-inf, a) (-1)."""
    total = 0.0
    prev = None
    err = math.inf
    h = 1.0
    for level, u in enumerate(_DE_U[: max_level + 1]):
        if level > 0:
            h *= 0.5
        t = 0.5 * np.pi * np.sinh(u)
        r = np.exp(t)
        x = a + sign * r
        w = 0.5 * np.pi * np.cosh(u) * r
        y = np.asarray(fn(x), dtype=float)
        contrib = w * y
        bad = ~np.isfinite(contrib)
        if np.any(bad):
            if np.any(~np.isfinite(y[bad]) & (w[bad] > 1e-280)):
                raise EvaluationError("integrand not finite on infinite tail")
            contrib = np.where(bad, 0.0, contrib)
        total += float(np.sum(contrib))
        est = h * total
        if prev is not None:
            err = abs(est - prev)
            if err <= max(abs_tol, rel_tol * abs(est)) and level >= 2:
                return est, err, True
        prev = est
    est = prev if prev is not None else 0.0
    return est, err, False


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def _split_points(a, b, hints):
    pts = sorted({float(h) for h in hints if a < h < b})
    return pts


def integrate(fn, domain, config: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate ``fn`` over ``domain = (a, b)`` with a <= b extended reals.

    The domain is split at every interior singularity hint (and at 0 for
    doubly infinite domains); finite pieces use adaptive Gauss-Kronrod
    with a tanh-sinh retry, infinite pieces use exp-sinh.
    """
    cfg = config or DEFAULT_CONFIG
    a, b = float(domain[0]), float(domain[1])
    if math.isnan(a) or math.isnan(b) or a > b:
        raise InputError(f"inverted or invalid domain ({a}, {b})")
    if a == b:
        return IntegralResult(0.0, 0.0, "converged")

    cuts = _split_points(a, b, cfg.singularities)
    if math.isinf(a) and math.isinf(b) and not cuts:
        cuts = [0.0]
    edges = [a] + cuts + [b]

    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces.append((lo, hi))

    n = len(pieces)
    atol_piece = cfg.abs_tol / n
    hint_set = {float(h) for h in cfg.singularities}
    value = 0.0
    error = 0.0
    all_ok = True
    for lo, hi in pieces:
        if math.isinf(lo) and math.isinf(hi):
            raise InputError("cannot integrate a doubly infinite piece")
        if math.isinf(hi):
            v, e, ok = _exp_sinh(fn, lo, +1.0, atol_piece, cfg.rel_tol)
        elif math.isinf(lo):
            v, e, ok = _exp_sinh(fn, hi, -1.0, atol_piece, cfg.rel_tol)
        else:
            # Pieces whose endpoint is a hinted singularity (or which were
            # produced by splitting at one) go straight to tanh-sinh, which
            # clusters nodes double-exponentially at the endpoints.
            scale = max(1.0, abs(lo), abs(hi))
            endpoint_singular = any(
                abs(lo - h) <= 1e-12 * scale or abs(hi - h) <= 1e-12 * scale
                for h in hint_set
            )
            if endpoint_singular:
                v, e, ok = _tanh_sinh(fn, lo, hi, atol_piece, cfg.rel_tol)
                if not ok:
                    v2, e2, ok2 = _adaptive_gk(
                        fn, lo, hi, atol_piece, cfg.rel_tol, cfg.max_depth
                    )
                    if ok2 or e2 < e:
                        v, e, ok = v2, e2, ok2
            else:
                v, e, ok = _adaptive_gk(
                    fn, lo, hi, atol_piece, cfg.rel_tol, cfg.max_depth
                )
                if not ok:
                    v2, e2, ok2 = _tanh_sinh(fn, lo, hi, atol_piece, cfg.rel_tol)
                    if ok2 or e2 < e:
                        v, e, ok = v2, e2, ok2
        if not math.isfinite(v) or abs(v) > 1e100:
            return IntegralResult(v, math.inf, "divergent")
        value += v
        error += e
        all_ok = all_ok and ok

    if not math.isfinite(value):
        return IntegralResult(value, math.inf, "divergent")
    status = "converged" if all_ok else "tolerance-not-met"
    if status == "converged" and error > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        status = "tolerance-not-met"
    return IntegralResult(value, error, status)


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    if not x > 0:
        raise InputError(f"gamma_fn requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def beta_fn(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise InputError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(math.exp(gammaln(a) + gammaln(b) - gammaln(a + b)))


# ---------------------------------------------------------------------------
# Differentiation and root finding
# ---------------------------------------------------------------------------


def differentiate(fn, x: float) -> float:
    """Central difference with one Richardson extrapolation step.

    Step h = cbrt(machine eps) * max(1, |x|).
    """
    x = float(x)
    h = _EPS ** (1.0 / 3.0) * max(1.0, abs(x))
    f1p, f1m = float(fn(x + h)), float(fn(x - h))
    f2p, f2m = float(fn(x + 0.5 * h)), float(fn(x - 0.5 * h))
    for v in (f1p, f1m, f2p, f2m):
        if not math.isfinite(v):
            raise EvaluationError(f"function not finite near x={x}")
    d1 = (f1p - f1m) / (2.0 * h)
    d2 = (f2p - f2m) / h
    return (4.0 * d2 - d1) / 3.0


def find_root(fn, bracket) -> float:
    """Root of ``fn`` inside ``bracket = (lo, hi)``; requires a sign change."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError(f"invalid bracket ({lo}, {hi})")
    flo, fhi = float(fn(lo)), float(fn(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise InputError(f"no sign change on bracket ({lo}, {hi})")
    # Imported here: scipy.optimize takes a sizeable share of the package's
    # start-up time and nothing else uses it.
    from scipy.optimize import brentq

    return float(brentq(fn, lo, hi, xtol=1e-15, rtol=4 * _EPS, maxiter=200))


# ---------------------------------------------------------------------------
# Essential supremum
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo, hi, iters=80):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = float(fn(c)), float(fn(d))
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = float(fn(d))
        if b - a < 1e-13 * max(1.0, abs(a), abs(b)):
            break
    return max(fc, fd)


def _sup_grid(support):
    """A scan grid dense near finite endpoints, compactified if infinite."""
    a, b = support
    n = 4097
    t = np.linspace(0.0, 1.0, n)
    if math.isinf(a) and math.isinf(b):
        u = t[1:-1]
        return np.tan(np.pi * (u - 0.5))
    if math.isinf(b):
        u = t[:-1]
        return a + u / (1.0 - u)
    if math.isinf(a):
        u = t[1:]
        return b - (1.0 - u) / u
    return a + (b - a) * t


def essential_supremum(fn, support) -> float:
    """Supremum of ``fn`` over the interior of ``support``.

    Grid scan (4097 points, endpoint-dense for infinite intervals)
    followed by a golden-section polish around the five best grid
    maxima, with a refinement-growth check standing in for boundedness.
    """
    grid = _sup_grid(support)
    vals = np.asarray(fn(grid), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    if np.all(vals == -np.inf):
        raise EvaluationError("function not finite anywhere on the support")

    # Refinement-growth check: compare against a grid twice as dense.
    a, b = support
    fine = _sup_grid((a, b))
    mid = 0.5 * (fine[1:] + fine[:-1])
    fv = np.asarray(fn(mid), dtype=float)
    fv = np.where(np.isfinite(fv), fv, -np.inf)
    m0 = float(np.max(vals))
    m1 = max(m0, float(np.max(fv)))
    scale = max(1.0, abs(m0))
    if m1 > m0 + 0.5 * scale and m1 > 10.0 * scale:
        raise UnboundedError("supremum keeps growing under grid refinement")

    order = np.argsort(vals)[::-1][:5]
    best = m1
    for i in order:
        lo = grid[max(int(i) - 1, 0)]
        hi = grid[min(int(i) + 1, grid.size - 1)]
        if hi > lo:
            best = max(best, _golden_max(fn, float(lo), float(hi)))
    return best


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def _clip_window(fn, support):
    """A finite window outside which |fn| is negligible (or constant)."""
    a, b = support
    if math.isfinite(a) and math.isfinite(b):
        return a, b, True, True
    lo = a if math.isfinite(a) else -8.0
    hi = b if math.isfinite(b) else 8.0
    for _ in range(12):
        settled = True
        if not math.isfinite(a):
            slope = abs(
                float(fn(np.array([lo]))[0]) - float(fn(np.array([lo + 1e-3]))[0])
            )
            if slope > 1e-13:
                lo *= 2.0
                settled = False
        if not math.isfinite(b):
            slope = abs(
                float(fn(np.array([hi]))[0]) - float(fn(np.array([hi - 1e-3]))[0])
            )
            if slope > 1e-13:
                hi *= 2.0
                settled = False
        if settled:
            break
    return lo, hi, math.isfinite(a), math.isfinite(b)


def total_variation(fn, support, jump_hints=()) -> float:
    """Total variation of ``fn`` over ``support``, treating fn as 0 outside.

    Piecewise-monotone decomposition on a dense grid with golden-section
    polish of interior extrema; jumps at finite support endpoints where
    fn does not vanish, and at hinted interior discontinuities, are added
    as their one-sided magnitudes.
    """
    lo, hi, left_edge, right_edge = _clip_window(fn, support)
    if hi <= lo:
        return 0.0
    h_edge = 1e-9 * max(1.0, abs(lo), abs(hi))

    hints = sorted({float(t) for t in jump_hints if lo < t < hi})
    seg_edges = [lo] + hints + [hi]

    var = 0.0
    # Edge jumps: fn is 0 outside the support.
    if left_edge:
        var += abs(float(fn(np.array([lo + h_edge]))[0]))
    if right_edge:
        var += abs(float(fn(np.array([hi - h_edge]))[0]))
    # Interior hinted jumps.
    for t in hints:
        fl = float(fn(np.array([t - h_edge]))[0])
        fr = float(fn(np.array([t + h_edge]))[0])
        var += abs(fr - fl)

    prev_total = None
    n = 8193
    for _ in range(3):
        smooth = 0.0
        for s_lo, s_hi in zip(seg_edges[:-1], seg_edges[1:]):
            g_lo, g_hi = s_lo + h_edge, s_hi - h_edge
            if g_hi <= g_lo:
                continue
            x = np.linspace(g_lo, g_hi, n)
            y = np.asarray(fn(x), dtype=float)
            if not np.all(np.isfinite(y)):
                raise EvaluationError("non-finite values inside a smooth piece")
            d = np.diff(y)
            # Polish interior extrema so monotone-run sums are sharp.
            sgn = np.sign(d)
            turn = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0] + 1
            extra = 0.0
            for i in turn[:64]:
                bracket_lo, bracket_hi = float(x[i - 1]), float(x[i + 1])
                if sgn[i - 1] > 0:  # local max
                    peak = _golden_max(fn, bracket_lo, bracket_hi)
                    extra += 2.0 * max(0.0, peak - max(y[i], y[i - 1], y[i + 1]))
                else:  # local min
                    trough = -_golden_max(lambda z: -fn(z), bracket_lo, bracket_hi)
                    extra += 2.0 * max(0.0, min(y[i], y[i - 1], y[i + 1]) - trough)
            smooth += float(np.sum(np.abs(d))) + extra
        total = var + smooth
        if prev_total is not None:
            if total > 2.0 * prev_total + 1.0:
                raise UnboundedError("total variation grows under refinement")
            if abs(total - prev_total) <= 1e-9 * max(1.0, abs(total)):
                return total
        prev_total = total
        n = 2 * (n - 1) + 1
    return prev_total
