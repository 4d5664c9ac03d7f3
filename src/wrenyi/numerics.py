"""Deterministic numerical kernels.

Adaptive quadrature over finite, semi-infinite and doubly infinite
intervals (Gauss-Kronrod 15 on finite pieces, double-exponential
transforms for infinite tails and stubborn endpoint singularities),
Gamma/Beta special functions, central-difference differentiation,
bracketed root finding, and essential suprema and total variations,
both scanned on one grid (:func:`_sup_grid`) that compactifies an
infinite support and polished by one zoom grid (:func:`_zoom_lockstep`).

An integrand call, not a point, is the unit of cost: an integrand such
as the transport map runs a whole CDF sweep per call.  So the kernel
batches.  Adaptive GK15 refines in rounds: the worst leaves of a heap
are bisected together and every child panel comes from one integrand
call.  The double-exponential rules are tabulated per level at import;
levels 0-3 come from one integrand call and each later level from one
more, and the levels are consumed in order.  The searches batch too:
each zoom step takes 31 points in every open bracket from one call, and
shrinks each bracket 16-fold.

Every routine is a pure function of its inputs; there is no shared
mutable state, so unrestricted concurrent use is safe.

Integrands are expected to be vectorized: called with a float ndarray,
they must return an ndarray of the same shape.  :func:`_masked` builds
the usual integrand against a density, core(x, f(x)) on {f > 0} only;
``densities.integral`` and ``densities.supremum`` wrap it with the
support, the breakpoints and the status rule.

One status rule turns a quadrature result into a value, and every
caller goes through it: :meth:`IntegralResult.checked` raises
``DomainError("<what> diverges")`` on a divergent integral and otherwise
returns a :class:`Value`, the integral with its error, carrying the
warning ``"<what>: quadrature tolerance not met (err=...)"`` when it is
unconverged.  Measures and checks combine Values with plain operators,
which propagate the errors and merge the warnings.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError, InputError, UnboundedError

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "Value",
    "MeasureValue",
    "relative_residual",
    "integrate",
    "gamma_fn",
    "beta_fn",
    "differentiate",
    "find_root",
    "essential_supremum",
    "total_variation",
]

_EPS = float(np.finfo(float).eps)


def _vec(impl):
    """Wrap an ndarray->ndarray evaluator so scalars work too."""

    def fn(x):
        arr = np.asarray(x, dtype=float)
        out = impl(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    return fn


def _finite(what: str, x) -> float:
    """``x`` as a float; a nan or an infinity is an InputError naming ``what``."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {x}")
    return x


def _exp(log_value: float, what: str) -> float:
    """exp of a log-value; an overflow is a DomainError, not a crash."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{what} overflows: exp({log_value!r})") from None


def _masked(f, core, fill: float = 0.0):
    """Integrand equal to core(x, f(x)) where f > 0 and ``fill`` elsewhere.

    ``f`` is anything with a vectorized ``pdf``.  Evaluating weights only
    on {f > 0} keeps inf * 0 = nan artifacts from tails where the density
    underflows.
    """

    def integrand(x):
        x = np.asarray(x, dtype=float)
        fx = np.asarray(f.pdf(x), dtype=float)
        m = fx > 0
        if m.size and m.all():
            # f > 0 at every node (most panels inside the support): no mask.
            out = np.empty_like(fx)
            out[...] = core(x, fx)
            return out
        out = np.full_like(fx, fill)
        if np.any(m):
            out[m] = core(x[m], fx[m])
        return out

    return integrand


# ---------------------------------------------------------------------------
# Configuration / result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and hints for :func:`integrate`.

    ``singularities`` lists points where the integrand may be unbounded
    or have an unbounded derivative, ``kinks`` points where it is only
    piecewise smooth; the domain is always split at both first.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    singularities: tuple[float, ...] = ()
    kinks: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise InputError("quadrature tolerances must be strictly positive")


def _merge(*warnings) -> tuple[str, ...]:
    """The warnings of every tuple, in order, each once."""
    return tuple(dict.fromkeys(w for ws in warnings for w in ws))


@dataclass(frozen=True)
class Value:
    """A number with its first-order error and the warnings behind it.

    Arithmetic (``+ - * /``, ``**`` with a float or Value exponent,
    :meth:`log`, :meth:`exp`) computes the number exactly as the same
    expression on floats does (a ``/`` or ``**`` that overflows or
    divides by zero, and a log of a number <= 0, raise DomainError),
    merges the warnings of its operands and propagates the error to
    first order: a result of the independent estimates x_i with errors
    e_i has error sum_i |d result / d x_i| e_i.
    ``parts`` keeps that sum term by term, keyed by estimate, so an
    estimate that enters twice, as N in N^a / N^b, counts once with its
    net sensitivity.  A float operand is exact.
    """

    value: float
    error: float = 0.0
    warnings: tuple[str, ...] = ()
    parts: dict = field(default=None, repr=False, compare=False)

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __post_init__(self) -> None:
        if self.parts is None:
            object.__setattr__(self, "parts", {object(): self.error} if self.error else {})

    def __float__(self) -> float:
        return self.value

    @staticmethod
    def _of(value, *operands) -> "Value":
        """``value`` from (operand, d value / d operand) pairs."""
        parts: dict = {}
        warns: list = []
        for x, d in operands:
            if isinstance(x, Value):
                warns += x.warnings
                if d != 0:
                    for k, e in x.parts.items():
                        parts[k] = parts.get(k, 0.0) + d * e
        error = math.fsum(map(abs, parts.values()))
        return Value(value, error if error == error else math.inf, _merge(warns), parts)

    def __add__(self, other):
        return Value._of(self.value + _num(other), (self, 1.0), (other, 1.0))

    def __radd__(self, other):
        return Value._of(other + self.value, (self, 1.0))

    def __sub__(self, other):
        return Value._of(self.value - _num(other), (self, 1.0), (other, -1.0))

    def __rsub__(self, other):
        return Value._of(other - self.value, (self, -1.0))

    def __neg__(self):
        return Value._of(-self.value, (self, -1.0))

    def __mul__(self, other):
        y = _num(other)
        return Value._of(self.value * y, (self, y), (other, self.value))

    def __rmul__(self, other):
        return Value._of(other * self.value, (self, other))

    def __truediv__(self, other):
        y = _num(other)
        q = _arith(operator.truediv, self.value, "/", y)
        return Value._of(q, (self, 1.0 / y), (other, -q / y))

    def __rtruediv__(self, other):
        q = _arith(operator.truediv, other, "/", self.value)
        return Value._of(q, (self, -q / self.value))

    def __pow__(self, other):
        x, y = self.value, _num(other)
        r = _arith(operator.pow, x, "**", y)
        dx = _power_slope(x, y, r) if self.parts else 0.0
        dy = 0.0
        if isinstance(other, Value) and other.parts:
            dy = r * math.log(x) if x > 0 else math.nan
        return Value._of(r, (self, dx), (other, dy))

    def log(self) -> "Value":
        if not self.value > 0:
            raise DomainError(f"log({self.value!r}) is undefined")
        return Value._of(math.log(self.value), (self, 1.0 / self.value))

    def exp(self, what: str) -> "Value":
        """exp of a log-value; an overflow is a DomainError naming ``what``."""
        r = _exp(self.value, what)
        return Value._of(r, (self, r))


@dataclass(frozen=True)
class MeasureValue(Value):
    """A Value with the branch that computed it and its assumption margins."""

    branch: str = ""
    flags: dict = field(default_factory=dict)


def _num(x) -> float:
    return x.value if isinstance(x, Value) else x


def _arith(op, x: float, sym: str, y: float) -> float:
    """op(x, y) on floats; an overflow or a division by zero is a DomainError."""
    try:
        return op(x, y)
    except OverflowError:
        raise DomainError(f"{x!r} {sym} {y!r} overflows") from None
    except ZeroDivisionError:
        raise DomainError(f"{x!r} {sym} {y!r} divides by zero") from None


def relative_residual(lhs, rhs) -> float:
    """|lhs - rhs| / (1 + |lhs|) of two floats or Values."""
    lhs, rhs = _num(lhs), _num(rhs)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def _power_slope(x: float, y: float, r: float) -> float:
    """d x^y / d x from r = x^y; infinite at x = 0 for y < 1."""
    if x == 0:
        return math.inf if y < 1 else float(y == 1)
    return y * r / x


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    status: str  # "converged" | "tolerance-not-met" | "divergent"

    def checked(self, what: str) -> Value:
        """The :class:`Value` of an integral described by ``what``.

        A divergent integral raises :class:`DomainError`; one whose
        tolerance was not met comes with one warning.
        """
        if self.status == "divergent":
            raise DomainError(f"{what} diverges")
        if self.status == "tolerance-not-met":
            return Value(self.value, self.error, (
                f"{what}: quadrature tolerance not met (err={self.error:.2e})",
            ))
        return Value(self.value, self.error)


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15/7 pair (QUADPACK dqk15 constants)
# ---------------------------------------------------------------------------

_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full symmetric node/weight tables, ordered left to right.
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _gk15_nodes(a, b):
    """Kronrod nodes of the panels [a_k, b_k], one row each, and their half-widths."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return c[:, None] + h[:, None] * _XGK, h


def _gk15_sums(h, y):
    """(K15, |K15 - G7|) per panel from its half-width and its row of values."""
    k15 = h * (y @ _WGK)
    return k15, np.abs(k15 - h * (y @ _WG15))


def _gk15(fn, a, b):
    """GK15 panels on every [a_k, b_k] from one fn call: (K15, |K15 - G7|).

    A non-finite value raises ``EvaluationError`` naming its panel.
    """
    x, h = _gk15_nodes(a, b)
    y = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    bad = ~np.all(np.isfinite(y), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise EvaluationError(f"integrand not finite inside ({float(a[k])}, {float(b[k])})")
    return _gk15_sums(h, y)


def _fsum(values) -> float:
    """math.fsum, or the plain sum (inf or nan) where the floats overflow."""
    values = list(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


_MAX_DEPTH = 60  # bisections below a starting panel
_MAX_PANELS = 8193  # the start, as one panel, and 4,096 bisections
_MAX_ROUND = 512  # bisections per round, so a call after the first sees at most 15,360 nodes


def _adaptive_gk(fn, a, b, abs_tol, rel_tol):
    """Adaptive bisection with GK15 panels from the finite starting panels [a_k, b_k].

    ``a`` and ``b`` are floats for one starting panel, or sequences for
    adjacent ones (the pieces of a domain split at its kinks); all
    starting panels come from one fn call.  The leaves sit in a heap,
    worst error first, under running totals of value and error.  Each
    round pops the fewest worst leaves whose errors add up to more than
    err - tol, bisects them all and takes every child's panel from one fn
    call: the batched-interval refinement of QUADPACK ``qag`` (Piessens
    et al., 1983).  A leaf at depth ``_MAX_DEPTH``, or too narrow to
    bisect, is frozen.  The refinement stops once the error meets the
    tolerance, when no leaf is left to bisect, after ``_MAX_PANELS``
    panels or once the error is not finite (a panel overflowed); the
    value and error returned are exact sums over the leaves.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    v, e = _gk15(fn, a, b)
    leaves = [(-ek, *leaf, 0) for *leaf, ek in zip(a.tolist(), b.tolist(), v.tolist(), e.tolist())]
    heapq.heapify(leaves)  # (-error, lo, hi, value, depth)
    frozen: list[tuple[float, float, float, float, int]] = []
    total, err, panels = _fsum(v.tolist()), _fsum(e.tolist()), 1

    def exact():
        every = leaves + frozen
        return _fsum(l[3] for l in every), _fsum(-l[0] for l in every)

    while leaves and panels < _MAX_PANELS and math.isfinite(err):
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            # The running totals drift by rounding: confirm on exact sums.
            total, err = exact()
            tol = max(abs_tol, rel_tol * abs(total))
            if err <= tol:
                break
        room = min((_MAX_PANELS - panels) // 2, _MAX_ROUND)
        picked, lo, hi, depth = [], [], [], []
        gain = 0.0
        while leaves and len(picked) < room and gain <= err - tol:
            leaf = heapq.heappop(leaves)
            we, wa, wb, _, wd = leaf
            if wd >= _MAX_DEPTH or (wb - wa) <= 4 * _EPS * max(abs(wa), abs(wb), 1.0):
                frozen.append(leaf)
                continue
            picked.append(leaf)
            lo.append(wa)
            hi.append(wb)
            depth.append(wd + 1)
            gain -= we
        if not picked:
            continue
        lo, hi = np.array(lo), np.array(hi)
        mid = 0.5 * (lo + hi)
        v, e = _gk15(fn, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        panels += v.size
        total += _fsum(v) - _fsum(l[3] for l in picked)
        err += _fsum(e) - _fsum(-l[0] for l in picked)
        ends = np.concatenate([lo, mid, hi]).tolist()
        n = len(picked)
        for k, (vk, ek) in enumerate(zip(v.tolist(), e.tolist())):
            heapq.heappush(leaves, (-ek, ends[k], ends[k + n], vk, depth[k % n]))
    total, err = exact()
    return total, err, err <= max(abs_tol, rel_tol * abs(total))


# ---------------------------------------------------------------------------
# Double-exponential rules
# ---------------------------------------------------------------------------

_DE_CUT = 4.3  # |u| <= _DE_CUT keeps exp((pi/2) sinh u) inside float range
_DE_MAX_LEVEL = 10


def _de_levels():
    """Abscissae u for each refinement level of the trapezoid in u.

    Level 0 holds the integer multiples of h=1 inside [-cut, cut]; level
    j holds the odd multiples of h = 2**-j, so the union over levels
    0..j is the full grid of multiples of 2**-j.
    """
    k0 = int(math.floor(_DE_CUT))
    levels = [np.arange(-k0, k0 + 1, 1.0)]
    for j in range(1, _DE_MAX_LEVEL + 1):
        h = 2.0**-j
        k_max = int(math.floor(_DE_CUT / h))
        ks = np.arange(1, k_max + 1, 2)
        u = np.concatenate([-ks[::-1], ks]) * h
        levels.append(u)
    return levels


_DE_U = _de_levels()


def _de_tables():
    """Unit rules of every level, tabulated once.

    Tanh-sinh: u >= 0, the offset delta = 1 - |tanh((pi/2) sinh u)| of a
    node from its end (computed stably, so an endpoint singularity is
    never evaluated at the endpoint itself) and the weight on [-1, 1].
    Exp-sinh: r = exp((pi/2) sinh u) and its weight.
    """
    tanh_sinh, exp_sinh = [], []
    for u in _DE_U:
        e2 = np.exp(-2.0 * np.abs(0.5 * np.pi * np.sinh(u)))
        w = 0.5 * np.pi * np.cosh(u) * (4.0 * e2 / (1.0 + e2) ** 2)
        tanh_sinh.append((u >= 0, 2.0 * e2 / (1.0 + e2), w))
        r = np.exp(0.5 * np.pi * np.sinh(u))
        exp_sinh.append((r, 0.5 * np.pi * np.cosh(u) * r))
    return tanh_sinh, exp_sinh


_TANH_SINH, _EXP_SINH = _de_tables()
_DE_SHARED = 4  # levels 0-3 share the first fn call


def _tanh_sinh_place(a, b):
    """Nodes and weights of level j of the tanh-sinh rule on the finite [a, b]."""
    d = 0.5 * (b - a)
    inner = np.nextafter(a, b), np.nextafter(b, a)

    def place(j):
        pos, delta, w = _TANH_SINH[j]
        x = np.where(pos, b - d * delta, a + d * delta)
        return np.clip(x, *inner), d * w

    return place


def _exp_sinh_place(lo, hi):
    """Nodes and weights of level j of the exp-sinh rule on (lo, +inf) or (-inf, hi)."""
    a, sign = (lo, 1.0) if math.isinf(hi) else (hi, -1.0)

    def place(j):
        r, w = _EXP_SINH[j]
        return a + sign * r, w

    return place


def _de_values(fn, place):
    """(weights, fn values) of every level in order, each fn call made on demand.

    Levels 0-3 come from one fn call, every later level from one call of
    its own.
    """
    first = [place(j) for j in range(_DE_SHARED)]
    y = np.asarray(fn(np.concatenate([x for x, _ in first])), dtype=float)
    cuts = np.cumsum([x.size for x, _ in first])[:-1]
    for (_, w), yj in zip(first, np.split(y, cuts)):
        yield w, yj
    for j in range(_DE_SHARED, len(_DE_U)):
        x, w = place(j)
        yield w, np.asarray(fn(x), dtype=float)


def _double_exponential(fn, place, abs_tol, rel_tol, where):
    """Trapezoid rule in u on the nodes and weights ``place(j)`` gives per level.

    Each level halves the step (Takahasi and Mori, 1974); the result is
    accepted once two successive levels agree, from level 2 on.  The
    levels are consumed in order, so a value at a level past the one
    accepted is never looked at.  A non-finite contribution w * fn(x) at
    a node whose weight exceeds 1e-280 raises ``EvaluationError("integrand
    not finite <where>")``; one at a smaller weight, deep in an end where
    fn may overflow, is dropped.
    """
    total = 0.0
    prev = None
    err = math.inf
    h = 1.0
    for level, (w, y) in enumerate(_de_values(fn, place)):
        if level > 0:
            h *= 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = w * y
        bad = ~np.isfinite(contrib)
        if np.any(bad):
            if np.any(np.abs(w[bad]) > 1e-280):
                raise EvaluationError(f"integrand not finite {where}")
            contrib = np.where(bad, 0.0, contrib)
        total += float(np.sum(contrib))
        est = h * total
        if prev is not None:
            err = abs(est - prev)
            if err <= max(abs_tol, rel_tol * abs(est)) and level >= 2:
                return est, err, True
        prev = est
    return prev, err, False


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def integrate(fn, domain, config: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate ``fn`` over ``domain = (a, b)`` with a <= b extended reals.

    The domain is split at every interior singularity and kink (at 0 for
    a doubly infinite domain with neither).  Infinite pieces use
    exp-sinh.  A finite piece with an end at a singularity uses
    tanh-sinh, which clusters its nodes double-exponentially at the ends,
    with an adaptive Gauss-Kronrod retry.  Each run of adjacent finite
    pieces with no singular end is one adaptive Gauss-Kronrod refinement
    whose starting panels are the run's pieces, so a kink costs no
    bisections (the breakpoints of QUADPACK ``qagp``), with a tanh-sinh
    retry over the whole run.  The pieces are summed in domain order.
    """
    cfg = config or DEFAULT_CONFIG
    a, b = float(domain[0]), float(domain[1])
    if math.isnan(a) or math.isnan(b) or a > b:
        raise InputError(f"inverted or invalid domain ({a}, {b})")
    if a == b:
        return IntegralResult(0.0, 0.0, "converged")

    sing = sorted({float(h) for h in cfg.singularities})
    cuts = sorted({float(h) for h in (*sing, *cfg.kinks) if a < h < b})
    if math.isinf(a) and math.isinf(b) and not cuts:
        cuts = [0.0]
    edges = [a] + cuts + [b]
    atol_piece = cfg.abs_tol / (len(edges) - 1)

    def singular(x, scale):  # x within 1e-12 scale of a singularity
        i = bisect.bisect_left(sing, x)
        return any(abs(x - h) <= 1e-12 * scale for h in sing[max(i - 1, 0) : i + 1])

    runs: list = []  # [kind, pieces]; adjacent smooth pieces share a run
    for lo, hi in zip(edges[:-1], edges[1:]):
        scale = max(1.0, abs(lo), abs(hi))
        kind = "tail" if math.isinf(scale) else "smooth"
        if kind == "smooth" and (singular(lo, scale) or singular(hi, scale)):
            kind = "singular"
        if kind == "smooth" and runs and runs[-1][0] == "smooth":
            runs[-1][1].append((lo, hi))
        else:
            runs.append([kind, [(lo, hi)]])

    value, error, all_ok = 0.0, 0.0, True
    for kind, run in runs:
        (lo, _), (_, hi), tol = run[0], run[-1], atol_piece * len(run)
        if kind == "tail":
            place, where = _exp_sinh_place(lo, hi), "on infinite tail"
            v, e, ok = _double_exponential(fn, place, tol, cfg.rel_tol, where)
        else:
            gk = lambda: _adaptive_gk(fn, *zip(*run), tol, cfg.rel_tol)
            de = lambda: _double_exponential(
                fn, _tanh_sinh_place(lo, hi), tol, cfg.rel_tol, f"inside ({lo}, {hi})"
            )
            primary, fallback = (de, gk) if kind == "singular" else (gk, de)
            v, e, ok = primary()
            if not ok:
                v2, e2, ok2 = fallback()
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
    """Gamma(x) for x > 0; an overflow (x > 171.6) is a DomainError."""
    if not x > 0:
        raise InputError(f"gamma_fn requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x!r}) overflows") from None


def beta_fn(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    if not (a > 0 and b > 0):
        raise InputError(f"beta_fn requires positive arguments, got ({a}, {b})")
    # Imported here, as in every other scipy.special user: scipy.special
    # costs more to import than numpy, and most runs never need it.
    from scipy.special import gammaln

    return float(math.exp(gammaln(a) + gammaln(b) - gammaln(a + b)))


# ---------------------------------------------------------------------------
# Differentiation and root finding
# ---------------------------------------------------------------------------


def differentiate(fn, x):
    """Central difference with one Richardson extrapolation step.

    Step h = cbrt(machine eps) * max(1, |x|).  ``x`` may be an array, for
    a vectorized ``fn``; a scalar gives a float.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    h = _EPS ** (1.0 / 3.0) * np.maximum(1.0, np.abs(arr))
    if scalar:
        arr, h = float(arr), float(h)
    f1p, f1m, f2p, f2m = (
        np.asarray(fn(arr + s * h), dtype=float) for s in (1.0, -1.0, 0.5, -0.5)
    )
    bad = ~(np.isfinite(f1p) & np.isfinite(f1m) & np.isfinite(f2p) & np.isfinite(f2m))
    if np.any(bad):
        near = np.atleast_1d(arr)[np.atleast_1d(bad)][0]
        raise EvaluationError(f"function not finite near x={near}")
    d1 = (f1p - f1m) / (2.0 * h)
    d2 = (f2p - f2m) / h
    out = (4.0 * d2 - d1) / 3.0
    return float(out) if scalar else out


def find_root(fn, bracket) -> float:
    """Root of ``fn`` inside ``bracket = (lo, hi)``; requires a sign change.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) in the form of scipy's ``brentq``, whose
    iterates it repeats, here without importing scipy.optimize: inverse
    quadratic or secant steps, a bisection whenever a step would not
    shrink the bracket fast enough, and a stop once the bracket is within
    1e-15 + 4 eps |x|.  A root not found within 200 steps is a
    DomainError.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError(f"invalid bracket ({lo}, {hi})")
    xpre, xcur = lo, hi
    fpre, fcur = float(fn(lo)), float(fn(hi))
    if fpre == 0.0:
        return lo
    if fcur == 0.0:
        return hi
    if (fpre < 0) == (fcur < 0):
        raise InputError(f"no sign change on bracket ({lo}, {hi})")
    # xcur is the best iterate, xblk the other end of the bracket, xpre
    # the previous iterate; scur and spre are the last two steps.
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-15 + 4 * _EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a bisection unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(fn(xcur))
    raise DomainError(f"root search did not converge on bracket ({lo}, {hi})")


# ---------------------------------------------------------------------------
# Essential supremum
# ---------------------------------------------------------------------------

_ZOOM = 31  # interior points per bracket and step: a bracket shrinks 16x per step


def _zoom_lockstep(fn, lo, hi, sign=1.0):
    """Maxima of ``sign * fn`` on the brackets [lo[k], hi[k]] by a zoom grid.

    Each step makes one ``fn`` call on the ``_ZOOM`` evenly spaced
    interior points of every bracket still open, and each bracket keeps
    the two cells around its best point, the first of a tie: 1/16 of its
    width.  A NaN value reads as -inf.  Every bracket takes a step; it
    freezes once b - a < 1e-13 max(1, |a|, |b|) or after 16 steps, so
    each visits exactly the points of its own run alone.  Returns, per
    bracket, the largest value of ``sign * fn`` it visited.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), a.shape)
    best = np.full(a.shape, -np.inf)
    t = np.arange(1, _ZOOM + 1) / (_ZOOM + 1)
    k = np.arange(a.size)
    for _ in range(16):
        if k.size == 0:
            break
        x = a[k, None] + (b[k] - a[k])[:, None] * t
        y = sign[k, None] * np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        y[np.isnan(y)] = -np.inf
        j = np.argmax(y, axis=1)
        row = np.arange(k.size)
        best[k] = np.maximum(best[k], y[row, j])
        ends = np.column_stack([a[k], x, b[k]])
        a[k], b[k] = ends[row, j], ends[row, j + 2]
        ak, bk = a[k], b[k]
        k = k[~(bk - ak < 1e-13 * np.maximum(np.maximum(1.0, np.abs(ak)), np.abs(bk)))]
    return best


def _sup_grid(support, n):
    """``n`` points spanning ``support``, compactified if it is infinite.

    A linspace of [0, 1], mapped linearly onto a finite support and by
    the rational (one infinite end) or tangent (two) map onto an
    infinite one, whose points at the infinite ends are dropped.
    """
    a, b = support
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

    Grid scan (:func:`_sup_grid` with 4097 points) followed by a zoom
    (:func:`_zoom_lockstep`) around the five best grid maxima, one ``fn``
    call per step for all five, with a refinement-growth check standing
    in for boundedness.
    """
    grid = _sup_grid(support, 4097)
    vals = np.asarray(fn(grid), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    if np.all(vals == -np.inf):
        raise EvaluationError("function not finite anywhere on the support")

    # Refinement-growth check: the midpoints make the grid twice as dense.
    mid = 0.5 * (grid[1:] + grid[:-1])
    fv = np.asarray(fn(mid), dtype=float)
    fv = np.where(np.isfinite(fv), fv, -np.inf)
    m0 = float(np.max(vals))
    m1 = max(m0, float(np.max(fv)))
    scale = max(1.0, abs(m0))
    if m1 > m0 + 0.5 * scale and m1 > 10.0 * scale:
        raise UnboundedError("supremum keeps growing under grid refinement")

    order = np.argsort(vals)[::-1][:5]
    lo = grid[np.maximum(order - 1, 0)]
    hi = grid[np.minimum(order + 1, grid.size - 1)]
    best = m1
    for peak in _zoom_lockstep(fn, lo[hi > lo], hi[hi > lo]).tolist():
        best = max(best, peak)
    return best


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def total_variation(fn, support, jump_hints=()) -> float:
    """Total variation of ``fn`` over ``support``, treating fn as 0 outside.

    The support is cut at the hinted jumps, and each segment is scanned
    on :func:`_sup_grid` with its finite ends moved one float inside, so
    that a scan starts and ends on fn's one-sided limits.  The variation
    is the jumps (from 0 at a finite support end, between neighbouring
    scans at a hint) plus each scan's piecewise-monotone sum, whose
    interior extrema are polished by a zoom (:func:`_zoom_lockstep`), all
    peaks and troughs of one refinement level in one ``fn`` call per
    step.  The scans are refined (8193, 16385 and 32769 points) until two
    totals agree to 1e-9.
    """
    a, b = support
    hints = sorted({float(t) for t in jump_hints if a < t < b})
    segments = list(zip([a, *hints], [*hints, b]))
    prev_total = None
    n = 8193
    for _ in range(3):
        scans, brackets = [], []
        for lo, hi in segments:
            x = _sup_grid((lo, hi), n)
            if math.isfinite(lo):
                x[0] = np.nextafter(lo, hi)
            if math.isfinite(hi):
                x[-1] = np.nextafter(hi, lo)
            y = np.asarray(fn(x), dtype=float)
            if not np.all(np.isfinite(y)):
                raise EvaluationError("non-finite values on the support")
            d = np.diff(y)
            sgn = np.sign(d)
            turn = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0][:64] + 1
            scans.append((y, d, sgn, turn))
            # (lo, hi, +1 before a peak or -1 before a trough)
            brackets += [(x[i - 1], x[i + 1], sgn[i - 1]) for i in turn]
        # Polish interior extrema so monotone-run sums are sharp: all of
        # this level at once, a trough as the negated peak of -fn.
        br = np.array(brackets, dtype=float).reshape(-1, 3)
        polished = iter(_zoom_lockstep(fn, br[:, 0], br[:, 1], br[:, 2]).tolist())
        # The jumps: from 0 at a finite support end, and across each hint.
        firsts = [float(y[0]) for y, *_ in scans]
        lasts = [float(y[-1]) for y, *_ in scans]
        var = abs(firsts[0]) if math.isfinite(a) else 0.0
        var += abs(lasts[-1]) if math.isfinite(b) else 0.0
        for left, right in zip(lasts, firsts[1:]):
            var += abs(right - left)
        smooth = 0.0
        for y, d, sgn, turn in scans:
            extra = 0.0
            for i in turn:
                if sgn[i - 1] > 0:  # local max
                    peak = next(polished)
                    extra += 2.0 * max(0.0, peak - max(y[i], y[i - 1], y[i + 1]))
                else:  # local min
                    trough = -next(polished)
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
