"""Independent references and the output checker behind ``failed``.

Every density and weight is re-implemented here from the formulas in
the README with ``mpmath``; normalization constants are computed by
quadrature rather than taken from the closed forms, so a wrong constant
in the program shows as a wrong value.  Nothing here imports wrenyi.

Rules (one failure = one wrong op):

* a measure value must match its reference within
  ``|v - ref| <= REL_TOL |ref| + ABS_TOL``; the exponential family with
  an exp-linear or constant weight uses the paper's closed forms;
* an identity or scaling residual must be at most its pass bound;
* a bound check must print ``"holds"`` when every margin is
  ``>= -MARGIN_TOL`` and ``"violated"`` or ``"assumptions-unmet"`` when
  one is below; ``"inconclusive"`` is always wrong, and every side,
  slack, error and margin must be finite;
* selected terms of the bound checks (divergence, N_f, sigma_f) must
  match their references like a measure value;
* every repetition of an op must print the same bytes as the first.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

mp.mp.dps = 15

REL_TOL = 1e-6
ABS_TOL = 1e-10
MARGIN_TOL = 1e-9
PASS_BOUND = {"id2.11": 1e-5, "id2.14": 1e-5, "id2.18": 1e-5, "id2.22": 1e-5, "scaling": 1e-7}
INF = mp.inf


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _sign(x):
    return (x > 0) - (x < 0)


def _quad(fn, points):
    return mp.quad(fn, points)


def ref_density(spec: dict) -> "RefDensity":
    """RefDensity of a spec, built once per distinct spec."""
    key = json.dumps(spec, sort_keys=True)
    if key not in _DENSITIES:
        _DENSITIES[key] = RefDensity(spec)
    return _DENSITIES[key]


_DENSITIES: dict = {}


class RefDensity:
    """pdf, derivative, support and break points of one density spec."""

    def __init__(self, spec: dict):
        fam = spec["family"]
        self.breaks = [mp.mpf(0)]
        if fam == "exp":
            lam = mp.mpf(spec["lam"])
            self.lo, self.hi = mp.mpf(0), INF
            self._u = lambda x: mp.exp(-lam * x)
            self._du = lambda x: -lam * mp.exp(-lam * x)
        elif fam == "laplace":
            b = mp.mpf(spec["b"])
            self.lo, self.hi = -INF, INF
            self._u = lambda x: mp.exp(-abs(x) / b)
            self._du = lambda x: -_sign(x) * mp.exp(-abs(x) / b) / b
        elif fam == "tent":
            self.lo, self.hi = mp.mpf(-1), mp.mpf(1)
            self._u = lambda x: 1 - abs(x)
            self._du = lambda x: -_sign(x)
        elif fam == "gg":
            self._init_gg(spec)
        elif fam == "weighted":
            base = ref_density(spec["base"])
            w = RefWeight(spec["weight"], base)
            self.lo, self.hi, self.breaks = base.lo, base.hi, base.breaks
            self._u = lambda x: w(x) * base.pdf(x)
            self._du = lambda x: w.d(x) * base.pdf(x) + w(x) * base.dpdf(x)
        elif fam == "table":
            self._init_table(spec["path"])
        else:
            raise ValueError(fam)
        pts = self.points()
        self.mass = _quad(self._u, pts)

    def _init_gg(self, spec):
        alpha, p = spec["alpha"], mp.mpf(spec["p"])
        t = mp.mpf(spec.get("t", 1.0))
        if math.isinf(alpha):
            self.lo, self.hi = -t, t
            self._u = lambda x: mp.mpf(1)
            self._du = lambda x: mp.mpf(0)
            return
        if alpha == 0.0:
            e = 1 / (p - 1)
            self.lo, self.hi = -t, t
            self._u = lambda x: (-mp.log(abs(x) / t)) ** e if x != 0 else INF
            self._du = lambda x: -e * (-mp.log(abs(x) / t)) ** (e - 1) / x
            return
        a = mp.mpf(alpha)
        if p == 1:
            self.lo, self.hi = -INF, INF
            self._u = lambda x: mp.exp(-abs(x / t) ** a)
            self._du = lambda x: -a * abs(x / t) ** (a - 1) * _sign(x) / t * mp.exp(-abs(x / t) ** a)
            return
        e = 1 / (p - 1)
        if p > 1:
            k = t * (p - 1) ** (-1 / a)
            self.lo, self.hi = -k, k
        else:
            self.lo, self.hi = -INF, INF

        def base(x):
            return 1 + (1 - p) * abs(x / t) ** a

        self._u = lambda x: base(x) ** e if base(x) > 0 else mp.mpf(0)
        self._du = lambda x: (
            e * base(x) ** (e - 1) * (1 - p) * a * abs(x / t) ** (a - 1) * _sign(x) / t
            if base(x) > 0
            else mp.mpf(0)
        )

    def _init_table(self, path):
        xs, ys = [], []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    x, y = line.split(",")
                    xs.append(mp.mpf(x))
                    ys.append(mp.mpf(y))
        self.lo, self.hi = xs[0], xs[-1]
        self.breaks = list(xs[1:-1])

        def seg(x):
            lo, hi = 0, len(xs) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if xs[mid] <= x:
                    lo = mid
                else:
                    hi = mid
            return lo

        def u(x):
            if not xs[0] < x < xs[-1]:
                return mp.mpf(0)
            i = seg(x)
            return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])

        def du(x):
            i = seg(x)
            return (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])

        self._u, self._du = u, du

    def points(self, extra=()):
        inner = sorted({b for b in list(self.breaks) + list(extra) if self.lo < b < self.hi})
        return [self.lo] + inner + [self.hi]

    def pdf(self, x):
        if not self.lo < x < self.hi:
            return mp.mpf(0)
        return self._u(x) / self.mass

    def dpdf(self, x):
        if not self.lo < x < self.hi:
            return mp.mpf(0)
        return self._du(x) / self.mass


class RefWeight:
    def __init__(self, spec: dict | None, density: RefDensity | None = None):
        spec = spec or {"family": "const", "v": 1.0}
        fam = spec["family"]
        if fam == "const":
            v = mp.mpf(spec["v"])
            self.fn, self.dfn = (lambda x: v), (lambda x: mp.mpf(0))
        elif fam == "expw":
            g = mp.mpf(spec["g"])
            self.fn, self.dfn = (lambda x: mp.exp(g * x)), (lambda x: g * mp.exp(g * x))
        elif fam == "pow":
            c = mp.mpf(spec["c"])
            self.fn = lambda x: abs(x) ** c
            self.dfn = lambda x: c * abs(x) ** (c - 1) * _sign(x) if x != 0 else mp.mpf(0)
        elif fam == "abspoly":
            a = [mp.mpf(v) for v in spec["coeffs"]]
            self.fn = lambda x: sum(ai * abs(x) ** i for i, ai in enumerate(a))
            self.dfn = lambda x: _sign(x) * sum(i * ai * abs(x) ** (i - 1) for i, ai in enumerate(a) if i)
        elif fam == "fpoly":
            b = [mp.mpf(v) for v in spec["coeffs"]]
            f = density
            self.fn = lambda x: sum(bi * f.pdf(x) ** i for i, bi in enumerate(b))
            self.dfn = lambda x: f.dpdf(x) * sum(i * bi * f.pdf(x) ** (i - 1) for i, bi in enumerate(b) if i)
        elif fam == "fpow":
            k, m = mp.mpf(spec["k"]), spec["m"]
            if m != 0:
                raise ValueError("fpow references support m = 0 only")
            f = density
            self.fn = lambda x: f.pdf(x) ** k if f.pdf(x) > 0 else mp.mpf(0)
            self.dfn = lambda x: k * f.pdf(x) ** (k - 1) * f.dpdf(x) if f.pdf(x) > 0 else mp.mpf(0)
        else:
            raise ValueError(fam)

    def __call__(self, x):
        return self.fn(x)

    def d(self, x):
        return self.dfn(x)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def _integral(f: RefDensity, core, extra=()):
    """int core(x, f(x)) over {f > 0}."""

    def integrand(x):
        fx = f.pdf(x)
        return core(x, fx) if fx > 0 else mp.mpf(0)

    return _quad(integrand, f.points(extra))


def _closed_exp(spec: dict):
    """Closed forms for Exp(l) with weight c e^{gx} (README / measures.py)."""
    f, w, mid = spec["f"], spec.get("w") or {"family": "const", "v": 1.0}, spec["measure"]
    if f["family"] != "exp" or w["family"] not in ("expw", "const") or spec.get("g"):
        return None
    lam = mp.mpf(f["lam"])
    g = mp.mpf(w["g"]) if w["family"] == "expw" else mp.mpf(0)
    c = mp.mpf(w["v"]) if w["family"] == "const" else mp.mpf(1)

    def phi_fp(p):  # int c e^{gx} (l e^{-lx})^p dx
        return c * lam**p / (p * lam - g)

    we = c * (-mp.log(lam) * lam / (lam - g) + lam * lam / (lam - g) ** 2)
    if mid == "we":
        return we
    if mid in ("wre", "wrp"):
        p = mp.mpf(spec["p"])
        if p == 1:  # wrp only
            return mp.exp(we / phi_fp(1))
        h = mp.log(phi_fp(p)) / (1 - p)
        return h if mid == "wre" else mp.exp(h)
    if mid in ("mom", "dev") and spec["alpha"] not in (0.0, math.inf):
        a = mp.mpf(spec["alpha"])
        mu = c * lam * mp.gamma(a + 1) / (lam - g) ** (a + 1)
        return mu if mid == "mom" else mu ** (1 / a)
    return None


def _renyi_integral(f, w, p):
    return _integral(f, lambda x, fx: w(x) * fx**p)


def _we(f, w):
    return _integral(f, lambda x, fx: -w(x) * fx * mp.log(fx))


def _rwe(f, g, w):
    return _integral(f, lambda x, fx: w(x) * fx * (mp.log(fx) - mp.log(g.pdf(x))), extra=g.breaks)


def _edges(f):
    """Break points and finite support edges of f (kinks of weights built on f)."""
    return list(f.breaks) + [e for e in (f.lo, f.hi) if mp.isfinite(e)]


def _rre(f, g, w, p):
    cross = _integral(f, lambda x, fx: w(x) * g.pdf(x) ** (p - 1) * fx, extra=g.breaks)
    i_g = _integral(g, lambda x, gx: w(x) * gx**p, extra=_edges(f))
    i_f = _renyi_integral(f, w, p)
    return mp.log(cross) / (1 - p) + mp.log(i_g) / p - mp.log(i_f) / (p * (1 - p))


def _esssup_edge(f, w):
    """sup w(x)|x| over a bounded support for weights increasing in |x|."""
    return max(w(f.lo) * abs(f.lo), w(f.hi) * abs(f.hi))


def _sup(fn, lo, hi, n=400):
    """Grid scan plus golden-section polish of fn on (lo, hi)."""
    xs = [lo + (hi - lo) * (i + mp.mpf(1) / 2) / n for i in range(n)]
    vals = [fn(x) for x in xs]
    i = max(range(n), key=lambda j: vals[j])
    a = xs[max(i - 1, 0)] if i > 0 else lo
    b = xs[min(i + 1, n - 1)] if i < n - 1 else hi
    gr = (mp.sqrt(5) - 1) / 2
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = fn(d)
    return max(fc, fd, vals[i])


def _bisect(fn, a, b, iters=60):
    """Sign-change root of fn in (a, b)."""
    fa = fn(a)
    for _ in range(iters):
        m = (a + b) / 2
        fm = fn(m)
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return (a + b) / 2


def _total_variation(h, dh, f):
    """Variation of h (0 outside the support) over a bounded support.

    Splits each break-point piece at the sign changes of dh, so the sum
    of |h(b) - h(a)| over monotone runs is exact.
    """
    eps = mp.mpf(10) ** -15
    pts = f.points()
    total = abs(h(pts[0] + eps)) + abs(h(pts[-1] - eps))
    for a, b in zip(pts[:-1], pts[1:]):
        a, b = a + eps, b - eps
        n = 200
        xs = [a + (b - a) * i / n for i in range(n + 1)]
        knots = [a]
        ds = [dh(x) for x in xs]
        for i in range(n):
            if ds[i] * ds[i + 1] < 0:
                knots.append(_bisect(dh, xs[i], xs[i + 1]))
        knots.append(b)
        total += sum(abs(h(y) - h(x)) for x, y in zip(knots[:-1], knots[1:]))
    return total


def measure_reference(spec: dict):
    """Reference value of one ``compute`` op."""
    closed = _closed_exp(spec)
    if closed is not None:
        return closed
    mid = spec["measure"]
    f = ref_density(spec["f"])
    w = RefWeight(spec.get("w"), f)
    p = mp.mpf(spec["p"]) if spec.get("p") is not None else None
    alpha = spec.get("alpha")
    if mid == "we":
        return _we(f, w)
    if mid == "rwe":
        return _rwe(f, ref_density(spec["g"]), w)
    if mid == "wre":
        return mp.log(_renyi_integral(f, w, p)) / (1 - p)
    if mid == "wrp":
        if p == 1:
            return mp.exp(_we(f, w) / _integral(f, lambda x, fx: w(x) * fx))
        return mp.exp(mp.log(_renyi_integral(f, w, p)) / (1 - p))
    if mid in ("rre", "rrp"):
        g = ref_density(spec["g"])
        d = _rwe(f, g, w) / _integral(f, lambda x, fx: w(x) * fx) if p == 1 else _rre(f, g, w, p)
        return d if mid == "rre" else mp.exp(d)
    if mid == "mom":
        return _integral(f, lambda x, fx: w(x) * abs(x) ** alpha * fx)
    if mid == "dev":
        if alpha == 0.0:
            lg = _integral(f, lambda x, fx: w(x) * fx * mp.log(abs(x)) if x != 0 else mp.mpf(0), extra=(-1, 1))
            return mp.exp(lg / _integral(f, lambda x, fx: w(x) * fx))
        if math.isinf(alpha):
            return _esssup_edge(f, w)
        a = mp.mpf(alpha)
        return _integral(f, lambda x, fx: w(x) * abs(x) ** a * fx) ** (1 / a)
    if mid in ("fi", "wfi"):
        wt = RefWeight(None) if mid == "fi" else w
        if math.isinf(alpha):
            h = lambda x: wt(x) * f.pdf(x) ** p / p  # noqa: E731
            dh = lambda x: (wt.d(x) * f.pdf(x) ** p + wt(x) * p * f.pdf(x) ** (p - 1) * f.dpdf(x)) / p  # noqa: E731
            corr = _integral(f, lambda x, fx: wt.d(x) * fx**p / p)
            return _total_variation(h, dh, f) - corr
        if alpha == 1.0:
            score = lambda x: wt(x) * f.pdf(x) ** (p - 2) * abs(f.dpdf(x)) if f.pdf(x) > 0 else 0  # noqa: E731
            return max(_sup(score, f.lo, mp.mpf(0)), _sup(score, mp.mpf(0), f.hi))
        a = mp.mpf(alpha)
        beta = a / (a - 1)
        raw = _integral(f, lambda x, fx: wt(x) * (fx ** (p - 2) * abs(f.dpdf(x))) ** beta * fx)
        return raw ** (1 / (beta * p)) if mid == "fi" else raw
    raise ValueError(mid)


# ---------------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------------


def _close(v, ref) -> bool:
    if isinstance(v, str) or v is None:
        return False
    return abs(mp.mpf(v) - ref) <= REL_TOL * abs(ref) + ABS_TOL


def reference_terms(op: dict) -> dict:
    """Every reference value an op's output is compared with, by key.

    Computed once per distinct op, outside the timed region.
    """
    spec = op["spec"]
    if "measure" in spec:
        return {"value": measure_reference(spec)}
    cid = spec["check"]
    refs = {}
    if cid == "thm1.1":
        refs["rhs"] = measure_reference(dict(spec, measure="rre"))
    elif cid in ("mei", "cri"):
        dev = dict(spec, measure="dev")
        refs["terms.sigma_f"] = measure_reference(dev)
        if cid == "mei":
            refs["terms.N_f"] = measure_reference(dict(spec, measure="wrp"))
    elif cid == "fii" and spec["p"] != 1.0 and not math.isinf(spec["alpha"]):
        refs["terms.N_f"] = measure_reference(dict(spec, measure="wrp"))
    return refs


def _lookup(out: dict, key: str):
    for part in key.split("."):
        out = out.get(part) if isinstance(out, dict) else None
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _verdict_problems(v: dict) -> list:
    """The verdict must be the one the reported margins call for:
    "holds" when every margin is >= -MARGIN_TOL, and "violated" or
    "assumptions-unmet" only when one is below.  "inconclusive" is
    always wrong: every deck op is computable to the checks' tolerance."""
    probs = []
    margins = v.get("margins", {})
    bad_margins = [k for k, m in margins.items() if not (_finite(m) and m >= -MARGIN_TOL)]
    allowed = ("violated", "assumptions-unmet") if bad_margins else ("holds",)
    if v.get("verdict") not in allowed:
        probs.append(f"verdict {v.get('verdict')!r} with margins {margins!r} (slack {v.get('slack')!r}, "
                     f"error {v.get('error')!r}); expected {' or '.join(allowed)}")
    for key in ("lhs", "rhs", "slack", "error"):
        if not _finite(v.get(key)):
            probs.append(f"{key} is not finite ({v.get(key)!r})")
    probs += [f"margin {k} is not finite ({margins[k]!r})" for k in bad_margins if not _finite(margins[k])]
    return probs


def check_output(op: dict, rc: int, text: str, refs: dict) -> list:
    """Problems with one op's output; an empty list means correct."""
    if rc != 0:
        return [f"exit code {rc}: {text.strip()[:200]}"]
    try:
        out = json.loads(text)
    except ValueError:
        return [f"output is not JSON: {text.strip()[:200]}"]
    spec = op["spec"]
    probs = []
    if "measure" in spec:
        if out.get("measure") != spec["measure"]:
            probs.append("wrong measure id in output")
    else:
        cid = spec["check"]
        if cid in PASS_BOUND:
            r = out.get("residual")
            if not (_finite(r) and r <= PASS_BOUND[cid] and out.get("passed") is True):
                probs.append(f"residual {r!r} above pass bound {PASS_BOUND[cid]}")
        elif cid == "cor4":
            probs += _verdict_problems(out.get("first", {})) + _verdict_problems(out.get("second", {}))
        else:
            probs += _verdict_problems(out)
    for key, ref in refs.items():
        got = _lookup(out, key)
        if not _close(got, ref):
            probs.append(f"{key} = {got!r}, reference {mp.nstr(ref, 12)}")
    return probs
