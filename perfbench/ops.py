"""Seeded op generator for the wrenyi benchmark.

An op is one ``wrenyi compute``/``wrenyi verify`` argv list plus the
structured parameters it was drawn from (``spec``), which the checker
uses to compute an independent reference.  The same seed always gives
the same deck; the only file the program reads besides argv is the
``table:`` CSV, which :func:`make_deck` writes from the seed too.

Every draw stays inside the region where the program accepts the input
and answers correctly today.  The cases known to fail are kept in
``_PROBES`` and run by ``run.py --trace 1``; they are never
part of a timed deck, so a timed op that fails is a regression.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("measures", "bounds", "bounds-quadcdf")


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def num(x: float) -> str:
    """Short exact text for a drawn parameter (3 decimals)."""
    if math.isinf(x):
        return "inf"
    r = round(float(x), 3)
    return str(int(r)) if r == int(r) else repr(r)


def _r(x: float) -> float:
    return float(num(x)) if math.isfinite(x) else x


def density_desc(d: dict) -> str:
    fam = d["family"]
    if fam == "exp":
        return f"exp:{num(d['lam'])}"
    if fam == "laplace":
        return f"laplace:{num(d['b'])}"
    if fam == "tent":
        return "tent"
    if fam == "gg":
        parts = [num(d["alpha"]), num(d["p"])]
        if d.get("t", 1.0) != 1.0:
            parts.append(num(d["t"]))
        return "gg:" + ",".join(parts)
    if fam == "weighted":
        return f"weighted:{density_desc(d['base'])};{weight_desc(d['weight'])}"
    if fam == "table":
        return f"table:{d['path']}"
    raise ValueError(fam)


def weight_desc(w: dict) -> str:
    fam = w["family"]
    if fam == "const":
        return f"const:{num(w['v'])}"
    if fam == "expw":
        return f"expw:{num(w['g'])}"
    if fam == "pow":
        return f"pow:{num(w['c'])}"
    if fam in ("abspoly", "fpoly"):
        return f"{fam}:" + ",".join(num(c) for c in w["coeffs"])
    if fam == "fpow":
        return f"fpow:{num(w['k'])},{num(w['m'])}"
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# Density and weight draws
# ---------------------------------------------------------------------------

JITTER = 0.05


class Draw:
    """Seeded draws around a seed-independent design.

    Discrete choices and the centre of every continuous draw come from a
    generator fixed per workload, so every seed runs the same mix of op
    kinds, branches and weight families; the seed moves each continuous
    parameter by up to JITTER of its range (staying inside the range).
    A run's cost then hardly depends on the seed, while its inputs still
    change with it.
    """

    def __init__(self, workload: str, seed: int):
        self.design = random.Random(workload)
        self.seeded = random.Random(f"{workload}:{seed}")

    def uniform(self, lo: float, hi: float) -> float:
        centre = self.design.uniform(lo, hi)
        half = JITTER * (hi - lo)
        return min(max(centre + self.seeded.uniform(-half, half), lo), hi)

    def choice(self, seq):
        return self.design.choice(seq)

    def shuffle(self, seq) -> None:
        self.seeded.shuffle(seq)


def draw_density(rng: Draw, kind: str, table_path=None) -> dict:
    """One density of the given branch, parameters rounded to 3 decimals."""
    u = rng.uniform
    if kind == "exp":
        return {"family": "exp", "lam": _r(u(0.6, 2.5))}
    if kind == "laplace":
        return {"family": "laplace", "b": _r(u(0.6, 1.6))}
    if kind == "tent":
        return {"family": "tent"}
    if kind == "gg>1":
        return {"family": "gg", "alpha": _r(u(1.5, 3.0)), "p": _r(u(1.3, 2.5))}
    if kind == "gg<1":
        return {"family": "gg", "alpha": _r(u(1.8, 3.0)), "p": _r(u(0.88, 0.95))}
    if kind == "gg=1":
        return {"family": "gg", "alpha": _r(u(1.3, 3.0)), "p": 1.0}
    if kind == "gg0":
        return {"family": "gg", "alpha": 0.0, "p": _r(u(1.5, 3.0))}
    if kind == "gginf":
        return {"family": "gg", "alpha": math.inf, "p": _r(u(0.5, 3.0)), "t": _r(u(0.6, 1.8))}
    if kind == "weighted":
        base = draw_density(rng, rng.choice(("laplace", "gg=1")))
        return {"family": "weighted", "base": base, "weight": draw_weight(rng, rng.choice(("pow", "abspoly")))}
    if kind == "table":
        return {"family": "table", "path": table_path}
    raise ValueError(kind)


def draw_weight(rng: Draw, kind: str) -> dict:
    u = rng.uniform
    if kind == "const":
        return {"family": "const", "v": _r(u(0.5, 2.0))}
    if kind == "expw":
        g = _r(u(0.05, 0.3) * rng.choice((-1.0, 1.0)))
        return {"family": "expw", "g": g}
    if kind == "pow":
        return {"family": "pow", "c": _r(u(0.5, 2.0))}
    if kind == "abspoly":
        return {"family": "abspoly", "coeffs": [_r(u(0.5, 1.5)), _r(u(0.1, 1.0))]}
    if kind == "fpoly":
        return {"family": "fpoly", "coeffs": [_r(u(0.5, 1.5)), _r(u(0.1, 1.0))]}
    if kind == "fpow":
        return {"family": "fpow", "k": _r(u(0.5, 1.5)), "m": 0.0}
    raise ValueError(kind)


def write_table(path: str, rng: Draw, n: int = 25) -> None:
    """A seeded two-column CSV: a bumpy, positive, compactly supported pdf."""
    half = _r(rng.uniform(1.5, 2.5))
    eps = rng.uniform(0.1, 0.3)
    wave = rng.uniform(1.0, 2.5)
    lines = []
    for i in range(n):
        x = -half + 2.0 * half * i / (n - 1)
        base = max(1.0 - (x / half) ** 2, 0.0)
        y = base * (1.0 + eps * math.cos(wave * x))
        lines.append(f"{x!r},{y!r}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _op(kind: str, argv: list, **spec) -> dict:
    return {"kind": kind, "argv": argv, "spec": spec}


def _flags(f=None, g=None, w=None, p=None, alpha=None, c=None, t=None) -> list:
    out = []
    if f is not None:
        out += ["--f", density_desc(f)]
    if g is not None:
        out += ["--g", density_desc(g)]
    if w is not None:
        out += ["--w", weight_desc(w)]
    if p is not None:
        out += ["--p", num(p)]
    if alpha is not None:
        out += ["--alpha", num(alpha)]
    if c is not None:
        out += ["--c", num(c)]
    if t is not None:
        out += ["--t", num(t)]
    return out


def compute_op(mid, f, g=None, w=None, p=None, alpha=None) -> dict:
    argv = ["compute", mid] + _flags(f, g, w, p, alpha)
    return _op(f"compute.{mid}", argv, measure=mid, f=f, g=g, w=w, p=p, alpha=alpha)


def verify_op(cid, kind=None, f=None, g=None, w=None, p=None, alpha=None, c=None, t=None) -> dict:
    argv = ["verify", cid] + _flags(f, g, w, p, alpha, c, t)
    return _op(kind or f"verify.{cid}", argv, check=cid, f=f, g=g, w=w, p=p, alpha=alpha, c=c, t=t)


# Density branches of the measures deck and the weights drawn for them.
# e^{gx} has no finite integral against the algebraic tails of gg<1.  A
# table gets only e^{gx}: a weight with a kink at 0 sends its integrals
# to tanh-sinh, which accepts values off by ~1e-5 on the table's
# unhinted kinks (a known failure).
_MEASURE_DENSITIES = ("laplace", "tent", "gg>1", "gg<1", "gg=1", "gg0", "gginf", "weighted", "table")
_WEIGHTS_FOR = {
    "laplace": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "tent": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "gg>1": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "gg<1": ("pow", "abspoly", "fpoly", "fpow"),
    "gg=1": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "gg0": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "gginf": ("expw", "pow", "abspoly", "fpoly", "fpow"),
    "weighted": ("expw", "pow", "abspoly"),
    "table": ("expw",),
    "exp": ("expw", "const"),
}


def _fisher_p(rng: Draw, f: dict) -> float:
    """An order p at which |f^(p-2) f'| stays bounded at a finite support edge."""
    if f["family"] == "gg" and f["p"] > 1:
        lo = f["p"]
    else:
        lo = 2.0 if f["family"] == "tent" else 1.0
    return _r(lo + rng.uniform(0.0, 0.5))


_FULL_LINE = ("laplace", "gg<1", "gg=1", "weighted")
_F_WEIGHTS = ("fpoly", "fpow")


def _relative_pair(rng: Draw, kind: str, table: str):
    """(f, g, w) for the relative measures.

    g has tails at least as heavy as every f: where g underflows while f
    still carries mass the program drops that tail (a known failure).  A
    weight that is a function of f is drawn only for f supported on the
    whole line, so the g-side integrals meet no kink at an edge of f.
    """
    f = draw_density(rng, kind, table)
    g = rng.choice(({"family": "laplace", "b": _r(rng.uniform(1.6, 2.0))}, draw_density(rng, "gg<1")))
    choices = [w for w in _WEIGHTS_FOR[kind] if kind in _FULL_LINE or w not in _F_WEIGHTS]
    if g["family"] == "gg" and choices != ["expw"]:
        choices = [w for w in choices if w != "expw"]
    elif g["family"] == "gg":  # e^{gx} only: take the Laplace target
        g = {"family": "laplace", "b": _r(rng.uniform(1.6, 2.0))}
    return f, g, draw_weight(rng, rng.choice(choices))


def _measures_deck(rng: Draw, table: str) -> list:
    ops = []
    dens = lambda kind: draw_density(rng, kind, table)  # noqa: E731
    wfor = lambda kind: draw_weight(rng, rng.choice(_WEIGHTS_FOR[kind]))  # noqa: E731
    order = lambda: _r(rng.uniform(1.2, 2.5))  # noqa: E731
    for kind in _MEASURE_DENSITIES + ("exp",):
        ops.append(compute_op("we", dens(kind), w=wfor(kind)))
        ops.append(compute_op("wre", dens(kind), w=wfor(kind), p=order()))
        ops.append(compute_op("wrp", dens(kind), w=wfor(kind), p=rng.choice((1.0, order()))))
        ops.append(compute_op("mom", dens(kind), w=wfor(kind), alpha=_r(rng.uniform(0.5, 3.0))))
        ops.append(compute_op("dev", dens(kind), w=wfor(kind), alpha=rng.choice((0.0, _r(rng.uniform(0.5, 3.0))))))
        f, g, w = _relative_pair(rng, kind, table)
        ops.append(compute_op("rwe", f, g=g, w=w))
        for mid in ("rre", "rrp"):
            f, g, w = _relative_pair(rng, kind, table)
            ops.append(compute_op(mid, f, g=g, w=w, p=_r(rng.uniform(1.2, 2.0))))
    for kind in ("laplace", "gg>1", "gg=1", "gg<1"):
        f = dens(kind)
        ops.append(compute_op("fi", f, alpha=_r(rng.uniform(1.5, 3.0)), p=_fisher_p(rng, f)))
        f = dens(kind)
        w = draw_weight(rng, rng.choice(("pow", "abspoly")))
        ops.append(compute_op("wfi", f, w=w, alpha=_r(rng.uniform(1.5, 3.0)), p=_fisher_p(rng, f)))
    # Bounded-support branches: sigma at alpha = inf, J at alpha = 1 and inf.
    # The weight |x|^c keeps c >= 1 at alpha = inf so that phi f^p/p has no
    # cusp at 0.
    for kind in ("tent", "gg>1", "gginf"):
        w = draw_weight(rng, rng.choice(("pow", "abspoly")))
        ops.append(compute_op("dev", dens(kind), w=w, alpha=math.inf))
    for kind in ("gg>1", "tent"):
        f = dens(kind)
        ops.append(compute_op("wfi", f, w=draw_weight(rng, "pow"), alpha=1.0, p=_fisher_p(rng, f)))
        f = dens(kind)
        w = {"family": "pow", "c": _r(rng.uniform(1.0, 2.0))}
        ops.append(compute_op("wfi", f, w=w, alpha=math.inf, p=_fisher_p(rng, f)))
    # Regime identities of section 2 and the scaling identity.
    for _ in range(2):
        w3 = lambda: draw_weight(rng, rng.choice(("expw", "pow", "abspoly")))  # noqa: E731
        ops.append(verify_op("id2.11", w=w3(), alpha=_r(rng.uniform(1.5, 3.0)), p=_r(rng.uniform(1.3, 2.5))))
        w = draw_weight(rng, rng.choice(("pow", "abspoly")))
        ops.append(verify_op("id2.14", w=w, alpha=_r(rng.uniform(1.5, 3.0)), p=_r(rng.uniform(0.85, 0.95))))
        ops.append(verify_op("id2.18", w=w3(), alpha=_r(rng.uniform(1.5, 3.0)), p=1.0))
        ops.append(verify_op("id2.22", w=w3(), alpha=math.inf, p=order()))
        kind = rng.choice(("gg>1", "gg=1", "laplace", "tent"))
        ops.append(verify_op("scaling", f=dens(kind), w=wfor(kind), p=order(), t=_r(rng.uniform(0.5, 2.0))))
    return ops


_SOURCES = ("exp", "laplace", "tent", "gg>1", "gg=1")


def _fii_family(rng: Draw, family: str) -> dict:
    """Source, weight and orders of one fii/cri op.

    The families are the ones on which both checks answer correctly
    today; the failing neighbours are in _PROBES.
    """
    u = rng.uniform
    order = _r(u(1.5, 2.5))
    expw = {"family": "expw", "g": _r(u(0.03, 0.15) * rng.choice((-1.0, 1.0)))}
    if family == "laplace-expw":
        f, w, p = {"family": "laplace", "b": _r(u(0.8, 1.2))}, expw, rng.choice((1.0, order))
    elif family == "laplace-const":
        f, w, p = draw_density(rng, "laplace"), draw_weight(rng, "const"), rng.choice((1.0, order))
    elif family in ("gg>1-expw", "gg>1-const"):
        # p above the source's own order keeps |f^(p-2) f'| bounded at
        # the support edge (below it the Fisher integrals are slow).
        f = draw_density(rng, "gg>1")
        w, p = expw if family == "gg>1-expw" else draw_weight(rng, "const"), _r(f["p"] + u(0.1, 0.6))
    elif family == "tent":
        f, w, p = {"family": "tent"}, rng.choice((draw_weight(rng, "abspoly"), expw)), _r(u(1.7, 2.5))
    elif family.startswith("weighted-"):
        # Laplace bases wider than b ~ 1.1 with e^{gx} weights hit the
        # "integrand not finite on infinite tail" defect.
        base = {"family": "laplace", "b": _r(u(0.8, 1.05))}
        bw = draw_weight(rng, "pow" if family == "weighted-expw" else "abspoly")
        f = {"family": "weighted", "base": base, "weight": bw}
        small = {"family": "expw", "g": _r(u(0.03, 0.12) * rng.choice((-1.0, 1.0)))}
        w = {"weighted-expw": small, "weighted-abspoly": draw_weight(rng, "abspoly"),
             "weighted-const": draw_weight(rng, "const")}[family]
        p = order
    else:
        raise ValueError(family)
    return {"f": f, "w": w, "alpha": _r(u(1.5, 3.0)), "p": p}


def _cor4(rng: Draw, f: dict, lo: float, hi: float) -> dict:
    return verify_op("cor4", kind=f"verify.cor4.{f['family']}", f=f, c=_r(rng.uniform(lo, hi)))


def _bounds_deck(rng: Draw, table: str) -> list:
    ops = []
    u = rng.uniform
    src = lambda kind: draw_density(rng, kind)  # noqa: E731
    for kind in _SOURCES:
        g = src(rng.choice(("laplace", "gg<1")))
        w = draw_weight(rng, rng.choice(("pow", "abspoly", "const")))
        ops.append(verify_op("thm1.1", f=src(kind), g=g, w=w, p=rng.choice((1.0, _r(u(1.2, 2.0))))))
        w = draw_weight(rng, rng.choice(("pow", "abspoly", "expw")))
        ops.append(verify_op("mei", f=src(kind), w=w, alpha=_r(u(1.5, 3.0)), p=_r(u(1.2, 2.5))))
        ops.append(verify_op("cor1", f=src(kind), c=_r(u(0.0, 1.0))))
        ops.append(verify_op("cor1", f=src(kind), c=_r(u(0.0, 1.0)), alpha=_r(u(1.5, 3.0)), p=_r(u(1.2, 2.0))))
        ops.append(verify_op("cor2", f=src(kind), c=0.0))
        ops.append(verify_op("cor3", f=src(kind)))
    # A 57th op: an odd deck puts the median in the middle of one op's
    # samples (a mei op), not between two ops.
    ops.append(verify_op("mei", f=src("gg>1"), w=draw_weight(rng, "pow"), alpha=_r(u(1.5, 3.0)), p=_r(u(1.2, 2.5))))
    for family in ("laplace-expw", "laplace-const", "gg>1-expw", "gg>1-const", "tent"):
        for _ in range(2):
            for cid in ("fii", "cri"):
                ops.append(verify_op(cid, **_fii_family(rng, family)))
    # cor4 on the tent costs about 12% more than on Laplace; the tail
    # percentile falls in the middle of the tent group, not on the edge
    # between the two.
    ops.append(_cor4(rng, {"family": "laplace", "b": _r(u(0.9, 1.1))}, 0.1, 0.25))
    for _ in range(5):
        ops.append(_cor4(rng, {"family": "tent"}, 0.1, 0.25))
    return ops


def _quadcdf_deck(rng: Draw, table: str) -> list:
    """Three cost groups of 5, 7 and 5 ops.

    fii on the table with a constant weight (~0.1 s), fii/cri on
    ``weighted:laplace;abspoly`` with a constant weight (~0.2 s) and
    fii/cri with e^{gx} or |x|-polynomial weights (~0.5 s).  The median
    falls in the middle of the middle group and the p85 tail in the
    middle of the top group, so neither sits on an edge between two
    groups of different cost.  An odd deck puts the median in the middle
    of one op's samples, not between two ops.
    """
    # cor4 on a table takes 2-3 s an op, ten times any op here, and made
    # a run's numbers depend on a few samples of it; it is left out.
    # Only fii on the table: sigma_f in cri is a moment whose hint at 0
    # sends the kinked table to tanh-sinh (a known failure).
    ops = []
    u = rng.uniform
    tab = {"family": "table", "path": table}

    def table_fii(family):
        w = _fii_family(rng, family)["w"]
        return verify_op("fii", f=tab, w=w, alpha=_r(u(1.5, 3.0)), p=_r(u(1.5, 2.5)))

    ops += [table_fii("laplace-const") for _ in range(5)]
    for cid in ("fii", "cri") * 3 + ("fii",):
        ops.append(verify_op(cid, **_fii_family(rng, "weighted-const")))
    for family in ("weighted-expw", "weighted-abspoly"):
        for cid in ("fii", "cri"):
            ops.append(verify_op(cid, **_fii_family(rng, family)))
    ops.append(table_fii("laplace-expw"))
    return ops


_DECKS = {
    "measures": _measures_deck,
    "bounds": _bounds_deck,
    "bounds-quadcdf": _quadcdf_deck,
}


def make_deck(workload: str, seed: int, out_dir: str) -> list:
    """The seeded op list of a workload, with a table CSV under out_dir.

    Ops are shuffled by the seed; each op gets its deck index as ``id``.
    """
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = Draw(workload, seed)
    table = os.path.join(out_dir, f"table-{workload}-{seed}.csv")
    write_table(table, rng)
    ops = _DECKS[workload](rng, table)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# Inputs inside the program's accepted region on which it answers wrongly
# today (non-zero exit, a value off its reference, or "violated" with
# every margin >= 0).  run.py --trace 1 runs them and reports how many
# still fail; they are never timed.
_PROBES = {
    "measures": [
        ("id2.14 with e^{0.1x}: integrand not finite", lambda t: verify_op("id2.14", w={"family": "expw", "g": 0.1}, alpha=2.0, p=0.8)),
        ("J at alpha=1 is unbounded for p < 2 on the tent; a finite value is printed", lambda t: compute_op("wfi", {"family": "tent"}, w={"family": "pow", "c": 1.0}, alpha=1.0, p=1.5)),
        ("total variation misses the |x|^0.6 cusp at 0", lambda t: compute_op("wfi", {"family": "gg", "alpha": 2.0, "p": 2.2}, w={"family": "pow", "c": 0.6}, alpha=math.inf, p=1.85)),
        ("rwe drops the tail where g underflows", lambda t: compute_op("rwe", {"family": "laplace", "b": 0.62}, g={"family": "gg", "alpha": 2.654, "p": 1.0}, w={"family": "expw", "g": 0.169})),
        ("table with |x|-kinked weight: tanh-sinh accepts a value off by ~6e-6", lambda t: compute_op("we", {"family": "table", "path": t["measures"]}, w={"family": "abspoly", "coeffs": [0.866, 0.956]})),
    ],
    "bounds": [
        ("fii on Laplace b != 1 with e^{gx}: integrand not finite on infinite tail", lambda t: verify_op("fii", f={"family": "laplace", "b": 1.5}, w={"family": "expw", "g": 0.25}, alpha=2.0, p=1.6)),
        ("fii on Exp(1), |x|^2, alpha=2, p=1 prints violated", lambda t: verify_op("fii", f={"family": "exp", "lam": 1.0}, w={"family": "pow", "c": 2.0}, alpha=2.0, p=1.0)),
        ("cor4 on Exp(1): A_s, B_s diverge, prints violated", lambda t: verify_op("cor4", f={"family": "exp", "lam": 1.0}, c=0.2)),
        ("cor2 at c != 0 prints violated with its margin >= 0", lambda t: verify_op("cor2", f={"family": "laplace", "b": 1.0}, c=0.5)),
        ("fii with p = 1 on gg p=1: transport map is not increasing", lambda t: verify_op("fii", f={"family": "gg", "alpha": 1.84, "p": 1.0}, w={"family": "const", "v": 1.987}, alpha=2.701, p=1.0)),
        ("fii with p = 1 on gg p>1 with e^{gx}: integrand not finite", lambda t: verify_op("fii", f={"family": "gg", "alpha": 1.662, "p": 1.894}, w={"family": "expw", "g": -0.208}, alpha=1.92, p=1.0)),
        ("cor4 on gg: integrand not finite", lambda t: verify_op("cor4", f={"family": "gg", "alpha": 2.0, "p": 1.0}, c=0.2)),
        ("fii on the tent with |x|^2: integrand not finite", lambda t: verify_op("fii", f={"family": "tent"}, w={"family": "pow", "c": 2.0}, alpha=2.0, p=2.0)),
    ],
    "bounds-quadcdf": [
        ("fii on weighted gg p=1: transport map is not increasing", lambda t: verify_op("fii", f={"family": "weighted", "base": {"family": "gg", "alpha": 2.0, "p": 1.0}, "weight": {"family": "abspoly", "coeffs": [1.0, 1.0]}}, w={"family": "expw", "g": 0.1}, alpha=2.0, p=1.0)),
        ("cri on a table with |x|^2: integrand not finite", lambda t: verify_op("cri", f={"family": "table", "path": t["measures"]}, w={"family": "pow", "c": 2.0}, alpha=2.0, p=2.0)),
        ("cri on a table: sigma_f goes through tanh-sinh and is off by ~6e-5", lambda t: verify_op("cri", f={"family": "table", "path": t["bounds-quadcdf"]}, w={"family": "const", "v": 1.884}, alpha=2.852, p=1.5)),
    ],
}


def known_failure_ops(workload: str, out_dir: str) -> list:
    """The known-failure probes of a workload (fixed, not seeded)."""
    tables = {}
    for wl, seed in (("measures", 3), ("bounds-quadcdf", 1)):  # the seeds' own tables
        tables[wl] = os.path.join(out_dir, f"table-probe-{wl}.csv")
        write_table(tables[wl], Draw(wl, seed))
    ops = []
    for i, (reason, make) in enumerate(_PROBES[workload]):
        op = make(tables)
        op.update(id=i, reason=reason)
        ops.append(op)
    return ops
