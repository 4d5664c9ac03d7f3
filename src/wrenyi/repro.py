"""Bundled desk-scale reproduction checks.

Each bundle returns a list of (name, passed, detail) rows; the CLI turns
them into one pass/fail line each.  The exponential-pair regimes probe
the p = 1 relative entropy

    D(f||g) = log(l1/l2) + (l2 - l1)/(l1 - g),   f ~ Exp(l1), g ~ Exp(l2),

with the weight e^{g x}, against the margin E_f[phi] - E_g[phi]; the
abs-polynomial deviation of Exp(l) has the exact form

    sigma_{phi,alpha} = (sum_i a_i Gamma(alpha+i+1) / l^{alpha+i})^{1/alpha}.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import (
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tabulated,
    make_tent,
    scale_density,
)
from .errors import InputError
from .gaussian_forms import IDENTITY_CASE, verify_identity
from .inequalities import check_cor1, check_cor2, check_cor3
from .measures import generalized_deviation, relative_renyi_entropy
from .weights import (
    make_abs_polynomial,
    make_constant,
    make_exp_linear,
    make_power,
)

__all__ = ["REPRO_IDS", "run_repro"]


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points strictly inside (lo, hi)."""
    return np.linspace(lo, hi, n + 2)[1:-1]


def _closed_form_d1(l1: float, l2: float, g: float) -> float:
    return math.log(l1 / l2) + (l2 - l1) / (l1 - g)


def _regime(name, l1, l2, gammas, want_margin_nonneg, want_d_nonneg, check_quad):
    f = make_exponential(l1)
    g = make_exponential(l2)
    rows = []
    ok = True
    worst = 0.0
    for gam in gammas:
        w = make_exp_linear(gam)
        d = relative_renyi_entropy(f, g, w, 1.0)
        margin = d.flags["E_f[phi]-E_g[phi]"]
        closed = _closed_form_d1(l1, l2, gam)
        if abs(d.value - closed) > 1e-12 * max(1.0, abs(closed)):
            ok = False
        if want_margin_nonneg and margin < 0:
            ok = False
        if not want_margin_nonneg and margin >= 0:
            ok = False
        if want_d_nonneg and d.value < -1e-9:
            ok = False
        if not want_d_nonneg and d.value >= 0:
            ok = False
        if check_quad:
            # The same laws under another family name take the quadrature path.
            fq, gq = scale_density(f, 1.0), scale_density(g, 1.0)
            dq = relative_renyi_entropy(fq, gq, w, 1.0)
            rel = abs(dq.value - closed) / max(1e-12, abs(closed))
            worst = max(worst, rel)
            if rel > 1e-6:
                ok = False
    detail = f"{len(gammas)} gamma points"
    if check_quad:
        detail += f", worst closed-vs-quadrature rel diff {worst:.2e}"
    rows.append((name, ok, detail))
    return rows


def _repro_example_11():
    rows = []
    rows += _regime(
        "regime A: l1=3.5 l2=1.5, margin >= 0 and D >= 0",
        3.5,
        1.5,
        _interior_grid(-10.0, -1.0, 21),
        True,
        True,
        check_quad=True,
    )
    rows += _regime(
        "regime B: l1=0.1 l2=1, margin < 0 and D < 0",
        0.1,
        1.0,
        _interior_grid(-5.0, -1.0, 21),
        False,
        False,
        check_quad=False,
    )
    rows += _regime(
        "regime C: l1=0.1 l2=0.2, D >= 0 while margin < 0",
        0.1,
        0.2,
        _interior_grid(-0.04, -0.01, 7),
        False,
        True,
        check_quad=False,
    )
    return rows


def _repro_example_12():
    w = make_abs_polynomial([1.0, -2.0, -1.0, 2.0])
    rows = []
    alphas = np.round(np.arange(1.0, 2.0001, 0.1), 10)
    for lam in (0.5, 0.8, 1.19):
        f = make_exponential(lam)
        sig = [generalized_deviation(f, w, float(a)).value for a in alphas]
        decreasing = all(s1 > s2 for s1, s2 in zip(sig, sig[1:]))
        rows.append(
            (
                f"sigma strictly decreasing on alpha in [1,2], lambda={lam}",
                decreasing,
                f"sigma(1)={sig[0]:.6g} .. sigma(2)={sig[-1]:.6g}",
            )
        )
    v = generalized_deviation(make_exponential(1.0), w, 1.0).value
    rows.append(
        ("deviation value 39 at alpha=1, lambda=1", abs(v - 39.0) <= 1e-9, f"value={v!r}")
    )
    return rows


def _repro_cor31_laplace():
    rows = []
    v = check_cor1(make_laplace(1.0), 0.0)
    ok = abs(v.lhs - 1.0) <= 1e-7 and abs(v.rhs - 1.0) <= 1e-7
    rows.append(
        ("Laplace equality at c=0: both sides equal 1", ok, f"lhs={v.lhs!r} rhs={v.rhs!r}")
    )
    v2 = check_cor1(make_exponential(5.0), -0.5)
    ok2 = all(m > 0 for m in v2.margins.values()) and v2.verdict == "holds"
    rows.append(
        (
            "Exp(5), c=-0.5: hypothesis margins positive and bound holds",
            ok2,
            f"margins={ {k: round(m, 6) for k, m in v2.margins.items()} }",
        )
    )
    return rows


def perturbed_tent(eps: float, wave: float = 1.0, n: int = 4001):
    """Tent density modulated by (1 + eps cos(pi wave x)), renormalized."""
    xs = np.linspace(-1.0, 1.0, n)
    ys = np.maximum(1.0 - np.abs(xs), 0.0) * (1.0 + eps * np.cos(math.pi * wave * xs))
    return make_tabulated(xs, ys)


def perturbed_quadratic_gaussian(
    eps: float, wave: float = 1.0, n: int = 4001, mode: str = "sin"
):
    """(3/4)(1-x^2) modulated by (1 + eps sin(wave x)) or (1 + eps x^2),
    renormalized.  The quadratic modulation strictly increases the second
    moment, keeping the fourth-moment-bound hypothesis strictly satisfied."""
    xs = np.linspace(-1.0, 1.0, n)
    base = 0.75 * np.maximum(1.0 - xs * xs, 0.0)
    if mode == "sin":
        ys = base * (1.0 + eps * np.sin(wave * xs))
    elif mode == "quad":
        ys = base * (1.0 + eps * xs * xs)
    else:
        raise InputError(f"unknown perturbation mode {mode!r}")
    return make_tabulated(xs, ys)


def _repro_cor32_tent():
    rows = []
    v = check_cor2(make_tent(), 0.0)
    ok = abs(v.lhs - 2.0 / 3.0) <= 1e-8 and abs(v.rhs - 2.0 / 3.0) <= 1e-8
    rows.append(
        ("tent equality at c=0: both sides equal 2/3", ok, f"lhs={v.lhs!r} rhs={v.rhs!r}")
    )
    slacks = []
    for i, eps in enumerate(np.linspace(0.03, 0.3, 10)):
        fp = perturbed_tent(float(eps), wave=1.0 + 0.3 * i)
        slacks.append(check_cor2(fp, 0.0).slack)
    ok2 = all(s > 0 for s in slacks)
    rows.append(
        (
            "strict slack for 10 renormalized tent perturbations",
            ok2,
            f"min slack {min(slacks):.3e}",
        )
    )
    return rows


def _repro_cor33_g():
    rows = []
    v = check_cor3(make_generalized_gaussian(2.0, 2.0))
    rows.append(
        (
            "quadratic-Gaussian equality: |slack| <= 1e-5",
            abs(v.slack) <= 1e-5,
            f"slack={v.slack:.3e}",
        )
    )
    fp = perturbed_quadratic_gaussian(0.1, mode="quad")
    v2 = check_cor3(fp)
    rows.append(
        (
            "perturbed quadratic Gaussian: bound holds",
            v2.verdict == "holds" and v2.slack > 0,
            f"verdict={v2.verdict} slack={v2.slack:.3e}",
        )
    )
    return rows


IDENTITY_GRID = {
    "id2.11": [
        (2.0, 2.0),
        (3.0, 2.0),
        (2.0, 1.5),
    ],
    "id2.14": [
        (2.0, 0.8),
        (3.0, 0.9),
    ],
    "id2.18": [
        (2.0, 1.0),
        (3.0, 1.0),
    ],
    "id2.22": [
        (math.inf, 2.0),
        (math.inf, 0.5),
    ],
}


def identity_weights(ident: str):
    """The weight set valid for a given identity's regime.

    Exponential weights are excluded from the p < 1 regime, whose target
    density has algebraic tails against which e^{0.1 x} is not
    integrable.
    """
    base = [make_constant(1.0), make_exp_linear(0.1), make_power(2.0)]
    if ident == "id2.14":
        return [base[0], base[2]]
    return base


def _repro_identities():
    rows = []
    for ident, grid in IDENTITY_GRID.items():
        worst = 0.0
        for alpha, p in grid:
            for w in identity_weights(ident):
                r = verify_identity(IDENTITY_CASE[ident], w, alpha, p)
                worst = max(worst, r)
        rows.append(
            (f"{ident} residuals on the (alpha, p) grid", worst <= 1e-5, f"worst={worst:.2e}")
        )
    return rows


REPRO_IDS = {
    "example-1.1": _repro_example_11,
    "example-1.2": _repro_example_12,
    "cor3.1-laplace": _repro_cor31_laplace,
    "cor3.2-tent": _repro_cor32_tent,
    "cor3.3-g": _repro_cor33_g,
    "identities-sec2": _repro_identities,
}


def run_repro(example_id: str):
    """Run one bundle (or all) and return its (name, passed, detail) rows."""
    if example_id == "all":
        rows = []
        for key, fn in REPRO_IDS.items():
            rows += [(f"{key}: {n}", ok, d) for n, ok, d in fn()]
        return rows
    if example_id not in REPRO_IDS:
        raise InputError(
            f"unknown repro id {example_id!r}; known: {', '.join(REPRO_IDS)} or 'all'"
        )
    return REPRO_IDS[example_id]()
