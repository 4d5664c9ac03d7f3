"""Acceptance suite: one check per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Expected values are frozen from independent closed forms or
recomputed via the brute-force oracles (midpoint Riemann sums, seeded
inverse-CDF Monte Carlo); tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from wrenyi.densities import (
    cdf,
    gg_norm_const,
    make_exponential,
    make_generalized_gaussian,
    make_laplace,
    make_tent,
    make_weighted_density,
    scale_density,
)
from wrenyi.gaussian_forms import (
    case_laws,
    gamma_law,
    gaussian_measures,
    lambda_tilde,
    theta,
    upsilon,
    verify_identity,
)
from wrenyi.inequalities import (
    check_cor1,
    check_cor2,
    check_cri,
    check_fii,
    check_mei,
    check_scaling_identity,
    check_thm11,
    lemma4_residual,
)
from wrenyi.measures import (
    expectation,
    fisher_information,
    generalized_deviation,
    generalized_moment,
    relative_renyi_entropy,
    weighted_entropy,
    weighted_fisher_information,
    weighted_renyi_power,
)
from wrenyi.numerics import QuadratureConfig, beta_fn, differentiate, find_root, integrate
from wrenyi.repro import (
    IDENTITY_CASE,
    IDENTITY_GRID,
    identity_weights,
    perturbed_quadratic_gaussian,
    perturbed_tent,
)
from wrenyi.weights import (
    make_abs_polynomial,
    make_constant,
    make_exp_linear,
    make_power,
)

from oracle import OracleConfig, clip_domain, mc_expectation, riemann

ONE = make_constant(1.0)


def _report(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {title}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _interior(lo, hi, n):
    return np.linspace(lo, hi, n + 2)[1:-1]


def _closed_d1(l1, l2, g):
    return math.log(l1 / l2) + (l2 - l1) / (l1 - g)


# ---------------------------------------------------------------------------
# Criteria 1-3: exponential-pair regimes of the p = 1 relative entropy
# ---------------------------------------------------------------------------


def test_criterion_01_regime_a():
    t0 = time.time()
    f, g = make_exponential(3.5), make_exponential(1.5)
    ok = True
    worst_rel = 0.0
    for gam in _interior(-10.0, -1.0, 21):
        w = make_exp_linear(float(gam))
        d = relative_renyi_entropy(f, g, w, 1.0)
        margin = d.flags["E_f[phi]-E_g[phi]"]
        ok &= margin >= 0.0 and d.value >= -1e-9
        closed = _closed_d1(3.5, 1.5, gam)
        quad = relative_renyi_entropy(
            scale_density(f, 1.0), scale_density(g, 1.0), w, 1.0
        ).value
        rel = abs(quad - closed) / abs(closed)
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-6
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(
        1,
        "regime A margins and nonnegativity, closed vs quadrature",
        ok,
        f"worst rel {worst_rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_regime_b():
    f, g = make_exponential(0.1), make_exponential(1.0)
    ok = True
    for gam in _interior(-5.0, -1.0, 21):
        d = relative_renyi_entropy(f, g, make_exp_linear(float(gam)), 1.0)
        ok &= d.flags["E_f[phi]-E_g[phi]"] < 0 and d.value < 0
    _report(2, "regime B: margin and bound both fail pointwise", ok)


def test_criterion_03_regime_c():
    f, g = make_exponential(0.1), make_exponential(0.2)
    ok = True
    for gam in _interior(-0.04, -0.01, 7):
        d = relative_renyi_entropy(f, g, make_exp_linear(float(gam)), 1.0)
        ok &= d.value >= 0 and d.flags["E_f[phi]-E_g[phi]"] < 0
    _report(3, "regime C: bound holds while margin fails", ok)


# ---------------------------------------------------------------------------
# Criterion 4: signed-polynomial deviation of the exponential family
# ---------------------------------------------------------------------------


def test_criterion_04_signed_polynomial_deviation():
    w = make_abs_polynomial([1.0, -2.0, -1.0, 2.0])
    ok = True
    for lam in (0.5, 0.8, 1.19):
        f = make_exponential(lam)
        vals = [
            generalized_deviation(f, w, float(a)).value
            for a in np.round(np.arange(1.0, 2.0001, 0.1), 10)
        ]
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
    v = generalized_deviation(make_exponential(1.0), w, 1.0).value
    ok &= abs(v - 39.0) <= 1e-9
    _report(4, "deviation decreasing in alpha; value 39 at (1, 1)", ok, f"value={v!r}")


# ---------------------------------------------------------------------------
# Criterion 5: generalized Gaussian normalization and exact constants
# ---------------------------------------------------------------------------


def test_criterion_05_normalization():
    ok = True
    worst = 0.0
    grid = [
        (a, p)
        for a in (0.5, 1.0, 2.0, 3.0, math.inf)
        for p in (0.8, 1.0, 1.5, 2.0, 3.0)
        if math.isinf(a) or p > 1.0 - a
    ] + [(0.0, 1.5), (0.0, 2.0), (0.0, 3.0)]
    for a, p in grid:
        d = make_generalized_gaussian(a, p)
        res = integrate(d.pdf, d.support, d.quad_config())
        worst = max(worst, abs(res.value - 1.0))
        ok &= abs(res.value - 1.0) <= 1e-8
    ok &= gg_norm_const(2.0, 2.0) == 0.75
    ok &= gg_norm_const(1.0, 2.0) == 1.0
    ok &= all(gg_norm_const(math.inf, p) == 0.5 for p in (0.8, 1.0, 2.0, 3.0))
    _report(5, "normalization grid and exact constants", ok, f"worst |int-1| {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 6: regime identities
# ---------------------------------------------------------------------------


def test_criterion_06_identities():
    t0 = time.time()
    worst = 0.0
    for ident, grid in IDENTITY_GRID.items():
        for alpha, p in grid:
            for w in identity_weights(ident):
                worst = max(worst, verify_identity(IDENTITY_CASE[ident], w, alpha, p))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(6, "regime identities on the weight grid", ok, f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 7-8: tent and Laplace corollaries
# ---------------------------------------------------------------------------


def test_criterion_07_tent_bound():
    v = check_cor2(make_tent(), 0.0)
    ok = abs(v.lhs - 2.0 / 3.0) <= 1e-8 and abs(v.rhs - 2.0 / 3.0) <= 1e-8
    min_slack = math.inf
    for i, eps in enumerate(np.linspace(0.03, 0.3, 10)):
        fp = perturbed_tent(float(eps), wave=1.0 + 0.3 * i)
        min_slack = min(min_slack, check_cor2(fp, 0.0).slack)
    ok &= min_slack > 0
    _report(7, "tent equality and strict perturbations", ok, f"min slack {min_slack:.2e}")


def test_criterion_08_laplace_bound():
    v = check_cor1(make_laplace(1.0), 0.0)
    ok = abs(v.lhs - 1.0) <= 1e-7 and abs(v.rhs - 1.0) <= 1e-7
    v2 = check_cor1(make_exponential(5.0), -0.5)
    ok &= all(m > 0 for m in v2.margins.values()) and v2.verdict == "holds"
    _report(8, "Laplace equality at c=0; Exp(5) hypothesis region", ok)


# ---------------------------------------------------------------------------
# Criterion 9: moment-entropy bound equality and perturbation suite
# ---------------------------------------------------------------------------


def test_criterion_09_moment_entropy_suite():
    ok = True
    worst = 0.0
    for alpha, p in ((1.0, 2.0), (2.0, 2.0), (2.0, 1.5), (math.inf, 2.0)):
        for w in (ONE, make_exp_linear(0.1)):
            f = make_generalized_gaussian(alpha, p)
            v = check_mei(f, w, alpha, p)
            worst = max(worst, abs(v.slack))
            ok &= abs(v.slack) <= 1e-5
    min_slack = math.inf
    for i, eps in enumerate(np.linspace(0.05, 0.3, 10)):
        fp = perturbed_quadratic_gaussian(float(eps), wave=1.0 + 0.35 * i, mode="sin")
        v = check_mei(fp, ONE, 2.0, 2.0)
        ok &= v.verdict == "holds" and v.slack > 0
        min_slack = min(min_slack, v.slack)
    _report(
        9,
        "equality suite and strict perturbed suite",
        ok,
        f"worst |slack| {worst:.2e}, min perturbed slack {min_slack:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: Fisher/Cramer-Rao reduction at the constant weight
# ---------------------------------------------------------------------------


def test_criterion_10_fisher_reduction():
    g = make_generalized_gaussian(2.0, 2.0)
    vf = check_fii(g, ONE, 2.0, 2.0)
    ok = abs(vf.terms["eta"]) <= 1e-12 and abs(vf.terms["kappa"]) <= 1e-12
    gu = make_generalized_gaussian(math.inf, 2.0)
    ok &= abs(check_fii(gu, ONE, math.inf, 2.0).terms["Delta"]) <= 1e-12
    vc = check_cri(g, ONE, 2.0, 2.0)
    ok &= abs(vf.slack) <= 1e-5 and abs(vc.slack) <= 1e-5
    _report(
        10,
        "constant-weight reduction: eta=kappa=Delta=0, equality slack",
        ok,
        f"fii slack {vf.slack:.2e}, cri slack {vc.slack:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: nonnegativity property suite
# ---------------------------------------------------------------------------


def test_criterion_11_nonnegativity_suite():
    rng = np.random.default_rng(42)
    ok = True
    checked = 0
    while checked < 50:
        kind = rng.integers(0, 3)
        p = float(rng.choice([0.5, 1.0, 2.0]))
        if kind == 0:  # exponential pair, exp-linear weight
            l1, l2 = rng.uniform(0.5, 4.0, size=2)
            gam = float(rng.uniform(-3.0, 0.2))
            f, g = make_exponential(l1), make_exponential(l2)
            w = make_exp_linear(gam)
            if p != 1.0 and min(l2 * (p - 1) + l1 - gam, l1 * p - gam, l2 * p - gam) <= 0:
                continue
            if p == 1.0 and l1 - gam <= 0:
                continue
        elif kind == 1:  # centered Gaussian pair, quadratic weight
            t1, t2 = rng.uniform(0.7, 1.8, size=2)
            f = make_generalized_gaussian(2.0, 1.0, float(t1))
            g = make_generalized_gaussian(2.0, 1.0, float(t2))
            w = make_power(2.0)
        else:  # uniform pair (nested supports), constant weight
            t1 = float(rng.uniform(0.5, 1.0))
            t2 = float(rng.uniform(t1, 1.6))
            f = make_generalized_gaussian(math.inf, 2.0, t1)
            g = make_generalized_gaussian(math.inf, 2.0, t2)
            w = ONE
        d = relative_renyi_entropy(f, g, w, p)
        if p == 1.0 and d.flags["E_f[phi]-E_g[phi]"] < 0:
            continue
        ok &= d.value >= -1e-9
        checked += 1
    for f in (make_exponential(1.3), make_generalized_gaussian(2.0, 2.0)):
        for p in (0.5, 1.0, 2.0):
            d = relative_renyi_entropy(f, f, make_exp_linear(-0.2), p)
            ok &= abs(d.value) <= 1e-7
    _report(11, "50 randomized valid tuples nonnegative; self-divergence 0", ok)


# ---------------------------------------------------------------------------
# Criterion 12: oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_12_oracle_equivalence(integrand_suite):
    failures = []

    def close(name, main, ref, se=None):
        scale = max(1.0, abs(main), abs(ref))
        band = 1e-5 * scale if se is None else max(1e-5 * scale, 3.0 * se)
        if abs(main - ref) > band:
            failures.append(f"{name}: {main!r} vs {ref!r}")

    # The fixed integrand suite, quadrature vs midpoint Riemann.
    for name, fn, dom, hints, _ in integrand_suite:
        main = integrate(fn, dom, QuadratureConfig(singularities=hints)).value
        close(f"suite:{name}", main, riemann(fn, dom))

    e1 = make_exponential(1.0)
    lap = make_laplace(1.0)
    g22 = make_generalized_gaussian(2.0, 2.0)
    uni = make_generalized_gaussian(math.inf, 2.0)
    dom_e1 = clip_domain(e1)
    dom_lap = clip_domain(lap)

    # Special functions and kernels.
    close("beta(1/2,2)", beta_fn(0.5, 2.0), 4.0 / 3.0)
    close("quantile:ln2", find_root(lambda x: 1 - math.exp(-x) - 0.5, (0.0, 10.0)), math.log(2.0))
    close("tent-slope", differentiate(lambda x: max(1 - abs(x), 0.0), 0.5), -1.0)

    # Densities.
    close("a_{2,1}", gg_norm_const(2.0, 1.0), 1.0 / math.sqrt(math.pi))
    close(
        "chi:exp-tilt",
        make_weighted_density(e1, make_exp_linear(-1.0)).params["chi"],
        riemann(lambda x: np.exp(-x) * np.exp(-x), dom_e1),
    )
    close(
        "cdf:g22(0.5)",
        cdf(g22, 0.5),
        riemann(lambda x: np.asarray(g22.pdf(x)), (-1.0, 0.5)),
    )

    # Entropies and powers.
    close("h(exp1)", weighted_entropy(e1, ONE).value,
          riemann(lambda x: -np.exp(-x) * (-x), dom_e1))
    close("h(laplace)", weighted_entropy(lap, ONE).value, 1 + math.log(2.0))
    close(
        "wre:exp-tilt",
        weighted_renyi_power(e1, make_exp_linear(-0.5), 2.0).value,
        1.0 / riemann(lambda x: np.exp(-0.5 * x) * np.exp(-2 * x), dom_e1),
    )
    close(
        "regimeA-d1",
        relative_renyi_entropy(
            make_exponential(3.5), make_exponential(1.5), make_exp_linear(-1.0), 1.0
        ).value,
        riemann(
            lambda x: np.exp(-x)
            * 3.5
            * np.exp(-3.5 * x)
            * (math.log(3.5 / 1.5) + (1.5 - 3.5) * x),
            clip_domain(make_exponential(3.5)),
        )
        / riemann(
            lambda x: np.exp(-x) * 3.5 * np.exp(-3.5 * x),
            clip_domain(make_exponential(3.5)),
        ),
    )

    # Moments, deviations, Fisher informations.
    close("mom:exp1", generalized_moment(e1, ONE, 1.0).value,
          riemann(lambda x: x * np.exp(-x), dom_e1))
    close(
        "dev:39",
        generalized_deviation(e1, make_abs_polynomial([1, -2, -1, 2]), 1.0).value,
        riemann(
            lambda x: (1 - 2 * x - x**2 + 2 * x**3) * x * np.exp(-x), dom_e1
        ),
    )
    close(
        "sigma2:g22",
        generalized_deviation(g22, ONE, 2.0).value,
        math.sqrt(riemann(lambda x: x * x * np.asarray(g22.pdf(x)), (-1.0, 1.0))),
    )
    close("fisher:tent", fisher_information(make_tent(), 2.0, 2.0).flags["raw"],
          riemann(lambda x: np.maximum(1 - np.abs(x), 0.0), (-1.0, 1.0)))
    close(
        "fisher:g22",
        fisher_information(g22, 2.0, 2.0).flags["raw"],
        riemann(lambda x: (1.5 * x) ** 2 * np.asarray(g22.pdf(x)), (-1.0, 1.0)),
    )
    close(
        "wfi:uniform",
        weighted_fisher_information(uni, ONE, math.inf, 2.0).value,
        2.0 ** (1 - 2.0) / 2.0,  # two boundary jumps of (1/2)^p / p each
    )

    # Auxiliary expectations vs seeded Monte Carlo (3 standard errors).
    mc = OracleConfig(mc_draws=1_000_000, seed=42)
    law_z = case_laws(2.0, 2.0)["Z"]
    main = lambda_tilde(make_power(1.0), 2.0, 2.0, law_z).value
    mean, se = mc_expectation(lambda z: 2.0 * np.sqrt(1.0 - z), law_z, mc)
    close("lambda:absx", main, mean, se=se)
    main = theta(make_power(2.0), 2.0, gamma_law(1.5)).value
    mean, se = mc_expectation(lambda z: 2.0 * z, gamma_law(1.5), mc)
    close("theta:x2", main, mean, se=se)
    main = upsilon(make_exp_linear(1.0), gamma_law(3.0)).value
    mean, se = mc_expectation(
        lambda z: np.exp(np.exp(-z)) + np.exp(-np.exp(-z)), gamma_law(3.0), mc
    )
    close("upsilon:exp", main, mean, se=se)

    # Semi-closed measures vs direct Riemann on the constructed density.
    ms = gaussian_measures(make_exp_linear(0.1), 2.0, 2.0)
    close(
        "gaussforms:N",
        ms.n_power.value,
        1.0 / riemann(lambda x: np.exp(0.1 * x) * np.asarray(g22.pdf(x)) ** 2, (-1.0, 1.0)),
    )

    # Transport correction term at the identity map (f = G).
    terms = check_fii(g22, make_exp_linear(0.1), 2.0, 2.0).terms
    eta_ref = riemann(
        lambda x: x * 0.1 * np.exp(0.1 * x) * np.asarray(g22.pdf(x)) ** 2,
        (-1.0, 1.0),
    )
    close("eta:g22", terms["eta"], eta_ref)

    _report(
        12,
        "oracle equivalence (integrand suite, derived values, MC)",
        not failures,
        "; ".join(failures) if failures else "all matched",
    )


# ---------------------------------------------------------------------------
# Criteria 13-14: integration by parts and the scaling identity
# ---------------------------------------------------------------------------


def test_criterion_13_integration_by_parts():
    r1 = lemma4_residual(make_tent(), np.positive, np.ones_like)
    r2 = lemma4_residual(
        make_generalized_gaussian(2.0, 1.0), np.arctan, lambda x: 1 / (1 + x * x)
    )
    r3 = lemma4_residual(
        make_generalized_gaussian(2.0, 2.0), lambda x: x**3, lambda x: 3 * x * x
    )
    ok = max(r1, r2, r3) <= 1e-7
    _report(13, "integration-by-parts residuals", ok, f"residuals {r1:.1e} {r2:.1e} {r3:.1e}")


def test_criterion_14_scaling_identity():
    g22 = make_generalized_gaussian(2.0, 2.0)
    uni = make_generalized_gaussian(math.inf, 2.0)
    r1 = check_scaling_identity(make_exp_linear(0.1), g22, 1.0, 2.0)
    r2 = check_scaling_identity(make_exp_linear(0.3), g22, 1.7, 2.0)
    r3 = check_scaling_identity(make_power(1.0), uni, 3.0, 0.5)
    ok = r1 <= 1e-12 and r2 <= 1e-7 and r3 <= 1e-7
    _report(14, "scaling identity residuals", ok, f"{r1:.1e} {r2:.1e} {r3:.1e}")
