"""Independent brute-force engines.

Midpoint Riemann sums on dense uniform grids and seeded inverse-CDF
Monte Carlo.  These deliberately share no code with the adaptive
quadrature path; they exist to validate it, not to be fast.  The tests
import them as ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from wrenyi.densities import Density, quantile
from wrenyi.errors import EvaluationError, InputError

__all__ = [
    "OracleConfig",
    "riemann",
    "per_cell",
    "extrema",
    "clip_domain",
    "mc_expectation",
    "cross_validate",
]


@dataclass(frozen=True)
class OracleConfig:
    grid_points: int = 2_000_000
    tail_quantile: float = 1e-10
    mc_draws: int = 1_000_000
    seed: int = 42
    fallback_halfwidth: float = 40.0

    def __post_init__(self) -> None:
        if self.grid_points < 1_000:
            raise InputError("oracle grid must have at least 1000 points")
        if self.mc_draws < 10_000:
            raise InputError("oracle needs at least 10000 draws")


DEFAULT_ORACLE = OracleConfig()


def clip_domain(density: Density, config: OracleConfig = DEFAULT_ORACLE):
    """Finite window holding all but the tail_quantile mass of each tail."""
    lo, hi = density.support
    if not math.isfinite(lo):
        lo = quantile(density, config.tail_quantile)
    if not math.isfinite(hi):
        hi = quantile(density, 1.0 - config.tail_quantile)
    return float(lo), float(hi)


def riemann(integrand, domain, config: OracleConfig = DEFAULT_ORACLE) -> float:
    """Midpoint sum on a uniform grid over the (clipped) domain.

    Infinite endpoints without a density to clip against fall back to a
    fixed window of +-fallback_halfwidth.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not math.isfinite(lo):
        lo = -config.fallback_halfwidth
    if not math.isfinite(hi):
        hi = config.fallback_halfwidth
    if not hi > lo:
        raise InputError(f"empty oracle domain ({lo}, {hi})")
    n = config.grid_points
    h = (hi - lo) / n
    x = lo + h * (np.arange(n) + 0.5)
    y = np.asarray(integrand(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise EvaluationError("oracle integrand not finite on the midpoint grid")
    return float(h * y.sum())


def per_cell(fn, nodes, dps: int = 30) -> float:
    """int fn over [nodes[0], nodes[-1]] as a sum of ``dps``-digit mpmath
    quadratures, one per cell between consecutive ``nodes``.

    ``fn`` maps an mpf to an mpf; each node is taken as the exact value
    of its float, so a cell's integrand can be smooth up to both ends.
    """
    with mp.workdps(dps):
        return float(mp.quad(fn, [mp.mpf(float(x)) for x in nodes]))


def extrema(fn, lo, hi, n: int = 600, dps: int = 30):
    """(sup, total variation) of ``fn`` on [lo, hi] in ``dps``-digit mpmath.

    ``fn`` maps an mpf to an mpf.  It is sampled at lo + (hi - lo) s^2 on
    n + 1 even steps of s (dense near lo), every interior local extremum
    of the samples is polished by 120 golden-section steps on its two
    neighbouring cells, and the variation is the sum of the steps between
    fn(lo), the extrema in order and fn(hi): exact for a function that is
    monotone between the extrema the grid resolves.
    """
    with mp.workdps(dps):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        xs = [lo + (hi - lo) * (mp.mpf(i) / n) ** 2 for i in range(n + 1)]
        ys = [fn(x) for x in xs]
        path = [ys[0]]
        golden = (mp.sqrt(5) - 1) / 2
        for i in range(1, n):
            sign = 1 if ys[i] > max(ys[i - 1], ys[i + 1]) else -1 if ys[i] < min(ys[i - 1], ys[i + 1]) else 0
            if not sign:
                continue
            a, b = xs[i - 1], xs[i + 1]
            for _ in range(120):
                c, d = b - golden * (b - a), a + golden * (b - a)
                if sign * fn(c) > sign * fn(d):
                    b = d
                else:
                    a = c
            path.append(fn((a + b) / 2))
        path.append(ys[-1])
        return float(max(path)), float(mp.fsum(abs(y - x) for x, y in zip(path, path[1:])))


def ppf(law, q):
    """Inverse CDF of a Beta or Gamma ``gaussian_forms.AuxiliaryLaw``."""
    from scipy.special import betaincinv, gammaincinv

    q = np.asarray(q, dtype=float)
    if law.family == "beta":
        return betaincinv(law.shape1, law.shape2, q)
    return gammaincinv(law.shape1, q)


def mc_expectation(fn, law, config: OracleConfig = DEFAULT_ORACLE):
    """(mean, standard error) of fn(Z), Z ~ ``law``, by seeded inverse-CDF sampling."""
    rng = np.random.default_rng(config.seed)
    u = rng.random(config.mc_draws)
    x = np.asarray(ppf(law, u), dtype=float)
    y = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(y)):
        raise EvaluationError("oracle draws produced non-finite values")
    mean = float(y.mean())
    se = float(y.std(ddof=1) / math.sqrt(config.mc_draws))
    return mean, se


@dataclass(frozen=True)
class CrossReport:
    name: str
    main_value: float
    oracle_value: float
    rel_diff: float
    threshold: float
    passed: bool
    detail: str = ""


def cross_validate(
    name: str,
    main_value: float,
    oracle_value: float,
    threshold: float = 1e-5,
    se: float | None = None,
) -> CrossReport:
    """Compare a quadrature-path value against its oracle counterpart.

    With a Monte-Carlo standard error the acceptance band is
    max(threshold * scale, 3 se); otherwise it is relative at
    ``threshold``.
    """
    scale = max(1.0, abs(main_value), abs(oracle_value))
    diff = abs(main_value - oracle_value)
    band = threshold * scale
    if se is not None:
        band = max(band, 3.0 * se)
    return CrossReport(
        name,
        main_value,
        oracle_value,
        diff / scale,
        threshold,
        diff <= band,
        f"band={band:.3e}",
    )
