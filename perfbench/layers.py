"""Per-layer metrics of a traced run, named after the wrenyi modules.

``calls`` and ``points`` are exact counts for a seed; ``self_s`` is the
time inside a function minus the time of the wrapped calls it made (for
``numerics.integrate`` that excludes the integrand).
``inequalities.transport.us_per_point`` is the inclusive time of
``TransportMap.__call__`` (its cdf/quantile calls included) per point.
"""

from __future__ import annotations

MEASURE_FNS = (
    "expectation",
    "weighted_entropy",
    "relative_weighted_entropy",
    "weighted_renyi_entropy",
    "weighted_renyi_power",
    "relative_renyi_entropy",
    "relative_renyi_power",
    "generalized_moment",
    "generalized_deviation",
    "fisher_information",
    "weighted_fisher_information",
)
CHECKS = ("thm11", "mei", "cor1", "cor2", "cor3", "fii", "cri", "cor4", "scaling_identity")


def _spec():
    """(metric, unit, better, source) for every per-layer metric."""
    out = [
        ("import.scipy_special_s", "s", "lower", None),
        ("import.scipy_optimize_s", "s", "lower", None),
        ("import.wrenyi_self_s", "s", "lower", None),
        ("cli.main.self_s", "s", "lower", ("cli.main", "self_s")),
        ("densities.parse_density.calls", "count", "lower", ("densities.parse_density", "calls")),
        ("densities.parse_density.self_s", "s", "lower", ("densities.parse_density", "self_s")),
        ("densities.cdf.calls", "count", "lower", ("densities.cdf", "calls")),
        ("densities.cdf.self_s", "s", "lower", ("densities.cdf", "self_s")),
        ("densities.quantile.calls", "count", "lower", ("densities.quantile", "calls")),
        ("densities.quantile.self_s", "s", "lower", ("densities.quantile", "self_s")),
        ("weights.parse_weight.self_s", "s", "lower", ("weights.parse_weight", "self_s")),
        ("weights.antiderivatives.calls", "count", "lower", ("weights.antiderivatives", "calls")),
        ("weights.antiderivatives.self_s", "s", "lower", ("weights.antiderivatives", "self_s")),
        ("numerics.integrate.calls", "count", "lower", ("numerics.integrate", "calls")),
        ("numerics.integrate.points", "count", "lower", ("numerics.integrate", "points")),
        ("numerics.integrate.self_s", "s", "lower", ("numerics.integrate", "self_s")),
        ("numerics.integrate.us_per_point", "us", "lower", None),
        ("numerics.integrate.us_per_call", "us", "lower", None),
        ("numerics.integrate.unconverged_frac", "ratio", "lower", None),
        ("numerics.integrate.divergent", "count", "lower", None),
        ("numerics.integrand.self_s", "s", "lower", ("numerics.integrand", "self_s")),
        ("numerics.find_root.calls", "count", "lower", ("numerics.find_root", "calls")),
        ("numerics.essential_supremum.calls", "count", "lower", ("numerics.essential_supremum", "calls")),
        ("numerics.essential_supremum.self_s", "s", "lower", ("numerics.essential_supremum", "self_s")),
        ("numerics.total_variation.self_s", "s", "lower", ("numerics.total_variation", "self_s")),
    ]
    for fn in MEASURE_FNS:
        out.append((f"measures.{fn}.calls", "count", "lower", (f"measures.{fn}", "calls")))
        out.append((f"measures.{fn}.self_s", "s", "lower", (f"measures.{fn}", "self_s")))
    out += [
        ("gaussian_forms.expectation.calls", "count", "lower", ("gaussian_forms.AuxiliaryLaw.expectation", "calls")),
        ("gaussian_forms.expectation.self_s", "s", "lower", ("gaussian_forms.AuxiliaryLaw.expectation", "self_s")),
        ("gaussian_forms.gaussian_measures.calls", "count", "lower", ("gaussian_forms.gaussian_measures", "calls")),
        ("gaussian_forms.gaussian_measures.self_s", "s", "lower", ("gaussian_forms.gaussian_measures", "self_s")),
        ("gaussian_forms.verify_identity.self_s", "s", "lower", ("gaussian_forms.verify_identity", "self_s")),
        ("inequalities.build_transport.calls", "count", "lower", ("inequalities.build_transport", "calls")),
        ("inequalities.build_transport.self_s", "s", "lower", ("inequalities.build_transport", "self_s")),
        ("inequalities.transport.points", "count", "lower", ("inequalities.TransportMap.__call__", "points")),
        ("inequalities.transport.us_per_point", "us", "lower", None),
    ]
    for cid in CHECKS:
        out.append((f"inequalities.check_{cid}.calls", "count", "lower", (f"inequalities.check_{cid}", "calls")))
        out.append((f"inequalities.check_{cid}.self_s", "s", "lower", (f"inequalities.check_{cid}", "self_s")))
    out += [
        ("trace.untraced_ops_per_s", "ops/s", "higher", None),
        ("trace.traced_ops_per_s", "ops/s", "higher", None),
        ("trace.overhead_ratio", "ratio", "lower", None),
        ("known_failures.still_failing", "count", "lower", None),
    ]
    return out


SPEC = _spec()


def per_layer(res: dict, imports: dict) -> dict:
    """{metric: (value, unit)} for every per-layer metric but the
    known-failure count, from a traced worker result."""
    layers = res["layers"]
    zero = {"calls": 0, "points": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name, unit, _, src in SPEC:
        if src is not None:
            out[name] = (layers.get(src[0], zero)[src[1]], unit)
    out.update({k: (v, "s") for k, v in imports.items()})

    integ = layers.get("numerics.integrate", zero)
    status = layers.get("numerics.integrate.status", {})
    n = max(integ["calls"], 1)
    out["numerics.integrate.us_per_point"] = (1e6 * integ["self_s"] / max(integ["points"], 1), "us")
    out["numerics.integrate.us_per_call"] = (1e6 * integ["self_s"] / n, "us")
    out["numerics.integrate.unconverged_frac"] = ((integ["calls"] - status.get("converged", 0)) / n, "ratio")
    out["numerics.integrate.divergent"] = (status.get("divergent", 0), "count")
    tm = layers.get("inequalities.TransportMap.__call__", zero)
    out["inequalities.transport.us_per_point"] = (1e6 * tm["total_s"] / max(tm["points"], 1), "us")

    n_ops = len(res["traced"]["lat"])
    untraced = n_ops / res["untraced"]["elapsed"]
    traced = n_ops / res["traced"]["elapsed"]
    out["trace.untraced_ops_per_s"] = (untraced, "ops/s")
    out["trace.traced_ops_per_s"] = (traced, "ops/s")
    out["trace.overhead_ratio"] = (untraced / traced, "ratio")
    return out
