"""Record the benchmark baseline into perfbench/BASELINE.json.

    python3 perfbench/record.py

Runs every workload once per seed 1-10 with ``--trace 0`` (the run length of
BENCHMARK.json), and twice with ``--trace 1`` on the first seed to show
that every ``calls``/``points`` count repeats exactly.  Writes the
median and quartiles of every end-to-end metric, their spread (distance
between the quartiles over the median), the traced per-layer numbers,
the layer predictions, the known failures and the machine facts.  All
workloads are recorded in one invocation and the file is overwritten.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SEEDS = range(1, 11)

# Which end-to-end metric each layer metric should move, and where; the
# last column is where it should not move.
PREDICTIONS = [
    ("import", "import.scipy_special_s, import.scipy_optimize_s, import.wrenyi_self_s", "setup_s", "all", "-"),
    ("cli", "cli.main.self_s", "op_ms.p50", "measures (cheapest ops)", "-"),
    ("densities", "densities.{parse_density,cdf,quantile}.{calls,self_s}", "ops_per_s", "bounds, bounds-quadcdf", "measures"),
    ("weights", "weights.parse_weight.self_s, weights.antiderivatives.{calls,self_s}", "op_ms.p50", "bounds (alpha=inf rows)", "-"),
    ("numerics", "numerics.integrate.us_per_point", "ops_per_s", "measures", "-"),
    ("numerics", "numerics.integrate.{calls,points,self_s,unconverged_frac,divergent}", "op_ms.tail", "bounds", "-"),
    ("numerics", "numerics.integrate.us_per_call", "ops_per_s", "bounds-quadcdf", "-"),
    ("measures", "measures.<fn>.{calls,self_s}", "op_ms.p50 (measures); calls per op (bounds)", "measures, bounds", "-"),
    ("gaussian_forms", "gaussian_forms.{expectation,gaussian_measures}.{calls,self_s}, verify_identity.self_s", "op_ms.p50", "measures (id2.*), bounds (fii/cri)", "-"),
    ("inequalities", "inequalities.build_transport.{calls,self_s}, transport.{points,us_per_point}, check_<id>.{calls,self_s}", "ops_per_s, op_ms.tail", "bounds, bounds-quadcdf", "measures (zero)"),
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{p.stderr[-3000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    sys.stderr.write(f"{workload} seed={seed} trace={trace}: correct={res['correct']} "
                     f"{ {k: round(v['value'], 4) for k, v in res['metrics'].items() if trace == 0} }\n")
    return res


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__, "platform": platform.platform()}


def main() -> int:
    import ops
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine(), "run_seconds": seconds, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
           "workloads": {}}
    for wl in ops.WORKLOADS:
        runs = [run_once(wl, seed, seconds, 0) for seed in SEEDS]
        e2e = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            s["unit"] = runs[0]["metrics"][name]["unit"]
            e2e[name] = s
        t1, t2 = run_once(wl, SEEDS[0], seconds, 1), run_once(wl, SEEDS[0], seconds, 1)
        counts = [k for k, v in t1["metrics"].items() if v["unit"] == "count"]
        deck = ops.make_deck(wl, SEEDS[0], run.OUT)
        out["workloads"][wl] = {
            "deck_size": len(deck),
            "tail_percentile": run.TAIL_PCT[wl],
            "attempted_failed": [[r["attempted"], r["failed"]] for r in runs],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in t1["metrics"].items()},
            "counts_repeat_exactly": all(t1["metrics"][k] == t2["metrics"][k] for k in counts),
            "known_failures": [{"argv": op["argv"], "reason": op["reason"]}
                               for op in ops.known_failure_ops(wl, run.OUT)],
        }
    out["predictions"] = [dict(zip(("layer", "metrics", "should_move", "on", "flat_on"), row)) for row in PREDICTIONS]
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
