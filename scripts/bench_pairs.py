#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

    python scripts/bench_pairs.py <parent-checkout> --pr 8 [--pairs 10]

``<parent-checkout>`` is a checkout of the parent commit (e.g. made with
``git archive``).  For every workload of ``WORKLOADS``, pair i runs
``perfbench/run.py --workload W --seed <801+i> --seconds 27 --trace 0``
once on the parent checkout and once on this one, the side that goes
first alternating from pair to pair; then each tree makes one
``--trace 1`` run at seed 801.  The 27 s run length is the one
``BENCHMARK.json`` fixes.  Each run is the tree's own ``perfbench/run.py``
in its own interpreter, one run at a time.

Before the workloads, ``cold_cli`` times one-shot CLI runs: every argv
of ``COLD_CLI`` runs ``COLD_RUNS`` times per tree as
``python -m wrenyi.cli <argv>`` in a fresh interpreter, the side that
goes first alternating from run to run, after one untimed warm-up start
of each tree (it writes the bytecode).  One more ``-X importtime`` run
per argv and tree tells whether it loaded ``scipy.special``.

The result goes to ``BENCH_<pr>.json`` at the root of this checkout:
per workload and side, the median of every end-to-end metric, the
``correct``/``failed`` fields and metrics of every run, and the traced
work counts of ``TRACED``; plus, per metric, the change/parent ratio of
the medians, the number of pairs the change won and the distance
between the quartiles of the parent's runs.  Per ``COLD_CLI`` argv:
the median wall time of each side, their ratio, the runs the change
won, the exit code and whether ``scipy.special`` was loaded.
The script writes nothing but that file; ``perfbench/run.py`` keeps its
scratch files in each tree's ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("measures", "bounds", "bounds-quadcdf")
RUN_SECONDS = 27
FIRST_SEED = 801
END_TO_END = ("setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb")
HIGHER_IS_BETTER = {"ops_per_s"}
TRACED = (
    "densities.cdf.calls",
    "densities.cdf.self_s",
    "numerics.integrate.calls",
    "numerics.integrate.points",
    "numerics.integrand.self_s",
    "numerics.find_root.calls",
    "known_failures.still_failing",
    "numerics.essential_supremum.calls",
    "numerics.essential_supremum.self_s",
    "numerics.total_variation.self_s",
    "inequalities.transport.points",
    "inequalities.transport.us_per_point",
    "import.scipy_special_s",
    "import.wrenyi_self_s",
)
COLD_RUNS = 7
# One-shot runs: a compute on each kind of source (Laplace, tent,
# weighted, generalized Gaussian), three checks and the help text.
COLD_CLI = (
    ("compute", "we", "--f", "laplace:1", "--w", "pow:2", "--p", "2"),
    ("compute", "mom", "--f", "tent", "--w", "const:1", "--alpha", "2"),
    ("compute", "wre", "--f", "weighted:laplace:1;expw:0.2", "--w", "const:1", "--p", "2"),
    ("compute", "wrp", "--f", "gg:2,2", "--w", "const:1", "--p", "2"),
    ("verify", "thm1.1", "--f", "exp:3.5", "--g", "exp:1.5", "--w", "expw:-1", "--p", "1"),
    ("verify", "cor2", "--f", "tent", "--c", "0"),
    ("verify", "fii", "--f", "laplace:1", "--w", "expw:0.1", "--alpha", "2", "--p", "2"),
    ("--help",),
)


def run(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run of ``tree``: its last stdout line, parsed."""
    argv = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace),
    ]
    p = subprocess.run(argv, capture_output=True, text=True, cwd=tree)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed in {tree}:\n{p.stderr[-2000:]}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    return {"seed": seed, "correct": out["correct"], "failed": out["failed"], "metrics": metrics}


def cli(tree: str, argv, importtime: bool = False) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and result of one fresh ``python -m wrenyi.cli`` run of ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("PYTHONSTARTUP", None)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-m", "wrenyi.cli", *argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tree)
    return time.perf_counter() - t0, p


def cold_cli(trees: dict) -> list[dict]:
    for tree in trees.values():
        cli(tree, ["--help"])
    rows = []
    for argv in COLD_CLI:
        times = {side: [] for side in trees}
        for i in range(COLD_RUNS):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                times[side].append(cli(trees[side], argv)[0])
        row = {"argv": " ".join(argv)}
        for side, tree in trees.items():
            _, p = cli(tree, argv, importtime=True)
            loaded = {line.rsplit("|", 1)[-1].strip() for line in p.stderr.splitlines()}
            row[side] = {
                "median_s": statistics.median(times[side]),
                "runs_s": times[side],
                "exit": p.returncode,
                "loads_scipy_special": "scipy.special" in loaded,
            }
        row["change_over_parent"] = row["change"]["median_s"] / row["parent"]["median_s"]
        row["runs_won_by_change"] = sum(
            tc < tp for tp, tc in zip(times["parent"], times["change"])
        )
        sys.stderr.write(
            f"cold {row['argv']}: parent {row['parent']['median_s']:.3f} s, "
            f"change {row['change']['median_s']:.3f} s\n"
        )
        rows.append(row)
    return rows


def host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def bench(trees: dict, workload: str, seeds: list[int]) -> dict:
    runs = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for side in order:
            r = run(trees[side], workload, seed, 0)
            runs[side].append(r)
            sys.stderr.write(
                f"{workload} seed {seed} {side}: correct={r['correct']} failed={r['failed']} "
                + " ".join(f"{k}={r['metrics'][k]:.4g}" for k in END_TO_END) + "\n"
            )
    result = {}
    for side, tree in trees.items():
        traced = run(tree, workload, seeds[0], 1)
        result[side] = {
            "median": {k: statistics.median(r["metrics"][k] for r in runs[side]) for k in END_TO_END},
            "runs": runs[side],
            "traced": {
                "seed": traced["seed"],
                "correct": traced["correct"],
                "failed": traced["failed"],
                **{k: traced["metrics"][k] for k in TRACED},
            },
        }
    result["change_over_parent"] = {
        k: result["change"]["median"][k] / result["parent"]["median"][k] for k in END_TO_END
    }
    pairs = list(zip(runs["parent"], runs["change"]))
    result["pairs_won_by_change"] = {
        k: sum(better(k, rc["metrics"][k], rp["metrics"][k]) for rp, rc in pairs)
        for k in END_TO_END
    }
    result["parent_iqr"] = {k: iqr([r["metrics"][k] for r in runs["parent"]]) for k in END_TO_END}
    return result


def better(metric: str, x: float, y: float) -> bool:
    """Whether ``x`` is strictly better than ``y`` (a tie is neither)."""
    return x > y if metric in HIGHER_IS_BETTER else x < y


def iqr(values: list[float]) -> float:
    """Distance between the quartiles (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        ap.error(f"no perfbench/run.py under {parent}")

    trees = {"parent": parent, "change": ROOT}
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    report = {
        "pr": args.pr,
        "host": host(),
        "pairs": args.pairs,
        "seconds": RUN_SECONDS,
        "seeds": seeds,
        "cold_cli": {"runs": COLD_RUNS, "rows": cold_cli(trees)},
        "workloads": {w: bench(trees, w, seeds) for w in WORKLOADS},
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
