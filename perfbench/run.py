"""The wrenyi benchmark: one seeded workload, checked, as one JSON line.

    python3 perfbench/run.py --workload measures --seed 1 --seconds 27 --trace 0

Run from anywhere; it works on the checkout that contains it and reads
and writes only inside it (scratch files go to ``.perfbench_out/``).

``--trace 0`` times the workload and prints every end-to-end metric:

    setup_s      fresh interpreter start until ``import wrenyi.cli``
                 returns; median of 5 starts after one warm-up start
    ops_per_s    op calls completed / wall time of the timed region
    op_ms.p50    median latency over every op call of the run
    op_ms.tail   TAIL_PCT percentile of the same samples: the highest
                 of p99/p95/p85 that leaves >= 10 op calls beyond it at
                 the workload's op count (4410-4830, 285-342 and 102-119
                 in the recorded runs)
    peak_rss_mb  ru_maxrss of the workload process

The timed region runs whole passes over the seeded deck in a closed
loop (one client, no threads) until at least ``--seconds`` have passed,
so every op of the deck runs equally often.  Nothing runs before it in
the workload process but the import, so the first call of every op is
timed too.

``--trace 1`` prints the per-layer metrics instead: a warm-up pass, then
one untraced and one traced pass over the same deck (counts are exact for a seed), import
times from ``-X importtime``, the tracing overhead, and how many of the
known failures still fail.

Every op's output is checked (``reference.check_output``); ``failed``
counts the op calls whose output is wrong, ``correct`` is true only
when none is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
sys.path.insert(0, HERE)

TAIL_PCT = {"measures": 99, "bounds": 95, "bounds-quadcdf": 85}
SETUP_STARTS = 5
IMPORTTIME_STARTS = 3
CHILD_TIMEOUT = 170


def _die(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _percentile(values, pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_metrics(lat, elapsed: float, tail_pct: float) -> dict:
    """ops_per_s, op_ms.p50 and op_ms.tail over every op call of a run."""
    ms = [1000.0 * dt for _, dt in lat]
    return {
        "ops_per_s": (len(lat) / elapsed, "ops/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (_percentile(ms, tail_pct), "ms"),
    }


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_seconds() -> float:
    """Median wall time from spawning a fresh interpreter until
    ``import wrenyi.cli`` returns inside it (CLOCK_MONOTONIC is shared
    by both processes)."""
    code = "import time, wrenyi.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        p = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_python_env(),
            timeout=CHILD_TIMEOUT, cwd=ROOT,
        )
        if p.returncode != 0:
            _die(f"importing wrenyi.cli failed:\n{p.stderr}")
        if i:  # the first start warms the page cache and writes bytecode
            times.append(float(p.stdout.strip()) - t0)
    return statistics.median(times)


def import_times() -> dict:
    """scipy.special, scipy.optimize and wrenyi's own import time (s)."""
    runs = []
    for _ in range(IMPORTTIME_STARTS):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wrenyi.cli"],
            capture_output=True, text=True, env=_python_env(), timeout=CHILD_TIMEOUT, cwd=ROOT,
        )
        if p.returncode != 0:
            _die(f"importing wrenyi.cli failed:\n{p.stderr}")
        runs.append(parse_importtime(p.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text: str) -> dict:
    rows = []  # (self_us, cumulative_us, name, depth), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(self_us), int(cum_us), name.strip(), depth))

    def find(name):
        return next((i for i, r in enumerate(rows) if r[2] == name), None)

    def ancestors(i):
        depth = rows[i][3]
        for r in rows[i + 1:]:
            if r[3] < depth:
                depth = r[3]
                yield r[2]

    sp, so = find("scipy.special"), find("scipy.optimize")
    special = rows[sp][1] if sp is not None else 0
    optimize = rows[so][1] if so is not None else 0
    if sp is not None and so is not None and "scipy.optimize" in ancestors(sp):
        optimize -= special
    own = sum(r[0] for r in rows if r[2] == "wrenyi" or r[2].startswith("wrenyi."))
    return {
        "import.scipy_special_s": special / 1e6,
        "import.scipy_optimize_s": optimize / 1e6,
        "import.wrenyi_self_s": own / 1e6,
    }


def run_worker(job: dict, tag: str) -> dict:
    os.makedirs(OUT, exist_ok=True)
    job_path = os.path.join(OUT, f"job-{tag}.json")
    res_path = os.path.join(OUT, f"result-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(dict(job, root=ROOT), fh)
    if os.path.exists(res_path):
        os.remove(res_path)
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path, res_path],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
    )
    if p.returncode != 0 or not os.path.exists(res_path):
        _die(f"worker failed ({p.returncode}):\n{p.stderr[-2000:]}")
    with open(res_path, encoding="utf-8") as fh:
        return json.load(fh)


def check(deck, result) -> dict:
    """Check every output of the run; returns {op id: [problems]}."""
    import reference

    bad = {}
    for key, (rc, text) in result["outputs"].items():
        op = deck[int(key)]
        try:
            probs = reference.check_output(op, rc, text, reference.reference_terms(op))
        except (ArithmeticError, ValueError) as exc:
            probs = [f"reference failed: {exc!r}"]
        if probs:
            bad[op["id"]] = probs
    for i in result["mismatch"]:
        bad.setdefault(i, []).append("output differs between repetitions")
    return bad


def report_failures(deck, bad: dict) -> None:
    for i, probs in sorted(bad.items()):
        sys.stderr.write(f"WRONG op {i}: wrenyi {' '.join(deck[i]['argv'])}\n")
        for pr in probs:
            sys.stderr.write(f"    {pr}\n")


def timed(workload: str, seed: int, seconds: float, deck) -> tuple:
    setup = setup_seconds()
    job = {"mode": "timed", "ops": [op["argv"] for op in deck], "seconds": seconds}
    res = run_worker(job, f"{workload}-{seed}")
    bad = check(deck, res)
    report_failures(deck, bad)
    failed = sum(1 for i, _ in res["lat"] if i in bad)
    n = len(res["lat"])
    sys.stderr.write(
        f"{workload} seed={seed}: {n} ops ({len(deck)} distinct, {n // len(deck)} passes) in "
        f"{res['elapsed']:.2f} s, tail = p{TAIL_PCT[workload]}\n"
    )
    metrics = {"setup_s": (setup, "s"), **latency_metrics(res["lat"], res["elapsed"], TAIL_PCT[workload]),
               "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB")}
    return n, failed, metrics


def traced(workload: str, seed: int, deck) -> tuple:
    import layers
    import ops

    imp = import_times()
    job = {"mode": "traced", "ops": [op["argv"] for op in deck],
           "spans": os.path.join(OUT, f"spans-{workload}-{seed}.npz")}
    res = run_worker(job, f"{workload}-{seed}-traced")
    bad = check(deck, res)
    report_failures(deck, bad)
    probes = ops.known_failure_ops(workload, OUT)
    still = 0
    if probes:
        pres = run_worker({"mode": "probe", "ops": [op["argv"] for op in probes]}, f"{workload}-{seed}-probe")
        pbad = check(probes, pres)
        still = len(pbad)
        for i, op in enumerate(probes):
            state = "still fails" if i in pbad else "NOW PASSES"
            sys.stderr.write(f"known failure {state}: wrenyi {' '.join(op['argv'])}\n")
    n = 3 * len(deck)  # warm-up, untraced and traced pass
    failed = 3 * len(bad)
    metrics = layers.per_layer(res, imp)
    metrics["known_failures.still_failing"] = (still, "count")
    return n, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wrenyi", "cli.py")):
        _die(f"no wrenyi sources under {os.path.join(ROOT, 'src')}")
    os.chdir(ROOT)
    import ops

    if args.workload not in ops.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; known: {', '.join(ops.WORKLOADS)}")
    deck = ops.make_deck(args.workload, args.seed, OUT)
    if args.trace:
        n, failed, metrics = traced(args.workload, args.seed, deck)
    else:
        n, failed, metrics = timed(args.workload, args.seed, args.seconds, deck)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
