#!/usr/bin/env python3
"""Compare the CLI outputs of this checkout with those of another source tree.

    python scripts/compare_outputs.py <other-src-dir> [--seeds 3 29 83 801]

``<other-src-dir>`` is the directory holding the other tree's ``wrenyi``
package, e.g. ``<checkout>/src`` of the parent commit.  Each tree runs
the same inputs in its own interpreter, every input as one in-process
``wrenyi.cli.main(argv)`` call:

* every op of the ``measures``, ``bounds`` and ``bounds-quadcdf`` decks
  of ``perfbench/ops.py`` at each seed, and every known-failure probe
  (``_PROBES``);
* ``repro all``;
* every ``scenarios/*.sweep``, together with the CSV and JSON files it
  writes.

Every input whose stdout, exit code or written files differ between the
two trees is printed with both sides; stderr is not compared.  An
exception that escapes ``main`` counts as exit code ``"exception"`` with
its type and message as output.  The exit status is 1 if anything
differs, else 0.  ``perfbench/`` is only imported, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cases(seeds, work: str) -> list[dict]:
    """Every input to run, each {"name", "argv"}."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import ops

    out = []
    for workload in ops.WORKLOADS:
        for seed in seeds:
            for op in ops.make_deck(workload, seed, work):
                out.append({"name": f"{workload} seed {seed} op {op['id']}", "argv": op["argv"]})
        for op in ops.known_failure_ops(workload, work):
            out.append({"name": f"{workload} probe {op['id']}", "argv": op["argv"]})
    out.append({"name": "repro all", "argv": ["repro", "all"]})
    scenarios = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(scenarios)):
        if name.endswith(".sweep"):
            out.append({"name": f"sweep {name}", "argv": ["sweep", os.path.join(scenarios, name)]})
    return out


def run_cases(src: str, job: list[dict], work: str) -> list[dict]:
    """Worker side: run every case through this interpreter's wrenyi."""
    sys.path.insert(0, src)
    from wrenyi import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"wrenyi was imported from {cli.__file__}, not from {src}")
    results = []
    for i, case in enumerate(job):
        cwd = os.path.join(work, str(i))
        os.makedirs(cwd)
        os.chdir(cwd)  # sweeps write their out_csv/out_json relative to it
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(case["argv"])
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a crash is an output too
                rc = "exception"
                print(f"{type(exc).__name__}: {exc}")
        files = {}
        for dirpath, _, names in os.walk(cwd):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    files[os.path.relpath(path, cwd)] = fh.read()
        results.append({"rc": rc, "stdout": out.getvalue(), "files": files})
    return results


def _spawn(src: str, job_path: str, work: str, result_path: str):
    argv = [sys.executable, os.path.abspath(__file__), "--worker", src, job_path, work, result_path]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(argv, env=env)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        src, job_path, work, result_path = argv[1:]
        with open(job_path, encoding="utf-8") as fh:
            job = json.load(fh)
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(run_cases(src, job, work), fh)
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="source dir holding the other tree's wrenyi package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 29, 83, 801])
    args = parser.parse_args(argv)

    trees = {"this": os.path.join(ROOT, "src"), "other": os.path.abspath(args.other)}
    if not os.path.isdir(os.path.join(trees["other"], "wrenyi")):
        parser.error(f"no wrenyi package under {trees['other']}")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        job = cases(args.seeds, tmp)
        job_path = os.path.join(tmp, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        procs = {
            side: _spawn(src, job_path, os.path.join(tmp, side), os.path.join(tmp, f"{side}.json"))
            for side, src in trees.items()
        }
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"the worker for {side} ({trees[side]}) failed", file=sys.stderr)
                return 2
        results = {}
        for side in trees:
            with open(os.path.join(tmp, f"{side}.json"), encoding="utf-8") as fh:
                results[side] = json.load(fh)

    differ = 0
    for case, this, other in zip(job, results["this"], results["other"]):
        if this == other:
            continue
        differ += 1
        print(f"DIFF {case['name']}: {' '.join(case['argv'])}")
        for side, res in (("this", this), ("other", other)):
            print(f"  {side:5} exit {res['rc']}: {res['stdout'].rstrip()}")
        for path in sorted(set(this["files"]) | set(other["files"])):
            lines = (res["files"].get(path, "").splitlines() for res in (this, other))
            for n, (a, b) in enumerate(itertools.zip_longest(*lines), 1):
                if a != b:
                    print(f"  {path}:{n}\n    this  {a}\n    other {b}")
    print(f"{len(job)} inputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
