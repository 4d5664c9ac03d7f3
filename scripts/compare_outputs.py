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
  writes;
* the argv of every case pinned in ``tests/golden/cli_golden.json``;
* ``verify lemma4`` on each source of ``LEMMA4_SOURCES`` with each map
  ``--gfn`` x, atan and cube (no deck op reaches lemma4);
* ``verify cor4 --c 0.2`` on each source of ``COR4_SOURCES`` (no deck
  op runs cor4 on a weighted source);
* ``compute wfi --alpha inf`` on each (source, weight, p) of
  ``VARIATION_INPUTS`` (no deck op takes a total variation over an
  infinite support, across a kink or with a jump at a support edge);
* every argv of ``TABLE_INPUTS`` on the seed-801 ``bounds-quadcdf``
  table: ``cri``, a ``weighted:table:`` source, ``scaling --t`` and
  ``wfi --alpha inf``, which no deck op runs on a table;
* every argv of ``WEIGHTED_TRANSPORT_INPUTS`` (on that table too): the
  transport of weighted exponential (half-line), ``gg:2,1``, tent
  (bounded) and table sources under pow, abspoly and expw weights through
  ``fii``/``cri`` at p > 1, p = 1 and alpha = inf and ``cor4 --c 0.2``,
  which no deck op reaches;
* every argv of ``SUP_VARIATION_INPUTS``: ``wfi`` at alpha = 1 and
  alpha = inf and ``dev`` at alpha = inf on every G-kernel family (gg at
  p > 1, p = 1 and p < 1, Laplace, the tent, the uniform G), ``id2.11``
  and ``id2.18`` at alpha = 1 and ``id2.22``, each under const, pow (one
  of them unbounded at 0), abspoly and expw weights, and the unbounded
  variation on an exponential source: the sups and variations that
  exponent rules settle, the ones left to the scan and the infinite ones,
  and three whose exponents balance in decimals but not in doubles (a
  finite p < 1 tail limit, a weight exponent cancelling the score's);
* every argv of ``CLOSED_FORM_INPUTS``: the measures of an exponential
  source (and g) under pow, abspoly and expw weights, and of Laplace,
  tent and generalized-Gaussian sources under pow, abspoly and const
  weights, which are closed form and which no deck op runs, plus the
  divergent and near-p = 1 inputs those closed forms answer, the
  heavy-tailed G that only a closed-form mass lets parse and sources
  whose weighted-density normalizer is closed form; and the same
  sources under expw in each regime of its series: entire (p > 1,
  p = 1 with alpha > 1), the exact Laplace sum and its radius, and the
  power or stretched tails where it diverges.

Every input whose stdout, exit code or written files differ between the
two trees is printed with both sides; stderr is not compared.  An
exception that escapes ``main`` counts as exit code ``"exception"`` with
its type and message as output.  The exit status is 1 if anything
differs, else 0.  ``perfbench/`` is only imported, never written.

``--summary`` prints one line per differing input instead: the largest
move over its numeric fields (JSON values, CSV cells and the numbers
inside strings and text lines) in each class of ``MOVES`` (values and
error estimates relative to their size; slacks, margins and values
below ``FLOOR`` in magnitude, such as residuals, in absolute terms),
and a flag for every difference in exit code, verdict, warnings or
other text.  Both modes end with the totals.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# A number standing on its own: not part of an identifier such as id2.14.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
FLAGS = ("exit code", "verdict", "warnings", "other text")
FLOOR = 1e-9
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_golden.json")
LEMMA4_SOURCES = ("tent", "laplace:1", "gg:2,2", "exp:2", "gg:0,2")
COR4_SOURCES = ("weighted:laplace:1;pow:1", "weighted:laplace:1;abspoly:1,0.5")
VARIATION_INPUTS = (
    ("exp:1", "const:1", "2"),
    ("laplace:0.8", "abspoly:1,0.5", "1.7"),
    ("gg:2,0.8", "pow:1", "2"),
    ("weighted:laplace:1;pow:1", "const:1", "2"),
    ("tent", "pow:0.6", "2"),
)
TABLE_INPUTS = (  # {t}: the path of a table
    "verify cri --f table:{t} --w const:1.3 --alpha 2.4 --p 1.7",
    "verify cri --f table:{t} --w abspoly:1,1 --alpha 2 --p 1.5",
    "verify cri --f table:{t} --w expw:0.2 --alpha 2.5 --p 2",
    "verify cri --f table:{t} --w pow:2 --alpha 2 --p 2",
    "compute we --f weighted:table:{t};abspoly:1,1 --w const:1",
    "compute wre --f weighted:table:{t};abspoly:1,1 --w const:1 --p 1.5",
    "verify fii --f weighted:table:{t};abspoly:1,1 --w const:1 --alpha 2 --p 1.5",
    "verify scaling --f table:{t} --t 0.7 --p 1.5 --w abspoly:1,1",
    "verify scaling --f table:{t} --t 0.7 --p 2 --w const:1",
    "compute wfi --f table:{t} --w const:1 --alpha inf --p 2",
    "compute wfi --f table:{t} --w abspoly:1,0.5 --alpha inf --p 1.7",
)
WEIGHTED_TRANSPORT_INPUTS = tuple(  # {t}: the path of a table
    f"verify {check} --f weighted:{base};{w}{rest}"
    for base in ("exp:1", "gg:2,1", "tent", "table:{t}")
    for w in ("pow:1", "abspoly:1,0.5", "expw:0.3")
    for check, rest in (
        ("fii", " --w const:1.3 --alpha 2 --p 1.5"), ("cri", " --w expw:0.1 --alpha 2.5 --p 1.7"),
        ("fii", " --w abspoly:1,0.5 --alpha 2 --p 1"), ("cri", " --w const:1 --alpha inf --p 2"),
        ("cor4", " --c 0.2"),
    )
)
SUP_VARIATION_WEIGHTS = ("const:1.3", "pow:0.6", "pow:-0.5", "abspoly:1,0.5", "expw:0.3")
SUP_VARIATION_INPUTS = tuple(
    f"compute {mid} --f {f} --w {w}{rest}"
    for f, q in (
        ("gg:2.5,1.7", "2.2"), ("gg:1.5,1", "1.5"), ("gg:2,0.8", "1.5"),
        ("laplace:0.8", "1.5"), ("tent", "2.3"), ("gg:inf,2,0.7", "2"),
    )
    for w in SUP_VARIATION_WEIGHTS
    for mid, rest in (("wfi", f" --alpha 1 --p {q}"), ("wfi", " --alpha inf --p 1.8"), ("dev", " --alpha inf"))
) + tuple(
    f"verify {cid} --w {w} --alpha {alpha} --p {p}"
    for cid, alpha, p in (("id2.11", "1", "2"), ("id2.18", "1", "1"), ("id2.22", "inf", "1.5"))
    for w in SUP_VARIATION_WEIGHTS
) + (
    "compute wfi --f exp:1 --w pow:-0.5 --alpha inf --p 2",
    "compute wfi --f gg:1.5,0.7 --w pow:10 --alpha inf --p 2",
    "compute wfi --f gg:2,0.8 --w pow:20 --alpha inf --p 2",
    "compute wfi --f gg:1.4,2 --w pow:-0.4 --alpha 1 --p 2",
)
CLOSED_FORM_INPUTS = tuple(
    f"compute {mid} --f exp:0.7 --w {w}{rest}"
    for mid, rest in (
        ("we", ""), ("wre", " --p 1.5"), ("wrp", " --p 1.5"), ("wrp", " --p 1"),
        ("mom", " --alpha 1.5"), ("dev", " --alpha 1.5"), ("rwe", " --g exp:1.5"),
        ("rre", " --g exp:1.5 --p 1.5"), ("rrp", " --g exp:1.5 --p 1.5"),
    )
    for w in ("pow:0.5", "pow:-0.5", "abspoly:1,0.5", "expw:-0.4")
) + (
    "compute we --f exp:1 --w pow:-3",
    "compute mom --f exp:1 --w pow:-3 --alpha 1",
    "compute wre --f exp:1 --w expw:3 --p 2",
) + tuple(
    f"compute {mid} --f {f}{rest}"
    for f in ("laplace:0.8", "tent", "gg:2,1.5", "gg:1.5,0.8", "gg:2,1")
    for mid, rest in (
        *((mid, f" --w {w}{order}") for w in ("pow:0.5", "abspoly:1,0.5", "const:1.3") for mid, order in (
            ("wre", " --p 1.5"), ("wrp", " --p 1"), ("mom", " --alpha 1.5"),
            ("dev", " --alpha 1.5"), ("wfi", " --alpha 2 --p 1.5"),
        )),
        ("fi", " --alpha 2 --p 1.5"),
    )
) + (
    "compute wfi --f gg:2,1.001 --w const:1 --alpha 2 --p 1.001",
    "verify fii --f laplace:1 --w const:1 --alpha 2 --p 1.001",
    "verify id2.14 --w pow:4 --alpha 2 --p 0.7",
    "verify mei --f gg:2,0.7 --w pow:4 --alpha 2 --p 0.7",
    "compute we --f laplace:1 --w pow:-3",
) + tuple(
    f"compute {mid} --f {f} --w const:1{rest}"
    for f in ("gg:0.3,0.71", "gg:0.3,0.75", "gg:0.5,0.6")
    for mid, rest in (("wre", " --p 1.5"), ("mom", " --alpha 0.02"))
) + (
    "compute wre --f weighted:laplace:1;pow:1.5 --w const:1 --p 2",
    "compute mom --f weighted:gg:2,1.5;abspoly:1,0.5 --w const:1 --alpha 2",
    "compute we --f weighted:exp:1;expw:0.4 --w const:1",
    "compute wre --f weighted:tent;pow:1 --w const:1 --p 1.5",
    "compute dev --f weighted:exp:1.3;abspoly:0,2,0.5 --alpha 1.5",
) + tuple(
    f"compute {mid} --f {f} --w expw:{g}{rest}"
    for f, g in (
        ("laplace:0.8", "0.3"), ("tent", "-0.5"), ("gg:2,1.5", "0.3"), ("gg:2,1", "-0.5"),
        ("gg:1.5,0.8", "0.3"), ("gg:0.5,1", "0.3"),
    )
    for mid, rest in (
        ("wre", " --p 1.5"), ("wrp", " --p 1"), ("mom", " --alpha 1.5"),
        ("dev", " --alpha 1.5"), ("wfi", " --alpha 2 --p 1.5"),
    )
) + (
    "compute wfi --f gg:2,1.001 --w expw:0.1 --alpha 2 --p 1.001",
    "compute wfi --f laplace:1.5 --w expw:1.3333333333333335 --alpha 2 --p 1.6",
    "compute mom --f laplace:1 --w expw:1 --alpha 1.5",
    "compute mom --f gg:0.5,1 --w expw:0.1 --alpha 2",
    "verify id2.11 --w expw:0.3 --alpha 2 --p 1.5",
    "verify id2.14 --w expw:0.1 --alpha 2 --p 0.8",
    "verify id2.18 --w expw:-0.5 --alpha 2 --p 1",
    "verify cri --f laplace:0.9 --w expw:0.2 --alpha 1 --p 1",
    "verify mei --f gg:2,1.5 --w expw:0.3 --alpha 2 --p 1.5",
    "compute we --f weighted:gg:2,1.5;expw:0.3 --w const:1",
)


def fields(res: dict) -> dict:
    """{field: number or number-masked string} of one result.

    stdout and every written file are parsed as JSON (whole or line by
    line) or CSV, else taken line by line; a string value contributes its
    text with numbers masked as ``#`` and each number as a field of its own.
    """
    out = {"exit": str(res["rc"])}

    def add(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                add(f"{key}.{k}", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                add(f"{key}[{i}]", v)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = float(value)
        else:
            text = str(value)
            out[key] = NUMBER.sub("#", text)
            for i, tok in enumerate(NUMBER.findall(text)):
                out[f"{key}#{i}"] = float(tok)

    for name, text in [("stdout", res["stdout"]), *sorted(res["files"].items())]:
        if name.endswith(".csv"):
            for i, row in enumerate(csv.DictReader(io.StringIO(text))):
                for col, cell in row.items():
                    try:
                        add(f"{name}:{i}.{col}", float(cell))
                    except (TypeError, ValueError):
                        add(f"{name}:{i}.{col}", cell)
            continue
        try:
            add(name, json.loads(text))
            continue
        except ValueError:
            pass
        for n, line in enumerate(text.splitlines(), 1):
            try:
                add(f"{name}:{n}", json.loads(line))
            except ValueError:
                add(f"{name}:{n}", line)
    return out


def _flag(key: str, this, other) -> str:
    if key == "exit":
        return "exit code"
    texts = f"{key} {this} {other}"
    if "verdict" in key or "[PASS]" in texts or "[FAIL]" in texts:
        return "verdict"
    return "warnings" if "warnings" in key else "other text"


# How a numeric field moves, per class: (name, relative?).  An error
# estimate (an "error" field, a number in a warning) depends on the
# refinement path; a difference (a slack or a margin) and any value below
# the floor in magnitude are rounding noise around zero, so they move by
# absolute amounts; every other value moves relative to its size.
MOVES = (("value", True), ("error estimate", True), ("difference", False), ("near zero", False))


def _move_class(key: str, big: float) -> str:
    if "warnings" in key or key.endswith("error"):
        return "error estimate"
    if "slack" in key or "margin" in key:
        return "difference"
    return "near zero" if big < FLOOR else "value"


def compare(this: dict, other: dict) -> dict:
    """Flags and, per class of :data:`MOVES`, the largest move of one input."""
    a, b = fields(this), fields(other)
    flags, moves = set(), {}
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y)):
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            flags.add(_flag(key, x, y))
            continue
        big = max(abs(x), abs(y))
        kind = _move_class(key, big)
        move = abs(x - y)
        if dict(MOVES)[kind]:
            move = move / big if math.isfinite(big) else math.inf
        moves[kind] = max(moves.get(kind, (0.0, "")), (move, f"{key} ({y!r} -> {x!r})"))
    return {"flags": [f for f in FLAGS if f in flags], "moves": moves}


def _moves_text(moves: dict) -> list[str]:
    out = []
    for kind, relative in MOVES:
        if kind in moves:
            move, where = moves[kind]
            name = f"{kind} (below {FLOOR:g})" if kind == "near zero" else kind
            out.append(f"{name} {'rel' if relative else 'abs'} {move:.2e} at {where}")
    return out


def describe(moves: dict) -> str:
    """One summary line: the largest moves (other -> this) and the flags."""
    parts = _moves_text(moves["moves"])
    if moves["flags"]:
        parts.append("FLAGGED " + ", ".join(moves["flags"]))
    return "; ".join(parts) or "no field moved"


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
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [key.split(" ") for key in sorted(json.load(fh))]  # argv joined by spaces
    lemma4 = [
        ["verify", "lemma4", "--f", f, "--gfn", gfn]
        for f, gfn in itertools.product(LEMMA4_SOURCES, ("x", "atan", "cube"))
    ]
    cor4 = [["verify", "cor4", "--f", f, "--c", "0.2"] for f in COR4_SOURCES]
    variation = [
        ["compute", "wfi", "--f", f, "--w", w, "--alpha", "inf", "--p", p]
        for f, w, p in VARIATION_INPUTS
    ]
    table = os.path.join(work, "table-inputs.csv")
    ops.write_table(table, ops.Draw("bounds-quadcdf", 801))
    tables = [text.format(t=table).split(" ") for text in TABLE_INPUTS + WEIGHTED_TRANSPORT_INPUTS]
    closed = [text.split(" ") for text in SUP_VARIATION_INPUTS + CLOSED_FORM_INPUTS]
    for argv in golden + lemma4 + cor4 + variation + tables + closed:
        argv = [os.path.join(ROOT, a) if a.startswith("scenarios/") else a for a in argv]
        if all(case["argv"] != argv for case in out):
            out.append({"name": " ".join(argv), "argv": argv})
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
    parser.add_argument("--summary", action="store_true", help="one line per differing input")
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
    flagged = dict.fromkeys(FLAGS, 0)
    worst = {}
    for case, this, other in zip(job, results["this"], results["other"]):
        if this == other:
            continue
        differ += 1
        moves = compare(this, other)
        for flag in moves["flags"]:
            flagged[flag] += 1
        for kind, (move, field) in moves["moves"].items():
            worst[kind] = max(worst.get(kind, (0.0, "")), (move, f"{case['name']} {field}"))
        if args.summary:
            print(f"DIFF {case['name']}: {describe(moves)}")
            continue
        print(f"DIFF {case['name']}: {' '.join(case['argv'])}")
        for side, res in (("this", this), ("other", other)):
            print(f"  {side:5} exit {res['rc']}: {res['stdout'].rstrip()}")
        for path in sorted(set(this["files"]) | set(other["files"])):
            lines = (res["files"].get(path, "").splitlines() for res in (this, other))
            for n, (a, b) in enumerate(itertools.zip_longest(*lines), 1):
                if a != b:
                    print(f"  {path}:{n}\n    this  {a}\n    other {b}")
    print(f"{len(job)} inputs, {differ} differ")
    if differ:
        print("flagged: " + ", ".join(f"{n} in {flag}" for flag, n in flagged.items()))
        for line in _moves_text(worst):
            print(f"largest {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
