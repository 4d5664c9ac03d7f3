"""Workload process: runs a deck of CLI ops in-process and records them.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the checkout root, the ops (argv lists) and the mode:

* ``timed``: a closed loop with one client and no threads.  Whole passes
  over the deck, each op being one ``wrenyi.cli.main(argv)`` call with
  stdout captured, until at least ``seconds`` have passed.
* ``traced``: one untraced pass over the deck to warm up, one timed
  untraced pass, then one pass with the span tracer installed; the two
  timed passes give the tracing overhead and the traced pass the layer
  numbers.
* ``probe``: one pass over the deck, outputs only.

Every output is kept the first time an op runs; a later repetition that
prints different bytes is reported as a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _load_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from wrenyi import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"wrenyi was imported from {cli.__file__}, not from {src}")
    return cli


class Runner:
    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.outputs: dict[int, list] = {}
        self.mismatch: set[int] = set()

    def call(self, i: int) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(self.ops[i])
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        dt = time.perf_counter() - t0
        text = out.getvalue()
        seen = self.outputs.get(i)
        if seen is None:
            self.outputs[i] = [rc, text]
        elif seen != [rc, text]:
            self.mismatch.add(i)
        return dt

    def closed_loop(self, seconds: float) -> dict:
        lat = []
        t_start = time.perf_counter()
        while True:
            lat += [[i, self.call(i)] for i in range(len(self.ops))]
            if time.perf_counter() - t_start >= seconds:
                break
        return {"lat": lat, "elapsed": time.perf_counter() - t_start}

    def one_pass(self, on_op=None) -> dict:
        lat = []
        t_start = time.perf_counter()
        for i in range(len(self.ops)):
            if on_op:
                on_op(i)
            lat.append([i, self.call(i)])
        return {"lat": lat, "elapsed": time.perf_counter() - t_start}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    runner = Runner(_load_cli(job["root"]), job["ops"])
    result = {}
    mode = job["mode"]
    if mode == "timed":
        result.update(runner.closed_loop(job["seconds"]))
    elif mode == "probe":
        result.update(runner.one_pass())
    elif mode == "traced":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        runner.one_pass()
        result["untraced"] = runner.one_pass()
        tracer = Tracer()
        result["wrapped_bindings"] = tracer.install()
        try:
            result["traced"] = runner.one_pass(on_op=lambda i: setattr(tracer, "op_id", i))
        finally:
            tracer.uninstall()
        result["layers"] = tracer.summary()
        if job.get("spans"):
            tracer.save(job["spans"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["outputs"] = {str(i): v for i, v in runner.outputs.items()}
    result["mismatch"] = sorted(runner.mismatch)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
