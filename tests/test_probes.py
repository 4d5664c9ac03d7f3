"""The benchmark's known-failure probes, each against its mpmath reference.

A probe (``perfbench/ops.py``) is an input inside the accepted region
on which the program answers wrongly.  Each runs here as the benchmark
runs it: its argv through ``wrenyi.cli.main`` with stdout captured,
warnings not raised, and its output through ``reference.check_output``.
A probe that fails today is a strict expected failure, so one that
starts passing fails this suite until the benchmark moves it into its
deck; the probes that pass already are asserted to pass.  Nothing under
``perfbench/`` is written.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from wrenyi import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
_WRITE_BYTECODE = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
try:
    import ops
    import reference
finally:
    sys.dont_write_bytecode = _WRITE_BYTECODE

# Probes that pass although they are still listed as known failures.
PASSING = {
    ("measures", "total variation misses the |x|^0.6 cusp at 0"),
    ("bounds", "fii with p = 1 on gg p>1 with e^{gx}: integrand not finite"),
}

PROBES = [
    pytest.param(
        workload,
        i,
        id=f"{workload}-{i}",
        marks=()
        if (workload, reason) in PASSING
        else pytest.mark.xfail(strict=True, reason=reason, raises=AssertionError),
    )
    for workload in ops.WORKLOADS
    for i, (reason, _) in enumerate(ops._PROBES[workload])
]


def test_probe_counts():
    assert len(PROBES) == 16
    assert all(any(reason == r for r, _ in ops._PROBES[wl]) for wl, reason in PASSING)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workload, index", PROBES)
def test_probe(workload, index, tmp_path):
    op = ops.known_failure_ops(workload, str(tmp_path))[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(op["argv"])
        except SystemExit:  # argparse rejects the argv
            rc = 2
    problems = reference.check_output(op, rc, out.getvalue(), reference.reference_terms(op))
    assert problems == [], op["reason"]
