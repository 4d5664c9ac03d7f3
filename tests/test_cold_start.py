"""Fresh-interpreter runs: what a cold start imports, and what a CLI run
leaves on stderr.

``scipy.special`` (and the reproduction bundle) load on first use, so a
run that never needs an incomplete Gamma/Beta function or a Beta norm
pays for numpy and wrenyi only.  Each case starts its own interpreter,
because the test process itself has long since imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli_golden.json").read_text(encoding="utf-8"))
LAZY = ("scipy", "scipy.special", "scipy.optimize", "wrenyi.repro")

# Runs argv through wrenyi.cli.main, then reports which of LAZY are loaded
# on its last stdout line.
RUN_AND_REPORT = f"""
import json, sys
from wrenyi.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in {LAZY!r} if m in sys.modules)))
sys.exit(code)
"""


def fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


@pytest.mark.parametrize("module", ["wrenyi", "wrenyi.cli"])
def test_import_loads_neither_scipy_nor_repro(module):
    p = fresh("-c", f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    assert p.returncode == 0, p.stderr
    loaded = set(json.loads(p.stdout))
    assert module in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "wrenyi.repro" not in loaded


def test_laplace_compute_never_loads_scipy_special():
    p = fresh("-c", RUN_AND_REPORT, "compute", "we", "--f", "laplace:1", "--w", "pow:2", "--p", "2")
    assert p.returncode == 0, p.stderr
    *out, loaded = p.stdout.splitlines()
    assert json.loads(out[-1])["measure"] == "we"
    assert json.loads(loaded) == []


def test_weighted_cor4_median_loads_no_scipy():
    # The median hint of cor4 is a root of the weighted source's CDF.
    argv = ["verify", "cor4", "--f", "weighted:laplace:1;pow:1", "--c", "0.2"]
    p = fresh("-c", RUN_AND_REPORT, *argv)
    assert p.returncode == 0, p.stderr
    *out, loaded = p.stdout.splitlines()
    assert json.loads(out[-1])["id"] == "cor4"
    assert json.loads(loaded) == []


def test_gg_compute_loads_scipy_special_and_prints_its_golden_bytes():
    argv = ["compute", "dev", "--f", "gg:2,2", "--w", "abspoly:1,0.5", "--alpha", "inf"]
    p = fresh("-c", RUN_AND_REPORT, *argv)
    golden = GOLDEN[" ".join(argv)]
    assert p.returncode == golden["exit"], p.stderr
    *out, loaded = p.stdout.splitlines(keepends=True)
    assert "".join(out) == golden["stdout"]
    assert "scipy.special" in json.loads(loaded)
    assert "wrenyi.repro" not in json.loads(loaded)


def test_overflowing_deviation_sup_is_a_numeric_error_with_empty_stderr():
    # e^x |x| overflows on the scan grid of the alpha = inf sup.
    p = fresh(
        "-m", "wrenyi.cli", "compute", "dev", "--f", "laplace:1", "--w", "expw:1", "--alpha", "inf"
    )
    assert p.returncode == 3
    assert p.stderr == ""
    assert json.loads(p.stdout) == {
        "error": {"type": "numeric", "message": "esssup of phi(x)|x| is not finite"}
    }
